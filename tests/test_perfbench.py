"""The benchmark's tracer against the current package: every name it wraps
exists, is wrapped on install and is restored on uninstall, it times
exactly the tensor module's ops, its tape node subclass records a
training step, and a tiny run of each workload fires every span the
traced benchmark predicts for it."""

import importlib
import importlib.util
import inspect
import os

import pytest

from sgembed.checkpoint import save_checkpoint
from sgembed.model import GcnModel, ModelConfig
from sgembed.objectives import LossConfig, Triple
from sgembed.scene import augment_trivial, save_dataset
from sgembed.synth import SynthConfig, generate
from sgembed.train import TrainConfig

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer_mod = _load_tracer()
    targets = [(tracer_mod._resolve(owner), attr) for owner, attr, _ in tracer_mod.WRAPS]
    targets.append((importlib.import_module("sgembed.tensor"), "TapeNode"))
    originals = [vars(owner).get(attr) for owner, attr in targets]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        installed = [vars(owner)[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()
    restored = [vars(owner)[attr] for owner, attr in targets]
    assert all(new is not old for new, old in zip(installed, originals))
    assert all(now is old for now, old in zip(restored, originals))


def test_tracer_times_every_tensor_op():
    # An op the tracer does not time, or a timed op the package lacks, fails here.
    tensor = importlib.import_module("sgembed.tensor")
    not_ops = {"backward", "degenerate_norm_count", "reset_degenerate_norm_count"}
    ops = {
        name
        for name, fn in vars(tensor).items()
        if inspect.isfunction(fn) and fn.__module__ == tensor.__name__ and not name.startswith("_")
    }
    assert ops - not_ops == set(_load_tracer().TENSOR_OPS)


def test_tracer_counts_tape_nodes_of_a_training_step():
    ds = generate(SynthConfig(n_images=6, n_object_labels=8, n_relationship_labels=4, n_topics=2, seed=1))
    model = GcnModel.create(ModelConfig(label_dim=4, message_dim=4, out_dim=4, num_layers=2, mlp_hidden=4), ds.vocab)
    augmented = {i: augment_trivial(g, ds.vocab) for i, g in enumerate(ds.graphs)}
    triples = [Triple(0, 1, 2, 0.7, 0.2), Triple(3, 4, 5, 0.4, 0.3)]
    train_mod = importlib.import_module("sgembed.train")  # the package re-exports train() as sgembed.train
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        train_mod.backward(train_mod._batch_loss(model, augmented, triples, LossConfig()))
    finally:
        tracer.uninstall()
    assert tracer.tape_nodes == 53  # one TRAIN step of a 2-layer model with the ranking loss, at any width or batch
    assert tracer.backward_fns_run == tracer.tape_nodes  # every recorded node feeds the loss


# Two layers, as perfbench/tracer.py's NUM_LAYERS expects; tiny widths.
TINY_MODEL = ModelConfig(label_dim=4, message_dim=4, out_dim=4, num_layers=2, mlp_hidden=4)


def _package(name):
    # import_module: the package re-exports functions under some module names (sgembed.train, sgembed.evaluate).
    return importlib.import_module("sgembed." + name)


def _load_split(paths):
    scene = _package("scene")
    dataset = scene.load_dataset(*paths)
    return dataset.with_split(scene.split_dataset(dataset, (0.7, 0.2, 0.1), 0))


# Each workload's set-up and one call of perfbench/workloads.py at tiny sizes. Every package function is
# looked up when called, so the tracer's wrappers see it.
def _train(paths, checkpoint, out_dir):
    dataset = _load_split(paths)
    config = TrainConfig(model=TINY_MODEL, epochs=1, batch_size=4, eval_every=1)
    _package("train").train(dataset, config, out_dir=out_dir)
    best, _ = _package("checkpoint").load_checkpoint(os.path.join(out_dir, "best.ckpt"))
    _package("evaluate").evaluate(best, dataset, dataset.split.test)


def _eval_pairs(paths, checkpoint, out_dir):
    dataset = _load_split(paths)
    model, _ = _package("checkpoint").load_checkpoint(checkpoint)
    _package("evaluate").evaluate(model, dataset, dataset.split.train)


def _retrieval_sweep(paths, checkpoint, out_dir):
    dataset = _package("scene").load_dataset(*paths)
    model, _ = _package("checkpoint").load_checkpoint(checkpoint)
    _package("evaluate").noise_sweep(model, dataset, list(range(len(dataset.graphs))), [1, 2], 0)


@pytest.mark.parametrize(
    "workload, run", [("train", _train), ("eval-pairs", _eval_pairs), ("retrieval-sweep", _retrieval_sweep)]
)
def test_predicted_spans_fire_on_a_tiny_run_of_each_workload(tmp_path, workload, run):
    """A refactor that stops a predicted span (say tensor.fwd.add in EVAL) from firing fails here, not
    only in a traced benchmark run."""
    ds = generate(SynthConfig(n_images=20, n_object_labels=8, n_relationship_labels=4, n_topics=2, seed=1))
    paths = tuple(str(tmp_path / name) for name in ("graphs.jsonl", "similarity.csv", "vocabulary.json"))
    save_dataset(ds, *paths)
    checkpoint = str(tmp_path / "untrained.ckpt")
    save_checkpoint(GcnModel.create(TINY_MODEL, ds.vocab), checkpoint)
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        run(paths, checkpoint, str(tmp_path / "run"))
    finally:
        tracer.uninstall()
    assert tracer_mod.PREDICTED_SPANS[workload] - {span[0] for span in tracer.spans} == set()
