"""The benchmark's tracer against the current package: every name it wraps
exists, is wrapped on install and is restored on uninstall, it times
exactly the tensor module's ops, and its tape node subclass records a
training step."""

import importlib
import importlib.util
import inspect
import os

from sgembed.model import GcnModel, ModelConfig
from sgembed.objectives import LossConfig, Triple
from sgembed.scene import augment_trivial
from sgembed.synth import SynthConfig, generate

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
    assert tracer.tape_nodes > 0
    assert tracer.backward_fns_run == tracer.tape_nodes  # every recorded node feeds the loss
