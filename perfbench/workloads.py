"""The three benchmark workloads, run one per child process.

Each workload is a closed loop with one caller: set up (load the dataset
files, split, create the model or load the checkpoint) several times,
make one untimed warm-up call of reduced size, repeat one library call
until the time budget is spent, then check the outputs untimed.

  train            train() at the acceptance config, then evaluate() of
                   best.ckpt on the test split
  eval-pairs       evaluate() on a fixed 100-image index set
  retrieval-sweep  noise_sweep() over 1000 images at noise levels 1..20

Run as a script by run.py: ``python3 workloads.py <spec.json>``. The spec
names the workload, its input files, the time budget and whether to
trace; the result is written as JSON to the path the spec gives.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ACCEPT_MODEL = dict(label_dim=32, message_dim=64, out_dim=32, num_layers=2, mlp_hidden=64)
SPLIT_RATIOS = (0.7, 0.2, 0.1)
SPLIT_SEED = 0
TRAIN_EPOCHS = 30
TRAIN_BATCH = 16
TRAIN_LR = 1e-3
TRAIN_EVAL_EVERY = 5
TRAIN_SEED = 0
TAU_FLOOR = 0.25
EVAL_IMAGES = 100
SWEEP_IMAGES = 1000
NOISE_LEVELS = tuple(range(1, 21))
SWEEP_SEED = 0
RANK_CHECK_LEVEL = 10
RANK_CHECK_QUERIES = 64
ORACLE_TOL = 1e-10

WORKLOADS = ("train", "eval-pairs", "retrieval-sweep")

# End-to-end metrics: (name, unit, better). items_per_s counts triples on
# train, image pairs on eval-pairs and corrupted queries on retrieval-sweep.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("items_per_s", "1/s", "higher"),
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing package, broken tracer)."""


def import_sgembed():
    """Import sgembed from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "sgembed" / "__init__.py").is_file():
        raise BenchmarkError(f"no sgembed package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("sgembed")
    if Path(pkg.__file__).resolve().parent != (src / "sgembed").resolve():
        raise BenchmarkError(f"imported sgembed from {pkg.__file__}, not from {src}")
    return pkg


def _mod(name: str):
    # import_module: the package re-exports functions under some module names.
    return importlib.import_module("sgembed." + name)


def _model_config():
    return _mod("model").ModelConfig(**ACCEPT_MODEL)


def _dataset_paths(data_dir: str) -> tuple[str, str, str]:
    cli = _mod("cli")
    return tuple(os.path.join(data_dir, f) for f in (cli.GRAPHS_FILE, cli.SIMILARITY_FILE, cli.VOCAB_FILE))


# ---------------------------------------------------------------------------
# input generation (run by the parent process, untimed except for synth)
# ---------------------------------------------------------------------------


def prepare_inputs(workload: str, seed: int, work_dir: str) -> dict:
    """Generate the workload's dataset from ``seed`` and write it as CLI files.

    eval-pairs and retrieval-sweep also get an untrained acceptance-config
    checkpoint: their timings do not depend on the weights.
    """
    synth = _mod("synth")
    n_images = SWEEP_IMAGES if workload == "retrieval-sweep" else 200
    tic = time.perf_counter()
    dataset = synth.generate(synth.SynthConfig(n_images=n_images, seed=seed))
    generate_s = time.perf_counter() - tic
    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    _mod("scene").save_dataset(dataset, *_dataset_paths(data_dir))
    inputs = {"data_dir": data_dir, "synth_generate_s": generate_s, "checkpoint": None}
    if workload != "train":
        model = _mod("model").GcnModel.create(_model_config(), dataset.vocab, seed=0)
        inputs["checkpoint"] = os.path.join(work_dir, "untrained.ckpt")
        _mod("checkpoint").save_checkpoint(model, inputs["checkpoint"])
    return inputs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Train:
    """train() at the acceptance config; every call retrains from the same seed."""

    setups = 9
    min_calls = 2  # the determinism check compares two runs

    def __init__(self, inputs: dict, work_dir: str):
        self.inputs = inputs
        self.work_dir = work_dir
        self.runs: list[tuple[bytes, float]] = []  # (runlog.csv, test tau)

    def setup(self):
        scene = _mod("scene")
        dataset = scene.load_dataset(*_dataset_paths(self.inputs["data_dir"]))
        self.dataset = dataset.with_split(scene.split_dataset(dataset, SPLIT_RATIOS, SPLIT_SEED))
        # train() creates its own model; this times that creation as set-up.
        _mod("model").GcnModel.create(_model_config(), self.dataset.vocab, seed=TRAIN_SEED)
        tm = _mod("train")
        obj = _mod("objectives")
        self.config = tm.TrainConfig(
            model=_model_config(),
            loss=obj.LossConfig(kind="ranking"),
            sampler=obj.SamplerConfig(kind="probability"),
            epochs=TRAIN_EPOCHS,
            batch_size=TRAIN_BATCH,
            learning_rate=TRAIN_LR,
            seed=TRAIN_SEED,
            eval_every=TRAIN_EVAL_EVERY,
        )

    def warm_up(self) -> None:
        _mod("train").train(self.dataset, dataclasses.replace(self.config, epochs=1))

    def ops_per_call(self) -> int:
        return TRAIN_EPOCHS * math.ceil(len(self.dataset.split.train) / TRAIN_BATCH)

    def call(self) -> list[tuple[int, float]]:
        """One training run plus the test-split evaluation; returns (triples, seconds) per epoch."""
        out_dir = os.path.join(self.work_dir, f"train-{len(self.runs)}")
        _, entries = _mod("train").train(self.dataset, self.config, out_dir=out_dir)
        best, _ = _mod("checkpoint").load_checkpoint(os.path.join(out_dir, "best.ckpt"))
        tau = _mod("evaluate").evaluate(best, self.dataset, self.dataset.split.test).row_wise["kendall_tau"]
        with open(os.path.join(out_dir, "runlog.csv"), "rb") as fh:
            self.runs.append((fh.read(), tau))
        return [(len(self.dataset.split.train), e.seconds) for e in entries]

    def checks(self) -> dict[str, str]:
        runlogs = {runlog for runlog, _ in self.runs}
        taus = [tau for _, tau in self.runs]
        return {
            "runlog_repeats": _verdict(len(runlogs) == 1, f"{len(runlogs)} distinct runlogs in {len(self.runs)} runs"),
            "test_tau_floor": _verdict(
                all(tau is not None and tau >= TAU_FLOOR for tau in taus), f"test taus {taus} vs floor {TAU_FLOOR}"
            ),
        }

    def report(self) -> dict:
        return {"train.test_tau": self.runs[0][1] if self.runs else None}


class EvalPairs:
    """Repeated evaluate() calls on a fixed 100-image index set of a loaded checkpoint."""

    setups = 9
    min_calls = 3

    def __init__(self, inputs: dict, work_dir: str):
        self.inputs = inputs
        self.reports: list[dict] = []

    def setup(self):
        scene = _mod("scene")
        dataset = scene.load_dataset(*_dataset_paths(self.inputs["data_dir"]))
        self.dataset = dataset.with_split(scene.split_dataset(dataset, SPLIT_RATIOS, SPLIT_SEED))
        self.model, _ = _mod("checkpoint").load_checkpoint(
            self.inputs["checkpoint"], expected_vocab_hash=self.dataset.vocab.content_hash()
        )
        self.indices = list(self.dataset.split.train[:EVAL_IMAGES])

    def warm_up(self) -> None:
        _mod("evaluate").evaluate(self.model, self.dataset, self.indices)

    def ops_per_call(self) -> int:
        return 1

    def call(self) -> list[tuple[int, float]]:
        tic = time.perf_counter()
        report = _mod("evaluate").evaluate(self.model, self.dataset, self.indices)
        elapsed = time.perf_counter() - tic
        self.reports.append(report.to_dict())
        n = len(self.indices)
        return [(n * (n - 1) // 2, elapsed)]

    def pair_vectors(self):
        """The all-pairs (supervision, model) vectors evaluate() correlates."""
        scene = _mod("scene")
        graphs = [scene.augment_trivial(self.dataset.graphs[i], self.dataset.vocab) for i in self.indices]
        emb = _mod("model").embed_graphs(self.model, graphs)
        sims = self.dataset.similarity.values[np.ix_(self.indices, self.indices)]
        iu = np.triu_indices(len(self.indices), 1)
        return sims[iu], (emb @ emb.T)[iu]

    def checks(self) -> dict[str, str]:
        distinct = {json.dumps(r, sort_keys=True) for r in self.reports}
        out = {"reports_repeat": _verdict(len(distinct) == 1, f"{len(distinct)} distinct reports")}
        try:
            from scipy import stats
        except ImportError:
            out["all_pairs_vs_scipy"] = "skipped: scipy not importable"
            return out
        x, y = self.pair_vectors()
        oracle = {
            "kendall_tau": stats.kendalltau(x, y).statistic,
            "spearman_rho": stats.spearmanr(x, y).statistic,
            "pearson_r": stats.pearsonr(x, y).statistic,
        }
        got = self.reports[0]["all_pairs"] if self.reports else {}
        bad = {k: (got.get(k), v) for k, v in oracle.items() if got.get(k) is None or abs(got[k] - v) > ORACLE_TOL}
        out["all_pairs_vs_scipy"] = _verdict(not bad, f"library vs scipy differ: {bad}")
        return out

    def pair_metric_costs(self) -> dict[str, float]:
        """Seconds of each all-pairs metric, and Kendall's peak traced allocation."""
        ev = _mod("evaluate")
        x, y = self.pair_vectors()
        out = {}
        for name, fn in (("kendall", ev.kendall_tau), ("spearman", ev.spearman_rho), ("pearson", ev.pearson_r)):
            tic = time.perf_counter()
            fn(x, y)
            out[f"evaluate.{name}_pairs_s"] = time.perf_counter() - tic
        tracemalloc.start()
        try:
            ev.kendall_tau(x, y)
            out["evaluate.kendall_pairs_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        return out

    def report(self) -> dict:
        return {}


class RetrievalSweep:
    """noise_sweep() over every image of a 1000-image dataset at noise levels 1..20."""

    setups = 5
    min_calls = 1

    def __init__(self, inputs: dict, work_dir: str):
        self.inputs = inputs
        self.sweeps: list[list] = []

    def setup(self):
        dataset = _mod("scene").load_dataset(*_dataset_paths(self.inputs["data_dir"]))
        self.model, _ = _mod("checkpoint").load_checkpoint(
            self.inputs["checkpoint"], expected_vocab_hash=dataset.vocab.content_hash()
        )
        self.dataset = dataset
        self.indices = list(range(len(dataset.graphs)))

    def warm_up(self) -> None:
        _mod("evaluate").noise_sweep(self.model, self.dataset, self.indices, NOISE_LEVELS[:1], SWEEP_SEED)

    def ops_per_call(self) -> int:
        return len(NOISE_LEVELS)

    def call(self) -> list[tuple[int, float]]:
        tic = time.perf_counter()
        reports = _mod("evaluate").noise_sweep(self.model, self.dataset, self.indices, NOISE_LEVELS, SWEEP_SEED)
        elapsed = time.perf_counter() - tic
        self.sweeps.append(reports)
        return [(len(NOISE_LEVELS) * len(self.indices), elapsed)]

    def checks(self) -> dict[str, str]:
        ev, scene = _mod("evaluate"), _mod("scene")
        distinct = {tuple(r.ranks for r in sweep) for sweep in self.sweeps}
        out = {"sweeps_repeat": _verdict(len(distinct) == 1, f"{len(distinct)} distinct sweeps")}
        (clean,) = ev.noise_sweep(self.model, self.dataset, self.indices, [0], SWEEP_SEED)
        out["m0_mrr_exact"] = _verdict(clean.mrr == 1.0, f"MRR at M=0 is {clean.mrr!r}")

        # Brute-force rank of sampled queries at one level: embed the same
        # corrupted queries, sort scores descending (stable, so ties go to the
        # lower index) and find the target.
        vocab = self.dataset.vocab
        m = RANK_CHECK_LEVEL
        report = self.sweeps[0][NOISE_LEVELS.index(m)]
        index = ev.embed_graphs(self.model, [scene.augment_trivial(g, vocab) for g in self.dataset.graphs])
        corrupted = [
            scene.corrupt(self.dataset.graphs[i], m, np.random.SeedSequence((SWEEP_SEED, m, q)))
            for q, i in enumerate(self.indices)
        ]
        query_emb = ev.embed_graphs(self.model, [scene.augment_trivial(g, vocab) for g in corrupted])
        sample = np.random.default_rng(0).choice(len(self.indices), size=RANK_CHECK_QUERIES, replace=False)
        wrong = []
        for q in sample.tolist():
            order = np.argsort(-(index @ query_emb[q]), kind="stable")
            rank = int(np.flatnonzero(order == q)[0]) + 1
            if rank != report.ranks[q]:
                wrong.append((q, report.ranks[q], rank))
        out["sampled_ranks_brute_force"] = _verdict(not wrong, f"(query, library, brute force): {wrong}")
        return out

    def report(self) -> dict:
        return {}


CLASSES = {"train": Train, "eval-pairs": EvalPairs, "retrieval-sweep": RetrievalSweep}


def _verdict(ok: bool, why: str) -> str:
    return "passed" if ok else "failed: " + why


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Counts, timings and failures of one workload's calls."""

    def __init__(self, workload):
        self.workload = workload
        self.call_s: list[float] = []
        self.samples: list[tuple[int, float]] = []  # (items, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, min_calls: int, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            ops = self.workload.ops_per_call()
            # Tensor and TapeNode refer to each other, so a call's tape is
            # freed only by the cyclic collector. Collecting between calls
            # keeps one call's garbage out of the next call's time and peak
            # RSS, as in a CLI process that makes one call. Without it, peak
            # RSS on eval-pairs ranged from 870 to 1610 MiB over five seeds.
            gc.collect()
            idx = tracer.enter("perfbench.call") if tracer else None
            tic = time.perf_counter()
            try:
                samples = self.workload.call()
            except Exception:  # a failed call counts against the workload; stop the loop
                self.attempted += ops
                self.failed += ops
                self.errors.append(traceback.format_exc())
                return
            finally:
                if tracer:
                    tracer.exit(idx)
            self.call_s.append(time.perf_counter() - tic)
            self.samples += samples
            self.attempted += ops
            elapsed = time.perf_counter() - start
            if len(self.call_s) >= min_calls and elapsed + self.call_s[-1] > seconds:
                return


def timed_setups(workload, count: int, tracer=None) -> list[float]:
    times = []
    for _ in range(count):
        gc.collect()  # as before a call: the previous set-up's garbage is not this one's cost
        idx = tracer.enter("perfbench.setup") if tracer else None
        tic = time.perf_counter()
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.exit(idx)
        times.append(time.perf_counter() - tic)
    return times


def run(spec: dict) -> dict:
    """Run one workload as ``spec`` describes; returns the child's result record."""
    import_sgembed()
    name = spec["workload"]
    workload = CLASSES[name](spec["inputs"], spec["work_dir"])
    result = {"workload": name, "trace": spec["trace"]}
    if not spec["trace"]:
        setup_s = timed_setups(workload, workload.setups)
        workload.warm_up()
        loop = Loop(workload)
        loop.run(spec["seconds"], workload.min_calls)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["setup_s_samples"] = setup_s
        result["metrics"] = {"setup_s": statistics.median(setup_s), "peak_rss_mib": peak_mib}
        if loop.samples:
            result["metrics"]["items_per_s"] = statistics.median(i / s for i, s in loop.samples)
    else:
        result.update(_traced(name, workload, spec))
        loop = result.pop("loop")
    checks = {}
    if loop.call_s:
        try:
            checks = workload.checks()
        except Exception:
            checks = {"checks_ran": "failed: " + traceback.format_exc()}
    checks.update(result.pop("trace_checks", {}))
    failed_checks = sum(v.startswith("failed") for v in checks.values())
    result.update(
        checks=checks,
        attempted=loop.attempted + len(checks),
        failed=loop.failed + failed_checks,
        call_s=loop.call_s,
        samples=loop.samples,
        errors=loop.errors,
        report=workload.report(),
    )
    return result


def _traced(name: str, workload, spec: dict) -> dict:
    """Untraced reference calls, then one traced set-up and traced calls."""
    tensor = _mod("tensor")
    half = spec["seconds"] / 2
    timed_setups(workload, 1)
    workload.warm_up()
    reference = Loop(workload)
    reference.run(half, 1)
    if not reference.call_s:
        return {"loop": reference, "metrics": {}}

    tracer = tracer_mod.Tracer()
    tensor.reset_degenerate_norm_count()
    tracer.install()
    try:
        timed_setups(workload, 1, tracer)
        loop = Loop(workload)
        loop.run(half, 1, tracer)
    finally:
        tracer.uninstall()
    loop.attempted += reference.attempted
    loop.failed += reference.failed
    loop.errors += reference.errors
    if not loop.call_s:
        return {"loop": loop, "metrics": {}}

    n = len(loop.call_s)
    direct = {
        "tensor.degenerate_rows": tensor.degenerate_norm_count() / n,
        "synth.generate_s": spec["inputs"]["synth_generate_s"],
        "trace.slowdown_ratio": statistics.median(loop.call_s) / statistics.median(reference.call_s),
        "evaluate.kendall_pairs_s": 0.0,
        "evaluate.spearman_pairs_s": 0.0,
        "evaluate.pearson_pairs_s": 0.0,
        "evaluate.kendall_pairs_peak_mib": 0.0,
    }
    if name == "eval-pairs":
        direct.update(workload.pair_metric_costs())
    metrics = tracer_mod.per_layer_metrics(tracer, n, direct)
    problems = tracer_mod.self_check(name, tracer, metrics)
    return {
        "loop": loop,
        "metrics": metrics,
        "reference_call_s": reference.call_s,
        "trace_checks": {"tracer_self_check": _verdict(not problems, "; ".join(problems))},
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = run(spec)
    except (BenchmarkError, tracer_mod.TracerError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
