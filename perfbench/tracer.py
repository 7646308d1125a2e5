"""Span tracer for the traced benchmark run.

The tracer times calls into sgembed's public functions from outside the
package: it replaces each name with a wrapper in the namespace where the
caller looks it up, records one span per call (name, start, end, parent)
in memory, and restores every name on ``uninstall``. Tensor ops are
looked up as ``T.<op>`` by model, objectives and train, so they are
wrapped in ``sgembed.tensor``; train, evaluate and checkpoint import their
collaborators by name, so those are wrapped where they are bound.

``sgembed.tensor.TapeNode`` is swapped for a subclass that counts the
nodes recorded and times each ``backward_fn`` that runs.

A wrapped name that no longer exists, or that is no longer a function,
raises ``TracerError`` at install time, so a refactor that rebinds a name
fails loudly instead of reporting zero.
"""

from __future__ import annotations

import importlib
import os
import time
import types

TENSOR_OPS = (
    "matmul",
    "add",
    "sub",
    "mul",
    "mul_scalar",
    "concat",
    "relu",
    "logsigmoid",
    "sum",
    "batchnorm",
    "segment_mean",
    "gather_rows",
    "rowwise_l2_normalize",
)

NUM_LAYERS = 2  # the acceptance config the workloads use

# (module, attribute, span name). The attribute is looked up in the
# module's own namespace: that is where callers resolve it.
WRAPS = tuple(("sgembed.tensor", op, "tensor.fwd." + op) for op in TENSOR_OPS) + (
    ("sgembed.train", "backward", "tensor.backward"),
    ("sgembed.model", "forward", "model.forward"),
    ("sgembed.model", "layer_forward", "model.layer_forward"),
    ("sgembed.model", "pool", "model.pool"),
    ("sgembed.model.BatchedGraph", "from_graphs", "model.from_graphs"),
    ("sgembed.evaluate", "embed_graphs", "model.embed_graphs"),
    ("sgembed.objectives.TripleSampler", "sample_triple", "objectives.sample_triple"),
    ("sgembed.train", "train", "train.train"),
    ("sgembed.train", "forward", "train.forward"),
    ("sgembed.train", "compute_loss", "train.compute_loss"),
    ("sgembed.train", "adam_step", "train.adam_step"),
    ("sgembed.train", "evaluate", "train.evaluate"),
    ("sgembed.train", "save_checkpoint", "train.save_checkpoint"),
    ("sgembed.train", "augment_trivial", "scene.augment_trivial"),
    ("sgembed.evaluate", "evaluate", "evaluate.evaluate"),
    ("sgembed.evaluate", "evaluate_embeddings", "evaluate.evaluate_embeddings"),
    ("sgembed.evaluate", "rank_queries", "evaluate.rank_queries"),
    ("sgembed.evaluate", "corrupt", "scene.corrupt"),
    ("sgembed.evaluate", "augment_trivial", "scene.augment_trivial"),
    ("sgembed.scene", "load_graphs", "scene.load_graphs"),
    ("sgembed.scene", "load_similarity", "scene.load_similarity"),
    ("sgembed.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
)

_COMMON_SPANS = {
    "model.forward",
    "model.from_graphs",
    "model.pool",
    "model.embed_graphs",
    "scene.load_graphs",
    "scene.load_similarity",
    "scene.augment_trivial",
    "checkpoint.load_checkpoint",
    "evaluate.evaluate_embeddings",
} | {f"model.layer_forward.{k}" for k in range(NUM_LAYERS)} | {
    "tensor.fwd." + op
    for op in ("matmul", "add", "concat", "relu", "batchnorm", "segment_mean", "gather_rows", "rowwise_l2_normalize")
}

# Spans each workload is predicted to produce; the self-check fails a run
# in which any of them is missing.
PREDICTED_SPANS = {
    "train": _COMMON_SPANS
    | {"tensor.fwd." + op for op in TENSOR_OPS}
    | {"tensor.bwd." + op for op in TENSOR_OPS}
    | {
        "tensor.backward",
        "objectives.sample_triple",
        "train.train",
        "train.forward",
        "train.compute_loss",
        "train.adam_step",
        "train.evaluate",
        "train.save_checkpoint",
    },
    "eval-pairs": _COMMON_SPANS | {"evaluate.evaluate"},
    "retrieval-sweep": (_COMMON_SPANS - {"evaluate.evaluate_embeddings"})
    | {"evaluate.rank_queries", "scene.corrupt"},
}

# Per-layer metrics predicted to read exactly 0: nothing outside `train`
# records gradients, samples triples or steps the optimizer.
_NO_GRADIENT = (
    "tensor.bwd_s.",
    "tensor.backward_",
    "tensor.tape_nodes_used_ratio",
    "objectives.",
    "optim.",
    "train.phase_s.",
)
PREDICTED_ZERO = {"train": (), "eval-pairs": _NO_GRADIENT, "retrieval-sweep": _NO_GRADIENT}


class TracerError(RuntimeError):
    """A name the tracer wraps is missing or is no longer a function."""


def _resolve(path: str):
    """A module, or a class inside a module, reached by dotted path.

    ``importlib.import_module`` is used because the package re-exports
    functions under the names of some of its modules (``sgembed.evaluate``
    as an attribute is the function, not the module).
    """
    try:
        return importlib.import_module(path)
    except ImportError:
        module_path, _, cls_name = path.rpartition(".")
        owner = getattr(importlib.import_module(module_path), cls_name, None)
        if not isinstance(owner, type):
            raise TracerError(f"{path}: no such module or class") from None
        return owner


class Tracer:
    """Spans in memory: ``spans[i] = [name, start, end, parent index or -1]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._layer = 0
        self.tape_nodes = 0
        self.backward_fns_run = 0
        self.graphs_forwarded = 0
        self.batches = 0
        self.batch_nodes = 0
        self.batch_edges = 0
        self.checkpoint_bytes: list[int] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        try:
            for owner_path, attr, span in WRAPS:
                self._wrap(_resolve(owner_path), attr, span)
            self._swap_tape_node(importlib.import_module("sgembed.tensor"))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, span: str) -> None:
        original = vars(owner).get(attr)
        if isinstance(original, classmethod):
            func = original.__func__
        elif isinstance(original, types.FunctionType):
            func = original
        elif original is None:
            raise TracerError(f"{owner.__name__}.{attr} is missing")
        else:
            raise TracerError(f"{owner.__name__}.{attr} is {type(original).__name__}, expected a function")
        name_of = self._layer_span if span == "model.layer_forward" else (lambda args: span)
        after = {
            "model.forward": self._after_forward,
            "train.forward": self._after_forward,
            "model.from_graphs": self._after_batch,
            "train.save_checkpoint": self._after_save,
        }.get(span)
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            if span in ("model.forward", "train.forward"):
                self._layer = 0
            idx = enter(name_of(args))
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        self._patches.append((owner, attr, original))

    def _layer_span(self, args) -> str:
        k = self._layer
        self._layer += 1
        return f"model.layer_forward.{k}"

    def _after_forward(self, args, result) -> None:
        self.graphs_forwarded += result.shape[0]

    def _after_batch(self, args, result) -> None:
        self.batches += 1
        self.batch_nodes += result.num_nodes
        self.batch_edges += result.num_edges

    def _after_save(self, args, result) -> None:
        self.checkpoint_bytes.append(os.path.getsize(args[1]))

    def _swap_tape_node(self, tensor_mod) -> None:
        base = vars(tensor_mod).get("TapeNode")
        if not isinstance(base, type):
            raise TracerError("sgembed.tensor.TapeNode is not a class")
        tracer = self

        class TracedTapeNode(base):
            __slots__ = ()

            def __init__(self, parents, out, backward_fn, name):
                tracer.tape_nodes += 1
                span = "tensor.bwd." + name

                def timed_backward(g):
                    tracer.backward_fns_run += 1
                    idx = tracer.enter(span)
                    try:
                        return backward_fn(g)
                    finally:
                        tracer.exit(idx)

                super().__init__(parents, out, timed_backward, name)

        tensor_mod.TapeNode = TracedTapeNode
        self._patches.append((tensor_mod, "TapeNode", base))

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: seconds and calls, split by root span (set-up or call)."""
        roots: list[int] = []
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            root = i if parent < 0 else roots[parent]
            roots.append(root)
            entry = out.setdefault(name, {"setup_s": 0.0, "call_s": 0.0, "setup_n": 0, "call_n": 0})
            phase = "setup" if self.spans[root][0] == "perfbench.setup" else "call"
            entry[phase + "_s"] += end - start
            entry[phase + "_n"] += 1
        return out

    def seconds_under(self, name: str, ancestors: set[str]) -> float:
        """Total seconds of spans called ``name`` that run inside one of ``ancestors``."""
        total = 0.0
        for name_i, start, end, parent in self.spans:
            if name_i != name:
                continue
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for op in TENSOR_OPS:
        spec += [
            (f"tensor.fwd_s.{op}", "s", "lower"),
            (f"tensor.fwd_calls.{op}", "count", "lower"),
            (f"tensor.bwd_s.{op}", "s", "lower"),
        ]
    spec += [
        ("tensor.backward_s", "s", "lower"),
        ("tensor.backward_calls", "count", "lower"),
        ("tensor.tape_nodes", "count", "lower"),
        ("tensor.tape_nodes_used_ratio", "ratio", "higher"),
        ("tensor.degenerate_rows", "count", "lower"),
        ("model.forward_s", "s", "lower"),
    ]
    spec += [(f"model.layer_forward_s.{k}", "s", "lower") for k in range(NUM_LAYERS)]
    spec += [
        ("model.batch_build_s", "s", "lower"),
        ("model.pool_s", "s", "lower"),
        ("model.embed_graphs_s", "s", "lower"),
        ("model.graphs_per_s", "1/s", "higher"),
        ("model.nodes_per_forward", "count", "higher"),
        ("model.edges_per_forward", "count", "higher"),
        ("objectives.sample_s", "s", "lower"),
        ("objectives.sample_calls", "count", "lower"),
        ("objectives.loss_s", "s", "lower"),
        ("objectives.loss_calls", "count", "lower"),
        ("optim.adam_step_s", "s", "lower"),
        ("optim.steps", "count", "lower"),
    ]
    spec += [(f"train.phase_s.{p}", "s", "lower") for p in TRAIN_PHASES] + [("train.phase_s.other", "s", "lower")]
    spec += [
        ("evaluate.embed_s", "s", "lower"),
        ("evaluate.correlate_s", "s", "lower"),
        ("evaluate.kendall_pairs_s", "s", "lower"),
        ("evaluate.spearman_pairs_s", "s", "lower"),
        ("evaluate.pearson_pairs_s", "s", "lower"),
        ("evaluate.kendall_pairs_peak_mib", "MiB", "lower"),
        ("evaluate.rank_queries_s", "s", "lower"),
        ("scene.load_graphs_s", "s", "lower"),
        ("scene.load_similarity_s", "s", "lower"),
        ("scene.corrupt_s", "s", "lower"),
        ("scene.corrupt_calls", "count", "lower"),
        ("scene.augment_s", "s", "lower"),
        ("checkpoint.load_s", "s", "lower"),
        ("checkpoint.save_s", "s", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("synth.generate_s", "s", "lower"),
        ("trace.slowdown_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return spec


# train.phase_s.<phase> -> the span of the name train() calls for it
TRAIN_PHASES = {
    "sample": "objectives.sample_triple",
    "forward": "train.forward",
    "loss": "train.compute_loss",
    "backward": "tensor.backward",
    "step": "train.adam_step",
    "validate": "train.evaluate",
    "checkpoint": "train.save_checkpoint",
}

PER_LAYER = _per_layer_spec()

def per_layer_metrics(tracer: Tracer, n_calls: int, direct: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value for a traced phase of one set-up and ``n_calls`` calls.

    Seconds and counts are the cost of one set-up plus one call: totals
    under the set-up span plus totals under the call spans divided by
    ``n_calls``. Metrics the workload measures itself come from ``direct``.
    """
    totals = tracer.totals()

    def seconds(*names):
        return sum(t["setup_s"] + t["call_s"] / n_calls for n in names if (t := totals.get(n)))

    def calls(*names):
        return sum(t["setup_n"] + t["call_n"] / n_calls for n in names if (t := totals.get(n)))

    forward_s = seconds("model.forward", "train.forward")
    phase_s = {p: seconds(span) for p, span in TRAIN_PHASES.items()}
    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.fwd_s.{op}"] = seconds("tensor.fwd." + op)
        m[f"tensor.fwd_calls.{op}"] = calls("tensor.fwd." + op)
        m[f"tensor.bwd_s.{op}"] = seconds("tensor.bwd." + op)
    m["tensor.backward_s"] = seconds("tensor.backward")
    m["tensor.backward_calls"] = calls("tensor.backward")
    m["tensor.tape_nodes"] = tracer.tape_nodes / n_calls
    m["tensor.tape_nodes_used_ratio"] = tracer.backward_fns_run / tracer.tape_nodes if tracer.tape_nodes else 0.0
    m["model.forward_s"] = forward_s
    for k in range(NUM_LAYERS):
        m[f"model.layer_forward_s.{k}"] = seconds(f"model.layer_forward.{k}")
    m["model.batch_build_s"] = seconds("model.from_graphs")
    m["model.pool_s"] = seconds("model.pool")
    m["model.embed_graphs_s"] = seconds("model.embed_graphs")
    m["model.graphs_per_s"] = tracer.graphs_forwarded / n_calls / forward_s if forward_s else 0.0
    m["model.nodes_per_forward"] = tracer.batch_nodes / tracer.batches if tracer.batches else 0.0
    m["model.edges_per_forward"] = tracer.batch_edges / tracer.batches if tracer.batches else 0.0
    m["objectives.sample_s"] = phase_s["sample"]
    m["objectives.sample_calls"] = calls("objectives.sample_triple")
    m["objectives.loss_s"] = phase_s["loss"]
    m["objectives.loss_calls"] = calls("train.compute_loss")
    m["optim.adam_step_s"] = phase_s["step"]
    m["optim.steps"] = calls("train.adam_step")
    for p, value in phase_s.items():
        m[f"train.phase_s.{p}"] = value
    train_s = seconds("train.train")
    m["train.phase_s.other"] = max(train_s - sum(phase_s.values()), 0.0) if train_s else 0.0
    m["evaluate.embed_s"] = tracer.seconds_under("model.embed_graphs", {"evaluate.evaluate", "train.evaluate"}) / n_calls
    m["evaluate.correlate_s"] = seconds("evaluate.evaluate_embeddings")
    m["evaluate.rank_queries_s"] = seconds("evaluate.rank_queries")
    m["scene.load_graphs_s"] = seconds("scene.load_graphs")
    m["scene.load_similarity_s"] = seconds("scene.load_similarity")
    m["scene.corrupt_s"] = seconds("scene.corrupt")
    m["scene.corrupt_calls"] = calls("scene.corrupt")
    m["scene.augment_s"] = seconds("scene.augment_trivial")
    m["checkpoint.load_s"] = seconds("checkpoint.load_checkpoint")
    m["checkpoint.save_s"] = phase_s["checkpoint"]
    saved = tracer.checkpoint_bytes
    m["checkpoint.bytes"] = sum(saved) / len(saved) if saved else 0.0
    m["trace.spans"] = len(tracer.spans) / n_calls
    m.update(direct)
    missing = [name for name, _, _ in PER_LAYER if name not in m]
    if missing:
        raise TracerError(f"per-layer metrics not computed: {missing}")
    return {name: m[name] for name, _, _ in PER_LAYER}


def self_check(workload: str, tracer: Tracer, metrics: dict[str, float]) -> list[str]:
    """Problems with the trace: predicted spans that never fired, predicted zeros that are not 0."""
    fired = {span[0] for span in tracer.spans}
    problems = [f"span {name} never fired" for name in sorted(PREDICTED_SPANS[workload] - fired)]
    problems += [
        f"{name} = {value!r}, predicted 0"
        for name, value in metrics.items()
        if name.startswith(PREDICTED_ZERO[workload]) and value != 0
    ]
    return problems


def _check_predictions() -> None:
    """Every wrapped span is predicted to fire on at least one workload."""
    spans = {span for _, _, span in WRAPS if span != "model.layer_forward"}
    spans |= {f"model.layer_forward.{k}" for k in range(NUM_LAYERS)} | {"tensor.bwd." + op for op in TENSOR_OPS}
    unused = spans - set().union(*PREDICTED_SPANS.values())
    if unused:
        raise TracerError(f"wrapped spans no workload is predicted to fire: {sorted(unused)}")


_check_predictions()
