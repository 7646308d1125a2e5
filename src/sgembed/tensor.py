"""Dense float64 tensors with a reverse-mode autodiff tape.

Its public functions, other than ``backward`` and the degenerate-norm
counter's two accessors, are exactly the ops the pipeline runs, and the
benchmark's tracer times each of them.

Data is always a C-contiguous float64 ndarray. Operations record tape
nodes only when some input requires gradients, so frozen-model inference
pays no bookkeeping cost. The recorded graph is rebuilt on every forward
pass (define-by-run). Nodes are numbered as they are recorded, so a node's
number is above its inputs' nodes', and ``backward`` replays the nodes below
the loss from the newest down: each runs once, after all its consumers, and
its output gradient is the sum of their shares in descending creation order.
A node keeps its input nodes and its requires-grad leaf tensors, never an
intermediate tensor, and its rule keeps only the arrays it reads (``relu``
keeps the mask ``x > 0``, not ``x``). So the tape holds no intermediate array
that no rule reads: it is freed once its caller drops it, and reference counting
frees the whole tape with its loss. Calling ``backward`` a second time
without re-running the forward pass accumulates leaf gradients a second
time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np


class Mode(Enum):
    """Forward-pass mode; only batchnorm behaves differently between the two."""

    TRAIN = "train"
    EVAL = "eval"


class ShapeError(ValueError):
    """Inputs whose dimensions cannot be combined by the requested op."""


class IndexRangeError(ValueError):
    """An integer index argument falls outside its allowed range."""


class EmptySegmentError(ValueError):
    """segment_mean was asked to average a segment with no members."""


NORM_FLOOR = 1e-8

# Rows hitting the degenerate-norm rule in rowwise_l2_normalize are counted
# here so callers can detect rows that passed through unnormalized.
_degenerate_norm_count = 0


def degenerate_norm_count() -> int:
    return _degenerate_norm_count


def reset_degenerate_norm_count() -> None:
    global _degenerate_norm_count
    _degenerate_norm_count = 0


def _as_array(data) -> np.ndarray:
    return np.ascontiguousarray(data, dtype=np.float64)


class Tensor:
    """A shaped float64 value, optionally participating in gradient recording.

    ``grad`` is populated only for leaf tensors (no producing op) with
    ``requires_grad=True``; intermediate results carry gradients internally
    during backward but never expose them.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_node_seq = itertools.count()


class TapeNode:
    """One recorded primitive op: where each input's gradient goes, and the
    backward rule.

    ``parents`` has one entry per input tensor: the input's TapeNode when a
    recorded op made it, the tensor itself when it is a leaf that requires
    grad, and None otherwise. Neither ``out`` nor an intermediate input is
    kept; the rule's closure holds only the arrays it reads, so a tape holds
    no reference cycle back to its tensors. ``seq`` numbers the nodes in
    creation order, so every node's parents have smaller numbers than it.
    """

    __slots__ = ("parents", "backward_fn", "name", "seq")

    def __init__(self, parents, out, backward_fn, name):
        self.parents = tuple(
            p.node if p.node is not None else p if p.requires_grad else None for p in parents
        )
        self.backward_fn = backward_fn
        self.name = name
        self.seq = next(_node_seq)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf below loss.

    The loss must be a single-element tensor. Gradients add onto whatever
    is already in ``grad``; running backward twice doubles them.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    # Pending output gradients, keyed by the node that produced the output;
    # the heap pops the newest pending node, whose consumers have all run.
    grads: dict[TapeNode, np.ndarray] = {loss.node: seed}
    pending = [(-loss.node.seq, loss.node)]
    while pending:
        _, node = heapq.heappop(pending)
        parent_grads = node.backward_fn(grads.pop(node))
        for parent, g in zip(node.parents, parent_grads):
            if parent is None or g is None:
                continue
            if isinstance(parent, Tensor):
                parent.grad = g if parent.grad is None else parent.grad + g
            elif parent in grads:
                grads[parent] = grads[parent] + g
            else:
                grads[parent] = g
                heapq.heappush(pending, (-parent.seq, parent))


def _result(data, parents, backward_fn, name) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = TapeNode(parents, out, backward_fn, name)
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul expects (m,k)@(k,n), got {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def back(g):
        return g @ b_data.T, a_data.T @ g

    return _result(a_data @ b_data, (a, b), back, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also accepts a (m,) bias as second arg for a (n,m) first arg."""
    if a.shape == b.shape:
        return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return _result(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)), "add")
    raise ShapeError(f"add expects equal shapes or (n,m)+(m,), got {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub expects equal shapes, got {a.shape} - {b.shape}")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul expects equal shapes, got {a.shape} * {b.shape}")
    a_data, b_data = a.data, b.data
    return _result(a_data * b_data, (a, b), lambda g: (g * b_data, g * a_data), "mul")


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,), "mul_scalar")


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat expects at least one tensor")
    ndim = tensors[0].data.ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"concat axis {axis} invalid for {ndim}-d tensors")
    other = [d for d in range(ndim) if d != axis]
    for t in tensors[1:]:
        if t.data.ndim != ndim or any(t.shape[d] != tensors[0].shape[d] for d in other):
            raise ShapeError(
                f"concat shapes must match off-axis: {[t.shape for t in tensors]}"
            )
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, back, "concat")


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0 (the kink counts as inactive). fmax maps NaN to
    # 0 and adding 0.0 turns a -0.0 result into 0.0, so the output equals
    # np.where(x > 0, x, 0.0) bit for bit without a per-element branch.
    # The rule keeps only the 1-byte mask, and only when a node is recorded.
    x = a.data
    out = np.fmax(x, 0.0)
    out += 0.0
    mask = x > 0 if a.requires_grad else None
    return _result(out, (a,), lambda g: (g * mask,), "relu")


def logsigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)), computed without overflow for large |x|."""
    x = a.data
    e = np.exp(-np.abs(x))
    log1p_e = np.log1p(e)
    out = np.where(x >= 0, -log1p_e, x - log1p_e)
    sig_neg = np.where(x >= 0, e, 1.0) / (1.0 + e)  # sigmoid(-x)
    return _result(out, (a,), lambda g: (g * sig_neg,), "logsigmoid")


def sum(a: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - deliberate, mirrors numpy's sum
    """Sum of all elements, or with ``axis=1`` the row sums of a 2-d tensor."""
    shape = a.shape
    if axis is None:
        return _result(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),), "sum")
    if axis != 1 or a.data.ndim != 2:
        raise ShapeError(f"sum supports axis=None or axis=1 of a 2-d tensor, got axis={axis} for shape {shape}")
    return _result(a.data.sum(axis=1), (a,), lambda g: (np.broadcast_to(g[:, None], shape).copy(),), "sum")


def rowwise_l2_normalize(a: Tensor) -> Tensor:
    """Scale every row of a 2-d tensor to unit length.

    Rows with norm below NORM_FLOOR pass through unchanged and bump the
    module's degenerate-row counter; starving them of a 1/0 keeps early
    training free of NaNs.
    """
    global _degenerate_norm_count
    if a.data.ndim != 2:
        raise ShapeError(f"rowwise_l2_normalize expects a 2-d tensor, got shape {a.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1))
    degenerate = norms < NORM_FLOOR
    n_deg = int(degenerate.sum())
    if n_deg:
        _degenerate_norm_count += n_deg
    safe = np.where(degenerate, 1.0, norms)
    out = a.data / safe[:, None]

    def back(g):
        dots = (out * g).sum(axis=1, keepdims=True)
        gx = (g - out * dots) / safe[:, None]
        if n_deg:
            gx[degenerate] = g[degenerate]
        return (gx,)

    return _result(out, (a,), back, "rowwise_l2_normalize")


def _scatter_add(rows: np.ndarray, ids: np.ndarray, num_out: int) -> np.ndarray:
    """(num_out, f) sums of the (len(ids), f) rows by output row ``ids``.

    One flat bincount adds the rows in row order, as ``np.add.at`` into
    zeros does, so the sums are bit-identical to it. With no ids bincount
    returns integer zeros, hence the cast.
    """
    f = rows.shape[1]
    flat = (ids[:, None] * f + np.arange(f)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=num_out * f)
    return sums.astype(np.float64, copy=False).reshape(num_out, f)


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Per-segment mean of rows; every segment must receive at least one row."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    if values.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != values.shape[0]:
        raise ShapeError(
            f"segment_mean expects (v,f) values and (v,) ids, got {values.shape} and {ids.shape}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexRangeError(f"segment ids must lie in [0, {num_segments})")
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptySegmentError(f"segments with no members: {empty.tolist()}")
    out = _scatter_add(values.data, ids, num_segments)
    out /= counts[:, None]

    def back(g):
        return ((g / counts[:, None])[ids],)

    return _result(out, (values,), back, "segment_mean")


def gather_rows(table: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"gather_rows expects a 2-d table and 1-d indices, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexRangeError(f"row indices must lie in [0, {table.shape[0]})")
    n_rows = table.shape[0]

    def back(g):
        return (_scatter_add(g, idx, n_rows),)

    return _result(table.data[idx], (table,), back, "gather_rows")


@dataclass
class BatchNormState:
    """Running statistics of one batchnorm instance; its hyperparameters are shared constants."""

    momentum: ClassVar[float] = 0.1
    eps: ClassVar[float] = 1e-5
    running_mean: np.ndarray
    running_var: np.ndarray


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, mode: Mode) -> Tensor:
    """Per-feature batch normalization over the row axis.

    TRAIN normalizes with the batch's (biased) statistics and updates the
    running buffers in place; EVAL is a fixed affine map using the running
    buffers, so repeated EVAL calls on the same input are bit-identical.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batchnorm expects a 2-d input, got shape {x.shape}")
    f = x.shape[1]
    if gamma.shape != (f,) or beta.shape != (f,) or state.running_mean.shape != (f,):
        raise ShapeError(f"batchnorm parameter width must be {f}")
    n = x.shape[0]
    if mode is Mode.TRAIN:
        if n == 0:
            raise ShapeError("batchnorm in TRAIN mode requires at least one row")
        # The same sums and divisions as x.mean(0) and x.var(0), without
        # var computing the mean and the centered rows a second time.
        mu = x.data.sum(axis=0) / n
        centered = x.data - mu
        var = (centered * centered).sum(axis=0) / n
        m = state.momentum
        state.running_mean[:] = (1.0 - m) * state.running_mean + m * mu
        state.running_var[:] = (1.0 - m) * state.running_var + m * var
    else:
        centered = x.data - state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = np.multiply(centered, inv_std, out=centered)
    gamma_data = gamma.data

    def back(g):
        dgamma = (g * xhat).sum(axis=0)
        dbeta = g.sum(axis=0)
        if mode is Mode.TRAIN:  # the batch statistics depend on x too
            dx = gamma_data * inv_std * (g - dbeta / n - xhat * (dgamma / n))
        else:
            dx = g * (gamma_data * inv_std)
        return dx, dgamma, dbeta

    # gamma * xhat + beta with the sum in place: the same operations in the
    # same order, one full-size temporary fewer. Unrecorded, no rule reads
    # xhat, so the product overwrites it too.
    if x.requires_grad or gamma.requires_grad or beta.requires_grad:
        out = gamma.data * xhat
    else:
        out = np.multiply(gamma.data, xhat, out=xhat)
    out += beta.data
    return _result(out, (x, gamma, beta), back, "batchnorm")
