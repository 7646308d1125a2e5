"""Shared fixtures, the finite-difference gradient oracle and a numpy reference forward."""

import numpy as np
import pytest

from sgembed import tensor as T
from sgembed.scene import Dataset, SceneGraph, SimilarityMatrix, Vocabulary
from sgembed.tensor import BatchNormState

FD_STEP = 1e-5


def relative_gradient_error(forward_fn, leaves, h=FD_STEP, coords_per_leaf=None, rng=None):
    """Max scaled error between analytic and central-difference gradients.

    forward_fn() must rebuild the whole graph from the leaves' current
    data and return a scalar Tensor. For every checked coordinate the
    error is |analytic - numeric| / max(|analytic|, |numeric|, 1), i.e.
    absolute near zero and relative for large gradients. When
    coords_per_leaf is given, a random subset of coordinates per leaf is
    checked instead of all of them.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = forward_fn()
    T.backward(loss)
    worst = 0.0
    for leaf in leaves:
        # A leaf the loss does not depend on has gradient identically zero.
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat_data = leaf.data.reshape(-1)
        flat_grad = grad.reshape(-1)
        if coords_per_leaf is None or flat_data.size <= coords_per_leaf:
            coords = range(flat_data.size)
        else:
            coords = rng.choice(flat_data.size, size=coords_per_leaf, replace=False)
        for k in coords:
            original = flat_data[k]
            flat_data[k] = original + h
            f_plus = forward_fn().item()
            flat_data[k] = original - h
            f_minus = forward_fn().item()
            flat_data[k] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = flat_grad[k]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst


def models_equal(a, b) -> bool:
    """Exact equality of configs, vocabularies and every parameter and buffer."""
    if a.config != b.config or a.vocab != b.vocab:
        return False
    ta, tb = (m.arrays() for m in (a, b))
    return set(ta) == set(tb) and all(np.array_equal(ta[name], tb[name]) for name in ta)


def reference_layer(t, prefix, nodes, edges, src, tgt):
    """One EVAL-mode convolution layer in plain numpy from a name -> array dict ``t``."""
    p = lambda name: t[prefix + name]

    def bn_relu(x, bn):
        inv = 1.0 / np.sqrt(p(f"{bn}_bn.running_var") + BatchNormState.eps)
        return np.maximum((x - p(f"{bn}_bn.running_mean")) * inv * p(f"{bn}_gamma") + p(f"{bn}_beta"), 0.0)

    hidden = bn_relu(np.concatenate([nodes[src], edges, nodes[tgt]], axis=1) @ p("trunk_w"), "trunk")
    new_edges = hidden @ p("head_e_w") if prefix + "head_e_w" in t else None
    inbox = np.zeros((len(nodes), p("head_s_w").shape[1]))
    np.add.at(inbox, src, hidden @ p("head_s_w") + p("head_s_b"))
    np.add.at(inbox, tgt, hidden @ p("head_t_w"))
    pooled = inbox / np.bincount(np.concatenate([src, tgt]), minlength=len(nodes))[:, None]
    out = bn_relu(pooled @ p("node_w1"), "node") @ p("node_w2") + p("node_b2")
    return out / np.linalg.norm(out, axis=1, keepdims=True), new_edges


def reference_embeddings(t, num_layers, graphs):
    """EVAL-mode embeddings of augmented graphs, one reference_layer stack per graph."""
    rows = []
    for g in graphs:
        src, rel, tgt = (np.array([e[k] for e in g.edges], dtype=np.int64) for k in range(3))
        nodes, edges = t["object_table"][list(g.nodes)], t["relationship_table"][rel]
        for i in range(num_layers):
            nodes, edges = reference_layer(t, f"layers.{i}.", nodes, edges, src, tgt)
        pooled = nodes.mean(axis=0)
        rows.append(pooled / np.linalg.norm(pooled))
    return np.array(rows)


@pytest.fixture(autouse=True)
def _reset_degenerate_counter():
    T.reset_degenerate_norm_count()
    yield


@pytest.fixture
def tiny_vocab():
    return Vocabulary(("cat", "bed", "man", "dog"), ("on", "near", "holding"))


def make_dataset(n, vocab, seed=0, sim=None):
    """A small synthetic-by-hand dataset with simple chain graphs."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        k = int(rng.integers(2, 5))
        nodes = tuple(int(rng.integers(0, 4)) for _ in range(k))
        edges = tuple((j, int(rng.integers(0, 3)), j + 1) for j in range(k - 1))
        graphs.append(SceneGraph(f"img{i:03d}", nodes, edges))
    if sim is None:
        sim = rng.uniform(0.2, 0.9, size=(n, n))
        sim = (sim + sim.T) / 2.0
        np.fill_diagonal(sim, 1.0)
    similarity = SimilarityMatrix(tuple(g.image_id for g in graphs), sim)
    return Dataset(tuple(graphs), similarity, vocab)
