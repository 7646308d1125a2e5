"""Shared fixtures and the finite-difference gradient oracle."""

import numpy as np
import pytest

from sgembed import tensor as T
from sgembed.scene import Dataset, SceneGraph, SimilarityMatrix, Vocabulary

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
    ta, tb = ({**{n: p.data for n, p in m.parameters().items()}, **m.buffers()} for m in (a, b))
    return set(ta) == set(tb) and all(np.array_equal(ta[name], tb[name]) for name in ta)


@pytest.fixture(autouse=True)
def _reset_degenerate_counter():
    T.reset_degenerate_norm_count()
    yield


@pytest.fixture
def tiny_vocab():
    return Vocabulary(("cat", "bed", "man", "dog"), ("on", "near", "holding")).with_reserved()


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
