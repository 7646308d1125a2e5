"""Synthetic scene-graph dataset generator.

Each image draws a latent topic mixture on the unit simplex. Object labels
and edge predicates are drawn from topic-conditioned label distributions
(each topic strongly prefers its own contiguous label block), so the graph
content of two images statistically reflects how close their mixtures are.
The supervision matrix is the pairwise cosine of the topic mixtures,
rescaled affinely into a configurable narrow band, which reproduces the
near-uniform supervision regime the ranking objective is designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import Dataset, SceneGraph, SimilarityMatrix, Vocabulary

IN_BLOCK_MASS = 0.95


@dataclass(frozen=True)
class SynthConfig:
    n_images: int = 200
    n_object_labels: int = 60
    n_relationship_labels: int = 12
    n_topics: int = 3
    objects_min: int = 3
    objects_max: int = 40
    edges_min: int = 4
    edges_max: int = 28
    similarity_band: tuple[float, float] = (0.6, 0.8)
    seed: int = 7

    def __post_init__(self):
        if min(self.n_images, self.n_object_labels, self.n_relationship_labels) <= 0:
            raise ValueError("counts must be positive")
        if self.n_topics < 2:
            raise ValueError("need at least 2 topics")
        if not 2 <= self.objects_min <= self.objects_max:
            raise ValueError("objects_min must be >= 2 (edges need two endpoints) and <= objects_max")
        if not 1 <= self.edges_min <= self.edges_max:
            raise ValueError("edges_min must be >= 1 and <= edges_max")
        low, high = self.similarity_band
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("similarity band must satisfy 0 <= low < high <= 1")
        if self.n_topics > min(self.n_object_labels, self.n_relationship_labels):
            raise ValueError("more topics than labels per kind")


def _topic_blocks(n_labels: int, n_topics: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n_labels), n_topics)


def _draw_label(rng, topic: int, blocks, n_labels: int) -> int:
    if rng.random() < IN_BLOCK_MASS:
        return int(rng.choice(blocks[topic]))
    return int(rng.integers(n_labels))


def similarity_from_mixtures(mixtures: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Pairwise cosine of topic mixtures rescaled affinely into the band.

    Identical mixtures map to the band's top, orthogonal ones to its
    bottom; the diagonal is forced to exactly 1. Values are rounded to the
    similarity file format's 6-decimal precision so the in-memory matrix
    matches what a write/read cycle produces.
    """
    norms = np.linalg.norm(mixtures, axis=1, keepdims=True)
    cosine = (mixtures / norms) @ (mixtures / norms).T
    low, high = band
    values = np.round(low + (high - low) * np.clip(cosine, 0.0, 1.0), 6)
    np.fill_diagonal(values, 1.0)
    return values


def generate(config: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset for the given config."""
    mixtures = np.random.default_rng(np.random.SeedSequence((config.seed, 0))).dirichlet(
        np.ones(config.n_topics), size=config.n_images
    )
    object_blocks = _topic_blocks(config.n_object_labels, config.n_topics)
    rel_blocks = _topic_blocks(config.n_relationship_labels, config.n_topics)

    graphs = []
    for i in range(config.n_images):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1, i)))
        theta = mixtures[i]
        n_objects = int(rng.integers(config.objects_min, config.objects_max + 1))
        nodes = []
        for _ in range(n_objects):
            topic = int(rng.choice(config.n_topics, p=theta))
            nodes.append(_draw_label(rng, topic, object_blocks, config.n_object_labels))
        n_edges = int(rng.integers(config.edges_min, config.edges_max + 1))
        edges = []
        for _ in range(n_edges):
            src, tgt = rng.choice(n_objects, size=2, replace=False)
            topic = int(rng.choice(config.n_topics, p=theta))
            rel = _draw_label(rng, topic, rel_blocks, config.n_relationship_labels)
            edges.append((int(src), rel, int(tgt)))
        graphs.append(SceneGraph(f"img_{i:05d}", tuple(nodes), tuple(edges)))

    values = similarity_from_mixtures(mixtures, config.similarity_band)

    vocab = Vocabulary(
        tuple(f"obj_{k:03d}" for k in range(config.n_object_labels)),
        tuple(f"rel_{k:03d}" for k in range(config.n_relationship_labels)),
    )
    similarity = SimilarityMatrix(tuple(g.image_id for g in graphs), values)
    return Dataset(tuple(graphs), similarity, vocab)


def _difference_histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram counts of |values[i, a] - values[i, b]| over each row i and pair a < b of its off-diagonal entries.

    Exact without the (n-1)^2 difference matrix: with a row sorted into s,
    fl(t - s[a]) is monotone in t, so the partners b > a whose difference is
    below a bound e are those with s[b] below the least float t such that
    fl(t - s[a]) >= e, which ulp steps from s[a] + e reach.
    """
    n = values.shape[0]
    # np.histogram's last bin is closed: count differences <= the last edge as below its successor
    bounds = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))[:, None]
    below = np.zeros(len(edges), dtype=np.int64)
    for i in range(n):
        s = np.sort(values[i, np.arange(n) != i])
        t = s + bounds
        while (down := np.nextafter(t, -np.inf) - s >= bounds).any():
            t = np.where(down, np.nextafter(t, -np.inf), t)
        while (up := t - s < bounds).any():
            t = np.where(up, np.nextafter(t, np.inf), t)
        # values below t, less s[a] and the values before it, are the partners b > a below the bound
        below += np.maximum(np.searchsorted(s, t) - np.arange(1, len(s) + 1), 0).sum(axis=1)
    return np.diff(below)


def dataset_stats(dataset: Dataset) -> dict:
    """Summary of graph sizes and of the supervision value distribution.

    Includes the median edge count (the usual choice for the retrieval
    noise level) and a histogram of absolute pairwise similarity
    differences per anchor. A dataset has at least one image.
    """
    edge_counts = [len(g.edges) for g in dataset.graphs]
    object_counts = [len(g.nodes) for g in dataset.graphs]
    values = dataset.similarity.values
    off_diag = values[~np.eye(values.shape[0], dtype=bool)]

    diff_edges = np.linspace(0.0, 1.0, 21)
    diffs_hist = _difference_histogram(values, diff_edges)
    sim_hist, sim_edges = np.histogram(off_diag, bins=20, range=(0.0, 1.0))
    return {
        "n_images": len(dataset.graphs),
        "median_edges": int(round(float(np.median(edge_counts)))),
        "mean_edges": float(np.mean(edge_counts)),
        "mean_objects": float(np.mean(object_counts)),
        "min_objects": int(min(object_counts)),
        "max_objects": int(max(object_counts)),
        "similarity_histogram": {
            "bin_edges": [round(float(e), 6) for e in sim_edges],
            "counts": sim_hist.tolist(),
        },
        "similarity_difference_histogram": {
            "bin_edges": [round(float(e), 6) for e in diff_edges],
            "counts": diffs_hist.tolist(),
        },
    }
