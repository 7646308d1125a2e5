"""Rank-correlation evaluation against the supervision matrix and the
noisy-query retrieval experiment.

Correlations come in two scopes: row-wise (per anchor image, averaged over
rows where the metric is defined) and all-pairs (flattened strict upper
triangles). Kendall is the tie-corrected tau-b variant; Spearman uses
average ranks for ties.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import GcnModel, embed_graphs
from .scene import Dataset, augment_trivial, corrupt, write_csv

RECALL_KS = (1, 5, 10, 20, 50)
_QUERY_BLOCK = 256  # queries scored per matmul: the score block is _QUERY_BLOCK x index size


class UndefinedMetricError(ValueError):
    """The metric has no value for this input (constant vector or n < 2)."""


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"inputs must be equal-length 1-d vectors, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    return x, y


def _one_row(metric, x, y) -> float:
    value = metric(*(v[None] for v in _check_pair(x, y)))[0]
    if np.isnan(value):
        raise UndefinedMetricError("correlation undefined for a constant input or fewer than 2 observations")
    return float(value)


def _run_starts(head: np.ndarray) -> np.ndarray:
    """Per element of a sorted row (last axis), where its run of equal values starts; head marks each run's start."""
    return np.maximum.accumulate(np.where(head, np.arange(head.shape[-1]), 0), axis=-1)


def _inversions(keys: np.ndarray) -> np.ndarray:
    """Per row of an (r, m) int64 array of keys below m, the pairs i < j with keys[i] > keys[j].

    A bottom-up merge sort over rows padded to a power of two with the key m.
    At each level a stable argsort merges every pair of sorted blocks of every
    row at once, in linear time (two sorted runs), and a right-block key that
    moves from position order[p] to p passes order[p] - p larger left keys.
    """
    r, m = keys.shape
    width = 1 << max(m - 1, 0).bit_length()
    merged = np.full((r, width), m, dtype=np.int64)
    merged[:, :m] = keys
    inversions = np.zeros(r, dtype=np.int64)
    half = 1
    while half < width:
        blocks = merged.reshape(r, -1, 2 * half)
        order = np.argsort(blocks, axis=-1, kind="stable")
        # right keys move left by the larger left keys they pass, left keys move right: keep the leftward moves
        inversions += np.maximum(order - np.arange(2 * half), 0).sum(axis=(1, 2))
        merged = np.take_along_axis(blocks, order, axis=-1).reshape(r, width)
        half *= 2
    return inversions


def _kendall_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tau-b of each row pair of (r, m) arrays; NaN where a row is constant.

    Knight's method: sort each row by (x, y); then concordant minus discordant
    pairs is n0 - n1 - n2 + n3 - 2 * (inversions of y in that order), where n0
    counts all pairs and n1, n2, n3 the pairs tied in x, in y and in both.
    Every count is an exact int64.
    """
    by_y = np.argsort(y, axis=-1)
    y_head = np.diff(np.take_along_axis(y, by_y, axis=-1), axis=-1, prepend=-np.inf) != 0
    y_rank = _run_starts(y_head)  # y values below, by y-sorted position: ties share a rank
    x_by_y = np.take_along_axis(x, by_y, axis=-1)
    by_xy = np.argsort(x_by_y, axis=-1, kind="stable")  # ties in x stay in y order
    x_sorted, y_rank = (np.take_along_axis(v, by_xy, axis=-1) for v in (x_by_y, y_rank))
    x_head = np.diff(x_sorted, axis=-1, prepend=-np.inf) != 0
    xy_head = x_head | (np.diff(y_rank, axis=-1, prepend=-1) != 0)
    # a run start counts the earlier, unequal values an element pairs with: summed, all pairs minus the tied ones
    untied_x, untied_xy = (_run_starts(h).sum(axis=-1) for h in (x_head, xy_head))
    untied_y = y_rank.sum(axis=-1)
    # n0 - n1 - n2 + n3 is (n0 - n1) + (n0 - n2) - (n0 - n3)
    concordant_minus_discordant = untied_x + untied_y - untied_xy - 2 * _inversions(y_rank)
    denom = untied_x.astype(np.float64) * untied_y.astype(np.float64)
    return np.divide(
        concordant_minus_discordant.astype(np.float64), np.sqrt(denom), out=np.full(len(x), np.nan), where=denom > 0.0
    )


def kendall_tau(x, y) -> float:
    """Tie-corrected Kendall correlation (tau-b)."""
    return _one_row(_kendall_rows, x, y)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis; a run of ties gets the mean of its first and last sorted positions."""
    order = np.argsort(v, axis=-1)
    head = np.diff(np.take_along_axis(v, order, axis=-1), axis=-1, prepend=-np.inf) != 0
    tail = np.concatenate([head[..., 1:], np.ones_like(head[..., :1])], axis=-1)
    last = v.shape[-1] - 1 - _run_starts(tail[..., ::-1])[..., ::-1]  # a run's start in the reversed row
    ranks = np.empty(v.shape)
    np.put_along_axis(ranks, order, (_run_starts(head) + last + 2) / 2.0, axis=-1)
    return ranks


def _spearman_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _pearson_rows(_average_ranks(x), _average_ranks(y))


def spearman_rho(x, y) -> float:
    """Pearson correlation of average ranks."""
    return _one_row(_spearman_rows, x, y)


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of (r, m) arrays; NaN where a row is constant or empty."""
    xc, yc = (v - v.sum(axis=-1, keepdims=True) / max(v.shape[-1], 1) for v in (x, y))  # an empty row has no mean
    denom = np.sqrt((xc * xc).sum(axis=-1) * (yc * yc).sum(axis=-1))
    return np.divide((xc * yc).sum(axis=-1), denom, out=np.full(denom.shape, np.nan), where=denom != 0.0)


def pearson_r(x, y) -> float:
    return _one_row(_pearson_rows, x, y)


_METRICS = {"kendall_tau": _kendall_rows, "spearman_rho": _spearman_rows, "pearson_r": _pearson_rows}
METRIC_NAMES = tuple(_METRICS)


@dataclass
class EvalReport:
    """Correlation bundle; a metric is None when undefined on every row/pair.

    row_coverage counts the rows over which each row-wise metric was
    actually defined.
    """

    row_wise: dict[str, float | None]
    all_pairs: dict[str, float | None]
    n_images: int
    row_coverage: dict[str, int]

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_embeddings(embeddings: np.ndarray, sim_values: np.ndarray) -> EvalReport:
    """Correlate model inner products against supervision values.

    ``embeddings`` is (n, dim) and ``sim_values`` the matching (n, n)
    supervision block; rows where a metric is undefined are skipped and
    reported via coverage.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    sim_values = np.asarray(sim_values, dtype=np.float64)
    n = embeddings.shape[0]
    if sim_values.shape != (n, n):
        raise ValueError(f"similarity block must be {n}x{n}, got {sim_values.shape}")
    model_sims = embeddings @ embeddings.T
    x, y = (v[~np.eye(n, dtype=bool)].reshape(n, max(n - 1, 0)) for v in (sim_values, model_sims))
    _check_pair(x.ravel(), y.ravel())  # non-finite similarities raise ValueError
    upper = np.triu(np.ones((n, n), dtype=bool), 1)  # row-major, as np.triu_indices orders the pairs
    pair_sims, pair_model_sims = sim_values[upper][None], model_sims[upper][None]
    del upper  # n * n bytes that would stay live through row-wise Kendall, the call's peak
    row_wise, all_pairs, row_coverage = {}, {}, {}
    for name, metric in _METRICS.items():
        rows = metric(x, y)
        defined = rows[~np.isnan(rows)]
        row_coverage[name] = defined.size
        row_wise[name] = float(np.cumsum(defined)[-1] / defined.size) if defined.size else None  # left to right
        (pairs,) = metric(pair_sims, pair_model_sims)
        all_pairs[name] = None if np.isnan(pairs) else float(pairs)
    return EvalReport(row_wise=row_wise, all_pairs=all_pairs, n_images=n, row_coverage=row_coverage)


def evaluate(model: GcnModel, dataset: Dataset, indices) -> EvalReport:
    """Embed the given dataset indices (EVAL mode) and correlate against supervision."""
    indices = list(indices)
    if not indices:
        raise ValueError("cannot evaluate an empty split")
    graphs = [augment_trivial(dataset.graphs[i], dataset.vocab) for i in indices]
    embeddings = embed_graphs(model, graphs)
    sim_values = dataset.similarity.values[np.ix_(indices, indices)]
    return evaluate_embeddings(embeddings, sim_values)


def random_unit_embeddings(n: int, dim: int, seed: int) -> np.ndarray:
    """The random-feature baseline: seeded unit-norm gaussian vectors."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    emb = rng.normal(size=(n, dim))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


@dataclass
class RetrievalReport:
    """Metrics for one noise level; ranks are 1-based, one per query."""

    noise_level: int
    mrr: float
    recall_at: dict[int, float]
    ranks: tuple[int, ...]


def rank_queries(index_embeddings: np.ndarray, query_embeddings: np.ndarray, targets) -> tuple[int, ...]:
    """1-based rank of each query's target under descending inner product.

    Ties are broken by ascending index position, so an exact-duplicate
    query of its own index entry ranks first deterministically. A NaN score
    would be neither ahead of the target nor tied with it, so non-finite
    embeddings raise ``ValueError``.
    """
    index_embeddings = np.asarray(index_embeddings)
    query_embeddings = np.asarray(query_embeddings)
    if not (np.isfinite(index_embeddings).all() and np.isfinite(query_embeddings).all()):
        raise ValueError("inputs must be finite")
    ranks = []
    for start in range(0, len(targets), _QUERY_BLOCK):
        block = np.asarray(targets[start : start + _QUERY_BLOCK])[:, None]
        scores = query_embeddings[start : start + len(block)] @ index_embeddings.T
        own = np.take_along_axis(scores, block, axis=1)
        ahead = (scores > own) | ((scores == own) & (np.arange(scores.shape[1]) < block))
        ranks.extend((1 + ahead.sum(axis=1)).tolist())
    return tuple(ranks)


def _report_from_ranks(noise_level: int, ranks: tuple[int, ...]) -> RetrievalReport:
    arr = np.asarray(ranks, dtype=np.float64)
    mrr = float((1.0 / arr).mean())
    recall_at = {k: float((arr <= k).mean()) for k in RECALL_KS}
    # report invariants: mrr in (0,1], recall monotone in k, and non-first
    # ranks can contribute at most 1/2 each to the reciprocal mean
    assert 0.0 < mrr <= 1.0
    assert all(recall_at[a] <= recall_at[b] for a, b in zip(RECALL_KS, RECALL_KS[1:]))
    assert mrr <= recall_at[1] + (1.0 - recall_at[1]) / 2.0 + 1e-12
    return RetrievalReport(noise_level=noise_level, mrr=mrr, recall_at=recall_at, ranks=ranks)


def _corrupted_queries(dataset: Dataset, indices, m: int, seed: int):
    noisy = []
    for qpos, i in enumerate(indices):
        # default_rng builds the same SeedSequence from the tuple, and only
        # when some edge survives.
        g = corrupt(dataset.graphs[i], m, (seed, m, qpos))
        noisy.append(augment_trivial(g, dataset.vocab))
    return noisy


def retrieval_experiment(model: GcnModel, dataset: Dataset, indices, m: int, seed: int) -> RetrievalReport:
    """Corrupt every split image's graph, re-embed it and rank the clean index."""
    return noise_sweep(model, dataset, indices, [m], seed)[0]


def noise_sweep(model: GcnModel, dataset: Dataset, indices, m_list, seed: int) -> list[RetrievalReport]:
    """One retrieval experiment per noise level, sharing the clean index embeddings."""
    m_list = list(m_list)
    if not m_list:
        raise ValueError("noise sweep requires at least one noise level")
    indices = list(indices)
    if not indices:
        raise ValueError("cannot run retrieval on an empty split")
    clean = [augment_trivial(dataset.graphs[i], dataset.vocab) for i in indices]
    index_embeddings = embed_graphs(model, clean)
    reports = []
    for m in m_list:
        query_embeddings = embed_graphs(model, _corrupted_queries(dataset, indices, m, seed))
        ranks = rank_queries(index_embeddings, query_embeddings, range(len(indices)))
        reports.append(_report_from_ranks(m, ranks))
    return reports


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def _fmt(v: float | None) -> str:
    return "" if v is None else "%.6f" % v


_METRIC_COLUMNS = ["mrr"] + [f"r_at_{k}" for k in RECALL_KS]


def _metric_cells(report: RetrievalReport) -> list[str]:
    """A retrieval report's values under _METRIC_COLUMNS."""
    return [_fmt(report.mrr)] + [_fmt(report.recall_at[k]) for k in RECALL_KS]


def write_eval_report_csv(reports: dict[str, EvalReport], path) -> None:
    """Rows of scope,metric,value; scope is e.g. 'model.row_wise'."""
    rows = (
        [f"{name}.{scope}", metric, _fmt(getattr(reports[name], scope)[metric])]
        for name in sorted(reports)
        for scope in ("row_wise", "all_pairs")
        for metric in METRIC_NAMES
    )
    write_csv(path, ["scope", "metric", "value"], rows)


def write_retrieval_csv(reports, path) -> None:
    write_csv(path, ["M", *_METRIC_COLUMNS], ([r.noise_level, *_metric_cells(r)] for r in reports))


def write_sweep_csv(rows, path) -> None:
    """rows: iterable of (seed, RetrievalReport)."""
    write_csv(path, ["M", "seed", *_METRIC_COLUMNS], ([r.noise_level, seed, *_metric_cells(r)] for seed, r in rows))


def write_ranks_csv(report: RetrievalReport, image_ids, path) -> None:
    write_csv(path, ["image_id", "rank"], zip(image_ids, report.ranks))


def write_recall_curve_csv(report: RetrievalReport, path) -> None:
    """Recall at every k from 1 to the index size, for recall-vs-k plots."""
    n = len(report.ranks)
    hits = np.cumsum(np.bincount(report.ranks, minlength=n + 1)[1 : n + 1])  # ranks <= k, for k = 1..n
    write_csv(path, ["k", "recall"], ([k, _fmt(float(h / n))] for k, h in enumerate(hits, 1)))
