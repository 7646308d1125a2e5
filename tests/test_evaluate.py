"""Correlation metrics against brute-force oracles, evaluation scopes,
and the retrieval machinery."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from conftest import make_dataset
from sgembed import model as model_module
from sgembed.evaluate import (
    EvalReport,
    METRIC_NAMES,
    RECALL_KS,
    RetrievalReport,
    UndefinedMetricError,
    _METRICS,
    _QUERY_BLOCK,
    _average_ranks,
    _inversions,
    _kendall_rows,
    evaluate,
    evaluate_embeddings,
    kendall_tau,
    noise_sweep,
    pearson_r,
    random_unit_embeddings,
    rank_queries,
    retrieval_experiment,
    spearman_rho,
    write_recall_curve_csv,
)
from sgembed.model import GcnModel, ModelConfig
from sgembed.scene import split_dataset
from sgembed.synth import SynthConfig, generate


# ---------------------------------------------------------------------------
# brute-force oracles (pure python, independent of the vectorized path)
# ---------------------------------------------------------------------------


def oracle_kendall_tau_b(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        raise ZeroDivisionError
    return (concordant - discordant) / denom


def pair_sign_kendall_rows(x, y):
    """Tau-b of each row pair of (r, m) arrays from the sign of every pair, one column at a time: O(m^2) time."""
    xy = np.stack([x, y])
    terms = (np.sign(xy[..., i + 1 :] - xy[..., i, None]).prod(axis=0).sum(axis=-1) for i in range(x.shape[-1]))
    concordant_minus_discordant = sum(terms, np.zeros(len(x)))
    # pairs of unequal values: each value pairs with every strictly smaller one in its row
    denom = np.prod([(v[..., :, None] > v[..., None, :]).sum(axis=(-2, -1), dtype=np.float64) for v in (x, y)], axis=0)
    return np.divide(concordant_minus_discordant, np.sqrt(denom), out=np.full(len(x), np.nan), where=denom > 0.0)


def oracle_ranks(values):
    """Average ranks via sorted-position lookup, one tie group at a time."""
    pairs = sorted((v, i) for i, v in enumerate(values))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[pairs[k][1]] = avg
        i = j + 1
    return ranks


def oracle_pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def oracle_spearman(x, y):
    return oracle_pearson(oracle_ranks(x), oracle_ranks(y))


def random_vector_pairs(n_pairs=100):
    rng = np.random.default_rng(12345)
    for k in range(n_pairs):
        n = int(rng.integers(2, 201))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if k % 3 == 0:  # quantize to force ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        yield x, y


class TestMetricOracles:
    def test_identity_and_reversal(self):
        x = [1.0, 2.0, 3.0]
        assert kendall_tau(x, x) == 1.0
        assert spearman_rho(x, x) == 1.0
        assert pearson_r(x, x) == 1.0
        rev = [3.0, 2.0, 1.0]
        assert kendall_tau(x, rev) == -1.0
        assert spearman_rho(x, rev) == -1.0

    def test_single_swap_hand_case(self):
        # 6 pairs, one discordant: tau = (5-1)/6
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert abs(kendall_tau(x, y) - 4.0 / 6.0) < 1e-15
        assert abs(kendall_tau(x, y) - oracle_kendall_tau_b(x, y)) < 1e-15

    def test_brute_force_agreement(self):
        checked = 0
        for x, y in random_vector_pairs():
            assert abs(kendall_tau(x, y) - oracle_kendall_tau_b(list(x), list(y))) < 1e-12
            assert abs(spearman_rho(x, y) - oracle_spearman(list(x), list(y))) < 1e-12
            assert abs(pearson_r(x, y) - oracle_pearson(list(x), list(y))) < 1e-12
            checked += 1
        assert checked >= 90

    def test_scipy_agreement(self):
        for x, y in random_vector_pairs(40):
            assert abs(kendall_tau(x, y) - scipy.stats.kendalltau(x, y).statistic) < 1e-10
            assert abs(spearman_rho(x, y) - scipy.stats.spearmanr(x, y).statistic) < 1e-10
            assert abs(pearson_r(x, y) - scipy.stats.pearsonr(x, y).statistic) < 1e-10

    @pytest.mark.parametrize("n", [2, 17, 500, 2000])
    def test_average_ranks_match_scipy_on_tie_heavy_vectors(self, n):
        rng = np.random.default_rng(n)
        for levels in (1, 2, 5, n // 3 + 1):
            v = rng.integers(0, levels, size=n).astype(np.float64) * 0.1
            np.testing.assert_array_equal(_average_ranks(v), scipy.stats.rankdata(v, method="average"))

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_average_ranks_of_stacked_rows_match_scipy(self, n):
        rng = np.random.default_rng(n)
        v = rng.integers(0, 4, size=(n, n - 1)) * 0.25
        v[0] = 0.5  # a constant row
        np.testing.assert_array_equal(_average_ranks(v), scipy.stats.rankdata(v, method="average", axis=1))

    @pytest.mark.parametrize("n", [3, 60, 300])
    def test_kendall_equals_pair_oracle_exactly_on_tie_heavy_vectors(self, n):
        rng = np.random.default_rng(n)
        for levels in (2, 5, n // 3 + 1):
            x = rng.integers(0, levels, size=n) * 0.1
            y = rng.integers(0, levels, size=n) * 0.1
            assert kendall_tau(x, y) == oracle_kendall_tau_b(list(x), list(y))

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 64, 65, 300])
    def test_kendall_rows_equal_pair_sign_rows_exactly(self, m):
        rng = np.random.default_rng(m)
        x = rng.integers(0, 4, size=(6, m)) * 0.25
        y = np.round(rng.normal(size=(6, m)), 1)
        x[1] = 0.5  # a constant row
        y[2] = -1.0
        x[3], y[3] = y[4], x[4]  # swapped roles
        y[5] = -x[5]  # ties in both at once
        got = _kendall_rows(x, y)
        assert got.tobytes() == pair_sign_kendall_rows(x, y).tobytes()  # bit for bit, NaN rows included
        assert np.isnan(got[1:3]).all()

    @pytest.mark.parametrize("n_pairs", [19_900, 2_000_000])
    def test_kendall_matches_scipy_on_large_tie_heavy_vectors(self, n_pairs):
        rng = np.random.default_rng(n_pairs)
        x = np.round(rng.uniform(size=n_pairs) * 20) / 20
        y = np.round(rng.normal(size=n_pairs), 3)
        assert abs(kendall_tau(x, y) - scipy.stats.kendalltau(x, y).statistic) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 8, 9, 31, 100])
    def test_inversions_equal_brute_force(self, m):
        rng = np.random.default_rng(m)
        keys = np.stack([rng.integers(0, levels, size=m) for levels in (1, 2, 3, max(m, 1))])
        keys[-1] = np.sort(keys[-1])[::-1]  # every unequal pair inverted
        brute = [sum(int(row[i] > row[j]) for i in range(m) for j in range(i + 1, m)) for row in keys]
        got = _inversions(keys.astype(np.int64))
        assert got.dtype == np.int64 and got.tolist() == brute

    @pytest.mark.parametrize("metric", [kendall_tau, spearman_rho, pearson_r])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, metric, bad):
        finite = [5.0, 4.0, 3.0, 2.0, 1.0]
        for x, y in (([bad, bad, 1.0, 2.0, 3.0], finite), (finite, [1.0, 2.0, bad, 4.0, 5.0])):
            with pytest.raises(ValueError, match="finite") as exc:
                metric(x, y)
            assert not isinstance(exc.value, UndefinedMetricError)

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedMetricError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedMetricError):
            spearman_rho([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(UndefinedMetricError):
            pearson_r([2.0, 2.0], [1.0, 2.0])

    def test_short_input_undefined(self):
        with pytest.raises(UndefinedMetricError):
            kendall_tau([1.0], [1.0])

    def test_monotone_transform_leaves_rank_metrics_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        y2 = np.exp(3.0 * y) + 7.0  # strictly increasing map of the scores
        assert kendall_tau(x, y) == kendall_tau(x, y2)
        assert abs(spearman_rho(x, y) - spearman_rho(x, y2)) < 1e-15


class TestEvaluateEmbeddings:
    def test_engineered_monotone_embeddings_give_tau_one(self):
        # 1-d positive embeddings: model similarity x_i * x_j is strictly
        # increasing in s once s is defined as a monotone map of it.
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.5, 2.0, size=8))
        emb = x.reshape(-1, 1)
        prods = emb @ emb.T
        s = 1.0 / (1.0 + np.exp(-prods))  # monotone map into (0,1)
        report = evaluate_embeddings(emb, s)
        assert abs(report.row_wise["kendall_tau"] - 1.0) < 1e-12
        assert abs(report.row_wise["spearman_rho"] - 1.0) < 1e-12
        assert abs(report.all_pairs["kendall_tau"] - 1.0) < 1e-12
        assert report.all_pairs["pearson_r"] < 1.0  # sigmoid is not affine

    def test_affine_relation_gives_pearson_one(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.uniform(0.5, 1.5, size=6))
        emb = x.reshape(-1, 1)
        prods = emb @ emb.T
        s = 0.2 + 0.3 * (prods - prods.min()) / (prods.max() - prods.min())
        report = evaluate_embeddings(emb, s)
        assert abs(report.all_pairs["pearson_r"] - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_embeddings_near_zero_tau(self, seed):
        rng = np.random.default_rng(seed)
        n = 100
        emb = random_unit_embeddings(n, 16, seed)
        s = rng.uniform(0.3, 0.9, size=(n, n))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 1.0)
        report = evaluate_embeddings(emb, s)
        assert abs(report.row_wise["kendall_tau"]) < 0.1

    def test_two_image_split_rows_skipped(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.array([[1.0, 0.4], [0.4, 1.0]])
        report = evaluate_embeddings(emb, s)
        assert report.row_wise["kendall_tau"] is None
        assert report.row_coverage["kendall_tau"] == 0

    def test_evaluate_runs_on_model(self, tiny_vocab):
        ds = make_dataset(8, tiny_vocab, seed=5)
        model = GcnModel.create(
            ModelConfig(label_dim=6, message_dim=5, out_dim=4, num_layers=1, mlp_hidden=6), tiny_vocab, seed=0
        )
        report = evaluate(model, ds, range(8))
        assert report.n_images == 8
        for v in report.row_wise.values():
            assert v is None or -1.0 <= v <= 1.0

    @pytest.mark.parametrize("n", [2, 3, 40, 100])
    def test_stacked_metrics_equal_one_dimensional_metrics_on_every_row(self, n):
        emb, s = _tie_heavy_block(n)
        x, y = (v[~np.eye(n, dtype=bool)].reshape(n, n - 1) for v in (s, np.round(emb @ emb.T, 1)))
        constant = [0, n - 1] if n > 2 else []
        x[constant[:1]] = 0.5
        y[constant[1:]] = -0.25
        public = {"kendall_tau": kendall_tau, "spearman_rho": spearman_rho, "pearson_r": pearson_r}
        for name, rows_fn in _METRICS.items():
            rows = rows_fn(x, y)
            assert rows.shape == (n,)
            for i in range(n):
                if n == 2 or i in constant:
                    assert np.isnan(rows[i])
                    with pytest.raises(UndefinedMetricError):
                        public[name](x[i], y[i])
                else:
                    assert rows[i] == public[name](x[i], y[i])  # exactly: the 1-d metric is one row of the same code

    def test_constant_rows_get_no_coverage(self):
        emb, s = _tie_heavy_block(40)
        s[[3, 7]] = 0.5
        s[:, [3, 7]] = 0.5
        np.fill_diagonal(s, 1.0)
        report = evaluate_embeddings(emb, s)
        assert report.row_coverage == {name: 38 for name in METRIC_NAMES}

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_blocks(self, n):
        emb, s = _tie_heavy_block(n)
        report = evaluate_embeddings(emb, s)
        assert report.n_images == n
        defined = n == 3
        for name in METRIC_NAMES:
            assert report.row_coverage[name] == (3 if defined else 0)
            assert (report.row_wise[name] is not None) == defined
            assert (report.all_pairs[name] is not None) == defined

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_embedding_rejected(self, bad):
        emb, s = _tie_heavy_block(5)
        emb[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate_embeddings(emb, s)

    def test_memory_linear_in_pairs(self):
        emb, s = _tie_heavy_block(100)
        tracemalloc.start()
        try:
            evaluate_embeddings(emb, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_all_pairs_match_scipy_at_200_images(self):
        emb, s = _tie_heavy_block(200)
        report = evaluate_embeddings(emb, s)
        iu = np.triu_indices(200, 1)
        x, y = s[iu], (emb @ emb.T)[iu]
        oracle = {
            "kendall_tau": scipy.stats.kendalltau(x, y).statistic,
            "spearman_rho": scipy.stats.spearmanr(x, y).statistic,
            "pearson_r": scipy.stats.pearsonr(x, y).statistic,
        }
        for name, value in oracle.items():
            assert abs(report.all_pairs[name] - value) < 1e-10


def _tie_heavy_block(n):
    """Unit embeddings and a symmetric similarity block quantized to 21 levels."""
    rng = np.random.default_rng(n)
    s = rng.uniform(0.0, 1.0, size=(n, n))
    s = np.round((s + s.T) / 2 * 20) / 20
    np.fill_diagonal(s, 1.0)
    return random_unit_embeddings(n, 16, n), s


class TestRetrieval:
    def test_hand_built_ranking(self):
        index = np.array([[1.0, 0.0], [0.0, 1.0]])
        queries = np.array([[0.9, 0.1]])
        assert rank_queries(index, queries, [0]) == (1,)
        assert rank_queries(index, queries, [1]) == (2,)

    def test_tie_break_by_ascending_index(self):
        index = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        queries = np.array([[1.0, 0.0]])
        # indexes 0 and 1 tie; target 1 must rank second
        assert rank_queries(index, queries, [0]) == (1,)
        assert rank_queries(index, queries, [1]) == (2,)

    def test_ranks_equal_stable_argsort_on_tie_heavy_inputs(self):
        # Small-integer coordinates make every score exact, so ties are real.
        rng = np.random.default_rng(7)
        distinct = rng.integers(-1, 2, size=(40, 3)).astype(np.float64)
        index = distinct[rng.integers(0, 40, size=300)]  # many duplicate rows
        n_queries = 2 * _QUERY_BLOCK + 37
        queries = np.where(
            rng.random((n_queries, 1)) < 0.5,
            index[rng.integers(0, 300, size=n_queries)],
            rng.integers(-2, 3, size=(n_queries, 3)),
        )
        queries[1::5] = queries[0]  # repeated queries
        targets = rng.integers(0, 300, size=n_queries).tolist()
        expected = []
        for q, target in zip(queries, targets):
            order = np.argsort(-(index @ q), kind="stable")
            expected.append(int(np.flatnonzero(order == target)[0]) + 1)
        assert rank_queries(index, queries, targets) == tuple(expected)

    def _trained_free_setup(self, tiny_vocab, n=10):
        ds = make_dataset(n, tiny_vocab, seed=9)
        model = GcnModel.create(
            ModelConfig(label_dim=6, message_dim=5, out_dim=4, num_layers=1, mlp_hidden=6), tiny_vocab, seed=4
        )
        return ds, model

    def test_noise_zero_gives_perfect_retrieval(self, tiny_vocab):
        ds, model = self._trained_free_setup(tiny_vocab)
        report = retrieval_experiment(model, ds, range(10), 0, seed=0)
        assert report.mrr == 1.0
        assert report.recall_at[1] == 1.0
        assert report.ranks == tuple([1] * 10)

    def test_huge_noise_still_well_defined(self, tiny_vocab):
        ds, model = self._trained_free_setup(tiny_vocab)
        report = retrieval_experiment(model, ds, range(10), 999, seed=0)
        assert 0.0 < report.mrr <= 1.0
        ks = sorted(report.recall_at)
        for a, b in zip(ks, ks[1:]):
            assert report.recall_at[a] <= report.recall_at[b]

    def test_recall_monotone_and_mrr_bound(self, tiny_vocab):
        ds, model = self._trained_free_setup(tiny_vocab)
        report = retrieval_experiment(model, ds, range(10), 2, seed=3)
        r = report.recall_at
        for a, b in zip(RECALL_KS, RECALL_KS[1:]):
            assert r[a] <= r[b]
        # non-first ranks contribute at most 1/2 to the reciprocal mean
        assert report.mrr <= r[1] + (1.0 - r[1]) / 2.0 + 1e-12

    def test_deterministic_given_seed(self, tiny_vocab):
        ds, model = self._trained_free_setup(tiny_vocab)
        r1 = retrieval_experiment(model, ds, range(10), 2, seed=5)
        r2 = retrieval_experiment(model, ds, range(10), 2, seed=5)
        assert r1.ranks == r2.ranks

    def test_sweep_shares_index_and_matches_individual_runs(self, tiny_vocab):
        ds, model = self._trained_free_setup(tiny_vocab)
        reports = noise_sweep(model, ds, range(10), [0, 1, 2], seed=1)
        assert [r.noise_level for r in reports] == [0, 1, 2]
        solo = retrieval_experiment(model, ds, range(10), 1, seed=1)
        assert reports[1].ranks == solo.ranks

    def test_sweep_ranks_do_not_depend_on_the_edge_budget(self, monkeypatch):
        """One graph per forward and the default chunks rank every query the same, at three noise levels."""
        ds = generate(SynthConfig(n_images=60))
        model = GcnModel.create(ModelConfig(32, 64, 32, 2, 64), ds.vocab, seed=0)
        default = [r.ranks for r in noise_sweep(model, ds, range(60), [1, 5, 30], seed=0)]
        monkeypatch.setattr(model_module, "_EMBED_EDGES", 1)
        assert [r.ranks for r in noise_sweep(model, ds, range(60), [1, 5, 30], seed=0)] == default

    def test_split_subset_retrieval(self, tiny_vocab):
        ds = make_dataset(12, tiny_vocab, seed=2)
        split = split_dataset(ds, (0.7, 0.2, 0.1), seed=0)
        model = GcnModel.create(
            ModelConfig(label_dim=6, message_dim=5, out_dim=4, num_layers=1, mlp_hidden=6), tiny_vocab, seed=4
        )
        report = retrieval_experiment(model, ds, split.train, 0, seed=0)
        assert report.mrr == 1.0

    @pytest.mark.parametrize("side", ["index", "queries"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_embeddings_rejected(self, side, bad):
        embeddings = {"index": np.eye(3), "queries": np.eye(3)}
        embeddings[side][1, 2] = bad
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            rank_queries(embeddings["index"], embeddings["queries"], [0, 1, 2])

    def test_model_with_a_nan_weight_is_refused(self, tiny_vocab):
        """A NaN score is neither ahead of the target nor tied with it, so it would rank every target first."""
        ds, model = self._trained_free_setup(tiny_vocab)
        model.parameters()["layers.0.node_w2"].data[...] = math.nan
        with pytest.raises(ValueError, match="^inputs must be finite$"):
            noise_sweep(model, ds, range(10), [0, 3], seed=0)


class TestReportShapes:
    def test_report_dict_round_trip(self):
        report = EvalReport(
            row_wise={"kendall_tau": 0.5, "spearman_rho": None, "pearson_r": 0.1},
            all_pairs={"kendall_tau": 0.4, "spearman_rho": 0.6, "pearson_r": 0.2},
            n_images=10,
            row_coverage={"kendall_tau": 10, "spearman_rho": 0, "pearson_r": 10},
        )
        d = report.to_dict()
        assert d["row_wise"]["spearman_rho"] is None
        assert d["n_images"] == 10

    def test_recall_curve_counts_ranks_at_every_k(self, tmp_path):
        ranks = (3, 1, 7, 1, 2, 7, 4)
        path = tmp_path / "recall_curve.csv"
        write_recall_curve_csv(RetrievalReport(noise_level=1, mrr=0.5, recall_at={}, ranks=ranks), path)
        arr = np.asarray(ranks, dtype=np.float64)
        expected = ["k,recall"] + ["%d,%.6f" % (k, (arr <= k).mean()) for k in range(1, 8)]
        assert path.read_text().splitlines() == expected
