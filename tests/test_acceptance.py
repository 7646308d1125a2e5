"""Acceptance suite: one test per criterion, run with `pytest -v` to get a
pass/fail line for each.

1. gradient correctness of every primitive and the GCN+loss composites
2. loss-formula oracles
3. correlation-metric oracles
4. sampler distributions
5. model invariants (permutation / batching / norms)
6. scaled end-to-end reproduction on the synthetic dataset (a, b, c + runtime)
7. byte-identical determinism of the rerun pipeline
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import relative_gradient_error
from sgembed import tensor as T
from sgembed.checkpoint import load_checkpoint
from sgembed.evaluate import (
    evaluate,
    evaluate_embeddings,
    kendall_tau,
    pearson_r,
    random_unit_embeddings,
    retrieval_experiment,
    spearman_rho,
    write_eval_report_csv,
    write_retrieval_csv,
)
from sgembed.model import GcnModel, ModelConfig, forward
from sgembed.objectives import (
    LossConfig,
    SamplerConfig,
    TripleSampler,
    infonce_loss,
    ranking_loss,
    ranking_target,
    triplet_loss,
)
from sgembed.scene import SceneGraph, SimilarityMatrix, Vocabulary, augment_trivial, save_dataset, split_dataset
from sgembed.synth import SynthConfig, dataset_stats, generate
from sgembed.tensor import BatchNormState, Mode, Tensor
from sgembed.train import TrainConfig, train

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-12


# ===========================================================================
# criterion 1: gradient correctness
# ===========================================================================


def _rand(rng, *shape, offset=0.0, scale=1.0):
    return Tensor(rng.normal(size=shape) * scale + offset, requires_grad=True)


def _weighted(rng, out_shape, fn):
    """Scalarize fn() against a FIXED random weight so the probe is pure."""
    w = Tensor(rng.normal(size=out_shape))
    return lambda: T.sum(T.mul(fn(), w))


def _primitive_cases(rng):
    """One randomized gradient-check instance per primitive op."""
    a34, b42 = _rand(rng, 3, 4), _rand(rng, 4, 2)
    yield "matmul", _weighted(rng, (3, 2), lambda: T.matmul(a34, b42)), [a34, b42]
    x, y = _rand(rng, 3, 3), _rand(rng, 3, 3)
    yield "add", _weighted(rng, (3, 3), lambda: T.add(x, y)), [x, y]
    bias = _rand(rng, 3)
    yield "add_bias", _weighted(rng, (3, 3), lambda: T.add(x, bias)), [x, bias]
    yield "sub", _weighted(rng, (3, 3), lambda: T.sub(x, y)), [x, y]
    yield "mul", _weighted(rng, (3, 3), lambda: T.mul(x, y)), [x, y]
    yield "mul_scalar", _weighted(rng, (3, 3), lambda: T.mul_scalar(x, 1.7)), [x]
    c1, c2 = _rand(rng, 2, 3), _rand(rng, 4, 3)
    yield "concat", _weighted(rng, (6, 3), lambda: T.concat([c1, c2], axis=0)), [c1, c2]
    r = Tensor(rng.normal(size=(3, 4)) + 0.05 * np.sign(rng.normal(size=(3, 4))), requires_grad=True)
    yield "relu", _weighted(rng, (3, 4), lambda: T.relu(r)), [r]
    yield "logsigmoid", _weighted(rng, (3, 3), lambda: T.logsigmoid(x)), [x]
    yield "sum", lambda: T.sum(x), [x]
    n = Tensor(rng.normal(size=(4, 3)) + np.sign(rng.normal(size=(4, 1))), requires_grad=True)
    yield "rowwise_l2_normalize", _weighted(rng, (4, 3), lambda: T.rowwise_l2_normalize(n)), [n]
    v = _rand(rng, 6, 3)
    ids = rng.integers(0, 3, size=6)
    ids[:3] = [0, 1, 2]  # every segment populated
    yield "segment_mean", _weighted(rng, (3, 3), lambda: T.segment_mean(v, ids, 3)), [v]
    tb = _rand(rng, 5, 3)
    idx = rng.integers(0, 5, size=7)
    yield "gather_rows", _weighted(rng, (7, 3), lambda: T.gather_rows(tb, idx)), [tb]
    bx, g_, b_ = _rand(rng, 6, 4), _rand(rng, 4, offset=1.0, scale=0.2), _rand(rng, 4, scale=0.2)
    st = BatchNormState(np.zeros(4), np.ones(4))
    st.running_mean[:] = rng.normal(size=4)
    st.running_var[:] = rng.uniform(0.5, 2.0, size=4)
    for mode in (Mode.TRAIN, Mode.EVAL):
        yield f"batchnorm_{mode.value}", _weighted(
            rng, (6, 4), lambda m=mode: T.batchnorm(bx, g_, b_, st, m)
        ), [bx, g_, b_]


GRAD_VOCAB = Vocabulary(tuple(f"o{k}" for k in range(6)), tuple(f"r{k}" for k in range(4)))
GRAD_MODEL_CONFIG = ModelConfig(label_dim=5, message_dim=4, out_dim=4, num_layers=2, mlp_hidden=5)


def _random_graph(rng, name):
    n = int(rng.integers(2, 5))
    nodes = tuple(int(v) for v in rng.integers(0, 6, size=n))
    n_edges = int(rng.integers(1, 4))
    edges = []
    for _ in range(n_edges):
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(rng.integers(0, 4)), int(v)))
    return augment_trivial(SceneGraph(name, nodes, tuple(edges)), GRAD_VOCAB)


def _composite_loss_fn(kind, model, graphs, s_ap, s_an):
    def build():
        emb = forward(model, graphs, Mode.TRAIN)
        f_a = T.gather_rows(emb, [0])
        f_p = T.gather_rows(emb, [1])
        f_n = T.gather_rows(emb, [2])
        if kind == "ranking":
            return ranking_loss(f_a, f_p, f_n, s_ap, s_an, 1.0)
        if kind == "triplet":
            return triplet_loss(f_a, f_p, f_n, 0.5)
        return infonce_loss(f_a, f_p, f_n, 1.0)

    return build


def test_criterion_1_gradient_correctness():
    """Primitives and GCN+loss composites vs central differences, < 2 min."""
    start = time.monotonic()
    worst = {}
    for instance in range(50):
        rng = np.random.default_rng((1000, instance))
        for name, build, leaves in _primitive_cases(rng):
            err = relative_gradient_error(build, leaves)
            worst[name] = max(worst.get(name, 0.0), err)
    for kind in ("ranking", "triplet", "infonce"):
        for instance in range(50):
            rng = np.random.default_rng((2000, instance))
            model = GcnModel.create(GRAD_MODEL_CONFIG, GRAD_VOCAB, seed=instance)
            graphs = [_random_graph(rng, f"g{k}") for k in range(3)]
            s_ap, s_an = rng.uniform(0.2, 0.9, size=2)
            build = _composite_loss_fn(kind, model, graphs, s_ap, s_an)
            params = list(model.parameters().values())
            err = relative_gradient_error(build, params, coords_per_leaf=3, rng=rng)
            worst[f"gcn+{kind}"] = max(worst.get(f"gcn+{kind}", 0.0), err)
    elapsed = time.monotonic() - start
    bad = {k: v for k, v in worst.items() if v >= GRAD_TOL}
    assert not bad, f"gradient checks above tolerance: {bad}"
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s (budget 120s)"


# ===========================================================================
# criterion 2: loss-formula oracles
# ===========================================================================


def _sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def _unit_rows(rng, dim=8):
    rows = rng.normal(size=(3, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return [Tensor(r.reshape(1, dim)) for r in rows]


def test_criterion_2_formula_oracles():
    """1,000 random inputs against scalar hand formulas, 1e-12."""
    rng = np.random.default_rng(77)
    for _ in range(1000):
        f_a, f_p, f_n = _unit_rows(rng)
        ap = (f_a.data @ f_p.data.T).item()
        an = (f_a.data @ f_n.data.T).item()
        s_ap, s_an = rng.uniform(0.05, 1.0, size=2)
        nu, lam, m = rng.uniform(0.2, 3.0, size=3)

        target = s_ap / (s_ap + s_an)
        assert abs(ranking_target(s_ap, s_an) - target) < ORACLE_TOL

        p_hat = _sig((ap - an) / nu)
        hand = -target * math.log(p_hat) - (1.0 - target) * math.log(1.0 - p_hat)
        assert abs(ranking_loss(f_a, f_p, f_n, s_ap, s_an, nu).item() - hand) < ORACLE_TOL

        assert abs(triplet_loss(f_a, f_p, f_n, m).item() - max(an - ap + m, 0.0)) < ORACLE_TOL

        hand = -math.log(math.exp(ap / lam) / (math.exp(ap / lam) + math.exp(an / lam)))
        assert abs(infonce_loss(f_a, f_p, f_n, lam).item() - hand) < ORACLE_TOL

    # symmetric point: equal inner products and equal similarities -> ln 2
    f_a, f_p, _ = _unit_rows(rng)
    f_n = Tensor(f_p.data.copy())
    assert abs(ranking_loss(f_a, f_p, f_n, 0.7, 0.7).item() - math.log(2.0)) < ORACLE_TOL
    assert abs(infonce_loss(f_a, f_p, f_n, 1.0).item() - math.log(2.0)) < ORACLE_TOL


# ===========================================================================
# criterion 3: correlation-metric oracles
# ===========================================================================


def _oracle_tau_b(x, y):
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx != 0 and dy != 0:
                if (dx > 0) == (dy > 0):
                    concordant += 1
                else:
                    discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def _oracle_ranks(values):
    pairs = sorted((v, i) for i, v in enumerate(values))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        for k in range(i, j + 1):
            ranks[pairs[k][1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _oracle_pearson(x, y):
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def test_criterion_3_metric_oracles():
    """tau-b / rho / r vs brute force on 100 vectors incl. ties; +-1 exact."""
    rng = np.random.default_rng(31337)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 201))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if checked % 2 == 0:  # force heavy ties half the time
            x, y = np.round(x, 1), np.round(y, 1)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        xs, ys = list(x), list(y)
        assert abs(kendall_tau(x, y) - _oracle_tau_b(xs, ys)) < ORACLE_TOL
        assert abs(spearman_rho(x, y) - _oracle_pearson(_oracle_ranks(xs), _oracle_ranks(ys))) < ORACLE_TOL
        assert abs(pearson_r(x, y) - _oracle_pearson(xs, ys)) < ORACLE_TOL
        checked += 1

    x = np.asarray([3.0, 1.0, 4.0, 1.5, 9.0, 2.0])
    assert kendall_tau(x, x) == 1.0
    assert spearman_rho(x, x) == 1.0
    assert pearson_r(x, x) == 1.0
    assert kendall_tau(x, -x) == -1.0
    assert spearman_rho(x, -x) == -1.0
    assert pearson_r(x, -x) == -1.0


# ===========================================================================
# criterion 4: sampler distributions
# ===========================================================================


def _fixture_sampler(kind, seed=0):
    values = np.array(
        [
            [1.0, 0.75, 0.25, 0.5],
            [0.75, 1.0, 0.5, 0.5],
            [0.25, 0.5, 1.0, 0.5],
            [0.5, 0.5, 0.5, 1.0],
        ]
    )
    sim = SimilarityMatrix(("a", "b", "c", "d"), values)
    return TripleSampler(sim, SamplerConfig(kind), seed)


def test_criterion_4_sampler_distributions():
    """Probability marginals +-0.01 over 100k; Reject ordered; Extreme constant."""
    sampler = _fixture_sampler("probability", seed=4)
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        counts[sampler.sample_triple(0).positive] += 1
    target = np.array([0.0, 0.75, 0.25, 0.5])
    target /= target.sum()
    np.testing.assert_allclose(counts[1:] / draws, target[1:], atol=0.01)

    sampler = _fixture_sampler("reject", seed=5)
    for _ in range(10_000):
        t = sampler.sample_triple(1)
        assert t.s_ap >= t.s_an

    sampler = _fixture_sampler("extreme")
    triples = {sampler.sample_triple(0) for _ in range(1000)}
    assert len(triples) == 1


# ===========================================================================
# criterion 5: model invariants
# ===========================================================================


def test_criterion_5_model_invariants():
    """Permutation & batching invariance at 1e-9, unit norms at 1e-12."""
    vocab = GRAD_VOCAB
    model = GcnModel.create(ModelConfig(label_dim=8, message_dim=8, out_dim=8, num_layers=2, mlp_hidden=8), vocab, seed=2)
    rng = np.random.default_rng(9)
    graphs = [_random_graph(rng, f"g{k}") for k in range(6)]

    batched = forward(model, graphs, Mode.EVAL).data
    np.testing.assert_allclose(np.linalg.norm(batched, axis=1), 1.0, atol=1e-12)
    for k, g in enumerate(graphs):
        solo = forward(model, [g], Mode.EVAL).data
        np.testing.assert_allclose(batched[k], solo[0], atol=1e-9)

    for k in range(20):
        rng2 = np.random.default_rng((5, k))
        n = int(rng2.integers(2, 6))
        nodes = tuple(int(v) for v in rng2.integers(0, 6, size=n))
        edges = []
        for _ in range(int(rng2.integers(1, 5))):
            u, v = rng2.choice(n, size=2, replace=False)
            edges.append((int(u), int(rng2.integers(0, 4)), int(v)))
        g = SceneGraph("p", nodes, tuple(edges))
        perm = rng2.permutation(n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        g2 = SceneGraph("p", tuple(nodes[i] for i in perm), tuple((int(inv[u]), r, int(inv[v])) for u, r, v in edges))
        e1 = forward(model, [augment_trivial(g, vocab)], Mode.EVAL).data
        e2 = forward(model, [augment_trivial(g2, vocab)], Mode.EVAL).data
        np.testing.assert_allclose(e1, e2, atol=1e-9)


# ===========================================================================
# criteria 6 & 7: scaled end-to-end reproduction + determinism
# ===========================================================================

ACCEPT_MODEL = ModelConfig(label_dim=32, message_dim=64, out_dim=32, num_layers=2, mlp_hidden=64)
ACCEPT_SEEDS = (0, 1, 2)
ACCEPT_EPOCHS = 30
ACCEPT_BATCH = 16
ACCEPT_LR = 1e-3
VARIANTS = (("ranking", "probability"), ("triplet", "random"))


def _run_pipeline(root):
    """Full experiment matrix; returns metrics and writes all report files."""
    os.makedirs(root, exist_ok=True)
    dataset = generate(SynthConfig())  # defaults: 200 images
    data_dir = os.path.join(root, "data")
    os.makedirs(data_dir, exist_ok=True)
    save_dataset(
        dataset,
        os.path.join(data_dir, "graphs.jsonl"),
        os.path.join(data_dir, "similarity.csv"),
        os.path.join(data_dir, "vocabulary.json"),
    )
    median_edges = dataset_stats(dataset)["median_edges"]
    dataset = dataset.with_split(split_dataset(dataset, (0.7, 0.2, 0.1), seed=0))
    test_idx = dataset.split.test

    metrics = {
        "median_edges": median_edges,
        "tau": {variant: [] for variant in VARIANTS},
        "untrained_tau": [],
        "baseline_tau": [],
        "mrr": {},
    }
    sim_block = dataset.similarity.values[np.ix_(list(test_idx), list(test_idx))]
    for variant in VARIANTS:
        loss_kind, sampler_kind = variant
        for seed in ACCEPT_SEEDS:
            out = os.path.join(root, f"{loss_kind}_{sampler_kind}_seed{seed}")
            config = TrainConfig(
                model=ACCEPT_MODEL,
                loss=LossConfig(kind=loss_kind),
                sampler=SamplerConfig(kind=sampler_kind),
                epochs=ACCEPT_EPOCHS,
                batch_size=ACCEPT_BATCH,
                learning_rate=ACCEPT_LR,
                seed=seed,
                eval_every=5,
            )
            train(dataset, config, out_dir=out)
            best, _ = load_checkpoint(os.path.join(out, "best.ckpt"))
            report = evaluate(best, dataset, test_idx)
            write_eval_report_csv({"model": report}, os.path.join(out, "eval_report.csv"))
            metrics["tau"][variant].append(report.row_wise["kendall_tau"])
            if loss_kind == "ranking":
                for m in (0, 2, median_edges):
                    rep = retrieval_experiment(best, dataset, test_idx, m, seed)
                    write_retrieval_csv([rep], os.path.join(out, f"retrieval_m{m}.csv"))
                    metrics["mrr"].setdefault(m, []).append(rep.mrr)
    for seed in ACCEPT_SEEDS:
        untrained = GcnModel.create(ACCEPT_MODEL, dataset.vocab, seed=seed)
        metrics["untrained_tau"].append(evaluate(untrained, dataset, test_idx).row_wise["kendall_tau"])
        baseline = evaluate_embeddings(
            random_unit_embeddings(len(test_idx), ACCEPT_MODEL.out_dim, seed), sim_block
        )
        metrics["baseline_tau"].append(baseline.row_wise["kendall_tau"])
    return metrics


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    start = time.monotonic()
    first = _run_pipeline(os.path.join(root, "run1"))
    elapsed = time.monotonic() - start
    second = _run_pipeline(os.path.join(root, "run2"))
    return {"root": str(root), "first": first, "second": second, "elapsed": elapsed}


def test_criterion_6a_trained_vs_untrained_and_random(pipeline):
    """Ranking+Probability test tau >= 0.25; untrained and random |tau| <= 0.10."""
    m = pipeline["first"]
    ranking_tau = float(np.mean(m["tau"][("ranking", "probability")]))
    untrained = abs(float(np.mean(m["untrained_tau"])))
    baseline = abs(float(np.mean(m["baseline_tau"])))
    assert ranking_tau >= 0.25, f"trained tau {ranking_tau:.4f} < 0.25"
    assert untrained <= 0.10, f"untrained |tau| {untrained:.4f} > 0.10"
    assert baseline <= 0.10, f"random-feature |tau| {baseline:.4f} > 0.10"


def test_criterion_6b_ranking_vs_triplet_ordering(pipeline):
    """Ranking+Probability mean tau >= Triplet+Random mean tau - 0.02."""
    m = pipeline["first"]
    ranking_tau = float(np.mean(m["tau"][("ranking", "probability")]))
    triplet_tau = float(np.mean(m["tau"][("triplet", "random")]))
    assert ranking_tau >= triplet_tau - 0.02, f"{ranking_tau:.4f} vs {triplet_tau:.4f}"


def test_criterion_6c_retrieval_trends(pipeline):
    """MRR exactly 1 at M=0; >= 0.5 at the median; near-monotone in noise."""
    m = pipeline["first"]
    median_edges = m["median_edges"]
    assert all(v == 1.0 for v in m["mrr"][0]), f"MRR at M=0 must be exact: {m['mrr'][0]}"
    mrr_median = float(np.mean(m["mrr"][median_edges]))
    mrr_2 = float(np.mean(m["mrr"][2]))
    assert mrr_median >= 0.5, f"MRR at M={median_edges} is {mrr_median:.4f} < 0.5"
    assert mrr_2 >= mrr_median - 0.02, f"MRR degradation trend violated: {mrr_2:.4f} vs {mrr_median:.4f}"


def test_criterion_6_runtime_budget(pipeline):
    """The whole criterion-6 pipeline must finish inside 15 minutes."""
    assert pipeline["elapsed"] < 900.0, f"pipeline took {pipeline['elapsed']:.0f}s"


def test_criterion_7_byte_identical_reruns(pipeline):
    """Identical seeds reproduce every runlog/report file byte for byte, for the same numpy/BLAS build and
    BLAS thread settings: OpenBLAS splits a weight gradient's reduction by thread count, so a rerun under
    OPENBLAS_NUM_THREADS=1 and =2 moved all 33 model arrays of the acceptance run, by up to 2.7e-15."""
    root = pipeline["root"]
    run1, run2 = os.path.join(root, "run1"), os.path.join(root, "run2")
    compared = 0
    for dirpath, _, filenames in os.walk(run1):
        for filename in filenames:
            if filename == "timing.csv":  # wall-clock times are not replayable
                continue
            p1 = os.path.join(dirpath, filename)
            p2 = os.path.join(run2, os.path.relpath(p1, run1))
            assert os.path.exists(p2), f"rerun is missing {p2}"
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read(), f"{os.path.relpath(p1, run1)} differs between reruns"
            compared += 1
    assert compared >= 20, f"only {compared} files compared"
