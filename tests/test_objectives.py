"""Loss formula oracles, loss gradients, sampler postconditions and the samplers' exact laws."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import relative_gradient_error
from sgembed import tensor as T
from sgembed.objectives import (
    DegenerateDistributionError,
    LossConfig,
    SamplerConfig,
    Triple,
    TripleSampler,
    compute_loss,
    infonce_loss,
    ranking_loss,
    ranking_target,
    triplet_loss,
)
from sgembed.scene import SimilarityMatrix
from sgembed.tensor import Tensor


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rand_unit_rows(rng, dim=6):
    return [Tensor(unit(rng.normal(size=dim)).reshape(1, dim), requires_grad=True) for _ in range(3)]


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def hand_ranking(fa, fp, fn, s_ap, s_an, nu):
    """Plain-math re-computation of the ranking loss."""
    gap = ((fa.data @ fp.data.T).item() - (fa.data @ fn.data.T).item()) / nu
    p = s_ap / (s_ap + s_an)
    p_hat = _sigmoid(gap)
    return -p * math.log(p_hat) - (1.0 - p) * math.log(1.0 - p_hat)


def hand_triplet(fa, fp, fn, m):
    return max((fa.data @ fn.data.T).item() - (fa.data @ fp.data.T).item() + m, 0.0)


def hand_infonce(fa, fp, fn, lam):
    ap = (fa.data @ fp.data.T).item() / lam
    an = (fa.data @ fn.data.T).item() / lam
    return -math.log(math.exp(ap) / (math.exp(ap) + math.exp(an)))


class TestRankingTarget:
    def test_equal_similarities_give_half(self):
        assert ranking_target(0.7, 0.7) == 0.5

    def test_hand_value(self):
        assert abs(ranking_target(0.8, 0.6) - 0.8 / 1.4) < 1e-15

    def test_limit_toward_one(self):
        assert ranking_target(0.9, 1e-12) > 1.0 - 1e-11

    def test_binary_similarities_give_hard_label(self):
        assert ranking_target(1.0, 0.0) == 1.0
        assert ranking_target(0.0, 1.0) == 0.0

    def test_double_zero_rejected(self):
        with pytest.raises(ValueError):
            ranking_target(0.0, 0.0)


class TestLossValues:
    def test_symmetric_point_is_ln2(self):
        rng = np.random.default_rng(0)
        fa, fp, _ = rand_unit_rows(rng)
        # identical positive and negative vectors: equal inner products
        loss = ranking_loss(fa, fp, Tensor(fp.data.copy()), 0.7, 0.7)
        assert abs(loss.item() - math.log(2.0)) < 1e-12
        loss = infonce_loss(fa, fp, Tensor(fp.data.copy()), 1.0)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_ranking_hand_case_opposite_vectors(self):
        dim = 4
        fa = Tensor(np.eye(1, dim))
        fp = Tensor(np.eye(1, dim))
        fn = Tensor(-np.eye(1, dim))
        # gap=2, target=1: loss = -log sigmoid(2)
        loss = ranking_loss(fa, fp, fn, 1.0, 0.0, 1.0)
        assert abs(loss.item() - (-math.log(_sigmoid(2.0)))) < 1e-12
        assert abs(loss.item() - 0.126928) < 1e-6

    def test_triplet_hand_cases(self):
        fa = Tensor([[1.0, 0.0]])
        fp = Tensor([[0.9, np.sqrt(1 - 0.81)]])
        fn = Tensor([[0.2, np.sqrt(1 - 0.04)]])
        assert triplet_loss(fa, fp, fn, 0.5).item() == 0.0
        assert abs(triplet_loss(fa, fp, Tensor(fp.data.copy()), 0.5).item() - 0.5) < 1e-12

    def test_infonce_hand_case(self):
        fa = Tensor([[1.0, 0.0]])
        fp = Tensor([[1.0, 0.0]])
        fn = Tensor([[0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 1.0))
        assert abs(infonce_loss(fa, fp, fn, 1.0).item() - expected) < 1e-12
        assert abs(expected - 0.313262) < 1e-6

    def test_infonce_small_temperature_limit(self):
        fa = Tensor([[1.0, 0.0]])
        fp = Tensor([[1.0, 0.0]])
        fn = Tensor([[0.0, 1.0]])
        assert infonce_loss(fa, fp, fn, 0.01).item() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_losses_match_hand_formulas(self, seed):
        """Differentiable path equals scalar recomputation to 1e-12."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            fa, fp, fn = rand_unit_rows(rng)
            s_ap, s_an = rng.uniform(0.05, 1.0, size=2)
            nu, lam, m = rng.uniform(0.2, 3.0, size=3)
            assert abs(ranking_loss(fa, fp, fn, s_ap, s_an, nu).item() - hand_ranking(fa, fp, fn, s_ap, s_an, nu)) < 1e-12
            assert abs(triplet_loss(fa, fp, fn, m).item() - hand_triplet(fa, fp, fn, m)) < 1e-12
            assert abs(infonce_loss(fa, fp, fn, lam).item() - hand_infonce(fa, fp, fn, lam)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_similarities_reduce_to_hard_label_contrastive(self, seed):
        # With s in {0,1} the soft target collapses to a hard label and the
        # ranking loss coincides with the two-way softmax objective at the
        # same temperature: class-label contrastive learning is the special case.
        rng = np.random.default_rng(200 + seed)
        fa, fp, fn = rand_unit_rows(rng)
        for temp in (0.5, 1.0, 2.0):
            r = ranking_loss(fa, fp, fn, 1.0, 0.0, temp).item()
            i = infonce_loss(fa, fp, fn, temp).item()
            assert abs(r - i) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_losses_non_negative(self, seed):
        rng = np.random.default_rng(100 + seed)
        fa, fp, fn = rand_unit_rows(rng)
        s_ap, s_an = rng.uniform(0.05, 1.0, size=2)
        assert ranking_loss(fa, fp, fn, s_ap, s_an).item() > 0.0
        assert infonce_loss(fa, fp, fn).item() > 0.0
        assert triplet_loss(fa, fp, fn).item() >= 0.0


class TestLossGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_ranking_gradient_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        fa, fp, fn = rand_unit_rows(rng)
        err = relative_gradient_error(lambda: ranking_loss(fa, fp, fn, 0.74, 0.66, 1.3), [fa, fp, fn])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_infonce_gradient_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        fa, fp, fn = rand_unit_rows(rng)
        err = relative_gradient_error(lambda: infonce_loss(fa, fp, fn, 0.7), [fa, fp, fn])
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_triplet_gradient_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        fa, fp, fn = rand_unit_rows(rng)
        if abs(hand_triplet(fa, fp, fn, 0.5)) < 1e-3:
            fn = Tensor(fp.data * 0.9 + 0.1, requires_grad=True)  # keep the hinge active, off the kink
        err = relative_gradient_error(lambda: triplet_loss(fa, fp, fn, 0.5), [fa, fp, fn])
        assert err < 1e-4

    def test_hinge_kink_subgradient_inactive(self):
        fa = Tensor([[1.0, 0.0]], requires_grad=True)
        fp = Tensor([[0.5, 0.5]], requires_grad=True)
        fn = Tensor([[0.0, 0.5]], requires_grad=True)
        # gap + margin == 0 exactly: 0.0 - 0.5 + 0.5
        loss = triplet_loss(fa, fp, fn, 0.5)
        assert loss.item() == 0.0
        T.backward(loss)
        np.testing.assert_allclose(fp.grad, 0.0)
        np.testing.assert_allclose(fn.grad, 0.0)

    def test_ranking_gradient_zero_where_posterior_equals_target(self):
        # d loss / d gap = (sigmoid(gap/nu) - target)/nu: zero exactly when
        # the posterior matches the target, sign-changing around it.
        nu = 0.8
        target = 0.7
        s_ap, s_an = 0.7, 0.3
        gap_star = nu * math.log(target / (1.0 - target))

        def grad_at(gap):
            fa = Tensor([[1.0, 0.0]], requires_grad=True)
            fp = Tensor([[gap, 0.0]])
            fn = Tensor([[0.0, 0.0]])
            loss = ranking_loss(fa, fp, fn, s_ap, s_an, nu)
            T.backward(loss)
            return fa.grad[0, 0]  # d loss / d gap since f_a.f_p = gap

        assert abs(grad_at(gap_star)) < 1e-12
        assert grad_at(gap_star - 0.2) < 0 < grad_at(gap_star + 0.2)


class TestBatchedLosses:
    """A (B, d) batch gives the mean of its rows' B = 1 losses and gradients."""

    @staticmethod
    def _value_and_grads(config, rows, triples):
        leaves = [Tensor(r, requires_grad=True) for r in rows]
        loss = compute_loss(config, *leaves, triples)
        T.backward(loss)
        return loss.item(), [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("batch", [1, 12, 16])
    @pytest.mark.parametrize("kind", ["ranking", "triplet", "infonce"])
    def test_batch_equals_mean_of_single_rows(self, kind, batch):
        rng = np.random.default_rng(batch)
        config = LossConfig(kind=kind, margin=0.7, temperature={"infonce": 0.6, "ranking": 1.4}.get(kind, 1.0))
        rows = [rng.normal(size=(batch, 6)) for _ in range(3)]
        s = rng.uniform(0.05, 1.0, size=(batch, 2))
        triples = [Triple(0, 1, 2, s_ap, s_an) for s_ap, s_an in s]
        value, grads = self._value_and_grads(config, rows, triples)
        singles = [self._value_and_grads(config, [r[i : i + 1] for r in rows], [triples[i]]) for i in range(batch)]
        assert abs(value - np.mean([v for v, _ in singles])) < 1e-12
        for k in range(3):
            expected = np.concatenate([g[k] for _, g in singles]) / batch
            np.testing.assert_allclose(grads[k], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kind, own, other", [("triplet", "margin", "temperature"), ("infonce", "temperature", "margin"),
                             ("ranking", "temperature", "margin")],
    )
    def test_each_kind_reads_only_its_own_field(self, kind, own, other):
        """The field a kind does not read leaves its loss and gradients bitwise equal; its own field changes them."""
        rng = np.random.default_rng(0)
        rows = [rng.normal(size=(5, 4)) for _ in range(3)]
        triples = [Triple(0, 1, 2, s_ap, s_an) for s_ap, s_an in rng.uniform(0.05, 1.0, size=(5, 2))]
        # the hinge is inactive on two of these rows at margin 0 and active on all five at margin 50
        base = LossConfig(kind=kind, margin=0.0, temperature=0.7)
        value, grads = self._value_and_grads(base, rows, triples)
        same_value, same_grads = self._value_and_grads(replace(base, **{other: 50.0}), rows, triples)
        assert same_value == value
        for g, h in zip(grads, same_grads):
            np.testing.assert_array_equal(g, h)
        new_value, new_grads = self._value_and_grads(replace(base, **{own: 50.0}), rows, triples)
        assert new_value != value and all(not np.array_equal(g, h) for g, h in zip(grads, new_grads))

    def test_array_and_scalar_similarities_agree(self):
        rng = np.random.default_rng(9)
        fa, fp, fn = (Tensor(rng.normal(size=(4, 5))) for _ in range(3))
        scalar = ranking_loss(fa, fp, fn, 0.6, 0.3).item()
        assert ranking_loss(fa, fp, fn, np.full(4, 0.6), np.full(4, 0.3)).item() == scalar
        targets = ranking_target(np.array([0.6, 0.2]), np.array([0.3, 0.2]))
        np.testing.assert_array_equal(targets, [0.6 / (0.6 + 0.3), 0.5])
        with pytest.raises(ValueError):
            ranking_target(np.array([0.5, 0.0]), np.array([0.5, 0.0]))


class TestTripleType:
    def test_distinct_members_enforced(self):
        with pytest.raises(ValueError):
            Triple(1, 1, 2, 0.5, 0.4)

    def test_similarity_range_enforced(self):
        with pytest.raises(ValueError):
            Triple(0, 1, 2, 1.5, 0.4)


def sampler_for(rows, kind, seed=0, candidates=None):
    values = np.asarray(rows, dtype=np.float64)
    ids = tuple(f"i{k}" for k in range(values.shape[0]))
    sim = SimilarityMatrix(ids, values)
    return TripleSampler(sim, SamplerConfig(kind), seed, candidates=candidates)


def three_image_sim():
    # anchor 0 sees similarities 0.9 (image 1) and 0.1 (image 2)
    return [[1.0, 0.9, 0.1], [0.9, 1.0, 0.5], [0.1, 0.5, 1.0]]


class TestSamplers:
    def test_random_unique_qualifying_pair(self):
        sampler = sampler_for(three_image_sim(), "random")
        for _ in range(50):
            t = sampler.sample_triple(0)
            assert (t.positive, t.negative) == (1, 2)
            assert (t.s_ap, t.s_an) == (0.9, 0.1)

    def test_random_never_misordered(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 0.9, size=(8, 8))
        np.fill_diagonal(values, 1.0)
        sampler = sampler_for(values, "random", seed=1)
        for k in range(10_000):
            t = sampler.sample_triple(k % 8)
            assert t.s_ap > t.s_an

    def test_random_exhaustion_on_constant_row(self):
        sampler = sampler_for(np.full((4, 4), 0.5), "random")
        with pytest.raises(DegenerateDistributionError, match="anchor"):
            sampler.sample_triple(0)

    def test_extreme_deterministic(self):
        sampler = sampler_for(three_image_sim(), "extreme")
        triples = {sampler.sample_triple(0) for _ in range(100)}
        assert triples == {Triple(0, 1, 2, 0.9, 0.1)}

    def test_extreme_tie_break_smallest_index(self):
        values = np.array(
            [
                [1.0, 0.8, 0.8, 0.2, 0.2],
                [0.8, 1.0, 0.5, 0.5, 0.5],
                [0.8, 0.5, 1.0, 0.5, 0.5],
                [0.2, 0.5, 0.5, 1.0, 0.5],
                [0.2, 0.5, 0.5, 0.5, 1.0],
            ]
        )
        t = sampler_for(values, "extreme").sample_triple(0)
        assert (t.positive, t.negative) == (1, 3)

    def test_extreme_constant_row_degenerate(self):
        sampler = sampler_for(np.full((4, 4), 0.5), "extreme")
        with pytest.raises(DegenerateDistributionError):
            sampler.sample_triple(1)

    def test_probability_marginals(self):
        # positive drawn proportional to s, negative proportional to 1-s
        values = np.array(
            [
                [1.0, 0.75, 0.25, 0.5],
                [0.75, 1.0, 0.5, 0.5],
                [0.25, 0.5, 1.0, 0.5],
                [0.5, 0.5, 0.5, 1.0],
            ]
        )
        sampler = sampler_for(values, "probability", seed=7)
        draws = 100_000
        pos_counts = np.zeros(4)
        for _ in range(draws):
            t = sampler.sample_triple(0)
            pos_counts[t.positive] += 1
        target = np.array([0.0, 0.75, 0.25, 0.5])
        target /= target.sum()
        freq = pos_counts / draws
        np.testing.assert_allclose(freq[1:], target[1:], atol=0.01)

    def test_probability_all_zero_degenerate(self):
        values = np.zeros((4, 4))
        np.fill_diagonal(values, 1.0)
        # exclude the diagonal via candidates of anchor row: anchor 0 sees zeros
        sampler = sampler_for(values, "probability")
        with pytest.raises(DegenerateDistributionError):
            sampler.sample_triple(0)

    def test_probability_all_one_degenerate(self):
        sampler = sampler_for(np.ones((4, 4)), "probability")
        with pytest.raises(DegenerateDistributionError):
            sampler.sample_triple(0)

    def test_reject_never_misordered(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.05, 0.95, size=(10, 10))
        np.fill_diagonal(values, 1.0)
        sampler = sampler_for(values, "reject", seed=11)
        for k in range(10_000):
            t = sampler.sample_triple(k % 10)
            assert t.s_ap >= t.s_an

    def test_reject_accepts_equality(self):
        values = np.full((4, 4), 0.5)
        np.fill_diagonal(values, 1.0)
        sampler = sampler_for(values, "reject", seed=2)
        t = sampler.sample_triple(0)
        assert t.s_ap == t.s_an == 0.5

    def test_candidates_restrict_members(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.1, 0.9, size=(12, 12))
        np.fill_diagonal(values, 1.0)
        allowed = [0, 2, 4, 6, 8]
        sampler = sampler_for(values, "probability", seed=9, candidates=allowed)
        for _ in range(500):
            t = sampler.sample_triple(4)
            assert t.positive in allowed and t.negative in allowed
            assert t.positive != 4 and t.negative != 4

    def test_anchor_and_diagonal_never_sampled(self):
        sampler = sampler_for(three_image_sim(), "probability", seed=13)
        for _ in range(1000):
            t = sampler.sample_triple(1)
            assert t.anchor == 1
            assert t.positive != 1 and t.negative != 1

    def test_requires_three_candidates(self):
        with pytest.raises(ValueError):
            sampler_for(np.ones((2, 2)), "random")


class _Recorder:
    """Stands in for a sampler's generator: records the law of each draw and returns
    ``positive`` for the first draw (unless it is None) and the likeliest position otherwise."""

    def __init__(self, positive):
        self.positive = positive
        self.laws = []

    def choice(self, n, p):
        self.laws.append(np.asarray(p))
        return self.positive if len(self.laws) == 1 and self.positive is not None else int(np.argmax(p))


def drawn_law(kind, row):
    """Joint law over (positive, negative) row positions of the sampler's draws for anchor 0."""
    values = np.ones((len(row) + 1, len(row) + 1))
    values[0, 1:] = row
    sampler = sampler_for(values, kind)
    sampler._rng = first = _Recorder(None)
    sampler.sample_triple(0)
    law = np.zeros((len(row), len(row)))
    for p in np.flatnonzero(first.laws[0]):
        sampler._rng = recorder = _Recorder(p)
        sampler.sample_triple(0)
        assert len(recorder.laws) == 2  # one draw each: no redraws
        law[p] = first.laws[0][p] * recorder.laws[1]
    return law


def loop_law(kind, row):
    """Law of (positive, negative) that the rejection loops define, given that they stop.

    random: distinct pairs drawn uniformly until s_p > s_n. probability: p
    drawn with probability s_p / sum(s), then n with probability (1 - s_n) /
    sum(1 - s) until n != p; a p whose redraws cannot stop is never returned.
    reject: probability pairs until s_p >= s_n. None when no pair is returned.
    """
    m = len(row)
    law = np.zeros((m, m))
    for p in range(m):
        others = [n for n in range(m) if n != p]
        rest = sum(1.0 - row[n] for n in others)
        for n in others:
            if kind == "random":
                law[p, n] = float(row[p] > row[n])
            elif rest > 0 and (kind == "probability" or row[p] >= row[n]):
                law[p, n] = row[p] * (1.0 - row[n]) / rest  # the 1 / sum(s) of p cancels
    return law / law.sum() if law.sum() > 0 else None


def tie_heavy_rows(count, seed):
    """Rows of 2-8 candidates mostly on {0, .25, .5, .75, 1}, with a few uniform values."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 9))
        row = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m)
        uniform = rng.random(m) < 0.2
        row[uniform] = rng.random(int(uniform.sum()))
        yield row


class TestSamplerLaws:
    """Each stochastic sampler's two draws give exactly the law of the rejection loops they replace."""

    @pytest.mark.parametrize("kind", ["random", "probability", "reject"])
    def test_drawn_law_is_the_loop_law_on_tie_heavy_rows(self, kind):
        degenerate = 0
        for row in tie_heavy_rows(4000, seed=len(kind)):
            expected = loop_law(kind, row)
            if expected is None:
                degenerate += 1
                with pytest.raises(DegenerateDistributionError, match="anchor 0"):
                    drawn_law(kind, row)
            else:
                np.testing.assert_allclose(drawn_law(kind, row), expected, rtol=0, atol=1e-12)
        assert degenerate > 0

    @pytest.mark.parametrize("kind", ["probability", "reject"])
    def test_near_one_similarities_draw_without_failing(self, kind):
        x = 1.0 - 2.0**-50
        values = [[1, 0.5, x, x], [0.5, 1, 0.5, 0.5], [x, 0.5, 1, 0.5], [x, 0.5, 0.5, 1]]
        sampler = sampler_for(values, kind, seed=0)
        for _ in range(50):
            t = sampler.sample_triple(0)
            assert kind == "probability" or t.s_ap >= t.s_an

    def test_random_on_binary_pairs(self):
        # image i is similar only to image i ^ 1, so each anchor has one positive
        n = 2500
        values = np.zeros((n, n))
        values[np.arange(n), np.arange(n) ^ 1] = 1.0
        np.fill_diagonal(values, 1.0)
        sampler = sampler_for(values, "random", seed=0)
        for anchor in range(300):
            t = sampler.sample_triple(anchor)
            assert (t.positive, t.s_ap, t.s_an) == (anchor ^ 1, 1.0, 0.0)

    def test_positive_without_a_negative_is_never_drawn(self):
        # with image 3 as the positive, images 1 and 2 (both at 1) are left: no negative could stop its loop
        sampler = sampler_for([[1, 1, 1, 0.5], [1, 1, 0.5, 0.5], [1, 0.5, 1, 0.5], [0.5, 0.5, 0.5, 1]], "probability")
        assert {sampler.sample_triple(0).positive for _ in range(200)} == {1, 2}


class TestConfigs:
    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(kind="nope")
        with pytest.raises(ValueError):
            LossConfig(margin=-0.1)
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)

    # Each loss kind with the field it reads: InfoNCE's and the ranking loss's temperature are one field.
    @pytest.mark.parametrize(
        "kind, field",
        [("triplet", "margin"), ("infonce", "temperature"), ("ranking", "temperature")],
        ids=["margin", "infonce_temperature", "ranking_temperature"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_loss_config_refuses_non_finite_floats(self, kind, field, value):
        with pytest.raises(ValueError, match=f"^LossConfig.{field} must be finite, got {value!r}$"):
            LossConfig(kind=kind, **{field: value})

    @pytest.mark.parametrize(
        "loss, param, field",
        [(ranking_loss, "nu", "temperature"), (triplet_loss, "margin", "margin"),
         (infonce_loss, "temperature", "temperature")],
    )
    def test_loss_defaults_are_the_config_defaults(self, loss, param, field):
        assert inspect.signature(loss).parameters[param].default == getattr(LossConfig(), field)

    def test_sampler_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="nope")
