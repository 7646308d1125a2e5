"""Autodiff engine: forward values, gradients vs finite differences, tape
contracts, batchnorm behavior."""

import weakref

import numpy as np
import pytest

from conftest import relative_gradient_error
from sgembed import tensor as T
from sgembed.tensor import (
    BatchNormState,
    EmptySegmentError,
    IndexRangeError,
    Mode,
    ShapeError,
    Tensor,
    backward,
)


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForwardValues:
    def test_rowwise_normalize_3_4_5(self):
        out = T.rowwise_l2_normalize(t([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_segment_mean_hand_case(self):
        out = T.segment_mean(t([[1.0], [3.0], [10.0]]), [0, 0, 1], 2)
        np.testing.assert_allclose(out.data, [[2.0], [10.0]])

    def test_segment_mean_empty_segment_errors(self):
        with pytest.raises(EmptySegmentError):
            T.segment_mean(t([[1.0], [2.0]]), [0, 0], 2)

    def test_segment_mean_bad_ids(self):
        with pytest.raises(IndexRangeError):
            T.segment_mean(t([[1.0]]), [3], 2)

    def test_gather_rows(self):
        table = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = T.gather_rows(table, [2, 0, 2])
        np.testing.assert_allclose(out.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        with pytest.raises(IndexRangeError):
            T.gather_rows(table, [3])

    def test_concat_axis1(self):
        out = T.concat([t([[1.0], [2.0]]), t([[3.0], [4.0]])], axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            T.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            T.mul(t([[1.0]]), t([1.0]))

    def test_logsigmoid_extremes_finite(self):
        out = T.logsigmoid(t([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], -np.log(2.0), atol=1e-15)
        np.testing.assert_allclose(out.data[2], 0.0, atol=1e-15)

    def test_logsigmoid_is_bit_identical_to_its_direct_expressions(self):
        """Value and gradient equal, bit for bit, the expressions that compute exp(-|x|) and its log1p per use."""
        x = t([-800.0, -1.0, -0.0, 0.0, 1e-300, 3.0, 800.0])
        d = x.data.copy()
        want_out = np.where(d >= 0, -np.log1p(np.exp(-np.abs(d))), d - np.log1p(np.exp(-np.abs(d))))
        want_grad = np.where(d >= 0, np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))), 1.0 / (1.0 + np.exp(-np.abs(d))))
        out = T.logsigmoid(x)
        backward(T.sum(out))
        assert out.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = t(np.arange(4.0).reshape(2, 2))
        backward(T.sum(x))
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = t([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            backward(x)

    def test_double_backward_doubles_leaf_grads(self):
        # Documented contract: rerunning backward on the same recorded
        # graph accumulates a second time.
        x = t([[1.0, 2.0]])
        loss = T.sum(T.mul(x, x))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = t([2.0])
        y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
        backward(T.sum(y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_runs_each_rule_once_after_all_its_consumers(self, monkeypatch):
        """Rules run through a TapeNode subclass, as the benchmark's tracer
        records them. The row-normalized product has three consumers, like the
        pooled embeddings of a triple's anchor, positive and negative, at
        unequal depths below the loss, so a breadth-first walk would run it early."""
        created, ran = [], []

        class RecordingNode(T.TapeNode):
            __slots__ = ()

            def __init__(self, parents, out, backward_fn, name):
                k = len(created)
                created.append(self)

                def recorded(g):
                    ran.append(k)
                    return backward_fn(g)

                super().__init__(parents, out, recorded, name)

        monkeypatch.setattr(T, "TapeNode", RecordingNode)
        rng = np.random.default_rng(3)
        x, w = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 3)))

        def build():
            pooled = T.rowwise_l2_normalize(T.matmul(x, w))
            anchor, positive, negative = (T.gather_rows(pooled, i) for i in ([0, 1], [2, 3], [3, 0]))
            ap, an = T.mul(anchor, T.mul_scalar(positive, 2.0)), T.mul(anchor, negative)
            margin = T.sub(T.sum(ap, axis=1), T.sum(an, axis=1))
            return T.sum(T.logsigmoid(margin))

        backward(build())
        index = {id(node): k for k, node in enumerate(created)}
        assert [sum(p in node.parents for node in created) for p in created].count(3) == 1
        assert sorted(ran) == list(range(len(created))), "a rule ran twice or not at all"
        position = {k: i for i, k in enumerate(ran)}
        for k, node in enumerate(created):
            for parent in node.parents:
                if isinstance(parent, T.TapeNode):
                    assert position[index[id(parent)]] > position[k], "a rule ran before one of its consumers"
        assert relative_gradient_error(build, [x, w]) < 1e-4

    def test_tape_keeps_no_array_its_rules_do_not_read(self):
        """No rule reads the matmul or add output of relu(x @ w + b), so the
        tape frees both while the loss lives; backward is still exact."""
        rng = np.random.default_rng(0)
        x, w, b = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 5))), t(rng.normal(size=5))

        def build():
            return T.sum(T.relu(T.add(T.matmul(x, w), b)))

        def build_with_weakrefs():
            product = T.matmul(x, w)
            biased = T.add(product, b)
            return T.sum(T.relu(biased)), (weakref.ref(product.data), weakref.ref(biased.data))

        loss, (product_ref, biased_ref) = build_with_weakrefs()
        assert product_ref() is None, "the tape keeps the matmul output"
        assert biased_ref() is None, "the tape keeps the add output"
        # The oracle runs backward on its first forward: hand it the kept loss.
        pending = [loss]
        assert relative_gradient_error(lambda: pending.pop() if pending else build(), [x, w, b]) < 1e-4

    def test_row_sum_values_and_bad_axes(self):
        x = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(T.sum(x, axis=1).data, [6.0, 15.0])
        for bad, axis in ((x, 0), (x, 2), (x, -1), (t([1.0, 2.0]), 1)):
            with pytest.raises(ShapeError):
                T.sum(bad, axis=axis)

    def test_relu_kink_subgradient_zero(self):
        x = t([0.0, -1.0, 2.0])
        backward(T.sum(T.relu(x)))
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


class TestGradientsVsFiniteDifferences:
    """Central-difference oracle, h=1e-5, scaled error < 1e-4 per op."""

    def _check(self, build, leaves, tol=1e-4):
        err = relative_gradient_error(build, leaves)
        assert err < tol, f"gradient error {err}"

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        self._check(lambda: T.sum(T.matmul(a, b)), [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 3)))
        b = t(rng.normal(size=(3, 3)))

        def build():
            s = T.add(T.mul(a, b), b)
            return T.sum(T.sub(s, T.mul_scalar(a, 0.3)))

        self._check(build, [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_bias_add(self, seed):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(4, 3)))
        bias = t(rng.normal(size=3))
        self._check(lambda: T.sum(T.add(x, bias)), [x, bias])

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(2, 3)))

        def build():
            u = T.logsigmoid(a)
            return T.sum(T.add(T.logsigmoid(T.mul_scalar(u, -1.0)), T.logsigmoid(T.mul_scalar(a, 0.1))))

        self._check(build, [a])

    @pytest.mark.parametrize("seed", range(5))
    def test_relu_mean(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 3)) + 0.05)  # keep preactivations off the kink
        self._check(lambda: T.mul_scalar(T.sum(T.relu(a)), 1.0 / a.data.size), [a])

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sum(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 3)))
        weights = t(rng.normal(size=4))
        self._check(lambda: T.sum(T.mul(T.sum(a, axis=1), weights)), [a, weights])

    @pytest.mark.parametrize("seed", range(5))
    def test_concat_and_gather(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(3, 2)))
        b = t(rng.normal(size=(2, 2)))

        def build():
            joined = T.concat([a, b], axis=0)
            picked = T.gather_rows(joined, [0, 4, 2, 2])
            return T.sum(T.mul(picked, picked))

        self._check(build, [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_mean(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(6, 3)))
        ids = [0, 1, 1, 2, 0, 2]
        self._check(lambda: T.sum(T.mul(T.segment_mean(a, ids, 3), T.segment_mean(a, ids, 3))), [a])

    @pytest.mark.parametrize("seed", range(5))
    def test_rowwise_normalize(self, seed):
        rng = np.random.default_rng(seed)
        a = t(rng.normal(size=(4, 3)) + 0.5)
        weights = t(rng.normal(size=(4, 3)))
        self._check(lambda: T.sum(T.mul(T.rowwise_l2_normalize(a), weights)), [a, weights])

    @pytest.mark.parametrize("mode", [Mode.TRAIN, Mode.EVAL])
    @pytest.mark.parametrize("seed", range(3))
    def test_batchnorm(self, seed, mode):
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(5, 4)))
        gamma = t(rng.uniform(0.5, 1.5, size=4))
        beta = t(rng.normal(size=4))
        state = BatchNormState(np.zeros(4), np.ones(4))
        state.running_mean[:] = rng.normal(size=4)
        state.running_var[:] = rng.uniform(0.5, 2.0, size=4)
        weights = t(rng.normal(size=(5, 4)))
        self._check(lambda: T.sum(T.mul(T.batchnorm(x, gamma, beta, state, mode), weights)), [x, gamma, beta])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mlp_tight_tolerance(self, seed):
        """3-layer MLP gradients match finite differences to 1e-6."""
        rng = np.random.default_rng(seed)
        x = t(rng.normal(size=(4, 5)))
        w1, b1 = t(rng.normal(size=(5, 6)) * 0.5), t(rng.normal(size=6) * 0.1)
        w2, b2 = t(rng.normal(size=(6, 6)) * 0.5), t(rng.normal(size=6) * 0.1)
        w3, b3 = t(rng.normal(size=(6, 2)) * 0.5), t(rng.normal(size=2) * 0.1)

        def build():
            h1 = T.logsigmoid(T.add(T.matmul(x, w1), b1))
            h2 = T.logsigmoid(T.add(T.matmul(h1, w2), b2))
            return T.sum(T.add(T.matmul(h2, w3), b3))

        err = relative_gradient_error(build, [x, w1, b1, w2, b2, w3, b3])
        assert err < 1e-6, f"gradient error {err}"


class TestNormalizeProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_unit_norm_output(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 5)) * rng.uniform(0.5, 100)
        out = T.rowwise_l2_normalize(Tensor(x))
        norms = np.linalg.norm(out.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_degenerate_rows_pass_through_and_count(self):
        x = np.array([[1e-12, 0.0], [3.0, 4.0]])
        out = T.rowwise_l2_normalize(Tensor(x))
        np.testing.assert_allclose(out.data[0], x[0])
        np.testing.assert_allclose(np.linalg.norm(out.data[1]), 1.0)
        assert T.degenerate_norm_count() == 1


class TestBatchNormModes:
    def test_eval_is_deterministic_affine(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 3)))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        state = BatchNormState(np.zeros(3), np.ones(3))
        state.running_mean[:] = [0.5, -0.5, 0.0]
        state.running_var[:] = [2.0, 1.0, 0.5]
        out1 = T.batchnorm(x, gamma, beta, state, Mode.EVAL).data
        out2 = T.batchnorm(x, gamma, beta, state, Mode.EVAL).data
        assert np.array_equal(out1, out2)
        expected = (x.data - state.running_mean) / np.sqrt(state.running_var + state.eps)
        np.testing.assert_allclose(out1, expected, atol=1e-15)

    def test_train_updates_running_stats(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(loc=2.0, size=(50, 3)))
        state = BatchNormState(np.zeros(3), np.ones(3))
        T.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, Mode.TRAIN)
        expected_mean = 0.1 * x.data.mean(axis=0)
        np.testing.assert_allclose(state.running_mean, expected_mean, atol=1e-12)

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(100, 2)))
        out = T.batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState(np.zeros(2), np.ones(2)), Mode.TRAIN)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _add_at_reference(rows, ids, num_out):
    """Row sums by ``np.add.at``, the scatter the kernels must reproduce bit for bit."""
    totals = np.zeros((num_out, rows.shape[1]))
    np.add.at(totals, ids, rows)
    return totals


def _wide_values(rng, n, f):
    # Magnitudes spread over 16 decades, so any change in summation order shows.
    return rng.normal(size=(n, f)) * 10.0 ** rng.uniform(-8, 8, size=(n, f))


def _column_slice(rng, n, f):
    """A non-contiguous (n, f) upstream gradient, as concat's np.split gives it."""
    wide = _wide_values(rng, n, f + 3)
    g = np.split(wide, [f], axis=1)[0]
    assert n < 2 or not g.flags.c_contiguous
    return g


# (ids, number of output rows, feature width); every output row is hit.
_SEGMENT_CASES = {
    "duplicate_heavy": (np.random.default_rng(0).permutation(np.arange(600) % 4), 4, 5),
    "empty": (np.zeros(0, dtype=np.int64), 0, 3),
    "single_row": (np.array([0]), 1, 4),
    "width_one": (np.random.default_rng(1).permutation(np.arange(50) % 7), 7, 1),
}
# (indices, table rows, feature width): the cases above, plus tables with
# rows that no index hits.
_GATHER_CASES = {
    **_SEGMENT_CASES,
    "unhit_rows": (np.random.default_rng(2).choice([0, 3, 3, 8], size=40), 11, 3),
    "empty": (np.zeros(0, dtype=np.int64), 4, 3),
    "single_row": (np.array([2]), 5, 4),
}


class TestBitIdenticalKernels:
    """The fast kernels reproduce the reference formulas byte for byte."""

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("case", sorted(_SEGMENT_CASES))
    def test_segment_mean_matches_add_at(self, case, contiguous):
        ids, num_out, f = _SEGMENT_CASES[case]
        rng = np.random.default_rng(3)
        values = _wide_values(rng, ids.size, f)
        out = T.segment_mean(t(values), ids, num_out)
        counts = np.bincount(ids, minlength=num_out).astype(np.float64)
        assert _same_bytes(out.data, _add_at_reference(values, ids, num_out) / counts[:, None])
        g = _wide_values(rng, num_out, f) if contiguous else _column_slice(rng, num_out, f)
        (gv,) = out.node.backward_fn(g)
        assert _same_bytes(gv, g[ids] / counts[ids][:, None])

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("case", sorted(_GATHER_CASES))
    def test_gather_rows_backward_matches_add_at(self, case, contiguous):
        idx, n_rows, f = _GATHER_CASES[case]
        rng = np.random.default_rng(4)
        out = T.gather_rows(t(_wide_values(rng, n_rows, f)), idx)
        g = _wide_values(rng, idx.size, f) if contiguous else _column_slice(rng, idx.size, f)
        (gt,) = out.node.backward_fn(g)
        assert _same_bytes(gt, _add_at_reference(g, idx, n_rows))

    @pytest.mark.parametrize("shape", ["row", "column"])
    @pytest.mark.parametrize("n", range(1, 70))
    def test_relu_matches_where(self, n, shape):
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = np.array([0.0, np.nan, np.inf, tiny, 1e-310, 1.0])
        specials = np.concatenate([specials, -specials])
        x = np.random.default_rng(n).choice(specials, size=n)
        x = x[None, :] if shape == "row" else x[:, None]
        assert _same_bytes(T.relu(t(x)).data, np.where(x > 0, x, 0.0))

    @pytest.mark.parametrize("n", [1, 2, 7, 1600])
    def test_train_batchnorm_matches_mean_var_formulas(self, n):
        rng = np.random.default_rng(n)
        f = 64
        x = rng.normal(loc=3.0, scale=2.0, size=(n, f))
        gamma, beta = rng.uniform(0.5, 1.5, size=f), rng.normal(size=f)
        running_mean, running_var = rng.normal(size=f), rng.uniform(0.5, 2.0, size=f)
        g = rng.normal(size=(n, f))
        state = BatchNormState(running_mean.copy(), running_var.copy())
        out = T.batchnorm(t(x), t(gamma), t(beta), state, Mode.TRAIN)
        dx, dgamma, dbeta = out.node.backward_fn(g)

        eps, m = BatchNormState.eps, BatchNormState.momentum
        mu, var = x.mean(axis=0), x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        assert _same_bytes(out.data, gamma * xhat + beta)
        assert _same_bytes(state.running_mean, (1.0 - m) * running_mean + m * mu)
        assert _same_bytes(state.running_var, (1.0 - m) * running_var + m * var)
        assert _same_bytes(dgamma, (g * xhat).sum(axis=0))
        assert _same_bytes(dbeta, g.sum(axis=0))
        assert _same_bytes(dx, gamma * inv_std * (g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0)))

    @pytest.mark.parametrize("recorded", ["x", "gamma", "beta"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n", [1, 7, 1600])
    def test_unrecorded_batchnorm_matches_recorded(self, n, mode, recorded):
        """With no input requiring grad, batchnorm computes its affine map in xhat's own buffer: the same
        output and running-buffer bytes as a call recorded because one input requires grad, x unchanged.
        The recorded call's gamma gradient still reads the unscaled xhat."""
        rng = np.random.default_rng(n)
        f = 64
        x = rng.normal(loc=3.0, scale=2.0, size=(n, f))
        gamma, beta = rng.uniform(0.5, 1.5, size=f), rng.normal(size=f)
        running = rng.normal(size=f), rng.uniform(0.5, 2.0, size=f)
        g = rng.normal(size=(n, f))

        def call(requires_grad):
            named = {"x": x, "gamma": gamma, "beta": beta}
            inputs = {name: t(a.copy(), name in requires_grad) for name, a in named.items()}
            state = BatchNormState(*(a.copy() for a in running))
            return T.batchnorm(inputs["x"], inputs["gamma"], inputs["beta"], state, mode), state, inputs["x"]

        out, state, x_in = call(())
        reference, reference_state, _ = call((recorded,))
        assert out.node is None and reference.node is not None
        assert _same_bytes(out.data, reference.data)
        assert _same_bytes(state.running_mean, reference_state.running_mean)
        assert _same_bytes(state.running_var, reference_state.running_var)
        assert _same_bytes(x_in.data, x)
        xhat = (reference.data - beta) / gamma
        np.testing.assert_allclose(reference.node.backward_fn(g)[1], (g * xhat).sum(axis=0), rtol=1e-12, atol=1e-9)
