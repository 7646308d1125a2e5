"""Autodiff engine: forward values, gradients vs finite differences, tape
contracts, batchnorm behavior."""

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

    def test_tape_topological_order_and_single_visit(self):
        x = t([[1.0, 2.0]])
        h = T.relu(x)
        loss = T.sum(T.mul(h, h))
        nodes = T._topological_nodes(loss)
        seen = set()
        for node in nodes:
            for parent in node.parents:
                if parent.node is not None:
                    assert id(parent.node) in seen, "parent must precede child"
            assert id(node) not in seen, "node listed twice"
            seen.add(id(node))

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
        state = BatchNormState.create(4)
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
        state = BatchNormState.create(3)
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
        state = BatchNormState.create(3)
        T.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, Mode.TRAIN)
        expected_mean = 0.1 * x.data.mean(axis=0)
        np.testing.assert_allclose(state.running_mean, expected_mean, atol=1e-12)

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(100, 2)))
        out = T.batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState.create(2), Mode.TRAIN)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)
