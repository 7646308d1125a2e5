"""Adam: fixed points, hand-evaluated first steps, moment recurrences."""

import numpy as np
import pytest

from sgembed import tensor as T
from sgembed.model import GcnModel, ModelConfig, forward
from sgembed.optim import AdamState, MissingGradientError, adam_step
from sgembed.scene import SceneGraph, augment_trivial
from sgembed.tensor import Mode, Tensor


def _param(values):
    p = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return p


def test_zero_gradient_is_fixed_point():
    p = _param([1.0, -2.0, 3.0])
    p.grad = np.zeros(3)
    state = AdamState.create({"p": p}, learning_rate=1e-3)
    adam_step({"p": p}, state)
    np.testing.assert_allclose(p.data, [1.0, -2.0, 3.0])
    assert state.step_count == 1


def test_first_step_matches_hand_derivation():
    # g=1, lr=1e-3, defaults: m=0.1, v=0.001, m_hat=1, v_hat=1,
    # delta = -lr * 1 / (1 + eps) ~ -1e-3.
    p = _param([0.0])
    p.grad = np.ones(1)
    state = AdamState.create({"p": p}, learning_rate=1e-3)
    adam_step({"p": p}, state)
    expected = -1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
    assert p.grad is None  # gradients are cleared after the update


def test_two_identical_steps_follow_ema_recurrence():
    p = _param([0.0])
    state = AdamState.create({"p": p}, learning_rate=1e-2)
    g = 0.5
    m = v = 0.0
    x = 0.0
    for step in (1, 2):
        p.grad = np.full(1, g)
        adam_step({"p": p}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**step)
        v_hat = v / (1.0 - 0.999**step)
        x -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, [x], rtol=1e-12)
        np.testing.assert_allclose(state.first_moment["p"], [m], rtol=1e-12)
        np.testing.assert_allclose(state.second_moment["p"], [v], rtol=1e-12)
    assert state.step_count == 2


def test_missing_gradient_names_parameter():
    p1, p2 = _param([1.0]), _param([2.0])
    p1.grad = np.ones(1)
    state = AdamState.create({"weights": p1, "bias": p2}, learning_rate=1e-3)
    with pytest.raises(MissingGradientError, match="bias"):
        adam_step({"weights": p1, "bias": p2}, state)
    assert state.step_count == 0


def test_moment_buffers_match_parameter_shapes():
    p = _param(np.zeros((3, 4)))
    state = AdamState.create({"p": p}, learning_rate=1e-3)
    assert state.first_moment["p"].shape == (3, 4)
    assert state.second_moment["p"].shape == (3, 4)


def test_in_place_update_is_the_out_of_place_formula_bit_for_bit(tiny_vocab):
    """Five steps on a 2-layer GCN: every parameter and moment equals the textbook expressions, bitwise."""
    model = GcnModel.create(ModelConfig(label_dim=6, message_dim=5, out_dim=4, num_layers=2, mlp_hidden=7), tiny_vocab)
    graphs = [
        augment_trivial(SceneGraph("a", (0, 1, 2), ((0, 0, 1), (1, 2, 2))), tiny_vocab),
        augment_trivial(SceneGraph("b", (3, 1), ((1, 1, 0),)), tiny_vocab),
    ]
    params = model.parameters()
    state = AdamState.create(params, learning_rate=1e-2)
    expected = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p.data) for name, p in params.items()}
    v = {name: np.zeros_like(p.data) for name, p in params.items()}
    b1, b2, eps, lr = AdamState.beta1, AdamState.beta2, AdamState.epsilon, state.learning_rate
    for t in range(1, 6):
        T.backward(T.sum(forward(model, graphs, Mode.TRAIN)))
        for name, p in params.items():
            g = p.grad
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            expected[name] = expected[name] - lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)
        adam_step(params, state)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, expected[name], err_msg=f"step {t}: {name}")
            np.testing.assert_array_equal(state.first_moment[name], m[name], err_msg=f"step {t}: {name}")
            np.testing.assert_array_equal(state.second_moment[name], v[name], err_msg=f"step {t}: {name}")
