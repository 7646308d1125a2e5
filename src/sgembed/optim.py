"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .tensor import Tensor


class MissingGradientError(ValueError):
    """adam_step was called while some parameter has no accumulated gradient."""


@dataclass
class AdamState:
    """Step counter and per-parameter moment buffers, keyed by parameter name; the betas and
    epsilon are shared constants."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8
    learning_rate: float
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def create(cls, params: dict[str, Tensor], learning_rate: float) -> "AdamState":
        return cls(
            learning_rate=learning_rate,
            first_moment={name: np.zeros_like(p.data) for name, p in params.items()},
            second_moment={name: np.zeros_like(p.data) for name, p in params.items()},
        )


def adam_step(params: dict[str, Tensor], state: AdamState) -> AdamState:
    """Apply one bias-corrected Adam update in place and clear gradients.

    Every parameter must carry a gradient from a preceding backward();
    gradients are cleared (set to None) after the update so a stale
    gradient can never be consumed twice.
    """
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise MissingGradientError(f"no gradient for parameter(s): {', '.join(missing)}")
    for name, p in params.items():
        if p.grad.shape != p.data.shape:
            raise MissingGradientError(
                f"gradient shape {p.grad.shape} does not match parameter {name} {p.data.shape}"
            )
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in params.items():
        g = p.grad
        m = state.first_moment[name]
        v = state.second_moment[name]
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
        # p -= lr * (m/bias1) / (sqrt(v/bias2) + eps): the same operations in the
        # same order, bit for bit, with two new arrays per parameter.
        m *= b1
        scratch = (1.0 - b1) * g
        m += scratch
        v *= b2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v += scratch
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        step = m / bias1
        step *= state.learning_rate
        step /= scratch
        p.data -= step
        p.grad = None
    return state
