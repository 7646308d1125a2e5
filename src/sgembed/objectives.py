"""Contrastive objectives over (anchor, positive, negative) embedding triples
and the sampling strategies that pick the triples from a similarity matrix.

All three losses take a batch as three (B, d) tensors, compare the row-wise
anchor-positive and anchor-negative inner products, and return the batch
mean as a 0-d tensor. The ranking loss is a soft-target cross-entropy: the
posterior that the pair ordering is correct is sigmoid of the scaled
similarity gap, and the target is s_ap / (s_ap + s_an), so near-equal
supervision values contribute a proportionally weak ordering constraint
instead of a hard one.

A sampler draws a (positive p, negative n) pair from the anchor's
similarities s to the other candidates:

- ``random``: uniform over the pairs with s_p > s_n;
- ``extreme``: p = argmax s, n = argmin s, the smallest index on ties;
- ``probability``: p ∝ s_p, then n ≠ p ∝ 1 - s_n; a p whose other
  candidates all have s = 1 gets weight 0;
- ``reject``: the ``probability`` pair given s_p ≥ s_n: p ∝ s_p·A_p/B_p,
  then n ∝ 1 - s_n among the others with s_n ≤ s_p, whose 1 - s mass is
  A_p (B_p: that of all others).

Each stochastic sampler draws p from its marginal law, then n from its law
given p; a row that admits no pair raises DegenerateDistributionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .scene import SimilarityMatrix
from .tensor import Tensor


class DegenerateDistributionError(ValueError):
    """A similarity row admits no triple under the sampler (e.g. a constant row)."""


def require_finite_floats(config) -> None:
    """ValueError naming the first float field of a config dataclass that is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(config).__name__}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LossConfig:
    kind: str = "ranking"
    margin: float = 0.5
    temperature: float = 1.0  # the ranking loss's nu and InfoNCE's tau

    def __post_init__(self):
        require_finite_floats(self)
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "probability"

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"sampler kind must be one of {SAMPLER_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Triple:
    """Anchor, positive and negative image indices with their supervision values."""

    anchor: int
    positive: int
    negative: int
    s_ap: float
    s_an: float

    def __post_init__(self):
        if len({self.anchor, self.positive, self.negative}) != 3:
            raise ValueError(f"triple members must be distinct, got {self}")
        for v in (self.s_ap, self.s_an):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"similarity values must lie in [0,1], got {v}")


def _dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner products of two (B, d) tensors, shape (B,)."""
    return T.sum(T.mul(a, b), axis=1)


def _batch_mean(per_row: Tensor, scale: float = 1.0) -> Tensor:
    """scale * mean of a (B,) tensor, as a 0-d tensor."""
    return T.mul_scalar(T.sum(per_row), scale / per_row.shape[0])


def ranking_target(s_ap, s_an):
    """Soft target probability that the positive outranks the negative (scalars or arrays)."""
    total = np.add(s_ap, s_an)
    if np.any(total <= 0.0):
        raise ValueError("ranking target undefined: both similarities are zero")
    return np.divide(s_ap, total)


def ranking_loss(
    f_a: Tensor, f_p: Tensor, f_n: Tensor, s_ap, s_an, nu: float = LossConfig.temperature
) -> Tensor:
    """Mean cross-entropy between the ordering posterior and the soft target;
    s_ap and s_an are scalars or length-B arrays.

    t·logsigmoid(gap) + (1 - t)·logsigmoid(-gap) is evaluated as
    logsigmoid(gap) - (1 - t)·gap, since logsigmoid(-z) = logsigmoid(z) - z:
    one log-sigmoid, finite for any finite gap.
    """
    if nu <= 0:
        raise ValueError("ranking temperature must be positive")
    target = np.broadcast_to(ranking_target(s_ap, s_an), (f_a.shape[0],))
    gap = T.mul_scalar(T.sub(_dot(f_a, f_p), _dot(f_a, f_n)), 1.0 / nu)
    per_row = T.sub(T.logsigmoid(gap), T.mul(gap, Tensor(1.0 - target)))
    return _batch_mean(per_row, -1.0)


def triplet_loss(f_a: Tensor, f_p: Tensor, f_n: Tensor, margin: float = LossConfig.margin) -> Tensor:
    """Mean hinge on the similarity gap; the kink's subgradient is 0 (inactive)."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    gap = T.sub(_dot(f_a, f_n), _dot(f_a, f_p))
    return _batch_mean(T.relu(T.add(gap, Tensor(np.full(gap.shape, float(margin))))))


def infonce_loss(f_a: Tensor, f_p: Tensor, f_n: Tensor, temperature: float = LossConfig.temperature) -> Tensor:
    """Mean two-way softmax loss on the positive vs negative similarity.

    -log(e^(ap/t) / (e^(ap/t) + e^(an/t))) == -logsigmoid((ap - an)/t): the
    ranking loss with the hard target 1 (s_ap = 1, s_an = 0), where its
    logsigmoid(gap) - (1 - target)·gap is logsigmoid(gap). The paper's
    soft-target ranking loss thus generalises two-way InfoNCE.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return ranking_loss(f_a, f_p, f_n, 1.0, 0.0, temperature)


LOSS_KINDS = ("triplet", "infonce", "ranking")  # in --loss help order


def compute_loss(config: LossConfig, f_a: Tensor, f_p: Tensor, f_n: Tensor, triples) -> Tensor:
    """Mean loss of a batch: row i of the (B, d) embeddings belongs to triples[i]."""
    if config.kind == "triplet":
        return triplet_loss(f_a, f_p, f_n, config.margin)
    if config.kind == "infonce":
        return infonce_loss(f_a, f_p, f_n, config.temperature)
    s_ap, s_an = np.array([(t.s_ap, t.s_an) for t in triples]).T
    return ranking_loss(f_a, f_p, f_n, s_ap, s_an, config.temperature)


class TripleSampler:
    """Draws (positive, negative) pairs for anchors from a similarity matrix.

    The sampler owns its RNG, seeded with ``seed``, so a fixed seed gives a
    reproducible draw sequence. ``candidates`` restricts both triple members
    to a subset of images (e.g. the train split); the anchor itself is always
    excluded.
    """

    def __init__(self, similarity: SimilarityMatrix, config: SamplerConfig, seed: int, candidates=None):
        self._values = similarity.values
        self._config = config
        self._rng = np.random.default_rng(seed)
        n = self._values.shape[0]
        self._candidates = np.arange(n) if candidates is None else np.asarray(sorted(candidates), dtype=np.int64)
        if len(self._candidates) < 3:
            raise ValueError("sampling requires at least 3 candidate images")

    def sample_triple(self, anchor: int) -> Triple:
        cands = self._candidates[self._candidates != anchor]
        if len(cands) < 2:
            raise ValueError(f"anchor {anchor}: not enough candidates to form a triple")
        row = self._values[anchor, cands]
        pi, ni = _SAMPLERS[self._config.kind](self, anchor, row)
        return Triple(
            anchor=int(anchor),
            positive=int(cands[pi]),
            negative=int(cands[ni]),
            s_ap=float(row[pi]),
            s_an=float(row[ni]),
        )

    def _draw(self, anchor: int, weights: np.ndarray) -> int:
        """One row position drawn with probability proportional to ``weights``."""
        total = weights.sum()
        if total <= 0:
            raise DegenerateDistributionError(f"anchor {anchor}: the similarity row admits no {self._config.kind} triple")
        return int(self._rng.choice(len(weights), p=weights / total))

    def _sample_random(self, anchor: int, row: np.ndarray) -> tuple[int, int]:
        pi = self._draw(anchor, np.searchsorted(np.sort(row), row))  # values strictly below each one
        return pi, self._draw(anchor, row < row[pi])

    def _sample_extreme(self, anchor: int, row: np.ndarray) -> tuple[int, int]:
        pi = int(np.argmax(row))  # argmax/argmin take the smallest index on ties
        ni = int(np.argmin(row))
        if pi == ni:
            raise DegenerateDistributionError(f"anchor {anchor}: constant similarity row")
        return pi, ni

    def _sample_probability(self, anchor: int, row: np.ndarray) -> tuple[int, int]:
        neg = 1.0 - row
        # a lone candidate with s < 1 leaves no negative once it is the positive
        pi = self._draw(anchor, row if np.count_nonzero(neg) > 1 else row * (neg == 0.0))
        neg[pi] = 0.0
        return pi, self._draw(anchor, neg)

    def _sample_reject(self, anchor: int, row: np.ndarray) -> tuple[int, int]:
        neg = 1.0 - row
        rest = neg.sum() - neg  # B_p: the 1 - s mass of the candidates other than p
        ascending = np.sort(row)
        # A_p: the 1 - s mass of the candidates other than p with s_n <= s_p
        at_most = np.cumsum(1.0 - ascending)[np.searchsorted(ascending, row, side="right") - 1] - neg
        pi = self._draw(anchor, np.divide(row * at_most, rest, out=np.zeros_like(row), where=rest > 0.0))
        neg[row > row[pi]] = 0.0
        neg[pi] = 0.0
        return pi, self._draw(anchor, neg)


# sampler kind -> method drawing (positive, negative) row positions, in --sampler help order
_SAMPLERS = {
    "random": TripleSampler._sample_random,
    "extreme": TripleSampler._sample_extreme,
    "probability": TripleSampler._sample_probability,
    "reject": TripleSampler._sample_reject,
}
SAMPLER_KINDS = tuple(_SAMPLERS)
