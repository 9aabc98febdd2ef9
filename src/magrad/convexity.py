"""Randomized finite-dimensional checks of the operator convexity inequalities.

Every comparison is one-sided sound: the left side is a sampled lower bound
(|M v|_p for random unit vectors v) and the right side a certified upper
bound (operator p-norms replaced by max of the 1-norm and inf-norm, valid by
interpolation).  A reported violation would falsify the implementation, not
the inequality.

Trials use a counter-based generator keyed by (seed, trial index), so runs
are deterministic per seed regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LpSpace:
    """Finite sequence space: dimension n with the p-norm, 1 < p < inf."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if not 1.0 < self.p < np.inf:
            raise ValueError("exponent must lie in (1, inf)")

    @property
    def q(self) -> float:
        """max(p, p/(p-1)), the convexity exponent."""
        return max(self.p, self.p / (self.p - 1.0))

    @property
    def q_prime(self) -> float:
        return min(self.p, self.p / (self.p - 1.0))


def _opnorm_upper(A: np.ndarray) -> float:
    """max column-sum / row-sum bound, valid for every p-operator norm."""
    return max(np.abs(A).sum(axis=0).max(), np.abs(A).sum(axis=1).max())


def _pnorm(v: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 20) + trial))


@dataclass
class SampleReport:
    space: LpSpace
    trials: int
    seed: int
    max_ratio: float
    violations: list = field(default_factory=list)
    worst_trial: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> dict:
        return {"n": self.space.n, "p": self.space.p, "trials": self.trials,
                "seed": self.seed, "max_ratio": self.max_ratio,
                "violations": self.violations, "passed": self.passed}


def _mean_power(a: float, b: float, r: float) -> float:
    return ((a ** r + b ** r) / 2.0) ** (1.0 / r)


def _sample(space: LpSpace, trials: int, seed: int, draw) -> SampleReport:
    """Ratio |M v|_p / rhs over the trials, with (M, rhs) = draw(rng, n, scale)
    from the trial's generator and v a random unit vector drawn after them."""
    if trials < 1:
        raise ValueError("need at least one trial")
    n, p = space.n, space.p
    scale = 2.0 ** (-1.0 / space.q)
    max_ratio, worst = 0.0, None
    violations = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        M, rhs = draw(rng, n, scale)
        v = rng.standard_normal(n)
        v = v / _pnorm(v, p)
        ratio = _pnorm(M @ v, p) / rhs
        if ratio > max_ratio:
            max_ratio, worst = ratio, t
        if ratio > 1.0:
            violations.append(t)
    return SampleReport(space=space, trials=trials, seed=seed,
                        max_ratio=max_ratio, violations=violations,
                        worst_trial=worst)


def check_umd_sampled(space: LpSpace, trials: int, seed: int = 0) -> SampleReport:
    """Sample the four-operator mean-convexity inequality on random matrices.

    Tests |((XZ + YZ + XW - YW)/4) v|_p against
    2^(-1/q) * mean_q'(|X|,|Y|) * mean_q'(|Z|,|W|) with certified upper
    bounds on the operator norms.
    """
    def draw(rng, n, scale):
        X, Y, Z, W = (rng.standard_normal((n, n)) for _ in range(4))
        M = (X @ Z + Y @ Z + X @ W - Y @ W) / 4.0
        r = space.q_prime
        return M, scale * _mean_power(_opnorm_upper(X), _opnorm_upper(Y), r) \
            * _mean_power(_opnorm_upper(Z), _opnorm_upper(W), r)
    return _sample(space, trials, seed, draw)


def check_umq_sampled(space: LpSpace, trials: int, seed: int = 0) -> SampleReport:
    """Sample the Kleinian four-factor pattern on random matrices.

    Tests |((S1S2S3S4 + S2S1S3S4 + S1S2S4S3 - S2S1S4S3)/4) v|_p against
    2^(-1/q) * |S1| |S2| |S3| |S4| with certified norm upper bounds.
    """
    def draw(rng, n, scale):
        S1, S2, S3, S4 = (rng.standard_normal((n, n)) for _ in range(4))
        M = (S1 @ S2 @ S3 @ S4 + S2 @ S1 @ S3 @ S4
             + S1 @ S2 @ S4 @ S3 - S2 @ S1 @ S4 @ S3) / 4.0
        for S in (S1, S2, S3, S4):
            scale *= _opnorm_upper(S)
        return M, scale
    return _sample(space, trials, seed, draw)
