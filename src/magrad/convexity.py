"""Randomized finite-dimensional checks of the operator convexity inequalities.

Every comparison is one-sided sound: the left side is a sampled lower bound
(|M v|_p for random unit vectors v) and the right side a certified upper
bound (operator p-norms replaced by max of the 1-norm and inf-norm, valid by
interpolation).  A reported violation would falsify the implementation, not
the inequality.

Trial t of seed s draws its four matrices and its vector, in that order,
from the counter-based stream of Philox(key=(s << 20) + t), so runs are
deterministic per seed regardless of execution order.  A check takes
0 <= s < 2**108 and at most 2**20 trials, which keeps keys distinct across
seeds and below Philox's 2**128.  Trials run in blocks of _BLOCK = 256:
each block's draws fill one row per trial of a buffer, and the products,
norms and ratios are stacked numpy passes over the block, one norm-bound
pass for all four matrices of every trial.  Every scalar pow of
the one-trial-at-a-time arithmetic goes through libm (`series.float_pow`),
so each trial's ratio is bit for bit the one a per-trial loop gives.

The sums and maxima over a matrix's n-long rows and columns are slice
passes across the whole stack, one numpy call per term instead of one
short reduction per row: numpy's per-row loops cost more than their adds
at n <= 8.  They keep numpy's summation order, so the bits are those of
sum(axis=...): a column sum adds the rows in order, as sum(axis=-2) does;
a row sum (`_row_sums`) follows the pairwise order of sum(axis=-1), in
order below 8 terms and else through eight accumulators; a maximum is an
elementwise np.maximum, which is exact in any order.

Round-off.  A violation is a ratio above 1 + eps(n), eps(n) = (16n + 4096)u
with u = 2**-53, not above 1: X = I, Y = 0, Z = W = I is an equality case of
UMD, and its computed ratio can be 1 + 2u.  To first order in u, with no
overflow or underflow and every pow within one ulp, the computed ratio
exceeds the exact |M v|_p / rhs of the drawn matrices and of the stored v
by a relative at most
  (6n + 5)u from M v: at most four chained n-term products and three adds
    err by gamma_(4n+3) times a nonnegative matrix whose norm bound is at
    most 2^(1/q) rhs <= sqrt(2) rhs (power means dominate the arithmetic
    mean, and the bound is sub-additive and sub-multiplicative);
  (2n + 1497)u from the p-norms of M v and of the draw behind v, and the
    division that normalizes v: each norm's pows, n-term sum and root,
    and fl(1/p), which is off by u/p and so moves x^(1/p) by
    |ln x| u/p < 745u;
  (2n + 1509)u for UMD, (4n + 5)u for UMQ, from the right side: the
    n-term sums of the norm bounds, the scale 2^(-1/q), UMD's two power
    means with the same 745u from their rounded exponent 1/r, the
    products, and the final quotient.
That is at most (10n + 3011)u for UMD and (12n + 1507)u for UMQ, and
eps(n) leaves room for the second-order terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Optional

import numpy as np

from .series import float_pow

#: trials per stacked numpy pass; a block's draws of n = 8 take ~540 KB
_BLOCK = 256
#: trial keys are (seed << 20) + t, so more trials would reach seed + 1's
_MAX_TRIALS = 1 << 20
_U64 = (1 << 64) - 1


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


def _row_sums(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=-1) bit for bit when no entry is -0.0 (numpy starts from
    +0.0), from slice passes: numpy sums the last axis pairwise, in order
    below 8 terms, else into eight accumulators r_j += a[j + 8i], combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the n % 8 tail terms in
    order.  Past numpy's 128-term block it splits in halves, and the
    numpy sum is returned."""
    n = A.shape[-1]
    if n > 128:
        return A.sum(axis=-1)
    if n < 8:
        return sum((A[..., i] for i in range(1, n)), A[..., 0])
    m = n - n % 8
    r = sum((A[..., i:i + 8] for i in range(8, m, 8)), A[..., :8])
    r = r[..., 0::2] + r[..., 1::2]
    r = r[..., 0::2] + r[..., 1::2]
    return sum((A[..., i] for i in range(m, n)), r[..., 0] + r[..., 1])


def _opnorm_upper(A: np.ndarray):
    """max column-sum / row-sum bound, valid for every p-operator norm; a
    stack of matrices gives one bound per matrix.  Column sums add the rows
    in order, as sum(axis=-2) does, and the maxima are exact."""
    A = np.abs(A)
    n = A.shape[-1]
    cols = sum((A[..., i, :] for i in range(1, n)), A[..., 0, :])
    both = np.maximum(cols, _row_sums(A))
    return reduce(np.maximum, (both[..., i] for i in range(1, n)), both[..., 0])


def _pnorm(V: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the rows of V."""
    return float_pow(_row_sums(np.abs(V) ** p), 1.0 / p)


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


def _mean_power(a: np.ndarray, b: np.ndarray, r: float) -> np.ndarray:
    return float_pow((float_pow(a, r) + float_pow(b, r)) / 2.0, 1.0 / r)


def _trial_draws(seed: int):
    """fill(rows, start) writes into row i the standard normals of trial
    start + i: the stream of a fresh Generator(Philox(key=(seed << 20) + t)),
    from one Philox re-keyed per trial, without a fresh one's entropy read."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    key = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": key, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def fill(rows: np.ndarray, start: int) -> None:
        for t, row in enumerate(rows, start=(seed << 20) + start):
            key["key"] = (t & _U64, t >> 64)
            bitgen.state = state
            gen.standard_normal(out=row)
    return fill


def _round_off(n: int) -> float:
    """eps(n) = (16n + 4096) u, u = 2**-53: a computed ratio above 1 + eps
    is a violation (module docstring, "Round-off")."""
    return (16 * n + 4096) * 2.0 ** -53


def _sample(space: LpSpace, trials: int, seed: int, draw) -> SampleReport:
    """Ratio |M v|_p / rhs over the trials, with (M, rhs) = draw(mats, scale)
    from a stack of trials' four n x n matrices and v a random unit vector
    drawn after them; a ratio above 1 + _round_off(n) is a violation."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most 2**20, got {trials}")
    if not 0 <= seed < 1 << 108:
        raise ValueError(f"seed must lie in [0, 2**108), got {seed}")
    n, p = space.n, space.p
    m = 4 * n * n
    scale = 2.0 ** (-1.0 / space.q)
    eps = _round_off(n)
    fill = _trial_draws(seed)
    buf = np.empty((_BLOCK, m + n))
    max_ratio, worst = 0.0, None
    violations = []
    for start in range(0, trials, _BLOCK):
        rows = buf[:min(_BLOCK, trials - start)]
        fill(rows, start)
        M, rhs = draw(rows[:, :m].reshape(-1, 4, n, n), scale)
        v = rows[:, m:] / _pnorm(rows[:, m:], p)[:, None]
        ratio = _pnorm((M @ v[..., None])[..., 0], p) / rhs
        above = np.flatnonzero(ratio > max_ratio)
        if above.size:
            i = above[np.argmax(ratio[above])]
            max_ratio, worst = float(ratio[i]), start + int(i)
        violations += (start + np.flatnonzero(ratio > 1.0 + eps)).tolist()
    return SampleReport(space=space, trials=trials, seed=seed,
                        max_ratio=max_ratio, violations=violations,
                        worst_trial=worst)


def _umd(mats: np.ndarray, scale: float, r: float) -> tuple:
    X, Y, Z, W = mats.transpose(1, 0, 2, 3)
    M = (X @ Z + Y @ Z + X @ W - Y @ W) / 4.0
    nx, ny, nz, nw = _opnorm_upper(mats).T
    return M, scale * _mean_power(nx, ny, r) * _mean_power(nz, nw, r)


def _umq(mats: np.ndarray, scale: float) -> tuple:
    S1, S2, S3, S4 = mats.transpose(1, 0, 2, 3)
    P, Q = S1 @ S2, S2 @ S1
    M = (P @ S3 @ S4 + Q @ S3 @ S4 + P @ S4 @ S3 - Q @ S4 @ S3) / 4.0
    for norm in _opnorm_upper(mats).T:
        scale *= norm
    return M, scale


def check_umd_sampled(space: LpSpace, trials: int, seed: int = 0) -> SampleReport:
    """Sample the four-operator mean-convexity inequality on random matrices.

    Tests |((XZ + YZ + XW - YW)/4) v|_p against
    2^(-1/q) * mean_q'(|X|,|Y|) * mean_q'(|Z|,|W|) with certified upper
    bounds on the operator norms.
    """
    return _sample(space, trials, seed, partial(_umd, r=space.q_prime))


def check_umq_sampled(space: LpSpace, trials: int, seed: int = 0) -> SampleReport:
    """Sample the Kleinian four-factor pattern on random matrices.

    Tests |((S1S2S3S4 + S2S1S3S4 + S1S2S4S3 - S2S1S4S3)/4) v|_p against
    2^(-1/q) * |S1| |S2| |S3| |S4| with certified norm upper bounds.
    """
    return _sample(space, trials, seed, _umq)
