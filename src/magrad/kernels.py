"""Resolvent estimating kernels as explicit polynomials on [0, 1].

The reduced kernel of degree p-1 is

    Ktilde(t) = sum_{a+b=p-1} (p-1)!/(a! b!) * (1-t)^a * t^b * Theta_ab,

weighting each Theta_ab by the binomial configuration density; the two-sided
kernel on [-1, 1] is lam*Ktilde(t) for t >= 0 and (1-lam)*Ktilde(t+1) for
t < 0, used as a Toeplitz kernel K(t0, tp) = K(tp - t0) on the unit square.
The two branches agree at t = 0 for p-1 >= 1 (both equal
lam*(1-lam)*Theta_{p-1}); the wrapped one-sided kernel, by contrast,
genuinely jumps at 0, which is why t = 0 is assigned to the lam branch and
the quadrature in `specrad` samples cell midpoints only.

Every class expands the Bernstein coefficients C(p-1,a) * Theta_ab into
powers of t through one cached integer table, exactly.  An enclosed kappa
(q = 2) is priced at the top of its enclosure, kappa_hi: each Theta_ab is
nondecreasing in kappa, each C(p-1,a) * Theta_ab is >= 0, and the spectral
radius of a nonnegative kernel grows with the kernel, so the radius errs
only upward.  In the plain (ell^1) case
every Theta_ab is an integer numerator over the one denominator
(p-1)! * d^(p-1) at lam = n/d (`umqnorm.plain_theta_numerators`), so the
table acts on integers and each coefficient costs one Fraction.  The plain
case also has a generating-function oracle: Ktilde_{p-1}(t) is
the x^(p-1) coefficient of Gt(lam*x, (1-lam)*x | t), computed by exact
series division (the shared factor 2*lam-1 of numerator and denominator is
divided out symbolically first, so lam = 1/2 needs no special casing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .series import horner, series_div, series_exp_linear
from .umqnorm import PLAIN, ConvexityClass, plain_theta_numerators, theta_ab


@dataclass(frozen=True, slots=True)
class ReducedKernel:
    """One-variable kernel polynomial on [0, 1] plus its two-sided assembly."""

    coeffs: tuple          # t-polynomial, lowest power first
    lam: Fraction
    p_minus_1: int
    fcoeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the float coefficients every non-Fraction evaluation reads
        object.__setattr__(self, "fcoeffs", tuple(float(c) for c in self.coeffs))

    @property
    def exact(self) -> bool:
        """True when every coefficient is an exact rational."""
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def __call__(self, t):
        return horner(self.coeffs if isinstance(t, Fraction) else self.fcoeffs, t)

    def integral01(self):
        """Integral over [0, 1] (the convolution-type spectral radius)."""
        return sum(c / (i + 1) for i, c in enumerate(self.coeffs))

    def max01(self) -> float:
        """Maximum over [0, 1] via the derivative's real roots."""
        cs = self.fcoeffs
        cand = [0.0, 1.0]
        if len(cs) > 1:
            dp = [i * cs[i] for i in range(1, len(cs))]
            roots = np.roots(list(reversed(dp))) if any(dp) else []
            for r in roots:
                if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0:
                    cand.append(float(r.real))
        return max(horner(cs, t) for t in cand)

    def two_sided(self) -> "TwoSidedKernel":
        return TwoSidedKernel(self)


@dataclass(frozen=True)
class TwoSidedKernel:
    """Toeplitz kernel K(t0, tp) = K(tp - t0) assembled from a reduced kernel.

    Called on one point t in [-1, 1]; `specrad.discretize` samples whole
    Toeplitz vectors from `reduced` directly, bit for bit as these calls.
    """

    reduced: ReducedKernel

    @property
    def lam(self):
        return self.reduced.lam

    def __call__(self, t):
        if t >= 0:          # t = 0 goes to the lam branch by convention
            return self.lam * self.reduced(t)
        return (1 - self.lam) * self.reduced(t + 1)


@lru_cache(maxsize=None)
def _bernstein_to_monomial(k: int) -> tuple:
    """Row m lists the (a, w) with w = C(a,i) * (-1)^i, m = k-a+i, a
    ascending: the t^m coefficient of sum_a B_a (1-t)^a t^(k-a) is
    sum w * B_a over row m, with B_a = C(k,a) * Theta_{a,k-a} the Bernstein
    coefficients."""
    rows = [[] for _ in range(k + 1)]
    for a in range(k + 1):
        for i in range(a + 1):
            rows[k - a + i].append((a, comb(a, i) * (-1) ** i))
    return tuple(map(tuple, rows))


def reduced_kernel(p_minus_1: int, lam, cls: ConvexityClass) -> ReducedKernel:
    """Assemble the reduced kernel from the universal-norm Theta_ab values.

    Exact rational coefficients for every class, an enclosed kappa priced
    at kappa_hi alone.  The degree caps are those of the Theta sources:
    DEFAULT_MAX_DEGREE for plain, EXHAUSTIVE_CAP through the LP.
    """
    if p_minus_1 < 0:
        raise ValueError("p-1 must be >= 0")
    lamf = Fraction(lam)
    if p_minus_1 == 0:
        return ReducedKernel(coeffs=(Fraction(1),), lam=lamf, p_minus_1=0)
    if cls.is_plain:
        thetas, den = plain_theta_numerators(p_minus_1, lamf)
    else:
        top = replace(cls, kappa_lo=cls.kappa_hi)
        thetas = [theta_ab(a, p_minus_1 - a, lamf, top).value
                  for a in range(p_minus_1 + 1)]
        den = 1
    bern = [theta * comb(p_minus_1, a) for a, theta in enumerate(thetas)]
    coeffs = tuple(Fraction(sum(w * bern[a] for a, w in row), den)
                   for row in _bernstein_to_monomial(p_minus_1))
    return ReducedKernel(coeffs=coeffs, lam=lamf, p_minus_1=p_minus_1)


# ---------------------------------------------------------------------------
# plain-case generating functions


def _denominator_series(lam: Fraction, N: int) -> list:
    """(lam*exp((1-lam)x) - (1-lam)*exp(lam*x)) / ((2*lam-1)*x), exactly.

    Every coefficient of the bracket is divisible by 2*lam-1 via the
    geometric-sum identity, so the quotient below is polynomial in lam and
    evaluates cleanly at lam = 1/2.
    """
    out = [Fraction(1)]
    mu = lam * (1 - lam)
    for k in range(1, N + 1):
        s = sum(((1 - lam) ** i) * (lam ** (k - 2 - i)) for i in range(k - 1))
        out.append(-mu * s / factorial(k))
    return out


def g_tilde_series(lam, t, N: int) -> list:
    """Plain reduced-kernel values Ktilde_{p-1}(t) for p-1 = 0..N.

    Entry p-1 is the x^(p-1) coefficient of
    (u - v)/(u e^v - v e^u) * e^(t*u + (1-t)*v) at u = lam*x, v = (1-lam)*x.
    """
    if N > 30:
        raise ValueError("series order capped at 30")
    lam, t = Fraction(lam), Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    num = series_exp_linear(t * lam + (1 - t) * (1 - lam), N)
    den = _denominator_series(lam, N)
    return series_div(num, den, N)


def plain_reduced_kernel(p_minus_1: int, lam) -> ReducedKernel:
    """Exact plain-case reduced kernel (ell^1 Theta_ab route)."""
    return reduced_kernel(p_minus_1, lam, PLAIN)


# ---------------------------------------------------------------------------
# the degree-4 correction polynomial


def b_correction(lam, t):
    """Piecewise-cubic correction B(lam, t) on [-1, 1].

    The degree-4 kernel of the cross-cost model satisfies
    K4_cls(t) = K4_plain(t) - (1 - kappa) * B(lam, t) exactly on each side.
    Vanishes identically at lam in {0, 1} and is continuous in lam.
    """
    if not -1 <= t <= 1:
        raise ValueError("t must lie in [-1, 1]")
    m = min(lam, 1 - lam)
    # Fraction(1, 3) when lam and t are exact, else the float 1/3; a final
    # division by 3 would round the float values differently
    third = (0 * lam + 0 * t + 1) / 3
    if t >= 0:
        poly = (1 - lam - 3 * t ** 2 + 2 * t ** 3
                + 6 * lam * t ** 2 - 4 * lam * t ** 3)
        return third * lam ** 2 * (1 - lam) * m * poly
    poly = (lam + 3 * t ** 2 + 2 * t ** 3
            - 6 * lam * t ** 2 - 4 * lam * t ** 3)
    return third * lam * (1 - lam) ** 2 * m * poly


def kernel_csv_rows(k: ReducedKernel, samples: int = 101):
    """(t, Ktilde(t)) sample table for export, t evenly spaced on [0, 1]."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    ts = np.arange(samples) / (samples - 1)
    return list(zip(ts.tolist(), k(ts).tolist()))
