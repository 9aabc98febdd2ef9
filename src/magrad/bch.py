"""Two-variable resolvent-product series and the improved BCH radius scan.

The building block is Ups(x1*Y1, x2*Y2) = lam*(1-lam)*R(exp x1*Y1)*R(exp x2*Y2)
with R(A) = (A-1)/(lam+(1-lam)*A).  Since exp(x*Y) is a power series in the
single element x*Y, R(exp x*Y) = sum_n c_n(lam) x^n Y^n with exact polynomial
coefficients c_n, and powers of Ups expand into alternating-block words

    Y1^{i_1} Y2^{j_1} ... Y1^{i_n} Y2^{j_n},   i_k, j_k >= 1,

each with coefficient prod c_{i_k}(lam) c_{j_k}(lam) times the common factor
lam^n (1-lam)^n x1^{sum i} x2^{sum j}.  The ell^1 norm of Ups therefore
factorizes, and the known cumulative radius C2 = 2.89847930... is the largest
s with sup over lam of the norm at x1 = x2 = s/2 at most 1.

The degree-(3,5) component of Ups^3 contains four words hit by a single
cross-operation quasi-monomial; where their signs align with it (the factor
c3 = lam^2-lam+1/6 negative, c2^2 = (lam-1/2)^2 positive) the universal norm
drops below ell^1 by 4*min(c2^2, |c3|)*(1-kappa) times the common factor,
and the threshold scan pushes past C2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .freealg import LambdaPoly, NCPoly
from .series import compositions, series_div
from .umqnorm import ConvexityClass, QuasiMonomial, leaf, prod, xi

#: cumulative BCH radius in the plain case (8 verified digits)
C2_REFERENCE = 2.89847930

_MAX_ORDER = 40


@lru_cache(maxsize=None)
def resolvent_series(N: int) -> tuple:
    """Coefficients c_0..c_N of R(exp x) as polynomials in lam.

    c_0 = 0, c_1 = 1, c_2 = lam - 1/2, c_3 = lam^2 - lam + 1/6.
    """
    if N > _MAX_ORDER:
        raise ValueError(f"series order capped at {_MAX_ORDER}")
    # R(exp x) = u / (1 + (1-lam)*u) with u = exp(x) - 1
    u = [LambdaPoly()] + [LambdaPoly.const(Fraction(1, math.factorial(k)))
                          for k in range(1, N + 1)]
    one_minus = LambdaPoly((1, -1))
    den = [Fraction(1)] + [one_minus * u[k] for k in range(1, N + 1)]
    return tuple(series_div(u, den, N))


@dataclass
class UpsilonL1:
    """ell^1 norm of Ups at a point, with an empirical geometric tail."""

    value: float          # truncated sum plus tail majorant
    head: float           # truncated sum alone
    tail1: float
    tail2: float
    conclusive: bool      # False when the observed tail ratio reached 1
    lam: float
    x: tuple


_TAIL_WINDOW = 8


def _abs_series_sum(coeffs: Sequence[LambdaPoly], lam: float, x: float):
    terms = [abs(c(lam)) * x ** n for n, c in enumerate(coeffs)]
    head = sum(terms[1:])
    # per-step rate from an envelope over a window: robust against isolated
    # coefficient zeros (even orders vanish at lam = 1/2, and individual
    # c_n(lam) have accidental roots)
    N = len(terms) - 1
    w = min(_TAIL_WINDOW, N - 2)
    t_hi = max(terms[N - 1], terms[N])
    t_lo = max(terms[N - 1 - w], terms[N - w])
    if t_hi == 0.0:
        return head, 0.0, True
    if t_lo <= 0.0:
        return head, math.inf, False
    rho = (t_hi / t_lo) ** (1.0 / w)
    if rho >= 1.0:
        return head, math.inf, False
    tail = (terms[N - 1] + terms[N]) * rho / (1.0 - rho)
    return head, tail, True


def upsilon_l1(lam: float, x1: float, x2: float, N: int = 24) -> UpsilonL1:
    """lam*(1-lam) * (sum |c_n| x1^n) * (sum |c_n| x2^n) with tail majorants."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if not (0.0 <= x1 < math.pi and 0.0 <= x2 < math.pi):
        raise ValueError("x1, x2 must lie in [0, pi)")
    c = resolvent_series(N)
    h1, t1, ok1 = _abs_series_sum(c, lam, x1)
    h2, t2, ok2 = _abs_series_sum(c, lam, x2)
    pref = lam * (1.0 - lam)
    if x1 == 0.0 or x2 == 0.0:
        return UpsilonL1(0.0, 0.0, 0.0, 0.0, True, lam, (x1, x2))
    ok = ok1 and ok2
    val = pref * (h1 + t1) * (h2 + t2) if ok else math.inf
    return UpsilonL1(value=val, head=pref * h1 * h2, tail1=t1, tail2=t2,
                     conclusive=ok, lam=lam, x=(x1, x2))


@dataclass
class PowerComponent:
    """Fixed-bidegree slice of Ups^n, common prefactor carried symbolically.

    `poly` maps alternating words over letters {1, 2} to products of the
    resolvent coefficients; the omitted common factor is
    lam^n (1-lam)^n x1^d1 x2^d2.
    """

    n: int
    degrees: tuple
    poly: NCPoly

    def l1_at(self, lam: float) -> float:
        return sum(abs(c(lam)) for c in self.poly.terms.values())


def upsilon_power_component(n: int, degrees: tuple, N: int = 16) -> PowerComponent:
    """Expand the (d1, d2) block-word component of Ups^n.

    Each factor of Ups contributes one Y1-block and one Y2-block of length
    >= 1, so patterns exist only when d1, d2 >= n; otherwise the component
    is the empty polynomial.
    """
    d1, d2 = degrees
    c = resolvent_series(max(N, d1, d2))
    terms = {}
    if d1 >= n and d2 >= n:
        for comp1 in compositions(d1, n):
            for comp2 in compositions(d2, n):
                word = []
                coeff = LambdaPoly.const(1)
                for i_k, j_k in zip(comp1, comp2):
                    word.extend([1] * i_k)
                    word.extend([2] * j_k)
                    coeff = coeff * c[i_k] * c[j_k]
                terms[tuple(word)] = coeff
    return PowerComponent(n=n, degrees=(d1, d2), poly=NCPoly(terms))


# the four degree-(3,5) words reachable by one cross operation, and its mirror
def cross_term_35() -> QuasiMonomial:
    """Y1 Y2 * Xi(Y2, Y1, Y2*Y1, Y2) * Y2."""
    y1, y2 = leaf(1), leaf(2)
    return prod([y1, y2, xi(y2, y1, prod([y2, y1]), y2), y2])


def cross_term_53() -> QuasiMonomial:
    """Y1 * Xi(Y1, Y2*Y1, Y2, Y1) * Y1 Y2 (the transposed, relabeled mirror)."""
    y1, y2 = leaf(1), leaf(2)
    return prod([y1, xi(y1, prod([y2, y1]), y2, y1), y1, y2])


@lru_cache(maxsize=None)
def _aligned_words(mirror: bool) -> tuple:
    """((w_plus1, w_plus2, w_plus3), w_minus) from the cross-term support."""
    ct = (cross_term_53() if mirror else cross_term_35()).evaluate()
    plus = tuple(sorted(w for w, cv in ct.terms.items() if cv > 0))
    minus = [w for w, cv in ct.terms.items() if cv < 0]
    if len(plus) != 3 or len(minus) != 1:
        raise AssertionError("cross term must hit three aligned words and one opposed")
    return plus, minus[0]


@lru_cache(maxsize=None)
def _component_factors(mirror: bool) -> tuple:
    """(c2^2, c3) verified against the expanded component's coefficients."""
    d = (5, 3) if mirror else (3, 5)
    comp = upsilon_power_component(3, d)
    plus, minus = _aligned_words(mirror)
    c = resolvent_series(5)
    c2sq, c3 = c[2] * c[2], c[3]
    if any(comp.poly.coeff(w) != c2sq for w in plus) or comp.poly.coeff(minus) != c3:
        raise AssertionError("cross-word coefficients differ from c2^2 and c3")
    return c2sq, c3


@dataclass
class GainReport:
    lam: float
    x: tuple
    l1: float             # |Ups| ell^1 with tail majorant
    l1_cubed: float
    gain: float           # total norm gain subtracted (both mirrors)
    bound: float          # upper bound on |Ups^3| in the universal norm
    aligned: bool
    conclusive: bool
    diagnostic: Optional[str] = None

    def to_jsonable(self) -> dict:
        return {"lam": self.lam, "x1": self.x[0], "x2": self.x[1],
                "l1": self.l1, "gain": self.gain, "bound": self.bound,
                "aligned": self.aligned, "conclusive": self.conclusive,
                **({"diagnostic": self.diagnostic} if self.diagnostic else {})}


def bch_gain_upper(lam: float, cls: ConvexityClass, x1: float, x2: float,
                   N: int = 24) -> GainReport:
    """Upper bound on the universal norm of Ups^3 at one (lam, x1, x2).

    ell^1 of Ups^3 factorizes as upsilon_l1(...)^3; when the (3,5) signs
    align (c3 < 0 < c2^2) the cross-term peels off
    4*min(c2^2, |c3|)*(1-kappa) times lam^3 (1-lam)^3 x1^3 x2^5, and the
    mirrored (5,3) component contributes the same with x-powers swapped.
    The gain uses the upper kappa endpoint, so the bound stays valid for
    enclosed kappa.
    """
    ups = upsilon_l1(lam, x1, x2, N=N)
    l1c = ups.value ** 3
    c2sq_p, c3_p = _component_factors(False)
    c2sq = c2sq_p(lam)
    c3 = c3_p(lam)
    one_minus_kappa = 1.0 - float(cls.kappa_hi)
    gain = 0.0
    aligned = c3 < 0.0 < c2sq
    diagnostic = None
    if aligned and one_minus_kappa > 0.0:
        unit = 4.0 * min(c2sq, -c3) * one_minus_kappa * (lam * (1.0 - lam)) ** 3
        gain = unit * (x1 ** 3 * x2 ** 5 + x1 ** 5 * x2 ** 3)
    elif not aligned:
        diagnostic = ("cross-term sign alignment fails: c2^2 = 0" if c2sq == 0.0
                      else f"cross-term sign alignment fails: c3 = {c3:g} >= 0")
    return GainReport(lam=lam, x=(x1, x2), l1=ups.value, l1_cubed=l1c,
                      gain=gain, bound=l1c - gain, aligned=aligned,
                      conclusive=ups.conclusive, diagnostic=diagnostic)


def max_upsilon_l1(x1: float, x2: float, N: int = 24,
                   grid: int = 1001) -> tuple:
    """(max over lam of upsilon_l1, argmax lam), grid plus bounded refinement."""
    lams = np.linspace(0.0, 0.5, grid)
    vals = [upsilon_l1(l, x1, x2, N=N).value for l in lams]
    i = int(np.argmax(vals))
    lo, hi = lams[max(i - 1, 0)], lams[min(i + 1, grid - 1)]
    res = minimize_scalar(lambda l: -upsilon_l1(float(l), x1, x2, N=N).value,
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    if -res.fun >= vals[i]:
        return -res.fun, float(res.x)
    return vals[i], float(lams[i])


@lru_cache(maxsize=8)
def _grid_data(N: int, lam_grid: int) -> tuple:
    """Vectorized lam-grid tables for the threshold scan."""
    lams = np.linspace(0.0, 0.5, lam_grid)
    c = resolvent_series(N)
    A = np.array([[abs(cn(float(l))) for l in lams] for cn in c])
    c2sq_p, c3_p = _component_factors(False)
    c2v = np.array([c2sq_p(float(l)) for l in lams])
    c3v = np.array([c3_p(float(l)) for l in lams])
    pref = lams * (1.0 - lams)
    return lams, A, c2v, c3v, pref


def _bounds_on_grid(s: float, cls: ConvexityClass, N: int,
                    lam_grid: int) -> tuple:
    """(lams, |Ups^3| upper bounds over the grid) at x1 = x2 = s/2."""
    lams, A, c2v, c3v, pref = _grid_data(N, lam_grid)
    x = s / 2.0
    T = A * (x ** np.arange(A.shape[0]))[:, None]
    head = T[1:].sum(axis=0)
    w = min(_TAIL_WINDOW, A.shape[0] - 3)
    Nn = A.shape[0] - 1
    t_hi = np.maximum(T[Nn - 1], T[Nn])
    t_lo = np.maximum(T[Nn - 1 - w], T[Nn - w])
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = (t_hi / t_lo) ** (1.0 / w)
    tail = np.where((t_lo > 0) & (rho < 1.0),
                    (T[Nn - 1] + T[Nn]) * rho / (1.0 - rho), np.inf)
    tail = np.where(t_hi == 0.0, 0.0, tail)
    u = head + tail
    l1c = (pref * u * u) ** 3
    one_minus_kappa = 1.0 - float(cls.kappa_hi)
    unit = 4.0 * np.minimum(c2v, -c3v) * one_minus_kappa * pref ** 3
    gain = np.where((c3v < 0.0) & (c2v > 0.0), unit * 2.0 * x ** 8, 0.0)
    return lams, l1c - gain


def _sup_bound_cubed_root(s: float, cls: ConvexityClass, N: int,
                          lam_grid: int) -> float:
    """sup over lam of bch_gain_upper(...)^(1/3) at x1 = x2 = s/2."""
    x = s / 2.0
    lams, vals = _bounds_on_grid(s, cls, N, lam_grid)
    i = int(np.argmax(vals))
    sup = vals[i]
    # refine only near the threshold, where the decision is sensitive
    if abs(sup ** (1.0 / 3.0) - 1.0) < 1e-4:
        lo = lams[max(i - 1, 0)]
        hi = lams[min(i + 1, len(lams) - 1)]
        res = minimize_scalar(
            lambda l: -bch_gain_upper(float(l), cls, x, x, N=N).bound,
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
        sup = max(sup, -res.fun)
    return sup ** (1.0 / 3.0) if sup >= 0 else 0.0


@dataclass
class C2ScanResult:
    value: float          # largest scanned s with sup < 1
    margin: float         # value - C2_REFERENCE
    s_step: float
    lam_grid: int
    sup_at_value: float


def c2_improved(cls: ConvexityClass, s_lo: float = 2.885, s_hi: float = 2.925,
                s_step: float = 2.5e-4, lam_grid: int = 1001,
                N: int = 24) -> C2ScanResult:
    """Largest scanned s with sup over lam of the Ups^3 bound below 1.

    With the plain class the gain vanishes and this reproduces the C2
    threshold to grid resolution; with a genuine cross cost the threshold
    moves strictly past C2.
    """
    best = None
    best_sup = None
    s = s_lo
    while s <= s_hi + 1e-12:
        sup = _sup_bound_cubed_root(s, cls, N, lam_grid)
        if sup < 1.0 and (best is None or s > best):
            best, best_sup = s, sup
        s += s_step
    if best is None:
        raise RuntimeError("no scanned s had sup below 1; widen the range")
    return C2ScanResult(value=best, margin=best - C2_REFERENCE, s_step=s_step,
                        lam_grid=lam_grid, sup_at_value=best_sup)
