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
from typing import Optional

import numpy as np

from .freealg import LambdaPoly, NCPoly
from .series import compositions, refine_max, series_div
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


#: series truncation order of every ell^1 evaluation
_N = 24
#: orders spanned by the empirical tail-rate window
_TAIL_WINDOW = 8
#: the lam grid of both sups (the norm is symmetric under lam <-> 1-lam)
_LAM_GRID = np.linspace(0.0, 0.5, 1001)


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


@dataclass(frozen=True)
class _LamTable:
    """Per-lam columns: |c_n(lam)| for n <= _N, c2^2, c3, lam(1-lam), its cube."""

    abs_c: np.ndarray     # shape (_N + 1, number of lams)
    c2sq: np.ndarray
    c3: np.ndarray
    pref: np.ndarray
    pref3: np.ndarray


def _pow(values: np.ndarray, e: float) -> np.ndarray:
    """values**e with Python's float pow, one element at a time: numpy's
    vectorized ** can differ from libm pow in the last bit."""
    return np.array([v ** e for v in values.tolist()])


def _lam_table(lams) -> _LamTable:
    """Columns evaluated at mu = min(lam, 1-lam).

    |c_n|, c2^2, c3 and lam(1-lam) are invariant under lam <-> 1-lam, and
    1-lam is exact in floats for lam >= 1/2.  Float Horner of the c_n loses
    every digit near lam = 1 (coefficients up to ~1e3, c_24(1) = 1/24!),
    but not near 0; on [0, 1/2] mu = lam.
    """
    lams = [float(l) for l in lams]
    if not all(0.0 <= l <= 1.0 for l in lams):
        raise ValueError("lam must lie in [0, 1]")
    mus = [min(l, 1.0 - l) for l in lams]
    c = resolvent_series(_N)
    c2sq_p, c3_p = _component_factors(False)
    pref = np.array([l * (1.0 - l) for l in lams])
    return _LamTable(abs_c=np.array([[abs(cn(m)) for m in mus] for cn in c]),
                     c2sq=np.array([c2sq_p(m) for m in mus]),
                     c3=np.array([c3_p(m) for m in mus]),
                     pref=pref, pref3=_pow(pref, 3))


@lru_cache(maxsize=None)
def _grid_table() -> _LamTable:
    return _lam_table(_LAM_GRID)


def _abs_series_sums(t: _LamTable, x: float) -> tuple:
    """(head, tail, conclusive) of sum_n |c_n(lam)| x^n for every column.

    The tail rate comes from an envelope over a window of orders: robust
    against isolated coefficient zeros (even orders vanish at lam = 1/2,
    and individual c_n(lam) have accidental roots).  Rows add in order, as
    Python's sum over one point does; numpy's pairwise sum moves last bits.
    """
    if not 0.0 <= x < math.pi:
        raise ValueError("x1, x2 must lie in [0, pi)")
    T = t.abs_c * np.array([x ** n for n in range(_N + 1)])[:, None]
    head = sum(T[2:], T[1])
    t_hi = np.maximum(T[_N - 1], T[_N])
    t_lo = np.maximum(T[_N - 1 - _TAIL_WINDOW], T[_N - _TAIL_WINDOW])
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _pow(t_hi / t_lo, 1.0 / _TAIL_WINDOW)
        ok = (t_hi == 0.0) | ((t_lo > 0.0) & (rho < 1.0))
        tail = np.where(ok, (T[_N - 1] + T[_N]) * rho / (1.0 - rho), np.inf)
    return head, np.where(t_hi == 0.0, 0.0, tail), ok


def _upsilon(t: _LamTable, x1: float, x2: float) -> tuple:
    """(value, head, tail1, tail2, conclusive) of the ell^1 norm of Ups."""
    h1, t1, ok1 = _abs_series_sums(t, x1)
    h2, t2, ok2 = (h1, t1, ok1) if x2 == x1 else _abs_series_sums(t, x2)
    if x1 == 0.0 or x2 == 0.0:
        zero = np.zeros_like(t.pref)
        return zero, zero, zero, zero, np.ones(zero.shape, dtype=bool)
    ok = ok1 & ok2
    with np.errstate(invalid="ignore"):
        value = np.where(ok, t.pref * (h1 + t1) * (h2 + t2), np.inf)
    return value, t.pref * h1 * h2, t1, t2, ok


def upsilon_l1(lam: float, x1: float, x2: float) -> UpsilonL1:
    """lam*(1-lam) * (sum |c_n| x1^n) * (sum |c_n| x2^n) with tail majorants."""
    *sums, ok = (v[0] for v in _upsilon(_lam_table([lam]), x1, x2))
    return UpsilonL1(*map(float, sums), conclusive=bool(ok), lam=lam, x=(x1, x2))


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


def _cube_bound(t: _LamTable, cls: ConvexityClass, x1: float,
                x2: float) -> tuple:
    """(l1, l1^3, gain, conclusive, aligned) in every column of the table.

    ell^1 of Ups^3 factorizes as l1^3; when the (3,5) signs align
    (c3 < 0 < c2^2) the cross-term peels off 4*min(c2^2, |c3|)*(1-kappa)
    times lam^3 (1-lam)^3 x1^3 x2^5, and the mirrored (5,3) component
    contributes the same with x-powers swapped.  The gain uses the upper
    kappa endpoint, so the bound l1^3 - gain stays valid for enclosed kappa.
    """
    value, _, _, _, ok = _upsilon(t, x1, x2)
    one_minus_kappa = 1.0 - float(cls.kappa_hi)
    aligned = (t.c3 < 0.0) & (0.0 < t.c2sq)
    unit = 4.0 * np.minimum(t.c2sq, -t.c3) * one_minus_kappa * t.pref3
    gain = np.where(aligned & (one_minus_kappa > 0.0),
                    unit * (x1 ** 3 * x2 ** 5 + x1 ** 5 * x2 ** 3), 0.0)
    return value, _pow(value, 3), gain, ok, aligned


def bch_gain_upper(lam: float, cls: ConvexityClass, x1: float,
                   x2: float) -> GainReport:
    """Upper bound on the universal norm of Ups^3 at one (lam, x1, x2)."""
    t = _lam_table([lam])
    value, l1c, gain, ok, aligned = (v[0] for v in _cube_bound(t, cls, x1, x2))
    diagnostic = None
    if not aligned:
        diagnostic = ("cross-term sign alignment fails: c2^2 = 0"
                      if t.c2sq[0] == 0.0 else
                      f"cross-term sign alignment fails: c3 = {t.c3[0]:g} >= 0")
    return GainReport(lam=lam, x=(x1, x2), l1=float(value),
                      l1_cubed=float(l1c), gain=float(gain),
                      bound=float(l1c - gain), aligned=bool(aligned),
                      conclusive=bool(ok), diagnostic=diagnostic)


def max_upsilon_l1(x1: float, x2: float) -> tuple:
    """(max over lam of upsilon_l1, argmax lam), grid plus bounded refinement."""
    vals = _upsilon(_grid_table(), x1, x2)[0]
    return refine_max(lambda l: upsilon_l1(float(l), x1, x2).value,
                      _LAM_GRID, vals)


#: the scanned s range and step of the C2 threshold scan
_S_LO, _S_HI, _S_STEP = 2.885, 2.925, 2.5e-4


@dataclass
class C2ScanResult:
    value: float          # largest scanned s with sup < 1
    margin: float         # value - C2_REFERENCE
    s_step: float
    lam_grid: int
    sup_at_value: float


def c2_improved(cls: ConvexityClass) -> C2ScanResult:
    """Largest scanned s with sup over lam of the Ups^3 bound below 1, at
    x1 = x2 = s/2 and in cube-root form.

    With the plain class the gain vanishes and this reproduces the C2
    threshold to grid resolution; with a genuine cross cost the threshold
    moves strictly past C2.
    """
    best = best_sup = None
    s = _S_LO
    while s <= _S_HI + 1e-12:
        x = s / 2.0
        _, l1c, gain, _, _ = _cube_bound(_grid_table(), cls, x, x)
        vals = l1c - gain
        sup = vals.max()
        # refine only near the threshold, where the decision is sensitive
        if abs(sup ** (1.0 / 3.0) - 1.0) < 1e-4:
            sup, _ = refine_max(lambda l: bch_gain_upper(float(l), cls, x, x).bound,
                                _LAM_GRID, vals)
        root = sup ** (1.0 / 3.0) if sup >= 0 else 0.0
        if root < 1.0:
            best, best_sup = s, root
        s += _S_STEP
    if best is None:
        raise RuntimeError("no scanned s had sup below 1")
    return C2ScanResult(value=best, margin=best - C2_REFERENCE, s_step=_S_STEP,
                        lam_grid=_LAM_GRID.size, sup_at_value=best_sup)
