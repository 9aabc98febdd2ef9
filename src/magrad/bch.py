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

The scan walks s down from the top of its range to the first s whose sup
over the lam grid of ell^1^3 - gain has a cube root below 1.  Above the
threshold a row needs no maximum: one column whose value is >= 1 (the
argmax of the last row computed in full) already shows the root is >= 1,
since a faithful pow cannot round the cube root of a value >= 1 below 1.0.
So each class computes about two of the grid's rows in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .freealg import LambdaPoly, NCPoly
from .series import compositions, float_pow, horner, log_odds, refine_max, series_div
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


@lru_cache(maxsize=None)
def _coeff_rows() -> np.ndarray:
    """c_0..c_N and the (3,5) cross-term word coefficients c2^2 and c3 as
    float rows, lowest power first; zeros pad the shorter ones at the top."""
    c = resolvent_series(_N)
    polys = (*c, c[2] * c[2], c[3])
    width = max(len(p.coeffs) for p in polys)
    return np.array([[float(c) for c in p.coeffs] + [0.0] * (width - len(p.coeffs))
                     for p in polys])


def _lam_table(lams) -> _LamTable:
    """Columns evaluated at mu = min(lam, 1-lam), one per lam of a 1-D
    sequence, or a single column for one float lam.

    |c_n|, c2^2, c3 and lam(1-lam) are invariant under lam <-> 1-lam, and
    1-lam is exact in floats for lam >= 1/2.  Float Horner of the c_n loses
    every digit near lam = 1 (coefficients up to ~1e3, c_24(1) = 1/24!),
    but not near 0; on [0, 1/2] mu = lam.  All rows go through one stacked
    `horner`, bit for bit as per polynomial; a point query's `log_odds` mu
    stays 0-d there, which spares each Horner step a broadcast.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.all((0.0 <= lams) & (lams <= 1.0)):
        raise ValueError("lam must lie in [0, 1]")
    mus = np.minimum(lams, 1.0 - lams)
    rows = horner(_coeff_rows(), mus).reshape(-1, lams.size)
    lams = lams.reshape(-1)
    pref = lams * (1.0 - lams)
    return _LamTable(abs_c=np.abs(rows[:_N + 1]), c2sq=rows[_N + 1],
                     c3=rows[_N + 2], pref=pref, pref3=float_pow(pref, 3))


@lru_cache(maxsize=None)
def _grid_table() -> _LamTable:
    return _lam_table(_LAM_GRID)


def _abs_series_sums(t: _LamTable, x: float) -> tuple:
    """(head, tail, conclusive) of sum_n |c_n(lam)| x^n for every column.

    The tail rate comes from an envelope over a window of orders: robust
    against isolated coefficient zeros (even orders vanish at lam = 1/2,
    and individual c_n(lam) have accidental roots).  Rows add in order, as
    Python's sum over one point does: `np.add.accumulate` along the rows
    is that order, where numpy's `sum` may reduce pairwise and move last
    bits.
    """
    if not 0.0 <= x < math.pi:
        raise ValueError("x1, x2 must lie in [0, pi)")
    T = t.abs_c * np.array([x ** n for n in range(_N + 1)])[:, None]
    head = np.add.accumulate(T[1:], axis=0)[-1]
    t_hi = np.maximum(T[_N - 1], T[_N])
    t_lo = np.maximum(T[_N - 1 - _TAIL_WINDOW], T[_N - _TAIL_WINDOW])
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = float_pow(t_hi / t_lo, 1.0 / _TAIL_WINDOW)
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


def upsilon_l1(lam, x1: float, x2: float) -> UpsilonL1:
    """lam*(1-lam) * (sum |c_n| x1^n) * (sum |c_n| x2^n) with tail majorants."""
    *sums, ok = (v[0] for v in _upsilon(_lam_table(log_odds(lam)[0]), x1, x2))
    return UpsilonL1(*map(float, sums), conclusive=bool(ok), lam=lam, x=(x1, x2))


def upsilon_power_component(n: int, degrees: tuple) -> NCPoly:
    """Expand the (d1, d2) block-word component of Ups^n.

    The result maps alternating words over letters {1, 2} to products of
    the resolvent coefficients; the omitted common factor is
    lam^n (1-lam)^n x1^d1 x2^d2.  Each factor of Ups contributes one
    Y1-block and one Y2-block of length >= 1, so patterns exist only when
    d1, d2 >= n; otherwise the component is the empty polynomial.  Blocks
    are at most max(d1, d2) long, and c_k does not depend on the truncation
    order once that is at least k.
    """
    d1, d2 = degrees
    c = resolvent_series(max(d1, d2))
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
    return NCPoly(terms)


# the four degree-(3,5) words reachable by one cross operation
def cross_term_35() -> QuasiMonomial:
    """Y1 Y2 * Xi(Y2, Y1, Y2*Y1, Y2) * Y2."""
    y1, y2 = leaf(1), leaf(2)
    return prod([y1, y2, xi(y2, y1, prod([y2, y1]), y2), y2])


def _aligned_words() -> tuple:
    """((w_plus1, w_plus2, w_plus3), w_minus) from the (3,5) cross-term
    support."""
    ct = cross_term_35().evaluate()
    plus = tuple(sorted(w for w, cv in ct.terms.items() if cv > 0))
    minus = [w for w, cv in ct.terms.items() if cv < 0]
    if len(plus) != 3 or len(minus) != 1:
        raise AssertionError("cross term must hit three aligned words and one opposed")
    return plus, minus[0]


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


def _gain(t: _LamTable, cls: ConvexityClass) -> tuple:
    """(unit, aligned) in every column of the table; the gain at (x1, x2)
    is unit * `_cross_powers(x1, x2)`.

    When the (3,5) signs align (c3 < 0 < c2^2) the cross-term peels off
    4*min(c2^2, |c3|)*(1-kappa) times lam^3 (1-lam)^3 x1^3 x2^5, and the
    mirrored (5,3) component contributes the same with x-powers swapped.
    The gain uses the upper kappa endpoint, so the bound l1^3 - gain stays
    valid for enclosed kappa.  Where it does not apply, unit is +0, and so
    is its product with the finite, nonnegative cross powers.
    """
    one_minus_kappa = 1.0 - float(cls.kappa_hi)
    aligned = (t.c3 < 0.0) & (0.0 < t.c2sq)
    unit = 4.0 * np.minimum(t.c2sq, -t.c3) * one_minus_kappa * t.pref3
    return np.where(aligned & (one_minus_kappa > 0.0), unit, 0.0), aligned


def _cross_powers(x1: float, x2: float) -> float:
    """x1^3 x2^5 + x1^5 x2^3, the x-dependence of both mirrors' gains."""
    return x1 ** 3 * x2 ** 5 + x1 ** 5 * x2 ** 3


def _cube_bound(t: _LamTable, cls: ConvexityClass, x1: float,
                x2: float) -> tuple:
    """(l1, l1^3, gain, conclusive, aligned) in every column of the table;
    ell^1 of Ups^3 factorizes as l1^3."""
    value, _, _, _, ok = _upsilon(t, x1, x2)
    unit, aligned = _gain(t, cls)
    return value, float_pow(value, 3), unit * _cross_powers(x1, x2), ok, aligned


def bch_gain_upper(lam, cls: ConvexityClass, x1: float,
                   x2: float) -> GainReport:
    """Upper bound on the universal norm of Ups^3 at one (lam, x1, x2)."""
    t = _lam_table(log_odds(lam)[0])
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


@lru_cache(maxsize=None)
def _scan_points() -> tuple:
    """The scanned s, accumulated by s += _S_STEP from _S_LO: the pinned
    thresholds carry this accumulation's rounding, not _S_LO + i*_S_STEP's."""
    points, s = [], _S_LO
    while s <= _S_HI + 1e-12:
        points.append(s)
        s += _S_STEP
    return tuple(points)


@lru_cache(maxsize=None)
def _scan_cube(i: int) -> np.ndarray:
    """ell^1(Ups)^3 on the lam grid at x1 = x2 = s_i/2: the same for every
    class, so one column per scan index serves all of them."""
    x = _scan_points()[i] / 2.0
    return float_pow(_upsilon(_grid_table(), x, x)[0], 3)


def _cube_root(sup: float) -> float:
    """sup**(1/3), with 0 for a negative or NaN sup."""
    return sup ** (1.0 / 3.0) if sup >= 0 else 0.0


@dataclass
class C2ScanResult:
    value: float          # largest scanned s with sup < 1
    margin: float         # value - C2_REFERENCE
    sup_at_value: float


def c2_improved(cls: ConvexityClass) -> C2ScanResult:
    """Largest scanned s with sup over lam of the Ups^3 bound below 1, at
    x1 = x2 = s/2 and in cube-root form.

    The walk starts at the top of the scan and stops at the first s whose
    root is below 1, the answer of a full upward scan.  At each s the cached
    class-free column l1^3 (`_scan_cube`) less this class's gain row, hoisted
    out of the walk as unit * `_cross_powers(x, x)`, gives the grid values.
    Bounded refinement never returns less than the grid maximum, so it runs
    only where it can decide: a grid root in (1 - 1e-4, 1).  With the plain
    class the gain vanishes and this reproduces the C2 threshold to grid
    resolution; with a genuine cross cost the threshold moves strictly
    past C2.

    A row is decided by one witness column, the argmax j of the last row
    computed in full: if its value is >= 1, so is the row's maximum (the
    values are finite or +inf, never NaN), and a faithful libm pow cannot
    round the cube root of a value >= 1 below the float 1.0; such a row
    neither stops nor refines the walk, and its other columns are skipped.
    A witness below 1 or NaN sends the row through the full pass, whose
    argmax becomes the next witness.  The argmax stays near the peak lam
    ~0.3587, so each class computes about two rows in full.
    """
    points = _scan_points()
    unit = _gain(_grid_table(), cls)[0]
    j = None
    for i in reversed(range(len(points))):
        x = points[i] / 2.0
        cube, cross = _scan_cube(i), _cross_powers(x, x)
        if j is not None and cube[j] - unit[j] * cross >= 1.0:
            continue
        vals = cube - unit * cross
        j = int(np.argmax(vals))
        root = _cube_root(float(vals[j]))
        if root < 1.0 and 1.0 - root < 1e-4:
            sup, _ = refine_max(lambda l: bch_gain_upper(float(l), cls, x, x).bound,
                                _LAM_GRID, vals)
            root = _cube_root(sup)
        if root < 1.0:
            return C2ScanResult(value=points[i], margin=points[i] - C2_REFERENCE,
                                sup_at_value=root)
    raise RuntimeError("no scanned s had sup below 1")
