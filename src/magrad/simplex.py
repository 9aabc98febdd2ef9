"""Exact rational simplex with dual certificates.

Solves  min c^T x  s.t.  A x = b, x >= 0  entirely over `fractions.Fraction`,
in one phase: the start basis is one unit column per row, which every LP
built here has (its monomial columns).  Pivots follow Dantzig's rule,
switching to Bland's rule after a run of degenerate pivots, so termination
is guaranteed.  Instances are small (at most 120 rows and 840 columns, at
degree 5), so a dense tableau is fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class SimplexError(RuntimeError):
    pass


class Unbounded(SimplexError):
    pass


@dataclass
class SimplexResult:
    value: Fraction
    x: list          # primal solution, length n
    y: list          # dual values, one per constraint row
    basis: list      # final basic column indices (original numbering)


def _pivot(rows, zrow, r, s):
    piv = rows[r][s]
    inv = 1 / piv
    rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i != r and rows[i][s]:
            f = rows[i][s]
            rows[i] = [a - f * p for a, p in zip(rows[i], prow)]
    if zrow[s]:
        f = zrow[s]
        zrow[:] = [a - f * p for a, p in zip(zrow, prow)]


def _reduced_costs(rows, basis, costs, ncols):
    z = list(costs[:ncols]) + [Fraction(0)]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb:
            z = [a - cb * v for a, v in zip(z, rows[i])]
    return z


_BLAND_AFTER = 40  # degenerate pivots tolerated before switching to Bland's rule


def _optimize(rows, zrow, basis):
    """Pivot loop: Dantzig rule, falling back to Bland's rule on stalls.

    Dantzig's most-negative-coefficient rule keeps iteration counts low;
    after a run of degenerate pivots we switch to Bland's rule, which cannot
    cycle, so termination is guaranteed either way.
    """
    ncols = len(zrow) - 1
    stalled = 0
    while True:
        enter = -1
        if stalled < _BLAND_AFTER:
            best_z = 0
            for j in range(ncols):
                if zrow[j] < best_z:
                    best_z = zrow[j]
                    enter = j
        else:
            for j in range(ncols):
                if zrow[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return
        leave, best = -1, None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    leave, best = i, ratio
        if leave < 0:
            raise Unbounded("objective unbounded below")
        stalled = stalled + 1 if best == 0 else 0
        basis[leave] = enter
        _pivot(rows, zrow, leave, enter)


def simplex_min(A, b, c) -> SimplexResult:
    """Solve min c.x s.t. A x = b, x >= 0 exactly.

    A is a list of m rows (each a sequence of n Fractions); b has length m,
    c length n.  Once the rows with b_i < 0 are negated, every row i must
    have a column equal to the unit vector e_i; the first such column starts
    in the basis, so the start is feasible and no phase 1 is needed.
    Returns optimal value, a primal solution, and dual values that certify
    optimality.
    """
    m, n = len(A), len(c)
    flipped = [Fraction(bi) < 0 for bi in b]
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        rows.append([-v for v in row] if flipped[i] else row)
    start = [next((j for j in range(n) if rows[i][j] == 1
                   and sum(1 for r in rows if r[j]) == 1), None) for i in range(m)]
    if None in start:
        raise SimplexError(f"row {start.index(None)} has no unit column to start from")

    costs = [Fraction(v) for v in c]
    basis = list(start)
    zrow = _reduced_costs(rows, basis, costs, n)
    _optimize(rows, zrow, basis)

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    value = sum((costs[j] * x[j] for j in range(n)), Fraction(0))
    # a start column u = e_i has reduced cost c_u - y_i; undo the row flips
    y = [costs[u] - zrow[u] for u in start]
    y = [-yi if f else yi for yi, f in zip(y, flipped)]
    return SimplexResult(value=value, x=x, y=y, basis=list(basis))


def verify_certificate(A, b, c, res: SimplexResult) -> bool:
    """Exact primal/dual optimality check, independent of the solve path."""
    m, n = len(A), len(c)
    for j in range(n):
        if res.x[j] < 0:
            return False
    for i in range(m):
        lhs = sum((Fraction(A[i][j]) * res.x[j] for j in range(n)), Fraction(0))
        if lhs != Fraction(b[i]):
            return False
    for j in range(n):
        red = Fraction(c[j]) - sum(
            (res.y[i] * Fraction(A[i][j]) for i in range(m)), Fraction(0)
        )
        if red < 0:
            return False
    primal = sum((Fraction(c[j]) * res.x[j] for j in range(n)), Fraction(0))
    dual = sum((res.y[i] * Fraction(b[i]) for i in range(m)), Fraction(0))
    return primal == dual == res.value
