"""Exact rational simplex with dual certificates.

Solves  min c^T x  s.t.  A x = b, x >= 0  entirely over `fractions.Fraction`,
in one phase: the start basis is one unit column per row, which every LP
built here has (its monomial columns).  Pivots follow Dantzig's rule,
switching to Bland's rule after a run of degenerate pivots, so termination
is guaranteed.  The data stay sparse throughout: A and every tableau row map
a column to its nonzero entries, so a pivot touches only the rows with a
nonzero in the pivot column and, in each, only the pivot row's nonzeros.
Only the reduced-cost row is dense.
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
    prow = rows[r]
    inv = 1 / prow[s]
    for j in prow:
        prow[j] *= inv
    for i, row in enumerate(rows):
        if i != r and (f := row.get(s)):
            for j, p in prow.items():
                v = row.get(j, 0) - f * p
                if v:
                    row[j] = v
                else:
                    del row[j]
    f = zrow[s]
    if f:
        for j, p in prow.items():
            zrow[j] -= f * p


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
            a = row.get(enter, 0)
            if a > 0:
                ratio = row.get(ncols, 0) / a
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

    A is a list of m sparse rows, each a dict mapping a column index in
    range(n) to its nonzero entry; b has length m, c length n.  Once the rows
    with b_i < 0 are negated, every row i must have a column equal to the
    unit vector e_i; the lowest such column starts in the basis, so the start
    is feasible and no phase 1 is needed.  Returns optimal value, a primal
    solution, and dual values that certify optimality.
    """
    n = len(c)
    flipped = [bi < 0 for bi in b]
    rows = []
    for ai, bi, f in zip(A, b, flipped):
        sign = -1 if f else 1
        row = {j: sign * Fraction(v) for j, v in ai.items() if v}
        if bi:
            row[n] = sign * Fraction(bi)   # right-hand side under key n
        rows.append(row)
    nnz = [0] * (n + 1)
    for row in rows:
        for j in row:
            nnz[j] += 1
    start = [min((j for j, v in row.items() if j < n and v == 1 and nnz[j] == 1),
                 default=None) for row in rows]
    if None in start:
        raise SimplexError(f"row {start.index(None)} has no unit column to start from")

    costs = [Fraction(v) for v in c]
    zrow = costs + [Fraction(0)]
    for row, u in zip(rows, start):
        if costs[u]:
            for j, v in row.items():
                zrow[j] -= costs[u] * v
    basis = list(start)
    _optimize(rows, zrow, basis)

    x = [Fraction(0)] * n
    for row, bi in zip(rows, basis):
        x[bi] = row.get(n, Fraction(0))
    value = sum((costs[j] * x[j] for j in basis), Fraction(0))
    # a start column u = e_i has reduced cost c_u - y_i; undo the row flips
    y = [costs[u] - zrow[u] for u in start]
    y = [-yi if f else yi for yi, f in zip(y, flipped)]
    return SimplexResult(value=value, x=x, y=y, basis=basis)


def verify_certificate(A, b, c, res: SimplexResult) -> bool:
    """Exact primal/dual optimality check, independent of the solve path.

    One pass over each sparse row of A accumulates both A x and the reduced
    costs c - A^T y.
    """
    x, y = res.x, res.y
    if len(x) != len(c) or len(y) != len(A) or any(xj < 0 for xj in x):
        return False
    red = list(c)
    for row, bi, yi in zip(A, b, y):
        lhs = 0
        for j, a in row.items():
            if x[j]:
                lhs += a * x[j]
            if yi:
                red[j] -= yi * a
        if lhs != bi:
            return False
    if any(r < 0 for r in red):
        return False
    primal = sum(cj * xj for cj, xj in zip(c, x) if xj)
    dual = sum(yi * bi for yi, bi in zip(y, b))
    return primal == dual == res.value
