"""Exact rational simplex with dual certificates.

Solves  min c^T x  s.t.  A x = b, x >= 0  entirely over `fractions.Fraction`,
in one phase: the start basis is one unit column per row, which every LP
built here has (its monomial columns).  One pivot rule serves every LP:
Dantzig's entering column and the lexicographic leaving row of Dantzig,
Orden and Wolfe, which cannot cycle, so termination is guaranteed.  The data
stay sparse throughout: A, every tableau row and the reduced-cost row map a
column to its nonzero entries, so a pivot touches only the rows with a
nonzero in the pivot column and, in each, only the pivot row's nonzeros.
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
    pivots: int      # pivots taken from the start basis


def _pivot(rows, r, s):
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


def _optimize(rows, basis, start, n):
    """Pivot loop; returns the number of pivots.

    `rows` holds the m constraint rows, with the right-hand side under key
    n, and then the reduced-cost row, with minus the objective under key n.
    The entering column has the most negative reduced cost, the lowest index
    on ties.  The leaving row minimises (b_i, row i of B^-1) / a_i
    lexicographically over the rows with a_i > 0, where a is the entering
    column and B^-1 is read off the `start` unit columns in row order; each
    later key is computed only for the rows tied on all earlier ones.  The
    rows of B^-1 are independent, so exactly one row survives.  Every row of
    (b, B^-1) stays lexicographically positive, so each pivot strictly
    raises the objective row's (b, B^-1) part lexicographically and no
    basis repeats (Dantzig, Orden and Wolfe, 1955).
    """
    *cons, z = rows
    pivots = 0
    while True:
        _, enter = min(((v, j) for j, v in z.items() if j < n and v < 0),
                       default=(0, -1))
        if enter < 0:
            return pivots
        ties = [i for i, row in enumerate(cons) if row.get(enter, 0) > 0]
        if not ties:
            raise Unbounded("objective unbounded below")
        for col in (n, *start):
            ratio = {i: cons[i].get(col, 0) / cons[i][enter] for i in ties}
            least = min(ratio.values())
            ties = [i for i in ties if ratio[i] == least]
            if len(ties) == 1:
                break
        basis[ties[0]] = enter
        _pivot(rows, ties[0], enter)
        pivots += 1


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
    z = {j: v for j, v in enumerate(zrow) if v}
    basis = list(start)
    pivots = _optimize(rows + [z], basis, start, n)

    x = [Fraction(0)] * n
    for row, bi in zip(rows, basis):
        x[bi] = row.get(n, Fraction(0))
    value = sum((costs[j] * x[j] for j in basis), Fraction(0))
    # a start column u = e_i has reduced cost c_u - y_i; undo the row flips
    y = [costs[u] - z.get(u, 0) for u in start]
    y = [-yi if f else yi for yi, f in zip(y, flipped)]
    return SimplexResult(value=value, x=x, y=y, basis=basis, pivots=pivots)


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
