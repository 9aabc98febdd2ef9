"""Small helpers shared by the polynomial, kernel, series and bound code.

Series are plain lists indexed by power, length N+1 for truncation order N,
with Fraction or `LambdaPoly` coefficients.  Division requires an invertible
constant term.  Also here: the one Horner evaluator, the compositions of
an integer, in the lexicographic order that fixes LP column order, and the
one grid-then-Brent maximizer behind every sup over lam or t.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np
from scipy.optimize import minimize_scalar


def horner(coeffs, x):
    """Polynomial `coeffs` (lowest power first) at x: exact for a Fraction x,
    else with the coefficients as floats."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + (c if isinstance(x, Fraction) else float(c))
    return acc


def refine_max(f, xs, vals, xatol: float = 1e-10) -> tuple:
    """(max, argmax) of f: the largest of the grid values vals = f(xs), then
    bounded Brent between its two neighbours; the better value wins, with
    the argument where it was reached (Brent's on a tie)."""
    i = int(np.argmax(vals))
    lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    if -res.fun >= vals[i]:
        return -res.fun, float(res.x)
    return vals[i], float(xs[i])


def compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def series_div(num, den, N: int) -> list:
    """Coefficients of num/den up to order N; den[0] must be nonzero."""
    if not den or den[0] == 0:
        raise ZeroDivisionError("division by a series with zero constant term")
    inv0 = Fraction(1) / den[0]
    out = []
    for k in range(N + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j]:
                acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return out


def series_exp_linear(c, N: int) -> list:
    """Coefficients of exp(c*x): c^k / k!."""
    out = [Fraction(1)]
    for k in range(1, N + 1):
        out.append(out[-1] * c / k)
    return out


def factorial_fraction(n: int, *ds: int) -> Fraction:
    """n! divided by the product of the factorials of ds."""
    v = Fraction(factorial(n))
    for d in ds:
        v /= factorial(d)
    return v
