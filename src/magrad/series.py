"""Small helpers shared by the polynomial, kernel, series and bound code.

Series are plain lists indexed by power, length N+1 for truncation order N,
with Fraction or `LambdaPoly` coefficients.  Division requires an invertible
constant term.  Also here: the one Horner evaluator, the one elementwise
libm pow, the one log((1-lam)/lam) (`log_odds`), the compositions of an
integer, in the lexicographic order that fixes LP column order, and the one
grid-then-Brent maximizer behind every sup over lam or t.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

import numpy as np
from scipy.optimize import minimize_scalar


def horner(coeffs, x):
    """Polynomial `coeffs` (lowest power first) at x: exact for a Fraction x,
    else with the coefficients as floats.  A float ndarray x is evaluated
    elementwise, bit for bit as the scalar loop at each element (the same
    IEEE multiply and add in the same order).  A 2-D float `coeffs` stacks
    polynomials one per row, zero-padded at the top, and gives the values
    of each, shape (rows,) + x.shape, from one in-place pass, bit for bit
    `horner(row, x)` at x >= 0 (a padding zero stays +0, as the scalar start
    x * 0 does)."""
    if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2:
        x = np.asarray(x, dtype=float)
        acc = np.zeros(coeffs.shape[:1] + x.shape)
        for c in coeffs.T[::-1].reshape(coeffs.shape[::-1] + (1,) * x.ndim):
            acc *= x
            acc += c
        return acc
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + (c if isinstance(x, Fraction) else float(c))
    return acc


def float_pow(values: np.ndarray, e: float) -> np.ndarray:
    """values**e for a 1-D array with libm pow (`math.pow`), one element at
    a time: numpy's vectorized ** can differ from it in the last bit.  A
    negative value with a non-integer e raises ValueError."""
    return np.fromiter(map(math.pow, values.tolist(), repeat(e)), float, len(values))


def log_odds(lam: Fraction | float) -> tuple:
    """(g, L, sign) with log((1-lam)/lam) = sign*L for an exact or float lam
    in [0, 1], the one log-odds of the package: g = min(lam, 1-lam) rounded
    once, as m/d for lam = n/d and m = min(n, d-n) (exact for a float lam,
    correctly rounded for a Fraction); L = log1p(-g) - log(g) >= 0 ((1-g)/g
    overflows for subnormal g), log(d-m) - log(m) where g rounds to 0, inf
    at the ends; sign = -1 above 1/2.  ValueError outside [0, 1]."""
    g, sign = float(lam), 1
    if not 0.0 < g < 0.5:
        # integer tests, cheaper than a Fraction's; (-1, 1) fails nan and inf
        n, d = lam.as_integer_ratio() if 0.0 <= g <= 1.0 else (-1, 1)
        if not 0 <= n <= d:
            raise ValueError("lam must lie in [0, 1]")
        m = min(n, d - n)
        g, sign = m / d, (1 if m == n else -1)
        if g == 0.0:
            return g, (math.log(d - m) - math.log(m) if m else math.inf), sign
    return g, math.log1p(-g) - math.log(g), sign


def log_rho(lam: Fraction | float) -> float:
    """log rho = log((1-lam)/lam) = sign*L from `log_odds`; +-inf at the ends."""
    _, L, sign = log_odds(lam)
    return sign * L


def refine_max(f, xs, vals, xatol: float = 1e-10) -> tuple:
    """(max, argmax) of f as Python floats: the largest of the grid values
    vals = f(xs), then bounded Brent between its two neighbours; the better
    value wins, with the argument where it was reached (Brent's on a tie).
    An infinite grid maximum is returned at its first grid point unrefined,
    since Brent cannot compare infinite values."""
    i = int(np.argmax(vals))
    if vals[i] == np.inf:
        return float(vals[i]), float(xs[i])
    lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    if -res.fun >= vals[i]:
        return float(-res.fun), float(res.x)
    return float(vals[i]), float(xs[i])


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

