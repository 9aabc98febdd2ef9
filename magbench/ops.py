"""Operation executors and their correctness oracles.

`prepare` builds a plan entry's inputs (outside the timed window) and returns
the call, through magrad's public API as the matching CLI subcommand makes
it; `check` judges the returned value after the timed window and returns
None for a certified value, otherwise a one-line reason.

The oracles are independent of the route that produced the value: plain
kernels and plain Theta against the generating-function series, LP
certificates against a fresh enumeration of quasi-monomials, p-1 = 0 radii
against the closed form, other radii against a dense-matrix estimate of our
own, and the paper's golden constants.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from magrad import bch, convexity, kernels, magnus, specrad, umqnorm
from magrad.freealg import NCPoly, eval_lambda, l1_norm, mu_ab
from magrad.umqnorm import PLAIN, ConvexityClass, enumerate_quasimonomials

#: the paper's root order for every kernel bound
P = 5

#: golden constants (the paper's headline numbers) and their tolerances
LOG_BOUND_GOLDEN = {"plain": (2.0, 1e-6), "1": (2.071801, 1e-4),
                    "2": (2.040800, 1e-4)}
C2_GOLDEN = {"1": 2.904000, "2": 2.901750}
C2_PLAIN_REFERENCE = 2.89847930

#: slack for float comparisons that hold exactly in real arithmetic
FLOAT_SLACK = 1e-9


def cls_of(q: str) -> ConvexityClass:
    return PLAIN if q == "plain" else ConvexityClass.from_q(Fraction(q))


def merged_target(a: int, lam: Fraction, merge: list) -> NCPoly:
    """mu_ab(a, 5-a) at lam with letter i renamed to merge[i-1]."""
    poly = eval_lambda(mu_ab(a, P - a), lam)
    terms: dict = {}
    for word, c in poly.terms.items():
        w = tuple(merge[i - 1] for i in word)
        terms[w] = terms.get(w, 0) + c
    return NCPoly(terms)


def prepare(op: dict):
    """Build the inputs of one operation; returns a zero-argument callable."""
    kind = op["kind"]
    lam = Fraction(op["lam"]) if "lam" in op else None
    if kind == "log_bound":
        return lambda: magnus.c_log_bound(P, cls_of(op["q"]), grid=op["grid"])
    if kind == "scan":
        return lambda: _scan(cls_of(op["q"]), op["grid"])
    if kind == "radius":
        return lambda: _radius(op["p_minus_1"], lam)
    if kind == "kernel":
        return lambda: kernels.plain_reduced_kernel(op["p_minus_1"], lam)
    if kind == "theta":
        return lambda: umqnorm.theta_ab(op["a"], op["b"], lam, PLAIN)
    if kind == "c2":
        return lambda: bch.c2_improved(cls_of(op["q"]))
    if kind == "critical":
        x = bch.C2_REFERENCE / 2.0
        return lambda: bch.max_upsilon_l1(x, x)
    if kind == "gain":
        return lambda: _gain(float(lam), cls_of(op["q"]), op["x1"], op["x2"])
    if kind == "ode":
        return lambda: magnus.ode_blowup(float(lam))
    if kind == "crude_ratio":
        return lambda: magnus.crude_ratio_bound(lam, P, PLAIN)
    if kind == "convexity":
        space = convexity.LpSpace(n=op["n"], p=float(Fraction(op["p"])))
        fn = (convexity.check_umd_sampled if op["check"] == "umd"
              else convexity.check_umq_sampled)
        return lambda: fn(space, op["trials"], seed=op["sample_seed"])
    if kind == "norm":
        target = merged_target(op["a"], lam, op["merge"])
        op["_target"] = target
        return lambda: umqnorm.fa_norm_exact(target, cls_of(op["q"]))
    if kind == "pth_root":
        return lambda: magnus.c_bound_pth_root(lam, P, cls_of(op["q"]))
    raise ValueError(f"unknown operation kind {kind!r}")


# the calls behind `magrad scan`, `magrad radius`-style refinement and
# `magrad bch --l1 --gain`


def _scan(cls, grid):
    rows = magnus.scan_rows(P, cls, grid=grid, radius_tol=1e-7)
    ok = magnus.lipschitz_logodds_check([(l, c) for l, _, c in rows])
    return rows, ok


def _radius(p_minus_1, lam):
    rk = kernels.plain_reduced_kernel(p_minus_1, lam)
    return rk, specrad.radius_refined(rk.two_sided(), tol=1e-8)


def _gain(lam, cls, x1, x2):
    return bch.upsilon_l1(lam, x1, x2), bch.bch_gain_upper(lam, cls, x1, x2)


# ---------------------------------------------------------------------------
# oracles


def c_plain(lam: float) -> float:
    """Plain closed-form radius log((1-lam)/lam)/(1-2*lam), from the paper."""
    return 2.0 if lam == 0.5 else math.log((1.0 - lam) / lam) / (1.0 - 2.0 * lam)


def dense_radius(rk, lam: float) -> float:
    """Spectral radius of the two-sided kernel by a route of our own.

    Dense midpoint matrices at n = 128 and 256 (no FFT), power iteration to
    a Collatz-Wielandt bracket of width ~1e-13, and one Richardson step for
    the O(1/n^2) quadrature error of a continuous kernel (p-1 >= 1).
    """
    poly = np.polynomial.polynomial.polyval
    coeffs = [float(c) for c in rk.coeffs]
    est = []
    for n in (128, 256):
        t = (np.arange(n) + 0.5) / n
        d = t[None, :] - t[:, None]
        K = np.where(d >= 0, lam * poly(d, coeffs), (1 - lam) * poly(d + 1, coeffs)) / n
        v = np.ones(n)
        for _ in range(500):
            w = K @ v
            ratio = w / v
            hi = ratio.max()
            v = w / w.max()
            if hi - ratio.min() <= 1e-13 * hi:
                break
        est.append(hi)
    return (4 * est[1] - est[0]) / 3


def _solve_exact(M: list, rhs: list) -> list:
    """Gauss-Jordan elimination over Fractions for a nonsingular square system."""
    n = len(M)
    A = [list(row) + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if A[i][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for i in range(n):
            if i != col and A[i][col]:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[col])]
    return [A[i][n] for i in range(n)]


def plain_thetas(p_minus_1: int, lam: Fraction) -> list:
    """Plain Theta_{a, p-1-a}, a = 0..p-1, from the generating-function series.

    The plain reduced kernel is sum_a C(n,a) (1-t)^a t^(n-a) Theta_{a,n-a}
    (n = p-1): its Bernstein coefficients are the Theta values, recovered
    exactly from n+1 samples of the series.
    """
    n = p_minus_1
    ts = [Fraction(i, max(n, 1)) for i in range(n + 1)]
    vals = [kernels.g_tilde_series(lam, t, n)[n] for t in ts]
    M = [[math.comb(n, a) * (1 - t) ** a * t ** (n - a) for a in range(n + 1)]
         for t in ts]
    return _solve_exact(M, vals)


def _check_plain_kernel(rk, p_minus_1: int, lam: Fraction):
    if not rk.exact or len(rk.coeffs) > p_minus_1 + 1:
        return "kernel is not an exact polynomial of degree p-1"
    # p-1+1 samples pin a degree p-1 polynomial down exactly
    for i in range(p_minus_1 + 1):
        t = Fraction(i, max(p_minus_1, 1))
        want = kernels.g_tilde_series(lam, t, p_minus_1)[p_minus_1]
        if rk(t) != want:
            return f"Ktilde({t}) = {rk(t)} != series value {want}"
    return None


def _check_norm(op: dict, val) -> str | None:
    """Re-derive the LP certificate from a fresh quasi-monomial enumeration."""
    target, cls = op["_target"], cls_of(op["q"])
    if not (val.lo <= val.hi <= l1_norm(target)):
        return "norm enclosure not ordered below the ell1 norm"
    kappas = [cls.kappa_lo] + ([] if cls.exact else [cls.kappa_hi])
    if len(val.certificates) != len(kappas):
        return "missing certificate"
    if cls.q is not None and cls.q == 2 and not (
            cls.kappa_lo ** 2 <= Fraction(1, 2) <= cls.kappa_hi ** 2):
        return "kappa enclosure does not contain 2**(-1/2)"
    gens = target.generator_multiset()
    qms = enumerate_quasimonomials(len(gens), gens)
    evals = [qm.evaluate() for qm in qms]
    for cert, kappa, bound in zip(val.certificates, kappas, (val.lo, val.hi)):
        if cert.kappa != kappa or cert.value != bound:
            return "certificate kappa/value disagree with the enclosure"
        y = cert.duals
        dual_obj = sum((y.get(w, 0) * c for w, c in target.terms.items()),
                       Fraction(0))
        if dual_obj != cert.value:
            return f"dual objective {dual_obj} != value {cert.value}"
        for qm, p in zip(qms, evals):
            lhs = abs(sum((y.get(w, 0) * c for w, c in p.terms.items()),
                          Fraction(0)))
            if lhs > kappa ** qm.xi_count:
                return f"dual infeasible on {qm.tree}"
        # primal: coefficients act on directions normalized to lead coefficient 1
        acc: dict = {}
        cost = Fraction(0)
        for j, v in cert.coefficients.items():
            p = evals[int(j)]
            lead = p.terms[p.support[0]]
            for w, c in p.terms.items():
                acc[w] = acc.get(w, 0) + v * c / lead
            cost += abs(v) * kappa ** qms[int(j)].xi_count / abs(lead)
        if NCPoly(acc) != target or cost != cert.value:
            return "primal decomposition does not reproduce the target at the value"
    return None


def check(op: dict, res, ctx: dict) -> str | None:
    """None if `res` is certified correct for `op`, else the reason."""
    kind = op["kind"]
    lam = Fraction(op["lam"]) if "lam" in op else None
    if kind == "log_bound":
        want, tol = LOG_BOUND_GOLDEN[op["q"]]
        ctx[("log_bound", op["q"])] = res.lower
        if abs(res.lower - want) > tol:
            return f"lam-minimized bound {res.lower!r} != {want} +- {tol}"
        return None
    if kind == "scan":
        rows, ok = res
        if not ok or len(rows) != op["grid"]:
            return "scan rows fail the log-odds Lipschitz check"
        for lam_f, _, c in rows:
            if c < 2.0 - 1e-6 or (lam_f == 0.5 and abs(c - 2.0) > 1e-6):
                return f"plain scan bound {c!r} at lam={lam_f} below the radius 2"
        return None
    if kind == "radius":
        rk, rr = res
        bad = _check_plain_kernel(rk, op["p_minus_1"], lam)
        if bad:
            return bad
        lf = float(lam)
        if op["p_minus_1"] == 0:
            if abs(rr.radius - 1.0 / c_plain(lf)) > 1e-6:
                return f"radius {rr.radius!r} != w_plain {1.0 / c_plain(lf)!r}"
            return None
        want = dense_radius(rk, lf)
        if abs(rr.radius - want) > max(1e-6 * want, 1e-8):
            return f"radius {rr.radius!r} != dense-grid estimate {want!r}"
        return None
    if kind == "kernel":
        return _check_plain_kernel(res, op["p_minus_1"], lam)
    if kind == "theta":
        want = plain_thetas(op["a"] + op["b"], lam)[op["a"]]
        if not res.exact or res.value != want:
            return f"plain Theta {res} != series value {want}"
        return None
    if kind == "c2":
        if op["q"] == "plain":
            if abs(res.value - C2_PLAIN_REFERENCE) > 1e-3:
                return f"plain C2 {res.value!r} not within 1e-3 of {C2_PLAIN_REFERENCE}"
        elif abs(res.value - C2_GOLDEN[op["q"]]) > 1e-6:
            return f"improved C2 {res.value!r} != {C2_GOLDEN[op['q']]}"
        return None
    if kind == "critical":
        mx, arg = res
        if abs(mx - 1.0) > 1e-6 or not 0.0 < arg < 1.0:
            return f"sup of |Ups| at the plain threshold is {mx!r}, not 1"
        return None
    if kind == "gain":
        ups, g = res
        if not (ups.conclusive and g.gain >= 0.0
                and abs(g.bound - (ups.value ** 3 - g.gain)) <= FLOAT_SLACK
                and (op["q"] != "plain" or g.gain == 0.0)):
            return "gain report inconsistent with the ell1 series"
        return None
    if kind == "ode":
        want = c_plain(float(lam))
        if abs(res - want) > 1e-6 * want:
            return f"uncorrected ODE blow-up {res!r} != plain radius {want!r}"
        return None
    if kind == "crude_ratio":
        want = c_plain(float(lam))
        if abs(res.lower - want) > FLOAT_SLACK * want:
            return f"plain crude-ratio bound {res.lower!r} != plain radius {want!r}"
        return None
    if kind == "convexity":
        if res.trials != op["trials"] or res.violations or not 0 < res.max_ratio <= 1:
            return f"sampled inequality violated: {len(res.violations)} trials"
        return None
    if kind == "norm":
        bad = _check_norm(op, res)
        if bad:
            return bad
        pair = ctx.setdefault(("pair", op["pair"]), {})
        pair[op["q"]] = res
        if len(pair) == 2 and not pair["1"].hi <= pair["2"].lo:
            return "q=1 norm exceeds the q=2 lower end"
        return None
    if kind == "pth_root":
        ref = ctx.get(("log_bound", op["q"]))
        if ref is None:
            return "no lam-minimized bound of the same q to compare with"
        if not res.lower >= ref - FLOAT_SLACK:
            return f"pointwise bound {res.lower!r} below the minimized bound {ref!r}"
        return None
    raise ValueError(f"unknown operation kind {kind!r}")
