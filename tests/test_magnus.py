"""Closed forms, the coefficient recursion and corrected ODE, and the bounds."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import magrad
from magrad import bch, magnus, series, specrad
from magrad.cli import main
from magrad.kernels import plain_reduced_kernel, reduced_kernel
from magrad.magnus import (
    BoundReport,
    blowup_bracket,
    c_bound_pth_root,
    c_eps,
    c_log_bound,
    c_plain,
    crude_ratio_bound,
    euler_coeffs,
    kernel_ratio_sup,
    linear_taylor,
    lipschitz_logodds_check,
    maglower_floor,
    ode_blowup,
    ricompar_bound,
    scan_rows,
    sicompar_bound,
    upper_trivial,
    w_plain,
)
from magrad.series import (bounded_brent, horner, log_odds, log_rho, refine_max,
                           series_div)
from magrad.umqnorm import PLAIN, ConvexityClass, theta_ab

Q1 = ConvexityClass.from_q(1)
Q2 = ConvexityClass.from_q(2)
#: (lam, p) where the plain p-th-root bound exceeds c_plain(lam): the
#: Romberg radius stops on an absolute tol, which bounds nothing when the
#: radius is far below it (ROADMAP item 13)
OVERSTATED = {("1e-100", p) for p in (2, 4, 5, 7)} | {("1-1e-12", p) for p in (2, 4)}


def trunc3(x):
    return math.floor(x * 1000) / 1000


class TestClosedForms:
    def test_plain_values(self):
        assert c_plain(0.5) == 2.0
        assert math.isinf(c_plain(0.0)) and math.isinf(c_plain(1.0))
        assert c_plain(1 / 3) == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_entire_resolvent_values(self):
        assert c_eps(0.5) == pytest.approx(math.pi, rel=1e-15)
        assert math.isinf(c_eps(0.0))
        assert c_eps(0.25) == pytest.approx(math.hypot(math.pi, math.log(3)),
                                            rel=1e-12)

    def test_plain_below_entire(self):
        for k in range(1, 20):
            lam = k / 20
            assert c_plain(lam) <= c_eps(lam) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            c_plain(1.2)

    def test_plain_subnormal_lambda_is_finite(self):
        # log((1 - lam)/lam) would overflow: (1 - lam)/lam is inf here
        assert c_plain(5e-324) == pytest.approx(744.44007192138, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md: c_plain returns exactly 2.0 at lam = 1/2 +- 1e-6, "
        "since log1p(-g) - log(g) cancels to the digits of 1 - 2g"))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_plain_near_half_to_two_ulps(self, sign):
        # 2*artanh(x)/x = 2 * sum x^(2k)/(2k+1), x = 1 - 2*lam = -+2e-6: the
        # terms past k = 4 are below 1e-50
        lam = Fraction(1, 2) + sign * Fraction(1, 10 ** 6)
        x = 1 - 2 * lam
        want = float(2 * sum(x ** (2 * k) / (2 * k + 1) for k in range(5)))
        assert want == 2.0000000000026668
        assert abs(c_plain(lam) - want) <= 2 * math.ulp(want)


class TestLogRho:
    def test_float_branch_is_log1p_minus_log(self):
        # below 1/2, log1p(-f) - log(f) of f = float(lam); above, the same of
        # g = min(lam, 1-lam), negated: g is 1 - f for a float (exact) and
        # the one rounding of 1 - lam for a Fraction
        for k in range(1, 1009):
            lam = Fraction(k, 1009)
            f = float(lam)
            if k <= 504:
                assert log_rho(lam) == log_rho(f) == math.log1p(-f) - math.log(f)
            else:
                g = 1 - f
                assert log_rho(f) == -(math.log1p(-g) - math.log(g))
                assert log_rho(lam) == -log_rho(1 - lam)
        assert log_rho(5e-324) == math.log1p(-5e-324) - math.log(5e-324)

    def test_log_odds_rounds_the_smaller_side_once(self):
        # 1 - lam from lam's integers keeps the digits float(lam) drops
        assert log_odds(1 - Fraction(1, 10 ** 12))[0] == 1e-12
        assert log_odds(Fraction(1, 10 ** 12))[0] == 1e-12
        assert log_odds(0.75) == (0.25, math.log1p(-0.25) - math.log(0.25), -1)
        assert log_odds(Fraction(1, 2)) == (0.5, 0.0, 1)
        assert log_odds(0) == (0.0, math.inf, 1)
        assert log_odds(1) == (0.0, math.inf, -1)
        assert log_rho(0) == math.inf and log_rho(1.0) == -math.inf

    @pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan, math.inf,
                                     1 + Fraction(1, 10 ** 400), -Fraction(1, 10 ** 400)])
    def test_log_odds_domain(self, lam):
        for f in (log_odds, c_plain, c_eps):
            with pytest.raises(ValueError, match="lam must lie in"):
                f(lam)

    def test_closed_forms_mirror_bit_for_bit(self):
        # c_plain = L/(1-2g) reads one rounding of g in its numerator and its
        # denominator, so an exact lam and 1 - lam give the same bits
        lams = [Fraction(1, 2) + s * Fraction(1, 10 ** k)
                for k in range(3, 13) for s in (1, -1)]
        lams += [Fraction(k, 1009) for k in range(1, 1009)]
        for lam in lams:
            assert c_plain(lam) == c_plain(1 - lam), lam
            assert c_eps(lam) == c_eps(1 - lam), lam

    def test_lambda_whose_float_is_an_end(self):
        # float(lam) is 0.0 or 1.0: log rho comes from lam's integer terms
        tiny = Fraction(1, 10 ** 400)
        assert log_rho(tiny) == -log_rho(1 - tiny) == 921.0340371976182
        assert c_plain(tiny) == c_plain(1 - tiny) == 921.0340371976182
        assert math.isfinite(c_eps(tiny)) and w_plain(tiny) > 0

    def test_float_and_exact_lambda_agree_bit_for_bit(self):
        floats = [k / 1009 for k in range(1009 + 1)]
        floats += [5e-324, 1e-300, 0.5 - 2 ** -54, 1 - 2 ** -53]
        for x in floats:
            for f in (c_plain, c_eps, w_plain):
                assert f(x) == f(Fraction(x)), (f.__name__, x)


class TestEulerRecursion:
    def test_half_point_halving(self):
        th = euler_coeffs(Fraction(1, 2), 20)
        assert all(th[k] == Fraction(1, 2 ** (k - 1)) for k in range(1, 21))

    def test_lam_zero_factorials(self):
        th = euler_coeffs(Fraction(0), 8)
        assert all(th[k] == Fraction(1, math.factorial(k)) for k in range(1, 9))

    def test_corrected_coefficients_dominated(self):
        gap = Fraction(1, 8) - Fraction(5, 48)
        plain = euler_coeffs(Fraction(1, 2), 12)
        corr = euler_coeffs(Fraction(1, 2), 12, corrections=[(4, gap)])
        assert corr[4] == Fraction(5, 48)
        assert all(corr[k] <= plain[k] for k in range(13))

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            euler_coeffs(Fraction(1, 2), 6, corrections=[(4, -1)])

    def test_first_order_correction_lowers_t1(self):
        th = euler_coeffs(Fraction(1, 2), 6, corrections=[(1, Fraction(1, 2))])
        assert th[1] == Fraction(1, 2)
        assert th == euler_coeffs(Fraction(1, 2), 6, corrections=[(1, 0.5)])

    @pytest.mark.parametrize("k", [0, -1, 2.5, 4.0, "4", None])
    def test_order_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="integers >= 1"):
            euler_coeffs(Fraction(1, 2), 6, corrections=[(k, 0.1)])
        with pytest.raises(ValueError, match="integers >= 1"):
            ode_blowup(0.5, corrections=[(k, 0.1)])


class TestOdeBlowup:
    def test_uncorrected_center(self):
        assert ode_blowup(0.5) == pytest.approx(2.0, abs=1e-6)

    def test_uncorrected_matches_closed_form(self):
        for lam in (0.25, 1 / 3, 0.7):
            assert ode_blowup(lam) == pytest.approx(c_plain(lam), abs=1e-6)

    def test_endpoints_never_blow_up(self):
        assert math.isinf(ode_blowup(0.0)) and math.isinf(ode_blowup(1.0))

    def test_corrected_regression(self):
        gap = float(Fraction(1, 8) - Fraction(5, 48))
        v = ode_blowup(0.5, corrections=[(4, gap)])
        assert v > 2.0
        assert v == pytest.approx(2.023246155, abs=1e-6)   # frozen

    def test_any_positive_gap_delays(self):
        v = ode_blowup(0.4, corrections=[(4, 1e-3)])
        assert v >= c_plain(0.4)

    @pytest.mark.parametrize("gap", [-5.0, math.nan, math.inf])
    def test_negative_or_non_finite_gap_rejected(self, gap):
        for lam in (0.0, 0.5):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ode_blowup(lam, corrections=[(4, gap)])

    def test_window_without_blow_up_is_unconverged(self):
        # a large gap keeps T bounded on the whole integration window
        with pytest.raises(specrad.UnconvergedError, match="no blow-up"):
            ode_blowup(0.5, corrections=[(4, 10.0)])

    @pytest.mark.parametrize("lam", [1e-3, 1e-6, 1e-12, 1e-40,
                                     1 - 1e-3, 1 - 1e-6, 1 - 1e-12])
    def test_small_mu_matches_closed_form(self, lam):
        # the old RK45 route added a tail 1/(mu * 1e6): 14.12 at 1e-6, 1e6 at
        # 1e-12; at 1e-40 unscaled float coefficients would underflow
        assert ode_blowup(lam) == pytest.approx(c_plain(lam), rel=1e-12)

    def test_center_bracket_holds_two(self):
        # u = e^(x/2) * (1 - x/2) at lam = 1/2
        br = blowup_bracket(Fraction(1, 2))
        assert br.lo < 2 < br.hi
        assert br.lo < ode_blowup(0.5) < br.hi

    @pytest.mark.parametrize("lam", [0, 1, Fraction(-1, 2), 1.5])
    def test_bracket_needs_open_interval(self, lam):
        # at lam in {0, 1} there is no blow-up to bracket (c_plain is inf)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            blowup_bracket(lam)

    @pytest.mark.parametrize("gap", [None, Fraction(1, 8) - Fraction(5, 48)])
    @pytest.mark.parametrize("lam", [Fraction(1, 2), 1e-40, 1 - 1e-12])
    def test_float_root_is_bisected_to_adjacent_floats(self, lam, gap, monkeypatch):
        # every float polynomial the bracket scans: the root lies in the first
        # scanned cell where af <= 0, between adjacent floats y < y+
        seen, find = [], magnus._first_float_root

        def record(af, x_max):
            seen.append((af, x_max, find(af, x_max)))
            return seen[-1][2]
        monkeypatch.setattr(magnus, "_first_float_root", record)
        blowup_bracket(lam, [(4, gap)] if gap else ())
        assert seen
        for af, x_max, y in seen:
            xs = np.linspace(0.0, x_max, magnus._ODE_SCAN + 1)
            i = int(np.flatnonzero(horner(af, xs) <= 0.0)[0])
            assert xs[i - 1] <= y < xs[i]
            assert horner(af, y) > 0.0 >= horner(af, math.nextafter(y, math.inf))

    def test_first_order_correction_closed_form(self):
        # gap 1/2 at k = 1: T' = ((T + 2)^2 - 2)/4, blowing up at
        # sqrt(2) * log(3 + 2*sqrt(2)) = 2*sqrt(2)*asinh(1)
        v = ode_blowup(0.5, corrections=[(1, 0.5)])
        assert v == pytest.approx(2 * math.sqrt(2) * math.asinh(1), rel=1e-12)


def _u_taylor(lam: Fraction, gap, N: int) -> list:
    """u's Taylor coefficients for u'' = u' - mu*(1 - E)*u, E = 4*gap*x^3."""
    mu = lam * (1 - lam)
    b, G = linear_taylor({0: -mu, 3: 4 * mu * Fraction(gap)}, N)
    return [Fraction(bn, math.factorial(n) * G ** n) for n, bn in enumerate(b)]


class TestLinearizedRiccati:
    GAP = Fraction(1, 8) - Fraction(5, 48)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)])
    @pytest.mark.parametrize("gap", [0, GAP])
    def test_riccati_coefficients_from_linear_series(self, lam, gap):
        # T = -u'/(mu*u), by exact series division, is the quadratic recursion
        N = 16
        a = _u_taylor(lam, gap, N + 1)
        mu = lam * (1 - lam)
        du = [-(n + 1) * a[n + 1] for n in range(N + 1)]
        th = series_div(du, [mu * c for c in a], N)
        corr = [(4, gap)] if gap else []
        assert th == euler_coeffs(lam, N, corrections=corr)

    @pytest.mark.parametrize("lam, gap", [
        (Fraction(1, 2), 0), (Fraction(1, 2), GAP), (Fraction(1, 3), GAP),
        (Fraction(7, 10), 0), (0.1, 0.05), (1e-3, 0), (0.999, 1e-4),
    ])
    def test_bracket_is_certified(self, lam, gap):
        # partial sums clear the tail with opposite signs, and the tail bound
        # covers the next 150 terms of the |c|-majorant series
        br = blowup_bracket(lam, [(4, gap)] if gap else [])
        a = _u_taylor(Fraction(lam), gap, br.terms)
        assert horner(a, br.lo) > br.tail >= 0 > -br.tail > horner(a, br.hi)
        mu = Fraction(lam) * (1 - Fraction(lam))
        b, G = linear_taylor({0: mu, 3: 4 * mu * Fraction(gap)}, br.terms + 150)
        rest = sum(Fraction(b[n], math.factorial(n) * G ** n) * br.hi ** n
                   for n in range(br.terms + 1, br.terms + 151))
        assert rest <= br.tail


class TestPthRootBound:
    def test_center_values(self):
        assert trunc3(c_bound_pth_root(Fraction(1, 2), 5, Q2).lower) == 2.041
        assert trunc3(c_bound_pth_root(Fraction(1, 2), 5, Q1).lower) == 2.074

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_plain_collapses_to_closed_form(self, p):
        r = c_bound_pth_root(Fraction(1, 3), p, PLAIN, tol=1e-9)
        assert r.lower == pytest.approx(c_plain(1 / 3), abs=1e-5)

    def test_ordering_chain(self):
        for lam in (Fraction(3, 10), Fraction(1, 2)):
            for cls in (Q1, Q2):
                b = c_bound_pth_root(lam, 5, cls).lower
                assert c_plain(float(lam)) - 1e-9 <= b <= c_eps(float(lam)) + 1e-9

    def test_plain_above_lp_degree_cap(self):
        # the plain kernel at lam = 1/2 is the constant 2^-6: radius 2^-7
        r = c_bound_pth_root(Fraction(1, 2), 7, PLAIN)
        assert r.lower == pytest.approx(2.0, abs=1e-12)

    def test_reflection_symmetry(self):
        b1 = c_bound_pth_root(Fraction(3, 10), 5, Q1).lower
        b2 = c_bound_pth_root(Fraction(7, 10), 5, Q1).lower
        assert abs(b1 - b2) < 1e-9

    @pytest.mark.parametrize("lam,p", [
        pytest.param(lam, p, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 13: absolute tol at extreme lam"))
        if (lam, p) in OVERSTATED else (lam, p)
        for lam in ("1e-100", "1-1e-12") for p in range(2, 9)])
    def test_plain_never_above_closed_form_at_extreme_lambda(self, lam, p):
        # a plain p-th-root bound equals c_plain(lam) at every p
        lam = {"1e-100": Fraction(1, 10 ** 100), "1-1e-12": 1 - Fraction(1, 10 ** 12)}[lam]
        assert c_bound_pth_root(lam, p, PLAIN).lower <= c_plain(lam) * (1 + 1e-9)

    def test_unconverged_radius_raises(self, monkeypatch, capsys):
        # no doubling: the Richardson table never gets two extrapolants
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", 0)
        with pytest.raises(specrad.UnconvergedError):
            c_bound_pth_root(Fraction(1, 3), 3, PLAIN)
        code = main(["bound", "--method", "pth-root", "--lambda", "1/3",
                     "--p", "3", "--q", "plain"])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert "doubling budget exhausted" in captured.err


class TestLogBound:
    def test_coarse_grid_sandwich(self):
        r = c_log_bound(5, Q2, grid=41)
        at_half = c_bound_pth_root(Fraction(1, 2), 5, Q2).lower
        assert r.lower <= at_half + 1e-9
        assert r.lower == pytest.approx(2.040800, abs=2e-4)
        assert maglower_floor(Q2) < r.lower

    def test_plain_is_two(self):
        r = c_log_bound(5, PLAIN, grid=21)
        assert r.lower == pytest.approx(2.0, abs=1e-5)
        assert r.details["arg_lam"] == pytest.approx(0.5, abs=1e-3)


class TestCrudeRoutes:
    def test_ratio_bound_at_center(self):
        for cls in (Q1, Q2):
            kappa = float(cls.kappa_hi)
            want = 2.0 / (2 / 3 + kappa / 3) ** 0.2
            got = crude_ratio_bound(Fraction(1, 2), 5, cls).lower
            assert got == pytest.approx(want, rel=1e-9)
            exact = c_bound_pth_root(Fraction(1, 2), 5, cls).lower
            assert got == pytest.approx(exact, rel=1e-9)

    def test_ratio_sup_at_center(self):
        info = kernel_ratio_sup(4, Fraction(1, 2), Q1)
        assert info["sup"] == pytest.approx(5 / 6, rel=1e-12)

    def test_ratio_sup_reached_at_arg_t(self):
        # at lam = 2/5, q = 2, p-1 = 2 the grid node beats Brent's point
        lam = Fraction(2, 5)
        info = kernel_ratio_sup(2, lam, Q2)
        t = info["arg_t"]
        num, den = reduced_kernel(2, lam, Q2), plain_reduced_kernel(2, lam)
        assert float(num(t)) / float(den(t)) == info["sup"]

    def test_maglower_floor_values(self):
        assert trunc3(maglower_floor(Q2)) == 2.030
        assert trunc3(maglower_floor(Q1)) == 2.054

    def test_compar_routes_coincide_at_center(self):
        exact = 2.0 / (5 / 6) ** 0.2
        assert sicompar_bound(Fraction(1, 2), 5, Q1).lower \
            == pytest.approx(exact, rel=1e-12)
        assert ricompar_bound(Fraction(1, 2), 5, Q1).lower \
            == pytest.approx(exact, rel=1e-12)

    def test_compar_routes_below_radius_route(self):
        exact = c_bound_pth_root(Fraction(1, 3), 5, PLAIN, tol=1e-9).lower
        s = sicompar_bound(Fraction(1, 3), 5, PLAIN).lower
        r = ricompar_bound(Fraction(1, 3), 5, PLAIN).lower
        assert s <= exact + 1e-9 and r <= exact + 1e-9

    def test_compar_regressions_q1(self):
        # frozen after first verified run
        assert sicompar_bound(Fraction(2, 5), 5, Q1).lower \
            == pytest.approx(2.000538033948, rel=1e-10)
        assert ricompar_bound(Fraction(2, 5), 5, Q1).lower \
            == pytest.approx(1.999709209724, rel=1e-10)


class TestTrivialUpper:
    def test_values(self):
        assert trunc3(upper_trivial(Q2, "cayley").upper) == 2.244
        assert trunc3(upper_trivial(Q1, "cayley").upper) == 2.519
        assert upper_trivial(PLAIN, "cayley").upper == 2.0

    def test_per_lam_variant(self):
        rep = upper_trivial(Q1, "magnus", lam=Fraction(1, 3))
        assert rep.upper == pytest.approx(c_plain(1 / 3) * 2 ** (1 / 3), rel=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant must be"):
            upper_trivial(Q1, "foo")

    def test_magnus_variant_needs_lam(self):
        with pytest.raises(ValueError, match="needs lam"):
            upper_trivial(Q1, "magnus")


class TestScan:
    def test_rows_and_lipschitz(self):
        rows = scan_rows(5, PLAIN, grid=11, radius_tol=1e-7)
        assert len(rows) == 11
        assert rows[-1][0] == 0.5
        assert lipschitz_logodds_check([(l, c) for l, _, c in rows])

    def test_theta_cache_bounded_and_reused_on_grid(self):
        assert theta_ab.cache_info().maxsize is not None
        scan_rows(3, Q1, grid=11)                 # lam = k/20, exact q=1 LPs
        before = theta_ab.cache_info()
        c_bound_pth_root(Fraction(3, 20), 3, Q1)
        after = theta_ab.cache_info()
        assert after.misses == before.misses      # no LP solved again
        assert after.hits == before.hits + 3

    def test_names_the_first_unconverged_lambda(self, monkeypatch):
        # no doubling: every lam but 0 and 1/2 is unconverged, and the
        # first in grid order is named
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", 0)
        with pytest.raises(specrad.UnconvergedError) as exc:
            scan_rows(3, PLAIN, grid=41)
        assert str(exc.value) == ("p-1 = 2, lam = 1/80: doubling budget "
                                  "exhausted before extrapolants settled")

    def test_bound_report_invariant(self):
        with pytest.raises(AssertionError):
            BoundReport(method="x", q="plain", lower=2.0, upper=1.0)

    def test_bound_report_invariant_under_optimize_flag(self):
        # `python -O` strips assert statements; the invariant must still raise
        child = (
            "from magrad.magnus import BoundReport\n"
            "assert False  # exits 1 unless -O strips it\n"
            "try:\n"
            "    BoundReport(method='x', q='plain', lower=2.0, upper=1.0)\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(magrad.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        res = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


class TestRefineMax:
    def test_grid_node_wins_over_brent(self):
        # a spike far narrower than Brent's tolerance sits on one grid node
        xs = np.linspace(0.0, 1.0, 11)
        f = lambda t: 1.0 - t * t + (5.0 if abs(t - 0.3) < 1e-13 else 0.0)
        vals = np.array([f(t) for t in xs])
        assert refine_max(f, xs, vals) == (vals[3], float(xs[3]))

    def test_brent_refines_between_nodes(self):
        xs = np.linspace(0.0, 1.0, 11)
        f = lambda t: -(t - 0.3141) ** 2
        sup, arg = refine_max(f, xs, np.array([f(t) for t in xs]))
        assert arg == pytest.approx(0.3141, abs=1e-8)
        assert sup == f(arg) and sup > f(0.3)


def brent_calls(thunk) -> list:
    """The (f, a, b, xatol) of every `bounded_brent` call that thunk makes."""
    calls, real = [], series.bounded_brent

    def record(f, a, b, xatol):
        calls.append((f, a, b, xatol))
        return real(f, a, b, xatol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "bounded_brent", record)
        thunk()
    return calls


def assert_brent_is_scipys(f, a, b, xatol):
    """The port and scipy's bounded method evaluate f at the same points and
    return the same (fun, x), bit for bit, as Python floats."""
    points = {"port": [], "scipy": []}

    def traced(key):
        return lambda t: points[key].append(float(t)) or f(t)
    fun, x = bounded_brent(traced("port"), a, b, xatol)
    res = minimize_scalar(traced("scipy"), bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    assert type(fun) is float and type(x) is float
    assert (fun.hex(), x.hex()) == (float(res.fun).hex(), float(res.x).hex())
    assert [t.hex() for t in points["port"]] == [t.hex() for t in points["scipy"]]


def c2_refine(q: int):
    """The C2 scan's refinement for class q at its threshold x1 = x2 = s/2."""
    cls = ConvexityClass.from_q(q)
    x = bch.c2_improved(cls).value / 2.0
    _, l1c, gain, _, _ = bch._cube_bound(bch._grid_table(), cls, x, x)
    return refine_max(lambda l: bch.bch_gain_upper(l, cls, x, x).bound,
                      bch._LAM_GRID, l1c - gain)


class TestBoundedBrent:
    @pytest.mark.parametrize("thunk", [
        lambda: c_log_bound(3, Q1, grid=11),
        lambda: kernel_ratio_sup(3, Fraction(2, 5), Q1),
        lambda: kernel_ratio_sup(3, Fraction(331, 1009), Q2),
        lambda: bch.max_upsilon_l1(bch.C2_REFERENCE / 2, bch.C2_REFERENCE / 2),
        lambda: c2_refine(1),
        lambda: c2_refine(2),
    ], ids=["c_log_bound", "ratio-2/5", "ratio-331/1009", "upsilon_l1", "c2-q1", "c2-q2"])
    def test_real_objectives_match_scipy(self, thunk):
        calls = brent_calls(thunk)
        assert calls
        for f, a, b, xatol in calls:
            assert_brent_is_scipys(f, a, b, xatol)

    @settings(max_examples=150, deadline=None)
    @given(coef=st.tuples(*[st.floats(-10.0, 10.0)] * 4), w=st.floats(0.0, 20.0),
           a=st.floats(-10.0, 10.0), width=st.floats(0.0, 5.0),
           xatol=st.sampled_from([1e-6, 1e-10]))
    def test_smooth_functions_match_scipy(self, coef, w, a, width, xatol):
        c0, c1, c2, c3 = coef
        f = lambda t: c0 * (t - c1) ** 2 + c2 * math.sin(w * t) + c3 * t ** 3 / 30.0
        assert_brent_is_scipys(f, a, a + width, xatol)
