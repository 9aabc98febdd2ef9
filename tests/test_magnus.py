"""Closed forms, the coefficient recursion and corrected ODE, and the bounds."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import magrad
from magrad.kernels import plain_reduced_kernel, reduced_kernel
from magrad.magnus import (
    BoundReport,
    c_bound_pth_root,
    c_eps,
    c_log_bound,
    c_plain,
    crude_ratio_bound,
    euler_coeffs,
    kernel_ratio_sup,
    lipschitz_logodds_check,
    maglower_floor,
    ode_blowup,
    ricompar_bound,
    scan_rows,
    sicompar_bound,
    upper_trivial,
    w_plain,
)
from magrad.series import refine_max
from magrad.umqnorm import PLAIN, ConvexityClass

Q1 = ConvexityClass.from_q(1)
Q2 = ConvexityClass.from_q(2)


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
            kappa = cls.kappa_float
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


class TestScan:
    def test_rows_and_lipschitz(self):
        rows = scan_rows(5, PLAIN, grid=11, radius_tol=1e-7)
        assert len(rows) == 11
        assert rows[-1][0] == 0.5
        assert lipschitz_logodds_check([(l, c) for l, _, c in rows])

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
