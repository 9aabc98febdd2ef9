"""Reduced kernels, generating-function oracles, and the correction polynomial."""

from fractions import Fraction

import pytest

from magrad.kernels import (
    ReducedKernel,
    b_correction,
    g_series,
    g_tilde_series,
    kernel_csv_rows,
    p_ab,
    plain_reduced_kernel,
    reduced_kernel,
)
from magrad.magnus import euler_coeffs
from magrad.umqnorm import PLAIN, ConvexityClass, theta_ab, theta_k

Q1 = ConvexityClass.from_q(1)
HALF = Fraction(1, 2)


class TestPab:
    def test_empty_configuration(self):
        assert p_ab(0, 0, Fraction(1, 3)) == 1

    def test_binomial_sum_is_one(self):
        for t in (Fraction(0), Fraction(1, 4), Fraction(4, 5)):
            assert sum(p_ab(a, 4 - a, t) for a in range(5)) == 1

    def test_center_value(self):
        assert p_ab(2, 2, HALF) == Fraction(3, 8)


class TestReducedKernel:
    def test_degree_zero_is_one(self):
        rk = reduced_kernel(0, Fraction(1, 3), Q1)
        assert rk.coeffs == (1,) and rk(Fraction(2, 3)) == 1

    def test_constant_at_half(self):
        rk = reduced_kernel(4, HALF, Q1)
        assert all(rk(t) == Fraction(5, 96) for t in
                   (Fraction(0), Fraction(1, 3), Fraction(1)))
        two = rk.two_sided()
        assert two(Fraction(-1, 2)) == Fraction(5, 192) == two(Fraction(1, 2))

    def test_plain_matches_series_oracle(self):
        lam = Fraction(1, 3)
        gt = {t: g_tilde_series(lam, t, 5) for t in
              (Fraction(0), Fraction(1, 2), Fraction(1))}
        rk = plain_reduced_kernel(4, lam)
        for t, series in gt.items():
            assert rk(t) == series[4]

    def test_plain_top_of_degree_cap(self):
        # p-1 = 8: nine samples pin the degree-8 polynomial down exactly
        lam = Fraction(2, 7)
        rk = plain_reduced_kernel(8, lam)
        for i in range(9):
            t = Fraction(i, 8)
            assert rk(t) == g_tilde_series(lam, t, 8)[8]

    @pytest.mark.parametrize("lam", [Fraction(1, 5), Fraction(1, 3)])
    def test_endpoint_identities(self, lam):
        # Ktilde(1) = lam * Theta_4 and Ktilde(0) = (1 - lam) * Theta_4
        rk = reduced_kernel(4, lam, Q1)
        theta4 = theta_k(4, lam, Q1).value
        assert rk(Fraction(1)) == lam * theta4
        assert rk(Fraction(0)) == (1 - lam) * theta4
        # so the two-sided branches agree at 0
        two = rk.two_sided()
        assert two(Fraction(0)) == lam * (1 - lam) * theta4

    @pytest.mark.parametrize("lam", [Fraction(1, 5), Fraction(2, 5)])
    def test_reflection_symmetry(self, lam):
        k1 = reduced_kernel(4, lam, Q1)
        k2 = reduced_kernel(4, 1 - lam, Q1)
        for t in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            assert k1(t) == k2(1 - t)

    def test_trivial_bound(self):
        two = reduced_kernel(4, Fraction(2, 7), Q1).two_sided()
        for i in range(-10, 11):
            v = two(Fraction(i, 10))
            assert 0 <= v <= 1

    def test_toeplitz_evaluation(self):
        two = reduced_kernel(3, Fraction(1, 3), Q1).two_sided()
        assert two.kernel(Fraction(1, 4), Fraction(3, 4)) == two(HALF)
        assert not two.is_convolution

    def test_integral_and_max(self):
        rk = ReducedKernel(coeffs=(Fraction(1), Fraction(2)), lam=HALF,
                           p_minus_1=1)
        assert rk.integral01() == 2
        assert rk.max01() == pytest.approx(3.0)

    def test_csv_rows(self):
        rows = kernel_csv_rows(reduced_kernel(2, HALF, PLAIN), samples=5)
        assert len(rows) == 5 and rows[0][0] == 0.0 and rows[-1][0] == 1.0


class TestGSeries:
    def test_halving_at_center(self):
        g = g_series(HALF, 10)
        assert [g[k] for k in range(1, 11)] == \
            [Fraction(1, 2 ** (k - 1)) for k in range(1, 11)]

    def test_first_coefficient_always_one(self):
        for lam in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            g = g_series(lam, 3)
            assert g[0] == 0 and g[1] == 1

    def test_matches_recursion(self):
        lam = Fraction(1, 3)
        assert g_series(lam, 8) == euler_coeffs(lam, 8)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            g_series(HALF, 31)


class TestGTildeSeries:
    def test_constant_term(self):
        for lam, t in ((Fraction(1, 4), Fraction(0)), (HALF, Fraction(1))):
            assert g_tilde_series(lam, t, 4)[0] == 1

    def test_center_is_t_independent(self):
        for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
            series = g_tilde_series(HALF, t, 6)
            assert series[4] == Fraction(1, 16)
            assert [series[p1] for p1 in range(7)] == \
                [Fraction(1, 2 ** p1) for p1 in range(7)]

    def test_left_endpoint_hits_marked_sum(self):
        # Ktilde(0) = Theta_{p-1,0} in the plain case
        lam = Fraction(1, 4)
        series = g_tilde_series(lam, Fraction(0), 5)
        for p1 in range(1, 6):
            assert series[p1] == theta_ab(p1, 0, lam, PLAIN).value

    def test_range_check(self):
        with pytest.raises(ValueError):
            g_tilde_series(HALF, Fraction(3, 2), 4)


class TestBCorrection:
    def test_vanishes_at_lam_endpoints(self):
        for t in (-0.8, -0.2, 0.0, 0.7, 1.0):
            assert b_correction(0.0, t) == 0.0
            assert b_correction(1.0, t) == 0.0

    def test_nonnegative_on_grid(self):
        for i in range(0, 21):
            lam = i / 20
            for j in range(-20, 21):
                assert b_correction(lam, j / 20) >= -1e-15

    def test_continuous_at_zero(self):
        lam = Fraction(2, 7)
        up = b_correction(lam, Fraction(0))
        low_limit = Fraction(1, 3) * lam * (1 - lam) ** 2 * min(lam, 1 - lam) * lam
        assert up == low_limit

    def test_exact_identity_spot(self):
        lam = Fraction(3, 10)
        kA = reduced_kernel(4, lam, Q1)
        kP = plain_reduced_kernel(4, lam)
        for t in (Fraction(1, 3), Fraction(-1, 3)):
            lhs_A = lam * kA(t) if t >= 0 else (1 - lam) * kA(t + 1)
            lhs_P = lam * kP(t) if t >= 0 else (1 - lam) * kP(t + 1)
            assert lhs_A == lhs_P - HALF * b_correction(lam, t)

    def test_domain(self):
        with pytest.raises(ValueError):
            b_correction(0.5, 1.5)
