"""Reduced kernels, generating-function oracles, and the correction polynomial."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magrad import umqnorm
from magrad.freealg import ascent_rows, mu_ab
from magrad.kernels import (
    ReducedKernel,
    _bernstein_to_monomial,
    _denominator_series,
    b_correction,
    g_tilde_series,
    kernel_csv_rows,
    plain_reduced_kernel,
    reduced_kernel,
)
from magrad.magnus import euler_coeffs, scan_rows
from magrad.series import float_pow, horner, series_div
from magrad.simplex import simplex_min
from magrad.umqnorm import PLAIN, ConvexityClass, theta_ab, theta_k

Q1 = ConvexityClass.from_q(1)
Q2 = ConvexityClass.from_q(2)
HALF = Fraction(1, 2)
TINY = Fraction(1, 10 ** 400)
#: lam where plain kernels are checked: inside, on and outside [0, 1], with
#: large denominators, and within 10^-400 of either end
ORACLE_LAMS = ([Fraction(0), Fraction(1), HALF, Fraction(1, 3), Fraction(-3, 7),
                Fraction(5, 2), TINY, 1 - TINY]
               + [Fraction(k, 1009) for k in (1, 331, 500, 1008)]
               + [Fraction(x).limit_denominator(10 ** 9)
                  for x in (0.123456789, 0.7071067811865476, 0.9999999)])


@lru_cache(maxsize=None)
def word_weights(a: int, b: int) -> tuple:
    """(weight polynomial, number of words) pairs of mu_ab(a, b), counted
    over its (a+b)! words."""
    return tuple(Counter(mu_ab(a, b).terms.values()).items())


def plain_theta_oracle(a: int, b: int, lam: Fraction) -> Fraction:
    """ell^1 norm of mu_ab(a, b) at lam over (a+b)!, from the words."""
    return sum(n * abs(w(lam)) for w, n in word_weights(a, b)) / factorial(a + b)


def expand_per_a(k: int, theta_of) -> tuple:
    """The per-a expansion of sum_a theta_of(a) C(k,a) (1-t)^a t^(k-a) into
    powers of t, one product at a time in this order."""
    if k == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (k + 1)
    for a in range(k + 1):
        theta, base = theta_of(a), comb(k, a)
        for i in range(a + 1):
            coeffs[k - a + i] += theta * base * comb(a, i) * (-1) ** i
    return tuple(coeffs)


def g_series(lam, N: int) -> list:
    """Plain characteristic coefficients Theta_k for k = 0..N (Theta_0 = 0).

    Theta_k is the x^(k-1) coefficient of (e^u - e^v)/(u e^v - v e^u) at
    u = lam*x, v = (1-lam)*x; computed as an exact rational series quotient.
    Cross-checked against the Euler recursion, which is the ground truth for
    the plain case.
    """
    if N > 30:
        raise ValueError("series order capped at 30")
    lam = Fraction(lam)
    # numerator/(x*(2 lam - 1)): coefficient k is sum_i lam^i (1-lam)^(k-i)/(k+1)!
    num = [sum((lam ** i) * ((1 - lam) ** (k - i)) for i in range(k + 1))
           / factorial(k + 1) for k in range(N)]
    den = _denominator_series(lam, N)
    g = series_div(num, den, N - 1) if N >= 1 else []
    return [Fraction(0)] + g


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

    def test_integral_and_max(self):
        rk = ReducedKernel(coeffs=(Fraction(1), Fraction(2)), lam=HALF,
                           p_minus_1=1)
        assert rk.integral01() == 2
        assert rk.max01() == pytest.approx(3.0)

    @pytest.mark.parametrize("coeffs,want", [
        ((0, 1, -1), 0.25),                                    # t(1-t)
        ((0, 0, 1, -1), 4 / 27),                               # t^2(1-t)
        ((Fraction(-1, 16), HALF, Fraction(-3, 2), 2, -1), 0.0),  # -(t-1/2)^4
    ])
    def test_max_at_an_interior_root(self, coeffs, want):
        # each peaks inside (0, 1), the last at a triple critical point
        rk = ReducedKernel(coeffs=tuple(map(Fraction, coeffs)), lam=HALF,
                           p_minus_1=len(coeffs) - 1)
        assert rk.max01() == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert rk.max01() > max(rk(0.0), rk(1.0))

    def test_csv_rows(self):
        rows = kernel_csv_rows(reduced_kernel(2, HALF, PLAIN), samples=5)
        assert len(rows) == 5 and rows[0][0] == 0.0 and rows[-1][0] == 1.0

    @pytest.mark.parametrize("samples", [2, 11, 101])
    def test_csv_rows_are_the_scalar_samples(self, samples):
        # one array call, bit for bit the per-point evaluation
        rk = reduced_kernel(4, Fraction(1, 3), Q1)
        want = [(i / (samples - 1), float(rk(i / (samples - 1)))) for i in range(samples)]
        got = kernel_csv_rows(rk, samples)
        assert np.array(got).tobytes() == np.array(want).tobytes()


COEFF = st.floats(-1e3, 1e3, allow_nan=False)
POINT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestStackedHorner:
    @given(st.lists(st.lists(COEFF, min_size=1, max_size=9), min_size=1, max_size=6),
           st.lists(POINT, min_size=1, max_size=12))
    def test_each_row_is_the_single_evaluation(self, polys, xs):
        # rows of mixed degree, zero-padded at the top
        width = max(map(len, polys))
        stack = np.array([c + [0.0] * (width - len(c)) for c in polys])
        x = np.array(xs + [0.0, 1.0])
        got = horner(stack, x)
        assert got.shape == (len(polys), len(x))
        for row, c in zip(got, polys):
            assert row.tobytes() == horner(c, x).tobytes()
        # a 0-d x gives one column of the same bits
        for k, xk in enumerate(x):
            assert horner(stack, xk).tobytes() == got[:, k].tobytes()


class TestFloatPow:
    @pytest.mark.parametrize("e", [3, 0.25, 1 / 3, 1.5, 2 / 3])
    def test_is_python_pow_bit_for_bit(self, e):
        v = np.array([0.0, 5e-324, 2.2e-308, 0.1, 1.0, 2.0, 1e100, np.inf, np.nan])
        for x in (v, -v[:7]) if e == 3 else (v,):
            want = [y ** e for y in x.tolist()]
            assert float_pow(x, e).tobytes() == np.array(want).tobytes()

    def test_negative_base_with_fractional_exponent_raises(self):
        with pytest.raises(ValueError):
            float_pow(np.array([-8.0, 2.0]), 1 / 3)


class TestPlainKernelAssembly:
    @pytest.mark.parametrize("k", range(9))
    def test_matches_per_a_expansion_of_word_sums(self, k):
        for lam in ORACLE_LAMS:
            want = expand_per_a(k, lambda a: plain_theta_oracle(a, k - a, lam))
            rk = plain_reduced_kernel(k, lam)
            assert rk.coeffs == want, lam
            assert all(type(c) is Fraction for c in rk.coeffs)
            assert rk.lam == lam and rk.p_minus_1 == k

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(5, 11),
                                     Fraction(331, 1009), Fraction(1), TINY])
    def test_matches_generating_function(self, lam):
        ts = [Fraction(i, 7) for i in range(8)] + [Fraction(1, 10 ** 9)]
        for t in ts:
            series = g_tilde_series(lam, t, 8)
            for k in range(9):
                assert plain_reduced_kernel(k, lam)(t) == series[k], (k, t)

    def test_theta_reads_the_same_numerators(self):
        for lam in ORACLE_LAMS:
            for k in range(1, 7):
                for a in range(k + 1):
                    assert theta_ab(a, k - a, lam, PLAIN).value \
                        == plain_theta_oracle(a, k - a, lam)

    @pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(2, 7), HALF])
    def test_q_classes_keep_the_per_a_expansion(self, lam):
        # an enclosed kappa is priced at the top of its enclosure, so the
        # kernel is the exact expansion of every enclosure's upper end
        for cls in (Q1, Q2, ConvexityClass.from_q(Fraction(3, 2)),
                    ConvexityClass.from_q(8)):
            for k in range(5):
                want = expand_per_a(k, lambda a: theta_ab(a, k - a, lam, cls).hi)
                got = reduced_kernel(k, lam, cls)
                assert got.coeffs == want, (cls.q, k)
                assert all(type(c) is Fraction for c in got.coeffs)
                assert got.lam == lam

    def test_enclosed_kappa_solves_one_lp_per_theta(self, monkeypatch):
        # a cold q = 2 kernel of degree k solves k+1 LPs, not one per
        # kappa endpoint
        calls = []

        def counting(*args):
            calls.append(args)
            return simplex_min(*args)

        monkeypatch.setattr(umqnorm, "simplex_min", counting)
        lam = Fraction(17, 389)         # used by no other test: a cold cache
        for k in range(1, 5):
            calls.clear()
            reduced_kernel(k, lam, Q2)
            assert len(calls) == k + 1, k

    def test_scan_reads_integer_tables_only(self):
        # a plain scan builds each degree's tables once (the ascent rows of
        # degree 4 from those of degrees 3, 2 and 1) and never asks theta_ab
        # for a value
        ascent_rows.cache_clear()
        _bernstein_to_monomial.cache_clear()
        before = theta_ab.cache_info()
        rows = scan_rows(5, PLAIN, grid=41)
        after = theta_ab.cache_info()
        assert len(rows) == 41
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert ascent_rows.cache_info().misses == 4
        assert _bernstein_to_monomial.cache_info().misses == 1


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
