"""Resolvent-product series, block components, and the threshold scans."""

import math
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magrad import bch
from magrad.bch import (
    C2_REFERENCE,
    bch_gain_upper,
    c2_improved,
    cross_term_35,
    max_upsilon_l1,
    resolvent_series,
    upsilon_l1,
    upsilon_power_component,
)
from magrad.freealg import LambdaPoly, eval_lambda, l1_norm
from magrad.series import refine_max
from magrad.umqnorm import PLAIN, ConvexityClass, fa_norm_upper, leaf, prod, xi

Q1 = ConvexityClass.from_q(1)
Q2 = ConvexityClass.from_q(2)
CLASSES = {"plain": PLAIN, "q1": Q1, "q2": Q2}


def exact_abs_sum(lam: Fraction, x: Fraction, N: int) -> Fraction:
    """Independent oracle: sum |c_n(lam)| x^n with a from-scratch recursion."""
    u = [Fraction(0)] + [Fraction(1, factorial(k)) for k in range(1, N + 1)]
    c = [Fraction(0)]
    for k in range(1, N + 1):
        acc = u[k]
        for j in range(1, k):
            acc -= (1 - lam) * u[k - j] * c[j]
        c.append(acc)
    return sum(abs(c[n]) * x ** n for n in range(1, N + 1))


class TestResolventSeries:
    def test_low_order_coefficients(self):
        c = resolvent_series(6)
        assert c[1] == LambdaPoly((1,))
        assert c[2] == LambdaPoly((Fraction(-1, 2), 1))
        assert c[3] == LambdaPoly((Fraction(1, 6), -1, 1))

    def test_quartic_factors(self):
        c = resolvent_series(3)
        assert c[2] * c[2] == LambdaPoly((Fraction(1, 4), -1, 1))

    def test_center_is_odd(self):
        c = resolvent_series(10)
        assert all(c[k](Fraction(1, 2)) == 0 for k in (2, 4, 6, 8, 10))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            resolvent_series(41)

    def test_abs_coefficients_mirror_exactly(self, mirror):
        # |c_n(1-lam)| = |c_n(lam)|, which lets bch evaluate at min(lam, 1-lam)
        for n, cn in enumerate(resolvent_series(bch._N)):
            mirrored = mirror(cn)
            assert mirrored in (cn, -cn), n


class TestUpsilonL1:
    def test_zero_at_origin(self):
        assert upsilon_l1(0.3, 0.0, 0.0).value == 0.0

    def test_against_highprecision_oracle(self):
        # 128-term exact partial sum at lam = 1/2, x = 1
        lam, x = Fraction(1, 2), Fraction(1)
        exact = float(lam * (1 - lam) * exact_abs_sum(lam, x, 128) ** 2)
        got = upsilon_l1(0.5, 1.0, 1.0)
        assert got.conclusive
        assert got.head <= exact <= got.value
        assert got.value == pytest.approx(exact, abs=1e-10)

    def test_reflection_symmetry(self):
        for lam in (0.2, 0.35, 0.45):
            a = upsilon_l1(lam, 1.2, 0.7).value
            b = upsilon_l1(1.0 - lam, 0.7, 1.2).value
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 0.6, 0.805, 0.9, 0.99, 1.0])
    def test_mirror_is_bit_identical(self, lam):
        # 1 - lam is exact for lam >= 1/2, so both calls see the same floats
        for x1, x2 in ((1.2, 0.7), (0.3, 3.04), (2.0, 1.5)):
            a, b = upsilon_l1(lam, x1, x2), upsilon_l1(1.0 - lam, x1, x2)
            assert (a.value, a.head, a.tail1, a.tail2, a.conclusive) \
                == (b.value, b.head, b.tail1, b.tail2, b.conclusive)
            ga, gb = (bch_gain_upper(l, Q2, x1, x2) for l in (lam, 1.0 - lam))
            assert (ga.bound, ga.gain, ga.aligned) == (gb.bound, gb.gain, gb.aligned)

    def test_conclusive_zero_at_lam_one(self):
        got = upsilon_l1(1.0, 2.0, 1.5)
        assert got.conclusive and got.value == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            upsilon_l1(0.5, math.pi, 1.0)
        with pytest.raises(ValueError):
            upsilon_l1(1.5, 1.0, 1.0)

    def test_domain_checks_on_every_entry_point(self):
        for call in (lambda: bch_gain_upper(1.5, Q1, 1.0, 1.0),
                     lambda: bch_gain_upper(0.5, Q1, 1.0, math.pi),
                     lambda: bch_gain_upper(-0.1, Q1, 1.0, 1.0),
                     lambda: upsilon_l1(0.5, -0.1, 1.0),
                     lambda: max_upsilon_l1(math.pi, 1.0),
                     lambda: max_upsilon_l1(1.0, -0.1)):
            with pytest.raises(ValueError):
                call()

    def test_peak_at_known_radius(self):
        mx, arg = max_upsilon_l1(C2_REFERENCE / 2, C2_REFERENCE / 2)
        assert mx == pytest.approx(1.0, abs=1e-4)
        assert 0.35865 <= min(arg, 1 - arg) <= 0.35866

    def test_infinite_peak_is_not_refined(self):
        # past the threshold 13 grid tails from lam = 0.388 on are
        # inconclusive; Brent on +inf warned and stopped anywhere
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert max_upsilon_l1(3.04, 3.04) == (math.inf, 0.388)


class TestPowerComponents:
    def test_first_block(self):
        pc = upsilon_power_component(1, (1, 1))
        assert pc.terms == {(1, 2): LambdaPoly((1,))}

    def test_square_block(self):
        pc = upsilon_power_component(2, (2, 2))
        assert pc.terms == {(1, 2, 1, 2): LambdaPoly((1,))}

    def test_impossible_pattern_empty(self):
        assert not upsilon_power_component(3, (2, 5))
        assert not upsilon_power_component(3, (5, 2))

    def test_cross_words_carry_quartic_factors(self):
        pc = upsilon_power_component(3, (3, 5))
        c = resolvent_series(3)
        c2sq, c3 = c[2] * c[2], c[3]
        assert pc.coeff((1, 2, 2, 1, 2, 2, 1, 2)) == c2sq
        assert pc.coeff((1, 2, 1, 2, 2, 1, 2, 2)) == c2sq
        assert pc.coeff((1, 2, 2, 1, 2, 1, 2, 2)) == c2sq
        assert pc.coeff((1, 2, 1, 2, 2, 2, 1, 2)) == c3

    def test_block_expansion_matches_product_series(self):
        # sum of |coefficients| at fixed bidegree equals the coefficient of
        # the ell^1 product series (exact rational identity)
        lam = Fraction(1, 3)
        c = resolvent_series(6)
        cabs = [abs(ci(lam)) for ci in c]
        for n, (d1, d2) in ((2, (3, 3)), (2, (2, 4)), (3, (3, 5))):
            pc = upsilon_power_component(n, (d1, d2))
            lhs = sum(abs(cf(lam)) for cf in pc.terms.values())

            def comp_sum(d, parts):
                if parts == 1:
                    return cabs[d] if d >= 1 else Fraction(0)
                return sum(cabs[f] * comp_sum(d - f, parts - 1)
                           for f in range(1, d - parts + 2))

            rhs = comp_sum(d1, n) * comp_sum(d2, n)
            assert lhs == rhs

    def test_sign_window_exact(self):
        c = resolvent_series(3)
        c2sq, c3 = c[2] * c[2], c[3]
        for lam in (Fraction(35865, 100000), Fraction(35866, 100000)):
            assert c3(lam) < 0 < c2sq(lam)


def cross_term_53():
    """Y1 * Xi(Y1, Y2*Y1, Y2, Y1) * Y1 Y2: the transposed, relabeled mirror
    of `cross_term_35`, whose gain `bch._gain` counts a second time."""
    y1, y2 = leaf(1), leaf(2)
    return prod([y1, xi(y1, prod([y2, y1]), y2, y1), y1, y2])


class TestCrossTerms:
    def test_support_and_signs(self):
        p35 = cross_term_35().evaluate()
        assert sorted(p35.terms.values()).count(Fraction(-1, 4)) == 1
        p53 = cross_term_53().evaluate()
        # mirror: swap letters 1 <-> 2 and reverse each word
        mirrored = {tuple(3 - x for x in reversed(w)): cv
                    for w, cv in p53.terms.items()}
        assert mirrored == p35.terms


class TestGain:
    def test_gain_matches_feasible_decomposition(self):
        # closed-form gain equals the cross-term peeling route, exactly
        lam = Fraction(2, 5)
        comp = upsilon_power_component(3, (3, 5))
        p = eval_lambda(comp, lam)
        upper = fa_norm_upper(p, Q1, [cross_term_35()])
        gain = l1_norm(p) - upper
        c = resolvent_series(3)
        c2sq, c3 = c[2](lam) ** 2, c[3](lam)
        assert gain == 4 * min(c2sq, -c3) * Fraction(1, 2)

    def test_zero_gain_cases(self):
        g_half = bch_gain_upper(0.5, Q1, 1.0, 1.0)
        assert g_half.gain == 0.0 and g_half.diagnostic
        g_plain = bch_gain_upper(0.3587, PLAIN, 1.0, 1.0)
        assert g_plain.gain == 0.0 and g_plain.aligned
        g_out = bch_gain_upper(0.1, Q1, 1.0, 1.0)
        assert g_out.gain == 0.0 and not g_out.aligned

    def test_gain_positive_in_window(self):
        g = bch_gain_upper(0.3587, Q2, 1.449, 1.449)
        assert g.aligned and g.gain > 0
        assert g.bound < g.l1_cubed
        kappa = float(Q2.kappa_hi)
        lam = 0.3587
        want = 4 * (lam - 0.5) ** 2 * (1 - kappa) * (lam * (1 - lam)) ** 3 \
            * 2 * 1.449 ** 8
        assert g.gain == pytest.approx(want, rel=1e-12)


class TestC2Scan:
    def test_plain_recovers_reference(self):
        r = c2_improved(PLAIN)
        assert r.value == pytest.approx(C2_REFERENCE, abs=1e-3)
        assert r.sup_at_value < 1.0

    def test_cross_cost_improves(self):
        r1 = c2_improved(Q1)
        r2 = c2_improved(Q2)
        assert r1.margin > 0 and r2.margin > 0
        assert r1.value > r2.value        # stronger convexity, bigger gain
        # frozen thresholds from the default scan
        assert r1.value == pytest.approx(2.904000, abs=1e-6)
        assert r2.value == pytest.approx(2.901750, abs=1e-6)


class TestPinnedBits:
    """Exact floats (float.hex) recorded from the per-point scalar evaluation.

    Any change to the series, tail or gain arithmetic that moves a last bit
    fails here; `--l1 --gain` and `--critical-lambda` print these numbers.
    The rows at lam = 0.805 and 1 pin the evaluation at mu = min(lam, 1-lam).
    """

    # (lam, x1, x2, class, upsilon_l1 value, bch_gain_upper bound)
    POINTS = [
        (0.0, 1.0, 1.0, "q1", "0x0.0p+0", "0x0.0p+0"),
        (0.1, 2.5, 0.7, "q1", "0x1.49629377bd92bp-1", "0x1.10a5cd0e3a1ffp-2"),
        (0.3587, 1.449, 1.449, "q2", "0x1.ffbb2f940a55ep-1",
         "0x1.f98729d4df551p-1"),
        (0.3587, 3.04, 2.9, "q1", "0x1.9d26757dd44d3p+7",
         "0x1.0d04fef48a334p+23"),
        (0.5, 3.04, 3.04, "q1", "0x1.9d963f5f4f211p+9",
         "0x1.0ddfa4c78227dp+29"),
        (0.805, 0.3, 3.04, "q2", "0x1.090b45233417fp+0",
         "0x1.1c1a153c1fc20p+0"),
        (1.0, 2.0, 1.5, "plain", "0x0.0p+0", "0x0.0p+0"),
    ]
    # class -> (c2_improved value, sup_at_value)
    C2 = {
        "plain": ("0x1.72f9db22d0e45p+1", "0x1.ffdf09e99babbp-1"),
        "q1": ("0x1.73b645a1cabf0p+1", "0x1.ffe43cf0df516p-1"),
        "q2": ("0x1.736c8b43957fbp+1", "0x1.fff37ce09811bp-1"),
    }

    @pytest.mark.parametrize("lam,x1,x2,q,value,bound", POINTS)
    def test_point_values(self, lam, x1, x2, q, value, bound):
        assert upsilon_l1(lam, x1, x2).value == float.fromhex(value)
        assert bch_gain_upper(lam, CLASSES[q], x1, x2).bound \
            == float.fromhex(bound)

    def test_critical_lambda(self):
        mx, arg = max_upsilon_l1(C2_REFERENCE / 2, C2_REFERENCE / 2)
        assert (mx, arg) == (float.fromhex("0x1.0000002b44d0ep+0"),
                             float.fromhex("0x1.6f43518509578p-2"))

    @pytest.mark.parametrize("q", sorted(C2))
    def test_c2_scan(self, q):
        r = c2_improved(CLASSES[q])
        value, sup = self.C2[q]
        assert (r.value, r.sup_at_value) == (float.fromhex(value),
                                             float.fromhex(sup))

    @pytest.mark.parametrize("x", [0.5, C2_REFERENCE / 2, 3.04])
    def test_grid_columns_equal_point_evaluations(self, x):
        table = bch._grid_table()
        value, l1c, gain, _, _ = bch._cube_bound(table, Q1, x, x)
        for i in (0, 1, 300, 717, 1000):
            lam = float(bch._LAM_GRID[i])
            assert value[i] == upsilon_l1(lam, x, x).value
            assert l1c[i] - gain[i] == bch_gain_upper(lam, Q1, x, x).bound


LAM = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e-300, 5e-324]),
                st.floats(0.0, 1.0))
X = st.floats(0.0, math.pi, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(LAM, min_size=1, max_size=12), X, X,
       st.sampled_from(sorted(CLASSES)))
@example([0.0, 0.5, 1.0, 1e-300, 5e-324], 1.449, 1.449, "q2")
@example([0.3587, 0.805], 0.0, 2.0, "q1")
def test_points_equal_columns_of_one_table(lams, x1, x2, q):
    # the one-point path (0-d Horner, in-order row sums) against the
    # columns of one table built for every lam together, bit for bit
    table = bch._lam_table(lams)
    value, head, tail1, tail2, ok = bch._upsilon(table, x1, x2)
    l1, l1c, gain, ok3, aligned = bch._cube_bound(table, CLASSES[q], x1, x2)
    for i, lam in enumerate(lams):
        u = upsilon_l1(lam, x1, x2)
        g = bch_gain_upper(lam, CLASSES[q], x1, x2)
        got = [u.value, u.head, u.tail1, u.tail2, g.l1, g.l1_cubed, g.gain, g.bound]
        want = [value[i], head[i], tail1[i], tail2[i], l1[i], l1c[i], gain[i],
                l1c[i] - gain[i]]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (u.conclusive, g.conclusive, g.aligned, g.diagnostic is None) \
            == (ok[i], ok3[i], aligned[i], bool(aligned[i]))


def full_scan(cls):
    """The upward scan over every s, refining wherever the grid root lies
    within 1e-4 of 1: the oracle of the downward walk in c2_improved."""
    best = best_sup = None
    s = bch._S_LO
    while s <= bch._S_HI + 1e-12:
        x = s / 2.0
        _, l1c, gain, _, _ = bch._cube_bound(bch._grid_table(), cls, x, x)
        vals = l1c - gain
        sup = vals.max()
        if abs(sup ** (1.0 / 3.0) - 1.0) < 1e-4:
            sup, _ = refine_max(
                lambda l: bch_gain_upper(float(l), cls, x, x).bound,
                bch._LAM_GRID, vals)
        root = sup ** (1.0 / 3.0) if sup >= 0 else 0.0
        if root < 1.0:
            best, best_sup = s, root
        s += bch._S_STEP
    return best, best_sup


class TestScanWalk:
    """The downward walk over cached class-free columns against the full
    upward scan, bit for bit."""

    # q -> (value, sup_at_value) as float.hex, from the full upward scan
    PINNED = {
        None: ("0x1.72f9db22d0e45p+1", "0x1.ffdf09e99babbp-1"),
        1: ("0x1.73b645a1cabf0p+1", "0x1.ffe43cf0df516p-1"),
        Fraction(3, 2): ("0x1.73851eb851ea2p+1", "0x1.ffe0daacecdbdp-1"),
        2: ("0x1.736c8b43957fbp+1", "0x1.fff37ce09811bp-1"),
        3: ("0x1.734bc6a7ef9c7p+1", "0x1.fff1e2844903dp-1"),
        4: ("0x1.733b645a1caadp+1", "0x1.fff7cc8dcb319p-1"),
        8: ("0x1.731a9fbe76c79p+1", "0x1.ffe591cb4176bp-1"),
        100: ("0x1.73020c49ba5d2p+1", "0x1.fff78d411c1f1p-1"),
    }

    @staticmethod
    def cls_of(q):
        return PLAIN if q is None else ConvexityClass.from_q(q)

    @pytest.mark.parametrize("q", list(PINNED), ids=str)
    def test_walk_equals_full_scan(self, q):
        cls = self.cls_of(q)
        r = c2_improved(cls)
        got = (float.hex(r.value), float.hex(r.sup_at_value))
        want_value, want_sup = full_scan(cls)
        assert got == (float.hex(want_value), float.hex(float(want_sup)))
        assert got == self.PINNED[q]

    def test_results_are_python_floats(self):
        r = c2_improved(Q2)
        assert all(type(v) is float for v in (r.value, r.margin, r.sup_at_value))
        x = C2_REFERENCE / 2
        assert all(type(v) is float for v in max_upsilon_l1(x, x))

    def test_independent_of_call_order(self):
        bch._scan_cube.cache_clear()
        for q in (2, None):
            r = c2_improved(self.cls_of(q))
            assert (float.hex(r.value), float.hex(r.sup_at_value)) == self.PINNED[q]

    def test_column_cache_holds_one_entry_per_scan_point(self):
        for q in self.PINNED:
            c2_improved(self.cls_of(q))
        points = bch._scan_points()
        assert len(points) == 161
        assert 0 < bch._scan_cube.cache_info().currsize <= len(points)

    def test_refines_only_a_grid_root_just_below_one(self, monkeypatch):
        # refinement never lowers the sup, so a grid root >= 1 must not
        # pay for it
        roots = []

        def spy(f, xs, vals, *args):
            roots.append(float(vals.max()) ** (1.0 / 3.0))
            return refine_max(f, xs, vals, *args)

        monkeypatch.setattr(bch, "refine_max", spy)
        for q in self.PINNED:
            c2_improved(self.cls_of(q))
        assert roots and all(1.0 - 1e-4 < r < 1.0 for r in roots)
