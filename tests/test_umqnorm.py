"""Quasi-monomial enumeration and the exact LP norm."""

import copy
import time
from fractions import Fraction
from math import factorial

import pytest

from magrad import umqnorm
from magrad.freealg import DegreeError, NCPoly, eval_lambda, l1_norm, mu_ab, mu_lambda
from magrad.umqnorm import (
    PLAIN,
    ConvexityClass,
    ExhaustiveCapError,
    enumerate_quasimonomials,
    fa_norm_exact,
    fa_norm_upper,
    leaf,
    prod,
    theta_ab,
    theta_k,
    xi,
    xi_eval,
    _lp,
)

Q1 = ConvexityClass.from_q(1)
Q2 = ConvexityClass.from_q(2)
HALF = Fraction(1, 2)


def mono(*letters):
    return NCPoly.monomial(tuple(letters))


class TestConvexityClass:
    def test_q1_exact(self):
        assert Q1.exact and Q1.kappa_lo == HALF

    def test_q2_enclosure(self):
        assert not Q2.exact
        assert Q2.kappa_lo < Q2.kappa_hi
        assert float(Q2.kappa_hi - Q2.kappa_lo) < 1e-20
        assert Q2.kappa_lo ** 2 < HALF < Q2.kappa_hi ** 2

    def test_plain(self):
        assert PLAIN.is_plain and PLAIN.kappa_lo == 1

    @pytest.mark.parametrize("q", ["3/2", "2", "3", "4", "8", "100", "1000"])
    def test_kappa_root_is_the_floor_root(self, q):
        # the enclosure of 2**(-1/q) rests on the floor qn-th root of
        # 2**qd * 10**(25*qn)
        qn, qd = Fraction(q).numerator, Fraction(q).denominator
        x = 2 ** qd * 10 ** (25 * qn)
        m = umqnorm._int_nth_root(x, qn)
        assert m ** qn <= x < (m + 1) ** qn

    def test_long_rational_q_parses_quickly(self):
        # q = 10001/10000 takes the 10001-th root of a ~830000-bit integer
        start = time.perf_counter()
        cls = ConvexityClass.from_q(Fraction(10001, 10000))
        assert time.perf_counter() - start < 2.0
        assert cls.kappa_lo < cls.kappa_hi
        assert float(cls.kappa_lo) == pytest.approx(2 ** (-10000 / 10001), rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConvexityClass.from_q(Fraction(1, 2))
        with pytest.raises(ValueError):
            ConvexityClass(None, Fraction(1, 4), Fraction(1, 4))


class TestXiEval:
    def test_distinct_generators(self):
        got = xi_eval(mono(1), mono(2), mono(3), mono(4))
        want = (mono(1, 2, 3, 4) + mono(2, 1, 3, 4) + mono(1, 2, 4, 3)
                - mono(2, 1, 4, 3)).scale(Fraction(1, 4))
        assert got == want

    def test_repeated_first_pair_collapses(self):
        got = xi_eval(mono(1), mono(1), mono(3), mono(4))
        assert got == mono(1, 1, 3, 4).scale(HALF)

    def test_framed_cross_combination(self):
        # Y1 Y2 * Xi(Y2, Y1, Y2 Y1, Y2) * Y2 hits four 8-letter words
        q = prod([leaf(1), leaf(2),
                  xi(leaf(2), leaf(1), prod([leaf(2), leaf(1)]), leaf(2)),
                  leaf(2)])
        p = q.evaluate()
        quarter = Fraction(1, 4)
        assert p.coeff((1, 2, 2, 1, 2, 2, 1, 2)) == quarter
        assert p.coeff((1, 2, 1, 2, 2, 1, 2, 2)) == quarter
        assert p.coeff((1, 2, 2, 1, 2, 1, 2, 2)) == quarter
        assert p.coeff((1, 2, 1, 2, 2, 2, 1, 2)) == -quarter
        assert q.xi_count == 1


class TestEnumeration:
    def test_degree3_monomials_only(self):
        qs = enumerate_quasimonomials(3, (1, 2, 3))
        assert len(qs) == 6
        assert all(q.xi_count == 0 for q in qs)

    def test_degree4_counts(self):
        qs = enumerate_quasimonomials(4, (1, 2, 3, 4))
        monos = [q for q in qs if q.xi_count == 0]
        crosses = [q for q in qs if q.xi_count == 1]
        assert (len(monos), len(crosses)) == (24, 24)

    def test_degree5_counts_frozen(self):
        qs = enumerate_quasimonomials(5, (1, 2, 3, 4, 5))
        monos = sum(1 for q in qs if q.xi_count == 0)
        assert monos == 120
        assert len(qs) == 840

    def test_cap_error(self):
        with pytest.raises(ExhaustiveCapError):
            enumerate_quasimonomials(6, (1, 2, 3, 4, 5, 6))

    def test_multiset_size_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_quasimonomials(4, (1, 2, 3))


class TestNormExact:
    def test_single_monomial(self):
        v = fa_norm_exact(mono(1, 2, 1).scale(Fraction(-3, 7)), Q1)
        assert v.exact and v.value == Fraction(3, 7)

    def test_degree_le3_equals_l1(self):
        polys = [
            eval_lambda(mu_lambda(3), Fraction(1, 3)),
            mono(1, 2, 3) - mono(3, 2, 1).scale(Fraction(5, 2)),
            eval_lambda(mu_ab(1, 1), Fraction(2, 7)),
        ]
        for p in polys:
            assert fa_norm_exact(p, Q1).value == l1_norm(p)

    def test_half_point_degree4(self):
        p = eval_lambda(mu_lambda(4), HALF)
        v = fa_norm_exact(p, Q1)
        assert v.value == Fraction(5, 2)           # 24 * (1/8)(2/3 + kappa/3)
        assert v.value <= l1_norm(p)

    def test_never_exceeds_l1(self):
        for lam in (Fraction(1, 5), Fraction(2, 5), Fraction(4, 5)):
            p = eval_lambda(mu_ab(0, 4), lam)
            assert fa_norm_exact(p, Q1).value <= l1_norm(p)

    def test_kappa_monotone_concave(self):
        p = eval_lambda(mu_lambda(4), HALF)
        ks = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
        vals = [fa_norm_exact(p, ConvexityClass(None, k, k)).value for k in ks]
        assert vals == sorted(vals)
        # concavity along the evenly spaced refinement 1/2, 3/4, 1
        assert vals[1] >= (vals[0] + vals[3]) / 2
        assert vals[3] == l1_norm(p)

    def test_enclosure_q2(self):
        p = eval_lambda(mu_lambda(4), HALF)
        v = fa_norm_exact(p, Q2)
        # value is (2 + kappa) at kappa = 2**(-1/2)
        assert v.lo < v.hi and float(v.width) < 1e-12
        assert (v.lo - 2) ** 2 < HALF < (v.hi - 2) ** 2

    def test_rejects_symbolic_and_inhomogeneous(self):
        with pytest.raises(TypeError):
            fa_norm_exact(mu_lambda(2), Q1)
        with pytest.raises(ValueError):
            fa_norm_exact(mono(1) + mono(1, 2), Q1)

    def test_certificates_verify_independently(self):
        # columns rebuilt from the public enumeration, each normalized by its
        # lead coefficient: direction poly / lead, unit cost kappa**xi / |lead|
        p = eval_lambda(mu_ab(0, 4), Fraction(1, 3))
        v = fa_norm_exact(p, Q1)
        (cert,) = v.certificates
        cols = []
        for qm in enumerate_quasimonomials(4, (1, 2, 3, 4)):
            poly = qm.evaluate()
            lead = poly.terms[poly.support[0]]
            cols.append((poly.scale(1 / lead),
                         cert.kappa ** qm.xi_count / abs(lead)))
        # dual feasibility: |y . column| <= cost for every column
        for poly, unit_cost in cols:
            pairing = sum(cert.duals.get(w, Fraction(0)) * cv
                          for w, cv in poly.terms.items())
            assert abs(pairing) <= unit_cost
        # primal reconstruction hits the target and the value
        acc = NCPoly()
        cost = Fraction(0)
        for j, cv in cert.coefficients.items():
            poly, unit_cost = cols[j]
            acc = acc + poly.scale(cv)
            cost += abs(cv) * unit_cost
        assert acc == p and cost == v.value
        # dual objective equals the optimum
        dual_val = sum(cert.duals[w] * c for w, c in p.terms.items())
        assert dual_val == v.value

    @pytest.mark.parametrize("cls", [Q1, Q2], ids=["q1", "q2"])
    def test_certificate_basis_is_one_lp_column_per_row(self, cls):
        # mu_ab(0, 4) at lam = 1/3 splits into several support components,
        # all solved as one LP: column 2j is x+ and 2j+1 is x- of column j
        p = eval_lambda(mu_ab(0, 4), Fraction(1, 3))
        qms = enumerate_quasimonomials(4, (1, 2, 3, 4))
        rows = {w for qm in qms for w in qm.evaluate().terms}
        for cert in fa_norm_exact(p, cls).certificates:
            assert len(cert.basis) == len(set(cert.basis)) == len(rows)
            assert all(0 <= e < 2 * len(qms) for e in cert.basis)


class TestLPStructure:
    def test_built_once_per_letter_multiset(self):
        _lp.cache_clear()
        for cls in (Q1, Q2):
            for k in range(1, 8):
                lam = Fraction(k, 8)
                for a in range(5):
                    fa_norm_exact(eval_lambda(mu_ab(a, 4 - a), lam), cls)
        fa_norm_exact(mono(1, 1, 2, 3), Q1)
        assert _lp.cache_info().misses == 2
        assert _lp.cache_info().hits == 2 * 7 * 5 - 1

    def test_solves_leave_the_shared_matrix_unchanged(self):
        lp = _lp(4, (1, 2, 3, 4))
        before = copy.deepcopy([dict(row) for row in lp.A])
        for cls in (Q1, Q2, PLAIN):
            fa_norm_exact(eval_lambda(mu_ab(1, 3), Fraction(2, 5)), cls)
        assert [dict(row) for row in lp.A] == before
        with pytest.raises(TypeError):
            lp.A[0][0] = Fraction(0)

    def test_target_word_outside_the_rows_raises(self, monkeypatch):
        lp = _lp(4, (1, 2, 3, 4))
        rows = {w: i for i, w in enumerate(lp.rows) if w != (1, 2, 3, 4)}
        monkeypatch.setattr(umqnorm, "_lp",
                            lambda degree, gens: lp._replace(rows=rows))
        with pytest.raises(ValueError, match="not a row"):
            fa_norm_exact(mono(1, 2, 3, 4), Q1)


class TestNormUpper:
    def test_empty_cross_terms_is_l1(self):
        p = eval_lambda(mu_lambda(4), HALF)
        assert fa_norm_upper(p, Q1) == l1_norm(p)

    def test_two_line_decomposition_matches_exact(self):
        # the two productive cross-terms of the half-point degree-4 sum:
        # one negatively aligned, one positively aligned
        p = eval_lambda(mu_lambda(4), HALF)
        ct_b = xi(leaf(1), leaf(3), leaf(2), leaf(4))
        ct_e = xi(leaf(4), leaf(2), leaf(3), leaf(1))
        ub = fa_norm_upper(p, Q1, [ct_b, ct_e])
        assert ub == Fraction(5, 2)               # (2/3 + kappa/3) * 3
        assert fa_norm_exact(p, Q1).value == ub

    def test_misaligned_cross_term_is_inert(self):
        p = mono(1, 2, 3, 4) + mono(2, 1, 3, 4)
        ct = xi(leaf(1), leaf(2), leaf(3), leaf(4))   # minus-sign word absent
        assert fa_norm_upper(p, Q1, [ct]) == l1_norm(p)

    def test_sandwiched(self):
        for lam in (Fraction(1, 5), Fraction(2, 5)):
            p = eval_lambda(mu_ab(0, 4), lam)
            exact = fa_norm_exact(p, Q1).value
            up = fa_norm_upper(p, Q1, [xi(leaf(1), leaf(3), leaf(2), leaf(4))])
            assert exact <= up <= l1_norm(p)


class TestTheta:
    def test_theta_ab_symmetry(self):
        for lam in (Fraction(1, 5), Fraction(1, 3)):
            for a, b in ((0, 4), (1, 3), (2, 2)):
                assert theta_ab(a, b, 1 - lam, Q1).value \
                    == theta_ab(b, a, lam, Q1).value

    def test_theta_single_letter(self):
        for lam in (Fraction(1, 4), Fraction(2, 3)):
            assert theta_ab(0, 1, lam, Q1).value == lam
            assert theta_ab(1, 0, lam, Q1).value == 1 - lam

    def test_theta22_half_enclosure_q2(self):
        v = theta_ab(2, 2, HALF, Q2)
        # value is (2 + kappa)/48 at kappa = 2**(-1/2)
        assert float(v.width) < 1e-12
        assert (48 * v.lo - 2) ** 2 < HALF < (48 * v.hi - 2) ** 2

    def test_theta_k_values(self):
        assert theta_k(1, HALF, Q1).value == 1
        assert theta_k(4, HALF, Q1).value == Fraction(5, 48)
        assert theta_k(4, HALF, PLAIN).value == Fraction(1, 8)

    @pytest.mark.parametrize("cls", [Q1, Q2], ids=["q1", "q2"])
    def test_theta_k_equals_direct_route(self, cls):
        # theta_k reads theta_ab(0, k) (or theta_ab(k, 0) at lam = 0); the
        # unmarked sum's own LP must give the same lo/hi Fractions
        for k in range(1, 5):
            for lam in (Fraction(0), Fraction(1, 3), HALF, Fraction(1)):
                want = fa_norm_exact(eval_lambda(mu_lambda(k), lam), cls)
                want = want.scale(Fraction(1, factorial(k)))
                got = theta_k(k, lam, cls)
                assert (got.lo, got.hi) == (want.lo, want.hi), (k, lam)

    def test_cap_propagates(self):
        with pytest.raises(ExhaustiveCapError):
            theta_ab(0, 6, HALF, Q1)

    @pytest.mark.parametrize("lam", [
        Fraction(0), Fraction(1), HALF, Fraction(2, 7), Fraction(5, 9),
        Fraction(1006, 1009), Fraction(3, 2), Fraction(-1, 5)])
    def test_plain_equals_l1_of_evaluated_sum(self, lam):
        for k in range(1, 8):
            want = l1_norm(eval_lambda(mu_lambda(k), lam)) / factorial(k)
            assert theta_k(k, lam, PLAIN).value == want
            for a in range(k + 1):
                want = l1_norm(eval_lambda(mu_ab(a, k - a), lam)) / factorial(k)
                assert theta_ab(a, k - a, lam, PLAIN).value == want

    def test_plain_degree_errors(self):
        for a, b in ((-1, 3), (3, -1), (0, 0), (0, 9)):
            with pytest.raises(DegreeError):
                theta_ab(a, b, HALF, PLAIN)
        for k in (-1, 0, 9):
            with pytest.raises(DegreeError, match=f"degree {k} outside"):
                theta_k(k, HALF, PLAIN)

    def test_degree4_formulas_seven_points_per_side(self):
        # the degree-4 norm polynomials are degree <= 5 in lam per side,
        # so seven exact matches per side pin them as identities
        def formula(a, b, lam):
            if (a, b) == (0, 4):
                plain, gain = -8 * lam ** 3 + 8 * lam ** 2 + lam, \
                    8 * lam ** 2 * (1 - lam) * min(lam, 1 - lam)
            elif (a, b) == (1, 3):
                plain, gain = 4 * lam ** 4 - 14 * lam ** 3 + 8 * lam ** 2 \
                    + 2 * lam, 8 * lam ** 2 * (1 - lam) * min(lam, 1 - lam)
            else:
                plain, gain = 8 * lam ** 4 - 16 * lam ** 3 + 4 * lam ** 2 \
                    + 4 * lam, 4 * lam * (1 - lam) * min(lam, 1 - lam)
            return (plain - HALF * gain) / 24
        for k in list(range(1, 8)) + list(range(10, 17)):
            lam = Fraction(k, 17)
            for ab in ((0, 4), (1, 3), (2, 2)):
                assert theta_ab(*ab, lam, Q1).value == formula(*ab, lam)


def test_degree5_exact_norm_frozen():
    """One full-size exact LP: the largest instance the solver must handle."""
    v = theta_ab(0, 5, HALF, Q1)
    assert v.exact and v.value == Fraction(1, 48)
    plain = theta_ab(0, 5, HALF, PLAIN).value
    assert v.value <= plain == Fraction(1, 32)
