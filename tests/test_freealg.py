"""Permutation sums and exact polynomial arithmetic."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from magrad.freealg import (
    LAM,
    LAM_MINUS_ONE,
    DegreeError,
    LambdaPoly,
    NCPoly,
    ascent_rows,
    eval_lambda,
    l1_norm,
    mu_ab,
    mu_lambda,
    _asc_des,
    _weight,
)


def mu_abc(a: int, b: int, c: int) -> NCPoly:
    """Permutation sum with both markers a+1/2 (prepended) and a+b+1/2 (appended).

    The markers coincide when b = 0; that is fine, they are never adjacent.
    """
    if min(a, b, c) < 0:
        raise DegreeError("a, b, c must be nonnegative")
    head, tail = (Fraction(2 * a + 1, 2),), (Fraction(2 * (a + b) + 1, 2),)
    return NCPoly({s: _weight(*_asc_des(head + s + tail))
                   for s in permutations(range(1, a + b + c + 1))})


def brute_mu(p1, lam, lo=None, hi=None):
    """Independent enumeration oracle: word -> exact coefficient."""
    out = {}
    for sigma in permutations(range(1, p1 + 1)):
        seq = sigma
        if lo is not None:
            seq = (lo,) + seq
        if hi is not None:
            seq = seq + (hi,)
        asc = sum(1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1])
        des = len(seq) - 1 - asc
        out[sigma] = lam ** asc * (lam - 1) ** des
    return out


# the 24-sign table of the half-point degree-4 permutation sum
MUMID_SIGNS = {
    (1, 2, 3, 4): 1, (1, 2, 4, 3): -1, (2, 1, 3, 4): -1, (2, 1, 4, 3): 1,
    (1, 3, 2, 4): -1, (1, 3, 4, 2): -1, (3, 1, 2, 4): -1, (3, 1, 4, 2): 1,
    (1, 4, 2, 3): -1, (1, 4, 3, 2): 1, (4, 1, 2, 3): -1, (4, 1, 3, 2): 1,
    (2, 3, 1, 4): -1, (2, 3, 4, 1): -1, (3, 2, 1, 4): 1, (3, 2, 4, 1): 1,
    (2, 4, 1, 3): -1, (2, 4, 3, 1): 1, (4, 2, 1, 3): 1, (4, 2, 3, 1): 1,
    (3, 4, 1, 2): -1, (3, 4, 2, 1): 1, (4, 3, 1, 2): 1, (4, 3, 2, 1): -1,
}


class TestAscentDescent:
    def test_examples(self):
        assert _asc_des((0.5, 1, 2, 3, 4)) == (4, 0)
        assert _asc_des((0.5, 4, 3, 2, 1)) == (1, 3)
        assert _asc_des((1.5, 1, 2)) == (1, 1)

    @given(st.lists(st.fractions(max_denominator=50), min_size=2, max_size=9,
                    unique=True))
    def test_counts_partition_transitions(self, seq):
        asc, des = _asc_des(seq)
        assert asc + des == len(seq) - 1
        assert asc >= 0 and des >= 0


class TestMuLambda:
    def test_k1(self):
        p = mu_lambda(1)
        assert p.terms == {(1,): LambdaPoly.const(1)}

    def test_identity_word_coefficient(self):
        for k in (2, 3, 4, 5):
            assert mu_lambda(k).coeff(tuple(range(1, k + 1))) == LAM ** (k - 1)

    def test_half_point_table(self):
        p = eval_lambda(mu_lambda(4), Fraction(1, 2))
        assert set(p.terms) == set(MUMID_SIGNS)
        for w, s in MUMID_SIGNS.items():
            assert p.coeff(w) == Fraction(s, 8)

    def test_k3_against_bruteforce(self):
        p = eval_lambda(mu_lambda(3), Fraction(1, 2))
        oracle = brute_mu(3, Fraction(1, 2))
        assert all(p.coeff(w) == c for w, c in oracle.items())
        assert all(abs(c) == Fraction(1, 4) for c in p.terms.values())

    def test_coefficient_degree_bounded(self):
        for k in (2, 3, 4):
            p = mu_lambda(k)
            assert all(c.degree <= k - 1 for c in p.terms.values())

    def test_degree_range(self):
        with pytest.raises(DegreeError):
            mu_lambda(0)
        with pytest.raises(DegreeError):
            mu_lambda(9)

    def test_eval_at_one_keeps_identity_only(self):
        p = eval_lambda(mu_lambda(4), Fraction(1))
        assert p.terms == {(1, 2, 3, 4): Fraction(1)}


class TestMuAB:
    def test_first_and_last_words(self):
        p = mu_ab(0, 4)
        assert p.coeff((1, 2, 3, 4)) == LAM ** 4
        lam = LAM
        assert p.coeff((4, 3, 2, 1)) == -(lam * (1 - lam) ** 3)

    def test_single_letter(self):
        assert mu_ab(0, 1).terms == {(1,): LAM}
        assert mu_ab(1, 0).terms == {(1,): LambdaPoly((-1, 1))}

    @pytest.mark.parametrize("a,b", [(2, 2), (1, 3), (0, 3), (2, 1)])
    def test_against_bruteforce(self, a, b):
        lam = Fraction(3, 7)
        got = eval_lambda(mu_ab(a, b), lam)
        oracle = brute_mu(a + b, lam, lo=Fraction(2 * a + 1, 2))
        assert {w: c for w, c in oracle.items() if c} == got.terms

    @pytest.mark.parametrize("a,b", [(0, 2), (1, 2), (2, 2), (0, 4)])
    def test_reversal_symmetry(self, a, b, mirror):
        # lam -> 1-lam, letters complemented, global sign (-1)^(a+b)
        p1 = a + b + 1
        lhs = mu_ab(a, b)
        rhs = mu_ab(b, a)
        sign = (-1) ** (a + b)
        transformed = NCPoly({
            tuple(p1 - x for x in w): sign * mirror(c)
            for w, c in lhs.terms.items()
        })
        assert transformed == rhs

    def test_rusen_spot_values(self):
        lam = Fraction(1, 3)
        p = eval_lambda(mu_ab(0, 4), lam)
        assert p.coeff((2, 1, 4, 3)) == lam ** 2 * (1 - lam) ** 2
        assert p.coeff((1, 2, 4, 3)) == -(lam ** 3) * (1 - lam)
        assert p.coeff((4, 3, 2, 1)) == -lam * (1 - lam) ** 3


class TestAscentCounts:
    EULERIAN_8 = [1, 247, 4293, 15619, 15619, 4293, 247, 1]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts_cover_every_word(self, k):
        rows = ascent_rows(k)
        assert len(rows) == k + 1
        for a, counts in enumerate(rows):
            assert sum(counts) == factorial(k) and len(counts) == k + 1
            # reversal: Theta_ab(lam) = Theta_ba(1 - lam)
            assert counts == rows[k - a][::-1]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rows_match_the_permutation_count(self, k):
        # the k! enumeration the recursive build replaces: the marker a+1/2
        # ascends into s exactly when s(1) > a
        want = [[0] * (k + 1) for _ in range(k + 1)]
        for s in permutations(range(1, k + 1)):
            asc = _asc_des(s)[0]
            for a in range(k + 1):
                want[a][asc + (s[0] > a)] += 1
        assert ascent_rows(k) == tuple(map(tuple, want))

    def test_eulerian_numbers_and_outer_markers(self):
        # marker 1/2 ascends into every word, marker 8 + 1/2 descends, so the
        # outer markers shift the Eulerian row of S_8 by one ascent or none
        assert ascent_rows(8)[0] == (0, *self.EULERIAN_8)
        assert ascent_rows(8)[8] == (*self.EULERIAN_8, 0)

    def test_rows_match_the_word_weights(self):
        # N_a(j) counts the words of mu_ab(a, k-a) weighted lam^j (lam-1)^(k-j)
        for k in range(1, 5):
            for a in range(k + 1):
                weights = list(mu_ab(a, k - a).terms.values())
                assert ascent_rows(k)[a] == tuple(
                    weights.count(LAM ** j * LAM_MINUS_ONE ** (k - j))
                    for j in range(k + 1))

    def test_degree_checked(self):
        for k in (0, 9):
            with pytest.raises(DegreeError):
                ascent_rows(k)


class TestMuABC:
    def test_c_zero_scales_by_lam(self):
        lhs = mu_abc(1, 2, 0)
        rhs = mu_ab(1, 2)
        assert lhs == NCPoly({w: LAM * c for w, c in rhs.terms.items()})

    def test_rotation_identity_all_small_degrees(self):
        # raising the low marker equals rotating the first argument out;
        # exact for every marker split with a+b+c+1 <= 6
        for total in range(1, 6):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    m = total + 1
                    lhs = mu_abc(a + 1, b, c)
                    rhs = mu_abc(a, b, c + 1)
                    relabeled = NCPoly({tuple((x % m) + 1 for x in w): cf
                                        for w, cf in rhs.terms.items()})
                    assert lhs == relabeled, (a, b, c)

    def test_against_bruteforce(self):
        a, b, c = 0, 2, 1
        lam = Fraction(2, 5)
        got = eval_lambda(mu_abc(a, b, c), lam)
        oracle = brute_mu(a + b + c, lam, lo=Fraction(2 * a + 1, 2),
                          hi=Fraction(2 * (a + b) + 1, 2))
        assert {w: cf for w, cf in oracle.items() if cf} == got.terms


class TestL1AndJson:
    def test_l1_of_half_point_table(self):
        p = eval_lambda(mu_lambda(4), Fraction(1, 2))
        assert l1_norm(p) == 3
        assert l1_norm(p) / 24 == Fraction(1, 8)

    def test_l1_zero_and_symbolic_error(self):
        assert l1_norm(NCPoly()) == 0
        with pytest.raises(TypeError):
            l1_norm(mu_lambda(2))

    def test_l1_mu_ab_half(self):
        lam = Fraction(1, 2)
        p = eval_lambda(mu_ab(0, 4), lam)
        assert l1_norm(p) == -8 * lam ** 3 + 8 * lam ** 2 + lam

    def test_json_roundtrip_and_order(self):
        p = eval_lambda(mu_lambda(3), Fraction(1, 2))
        text = p.to_json()
        assert NCPoly.from_json(text) == p
        words = [tuple(t["word"]) for t in __import__("json").loads(text)["terms"]]
        assert words == sorted(words)

    def test_json_symbolic_roundtrip(self):
        p = mu_ab(1, 1)
        assert NCPoly.from_json(p.to_json()) == p


class TestLambdaPoly:
    def test_arithmetic_and_trim(self):
        x = LambdaPoly((1, 2, 0, 0))
        assert x.coeffs == (1, 2)
        assert (x - x).coeffs == ()
        assert not (x - x)
        assert (x * 0).coeffs == ()

    def test_pow_and_eval(self):
        p = LambdaPoly((-1, 1)) ** 3
        assert p(Fraction(1, 2)) == Fraction(-1, 8)
        assert p(1.0) == 0.0
