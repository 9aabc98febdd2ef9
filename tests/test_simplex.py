"""The one-phase sparse exact simplex: unit-column start, duals and certificates."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrad.freealg import eval_lambda, mu_ab
from magrad.simplex import SimplexError, simplex_min, verify_certificate
from magrad.umqnorm import ConvexityClass, fa_norm_exact

F = Fraction
Q1 = ConvexityClass.from_q(1)


class TestSimplexMin:
    # x0+/x0-, x1+/x1- and one shared column; row 0 has b < 0, so it is
    # negated and starts from x0-.  Row 1 has b = 0: the shared column enters
    # with a degenerate pivot and the optimal vertex keeps a basic zero.
    A = [{0: 1, 1: -1, 4: -1},
         {2: 1, 3: -1, 4: 1}]
    b = [-1, 0]
    c = [1, 1, 1, 1, F(1, 2)]

    def test_negative_row_and_degenerate_optimum(self):
        res = simplex_min(self.A, self.b, self.c)
        assert res.value == 1
        assert res.x == [0, 1, 0, 0, 0]
        assert sorted(res.basis) == [1, 4]
        assert verify_certificate(self.A, self.b, self.c, res)
        # the negated row's dual is read off x0- and negated back
        assert res.y == [-1, F(-1, 2)]

    def test_block_diagonal_with_zero_block_in_one_call(self):
        # the fixture again, beside a b = 0 block whose shared column 9 has
        # negative reduced cost at the start and enters degenerately
        A = self.A + [{5: 1, 6: -1, 9: 1}, {7: 1, 8: -1, 9: 1}]
        b = self.b + [0, 0]
        c = self.c + [1, 1, 1, 1, F(1, 2)]
        res = simplex_min(A, b, c)
        assert verify_certificate(A, b, c, res)
        assert res.value == 1
        assert res.x == [0, 1] + [0] * 8
        assert res.y[:2] == [-1, F(-1, 2)]
        assert len(set(res.basis)) == 4 and 9 in res.basis

    @pytest.mark.parametrize("A,b", [
        ([{0: 1, 1: 1}, {0: 1, 1: -1}], [1, 0]),  # no column is e_0 or e_1
        ([{0: 1}], [-1]),               # b < 0 turns the only e_0 into -e_0
    ])
    def test_row_without_unit_column_raises(self, A, b):
        n = 1 + max(j for row in A for j in row)
        with pytest.raises(SimplexError):
            simplex_min(A, b, [1] * n)


class TestPivotRule:
    # Chvatal's LP ("Linear Programming", 1983, ch. 3): Dantzig's rule with
    # a lowest-basis-index tie-break cycles on it, and switching to Bland's
    # rule after 40 degenerate pivots ends it in 43.  Only row 2 has b != 0.
    CYCLE_A = [{0: F(1, 2), 1: F(-11, 2), 2: F(-5, 2), 3: 9, 4: 1},
               {0: F(1, 2), 1: F(-3, 2), 2: F(-1, 2), 3: 1, 5: 1},
               {0: 1, 6: 1}]
    CYCLE_b = [0, 0, 1]
    CYCLE_c = [-10, 57, 9, 24, 0, 0, 0]

    def test_cycling_lp_ends_in_three_pivots(self):
        res = simplex_min(self.CYCLE_A, self.CYCLE_b, self.CYCLE_c)
        assert res.value == -1
        assert res.pivots <= 3
        assert verify_certificate(self.CYCLE_A, self.CYCLE_b, self.CYCLE_c, res)

    # Theta_ab(1/3) at degrees 4 and 5 (tests/test_cli.py reads 23/486
    # through `magrad theta`); fa_norm_exact raises unless the certificate
    # verifies
    @pytest.mark.parametrize("a,b,want", [(2, 2, F(23, 486)), (1, 4, F(11, 729))])
    def test_theta_values_at_one_third(self, a, b, want):
        target = eval_lambda(mu_ab(a, b), F(1, 3))
        assert fa_norm_exact(target, Q1).value / factorial(a + b) == want


@st.composite
def degenerate_lps(draw):
    """A small LP with a unit-column start and a mostly zero b.

    Each of the m random rows has its own slack column; a last row caps the
    sum of the k structural columns, so every LP has an optimum.  Most b_i
    are 0, so many rows tie in the ratio test.
    """
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    A = [{**{j: v for j in range(k) if (v := draw(st.integers(-3, 3)))},
          k + i: 1} for i in range(m)]
    A.append({**dict.fromkeys(range(k), 1), k + m: 1})
    b = [draw(st.sampled_from([0, 0, 0, 1, 2])) for _ in range(m)]
    b.append(draw(st.integers(1, 3)))
    c = [draw(st.integers(-4, 4)) for _ in range(k + m + 1)]
    return A, b, c


@settings(max_examples=300, deadline=None)
@given(degenerate_lps())
def test_degenerate_lps_end_with_a_certificate(lp):
    res = simplex_min(*lp)
    assert verify_certificate(*lp, res)
