"""The one-phase sparse exact simplex: unit-column start, duals and certificates."""

from fractions import Fraction
from math import factorial

import pytest

from magrad import simplex
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


class TestBlandRule:
    # Theta_ab(1/3) as Dantzig's rule solves them (tests/test_cli.py reads
    # 23/486 through `magrad theta`)
    @pytest.mark.parametrize("a,b,want", [(2, 2, F(23, 486)), (1, 4, F(11, 729))])
    def test_bland_from_the_start_reaches_dantzigs_optimum(self, monkeypatch,
                                                           a, b, want):
        # with no degenerate pivot tolerated every entering column is
        # chosen by Bland's rule; fa_norm_exact raises unless the
        # certificate verifies
        monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
        target = eval_lambda(mu_ab(a, b), F(1, 3))
        assert fa_norm_exact(target, Q1).value / factorial(a + b) == want
