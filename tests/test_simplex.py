"""The one-phase exact simplex: unit-column start, duals and certificates."""

from fractions import Fraction

import pytest

from magrad.simplex import SimplexError, simplex_min, verify_certificate

F = Fraction


class TestSimplexMin:
    # x0+/x0-, x1+/x1- and one shared column; row 0 has b < 0, so it is
    # negated and starts from x0-.  Row 1 has b = 0: the shared column enters
    # with a degenerate pivot and the optimal vertex keeps a basic zero.
    A = [[1, -1, 0, 0, -1],
         [0, 0, 1, -1, 1]]
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

    @pytest.mark.parametrize("A,b", [
        ([[1, 1], [1, -1]], [1, 0]),    # no column is e_0 or e_1
        ([[1]], [-1]),                  # b < 0 turns the only e_0 into -e_0
    ])
    def test_row_without_unit_column_raises(self, A, b):
        with pytest.raises(SimplexError):
            simplex_min(A, b, [1] * len(A[0]))
