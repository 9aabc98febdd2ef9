"""Helpers shared by several test modules."""

import pytest

from magrad.freealg import LAM, LambdaPoly


@pytest.fixture
def mirror():
    """The substitution lam -> 1 - lam on a LambdaPoly, exact."""
    def substitute(p: LambdaPoly) -> LambdaPoly:
        acc = LambdaPoly()
        for c in reversed(p.coeffs):
            acc = acc * (1 - LAM) + c
        return acc
    return substitute
