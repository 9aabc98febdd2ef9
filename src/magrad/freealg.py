"""Exact noncommutative polynomial arithmetic and ascent/descent permutation sums.

Words are tuples of 1-based generator indices; coefficients are either
`fractions.Fraction` or `LambdaPoly` (a polynomial in the resolvent parameter
``lam`` with exact rational coefficients).  The permutation sums built here
weight each monomial ``Y_{s(1)}...Y_{s(m)}`` by ``lam^asc * (lam-1)^des``,
where the ascent/descent counts may include half-integer boundary markers.

The ell^1 norm of such a sum at a rational lam needs no per-lam polynomial:
every coefficient is lam^j * (lam-1)^(n-j) with n the number of
transitions, so the norm is sum_j N(j) |lam|^j |lam-1|^(n-j), where N(j)
counts the permutations with j ascents.  `perm_sum_l1` takes N from one
lam-independent table per degree k, counting the s in S_k by first letter
s(1) and ascents of s.  The table serves every marker a+1/2: the marker
transition is an ascent exactly when s(1) > a.  Each new lam then costs O(k)
exact operations instead of k! polynomial evaluations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping, Optional, Sequence, Union

from .series import horner

Word = tuple[int, ...]

#: degrees above this are refused by the permutation-sum builders
DEFAULT_MAX_DEGREE = 8


class DegreeError(ValueError):
    """Requested degree outside the configured range."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class LambdaPoly:
    """Polynomial in ``lam`` with Fraction coefficients, lowest power first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "LambdaPoly":
        return cls((c,))

    @classmethod
    def coerce(cls, x) -> "LambdaPoly":
        return x if isinstance(x, LambdaPoly) else cls.const(x)

    @property
    def degree(self) -> int:
        """Degree in ``lam``; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LambdaPoly.const(other)
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "LambdaPoly":
        other = LambdaPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "LambdaPoly":
        return self + (-LambdaPoly.coerce(other))

    def __rsub__(self, other) -> "LambdaPoly":
        return LambdaPoly.coerce(other) + (-self)

    def __mul__(self, other) -> "LambdaPoly":
        other = LambdaPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LambdaPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return LambdaPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LambdaPoly":
        if n < 0:
            raise ValueError("negative power")
        out = LambdaPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, lam):
        """Evaluate at ``lam`` (Fraction for exact, float for numeric)."""
        return horner(self.coeffs, lam)

    def integrate01(self) -> Fraction:
        """Exact integral over lam in [0, 1]."""
        return sum((c / (i + 1) for i, c in enumerate(self.coeffs)), Fraction(0))

    def compose_affine(self, c0, c1) -> "LambdaPoly":
        """Substitute ``lam -> c0 + c1*lam`` (exact)."""
        arg = LambdaPoly((c0, c1))
        acc = LambdaPoly()
        for c in reversed(self.coeffs):
            acc = acc * arg + LambdaPoly.const(c)
        return acc

    def __repr__(self):
        return f"LambdaPoly({list(self.coeffs)!r})"


#: the polynomial ``lam``
LAM = LambdaPoly((0, 1))
#: the polynomial ``lam - 1``
LAM_MINUS_ONE = LambdaPoly((-1, 1))

Coeff = Union[Fraction, LambdaPoly]


def _is_zero_coeff(c) -> bool:
    return not c


class NCPoly:
    """Noncommutative polynomial: a map from words to exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Coeff] = ()):
        d = dict(terms)
        self.terms = {w: c for w, c in d.items() if not _is_zero_coeff(c)}

    @classmethod
    def monomial(cls, word: Word, coeff=Fraction(1)) -> "NCPoly":
        return cls({tuple(word): coeff})

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    def coeff(self, word: Word):
        return self.terms.get(tuple(word), Fraction(0))

    @property
    def support(self) -> list[Word]:
        return sorted(self.terms)

    def is_homogeneous(self) -> bool:
        lens = {len(w) for w in self.terms}
        return len(lens) <= 1

    @property
    def degree(self) -> int:
        """Common word length; raises if non-homogeneous."""
        lens = {len(w) for w in self.terms}
        if not lens:
            return 0
        if len(lens) > 1:
            raise ValueError("polynomial is not homogeneous")
        return lens.pop()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPoly(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scale(self, c) -> "NCPoly":
        return NCPoly({w: c * cw for w, cw in self.terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        out: dict[Word, Coeff] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(out)

    def map_coeffs(self, f) -> "NCPoly":
        return NCPoly({w: f(c) for w, c in self.terms.items()})

    def generator_multiset(self) -> tuple[int, ...]:
        """Sorted letters of any word; raises if words disagree."""
        if not self.terms:
            return ()
        sets = {tuple(sorted(w)) for w in self.terms}
        if len(sets) > 1:
            raise ValueError("words use different generator multisets")
        return sets.pop()

    def to_json(self) -> str:
        items = []
        for w in self.support:
            c = self.terms[w]
            cs = c.coeffs if isinstance(c, LambdaPoly) else (c,)
            items.append({"word": list(w), "coeff": [str(x) for x in cs]})
        deg = self.degree if self.is_homogeneous() else None
        return json.dumps({"degree": deg, "terms": items}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NCPoly":
        data = json.loads(text)
        terms: dict[Word, Coeff] = {}
        plain = all(len(t["coeff"]) <= 1 for t in data["terms"])
        for t in data["terms"]:
            w = tuple(int(i) for i in t["word"])
            cs = [Fraction(s) for s in t["coeff"]]
            if plain:
                terms[w] = cs[0] if cs else Fraction(0)
            else:
                terms[w] = LambdaPoly(cs)
        return cls(terms)

    def __repr__(self):
        return f"NCPoly({self.terms!r})"


def _asc_des(vals: Sequence) -> tuple[int, int]:
    asc = sum(1 for i in range(len(vals) - 1) if vals[i] < vals[i + 1])
    return asc, len(vals) - 1 - asc


def ascent_descent(seq: Sequence) -> tuple[int, int]:
    """Count ascents and descents of a sequence of pairwise distinct values."""
    vals = list(seq)
    if len(set(vals)) != len(vals):
        raise ValueError("sequence entries must be pairwise distinct")
    return _asc_des(vals)


_weight_cache: dict[tuple[int, int], LambdaPoly] = {}


def _weight(asc: int, des: int) -> LambdaPoly:
    w = _weight_cache.get((asc, des))
    if w is None:
        w = _weight_cache[(asc, des)] = LAM ** asc * LAM_MINUS_ONE ** des
    return w


def _check_degree(k: int, max_degree: int):
    if not 1 <= k <= max_degree:
        raise DegreeError(f"degree {k} outside [1, {max_degree}]")


def _perm_sum(k: int, max_degree: int, head: tuple = (), tail: tuple = ()) -> NCPoly:
    """Sum of the words s in S_k, weighted by lam^asc * (lam-1)^des of the
    sequence head + s + tail (distinct by construction, so left unchecked)."""
    _check_degree(k, max_degree)
    return NCPoly({s: _weight(*_asc_des(head + s + tail))
                   for s in permutations(range(1, k + 1))})


def mu_lambda(k: int, max_degree: int = DEFAULT_MAX_DEGREE) -> NCPoly:
    """Permutation sum over S_k with weight lam^asc(s) * (lam-1)^des(s).

    The k! monomials are the words Y_{s(1)}...Y_{s(k)}; the identity word
    carries lam^(k-1).
    """
    return _perm_sum(k, max_degree)


def mu_ab(a: int, b: int, max_degree: int = DEFAULT_MAX_DEGREE) -> NCPoly:
    """Permutation sum with the low boundary marker a+1/2 prepended.

    The marker participates in the first ascent/descent transition but not in
    the word; a counts letters conceptually below the marker, b above.
    """
    if a < 0 or b < 0:
        raise DegreeError("a, b must be nonnegative")
    return _perm_sum(a + b, max_degree, head=(Fraction(2 * a + 1, 2),))


def mu_abc(a: int, b: int, c: int, max_degree: int = DEFAULT_MAX_DEGREE) -> NCPoly:
    """Permutation sum with both markers a+1/2 (prepended) and a+b+1/2 (appended).

    The markers coincide when b = 0; that is fine, they are never adjacent.
    """
    if min(a, b, c) < 0:
        raise DegreeError("a, b, c must be nonnegative")
    return _perm_sum(a + b + c, max_degree, head=(Fraction(2 * a + 1, 2),),
                     tail=(Fraction(2 * (a + b) + 1, 2),))


@lru_cache(maxsize=None)
def _ascent_table(k: int) -> tuple:
    """Row f-1 counts the s in S_k with s(1) = f by their ascents 0..k-1."""
    table = [[0] * k for _ in range(k)]
    for s in permutations(range(1, k + 1)):
        table[s[0] - 1][_asc_des(s)[0]] += 1
    return tuple(map(tuple, table))


def _ascent_counts(k: int, a: Optional[int]) -> list[int]:
    """N(j), j = 0..n: words of mu_lambda(k) (a None, n = k-1) or of
    mu_ab(a, k-a) (n = k) whose weight is lam^j * (lam-1)^(n-j)."""
    counts = [0] * (k if a is None else k + 1)
    for f, row in enumerate(_ascent_table(k), start=1):
        shift = a is not None and f > a     # the marker a+1/2 ascends to f
        for j, c in enumerate(row):
            counts[j + shift] += c
    return counts


def perm_sum_l1(k: int, lam, a: Optional[int] = None) -> Fraction:
    """Exact ell^1 norm of mu_lambda(k) (a None) or mu_ab(a, k-a) at lam.

    Equals l1_norm(eval_lambda(mu, lam)) without building the k! words.
    """
    if a is not None and not 0 <= a <= k:
        raise DegreeError("a, b must be nonnegative")
    _check_degree(k, DEFAULT_MAX_DEGREE)
    lam = _as_fraction(lam)
    x, y = abs(lam), abs(lam - 1)
    counts = _ascent_counts(k, a)
    n = len(counts) - 1
    return sum((c * x ** j * y ** (n - j) for j, c in enumerate(counts)),
               Fraction(0))


def integrate_lambda(poly: NCPoly) -> NCPoly:
    """Integrate every coefficient exactly over lam in [0, 1]."""
    def integ(c):
        return c.integrate01() if isinstance(c, LambdaPoly) else Fraction(c)
    return poly.map_coeffs(integ)


def eval_lambda(poly: NCPoly, lam) -> NCPoly:
    """Substitute an exact rational value for lam in every coefficient."""
    lam = _as_fraction(lam)
    def ev(c):
        return c(lam) if isinstance(c, LambdaPoly) else Fraction(c)
    return poly.map_coeffs(ev)


def l1_norm(poly: NCPoly) -> Fraction:
    """Sum of absolute coefficient values (coefficients must be rational)."""
    tot = Fraction(0)
    for c in poly.terms.values():
        if isinstance(c, LambdaPoly):
            raise TypeError("l1_norm needs rational coefficients; eval_lambda first")
        tot += abs(c)
    return tot
