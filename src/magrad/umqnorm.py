"""Universal-algebra norm of homogeneous noncommutative polynomials.

The norm is the optimum of a linear program over "quasi-monomial" columns:
plain monomials cost 1, and every tree containing the 4-ary cross operation

    Xi(S1,S2,S3,S4) = (S1S2S3S4 + S2S1S3S4 + S1S2S4S3 - S2S1S4S3)/4

costs kappa = 2**(-1/q) per Xi node.  For rational kappa the simplex runs
exactly; for irrational kappa (q=2, say) the optimum is piecewise linear and
nondecreasing in kappa, so solving at the two endpoints of a certified
rational enclosure of kappa yields a certified enclosure of the norm.

The constraint matrix, its row words and each column's Xi count and scale
depend only on the target's letter multiset, so `_lp` builds them once per
multiset and shares them, read-only, across every solve; a solve builds only
the right-hand side b (the target's coefficients) and the costs c(kappa).

Exhaustive column enumeration is capped at degree 5.  Up to that degree a
nested Xi is impossible (an inner Xi argument would already need degree 4,
so a nested tree needs degree >= 7); exactness at degree >= 6 is not claimed
and only the feasible-decomposition upper bound is offered there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, log2
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .freealg import DegreeError, NCPoly, _check_degree, ascent_rows, eval_lambda, mu_ab
from .series import compositions
from .simplex import simplex_min, verify_certificate

#: largest degree with exhaustive quasi-monomial enumeration
EXHAUSTIVE_CAP = 5


class ExhaustiveCapError(ValueError):
    """Exact mode requested above the exhaustive enumeration cap."""


def _int_nth_root(x: int, n: int) -> int:
    """Largest m with m**n <= x (x >= 2, n >= 2, root below 2**1000), by
    integer Newton.

    From any start above the root, Newton's integer step falls monotonically
    to the floor root and stops there.  The start is the float root
    2**(log2(x)/n), good to about log2(x)/n * 2**-52 relative, raised by
    2**-32 relative so that it lies above: a few steps then suffice.
    """
    m = int(2.0 ** (log2(x) / n) * (1 + 2.0 ** -32)) + 1
    while True:
        t = ((n - 1) * m + x // m ** (n - 1)) // n
        if t >= m:
            return m
        m = t


def _kappa_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of 2**(-1/q), to 25 decimal digits."""
    qn, qd = q.numerator, q.denominator
    scale = 10 ** 25
    # r = 2**(qd/qn) >= 1;  kappa = 1/r
    m = _int_nth_root((2 ** qd) * scale ** qn, qn)
    r_lo, r_hi = Fraction(m, scale), Fraction(m + 1, scale)
    return Fraction(1) / r_hi, Fraction(1) / r_lo


@dataclass(frozen=True)
class ConvexityClass:
    """Cost model for the cross operation: kappa = 2**(-1/q), or 1 for plain."""

    q: Optional[Fraction]
    kappa_lo: Fraction
    kappa_hi: Fraction

    @classmethod
    def from_q(cls, q) -> "ConvexityClass":
        q = Fraction(q)
        if q < 1:
            raise ValueError("q must be >= 1")
        if q == 1:
            return cls(q, Fraction(1, 2), Fraction(1, 2))
        lo, hi = _kappa_bounds(q)
        return cls(q, lo, hi)

    @classmethod
    def plain(cls) -> "ConvexityClass":
        """The ell^1 (general Banach algebra) cost model, kappa = 1."""
        return cls(None, Fraction(1), Fraction(1))

    def __post_init__(self):
        if not Fraction(1, 2) <= self.kappa_lo <= self.kappa_hi <= 1:
            raise ValueError("kappa enclosure must lie in [1/2, 1]")

    @property
    def exact(self) -> bool:
        return self.kappa_lo == self.kappa_hi

    @property
    def is_plain(self) -> bool:
        return self.kappa_hi == 1

    def describe(self) -> str:
        return "plain" if self.is_plain else f"q={self.q}"


PLAIN = ConvexityClass.plain()


# ---------------------------------------------------------------------------
# quasi-monomials


@dataclass(frozen=True)
class QuasiMonomial:
    """Expression tree: ("Y", i) | ("P", (sub, ...)) | ("Xi", s1, s2, s3, s4)."""

    tree: tuple

    @property
    def xi_count(self) -> int:
        return _xi_count(self.tree)

    def evaluate(self) -> NCPoly:
        return _eval_tree(self.tree)


def leaf(i: int) -> QuasiMonomial:
    return QuasiMonomial(("Y", i))


def prod(parts: Sequence[QuasiMonomial]) -> QuasiMonomial:
    if len(parts) == 1:
        return parts[0]
    return QuasiMonomial(("P", tuple(p.tree for p in parts)))


def xi(s1, s2, s3, s4) -> QuasiMonomial:
    return QuasiMonomial(("Xi", s1.tree, s2.tree, s3.tree, s4.tree))


def _xi_count(t: tuple) -> int:
    tag = t[0]
    if tag == "Y":
        return 0
    if tag == "P":
        return sum(_xi_count(s) for s in t[1])
    return 1 + sum(_xi_count(s) for s in t[1:])


def xi_eval(s1: NCPoly, s2: NCPoly, s3: NCPoly, s4: NCPoly) -> NCPoly:
    """Signed average defining the cross operation, exact coefficients."""
    quarter = Fraction(1, 4)
    out = (s1 * s2 * s3 * s4) + (s2 * s1 * s3 * s4) + (s1 * s2 * s4 * s3)
    out = out - (s2 * s1 * s4 * s3)
    return out.scale(quarter)


def _eval_tree(t: tuple) -> NCPoly:
    tag = t[0]
    if tag == "Y":
        return NCPoly.monomial((t[1],))
    if tag == "P":
        out = NCPoly.monomial(())
        for s in t[1]:
            out = out * _eval_tree(s)
        return out
    return xi_eval(*(_eval_tree(s) for s in t[1:]))


def _shapes_seq(d: int) -> list[tuple]:
    """All product sequences of total degree d; leaves are None placeholders."""
    out: list[tuple] = []

    def rec(remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for dd in range(1, remaining + 1):
            for item in _shapes_item(dd):
                acc.append(item)
                rec(remaining - dd, acc)
                acc.pop()

    rec(d, [])
    return out


def _shapes_item(d: int) -> list[tuple]:
    items: list[tuple] = []
    if d == 1:
        items.append(("Y", None))
    if d >= 4:
        for comp in compositions(d, 4):
            for subs in itertools.product(*(_shapes_seq(p) for p in comp)):
                items.append(("Xi",) + tuple(_seq_tree(s) for s in subs))
    return items


def _seq_tree(seq: tuple) -> tuple:
    return seq[0] if len(seq) == 1 else ("P", seq)


def _fill_leaves(t: tuple, letters: list[int]) -> tuple:
    tag = t[0]
    if tag == "Y":
        return ("Y", letters.pop(0))
    if tag == "P":
        return ("P", tuple(_fill_leaves(s, letters) for s in t[1]))
    return ("Xi",) + tuple(_fill_leaves(s, letters) for s in t[1:])


class _LP(NamedTuple):
    """The (lam, kappa)-free structure of every LP over one letter multiset.

    Column j is a deduplicated quasi-monomial; its direction is the
    evaluation scaled so its lexicographically first word has coefficient
    +1, and one unit of that direction costs kappa**xi[j] * scales[j].  A is
    shared by every solve and read-only: sparse rows, one per row word, in
    which LP column 2j is x+ and 2j+1 is x- of column j.
    """

    qms: tuple       # the quasi-monomial of column j
    xi: tuple        # its Xi count
    scales: tuple    # 1/|lead coefficient| of its evaluation
    rows: Mapping    # row word -> row index, words in sorted order
    A: tuple         # read-only sparse rows: LP column -> nonzero entry


@lru_cache(maxsize=None)
def _lp(degree: int, gens: tuple[int, ...]) -> _LP:
    if degree > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(
            f"exhaustive mode unavailable above degree {EXHAUSTIVE_CAP};"
            " use fa_norm_upper"
        )
    # direction key -> (cost at kappa = 3/4, qm, xi count, 1/|lead|, direction)
    best: dict[tuple, tuple] = {}
    arrangements = sorted(set(itertools.permutations(gens)))
    for seq in _shapes_seq(degree):
        tree_shape = _seq_tree(seq)
        for arr in arrangements:
            qm = QuasiMonomial(_fill_leaves(tree_shape, list(arr)))
            p = qm.evaluate()
            if not p:
                continue
            lead = p.terms[p.support[0]]
            direction = p.scale(1 / lead).terms
            key = tuple(sorted(direction.items()))
            xi_count, scale = qm.xi_count, 1 / abs(lead)
            cost = Fraction(3, 4) ** xi_count * scale
            prev = best.get(key)
            # keep the cheapest representative at kappa = 3/4: there a
            # monomial (cost 1) beats any single-word column with a Xi node,
            # whose coefficient is at most 1/2, so it costs at least 3/2
            if prev is None or cost < prev[0]:
                best[key] = (cost, qm, xi_count, scale, direction)
    _, qms, xis, scales, directions = zip(*best.values())
    rows = {w: i for i, w in enumerate(sorted({w for d in directions for w in d}))}
    A: list[dict] = [{} for _ in rows]
    for j, d in enumerate(directions):
        for w, cv in d.items():
            A[rows[w]].update({2 * j: cv, 2 * j + 1: -cv})
    return _LP(qms, xis, scales, MappingProxyType(rows),
               tuple(MappingProxyType(r) for r in A))


def enumerate_quasimonomials(degree: int, generators: Sequence[int]) -> list[QuasiMonomial]:
    """All quasi-monomials of the given degree, deduplicated by evaluation.

    `generators` is the multiset of letters to place on the leaves; its size
    must equal the degree.  Degrees above the exhaustive cap raise.
    """
    gens = tuple(sorted(generators))
    if len(gens) != degree:
        raise ValueError("generator multiset size must equal the degree")
    return list(_lp(degree, gens).qms)


# ---------------------------------------------------------------------------
# the LP


@dataclass
class NormCertificate:
    """Primal/dual pair for one kappa endpoint, verifiable exactly.

    `coefficients` maps a column index j to its weight x+ - x-, `duals` a row
    word to its dual value, and `basis` lists the optimal basic LP columns,
    one per row: 2j is x+ and 2j+1 is x- of column j.
    """

    kappa: Fraction
    value: Fraction
    coefficients: dict  # column index -> Fraction
    duals: dict         # word -> Fraction
    basis: list

    def to_jsonable(self) -> dict:
        return {
            "kappa": str(self.kappa),
            "value": str(self.value),
            "coefficients": {str(k): str(v) for k, v in self.coefficients.items()},
            "duals": {"".join(map(str, w)): str(v) for w, v in self.duals.items()},
            "basis": list(self.basis),
        }


@dataclass
class NormValue:
    """Universal-norm value: exact when lo == hi, else a certified enclosure."""

    lo: Fraction
    hi: Fraction
    certificates: list[NormCertificate] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError("enclosure is not exact; use .lo/.hi or .mid")
        return self.lo

    @property
    def mid(self) -> float:
        return (float(self.lo) + float(self.hi)) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self):
        if self.exact:
            return str(self.lo)
        return f"[{float(self.lo)!r}, {float(self.hi)!r}]"

    def scale(self, c: Fraction) -> "NormValue":
        c = Fraction(c)
        if not c > 0:
            raise AssertionError(f"scale factor must be positive, got {c}")
        return NormValue(self.lo * c, self.hi * c, self.certificates)


def fa_norm_exact(x: NCPoly, cls: ConvexityClass) -> NormValue:
    """Universal norm by exact LP; enclosure when kappa is irrational.

    One LP per distinct kappa endpoint, over the letter multiset's cached
    structure: only the costs c(kappa) and the right-hand side b are built
    here.  Every row word is an arrangement of the target's letters, so it
    has a monomial column, whose x+/x- pair gives the row the unit column
    `simplex_min` starts from, whatever the sign of b.  The optimum never
    exceeds the ell^1 norm and is nondecreasing in kappa.
    """
    if not x:
        return NormValue(Fraction(0), Fraction(0))
    if not x.is_homogeneous():
        raise ValueError("argument must be homogeneous")
    for c in x.terms.values():
        if not isinstance(c, (Fraction, int)):
            raise TypeError("coefficients must be rational; eval_lambda first")
    degree = x.degree
    if degree == 0:
        v = abs(Fraction(x.terms[()]))
        return NormValue(v, v)
    lp = _lp(degree, x.generator_multiset())
    b = [Fraction(0)] * len(lp.rows)
    for w, cv in x.terms.items():
        if w not in lp.rows:
            raise ValueError(f"target word {w} is not a row of its LP")
        b[lp.rows[w]] = Fraction(cv)
    certs = []
    for kappa in dict.fromkeys((cls.kappa_lo, cls.kappa_hi)):
        k, c = Fraction(kappa), []
        for xi_count, scale in zip(lp.xi, lp.scales):
            gamma = k ** xi_count * scale
            c += (gamma, gamma)
        res = simplex_min(lp.A, b, c)
        if not verify_certificate(lp.A, b, c, res):
            raise AssertionError("exact LP certificate failed to verify")
        coeffs = {j: v for j in range(len(lp.qms))
                  if (v := res.x[2 * j] - res.x[2 * j + 1])}
        certs.append(NormCertificate(kappa=kappa, value=res.value,
                                     coefficients=coeffs,
                                     duals=dict(zip(lp.rows, res.y)),
                                     basis=res.basis))
    return NormValue(certs[0].value, certs[-1].value, certs)


def fa_norm_upper(x: NCPoly, cls: ConvexityClass,
                  cross_terms: Sequence[QuasiMonomial] = ()) -> Fraction:
    """Upper bound from an explicit feasible decomposition.

    Greedily peels each supplied cross-term off the target with the largest
    sign-aligned weight (4 * min aligned coefficient magnitude for the plain
    cross pattern; either sign of alignment works), then pays ell^1 for the
    remainder.  Always between the exact norm and the ell^1 norm.  Uses the
    upper kappa endpoint so the result is a valid bound even for enclosed
    kappa.
    """
    remaining = dict(x.terms)
    kappa = cls.kappa_hi
    total = Fraction(0)
    for qm in cross_terms:
        p = qm.evaluate()
        sup = list(p.terms)
        if not sup:
            continue
        ratios = [remaining.get(w, Fraction(0)) / p.terms[w] for w in sup]
        if all(r > 0 for r in ratios):
            weight = min(ratios)
        elif all(r < 0 for r in ratios):
            weight = max(ratios)
        else:
            continue            # not sign-aligned with the remainder
        for w in sup:
            remaining[w] = remaining[w] - weight * p.terms[w]
        total += abs(weight) * kappa ** qm.xi_count
    total += sum((abs(v) for v in remaining.values()), Fraction(0))
    return total


# ---------------------------------------------------------------------------
# normalized permutation-sum norms

#: size of the theta_ab cache (theta_k reads through it), keyed by exact lam
#: that float callers draw afresh: the q = 1 and q = 2 `c_log_bound(5)` of
#: criterion 04 fill 1060, so such scans stay cached for on-grid pointwise
#: bounds after them
THETA_CACHE_SIZE = 4096


def plain_theta_numerators(k: int, lam) -> tuple[tuple[int, ...], int]:
    """Every plain Theta_{a,k-a}(lam), a = 0..k, over one denominator:
    (numerators, k! * d^k) for lam = n/d in lowest terms.

    The ell^1 norm of mu_ab(a, k-a) is sum_j N_a(j) |lam|^j |lam-1|^(k-j),
    N_a the rows of `ascent_rows`, so numerator a is the integer
    sum_j N_a(j) |n|^j |n-d|^(k-j): integer powers and one integer mat-vec,
    with no Fraction arithmetic.
    """
    rows = ascent_rows(k)
    lam = Fraction(lam)
    n, d = lam.numerator, lam.denominator
    x, y = abs(n), abs(n - d)
    monos = [x ** j * y ** (k - j) for j in range(k + 1)]
    nums = tuple(sum(c * m for c, m in zip(row, monos)) for row in rows)
    return nums, factorial(k) * d ** k


@lru_cache(maxsize=THETA_CACHE_SIZE)
def theta_ab(a: int, b: int, lam: Fraction, cls: ConvexityClass) -> NormValue:
    """Norm of the boundary-marked permutation sum, divided by (a+b)!.

    Satisfies theta_ab(a, b, lam) == theta_ab(b, a, 1-lam).
    """
    lam = Fraction(lam)
    p1 = a + b
    if cls.is_plain:
        if a < 0 or b < 0:
            raise DegreeError("a, b must be nonnegative")
        nums, den = plain_theta_numerators(p1, lam)
        v = Fraction(nums[a], den)
        return NormValue(v, v)
    poly = eval_lambda(mu_ab(a, b), lam)
    return fa_norm_exact(poly, cls).scale(Fraction(1, factorial(p1)))


def theta_k(k: int, lam: Fraction, cls: ConvexityClass) -> NormValue:
    """Norm of the unmarked permutation sum mu_lambda(k) over S_k, divided
    by k!.

    The marker 1/2 ascends into every word and the marker k+1/2 descends
    from every word, so mu_ab(0, k) = lam * mu_lambda(k) and
    mu_ab(k, 0) = (lam-1) * mu_lambda(k).  Both norms are absolutely
    homogeneous (the LP optimum is linear in its right-hand side), hence
    theta_k = theta_ab(0, k) / |lam|, or theta_ab(k, 0) / |lam-1| at lam = 0.
    """
    _check_degree(k)
    lam = Fraction(lam)
    if lam:
        return theta_ab(0, k, lam, cls).scale(1 / abs(lam))
    return theta_ab(k, 0, lam, cls)             # |lam - 1| = 1
