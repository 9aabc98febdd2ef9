"""Universal-algebra norm of homogeneous noncommutative polynomials.

The norm is the optimum of a linear program over "quasi-monomial" columns:
plain monomials cost 1, and every tree containing the 4-ary cross operation

    Xi(S1,S2,S3,S4) = (S1S2S3S4 + S2S1S3S4 + S1S2S4S3 - S2S1S4S3)/4

costs kappa = 2**(-1/q) per Xi node.  For rational kappa the simplex runs
exactly; for irrational kappa (q=2, say) the optimum is piecewise linear and
nondecreasing in kappa, so solving at the two endpoints of a certified
rational enclosure of kappa yields a certified enclosure of the norm.

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
from math import factorial
from typing import Optional, Sequence

from .freealg import NCPoly, Word, eval_lambda, mu_ab, mu_lambda, perm_sum_l1
from .series import compositions
from .simplex import simplex_min, verify_certificate

#: largest degree with exhaustive quasi-monomial enumeration
EXHAUSTIVE_CAP = 5


class ExhaustiveCapError(ValueError):
    """Exact mode requested above the exhaustive enumeration cap."""


def _int_nth_root(x: int, n: int) -> int:
    """Largest m with m**n <= x (x >= 0, n >= 1), by integer Newton."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or n == 1:
        return x
    m = 1 << (x.bit_length() // n + 1)
    while True:
        t = ((n - 1) * m + x // m ** (n - 1)) // n
        if t >= m:
            break
        m = t
    while m ** n > x:
        m -= 1
    return m


def _kappa_bounds(q: Fraction, digits: int = 25) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of 2**(-1/q)."""
    qn, qd = q.numerator, q.denominator
    scale = 10 ** digits
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

    @classmethod
    def with_kappa(cls, kappa) -> "ConvexityClass":
        """Exact rational override for the cross cost."""
        kappa = Fraction(kappa)
        if not Fraction(1, 2) <= kappa <= 1:
            raise ValueError("kappa must lie in [1/2, 1]")
        return cls(None, kappa, kappa)

    def __post_init__(self):
        if not Fraction(1, 2) <= self.kappa_lo <= self.kappa_hi <= 1:
            raise ValueError("kappa enclosure must lie in [1/2, 1]")

    @property
    def exact(self) -> bool:
        return self.kappa_lo == self.kappa_hi

    @property
    def is_plain(self) -> bool:
        return self.kappa_hi == 1

    @property
    def kappa_float(self) -> float:
        return (float(self.kappa_lo) + float(self.kappa_hi)) / 2

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

    def cost(self, kappa: Fraction) -> Fraction:
        return Fraction(kappa) ** self.xi_count


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


@dataclass(frozen=True)
class Column:
    """Deduplicated LP column: normalized direction plus cost data.

    `poly` is scaled so its lexicographically first word has coefficient +1;
    producing one unit of that direction with the underlying quasi-monomial
    costs kappa**xi_count * inv_scale.
    """

    qm: QuasiMonomial
    poly: NCPoly
    inv_scale: Fraction

    def cost(self, kappa) -> Fraction:
        return Fraction(kappa) ** self.qm.xi_count * self.inv_scale


def _normalize_direction(p: NCPoly) -> tuple[NCPoly, Fraction]:
    lead = p.terms[p.support[0]]
    return p.scale(1 / lead), abs(lead)


@lru_cache(maxsize=None)
def _columns_cached(degree: int, gens: tuple[int, ...]) -> tuple[Column, ...]:
    shapes = _shapes_seq(degree)
    best: dict[tuple, Column] = {}
    arrangements = sorted(set(itertools.permutations(gens)))
    for seq in shapes:
        tree_shape = _seq_tree(seq)
        for arr in arrangements:
            tree = _fill_leaves(tree_shape, list(arr))
            qm = QuasiMonomial(tree)
            p = qm.evaluate()
            if not p:
                continue
            direction, scale = _normalize_direction(p)
            key = tuple(sorted((w, c) for w, c in direction.terms.items()))
            col = Column(qm=qm, poly=direction, inv_scale=Fraction(1) / scale)
            prev = best.get(key)
            # keep the cheapest representative (compare at the midpoint cost)
            if prev is None or col.cost(Fraction(3, 4)) < prev.cost(Fraction(3, 4)):
                best[key] = col
    return tuple(best.values())


def enumerate_quasimonomials(degree: int, generators: Sequence[int]) -> list[QuasiMonomial]:
    """All quasi-monomials of the given degree, deduplicated by evaluation.

    `generators` is the multiset of letters to place on the leaves; its size
    must equal the degree.  Degrees above the exhaustive cap raise.
    """
    gens = tuple(sorted(generators))
    if len(gens) != degree:
        raise ValueError("generator multiset size must equal the degree")
    if degree > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(
            f"exhaustive mode unavailable above degree {EXHAUSTIVE_CAP}"
        )
    return [c.qm for c in _columns_cached(degree, gens)]


# ---------------------------------------------------------------------------
# the LP


@dataclass
class NormCertificate:
    """Primal/dual pair for one kappa endpoint, verifiable exactly."""

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


def _components(target: NCPoly, columns: Sequence[Column], rows: Sequence[Word]):
    """Split rows/columns along connected support components."""
    parent = {w: w for w in rows}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for col in columns:
        ws = list(col.poly.terms)
        for w in ws[1:]:
            union(ws[0], w)
    groups: dict[Word, dict] = {}
    for w in rows:
        groups.setdefault(find(w), {"rows": [], "cols": []})["rows"].append(w)
    for col in columns:
        root = find(next(iter(col.poly.terms)))
        groups[root]["cols"].append(col)
    return [g for g in groups.values() if any(target.terms.get(w) for w in g["rows"])]


def _solve_at_kappa(target: NCPoly, columns: list[Column], rows: list[Word],
                    kappa: Fraction) -> tuple[Fraction, NormCertificate]:
    total = Fraction(0)
    coeffs: dict[int, Fraction] = {}
    duals: dict[Word, Fraction] = {}
    basis_all: list = []
    col_index = {id(c): i for i, c in enumerate(columns)}
    for comp in _components(target, columns, rows):
        crows, ccols = comp["rows"], comp["cols"]
        m, k = len(crows), len(ccols)
        A = [[Fraction(0)] * (2 * k) for _ in range(m)]
        for j, col in enumerate(ccols):
            for w, cv in col.poly.terms.items():
                i = crows.index(w)
                A[i][2 * j] = cv
                A[i][2 * j + 1] = -cv
        b = [Fraction(target.terms.get(w, 0)) for w in crows]
        c = []
        for col in ccols:
            gamma = col.cost(kappa)
            c.extend([gamma, gamma])
        res = simplex_min(A, b, c)
        if not verify_certificate(A, b, c, res):
            raise AssertionError("exact LP certificate failed to verify")
        total += res.value
        for j, col in enumerate(ccols):
            v = res.x[2 * j] - res.x[2 * j + 1]
            if v:
                coeffs[col_index[id(col)]] = v
        for i, w in enumerate(crows):
            duals[w] = res.y[i]
        basis_all.extend(res.basis)
    cert = NormCertificate(kappa=kappa, value=total, coefficients=coeffs,
                           duals=duals, basis=basis_all)
    return total, cert


def fa_norm_exact(x: NCPoly, cls: ConvexityClass,
                  columns: Optional[Sequence[Column]] = None) -> NormValue:
    """Universal norm by exact LP; enclosure when kappa is irrational.

    Feasibility is guaranteed (monomials alone span), so an infeasible LP
    signals an internal error.  The optimum never exceeds the ell^1 norm.
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
    if columns is None:
        if degree > EXHAUSTIVE_CAP:
            raise ExhaustiveCapError(
                f"exhaustive mode unavailable above degree {EXHAUSTIVE_CAP};"
                " use fa_norm_upper"
            )
        columns = _columns_cached(degree, x.generator_multiset())
    columns = list(columns)
    words = set(x.terms)
    for col in columns:
        words.update(col.poly.terms)
    rows = sorted(words)
    lo_val, lo_cert = _solve_at_kappa(x, columns, rows, cls.kappa_lo)
    if cls.exact:
        return NormValue(lo_val, lo_val, [lo_cert])
    hi_val, hi_cert = _solve_at_kappa(x, columns, rows, cls.kappa_hi)
    # the optimum is nondecreasing in kappa
    return NormValue(lo_val, hi_val, [lo_cert, hi_cert])


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
        total += abs(weight) * qm.cost(kappa)
    total += sum((abs(v) for v in remaining.values()), Fraction(0))
    return total


# ---------------------------------------------------------------------------
# normalized permutation-sum norms


@lru_cache(maxsize=None)
def theta_ab(a: int, b: int, lam: Fraction, cls: ConvexityClass) -> NormValue:
    """Norm of the boundary-marked permutation sum, divided by (a+b)!.

    Satisfies theta_ab(a, b, lam) == theta_ab(b, a, 1-lam).
    """
    lam = Fraction(lam)
    p1 = a + b
    if cls.is_plain:
        v = perm_sum_l1(p1, lam, a) / factorial(p1)
        return NormValue(v, v)
    poly = eval_lambda(mu_ab(a, b), lam)
    return fa_norm_exact(poly, cls).scale(Fraction(1, factorial(p1)))


@lru_cache(maxsize=None)
def theta_k(k: int, lam: Fraction, cls: ConvexityClass) -> NormValue:
    """Norm of the unmarked permutation sum over S_k, divided by k!."""
    lam = Fraction(lam)
    if cls.is_plain:
        v = perm_sum_l1(k, lam) / factorial(k)
        return NormValue(v, v)
    poly = eval_lambda(mu_lambda(k), lam)
    return fa_norm_exact(poly, cls).scale(Fraction(1, factorial(k)))
