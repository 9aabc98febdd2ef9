"""Convergence-radius bounds for the expansion characteristic.

Closed forms for the plain and entire-resolvent radii, the coefficient
recursion and its corrected blow-up ODE, kernel spectral-radius p-th-root
bounds (pointwise in lam and minimized over lam), the crude kernel-ratio
route, and the trivial cost-relaxation upper bounds.

lam enters every bound exactly, as a Fraction or as a float (which converts
exactly), and the ends 0 and 1 are tested on that value: a lam such as
10**-400, whose float is 0.0, gets its finite bound from `series.log_odds`,
and its report prints the exact str(lam).

The blow-up of the Riccati ODE is certified without an ODE solver: the
substitution T = -u'/(mu*u) makes it the first positive zero of the
solution u of a linear ODE with polynomial coefficients, so u is entire.
Its exact Taylor partial sums change sign across a rational bracket, an
absolute-value majorant series bounds the remainder, and u = e^(x/2)*w
with w'' = (nonnegative)*w shows that u has at most one zero on x >= 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .kernels import plain_reduced_kernel, reduced_kernel
from .series import horner, log_odds, log_rho, refine_max
from .specrad import UnconvergedError, radii_refined
from .umqnorm import ConvexityClass

#: blowup_bracket starts at _ODE_TERMS Taylor terms, grows them by half up to
#: _ODE_MAX_TERMS and scans its window in _ODE_SCAN cells; c_log_bound
#: refines its lam argmax to _LAM_TOL; kernel ratios use _T_GRID t's
_ODE_TERMS, _ODE_MAX_TERMS, _ODE_SCAN = 40, 400, 256
_LAM_TOL = 1e-6
_T_GRID = 2001


def c_plain(lam: Union[Fraction, float]) -> float:
    """Closed-form radius 2*artanh(1-2*lam)/(1-2*lam) = L/(1-2*g), both from
    `log_odds`' one g; inf at lam in {0, 1} exactly, 2 where g rounds to 1/2
    (the radius is 2 + O((1-2*lam)^2) there)."""
    g, L, _ = log_odds(lam)
    x = 1.0 - 2.0 * g
    return 2.0 if x == 0.0 else L / x


def w_plain(lam: Union[Fraction, float]) -> float:
    """1/c_plain(lam), the plain kernel's spectral radius; 0 at lam in {0, 1}."""
    return 1.0 / c_plain(lam)


def c_eps(lam: Union[Fraction, float]) -> float:
    """Entire-resolvent radius hypot(pi, L), L from `log_odds`; inf at the ends."""
    return math.hypot(math.pi, log_odds(lam)[1])


def _gaps(corrections: Sequence[tuple]) -> dict:
    """{k: summed gap} from (k, gap) corrections; ValueError unless every k
    is an integer >= 1 and every gap a finite nonnegative number."""
    gaps = {}
    for k, gap in corrections:
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError("correction orders must be integers >= 1")
        try:
            g = Fraction(gap)
        except (TypeError, ValueError, OverflowError):
            g = None
        if g is None or g < 0:
            raise ValueError("correction gaps must be finite and nonnegative")
        gaps[int(k)] = gaps.get(int(k), 0) + g
    return gaps


def euler_coeffs(lam, N: int, corrections: Sequence[tuple] = ()) -> list:
    """Characteristic coefficients from the quadratic recursion.

    (k+1)*T[k+1] = T[k] + lam*(1-lam)*sum_{j=1}^{k-1} T[j]*T[k-j], seeded by
    T[1] = 1, with each correction (k, gap) lowering T[k] by gap (the ODE
    delay term gap*k*x^(k-1)), k = 1 included.  Exact Fractions throughout.
    With no corrections this is the plain characteristic.
    """
    gaps = _gaps(corrections)
    lam = Fraction(lam)
    mu = lam * (1 - lam)
    th = [Fraction(0), Fraction(1) - gaps.get(1, 0)]
    for m in range(1, N):
        acc = th[m] + mu * sum(th[j] * th[m - j] for j in range(1, m))
        th.append(acc / (m + 1) - gaps.get(m + 1, 0))
    return th[: N + 1]


def linear_taylor(c: dict, N: int) -> tuple:
    """Taylor coefficients a_0..a_N of u'' = u' + c(x)*u, u(0) = 1, u'(0) = 0,
    for the polynomial c(x) = sum_j c[j]*x^j with rational c[j].

    Returns (b, G) with the integers b_n = a_n * n! * G^n, G the common
    denominator of the c[j]: scaled so, the recursion
    (n+2)(n+1)*a_(n+2) = (n+1)*a_(n+1) + sum_j c[j]*a_(n-j) reads
    b_(n+2) = G*b_(n+1) + sum_j c[j]*G^(j+2) * n!/(n-j)! * b_(n-j), in
    integers only.
    """
    G = math.lcm(*(Fraction(cj).denominator for cj in c.values()))
    w = [(j, int(cj * G ** (j + 2))) for j, cj in c.items() if cj]
    b = [1, 0]
    for n in range(N - 1):
        b.append(G * b[n + 1] + sum(wj * math.perm(n, j) * b[n - j]
                                    for j, wj in w if j <= n))
    return b[: N + 1], G


def _taylor_sum(b: list, G: int, r: Fraction) -> Fraction:
    """sum_n a_n * r^n exactly, a_n = b_n / (n! * G^n): one integer Horner
    over the common denominator N! * (G*t)^N, r = s/t."""
    s, Gt = r.numerator, G * r.denominator
    h, w = 0, 1
    for n in range(len(b) - 1, -1, -1):
        h = h * s + b[n] * w         # w = N!/n! * (G*t)^(N-n)
        w *= n * Gt
    return Fraction(h, math.factorial(len(b) - 1) * Gt ** (len(b) - 1))


def _tail_bound(c_abs: dict, N: int, r: Fraction) -> Optional[Fraction]:
    """Bound on sum_{n>N} A_n r^n for the majorant A_n >= |a_n| of
    `linear_taylor` (the same recursion with |c[j]|); None until it holds.

    With t_n = A_n r^n, t_(n+2) <= rho_n(r/theta) * theta^(n+2) * K when
    every earlier t_m <= K theta^m, where rho_n(R) = ((n+1)R + sum_j |c[j]|
    R^(j+2)) / ((n+2)(n+1)) falls with n.  So rho_(N-1)(2r) <= 1 gives
    t_m <= K 2^-m for all m > N, K the largest t_m 2^m over the recursion's
    window m in [N-1-J, N], and the tail is at most K 2^-N.
    """
    R = 2 * r
    if N * R + sum(a * R ** (j + 2) for j, a in c_abs.items()) > (N + 1) * N:
        return None
    B, G = linear_taylor(c_abs, N)
    return max(Fraction(B[m], math.factorial(m) * G ** m) * r ** m / 2 ** (N - m)
               for m in range(max(N - 1 - max(c_abs), 0), N + 1))


def _first_float_root(af: list, x_max: float) -> Optional[float]:
    """First sign change in (0, x_max] of the float polynomial af: a scan of
    _ODE_SCAN cells for the first grid point where af <= 0, then bisection
    of that cell down to adjacent floats y < y+, af(y) > 0 >= af(y+)."""
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(0.0, x_max, _ODE_SCAN + 1)
        down = np.flatnonzero(horner(af, xs) <= 0.0)
    if not down.size:
        return None
    lo, hi = float(xs[down[0] - 1]), float(xs[down[0]])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if horner(af, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


@dataclass(frozen=True)
class BlowupBracket:
    """The blow-up abscissa lies in (lo, hi): u's Taylor polynomial of
    degree `terms` exceeds `tail` at lo and lies below -tail at hi, and
    `tail` bounds the remainder of u's Taylor series on [0, hi]."""

    lo: Fraction
    hi: Fraction
    terms: int
    tail: Fraction


def blowup_bracket(lam, corrections: Sequence[tuple] = ()) -> BlowupBracket:
    """Certified bracket on the blow-up of T' = (1+lam*T)(1+(1-lam)*T) - E(x).

    E(x) = sum gap*k*x^(k-1) over the corrections, lam strictly inside
    (0, 1).  With mu = lam*(1-lam), T = -u'/(mu*u) turns the Riccati
    equation into the linear u'' = u' - mu*(1 - E(x))*u, u(0) = 1,
    u'(0) = 0, so the blow-up is the first positive zero of u.  u is
    entire, and its Taylor coefficients are exact (`linear_taylor`, in
    Fraction(lam) and Fraction(gap)).  The float truncation's first root in
    the window (0, 3*c_plain(lam) + 10] is bracketed 8 ulps either side;
    the exact partial sums there, set against the majorant tail bound
    (`_tail_bound`), give u(lo) > 0 > u(hi).  No root counting is needed:
    u = e^(x/2)*w with w'' = ((1/2 - lam)^2 + mu*E(x))*w, a coefficient >= 0
    on x >= 0 since every gap is, so w (and u) turns down for good at its
    first zero and has at most one.  The truncation grows from _ODE_TERMS
    terms by half until the check passes; UnconvergedError past
    _ODE_MAX_TERMS (also when the window holds no blow-up).
    """
    gaps = _gaps(corrections)
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    lam = Fraction(lam)
    mu = lam * (1 - lam)
    c = {0: -mu}
    for k, g in gaps.items():
        c[k - 1] = c.get(k - 1, 0) + mu * k * g
    c_abs = {j: abs(cj) for j, cj in c.items()}
    c0 = c_plain(lam)
    x_max = 3.0 * c0 + 10.0
    # the float truncation is in y = x/2^e with 2^e <= c0 <= the blow-up,
    # so no coefficient that matters there underflows
    e = math.frexp(c0)[1] - 1
    N = _ODE_TERMS
    while N <= _ODE_MAX_TERMS:
        b, G = linear_taylor(c, N)
        try:
            af = [(bn << e * n) / (math.factorial(n) * G ** n)
                  for n, bn in enumerate(b)]
        except OverflowError:       # a coefficient past the float range
            break
        y = _first_float_root(af, math.ldexp(x_max, -e))
        if y is not None:
            x = math.ldexp(y, e)
            d = Fraction(8 * math.ulp(x))
            lo, hi = Fraction(x) - d, Fraction(x) + d
            tail = _tail_bound(c_abs, N, hi)
            if (tail is not None and _taylor_sum(b, G, lo) > tail
                    and _taylor_sum(b, G, hi) < -tail):
                return BlowupBracket(lo, hi, N, tail)
        N += N // 2
    raise UnconvergedError(f"no blow-up detected inside the window (0, {x_max:g}] "
                           f"with up to {_ODE_MAX_TERMS} Taylor terms")


def ode_blowup(lam: Union[Fraction, float],
               corrections: Sequence[tuple] = ()) -> float:
    """Blow-up abscissa of T' = (1+lam*T)(1+(1-lam)*T) - E(x), T(0) = 0:
    the midpoint of `blowup_bracket`, or +inf at lam in {0, 1} exactly.

    E(x) = sum gap*k*x^(k-1) over the corrections; with E = 0 this is the
    plain closed form.  ValueError for an order that is not an integer >= 1
    or a gap that is not finite and nonnegative; UnconvergedError when no
    blow-up is certified inside the window.
    """
    _gaps(corrections)              # bad corrections raise at lam in {0, 1} too
    if lam == 0 or lam == 1:
        return math.inf
    br = blowup_bracket(lam, corrections)
    return float((br.lo + br.hi) / 2)


@dataclass
class BoundReport:
    """One bound with its provenance; lower <= upper when both present.
    `lam` is the lam the bound was taken at, exact as it was given."""

    method: str
    q: str
    lower: Optional[float] = None
    upper: Optional[float] = None
    lam: Optional[Union[Fraction, float]] = None
    p: Optional[int] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.lower is not None and self.upper is not None
                and not self.lower <= self.upper):
            raise AssertionError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    def to_jsonable(self) -> dict:
        out = {"method": self.method, "q": self.q}
        for k in ("p", "lower", "upper"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.lam is not None:
            # its float, or the exact str(lam) when that float is an end of
            # [0, 1] that lam is not (10**-400 is no 0.0)
            f = float(self.lam)
            out["lam"] = str(self.lam) if f in (0.0, 1.0) and f != self.lam else f
        if self.details:
            out["details"] = self.details
        return out


def _root_bound(w: float, p: int) -> float:
    """The radius lower bound (1/w)^(1/p); inf for a quasi-nilpotent w = 0."""
    return math.inf if w == 0 else (1.0 / w) ** (1.0 / p)


def _kernel_radii(p_minus_1: int, lams: Sequence[Fraction], cls: ConvexityClass,
                  tol: float) -> list:
    """Spectral radii of the degree p-1 estimating kernels at each lam, from
    one `radii_refined` call; UnconvergedError, naming p-1 and the first lam
    whose grid refinement did not settle."""
    kernels = [reduced_kernel(p_minus_1, lam, cls).two_sided() for lam in lams]
    results = radii_refined(kernels, tol)
    for lam, res in zip(lams, results):
        if not res.converged:
            raise UnconvergedError(f"p-1 = {p_minus_1}, lam = {Fraction(lam)}: {res.warning}")
    return [res.radius for res in results]


def c_bound_pth_root(lam, p: int, cls: ConvexityClass,
                     tol: float = 1e-8) -> BoundReport:
    """Lower bound (1/r)^(1/p) from the degree p-1 kernel radius at lam."""
    lamF = Fraction(lam)
    r = _kernel_radii(p - 1, [lamF], cls, tol)[0]
    return BoundReport(method="pth-root-kernel", q=cls.describe(),
                       lam=lamF, p=p, lower=_root_bound(r, p),
                       details={"kernel_radius": r, "p_minus_1": p - 1})


def c_log_bound(p: int, cls: ConvexityClass, grid: int = 101,
                radius_tol: float = 1e-8) -> BoundReport:
    """Lower bound from the lam-maximized kernel radius.

    Scans lam on [0, 1/2] with `scan_rows` (the kernel radius is symmetric
    under lam <-> 1-lam), then sharpens the argmax by bounded scalar
    minimization to _LAM_TOL.  Returns (1/max_radius)^(1/p).
    """
    def w_of(lam_float: float) -> float:
        lamF = Fraction(lam_float).limit_denominator(10 ** 9)
        return _kernel_radii(p - 1, [lamF], cls, radius_tol)[0]

    lams, ws, _ = zip(*scan_rows(p, cls, grid, radius_tol))
    w_max, lam_star = refine_max(w_of, lams, ws, xatol=_LAM_TOL)
    return BoundReport(
        method="log-kernel", q=cls.describe(), p=p,
        lower=_root_bound(w_max, p),
        details={"max_kernel_radius": w_max, "arg_lam": lam_star,
                 "grid": grid, "lam_tol": _LAM_TOL},
    )


def kernel_ratio_sup(p_minus_1: int, lam, cls: ConvexityClass) -> dict:
    """sup over t of K_cls / K_plain, equal on both signs of t to the
    reduced-kernel ratio on [0, 1] (the lam and 1-lam prefactors cancel)."""
    lamF = Fraction(lam)
    num = reduced_kernel(p_minus_1, lamF, cls)
    den = plain_reduced_kernel(p_minus_1, lamF)
    ts = np.linspace(0.0, 1.0, _T_GRID)
    nv, dv = num(ts), den(ts)
    ratios = np.where(dv > 0, nv / np.where(dv > 0, dv, 1.0), 0.0)
    sup, arg_t = refine_max(lambda t: float(num(t)) / float(den(t)), ts, ratios)
    return {"sup": float(sup), "grid": _T_GRID, "arg_t": arg_t}


def crude_ratio_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Lower bound 1/(w_plain * S^(1/p)) with S the kernel ratio supremum."""
    info = kernel_ratio_sup(p - 1, lam, cls)
    s = info["sup"]
    w = w_plain(lam)
    lower = math.inf if w == 0 else 1.0 / (w * s ** (1.0 / p))
    return BoundReport(method="crude-ratio", q=cls.describe(), lam=lam,
                       p=p, lower=lower, details=info)


def maglower_floor(cls: ConvexityClass) -> float:
    """The uniform crude floor 2/(3/4 + kappa/4)^(1/5) for the degree-4 gain."""
    return 2.0 / (0.75 + 0.25 * float(cls.kappa_hi)) ** (1.0 / 5)


def upper_trivial(cls: ConvexityClass, variant: str = "cayley",
                  lam=None) -> BoundReport:
    """Cost-relaxation upper bounds: 2*2^(1/(3q)), or C(lam)*2^(1/(3q))."""
    if variant not in ("cayley", "magnus"):
        raise ValueError("variant must be 'cayley' or 'magnus'")
    if variant == "magnus" and lam is None:
        raise ValueError("the magnus variant needs lam")
    if cls.q is None and not cls.is_plain:
        raise ValueError("trivial upper bound needs a q-based class")
    growth = 1.0 if cls.is_plain else 2.0 ** (1.0 / (3.0 * float(cls.q)))
    if variant == "cayley":
        return BoundReport(method="trivial-upper", q=cls.describe(), lam=0.5,
                           upper=2.0 * growth, details={"variant": variant})
    return BoundReport(method="trivial-upper", q=cls.describe(), lam=lam,
                       upper=c_plain(lam) * growth,
                       details={"variant": variant})


def sicompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Convolution-route bound: w <= (max(lam,1-lam) * integral Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = float(max(lamF, 1 - lamF)) * float(rk.integral01())
    return BoundReport(method="sicompar", q=cls.describe(), lam=lamF, p=p,
                       lower=_root_bound(w_up, p), details={"w_upper": w_up})


def ricompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Trivial-reduced-kernel bound: w <= (w_plain(lam) * max Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = w_plain(lamF) * rk.max01()
    return BoundReport(method="ricompar", q=cls.describe(), lam=lamF, p=p,
                       lower=_root_bound(w_up, p), details={"w_upper": w_up})


def scan_rows(p: int, cls: ConvexityClass, grid: int = 41,
              radius_tol: float = 1e-7) -> list:
    """(lam, kernel radius, pointwise bound) rows at `grid` equally spaced
    lam in [0, 1/2], both ends included, from one `_kernel_radii` call;
    UnconvergedError names the first lam, in grid order, whose radius did
    not settle."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    lams = [Fraction(k, 2 * (grid - 1)) for k in range(grid)]
    return [(float(lam), w, _root_bound(w, p))
            for lam, w in zip(lams, _kernel_radii(p - 1, lams, cls, radius_tol))]


def lipschitz_logodds_check(bounds: Sequence[tuple]) -> bool:
    """Continuity safety net: |C(l1) - C(l2)| <= |log_rho(l1) - log_rho(l2)|.

    Takes (lam, C) pairs with lam in (0, 1); used as a validation check on
    scan output, not for search.
    """
    pts = sorted((l, c) for l, c in bounds if 0.0 < l < 1.0 and math.isfinite(c))
    for (l1, c1), (l2, c2) in zip(pts, pts[1:]):
        if abs(c1 - c2) > abs(log_rho(l1) - log_rho(l2)) + 1e-9:
            return False
    return True
