"""Convergence-radius bounds for the expansion characteristic.

Closed forms for the plain and entire-resolvent radii, the coefficient
recursion and its corrected blow-up ODE, kernel spectral-radius p-th-root
bounds (pointwise in lam and minimized over lam), the crude kernel-ratio
route, and the trivial cost-relaxation upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .kernels import plain_reduced_kernel, reduced_kernel
from .series import refine_max
from .specrad import UnconvergedError, radius_refined
from .umqnorm import ConvexityClass

#: ode_blowup integrates to _BLOWUP_RTOL until T reaches _BLOWUP_THRESHOLD;
#: c_log_bound refines its lam argmax to _LAM_TOL; kernel ratios use _T_GRID t's
_BLOWUP_THRESHOLD, _BLOWUP_RTOL = 1e6, 1e-10
_LAM_TOL = 1e-6
_T_GRID = 2001


def c_plain(lam: float) -> float:
    """Closed-form radius 2*artanh(1-2*lam)/(1-2*lam); 2 at 1/2, inf at 0, 1."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if lam in (0.0, 1.0):
        return math.inf
    if lam == 0.5:
        return 2.0
    return math.log((1.0 - lam) / lam) / (1.0 - 2.0 * lam)


def w_plain(lam: float) -> float:
    c = c_plain(lam)
    return 0.0 if math.isinf(c) else 1.0 / c


def c_eps(lam: float) -> float:
    """Entire-resolvent radius sqrt(pi^2 + log(lam/(1-lam))^2); inf at 0, 1."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if lam in (0.0, 1.0):
        return math.inf
    return math.hypot(math.pi, math.log(lam / (1.0 - lam)))


def euler_coeffs(lam, N: int, corrections: Sequence[tuple] = ()) -> list:
    """Characteristic coefficients from the quadratic recursion.

    (k+1)*T[k+1] = T[k] + lam*(1-lam)*sum_{j=1}^{k-1} T[j]*T[k-j], seeded by
    T[1] = 1, with each correction (k, gap) lowering T[k] by gap (the ODE
    delay term gap*k*x^(k-1)).  Exact Fractions throughout.  With no
    corrections this is the plain characteristic.
    """
    lam = Fraction(lam)
    gaps = {}
    for k, gap in corrections:
        if gap < 0:
            raise ValueError("correction gaps must be nonnegative")
        gaps[int(k)] = gaps.get(int(k), 0) + Fraction(gap)
    mu = lam * (1 - lam)
    th = [Fraction(0), Fraction(1)]
    for m in range(1, N):
        acc = th[m] + mu * sum(th[j] * th[m - j] for j in range(1, m))
        nxt = acc / (m + 1)
        if m + 1 in gaps:
            nxt -= gaps[m + 1]
        th.append(nxt)
    return th[: N + 1]


def ode_blowup(lam: float, corrections: Sequence[tuple] = ()) -> float:
    """Blow-up abscissa of T' = (1+lam*T)(1+(1-lam)*T) - E(x), T(0) = 0.

    E(x) = sum gap*k*x^(k-1) over the corrections.  Integration runs to the
    threshold and the analytic tail 1/(lam*(1-lam)*threshold) accounts for
    the remaining time to infinity.  Returns +inf at lam in {0, 1}; with
    E = 0 this reproduces the plain closed form.  Gaps must be finite and
    nonnegative; UnconvergedError when the window ends without a blow-up.
    """
    corr = [(int(k), float(g)) for k, g in corrections]
    if not all(0.0 <= g < math.inf for _, g in corr):
        raise ValueError("correction gaps must be finite and nonnegative")
    lam = float(lam)
    if lam in (0.0, 1.0):
        return math.inf
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in [0, 1]")

    def rhs(x, y):
        th = y[0]
        e = sum(g * k * x ** (k - 1) for k, g in corr)
        return [(1.0 + lam * th) * (1.0 + (1.0 - lam) * th) - e]

    def hit(x, y):
        return y[0] - _BLOWUP_THRESHOLD

    hit.terminal = True
    hit.direction = 1
    x_max = 3.0 * c_plain(lam) + 10.0
    sol = solve_ivp(rhs, (0.0, x_max), [0.0], events=hit,
                    rtol=_BLOWUP_RTOL, atol=1e-12, method="RK45")
    if not sol.t_events[0].size:
        raise UnconvergedError("no blow-up detected inside the integration "
                               f"window [0, {x_max:g}]")
    t_hit = float(sol.t_events[0][0])
    return t_hit + 1.0 / (lam * (1.0 - lam) * _BLOWUP_THRESHOLD)


@dataclass
class BoundReport:
    """One bound with its provenance; lower <= upper when both present."""

    method: str
    q: str
    lower: Optional[float] = None
    upper: Optional[float] = None
    lam: Optional[float] = None
    p: Optional[int] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.lower is not None and self.upper is not None
                and not self.lower <= self.upper):
            raise AssertionError(f"lower bound {self.lower} exceeds upper bound {self.upper}")

    def to_jsonable(self) -> dict:
        out = {"method": self.method, "q": self.q}
        for k in ("lam", "p", "lower", "upper"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.details:
            out["details"] = self.details
        return out


def _root_bound(w: float, p: int) -> float:
    """The radius lower bound (1/w)^(1/p); inf for a quasi-nilpotent w = 0."""
    return math.inf if w == 0 else (1.0 / w) ** (1.0 / p)


def _kernel_radius(p_minus_1: int, lam: Fraction, cls: ConvexityClass,
                   tol: float = 1e-8) -> float:
    """Spectral radius of the degree p-1 estimating kernel at one lam;
    UnconvergedError when the grid refinement did not settle."""
    if p_minus_1 < 0:
        raise ValueError("p-1 must be >= 0")
    res = radius_refined(reduced_kernel(p_minus_1, lam, cls).two_sided(), tol=tol)
    if not res.converged:
        raise UnconvergedError(f"p-1 = {p_minus_1}, lam = {Fraction(lam)}: {res.warning}")
    return res.radius


def c_bound_pth_root(lam, p: int, cls: ConvexityClass,
                     tol: float = 1e-8) -> BoundReport:
    """Lower bound (1/r)^(1/p) from the degree p-1 kernel radius at lam."""
    lamF = Fraction(lam)
    r = _kernel_radius(p - 1, lamF, cls, tol=tol)
    return BoundReport(method="pth-root-kernel", q=cls.describe(),
                       lam=float(lamF), p=p, lower=_root_bound(r, p),
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
        return _kernel_radius(p - 1, lamF, cls, tol=radius_tol)

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
    w = w_plain(float(lam))
    lower = math.inf if w == 0 else 1.0 / (w * s ** (1.0 / p))
    return BoundReport(method="crude-ratio", q=cls.describe(), lam=float(lam),
                       p=p, lower=lower, details=info)


def maglower_floor(cls: ConvexityClass) -> float:
    """The uniform crude floor 2/(3/4 + kappa/4)^(1/5) for the degree-4 gain."""
    kappa = cls.kappa_float
    return 2.0 / (0.75 + 0.25 * kappa) ** (1.0 / 5)


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
    return BoundReport(method="trivial-upper", q=cls.describe(), lam=float(lam),
                       upper=c_plain(float(lam)) * growth,
                       details={"variant": variant})


def sicompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Convolution-route bound: w <= (max(lam,1-lam) * integral Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = float(max(lamF, 1 - lamF)) * float(rk.integral01())
    return BoundReport(method="sicompar", q=cls.describe(), lam=float(lamF), p=p,
                       lower=_root_bound(w_up, p), details={"w_upper": w_up})


def ricompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Trivial-reduced-kernel bound: w <= (w_plain(lam) * max Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = w_plain(float(lamF)) * rk.max01()
    return BoundReport(method="ricompar", q=cls.describe(), lam=float(lamF), p=p,
                       lower=_root_bound(w_up, p), details={"w_upper": w_up})


def scan_rows(p: int, cls: ConvexityClass, grid: int = 41,
              radius_tol: float = 1e-7) -> list:
    """(lam, kernel radius, pointwise bound) rows at `grid` equally spaced
    lam in [0, 1/2], both ends included."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    rows = []
    for k in range(grid):
        lam = Fraction(k, 2 * (grid - 1))
        w = _kernel_radius(p - 1, lam, cls, tol=radius_tol)
        rows.append((float(lam), w, _root_bound(w, p)))
    return rows


def lipschitz_logodds_check(bounds: Sequence[tuple]) -> bool:
    """Continuity safety net: |C(l1) - C(l2)| <= |logit(l1) - logit(l2)|.

    Takes (lam, C) pairs with lam in (0, 1); used as a validation check on
    scan output, not for search.
    """
    def logit(l):
        return math.log(l / (1.0 - l))

    pts = sorted((l, c) for l, c in bounds if 0.0 < l < 1.0 and math.isfinite(c))
    for (l1, c1), (l2, c2) in zip(pts, pts[1:]):
        if abs(c1 - c2) > abs(logit(l1) - logit(l2)) + 1e-9:
            return False
    return True
