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
from .specrad import convolution_radius, radius_refined
from .umqnorm import ConvexityClass


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


def ode_blowup(lam: float, corrections: Sequence[tuple] = (),
               threshold: float = 1e6, rtol: float = 1e-10) -> float:
    """Blow-up abscissa of T' = (1+lam*T)(1+(1-lam)*T) - E(x), T(0) = 0.

    E(x) = sum gap*k*x^(k-1) over the corrections.  Integration runs to the
    threshold and the analytic tail 1/(lam*(1-lam)*threshold) accounts for
    the remaining time to infinity.  Returns +inf at lam in {0, 1}; with
    E = 0 this reproduces the plain closed form.
    """
    lam = float(lam)
    if lam in (0.0, 1.0):
        return math.inf
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in [0, 1]")
    corr = [(int(k), float(g)) for k, g in corrections]

    def rhs(x, y):
        th = y[0]
        e = sum(g * k * x ** (k - 1) for k, g in corr)
        return [(1.0 + lam * th) * (1.0 + (1.0 - lam) * th) - e]

    def hit(x, y):
        return y[0] - threshold

    hit.terminal = True
    hit.direction = 1
    x_max = 3.0 * c_plain(lam) + 10.0
    sol = solve_ivp(rhs, (0.0, x_max), [0.0], events=hit,
                    rtol=rtol, atol=1e-12, method="RK45")
    if not sol.t_events[0].size:
        raise RuntimeError("no blow-up detected inside the integration window")
    t_hit = float(sol.t_events[0][0])
    return t_hit + 1.0 / (lam * (1.0 - lam) * threshold)


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


def _kernel_radius(p_minus_1: int, lam: Fraction, cls: ConvexityClass,
                   tol: float = 1e-8) -> float:
    """Spectral radius of the degree p-1 estimating kernel at one lam."""
    lamF = Fraction(lam)
    if lamF in (0, 1):
        return 0.0          # one-sided support: quasi-nilpotent kernel
    rk = reduced_kernel(p_minus_1, lamF, cls)
    two = rk.two_sided()
    if lamF == Fraction(1, 2):
        return float(convolution_radius(two))
    return radius_refined(two, tol=tol).radius


def c_bound_pth_root(lam, p: int, cls: ConvexityClass,
                     tol: float = 1e-8) -> BoundReport:
    """Lower bound (1/r)^(1/p) from the degree p-1 kernel radius at lam."""
    lamF = Fraction(lam)
    r = _kernel_radius(p - 1, lamF, cls, tol=tol)
    return BoundReport(method="pth-root-kernel", q=cls.describe(),
                       lam=float(lamF), p=p, lower=(1.0 / r) ** (1.0 / p),
                       details={"kernel_radius": r, "p_minus_1": p - 1})


def c_log_bound(p: int, cls: ConvexityClass, grid: int = 101,
                radius_tol: float = 1e-8, lam_tol: float = 1e-6) -> BoundReport:
    """Lower bound from the lam-maximized kernel radius.

    Scans lam on [0, 1/2] (the kernel radius is symmetric under
    lam <-> 1-lam), then sharpens the argmax by bounded scalar minimization
    to lam_tol.  Returns (1/max_radius)^(1/p).
    """
    def w_of(lam_float: float) -> float:
        lamF = Fraction(lam_float).limit_denominator(10 ** 9)
        return _kernel_radius(p - 1, lamF, cls, tol=radius_tol)

    lams = [Fraction(k, 2 * (grid - 1)) for k in range(grid)]
    ws = [_kernel_radius(p - 1, l, cls, tol=radius_tol) for l in lams]
    w_max, lam_star = refine_max(w_of, lams, ws, xatol=lam_tol)
    return BoundReport(
        method="log-kernel", q=cls.describe(), p=p,
        lower=(1.0 / w_max) ** (1.0 / p),
        details={"max_kernel_radius": w_max, "arg_lam": lam_star,
                 "grid": grid, "lam_tol": lam_tol},
    )


def kernel_ratio_sup(p_minus_1: int, lam, cls: ConvexityClass,
                     t_grid: int = 2001) -> dict:
    """sup over t of K_cls / K_plain, equal on both signs of t to the
    reduced-kernel ratio on [0, 1] (the lam and 1-lam prefactors cancel)."""
    lamF = Fraction(lam)
    num = reduced_kernel(p_minus_1, lamF, cls)
    den = plain_reduced_kernel(p_minus_1, lamF)
    ts = np.linspace(0.0, 1.0, t_grid)
    nv = np.array([float(num(t)) for t in ts])
    dv = np.array([float(den(t)) for t in ts])
    ratios = np.where(dv > 0, nv / np.where(dv > 0, dv, 1.0), 0.0)
    sup, arg_t = refine_max(lambda t: float(num(t)) / float(den(t)), ts, ratios)
    return {"sup": float(sup), "grid": t_grid, "arg_t": arg_t}


def crude_ratio_bound(lam, p: int, cls: ConvexityClass,
                      t_grid: int = 2001) -> BoundReport:
    """Lower bound 1/(w_plain * S^(1/p)) with S the kernel ratio supremum."""
    info = kernel_ratio_sup(p - 1, lam, cls, t_grid=t_grid)
    s = info["sup"]
    w = w_plain(float(lam))
    lower = math.inf if w == 0 else 1.0 / (w * s ** (1.0 / p))
    return BoundReport(method="crude-ratio", q=cls.describe(), lam=float(lam),
                       p=p, lower=lower, details=info)


def maglower_floor(cls: ConvexityClass, p: int = 5) -> float:
    """The uniform crude floor 2/(3/4 + kappa/4)^(1/p) for the degree-4 gain."""
    kappa = cls.kappa_float
    return 2.0 / (0.75 + 0.25 * kappa) ** (1.0 / p)


def upper_trivial(cls: ConvexityClass, variant: str = "cayley",
                  lam=None) -> BoundReport:
    """Cost-relaxation upper bounds: 2*2^(1/(3q)), or C(lam)*2^(1/(3q))."""
    if cls.q is None and not cls.is_plain:
        raise ValueError("trivial upper bound needs a q-based class")
    growth = 1.0 if cls.is_plain else 2.0 ** (1.0 / (3.0 * float(cls.q)))
    if variant == "cayley" or lam is None:
        return BoundReport(method="trivial-upper", q=cls.describe(),
                           lam=0.5 if variant == "cayley" else None,
                           upper=2.0 * growth, details={"variant": variant})
    if variant != "magnus":
        raise ValueError("variant must be 'cayley' or 'magnus'")
    return BoundReport(method="trivial-upper", q=cls.describe(), lam=float(lam),
                       upper=c_plain(float(lam)) * growth,
                       details={"variant": variant})


def sicompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Convolution-route bound: w <= (max(lam,1-lam) * integral Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = float(max(lamF, 1 - lamF)) * float(rk.integral01())
    return BoundReport(method="sicompar", q=cls.describe(), lam=float(lamF), p=p,
                       lower=(1.0 / w_up) ** (1.0 / p),
                       details={"w_upper": w_up})


def ricompar_bound(lam, p: int, cls: ConvexityClass) -> BoundReport:
    """Trivial-reduced-kernel bound: w <= (w_plain(lam) * max Ktilde)^(1/p)."""
    lamF = Fraction(lam)
    rk = reduced_kernel(p - 1, lamF, cls)
    w_up = w_plain(float(lamF)) * rk.max01()
    lower = math.inf if w_up == 0 else (1.0 / w_up) ** (1.0 / p)
    return BoundReport(method="ricompar", q=cls.describe(), lam=float(lamF), p=p,
                       lower=lower, details={"w_upper": w_up})


def scan_rows(p: int, cls: ConvexityClass, grid: int = 41,
              radius_tol: float = 1e-7) -> list:
    """(lam, kernel radius, pointwise bound) rows over the lam grid."""
    rows = []
    for k in range(grid):
        lam = Fraction(k, 2 * (grid - 1))
        w = _kernel_radius(p - 1, lam, cls, tol=radius_tol)
        rows.append((float(lam), w, (1.0 / w) ** (1.0 / p) if w > 0 else math.inf))
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
