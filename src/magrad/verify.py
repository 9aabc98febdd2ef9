"""Golden-constant verification suite.

Each check pins one acceptance criterion at its stated tolerance; the CLI
`verify` subcommand and the acceptance test module both run these functions.
Frozen regression constants (recorded after their first verified run) live
at the top.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import bch, convexity, kernels, magnus, specrad
from .series import horner
from .umqnorm import PLAIN, ConvexityClass, theta_ab, theta_k

#: blow-up abscissa of the corrected characteristic ODE at lam = 1/2 with the
#: degree-4 gap 1/8 - 5/48 (q = 1); frozen after the first verified run
ODE_GAP_BLOWUP_Q1 = 2.023246155

#: improved cumulative-radius thresholds from the default scan; frozen
C2_IMPROVED_Q1 = 2.904000
C2_IMPROVED_Q2 = 2.901750

_Q1 = ConvexityClass.from_q(1)
_Q2 = ConvexityClass.from_q(2)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.seconds:.1f}s)  {self.detail}"


def _trunc3(x: float) -> float:
    return math.floor(x * 1000) / 1000


def _kernel4_formula(a: int, b: int, lam: Fraction, kappa: Fraction) -> Fraction:
    """The three displayed degree-4 norm polynomials (and their mirrors)."""
    if (a, b) == (3, 1):
        return _kernel4_formula(1, 3, 1 - lam, kappa)
    if (a, b) == (4, 0):
        return _kernel4_formula(0, 4, 1 - lam, kappa)
    if (a, b) == (0, 4):
        plain = -8 * lam ** 3 + 8 * lam ** 2 + lam
        gain = 8 * lam
    elif (a, b) == (1, 3):
        plain = 4 * lam ** 4 - 14 * lam ** 3 + 8 * lam ** 2 + 2 * lam
        gain = 8 * lam
    elif (a, b) == (2, 2):
        plain = 8 * lam ** 4 - 16 * lam ** 3 + 4 * lam ** 2 + 4 * lam
        gain = 4
    else:
        raise ValueError((a, b))
    gain *= lam * (1 - lam) * min(lam, 1 - lam)
    return (plain - (1 - kappa) * gain) / 24


def check_exact_theta() -> tuple[bool, str]:
    """Degree-4 norm at lam = 1/2: exact 5/48 at q=1, tight enclosure at q=2."""
    half = Fraction(1, 2)
    t1 = theta_k(4, half, _Q1)
    ok1 = t1.exact and t1.value == Fraction(5, 48)
    t2 = theta_k(4, half, _Q2)
    # theta = (2 + kappa)/24 with kappa = 2**(-1/2): containment is exact iff
    # (24*lo - 2)^2 <= 1/2 <= (24*hi - 2)^2
    lo_k, hi_k = 24 * t2.lo - 2, 24 * t2.hi - 2
    ok2 = (t2.width < Fraction(1, 10 ** 12)
           and lo_k ** 2 <= Fraction(1, 2) <= hi_k ** 2)
    return ok1 and ok2, (
        f"q=1: {t1.lo} (want 5/48); q=2 enclosure width {float(t2.width):.2e}"
    )


def check_kernel4_formulas() -> tuple[bool, str]:
    """LP values match the three displayed polynomials exactly at 7 lams."""
    lams = [Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(2, 5),
            Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)]
    half = Fraction(1, 2)
    bad = []
    for lam in lams:
        for (a, b) in ((0, 4), (1, 3), (2, 2)):
            got = theta_ab(a, b, lam, _Q1).value
            want = _kernel4_formula(a, b, lam, half)
            if got != want:
                bad.append((a, b, lam))
    return not bad, f"21 exact LP/formula comparisons, mismatches: {bad or 'none'}"


def check_cayley_constants() -> tuple[bool, str]:
    """Half-point fifth-root bounds and cost-relaxation uppers, 3 decimals."""
    vals = {}
    for q, cls, want_lo, want_up in ((2, _Q2, 2.041, 2.244), (1, _Q1, 2.074, 2.519)):
        lo = magnus.c_bound_pth_root(Fraction(1, 2), 5, cls).lower
        up = magnus.upper_trivial(cls, "cayley").upper
        vals[q] = (lo, up)
        if _trunc3(lo) != want_lo or _trunc3(up) != want_up:
            return False, f"q={q}: got {lo:.6f}/{up:.6f}, want {want_lo}/{want_up}"
    return True, ("q=2: {:.6f}/{:.6f}; q=1: {:.6f}/{:.6f}".format(
        *vals[2], *vals[1]))


def check_log_bounds() -> tuple[bool, str]:
    """lam-minimized kernel bounds: 2.040800 (q=2), 2.071801 (q=1) +- 1e-4."""
    msgs = []
    ok = True
    for cls, want in ((_Q2, 2.040800), (_Q1, 2.071801)):
        r = magnus.c_log_bound(5, cls, grid=101)
        floor = magnus.maglower_floor(cls)
        ok &= abs(r.lower - want) <= 1e-4 and floor < r.lower
        msgs.append(f"{cls.describe()}: {r.lower:.7f} (want {want}+-1e-4), "
                    f"floor {floor:.6f}")
    return ok, "; ".join(msgs)


def check_plain_closed_form() -> tuple[bool, str]:
    """Degree-0 kernel radius and eigenvector against the closed forms."""
    worst_r, worst_v = 0.0, 0.0
    for k in range(1, 10):
        lam = Fraction(k, 10)
        two = kernels.plain_reduced_kernel(0, lam).two_sided()
        res = specrad.radius_refined(two, tol=1e-8)
        worst_r = max(worst_r, abs(res.radius - magnus.w_plain(lam)))
        grid = specrad.discretize(two, 2048)
        pres = specrad.power_iteration_hopf(grid, tol=1e-10)
        f = ((1.0 - float(lam)) / float(lam)) ** grid.nodes
        v = pres.eigvec / pres.eigvec.max()
        worst_v = max(worst_v, float(np.abs(v - f / f.max()).max()))
    ok = worst_r <= 1e-6 and worst_v <= 1e-4
    return ok, f"max radius err {worst_r:.2e} (tol 1e-6), eigvec err {worst_v:.2e} (tol 1e-4)"


def check_euler_ode() -> tuple[bool, str]:
    """Recursion halving, uncorrected blow-up bracketing 2, corrected past 2."""
    th = magnus.euler_coeffs(Fraction(1, 2), 20)
    ok1 = all(th[k] == Fraction(1, 2 ** (k - 1)) for k in range(1, 21))
    br = magnus.blowup_bracket(Fraction(1, 2))
    v0 = magnus.ode_blowup(0.5)
    ok2 = br.lo < 2 < br.hi and abs(v0 - 2.0) <= 1e-6
    gap = Fraction(1, 8) - Fraction(5, 48)
    v1 = magnus.ode_blowup(0.5, corrections=[(4, float(gap))])
    ok3 = v1 > 2.0 and abs(v1 - ODE_GAP_BLOWUP_Q1) <= 1e-6
    return ok1 and ok2 and ok3, (
        f"T_k halving exact to k=20; blowup {v0:.9f} (want 2+-1e-6); "
        f"corrected {v1:.9f} (frozen {ODE_GAP_BLOWUP_Q1})"
    )


def check_plain_kernel_oracle() -> tuple[bool, str]:
    """Binomial/Theta assembly equals the generating-function coefficients."""
    count = 0
    for lam in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)):
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            gt = kernels.g_tilde_series(lam, t, 6)
            for p1 in range(7):
                if kernels.plain_reduced_kernel(p1, lam)(t) != gt[p1]:
                    return False, f"mismatch at lam={lam}, t={t}, p-1={p1}"
                count += 1
    return True, f"{count} exact coefficient comparisons"


def check_maglower() -> tuple[bool, str]:
    """Exact degree-4 correction identity plus the grid ratio floors."""
    # two-sided identity (KP - KA)(t) == (1-kappa)*B(lam, t) at q=1, exact
    # per lam: both sides have degree <= 4 in t on each branch, so seven
    # points on [0, 1] and six on [-1, 0) pin it
    half = Fraction(1, 2)
    for lam in (Fraction(k, 17) for k in list(range(1, 8)) + list(range(10, 17))):
        kA = kernels.reduced_kernel(4, lam, _Q1).two_sided()
        kP = kernels.plain_reduced_kernel(4, lam).two_sided()
        for t in (Fraction(k, 6) for k in range(-6, 7)):
            if kP(t) - kA(t) != half * kernels.b_correction(lam, t):
                branch = "upper" if t >= 0 else "lower"
                return False, f"{branch}-branch identity fails at lam={lam}, t={t}"
    # ratio floors on the 1e-3 grids (B over the plain two-sided kernel)
    def ratio_min(lam_lo, lam_hi):
        lams = np.clip(np.arange(lam_lo, lam_hi + 1e-12, 1e-3), lam_lo, lam_hi)
        ts = np.linspace(-1.0, 1.0, 2001)
        L, T = np.meshgrid(lams, ts, indexing="ij")
        stack = np.array([kernels.plain_reduced_kernel(4, lam).fcoeffs for lam in lams])
        ktilde = horner(stack, np.where(ts >= 0, ts, ts + 1.0))
        kplain = np.where(T >= 0, L * ktilde, (1.0 - L) * ktilde)
        bvals = np.vectorize(kernels.b_correction)(L, T)
        return float((bvals / kplain).min())
    m1 = ratio_min(0.4, 0.6)
    lams2 = np.concatenate([np.arange(1 / 3, 0.4, 1e-3),
                            np.arange(0.6 + 1e-3, 2 / 3 + 1e-12, 1e-3)])
    m2 = math.inf
    for lam0 in (lams2[lams2 < 0.5], lams2[lams2 > 0.5]):
        if lam0.size:
            m2 = min(m2, ratio_min(float(lam0.min()), float(lam0.max())))
    ok = m1 > 0.25 and m2 > 0.2
    return ok, (f"identity exact at 14 lams; min B/K = {m1:.4f} on [2/5,3/5] "
                f"(floor 1/4), {m2:.4f} on [1/3,2/3] minus [2/5,3/5] (floor 1/5)")


def check_bch_threshold() -> tuple[bool, str]:
    """Norm peak at the known cumulative radius and the plain rescan."""
    mx, arg = bch.max_upsilon_l1(1.44923965, 1.44923965)
    ok1 = abs(mx - 1.0) <= 1e-4 and 0.35865 <= min(arg, 1 - arg) <= 0.35866
    r = bch.c2_improved(PLAIN)
    ok2 = abs(r.value - bch.C2_REFERENCE) <= 1e-3
    return ok1 and ok2, (f"max {mx:.6f} at lam={arg:.6f}; plain threshold "
                         f"{r.value:.6f} (ref {bch.C2_REFERENCE})")


def check_block_component() -> tuple[bool, str]:
    """Cross-degree (3,5) factors, sign window, and the improved thresholds."""
    comp = bch.upsilon_power_component(3, (3, 5))
    c = bch.resolvent_series(5)
    c2sq, c3 = c[2] * c[2], c[3]
    plus, minus = bch._aligned_words()
    ok1 = all(comp.coeff(w) == c2sq for w in plus) and comp.coeff(minus) == c3
    # sign pattern on the critical window, exact at the rational endpoints
    ok2 = True
    for lam in (Fraction(35865, 100000), Fraction(35866, 100000)):
        ok2 &= c3(lam) < 0 < c2sq(lam)
    r1 = bch.c2_improved(_Q1)
    r2 = bch.c2_improved(_Q2)
    ok3 = (r1.margin > 0 and r2.margin > 0
           and abs(r1.value - C2_IMPROVED_Q1) <= 1e-6
           and abs(r2.value - C2_IMPROVED_Q2) <= 1e-6)
    return ok1 and ok2 and ok3, (
        f"quartic factors exact; signs (+,+,+,-) on window; improved "
        f"q=1: {r1.value:.6f}, q=2: {r2.value:.6f} (margins "
        f"{r1.margin:+.1e}/{r2.margin:+.1e})")


def check_appendix_machinery() -> tuple[bool, str]:
    """Nested Hopf brackets, the contraction width bound, spectral locality."""
    rng = np.random.default_rng(11)
    worst_slack = math.inf
    for trial in range(100):
        coeff = rng.uniform(0.0, 1.0, size=6)
        coeff[0] += 0.05    # keep m > 0 for most trials

        def kern(s, t, c=coeff):
            return (c[0] + c[1] * s + c[2] * t + c[3] * s * t
                    + c[4] * s * s + c[5] * t * t)

        grid = specrad.discretize(kern, 48)
        res = specrad.power_iteration_hopf(grid, tol=1e-12, max_iter=600)
        widths = [hi - lo for lo, hi in res.brackets]
        if any(widths[i + 1] > widths[i] for i in range(len(widths) - 1)):
            return False, f"bracket nesting violated on trial {trial}"
        rate = grid.hopf_rate
        if rate is not None:
            spread = grid.kernel_max - grid.kernel_min
            for i, w in enumerate(widths):
                bound = rate ** i * spread
                if w > bound * (1 + 1e-9) + 1e-300:
                    return False, f"Hopf width bound violated at step {i}"
                worst_slack = min(worst_slack, bound - w)
    # spectral locality on random dense nonnegative matrices
    worst = 0.0
    for trial in range(20):
        A = rng.uniform(0.0, 1.0, size=(32, 32))
        r_dense = float(np.abs(np.linalg.eigvals(A)).max())
        logscale, B = 0.0, A.copy()
        for _ in range(30):                 # n = 2**30 by repeated squaring
            s = float(np.abs(B).max())
            B = (B / s) @ B
            logscale = 2.0 * logscale + math.log(s)
        val = math.exp((logscale + math.log(float(B.sum()))) / 2.0 ** 30)
        worst = max(worst, abs(val - r_dense))
    ok = worst <= 1e-4
    return ok, (f"100 kernels nested+rate-bounded; locality max err "
                f"{worst:.2e} over 20 matrices (tol 1e-4)")


def check_convexity_sampling() -> tuple[bool, str]:
    """No violations of either sampled operator inequality, 1e4 trials each."""
    configs = ((2.0, 8), (3.0, 6), (1.5, 6))
    ratios = []
    for p, n in configs:
        sp = convexity.LpSpace(n=n, p=p)
        r1 = convexity.check_umd_sampled(sp, trials=10_000, seed=2024)
        r2 = convexity.check_umq_sampled(sp, trials=10_000, seed=2024)
        if not (r1.passed and r2.passed):
            return False, f"violation at p={p}, n={n}"
        ratios.append(max(r1.max_ratio, r2.max_ratio))
    return True, f"0 violations; max ratios {['%.3f' % r for r in ratios]}"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("01-exact-theta", check_exact_theta),
    ("02-kernel4-formulas", check_kernel4_formulas),
    ("03-cayley-constants", check_cayley_constants),
    ("04-log-bounds", check_log_bounds),
    ("05-plain-closed-form", check_plain_closed_form),
    ("06-euler-ode", check_euler_ode),
    ("07-plain-kernel-oracle", check_plain_kernel_oracle),
    ("08-maglower-identity", check_maglower),
    ("09-bch-threshold", check_bch_threshold),
    ("10-block-component", check_block_component),
    ("11-appendix-machinery", check_appendix_machinery),
    ("12-convexity-sampling", check_convexity_sampling),
]


def run_checks(names: Optional[list[str]] = None) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        if names and not any(sel in name for sel in names):
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:         # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        res = CheckResult(name=name, passed=passed, detail=detail,
                          seconds=time.time() - t0)
        print(res.line())
        results.append(res)
    return results
