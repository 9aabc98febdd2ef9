"""Spectral radius of nonnegative integral kernels on [0, 1]^2.

Midpoint Nystrom discretization plus power iteration with the averaging
bracket [min (Av)_i/v_i, max (Av)_i/v_i], which encloses the spectral radius
at every step and contracts at rate (M-m)/(M+m) when the kernel is bounded
between positive constants m and M.  Brackets are widened by a few ulps per
step and intersected with the previous bracket, so the stored sequence is
nested; each interval contains the grid operator's radius only until the
noise floor, where the widening proves nothing: the FFT Toeplitz product's
error is not bounded entry by entry.

Toeplitz kernels (two-sided reduced form) multiply through
`scipy.linalg.matmul_toeplitz`.  `radii_refined` answers a stack of
two-sided kernels without that product: at lam = 1/2 by the closed form,
at lam in {0, 1} by 0 (one branch vanishes and the operator is Volterra),
and otherwise by conjugating with rho^t, rho = (1-lam)/lam, which turns the
midpoint grid into a circulant, so rho^(t_i) is the grid's Perron vector
and its eigenvalue is mu_n = sum_e row_e rho^(e/n), read off the grid's
Toeplitz vectors.  That is the left Riemann sum of
lam * integral_0^1 Ktilde(s) rho^s ds, the kernel's exact radius, and the
grid doubling schedule with Richardson extrapolation on it is Romberg
integration.  Its first grid, of 2*REFINE_N0 points, gives the first two
levels, since its even entries are exactly the REFINE_N0-point grid's
samples; each further level samples one doubled grid.

`radii_refined` takes any number of kernels of one degree, REFINE_STACK
at a time, and every level is one numpy pass over such a stack:
`discretize` takes the stack's Toeplitz vectors from one Horner pass of the
reduced kernels at sample points cached per n, and the level sums run along
the stack's rows.  Each kernel meets the same IEEE operations in the same
order as alone, so a kernel's radius is bit for bit the same in any stack;
kernels that settle leave the stack before the next grid.
`radius_refined` is the stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import matmul_toeplitz

from .kernels import TwoSidedKernel
from .series import horner, log_rho


class InvalidKernelError(ValueError):
    """Kernel sample was negative (or not a kernel at all)."""


class InvalidUseError(ValueError):
    """Operation applied to a kernel outside its precondition."""


class UnconvergedError(RuntimeError):
    """A radius the caller needs did not settle within its iteration budget."""


KernelLike = Union[TwoSidedKernel, Callable[[float, float], float]]


@dataclass
class OperatorGrid:
    """Midpoint Nystrom discretization A[i][j] = K(t_i, t_j)/n.

    A Toeplitz grid keeps its first column and row and multiplies with
    `scipy.linalg.matmul_toeplitz`; any other grid keeps its dense matrix.
    Either goes through `_check_samples`, so a non-finite or negative entry
    raises `InvalidKernelError`.
    """

    n: int
    nodes: np.ndarray
    toeplitz: Optional[tuple] = None     # (first column, first row)
    matrix: Optional[np.ndarray] = None
    kernel_min: float = 0.0              # min/max of n*A = sampled kernel values
    kernel_max: float = 0.0

    def __post_init__(self):
        for vals in self.toeplitz or (self.matrix,):
            _check_samples(vals)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.toeplitz is None:
            return self.matrix @ v
        return matmul_toeplitz(self.toeplitz, v)

    @property
    def hopf_rate(self) -> Optional[float]:
        """Contraction rate (M-m)/(M+m); None when the kernel infimum is 0."""
        m, M = self.kernel_min, self.kernel_max
        if m <= 0:
            return None
        return (M - m) / (M + m)


@lru_cache(maxsize=8)
def _sample_points(n: int) -> tuple:
    """(nodes, x, e) of the n-point grid, read-only and shared by every
    kernel: the midpoints t_i; the 2n Horner points of both Toeplitz
    vectors, t = t_i - t_0 for the row, a placeholder 0, then 1 - t for
    t > 0 for the column below the diagonal; and the float exponents
    e = 0, ..., n-1 of the Perron weights rho^(e/n), which are taken as
    exp((-|log rho| * e) / n)."""
    nodes = (np.arange(n) + 0.5) / n
    t = nodes - nodes[0]
    points = (nodes, np.concatenate((t, [0.0], 1.0 - t[1:])), np.arange(n, dtype=float))
    for a in points:
        a.setflags(write=False)
    return points


def _toeplitz_samples(kernels: Sequence[TwoSidedKernel], n: int) -> np.ndarray:
    """Row i holds kernel i's Toeplitz row (entries :n) and column (n:).

    One `horner` pass of every reduced kernel, as a stack of one degree:
    the row at t, the column below the diagonal at 1 - t; the
    column's first entry is the row's, as the diagonal t = 0 takes the lam
    branch.  Each sample is bit for bit the kernel's own scalar call.  A
    kernel with a negative or non-finite sample raises, the first in stack
    order.
    """
    coeffs = [k.reduced.fcoeffs for k in kernels]
    if len({len(c) for c in coeffs}) != 1:
        raise InvalidUseError("a kernel stack needs one or more kernels of one degree")
    vals = horner(np.array(coeffs), _sample_points(n)[1])
    # lam and 1 - lam rounded once each from the exact lam = a/b: int true
    # division rounds correctly, so (b - a) / b is float(1 - lam), without
    # a Fraction subtraction
    ratios = [k.lam.as_integer_ratio() for k in kernels]
    vals[:, :n] *= [[a / b] for a, b in ratios]
    vals[:, n + 1:] *= [[(b - a) / b] for a, b in ratios]
    vals[:, n] = vals[:, 0]
    vals /= n
    if not (vals.min() >= 0.0 and vals.max() < math.inf):
        for row in vals:            # in stack order, each as it would alone
            _check_samples(row[:n])
            _check_samples(row[n:])
    return vals


def discretize(kernel: Union[KernelLike, Sequence[TwoSidedKernel]], n: int):
    """Build the n-point midpoint Nystrom grid for a kernel on [0, 1]^2.

    A sequence of two-sided kernels of one degree gives their Toeplitz
    vectors instead: a pair (cols, rows) of arrays of shape (len, n) whose
    row i is kernel i's first column and first row.  A lone two-sided
    kernel's grid keeps those of its stack of one.
    """
    if n < 2:
        raise InvalidUseError("need n >= 2")
    nodes, _, _ = _sample_points(n)
    if isinstance(kernel, TwoSidedKernel):
        vals = _toeplitz_samples((kernel,), n)[0]
        return OperatorGrid(n=n, nodes=nodes, toeplitz=(vals[n:], vals[:n]),
                            kernel_min=float(vals.min()) * n,
                            kernel_max=float(vals.max()) * n)
    if not callable(kernel):
        vals = _toeplitz_samples(kernel, n)
        return vals[:, n:], vals[:, :n]
    A = np.empty((n, n))
    for i, t0 in enumerate(nodes):
        A[i, :] = [float(kernel(t0, tp)) for tp in nodes]
    _check_samples(A)
    return OperatorGrid(n=n, nodes=nodes, matrix=A / n,
                        kernel_min=float(A.min()), kernel_max=float(A.max()))


@dataclass(slots=True)
class RadiusResult:
    radius: float
    bracket: tuple
    iterations: int
    eigvec: Optional[np.ndarray] = None
    converged: bool = True
    warning: Optional[str] = None
    brackets: list = field(default_factory=list)
    n: Optional[int] = None

    def to_jsonable(self) -> dict:
        return {
            "radius": self.radius,
            "bracket": [self.bracket[0], self.bracket[1]],
            "n": self.n,
            "iterations": self.iterations,
            "converged": self.converged,
            **({"warning": self.warning} if self.warning else {}),
        }


def _check_samples(vals: np.ndarray) -> np.ndarray:
    """The one check of sampled kernel values, in place: a non-finite sample
    raises, then a negative one beyond 1e-12 of the sample scale; the
    negatives left are cancellation noise near kernel zeros and become 0."""
    if not np.isfinite(vals).all():
        raise InvalidKernelError("non-finite kernel sample")
    lo = float(vals.min())
    if lo >= 0.0:
        return vals
    scale = float(np.abs(vals).max())
    if -lo > 1e-12 * max(scale, 1e-300):
        raise InvalidKernelError(f"negative kernel sample {lo:g}")
    return np.maximum(vals, 0.0, out=vals)


def _widen(lo: float, hi: float) -> tuple:
    return (math.nextafter(math.nextafter(lo, -math.inf), -math.inf),
            math.nextafter(math.nextafter(hi, math.inf), math.inf))


def power_iteration_hopf(grid: OperatorGrid, tol: float = 1e-8,
                         max_iter: Optional[int] = None) -> RadiusResult:
    """Power iteration from all ones with nested averaging brackets around
    the radius.

    A triangular Toeplitz grid (a two-sided kernel at lam = 0 or 1, where one
    branch vanishes) is answered without iterating: its radius is the
    diagonal entry, with eigenvector e_1 (upper) or e_n (lower triangular).
    Iterating there would only amplify the FFT round-off below the support.
    """
    if max_iter is None:
        max_iter = 10 * grid.n
    n = grid.n
    if grid.toeplitz is not None:
        col, row = grid.toeplitz
        upper = not col[1:].any()
        if upper or not row[1:].any():
            r = float(col[0])
            v = np.zeros(n)
            v[0 if upper else -1] = 1.0
            return RadiusResult(radius=r, bracket=(r, r), iterations=0, eigvec=v, n=n)
    v = np.ones(n)
    lo, hi = 0.0, np.inf
    brackets = []
    converged, warning = True, None
    for k in range(max_iter):
        w = grid.matvec(v)
        if not np.isfinite(w).all():
            raise FloatingPointError("iterate overflow; normalize the kernel")
        w = np.maximum(w, 0.0)      # FFT matvec noise below the support
        wmax = w.max()
        if wmax <= 0.0:
            brackets.append((0.0, 0.0))
            lo = hi = 0.0
            break
        mask = v > 0                # zero entries of v carry no ratio
        ratios = w[mask] / v[mask]
        nlo, nhi = _widen(float(ratios.min()), float(ratios.max()))
        nlo, nhi = max(nlo, lo, 0.0), min(nhi, hi)
        if nlo > nhi:
            # ratio jitter exceeded the previous width: noise floor reached;
            # the previous bracket failed the tol test, so this never converges
            converged = False
            warning = "floating-point noise floor reached"
            break
        lo, hi = nlo, nhi
        brackets.append((lo, hi))
        v = w / wmax
        if hi - lo <= tol:
            break
    else:
        k = max_iter - 1    # also when the loop never runs (max_iter = 0)
        converged, warning = False, f"bracket width {hi - lo:g} > tol after {max_iter} iterations"
    return RadiusResult(radius=0.5 * (lo + hi), bracket=(lo, hi), iterations=k + 1, eigvec=v,
                        converged=converged, warning=warning, brackets=brackets, n=n)


#: first grid size of `radii_refined`, and how often it may double
REFINE_N0 = 256
REFINE_DOUBLINGS = 5

#: `radii_refined` samples at most this many kernels per grid, which keeps
#: each stacked pass's arrays under about 1 MB
REFINE_STACK = 32

_HALF = Fraction(1, 2)


def _perron_levels(kernels: Sequence[TwoSidedKernel], log_rhos: np.ndarray,
                   n: int) -> list:
    """[(n', mu_n')] for the Romberg levels one n-point grid gives a stack of
    kernels: mu_n' is an array, entry i the eigenvalue of kernel i's n'-point
    grid, whose Perron vector is rho_i^(t_j), with log_rhos[i] = log rho_i.

    mu_n = sum_e row_e rho^(e/n), or equally row_0 + sum_(d>=1) col_d
    rho^(-d/n), since col_d = rho * row_(n-d) for exact samples.  The sum
    taken is the one whose weights are <= 1, so no weight overflows at
    extreme lam; col_0 = row_0 is the sample at t = 0.

    The first grid, n = 2*REFINE_N0, serves two levels: for a power-of-two
    REFINE_N0 its even nodes 2e/(2n) are exactly the nodes e/n of the
    coarser grid, its even weights exp(-|log_rho| * 2e / (2n)) are exactly
    the coarser ones, and twice its samples are exactly the coarser
    samples, so mu_REFINE_N0 comes out bit for bit as on its own grid.
    Every other n gives its own level alone.  The whole stack is one
    `discretize`, and each sum runs along one kernel's row.
    """
    cols, rows = discretize(kernels, n)
    sides = rows            # fresh arrays: each row takes its kernel's side in place
    np.copyto(sides, cols, where=(log_rhos > 0)[:, None])
    weights = np.multiply.outer(-np.abs(log_rhos), _sample_points(n)[2])
    weights /= n
    np.exp(weights, out=weights)
    levels = []
    if n == 2 * REFINE_N0:
        even = 2.0 * sides[:, ::2]
        even *= weights[:, ::2]
        levels.append((REFINE_N0, even.sum(axis=1)))
    weights *= sides
    levels.append((n, weights.sum(axis=1)))
    return levels


def radius_refined(kernel: TwoSidedKernel, tol: float) -> RadiusResult:
    """Radius of one two-sided kernel: `radii_refined` of the stack of one."""
    return radii_refined((kernel,), tol)[0]


def radii_refined(kernels: Sequence[TwoSidedKernel], tol: float) -> list:
    """One RadiusResult per two-sided kernel, by lam:

    - lam = 1/2: the kernel is convolution type and its radius is
      lam * integral(Ktilde) over [0, 1], returned without a grid.
    - lam in {0, 1}: one branch vanishes, so the operator is Volterra, hence
      quasi-nilpotent: radius 0.0, converged, without a grid.
    - 0 < lam < 1 otherwise: conjugating by rho^t, rho = (1-lam)/lam, turns
      the midpoint grid into a circulant, so rho^(t_i) is the grid's Perron
      vector and its radius is

          mu_n = sum_(e<n) row_e rho^(e/n),    row_e = lam * Ktilde(e/n) / n,

      the left Riemann sum of the exact radius lam * int_0^1 Ktilde(s) rho^s ds
      (see `_perron_levels`).  mu_n is taken at n = REFINE_N0,
      2*REFINE_N0, ... and extrapolated assuming an error expansion in
      powers of 1/n (orders 1, 2, ... eliminated in turn, one more per
      level), which is Romberg integration of that integral.  The first
      grid, of 2*REFINE_N0 points, gives the first two levels; each further
      level doubles the grid.  A kernel stops when two successive
      extrapolants agree within tol and gets a warning flag when the
      REFINE_DOUBLINGS budget runs out.  Its result keeps the finest grid's
      n and its bracket (mu_n, mu_n), with 0 iterations and no eigenvector:
      its radius is the extrapolant, not that grid's eigenvalue.  Run
      `power_iteration_hopf` on a grid for one.

    The kernels must share one degree.  They go through the levels
    REFINE_STACK at a time, and each grid is sampled once for the kernels of
    that stack still unsettled; a kernel's result is bit for bit the one it
    gets alone.  A stack's arrays take about 16 KB per kernel on the first
    grid.

    `tol` must be finite and > 0; a lam outside [0, 1] raises
    InvalidKernelError before any grid is sampled, as one branch of that
    kernel is then negative.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite number > 0")
    results, stack = [None] * len(kernels), []
    for i, kernel in enumerate(kernels):
        lam = kernel.lam
        if not 0 <= lam <= 1:
            raise InvalidKernelError(f"lam = {lam} outside [0, 1] gives a negative kernel branch")
        if lam == _HALF:
            r = float(kernel.reduced.integral01() * lam)
            results[i] = RadiusResult(radius=r, bracket=(r, r), iterations=0)
        elif lam == 0 or lam == 1:
            results[i] = RadiusResult(radius=0.0, bracket=(0.0, 0.0), iterations=0)
        else:
            stack.append(i)
    top = REFINE_N0 << REFINE_DOUBLINGS
    for s in range(0, len(stack), REFINE_STACK):
        idx = np.array(stack[s:s + REFINE_STACK])
        log_rhos = np.array([log_rho(kernels[i].lam) for i in idx])
        diag, n = [], (2 * REFINE_N0 if REFINE_DOUBLINGS else REFINE_N0)
        while idx.size:
            for level_n, mu in _perron_levels([kernels[i] for i in idx], log_rhos, n):
                # the Richardson table's last antidiagonal, one entry per
                # kernel: mu, then orders 1, 2, ... eliminated in turn
                prev, diag = diag, [mu]
                for order, coarse in enumerate(prev, 1):
                    f = float(2 ** order)
                    diag.append((f * diag[-1] - coarse) / (f - 1.0))
            converged = np.abs(diag[-1] - prev[-1]) <= tol if prev else np.zeros(idx.size, bool)
            keep = ~converged & (n < top)
            for j in (~keep).nonzero()[0]:
                ok, mu_j = bool(converged[j]), float(mu[j])
                results[idx[j]] = RadiusResult(
                    radius=float(diag[-1][j]), bracket=(mu_j, mu_j), iterations=0,
                    converged=ok, n=level_n, warning=None if ok else
                    "doubling budget exhausted before extrapolants settled")
            idx, log_rhos = idx[keep], log_rhos[keep]
            diag = [d[keep] for d in diag]
            n *= 2
    return results
