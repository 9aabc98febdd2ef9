"""Spectral radius of nonnegative integral kernels on [0, 1]^2.

Midpoint Nystrom discretization plus power iteration with the averaging
bracket [min (Av)_i/v_i, max (Av)_i/v_i], which encloses the spectral radius
at every step and contracts at rate (M-m)/(M+m) when the kernel is bounded
between positive constants m and M.  Brackets are widened by a few ulps per
step and intersected with the previous bracket, so the stored sequence is
nested and each interval still contains the grid operator's radius.

Toeplitz kernels (two-sided reduced form) multiply through the cached FFT of
their embedding circulant, one rfft/irfft pair per step; a grid doubling
schedule with Richardson extrapolation removes the O(1/n) and O(1/n^2)
discretization errors.  For a two-sided kernel with 0 < lam < 1, lam != 1/2,
each grid's Perron vector is known: rho^(t_i) with rho = (1-lam)/lam, since
conjugating by rho^t turns the midpoint grid into a circulant.  Started
there, the first bracket is a few ulps wide, so each level of the schedule
takes one matvec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.fft

from .kernels import TwoSidedKernel


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

    A Toeplitz grid keeps its first column and row, and `spectrum`, the real
    FFT of the circulant that embeds it (the column, then the row reversed
    without its first entry), computed once when the grid is built.  A
    matvec is then one rfft of v zero-padded to p = 2n-1, a product with the
    spectrum and one irfft, cut back to n entries.  The transforms are
    `scipy.fft`'s and p stays 2n-1, the library and the length
    `scipy.linalg.matmul_toeplitz` uses, so the product is bit for bit
    scipy's, on which every pinned radius rests.  A fast length such as 2n
    would be cheaper, but it moves those last bits, and so can `numpy.fft`,
    a separate FFT build whose rounding has changed between numpy versions.
    """

    n: int
    nodes: np.ndarray
    toeplitz: Optional[tuple] = None     # (first column, first row)
    matrix: Optional[np.ndarray] = None
    kernel_min: float = 0.0              # min/max of n*A = sampled kernel values
    kernel_max: float = 0.0
    spectrum: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.toeplitz is not None:
            col, row = self.toeplitz
            embedded = np.concatenate((col, row[-1:0:-1]))
            if not np.isfinite(embedded).all():
                raise InvalidKernelError("non-finite kernel sample")
            self.spectrum = scipy.fft.rfft(embedded)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.spectrum is not None:
            p = 2 * self.n - 1
            return scipy.fft.irfft(self.spectrum * scipy.fft.rfft(v, n=p), n=p)[:self.n]
        return self.matrix @ v

    @property
    def hopf_rate(self) -> Optional[float]:
        """Contraction rate (M-m)/(M+m); None when the kernel infimum is 0."""
        m, M = self.kernel_min, self.kernel_max
        if m <= 0:
            return None
        return (M - m) / (M + m)

    @classmethod
    def from_matrix(cls, A: np.ndarray) -> "OperatorGrid":
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidUseError("matrix grid must be square")
        if (A < 0).any():
            raise InvalidKernelError("negative matrix entry")
        n = A.shape[0]
        nodes = (np.arange(n) + 0.5) / n
        return cls(n=n, nodes=nodes, matrix=A,
                   kernel_min=float(A.min()) * n, kernel_max=float(A.max()) * n)


def discretize(kernel: KernelLike, n: int) -> OperatorGrid:
    """Build the n-point midpoint Nystrom grid for a kernel on [0, 1]^2."""
    if n < 2:
        raise InvalidUseError("need n >= 2")
    nodes = (np.arange(n) + 0.5) / n
    if isinstance(kernel, TwoSidedKernel):
        # one array call per Toeplitz vector; col[0] sits at t = 0
        row = _clamp_roundoff(kernel(nodes - nodes[0]) / n)     # t >= 0
        col = _clamp_roundoff(kernel(nodes[0] - nodes) / n)     # t <= 0
        vals = np.concatenate([col, row])
        return OperatorGrid(n=n, nodes=nodes, toeplitz=(col, row),
                            kernel_min=float(vals.min()) * n,
                            kernel_max=float(vals.max()) * n)
    A = np.empty((n, n))
    for i, t0 in enumerate(nodes):
        A[i, :] = [float(kernel(t0, tp)) for tp in nodes]
    A = _clamp_roundoff(A)
    return OperatorGrid(n=n, nodes=nodes, matrix=A / n,
                        kernel_min=float(A.min()), kernel_max=float(A.max()))


@dataclass
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


def _clamp_roundoff(vals: np.ndarray) -> np.ndarray:
    """Zero out tiny negative samples from polynomial-expansion roundoff.

    Genuinely negative kernels are rejected; magnitudes within 1e-12 of the
    sample scale are cancellation noise near kernel zeros.
    """
    lo = float(vals.min())
    if lo >= 0.0:
        return vals
    scale = float(np.abs(vals).max())
    if -lo > 1e-12 * max(scale, 1e-300):
        raise InvalidKernelError(f"negative kernel sample {lo:g}")
    return np.maximum(vals, 0.0)


def _widen(lo: float, hi: float) -> tuple:
    return (math.nextafter(math.nextafter(lo, -math.inf), -math.inf),
            math.nextafter(math.nextafter(hi, math.inf), math.inf))


def power_iteration_hopf(grid: OperatorGrid, tol: float = 1e-8,
                         max_iter: Optional[int] = None,
                         start: Optional[np.ndarray] = None) -> RadiusResult:
    """Power iteration with nested averaging brackets around the radius.

    The iteration starts from `start` (default: all ones), which must be a
    finite nonnegative vector of length n with a positive entry.  A start
    close to the Perron vector makes the first bracket already narrow; the
    bracket is still an enclosure, as it comes from an actual matvec.

    A triangular Toeplitz grid (a two-sided kernel at lam = 0 or 1, where one
    branch vanishes) is answered without iterating: its radius is the
    diagonal entry, with eigenvector e_1 (upper) or e_n (lower triangular).
    Iterating there would only amplify the FFT round-off below the support.
    """
    if max_iter is None:
        max_iter = 10 * grid.n
    n = grid.n
    if start is None:
        start = np.ones(n)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (n,) or not np.isfinite(start).all() \
                or (start < 0).any() or not (start > 0).any():
            raise InvalidUseError(
                f"start must be a finite nonnegative vector of length {n} "
                "with a positive entry")
    if grid.toeplitz is not None:
        col, row = grid.toeplitz
        upper = not col[1:].any()
        if upper or not row[1:].any():
            r = float(col[0])
            v = np.zeros(n)
            v[0 if upper else -1] = 1.0
            return RadiusResult(radius=r, bracket=(r, r), iterations=0, eigvec=v, n=n)
    v = start
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
            # ratio jitter exceeded the previous width: noise floor reached,
            # the previous bracket is still a valid enclosure
            converged = hi - lo <= tol
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


#: first grid size of `radius_refined`, and how often it may double
REFINE_N0 = 256
REFINE_DOUBLINGS = 5


def radius_refined(kernel: KernelLike, tol: float = 1e-6) -> RadiusResult:
    """Grid-doubling power iteration with Richardson extrapolation.

    Runs the Hopf iteration (to tol/100, at most 10*n steps) at REFINE_N0,
    2*REFINE_N0, ... and extrapolates the bracket midpoints assuming an error
    expansion in powers of 1/n (orders 1, 2, 3 eliminated in turn).  Stops
    when two successive extrapolants agree within tol; sets a warning flag
    when the REFINE_DOUBLINGS budget runs out.  `tol` must be finite and > 0.
    The result keeps the finest grid's bracket, brackets and iterations but
    no eigenvector (`eigvec` is None): its radius is the extrapolant, not
    that grid's eigenvalue.  Run `power_iteration_hopf` on a grid for one.
    A two-sided kernel at lam = 1/2 is convolution type: its radius is
    lam * integral(Ktilde) over [0, 1], returned without a grid.

    For any other two-sided kernel with 0 < lam < 1, each grid's iteration
    starts from rho^(t_i), rho = (1-lam)/lam, scaled to max 1.  Conjugating
    by rho^t turns the midpoint grid into a circulant, so rho^(t_i) is that
    grid's Perron vector exactly: the first bracket is a few ulps wide and
    each level stops after one matvec.  The one-sided grids at lam = 0 and 1
    are triangular and take no step.  Any other kernel starts from ones.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite number > 0")
    if isinstance(kernel, TwoSidedKernel) and kernel.lam == 0.5:
        r = float(kernel.reduced.integral01() * kernel.lam)
        return RadiusResult(radius=r, bracket=(r, r), iterations=0)
    log_rho = 0.0       # rho = 1: the start from ones
    if isinstance(kernel, TwoSidedKernel) and 0 < kernel.lam < 1:
        lam = float(kernel.lam)
        log_rho = math.log1p(-lam) - math.log(lam)
    values, last = [], None
    for level in range(REFINE_DOUBLINGS + 1):
        n = REFINE_N0 * (1 << level)
        grid = discretize(kernel, n)
        x = log_rho * grid.nodes
        result = power_iteration_hopf(grid, tol=tol * 1e-2, max_iter=10 * n,
                                      start=np.exp(x - x.max()))
        values.append(result.radius)
        # Richardson table along the diagonal
        row = list(values)
        for order in range(1, len(values)):
            f = float(2 ** order)
            row = [(f * row[i + 1] - row[i]) / (f - 1.0) for i in range(len(row) - 1)]
        converged = last is not None and bool(abs(row[0] - last) <= tol)
        last = row[0]
        if converged:
            break
    return RadiusResult(radius=last, bracket=result.bracket,
                        iterations=result.iterations, converged=converged,
                        warning=None if converged else
                        "doubling budget exhausted before extrapolants settled",
                        brackets=result.brackets, n=result.n)

