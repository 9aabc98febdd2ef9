"""Nystrom grids, Hopf-bracketed power iteration, and the refined radius."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import matmul_toeplitz

from magrad import magnus, specrad
from magrad.kernels import (ReducedKernel, TwoSidedKernel, plain_reduced_kernel,
                            reduced_kernel)
from magrad.magnus import c_bound_pth_root, w_plain
from magrad.specrad import (
    InvalidKernelError,
    InvalidUseError,
    OperatorGrid,
    discretize,
    power_iteration_hopf,
    radii_refined,
    radius_refined,
)
from magrad.umqnorm import PLAIN, ConvexityClass

Q1 = ConvexityClass.from_q(1)
CLASSES = {"plain": PLAIN, "1": Q1, "2": ConvexityClass.from_q(2)}


def kernel_radius(p_minus_1, lam, cls) -> float:
    """The degree p-1 kernel radius at lam as the p-th-root bound takes it."""
    return c_bound_pth_root(lam, p_minus_1 + 1, cls).details["kernel_radius"]


def matrix_grid(A) -> OperatorGrid:
    """A dense grid whose matrix is the nonnegative square matrix A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return OperatorGrid(n=n, nodes=(np.arange(n) + 0.5) / n, matrix=A,
                        kernel_min=float(A.min()) * n, kernel_max=float(A.max()) * n)


def grid_convolve(k1: TwoSidedKernel, k2: TwoSidedKernel, n: int) -> OperatorGrid:
    """Discretized kernel product (K1 * K2)(s, t) = int K1(s, r) K2(r, t) dr.

    The product grid is the matrix product of the factor grids (the 1/n
    quadrature weight is already in each factor), formed with scipy's
    Toeplitz product as an oracle independent of `OperatorGrid.matvec`.
    """
    (c1, r1), (c2, r2) = discretize(k1, n).toeplitz, discretize(k2, n).toeplitz
    A = matmul_toeplitz((c1, r1), np.eye(n))
    B = matmul_toeplitz((c2, r2), np.eye(n))
    return matrix_grid(A @ B)


class TestDiscretize:
    def test_constant_kernel(self):
        g = discretize(lambda s, t: 0.7, 8)
        assert np.allclose(g.matrix, 0.7 / 8)
        assert g.kernel_min == g.kernel_max == pytest.approx(0.7)

    def test_degree_zero_two_value_toeplitz(self):
        lam = Fraction(1, 3)
        g = discretize(plain_reduced_kernel(0, lam).two_sided(), 16)
        col, row = g.toeplitz
        assert np.allclose(row, float(lam) / 16)          # above the diagonal
        assert np.allclose(col[1:], float(1 - lam) / 16)  # strictly below
        assert col[0] == row[0]                           # diagonal: lam branch

    def test_negative_kernel_rejected(self):
        with pytest.raises(InvalidKernelError):
            discretize(lambda s, t: s - t, 8)

    def test_roundoff_negatives_clamped_to_zero(self):
        # a negative sample within 1e-12 of the scale is cancellation noise
        vals = specrad._check_samples(np.array([1.0, -1e-18, 0.5]))
        assert vals.tolist() == [1.0, 0.0, 0.5] and not np.signbit(vals).any()
        g = discretize(lambda s, t: -1e-18 if s == t else 1.0, 4)
        assert g.matrix.diagonal().tolist() == [0.0] * 4 and g.kernel_min == 0.0

    def test_non_finite_sample_is_checked_first(self):
        for bad in (-math.inf, math.nan):
            with pytest.raises(InvalidKernelError, match="^non-finite kernel sample$"):
                specrad._check_samples(np.array([1.0, -1.0, bad]))

    @pytest.mark.parametrize("route", ["stack", "two-sided", "radius", "callable"])
    @pytest.mark.parametrize("bad", [-math.inf, math.nan, math.inf],
                             ids=["-inf", "nan", "inf"])
    def test_non_finite_kernel_rejected_on_every_route(self, bad, route):
        # a -inf sample's scale is inf, which must not hide it, and a
        # callable's NaN or inf must fail here, not in power iteration
        two = ReducedKernel(coeffs=(bad, 1.0), lam=Fraction(1, 3), p_minus_1=1).two_sided()
        stack = [plain_reduced_kernel(1, Fraction(1, 3)).two_sided(), two]
        run = {"stack": lambda: discretize(stack, 8),
               "two-sided": lambda: discretize(two, 8),
               "radius": lambda: radius_refined(two, tol=1e-8),
               "callable": lambda: discretize(lambda s, t: bad if s == t else 1.0, 8)}[route]
        with pytest.raises(InvalidKernelError, match="^non-finite kernel sample$"):
            run()

    def test_needs_two_nodes(self):
        with pytest.raises(InvalidUseError):
            discretize(lambda s, t: 1.0, 1)

    @pytest.mark.parametrize("q,pm1,lam", [
        ("plain", 0, "1/7"), ("plain", 4, "1/7"), ("plain", 7, "2/7"),
        ("plain", 3, "0"), ("1", 3, "1/7"), ("2", 3, "1/7")])
    def test_array_sampling_matches_scalar_calls(self, q, pm1, lam):
        # the Toeplitz vectors are the scalar samples K(t)/n, the row at t
        # and the column at -t, both from t = 0 (-0.0 takes the lam branch);
        # at lam = 1/7, float(1 - lam) and 1 - float(lam) differ in the last bit
        rk = reduced_kernel(pm1, Fraction(lam), CLASSES[q])
        two = rk.two_sided()
        n = 257
        g = discretize(two, n)
        col, row = g.toeplitz
        t = g.nodes - g.nodes[0]
        for got, ts in ((row, t), (col, -t)):
            want = np.array([float(two(x)) for x in ts]) / n
            assert got.tobytes() == want.tobytes()
            want = np.array([float(rk(x)) for x in ts + 1])
            assert rk(ts + 1).tobytes() == want.tobytes()
        samples = np.concatenate((col, row))
        assert (g.kernel_min, g.kernel_max) == (samples.min() * n, samples.max() * n)


class TestToeplitzMatvec:
    @pytest.mark.parametrize("n", [2, 3, 256, 257, 4096])
    @pytest.mark.parametrize("q,pm1,lam", [
        ("plain", 0, "331/1009"), ("plain", 2, "331/1009"),
        ("plain", 7, "331/1009"), ("1", 3, "1/7"), ("2", 3, "1/7")])
    def test_equals_scipy_bit_for_bit(self, q, pm1, lam, n):
        # the product is scipy's, on whose bits `magrad radius` rests, and it
        # agrees with the direct sum over the Toeplitz diagonals h[i-j],
        # h = (row reversed, col), to 1e-13 of the sum of |terms|
        two = reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided()
        g = discretize(two, n)
        col, row = g.toeplitz
        h = np.concatenate((row[:0:-1], col))
        rng = np.random.default_rng(n + 10 * pm1)
        for v in (np.ones(n), rng.uniform(0.0, 1.0, n), rng.standard_normal(n)):
            got = g.matvec(v)
            assert np.array_equal(got, matmul_toeplitz(g.toeplitz, v))
            want = np.convolve(h, v)[n - 1:2 * n - 1]
            scale = np.convolve(np.abs(h), np.abs(v))[n - 1:2 * n - 1]
            assert (np.abs(got - want) <= 1e-13 * scale).all()

    def test_non_finite_sample_rejected(self):
        nodes = (np.arange(2) + 0.5) / 2
        with pytest.raises(InvalidKernelError):
            OperatorGrid(n=2, nodes=nodes,
                         toeplitz=(np.array([1.0, np.nan]), np.array([1.0, 0.5])))

    @pytest.mark.parametrize("bad", [-5.0, np.nan])
    def test_dense_grid_samples_checked(self, bad):
        # [[1, -5], [1, 1]] / 2 has radius 1.22 but a Hopf bracket of 0.5
        with pytest.raises(InvalidKernelError):
            matrix_grid(np.array([[1.0, bad], [1.0, 1.0]]) / 2)


class TestPowerIteration:
    def test_constant_kernel_collapses_immediately(self):
        g = discretize(lambda s, t: 0.3, 32)
        res = power_iteration_hopf(g, tol=1e-12)
        assert res.iterations == 1
        assert res.radius == pytest.approx(0.3, abs=1e-12)

    def test_zero_kernel(self):
        g = matrix_grid(np.zeros((5, 5)))
        res = power_iteration_hopf(g)
        assert res.radius == 0.0 and res.bracket == (0.0, 0.0)

    def test_random_matrices_bracket_dense_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.uniform(0, 1, size=(8, 8))
            g = matrix_grid(A)
            res = power_iteration_hopf(g, tol=1e-10)
            r = float(np.abs(np.linalg.eigvals(A)).max())
            lo, hi = res.bracket
            assert lo - 1e-9 <= r <= hi + 1e-9
            widths = [b[1] - b[0] for b in res.brackets]
            assert all(widths[i + 1] <= widths[i] for i in range(len(widths) - 1))

    def test_hopf_width_bound(self):
        g = discretize(lambda s, t: 1.0 + 0.5 * s * t, 32)
        res = power_iteration_hopf(g, tol=1e-13, max_iter=200)
        rate = g.hopf_rate
        spread = g.kernel_max - g.kernel_min
        for i, (lo, hi) in enumerate(res.brackets):
            assert hi - lo <= rate ** i * spread * (1 + 1e-9)

    def test_nonconvergence_flagged(self):
        g = discretize(lambda s, t: 1.0 + s + t, 64)
        res = power_iteration_hopf(g, tol=1e-15, max_iter=3)
        assert not res.converged and res.warning

    def test_edge_exits_keep_their_fields(self):
        # the zero kernel settles whatever the tolerance; no budget, no step
        zero = power_iteration_hopf(matrix_grid(np.zeros((3, 3))), tol=-1.0)
        assert (zero.radius, zero.bracket, zero.iterations, zero.converged,
                zero.warning, zero.brackets) == (0.0, (0.0, 0.0), 1, True, None, [(0.0, 0.0)])
        none = power_iteration_hopf(discretize(lambda s, t: 1.0, 4), max_iter=0)
        assert (none.radius, none.bracket, none.iterations, none.converged,
                none.warning, none.brackets) == (
            math.inf, (0.0, math.inf), 0, False,
            "bracket width inf > tol after 0 iterations", [])
        assert np.array_equal(none.eigvec, np.ones(4))

    @staticmethod
    def _noise_floor_case():
        """Plain p-1 = 2 at lam = 999/1000 on 16 points, iterated to
        tol = 1e-300, with mu_16 = sum_e row_e rho^(e/16), the grid's exact
        eigenvalue, summed by math.fsum from the grid's own row."""
        lam, n = Fraction(999, 1000), 16
        g = discretize(plain_reduced_kernel(2, lam).two_sided(), n)
        rho = float((1 - lam) / lam)
        mu = math.fsum(r * rho ** (e / n) for e, r in enumerate(g.toeplitz[1]))
        return power_iteration_hopf(g, tol=1e-300), mu

    def test_noise_floor_stops_unconverged(self):
        res, _ = self._noise_floor_case()
        assert res.warning == "floating-point noise floor reached"
        assert res.converged is False and res.iterations == 50
        assert res.bracket == res.brackets[-1] and len(res.brackets) == 49

    @pytest.mark.xfail(strict=True, reason="the Hopf bracket stops enclosing the grid "
                       "eigenvalue near the noise floor: FFT product error is not "
                       "bounded entry by entry (ROADMAP)")
    def test_every_bracket_encloses_the_grid_eigenvalue(self):
        # from the 35th bracket on, the brackets lie below mu_16
        res, mu = self._noise_floor_case()
        assert all(lo <= mu <= hi for lo, hi in res.brackets)

    def test_hopf_rate_absent_when_infimum_zero(self):
        g = discretize(lambda s, t: max(t - s, 0.0), 16)
        assert g.kernel_min == 0.0 and g.hopf_rate is None


class TestConvolutionRadius:
    """At lam = 1/2 the kernel is convolution type and `radius_refined`
    returns lam * integral(Ktilde) over [0, 1] without a grid."""

    @pytest.mark.parametrize("q", ["plain", "1", "2"])
    def test_refined_builds_no_grid_at_half(self, monkeypatch, q):
        rk = reduced_kernel(4, Fraction(1, 2), CLASSES[q])

        def no_grid(kernel, n):
            raise AssertionError("a convolution kernel needs no grid")

        monkeypatch.setattr(specrad, "discretize", no_grid)
        res = radius_refined(rk.two_sided(), tol=1e-8)
        r = float(rk.integral01() * rk.lam)
        assert (res.radius, res.bracket, res.converged) == (r, (r, r), True)

    def test_constant_half_point_kernel(self):
        assert kernel_radius(4, Fraction(1, 2), Q1) == float(Fraction(5, 192))

    def test_plain_degree_zero(self):
        r = c_bound_pth_root(Fraction(1, 2), 1, PLAIN)
        assert r.details["kernel_radius"] == 0.5 and r.lower == 2.0

    def test_off_center_is_refined_and_agrees_at_half(self):
        for p_minus_1, lam, cls in ((0, Fraction(1, 3), PLAIN),
                                    (4, Fraction(1, 3), Q1)):
            two = reduced_kernel(p_minus_1, lam, cls).two_sided()
            assert kernel_radius(p_minus_1, lam, cls) \
                == radius_refined(two, tol=1e-8).radius
        two = reduced_kernel(4, Fraction(1, 2), Q1).two_sided()
        assert radius_refined(two, tol=1e-8).radius == pytest.approx(
            kernel_radius(4, Fraction(1, 2), Q1), abs=1e-8)


class TestRadiusRefined:
    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(3, 10),
                                     Fraction(7, 10)])
    def test_plain_closed_form(self, lam):
        two = plain_reduced_kernel(0, lam).two_sided()
        res = radius_refined(two, tol=1e-8)
        assert res.converged
        assert res.radius == pytest.approx(w_plain(float(lam)), abs=1e-6)

    def test_dominant_eigenvector(self):
        lam = Fraction(3, 10)
        two = plain_reduced_kernel(0, lam).two_sided()
        g = discretize(two, 1024)
        res = power_iteration_hopf(g, tol=1e-10)
        f = ((1 - float(lam)) / float(lam)) ** g.nodes
        err = np.abs(res.eigvec / res.eigvec.max() - f / f.max()).max()
        assert err < 1e-4

    def test_refined_result_carries_no_eigvec(self):
        two = plain_reduced_kernel(0, Fraction(3, 10)).two_sided()
        res = radius_refined(two, tol=1e-8)
        assert res.eigvec is None and res.n >= 256
        mu = res.bracket[0]
        assert res.bracket == (mu, mu) and mu != res.radius
        assert (res.iterations, res.brackets) == (0, [])

    @pytest.mark.parametrize("pm1", [0, 2, 4])
    @pytest.mark.parametrize("lam", ["0", "1"])
    def test_one_sided_kernel_has_radius_zero(self, monkeypatch, pm1, lam):
        # one branch vanishes, so the operator is Volterra: radius 0 without
        # a grid, for every class
        def no_grid(kernel, n):
            raise AssertionError("a Volterra kernel needs no grid")

        monkeypatch.setattr(specrad, "discretize", no_grid)
        for q, cls in CLASSES.items():
            res = radius_refined(reduced_kernel(pm1, Fraction(lam), cls).two_sided(), tol=1e-8)
            assert (res.radius, res.bracket, res.converged, res.iterations) == (
                0.0, (0.0, 0.0), True, 0), q

    @pytest.mark.parametrize("q", ["plain", "1", "2"])
    @pytest.mark.parametrize("lam", ["-1/3", "5/2"])
    def test_lambda_outside_unit_interval_rejected(self, monkeypatch, q, lam):
        # one branch of the kernel is negative there; the grid would say so
        # too, but the check comes first
        monkeypatch.setattr(specrad, "discretize", None)
        two = reduced_kernel(2, Fraction(lam), CLASSES[q]).two_sided()
        with pytest.raises(InvalidKernelError, match=r"outside \[0, 1\]"):
            radius_refined(two, tol=1e-8)

    def test_budget_exhaustion_flag(self, monkeypatch):
        monkeypatch.setattr(specrad, "REFINE_N0", 32)
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", 1)
        two = plain_reduced_kernel(0, Fraction(1, 10)).two_sided()
        res = radius_refined(two, tol=1e-14)
        assert not res.converged and res.warning

    def test_monotone_in_kernel(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            c = rng.uniform(0.1, 1.0, size=3)
            d = rng.uniform(0.0, 0.5, size=3)
            k1 = lambda s, t, c=c: c[0] + c[1] * s + c[2] * t
            k2 = lambda s, t, c=c, d=d: c[0] + d[0] + (c[1] + d[1]) * s \
                + (c[2] + d[2]) * t
            r1 = power_iteration_hopf(discretize(k1, 64), tol=1e-10).radius
            r2 = power_iteration_hopf(discretize(k2, 64), tol=1e-10).radius
            assert r1 <= r2 + 1e-12


LEGENDRE_X, LEGENDRE_W = np.polynomial.legendre.leggauss(40)


def exact_radius(rk) -> float:
    """lam * int_0^1 Ktilde(s) rho^s ds, rho = (1-lam)/lam, by the 40-node
    Gauss-Legendre rule on [0, 1] (exact to round-off for these kernels)."""
    lam = float(rk.lam)
    s = (LEGENDRE_X + 1) / 2
    return lam * float(np.sum(LEGENDRE_W / 2 * rk(s) * ((1 - lam) / lam) ** s))


class TestExactRadius:
    """Closed forms that pin the refined radius and the grid eigenpairs.

    Conjugating by rho^x, rho = (1-lam)/lam, turns the two-sided kernel into
    a convolution on the circle with symbol lam*Ktilde(s)*rho^s: the wrapped
    branch gains (1-lam)*rho^(s-1) = lam*rho^s.  So f(t) = rho^t is the
    positive (Perron) eigenfunction at every degree, and
    r(K_lam) = lam * int_0^1 Ktilde(s) rho^s ds.  The same substitution on
    the midpoint grid gives eigenvector rho^(t_i) and radius
    sum_j row_j rho^(j/n), with row the grid's first row.
    """

    LAMS = [Fraction(3, 1009), Fraction(1, 7), Fraction(331, 1009),
            Fraction(1, 3), Fraction(2, 5), Fraction(7, 10), Fraction(1006, 1009)]
    # p-1 = 5 is left out for the LP classes: assembling one such kernel
    # takes seconds
    DEGREES = [("plain", pm1) for pm1 in range(8)] \
        + [(q, pm1) for q in ("1", "2") for pm1 in range(5)]

    @pytest.mark.parametrize("q,pm1", DEGREES, ids=[f"{q}-{d}" for q, d in DEGREES])
    def test_refined_radius_matches_integral(self, q, pm1):
        for lam in self.LAMS:
            rk = reduced_kernel(pm1, lam, CLASSES[q])
            r = radius_refined(rk.two_sided(), tol=1e-8).radius
            assert abs(r - exact_radius(rk)) <= 1e-8, lam

    GRIDS = [("plain", 2), ("plain", 4), ("plain", 7), ("1", 2), ("1", 4),
             ("2", 2), ("2", 4)]

    @pytest.mark.parametrize("q,pm1", GRIDS, ids=[f"{q}-{d}" for q, d in GRIDS])
    @pytest.mark.parametrize("lam", ["1/7", "331/1009", "7/10"])
    def test_grid_eigenpair_closed_form(self, q, pm1, lam):
        n = 512
        g = discretize(reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided(), n)
        res = power_iteration_hopf(g, tol=1e-13)
        rho = (1 - float(Fraction(lam))) / float(Fraction(lam))
        f = rho ** g.nodes
        assert np.abs(res.eigvec / res.eigvec.max() - f / f.max()).max() <= 1e-12
        row = g.toeplitz[1]
        want = float(np.sum(row * rho ** (np.arange(n) / n)))
        assert abs(res.radius - want) <= 1e-14 * want


class TestPerronStart:
    """`radius_refined` reads each grid's eigenvalue off its exact Perron
    vector rho^(t_i) (see TestExactRadius): mu_n = sum_e row_e rho^(e/n),
    with no FFT and no power iteration."""

    LAMS = ["3/1009", "1/7", "7/10", "1006/1009"]
    KERNELS = [("plain", 2), ("plain", 4), ("plain", 7), ("1", 3), ("2", 3)]

    @staticmethod
    def _levels(monkeypatch, two, tol=1e-8):
        """The result of one `radius_refined` call and the (n, mu_n) of
        every level it took."""
        levels = []
        perron_levels = specrad._perron_levels

        def recording(kernels, log_rhos, n):
            got = perron_levels(kernels, log_rhos, n)
            levels.extend((m, float(mu[0])) for m, mu in got)
            return got

        monkeypatch.setattr(specrad, "_perron_levels", recording)
        res = radius_refined(two, tol=tol)
        assert len(levels) >= 2
        return res, levels

    @pytest.mark.parametrize("q,pm1", KERNELS, ids=[f"{q}-{d}" for q, d in KERNELS])
    @pytest.mark.parametrize("lam", LAMS)
    def test_one_step_bracket_holds_grid_eigenvalue(self, monkeypatch, q, pm1, lam):
        # each level value is the eigenvalue of a fresh grid of its size;
        # the result's bracket is the finest one's, degenerate
        lamf = float(Fraction(lam))
        log_rho = math.log1p(-lamf) - math.log(lamf)
        two = reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided()
        res, levels = self._levels(monkeypatch, two)
        for n, value in levels:
            row = discretize(two, n).toeplitz[1]
            want = math.fsum(row * np.exp(log_rho * np.arange(n) / n))
            assert abs(value - want) <= 1e-14 * want, n
        assert res.bracket == (value, value) and res.n == n
        assert (res.iterations, res.brackets, res.converged) == (0, [], True)

    @pytest.mark.parametrize("q,pm1", KERNELS, ids=[f"{q}-{d}" for q, d in KERNELS])
    @pytest.mark.parametrize("lam", LAMS)
    def test_agrees_with_start_from_ones(self, monkeypatch, q, pm1, lam):
        # the power iteration from ones on each grid, kept here as the oracle
        tol = 1e-8
        two = reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided()
        _, levels = self._levels(monkeypatch, two, tol)
        for n, value in levels:
            old = power_iteration_hopf(discretize(two, n), tol=tol / 100, max_iter=10 * n)
            assert old.converged
            assert abs(old.radius - value) <= tol / 100, n

    @pytest.mark.parametrize("lam", ["1/7", "331/1009", "7/10"])
    def test_no_matvec(self, monkeypatch, lam):
        def no_step(self, v):
            raise AssertionError("the level value needs no matvec")

        monkeypatch.setattr(OperatorGrid, "matvec", no_step)
        two = plain_reduced_kernel(4, Fraction(lam)).two_sided()
        res, _ = self._levels(monkeypatch, two)
        assert res.converged

    @pytest.mark.parametrize("lam", [1e-12, 1e-30, 1e-100, 1 - 1e-12])
    def test_extreme_lambda_converges(self, lam):
        # the weights rho^(+-e/n) stay <= 1 however far lam is from 1/2
        two = plain_reduced_kernel(0, Fraction(lam)).two_sided()
        res = radius_refined(two, tol=1e-9)
        assert res.converged
        assert abs(res.radius - w_plain(lam)) <= 1e-9 * w_plain(lam)

    def test_subnormal_lambda_is_finite_or_unconverged(self):
        # rho overflows a float here; the RuntimeWarning filter makes any
        # overflow or NaN an error
        two = plain_reduced_kernel(0, Fraction(5e-324)).two_sided()
        res = radius_refined(two, tol=1e-8)
        assert math.isfinite(res.radius) and res.radius > 0
        if res.converged:
            assert kernel_radius(0, Fraction(5e-324), PLAIN) == res.radius
        else:
            with pytest.raises(specrad.UnconvergedError):
                kernel_radius(0, Fraction(5e-324), PLAIN)

    @pytest.mark.parametrize("lam", [Fraction(1, 10 ** 400), 1 - Fraction(1, 10 ** 400)])
    def test_lambda_that_rounds_to_an_endpoint(self, lam):
        # float(lam) is 0 or 1, so log rho comes from lam's exact terms
        res = radius_refined(plain_reduced_kernel(2, lam).two_sided(), tol=1e-8)
        mirror = radius_refined(plain_reduced_kernel(2, 1 - lam).two_sided(), tol=1e-8)
        assert res.converged and res.radius == mirror.radius > 0
        assert c_bound_pth_root(lam, 3, PLAIN).lower == pytest.approx(862.010318775, rel=1e-11)
        # degree 0 runs out of doublings, as at lam = 1e-300
        with pytest.raises(specrad.UnconvergedError):
            kernel_radius(0, lam, PLAIN)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        two = plain_reduced_kernel(2, Fraction(1, 3)).two_sided()
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            radius_refined(two, tol=tol)


class TestSamplingWork:
    """Kernel sampling per refined radius, counted through `discretize`: the
    first grid, of 2*REFINE_N0 points, serves the first two levels."""

    @staticmethod
    def _grid_sizes(monkeypatch, two, tol):
        sizes = []
        disc = specrad.discretize

        def counting(kernel, n):
            sizes.append(n)
            return disc(kernel, n)

        monkeypatch.setattr(specrad, "discretize", counting)
        return radius_refined(two, tol=tol), sizes

    def test_second_level_takes_one_grid(self, monkeypatch):
        two = plain_reduced_kernel(2, Fraction(1, 3)).two_sided()
        res, sizes = self._grid_sizes(monkeypatch, two, 1e-8)
        n0 = specrad.REFINE_N0
        assert res.converged and res.n == 2 * n0
        assert sizes == [2 * n0]

    def test_third_level_adds_one_grid(self, monkeypatch):
        two = plain_reduced_kernel(0, Fraction(1, 3)).two_sided()
        res, sizes = self._grid_sizes(monkeypatch, two, 1e-6)
        n0 = specrad.REFINE_N0
        assert res.converged and res.n == 4 * n0
        assert sizes == [2 * n0, 4 * n0]

    def test_no_doubling_takes_the_first_grid_alone(self, monkeypatch):
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", 0)
        two = plain_reduced_kernel(2, Fraction(1, 3)).two_sided()
        res, sizes = self._grid_sizes(monkeypatch, two, 1e-8)
        n0 = specrad.REFINE_N0
        assert not res.converged and res.n == n0 and sizes == [n0]
        assert res.bracket == (res.radius, res.radius)

    @pytest.mark.parametrize("log_rho", [-0.7, 0.7])    # row and column sums
    def test_first_grid_serves_the_coarser_level_bit_for_bit(self, log_rho):
        # the REFINE_N0 grid, which the first level takes with no doubling,
        # gives that level alone
        two = plain_reduced_kernel(4, Fraction(331, 1009)).two_sided()
        n0 = specrad.REFINE_N0

        def first_level(n):
            m, mu = specrad._perron_levels([two], np.array([log_rho]), n)[0]
            return m, float(mu[0])

        shared, alone = first_level(2 * n0), first_level(n0)
        assert alone == shared == (n0, alone[1])
        assert len(specrad._perron_levels([two], np.array([log_rho]), n0)) == 1


class TestStackedLevels:
    """`radii_refined` samples each grid once for a stack of kernels and
    drops settled kernels between grids; every kernel's result is field for
    field, bit for bit, the one `radius_refined` gives it alone."""

    GRID = [Fraction(k, 80) for k in range(41)]    # lam in [0, 1/2], ends included
    CASES = [("plain", pm1) for pm1 in (0, 2, 4, 7)] \
        + [(q, pm1) for q in ("1", "2") for pm1 in (0, 2, 4)]

    @staticmethod
    def _fields(res) -> tuple:
        return (res.radius.hex(), tuple(b.hex() for b in res.bracket), res.n,
                res.converged, res.warning)

    def _stack(self, q, pm1):
        return [reduced_kernel(pm1, lam, CLASSES[q]).two_sided() for lam in self.GRID]

    @pytest.mark.parametrize("q,pm1", CASES, ids=[f"{q}-{d}" for q, d in CASES])
    def test_stack_equals_single(self, q, pm1):
        stack = self._stack(q, pm1)
        for tol in (1e-7, 1e-13):     # kernels settle on one grid, or on up to five
            got = radii_refined(stack, tol=tol)
            want = [radius_refined(two, tol=tol) for two in stack]
            assert list(map(self._fields, got)) == list(map(self._fields, want)), tol

    def test_settled_kernels_leave_the_stack(self, monkeypatch):
        # at this tol the kernels settle on every grid from the first to the
        # last, and each grid samples only those still unsettled; the cap is
        # raised so that all 39 kernels off lam in {0, 1/2} form one stack
        sampled = []
        disc = specrad.discretize

        def counting(kernels, n):
            sampled.append((n, len(kernels)))
            return disc(kernels, n)

        monkeypatch.setattr(specrad, "discretize", counting)
        monkeypatch.setattr(specrad, "REFINE_STACK", 39)
        got = radii_refined(self._stack("plain", 2), tol=1e-14)
        n0 = specrad.REFINE_N0
        assert [n for n, _ in sampled] == [2 * n0 << i for i in range(5)]
        settled = [sum(r.n == n for r in got) for n, _ in sampled]
        assert min(settled) > 0
        assert [m for _, m in sampled] == [39 - sum(settled[:i]) for i in range(5)]

    def test_scan_grid_takes_one_grid_per_stack(self, monkeypatch):
        # the work-count guard of the stacked levels: a p = 5 scan at grid
        # 101 settles every lam off {0, 1/2} on the first grid, so its 99
        # kernels take one `discretize` per stack of at most REFINE_STACK
        sampled = []
        disc = specrad.discretize

        def counting(kernels, n):
            sampled.append((n, len(kernels)))
            return disc(kernels, n)

        stack = [reduced_kernel(4, Fraction(k, 200), PLAIN).two_sided() for k in range(101)]
        monkeypatch.setattr(specrad, "discretize", counting)
        got = radii_refined(stack, tol=1e-8)
        n0 = specrad.REFINE_N0
        assert specrad.REFINE_STACK == 32
        assert sampled == [(2 * n0, 32)] * 3 + [(2 * n0, 3)]
        monkeypatch.setattr(specrad, "discretize", disc)
        want = [radius_refined(two, tol=1e-8) for two in stack]
        assert list(map(self._fields, got)) == list(map(self._fields, want))

    def test_names_the_first_unconverged_lambda_of_a_later_stack(self, monkeypatch):
        # with one doubling at tol 1e-12, the plain degree-2 radii settle
        # for lam = k/80 from k = 13 up and not below; listed from k = 39
        # down in stacks of four, the first unsettled lam, 12/80, sits in
        # the seventh stack
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", 1)
        monkeypatch.setattr(specrad, "REFINE_STACK", 4)
        lams = [Fraction(k, 80) for k in range(39, 0, -1)]
        with pytest.raises(specrad.UnconvergedError) as exc:
            magnus._kernel_radii(2, lams, PLAIN, 1e-12)
        assert str(exc.value) == ("p-1 = 2, lam = 3/20: doubling budget "
                                  "exhausted before extrapolants settled")
        assert magnus._kernel_radii(2, lams[:27], PLAIN, 1e-12) == [
            radius_refined(reduced_kernel(2, lam, PLAIN).two_sided(), tol=1e-12).radius
            for lam in lams[:27]]

    @pytest.mark.parametrize("doublings", [0, 1])
    def test_unconverged_flags_match(self, monkeypatch, doublings):
        # no doubling: no kernel off lam in {0, 1/2} settles; one doubling:
        # some do
        monkeypatch.setattr(specrad, "REFINE_DOUBLINGS", doublings)
        flags = []
        for q, pm1 in (("plain", 0), ("plain", 2), ("1", 2)):
            stack = self._stack(q, pm1)
            got = radii_refined(stack, tol=1e-13)
            want = [radius_refined(two, tol=1e-13) for two in stack]
            assert list(map(self._fields, got)) == list(map(self._fields, want))
            flags += [r.converged for r in got[1:-1]]
        assert (any(flags), not all(flags)) == (doublings == 1, True)

    @pytest.mark.parametrize("coeffs", [(Fraction(1), Fraction(-3)), (math.inf, 1.0),
                                        (-math.inf, 1.0), (math.nan, 1.0)],
                             ids=["negative", "inf", "-inf", "nan"])
    def test_bad_kernel_in_a_stack_raises_as_alone(self, coeffs):
        bad = ReducedKernel(coeffs=coeffs, lam=Fraction(1, 3), p_minus_1=1).two_sided()
        with pytest.raises(InvalidKernelError) as alone:
            radius_refined(bad, tol=1e-8)
        stack = [plain_reduced_kernel(1, Fraction(k, 9)).two_sided() for k in range(1, 9)]
        stack.insert(5, bad)
        with pytest.raises(InvalidKernelError) as stacked:
            radii_refined(stack, tol=1e-8)
        assert str(stacked.value) == str(alone.value)
        assert ("negative" if coeffs[1] < 0 else "non-finite") in str(alone.value)

    def test_stack_needs_one_degree(self):
        stack = [plain_reduced_kernel(d, Fraction(1, 3)).two_sided() for d in (2, 3)]
        with pytest.raises(InvalidUseError, match="one degree"):
            radii_refined(stack, tol=1e-8)

    def test_lambda_outside_unit_interval_raises_before_sampling(self, monkeypatch):
        monkeypatch.setattr(specrad, "discretize", None)
        stack = [plain_reduced_kernel(2, Fraction(k, 4)).two_sided() for k in (1, 2, 5)]
        with pytest.raises(InvalidKernelError, match=r"lam = 5/4 outside \[0, 1\]"):
            radii_refined(stack, tol=1e-8)

    def test_stack_vectors_are_the_single_grids(self):
        stack = [reduced_kernel(3, lam, Q1).two_sided() for lam in self.GRID[1:6]]
        cols, rows = discretize(stack, 64)
        assert cols.shape == rows.shape == (5, 64)
        for two, col, row in zip(stack, cols, rows):
            c, r = discretize(two, 64).toeplitz
            assert c.tobytes() == col.tobytes() and r.tobytes() == row.tobytes()


class TestSubmultiplicativity:
    @staticmethod
    def _refine(vals):
        """Two-level Richardson over a grid-doubling triple."""
        t1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        return (4 * t1[1] - t1[0]) / 3

    @pytest.mark.parametrize("lam", [Fraction(3, 10), Fraction(1, 2)])
    def test_family_product_dominates(self, lam):
        # degree-5 kernel against the convolution of degrees 0 and 4; the
        # plain family is exactly multiplicative, so after removing the
        # discretization error the radii agree and the inequality is tight
        k5 = plain_reduced_kernel(5, lam).two_sided()
        k0 = plain_reduced_kernel(0, lam).two_sided()
        k4 = plain_reduced_kernel(4, lam).two_sided()
        for pair in ((k0, k4), (k4, k0)):
            r5s, rcs = [], []
            for n in (128, 256, 512):
                r5s.append(power_iteration_hopf(discretize(k5, n),
                                                tol=1e-11).radius)
                rcs.append(power_iteration_hopf(grid_convolve(*pair, n),
                                                tol=1e-11).radius)
            r5, rc = self._refine(r5s), self._refine(rcs)
            assert r5 <= rc + 2e-6
            assert r5 == pytest.approx(rc, abs=2e-6)


class TestSpectralLocality:
    def test_bracket_form_converges_to_dense_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            A = rng.uniform(0, 1, size=(32, 32))
            r_dense = float(np.abs(np.linalg.eigvals(A)).max())
            logscale, B = 0.0, A.copy()
            for _ in range(30):
                s = float(np.abs(B).max())
                B = (B / s) @ B
                logscale = 2.0 * logscale + math.log(s)
            val = math.exp((logscale + math.log(float(B.sum()))) / 2.0 ** 30)
            assert val == pytest.approx(r_dense, abs=1e-4)


class TestPinnedBits:
    """Exact bits recorded from the per-point scalar sampling of the kernel.

    The digest is the first 16 hex digits of the sha256 of both Toeplitz
    vectors and kernel_min/kernel_max at n = 2, 3, 256 and 4096; the radius
    is `radius_refined(...).radius` as float.hex.  Below degree 4 no LP
    column has a Xi node, so the q = 2 cases equal the q = 1 ones.
    """

    # (class, p-1, lam, grid digest, refined radius)
    CASES = [
        ("plain", 0, "1/7", "b5e3bfe6e3a94f5d", "0x1.9837d2aad281bp-2"),
        ("plain", 0, "2/7", "75d1d0aebb74588e", "0x1.def31d841b4dbp-2"),
        ("plain", 0, "331/1009", "90b1603d311f0870", "0x1.eb22c42d5cf5ap-2"),
        ("plain", 2, "1/7", "f3d66fc37bfe4684", "0x1.037fe6b15406cp-4"),
        ("plain", 2, "2/7", "f64ab9782c1ab87f", "0x1.a31c93af9ea44p-4"),
        ("plain", 2, "331/1009", "5b10bd95347f6253", "0x1.c3ec66b6baad6p-4"),
        ("plain", 4, "1/7", "0ec94e6579138d57", "0x1.49ec0521e43f8p-7"),
        ("plain", 4, "2/7", "7a8d35193c6e2c05", "0x1.6ebfdffb20fe3p-6"),
        ("plain", 4, "331/1009", "fffd9150715dec1a", "0x1.9fd7803821cc4p-6"),
        ("plain", 7, "1/7", "b577ff9738a52d46", "0x1.4e6e9e965e41fp-11"),
        ("plain", 7, "2/7", "80b450b33cf37279", "0x1.2c367e14257ccp-9"),
        ("plain", 7, "331/1009", "5364a06f75159c68", "0x1.6f0c5432e30e3p-9"),
        ("1", 3, "1/7", "683b1bdde4b6d812", "0x1.9dcc6db12cbfdp-6"),
        ("1", 3, "331/1009", "248a1cb958fe439e", "0x1.b181e45b973ecp-5"),
        ("2", 3, "1/7", "683b1bdde4b6d812", "0x1.9dcc6db12cbfdp-6"),
        ("2", 3, "331/1009", "248a1cb958fe439e", "0x1.b181e45b973ecp-5"),
    ]

    @staticmethod
    def _digest(two) -> str:
        h = hashlib.sha256()
        for n in (2, 3, 256, 4096):
            g = discretize(two, n)
            col, row = g.toeplitz
            h.update(col.tobytes())
            h.update(row.tobytes())
            h.update(np.array([g.kernel_min, g.kernel_max]).tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("q,pm1,lam,digest,radius", CASES)
    def test_grid_and_radius(self, q, pm1, lam, digest, radius):
        two = reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided()
        assert self._digest(two) == digest
        assert radius_refined(two, tol=1e-8).radius == float.fromhex(radius)

    @pytest.mark.parametrize("q,pm1,lam,digest,radius", CASES)
    def test_pinned_radius_near_integral(self, q, pm1, lam, digest, radius):
        rk = reduced_kernel(pm1, Fraction(lam), CLASSES[q])
        want = exact_radius(rk)
        assert abs(float.fromhex(radius) - want) <= 1e-11 * want

    # At lam = 0 or 1 one branch of the two-sided kernel vanishes, so the grid
    # is triangular: its radius is the diagonal entry, returned without a
    # step, with eigenvector e_1 (upper) or e_n (lower triangular).
    # (class, p-1, lam, n, radius, index of the eigenvector's unit entry)
    TRIANGULAR_CASES = [
        ("plain", 0, "0", 3, "0x0.0p+0", -1),
        ("plain", 0, "0", 256, "0x0.0p+0", -1),
        ("plain", 0, "1", 256, "0x1.0000000000000p-8", 0),
        ("plain", 2, "0", 257, "0x0.0p+0", -1),
        ("plain", 2, "1", 3, "0x0.0p+0", 0),
        ("1", 3, "1", 3, "0x0.0p+0", 0),
    ]

    @pytest.mark.parametrize("q,pm1,lam,n,radius,unit", TRIANGULAR_CASES,
                             ids=["-".join(map(str, c[:4])) for c in TRIANGULAR_CASES])
    def test_triangular_grid(self, monkeypatch, q, pm1, lam, n, radius, unit):
        two = reduced_kernel(pm1, Fraction(lam), CLASSES[q]).two_sided()
        g = discretize(two, n)

        def no_step(self, v):
            raise AssertionError("a triangular grid needs no power step")

        monkeypatch.setattr(OperatorGrid, "matvec", no_step)
        res = power_iteration_hopf(g)
        r = float.fromhex(radius)
        assert (res.radius, res.bracket, res.iterations, res.converged, res.warning) == (
            r, (r, r), 0, True, None)
        want = np.zeros(n)
        want[unit] = 1.0
        assert np.array_equal(res.eigvec, want)

    def test_zero_entry_iterates(self, monkeypatch):
        # a dense grid with a zero row: the second iterate has a zero entry,
        # which the masked ratio step skips
        g = matrix_grid(np.array([[0.0, 0.0], [1.0, 1.0]]))
        has_zero = []
        matvec = OperatorGrid.matvec

        def recording(self, v):
            has_zero.append(bool((v == 0).any()))
            return matvec(self, v)

        monkeypatch.setattr(OperatorGrid, "matvec", recording)
        res = power_iteration_hopf(g)
        assert has_zero == [False, True]
        assert res.radius == 1.0
        assert res.bracket == (float.fromhex("0x1.ffffffffffffep-1"),
                               float.fromhex("0x1.0000000000002p+0"))
        assert (res.iterations, res.converged, res.warning) == (2, True, None)
