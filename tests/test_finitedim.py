"""Tests for the singular two-dimensional operator x * Jc: dynamics on and
off the plane x = 0, the regularized kernel basis, closedness separation and
the smoothed step invariant."""

import math
import tracemalloc

import numpy as np
import pytest

from casimirlab import finitedim as fd
from casimirlab.dynamics import step
from casimirlab.field_core import NonFiniteError
from casimirlab.poisson import State, gradient_check


def harmonic():
    return fd.cubic_functional([0, 0, 0, 0.5, 0, 0.5, 0, 0, 0, 0], "harmonic")


class TestFlowOnAmbientSpace:
    def test_rhs_hand_values(self):
        assert np.allclose(fd.fd_rhs(fd.finite_state(1, 0), harmonic()).parts[0], [0.0, -1.0])
        H_y = fd.cubic_functional([0, 0, 1, 0, 0, 0, 0, 0, 0, 0], "y")
        assert np.allclose(fd.fd_rhs(fd.finite_state(2, 5), H_y).parts[0], [2.0, 0.0])

    def test_singular_plane_exactly_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            H = fd.cubic_functional(rng.uniform(-1, 1, 10))
            out = fd.fd_rhs(fd.finite_state(0.0, rng.uniform(-2, 2)), H).parts[0]
            assert out[0] == 0.0

    def test_circle_orbit_slows_toward_plane(self):
        # H = (x^2+y^2)/2: trajectories follow the unit circle with angular
        # speed x, approaching (0, -1) without ever crossing x = 0
        z = fd.finite_state(1.0, 0.0)
        rhs = lambda s: fd.fd_rhs(s, harmonic())
        dt = 1e-3
        for _ in range(5000):
            z = step(dt, rhs, z)
        x, y = z.parts[0]
        assert abs(x * x + y * y - 1.0) <= 1e-10
        assert x > 0.0 and y < 0.0

    def test_sign_invariance_short_orbits(self):
        rng = np.random.default_rng(1)
        coeffs = np.zeros((10, 10))
        coeffs[1:3] = rng.uniform(-0.1, 0.1, (2, 10))
        coeffs[3] = coeffs[5] = 0.5
        coeffs[4] = rng.uniform(-0.2, 0.2, 10)
        coeffs[6:10] = rng.uniform(-0.05, 0.05, (4, 10))
        z0 = np.vstack([rng.uniform(0.2, 0.7, 10) * rng.choice([-1, 1], 10),
                        rng.uniform(-0.7, 0.7, 10)])
        res = fd.simulate_plane_orbits(coeffs, z0, 5.0, 1e-3)
        assert res["sign_ok"].all()

    def test_orbit_on_plane_rejected_in_batch(self):
        with pytest.raises(ValueError):
            fd.simulate_plane_orbits(np.zeros((10, 1)), np.array([[0.0], [1.0]]), 1.0, 1e-2)


def expanded_gradient(c, x, y):
    """d/dx and d/dy of finitedim._poly_value, term by term."""
    hx = c[1] + 2 * c[3] * x + c[4] * y + 3 * c[6] * x**2 + 2 * c[7] * x * y + c[8] * y**2
    hy = c[2] + c[4] * x + 2 * c[5] * y + c[7] * x**2 + 2 * c[8] * x * y + 3 * c[9] * y**2
    return np.array([hx, hy])


class TestCubicGradient:
    def test_nine_coefficients_rejected(self):
        with pytest.raises(ValueError, match="10 coefficients"):
            fd.cubic_functional(np.zeros(9))

    def test_gradient_matches_expanded_derivative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = rng.uniform(-1, 1, 10)
            x, y = rng.uniform(-2, 2, 2)
            got = fd.cubic_functional(c).gradient(fd.finite_state(x, y)).parts[0]
            expect = expanded_gradient(c, x, y)
            assert np.max(np.abs(got - expect)) <= 1e-14 * max(1.0, np.max(np.abs(expect)))

    def test_expansion_is_the_derivative_of_the_value(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(-1, 1, 10)
        x, y, h = 0.3, -0.7, 1e-6
        fd_x = (fd._poly_value(c, x + h, y) - fd._poly_value(c, x - h, y)) / (2 * h)
        fd_y = (fd._poly_value(c, x, y + h) - fd._poly_value(c, x, y - h)) / (2 * h)
        assert np.allclose(expanded_gradient(c, x, y), [fd_x, fd_y], rtol=0, atol=1e-8)

    def test_value_matches_its_gradient(self):
        # the analytic gradient pairs with a direction as the value's central difference
        for seed in range(20):
            rng = np.random.default_rng(seed)
            F = fd.cubic_functional(rng.uniform(-1, 1, 10))
            z, dz = (fd.finite_state(*rng.uniform(-2, 2, 2)) for _ in range(2))
            assert gradient_check(F, z, dz) <= 1e-7

    def test_coordinate_value_is_the_coordinate(self):
        z = State("finite", (np.random.default_rng(14).uniform(-1, 1, 3),))
        for i in range(3):
            assert fd.coordinate_functional(i).value(z) == z.parts[0][i]

    def test_orbit_rhs_matches_expanded_derivative(self):
        # one RK4 step of the batch against one built from the expanded gradient
        rng = np.random.default_rng(13)
        m, dt = 20, 1e-2
        coeffs = rng.uniform(-1, 1, (10, m))
        z0 = np.vstack([rng.uniform(0.2, 1.0, m) * rng.choice([-1, 1], m),
                        rng.uniform(-1, 1, m)])

        def rhs(z):
            hx, hy = expanded_gradient(coeffs, z[0], z[1])
            return np.array([z[0] * hy, -z[0] * hx])

        k1 = rhs(z0)
        k2 = rhs(z0 + 0.5 * dt * k1)
        k3 = rhs(z0 + 0.5 * dt * k2)
        k4 = rhs(z0 + dt * k3)
        expect = z0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = fd.simulate_plane_orbits(coeffs, z0, dt, dt)["final"]
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def old_cubic_gradient(coeffs):
    """The gradient as written before the flow's rows were built once: the oracle."""
    c = np.asarray(coeffs, dtype=float)
    rows = np.array([[c[1], c[2]], [2 * c[3], c[4]], [c[4], 2 * c[5]],
                     [3 * c[6], c[7]], [2 * c[7], 2 * c[8]], [c[8], 3 * c[9]]])
    const, coeff = rows[0], rows[1:]

    def grad(p):
        t = coeff * p[np.array([0, 1, 0, 0, 1]), None]
        t[2:] *= p[np.array([0, 1, 1]), None]
        return const + t[0] + t[1] + t[2] + t[3] + t[4]

    return grad


class TestBitwiseFlow:
    """The gradient and the orbit flow round exactly as the old written-out sums."""

    def test_gradient_is_bitwise_the_old_one(self):
        rng = np.random.default_rng(14)
        for m in (None, 1, 7, 100):
            c = rng.uniform(-1, 1, 10 if m is None else (10, m))
            p = rng.uniform(-2, 2, 2 if m is None else (2, m))
            assert np.array_equal(fd._polynomial(fd._cubic_rows(c))(p), old_cubic_gradient(c)(p))

    def test_polynomial_is_bitwise_the_fancy_indexed_one(self):
        # the factors gathered with p[_FACTORS], as before take: the oracle
        rng = np.random.default_rng(16)
        for m in (None, 1, 50):
            rows = fd._cubic_rows(rng.uniform(-1, 1, 10 if m is None else (10, m)))
            const, coeff = rows[0], rows[1:]
            p = rng.uniform(-2, 2, 2 if m is None else (2, m))
            f = p[fd._FACTORS]
            t = coeff * f[:5, None]
            t[2:] *= f[5:, None]
            t[0] += const
            assert np.array_equal(fd._polynomial(rows)(p), np.add.reduce(t, axis=0))

    def test_flow_is_bitwise_the_flipped_gradient(self):
        rng = np.random.default_rng(15)
        m, dt = 50, 1e-2
        flip = np.array([[1.0], [-1.0]])
        for _ in range(5):
            coeffs = rng.uniform(-1, 1, (10, m))
            coeffs[rng.random((10, m)) < 0.3] = 0.0  # zero terms, as the preset's cubics have
            z = np.vstack([rng.uniform(0.2, 1.0, m) * rng.choice([-1, 1], m),
                           rng.uniform(-1, 1, m)])
            grad = old_cubic_gradient(coeffs)
            expect = z
            for _ in range(3):
                expect = step(dt, lambda zv: zv[0] * (grad(zv)[::-1] * flip), expect)
            got = fd.simulate_plane_orbits(coeffs, z, 3 * dt, dt)["final"]
            assert np.array_equal(got, expect)


class TestPolynomialScratch:
    """_polynomial keeps its intermediates in scratch of its own; its results are fresh."""

    def test_alternating_polynomials_evaluate_as_each_alone(self):
        rng = np.random.default_rng(17)
        for m in (None, 50):
            rows = [fd._cubic_rows(rng.uniform(-1, 1, 10 if m is None else (10, m)))
                    for _ in range(2)]
            points = [rng.uniform(-2, 2, 2 if m is None else (2, m)) for _ in range(3)]
            polys = [fd._polynomial(r) for r in rows]
            got = [[poly(p) for poly in polys] for p in points]
            kept = [[g.copy() for g in row] for row in got]
            for j, r in enumerate(rows):
                alone = fd._polynomial(r)
                for i, p in enumerate(points):
                    assert np.array_equal(got[i][j], alone(p))
            assert all(np.array_equal(g, k) for row, krow in zip(got, kept)
                       for g, k in zip(row, krow))


class TestKernelBasis:
    def test_unit_mass(self):
        xs = np.linspace(-2, 2, 4001)
        for eps in (0.05, 0.2, 0.5):
            mass = np.trapezoid(fd.gaussian_bump(xs, eps), xs)
            assert abs(mass - 1.0) <= 1e-6

    def test_operator_annihilates_at_plane(self):
        nu_x, nu_y = fd.kernel_basis_regularized(0.1)
        for form in (nu_x, nu_y):
            jx, jy = fd.apply_scaled_canonical_to_form(form, np.array([0.0]), np.array([0.3]))
            assert jx[0] == 0.0 and jy[0] == 0.0

    def test_gaussian_tail_bound(self):
        eps = 0.1
        nu_x, _ = fd.kernel_basis_regularized(eps)
        X = np.linspace(2 * eps, 1.0, 50)
        Y = np.zeros_like(X)
        jx, jy = fd.apply_scaled_canonical_to_form(nu_x, X, Y)
        assert (np.hypot(jx, jy) <= np.exp(-(X**2) / (2 * eps**2))).all()

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            fd.kernel_basis_regularized(0.0)


class TestClosedness:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_separates_kernel_basis(self, eps):
        nu_x, nu_y = fd.kernel_basis_regularized(eps)
        assert fd.closedness_residual(nu_x) <= 1e-10
        assert fd.closedness_residual(nu_y) >= 1.0

    def test_nu_y_peak_magnitude(self):
        # max |d/dx gaussian_bump| = sqrt(2) e^{-1/2} / (eps^2 sqrt(pi))
        eps = 0.1
        _, nu_y = fd.kernel_basis_regularized(eps)
        peak = math.sqrt(2.0) * math.exp(-0.5) / (eps**2 * math.sqrt(math.pi))
        assert abs(fd.closedness_residual(nu_y) - peak) <= 0.05 * peak

    def test_exact_form_is_closed(self):
        grad = fd.OneForm2("grad(x^2+y^3)", lambda X, Y: 2 * X, lambda X, Y: 3 * Y**2)
        assert fd.closedness_residual(grad) <= 1e-9

    def test_degenerate_window_rejected(self):
        nu_x, _ = fd.kernel_basis_regularized(0.1)
        with pytest.raises(ValueError):
            fd.closedness_residual(nu_x, window=((0.0, 0.0), (-1.0, 1.0)))


def whole_window_residual(w, window=((-2.0, 2.0), (-2.0, 2.0))):
    """The oracle: closedness_residual's arithmetic on the whole 401 x 401 window at once."""
    (x0, x1), (y0, y1) = window
    xs = np.linspace(x0, x1, 401)
    ys = np.linspace(y0, y1, 401)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    WX = np.asarray(w.wx(X, Y), dtype=float)
    WY = np.asarray(w.wy(X, Y), dtype=float)
    if not (np.all(np.isfinite(WX)) and np.all(np.isfinite(WY))):
        raise NonFiniteError(f"one-form {w.label} is not finite on the window")
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    curl = (WY[1:-1, 2:] - WY[1:-1, :-2]) / (2.0 * hx) - (
        WX[2:, 1:-1] - WX[:-2, 1:-1]
    ) / (2.0 * hy)
    return float(np.max(np.abs(curl)))


GRADIENT = fd.OneForm2("grad(x^2+y^3)", lambda X, Y: 2 * X, lambda X, Y: 3 * Y**2)
TWISTED = fd.OneForm2("twisted", lambda X, Y: np.sin(X * Y), lambda X, Y: X**2 * np.cos(3 * Y))
OFF_CENTRE = ((-0.7, 1.3), (-1.9, 0.4))


def kernel_forms():
    return [(form, None) for eps in (0.05, 0.1, 0.5) for form in fd.kernel_basis_regularized(eps)]


class TestBlockedClosedness:
    """closedness_residual walks its window in row blocks and returns the whole-window float."""

    @pytest.mark.parametrize(
        "form, window",
        [*kernel_forms(), (GRADIENT, None), (TWISTED, None), (GRADIENT, OFF_CENTRE),
         (TWISTED, OFF_CENTRE), (fd.kernel_basis_regularized(0.1)[1], OFF_CENTRE)],
        ids=lambda v: getattr(v, "label", None) or ("off_centre" if v else "default"),
    )
    def test_bitwise_the_whole_window(self, form, window):
        args = () if window is None else (window,)
        got = fd.closedness_residual(form, *args)
        assert got.hex() == whole_window_residual(form, *args).hex()

    @pytest.mark.parametrize("row", [0, 1, 399, 400])
    def test_non_finite_in_one_edge_row_raises(self, row):
        y_bad = np.linspace(-2.0, 2.0, 401)[row]
        bad = fd.OneForm2("edge", lambda X, Y: 0.0 * X, lambda X, Y: np.where(Y == y_bad, np.nan, X))
        for residual in (fd.closedness_residual, whole_window_residual):
            with pytest.raises(NonFiniteError, match="one-form edge is not finite"):
                residual(bad)

    @pytest.mark.parametrize("y_step, expect", [(None, math.inf), (-1.5, math.nan)],
                             ids=["inf", "nan"])
    def test_overflowing_curl_equals_the_whole_window(self, y_step, expect):
        # finite values whose differences overflow: a jump of 3.4e308 across
        # x = 0 makes d(wy)/dx inf; a jump across y = y_step makes d(wx)/dy inf
        # too, and inf - inf where the two meet is NaN
        def wx(X, Y):
            return 0.0 * X if y_step is None else np.where(Y > y_step, 1.7e308, -1.7e308)

        form = fd.OneForm2("steep", wx, lambda X, Y: np.where(X > 0, 1.7e308, -1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            got, oracle = fd.closedness_residual(form), whole_window_residual(form)
        if math.isnan(expect):
            assert math.isnan(got) and math.isnan(oracle)
        else:
            assert got == oracle == expect

    def test_one_call_stays_below_one_and_a_half_mib(self):
        _, nu_y = fd.kernel_basis_regularized(0.1)
        fd.closedness_residual(nu_y)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            fd.closedness_residual(nu_y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


class TestExteriorCasimir:
    def test_step_values(self):
        assert abs(fd.exterior_casimir_fd(fd.finite_state(1.0, 0.0), 0.1) - 1.0) <= 1e-6
        assert fd.exterior_casimir_fd(fd.finite_state(0.0, 5.0), 0.1) == 0.5
        assert fd.exterior_casimir_fd(fd.finite_state(-1.0, 0.0), 0.1) <= 1e-6

    def test_step_drift_along_orbit(self):
        # circle orbit from (1, 0): x(t) in (0, 1], so Y_eps with eps = 0.05
        # moves by less than the erf tail at x_min / eps
        z = fd.finite_state(1.0, 0.0)
        rhs = lambda s: fd.fd_rhs(s, harmonic())
        dt = 1e-3
        eps = 0.05
        y0 = fd.exterior_casimir_fd(z, eps)
        drift = 0.0
        for _ in range(3000):
            z = step(dt, rhs, z)
            drift = max(drift, abs(fd.exterior_casimir_fd(z, eps) - y0))
        x_min = z.parts[0][0]  # monotonically decreasing along this orbit
        assert x_min > 0.0
        assert drift <= math.erfc(x_min / eps)


class TestBatchSimulation:
    def test_batch_matches_single_orbit_stepper(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(-0.3, 0.3, 10)
        c[3] += 0.5
        c[5] += 0.5
        H = fd.cubic_functional(c)
        z = fd.finite_state(0.6, -0.2)
        rhs = lambda s: fd.fd_rhs(s, H)
        dt = 1e-3
        for _ in range(2000):
            z = step(dt, rhs, z)
        res = fd.simulate_plane_orbits(
            c.reshape(10, 1), np.array([[0.6], [-0.2]]), 2.0, 1e-3
        )
        assert np.max(np.abs(res["final"][:, 0] - z.parts[0])) <= 1e-12
