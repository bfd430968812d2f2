"""Ion acoustic and KdV tests: the nonlinear Poisson-Boltzmann closure, the
fluid Hamiltonian system with its Casimirs, dispersion, and the soliton."""

import math
import warnings

import numpy as np
import pytest

from casimirlab import Field1D, Grid1D, State, ddx1, ddx2, dealias, integrate
from casimirlab.dynamics import Integrator, estimate_frequency, run_and_record, step
from casimirlab.field_core import NonFiniteError, random_band_limited_1d
from casimirlab import ion_kdv as ik

GRID = Grid1D(128)
L = GRID.l


def grid_k2(grid):
    return ik.workspace1d(grid).k ** 2


class TestSolvePhi:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            ik.solve_phi(Field1D.full(GRID, 1.0), tol=0.0)

    def test_non_finite_newton_residual_raises(self, monkeypatch):
        # the first Newton update is NaN, so the residual of step 1 is not finite
        monkeypatch.setattr(ik, "_pcg", lambda k2, e, b, atol: np.full_like(b, np.nan))
        rho = Field1D.from_function(GRID, lambda x: 1.0 + 0.3 * np.cos(x))
        with pytest.raises(ik.NewtonError, match="non-finite") as info:
            ik.solve_phi(rho)
        assert info.value.iterations == 1 and math.isnan(info.value.residual)

    def test_uniform_density_gives_zero_potential(self):
        sol = ik.solve_phi(Field1D.full(GRID, 1.0))
        assert sol.phi.max_abs() <= 1e-13
        assert sol.iterations == 0

    def test_constant_density_balances_pointwise(self):
        sol = ik.solve_phi(Field1D.full(GRID, 2.5))
        assert np.max(np.abs(sol.phi.values - math.log(2.5))) <= 1e-12

    def test_linearized_response(self):
        # rho = 1 + eps cos kx gives phi = eps/(1+k^2) cos kx + O(eps^2)
        eps = 1e-3
        rho = Field1D.from_function(GRID, lambda x: 1.0 + eps * np.cos(x))
        sol = ik.solve_phi(rho)
        expect = (eps / 2.0) * np.cos(GRID.x())
        assert np.max(np.abs(sol.phi.values - expect)) <= 1e-7
        assert sol.residual <= 1e-12

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError):
            ik.solve_phi(Field1D.full(GRID, -0.5))

    def test_energy_watcher_rejects_a_nonpositive_density(self):
        rho = Field1D.from_function(GRID, lambda x: 0.5 + np.cos(x))
        z = State("ion", (rho, Field1D.zeros(GRID)))
        H = ik.ion_energy()
        with pytest.raises(ValueError):
            H.value(z)
        with pytest.raises(ValueError):
            H.gradient(z)

    def test_nonconvergence_raises_with_residual(self):
        rho = Field1D.from_function(GRID, lambda x: 1.0 + 0.4 * np.cos(x))
        with pytest.raises(ik.NewtonError) as info:
            ik.solve_phi(rho, tol=1e-30, max_iter=3)
        assert info.value.residual > 0.0

    def test_quadratic_contraction(self):
        rng = np.random.default_rng(0)
        grid = Grid1D(256)
        for _ in range(5):
            rho = Field1D.full(grid, 1.0) + random_band_limited_1d(
                grid, 6, rng, rng.uniform(0.1, 0.5)
            )
            sol = ik.solve_phi(rho, tol=1e-12)
            assert sol.iterations <= 8
            hist = sol.history
            pairs = [
                (hist[i], hist[i + 1])
                for i in range(len(hist) - 1)
                if 1e-7 < hist[i] < 0.1
            ]
            for r0, r1 in pairs:
                assert r1 <= 10.0 * r0**2

    def test_matches_dense_newton_reference(self):
        # reference: exact Newton steps, each a dense solve with the spectral d2x matrix
        grid = Grid1D(64)
        eye = np.eye(grid.n)
        d2 = np.array([ddx2(Field1D(grid, eye[:, j])).values for j in range(grid.n)]).T
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = Field1D.full(grid, 1.0) + random_band_limited_1d(
                grid, 6, rng, rng.uniform(0.1, 0.5)
            )
            phi = np.log(rho.values)
            for _ in range(10):
                residual = -(d2 @ phi) - rho.values + np.exp(phi)
                phi = phi - np.linalg.solve(-d2 + np.diag(np.exp(phi)), residual)
            sol = ik.solve_phi(rho)
            assert np.max(np.abs(sol.phi.values - phi)) <= 1e-11

    def test_converges_at_n1024(self):
        grid = Grid1D(1024)
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = Field1D.full(grid, 1.0) + random_band_limited_1d(grid, 8, rng, 0.3)
            assert ik.solve_phi(rho).residual <= 1e-12

    def test_small_amplitude_takes_no_newton_step(self):
        # at this amplitude the closure's start already meets the tolerance
        sol = ik.solve_phi(ik.acoustic_mode_state(GRID, 1, 1e-4).parts[0])
        assert sol.iterations == 0
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("amplitude", [1e-5, 1e-4, 0.01, 0.3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_phi_is_bitwise_the_closures(self, k, amplitude):
        # one density, one potential: solve_phi and the flow's closure start alike
        rho = ik.acoustic_mode_state(GRID, k, amplitude).parts[0]
        assert np.array_equal(ik.solve_phi(rho).phi.values, ik._closure(GRID, rho.values[None])[0])

    def test_pcg_makes_two_fft_calls_per_iteration(self, monkeypatch):
        rng = np.random.default_rng(4)
        grid = Grid1D(64)
        k2 = grid_k2(grid)
        b = random_band_limited_1d(grid, 6, rng, 1.0).values
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            fn = getattr(np.fft, name)

            def counted(*a, _fn=fn, _name=name, **k):
                calls[_name] += 1
                return _fn(*a, **k)

            monkeypatch.setattr(np.fft, name, counted)
        # constant e: the preconditioner is the exact inverse, so one iteration
        # follows the initial preconditioning
        x1 = ik._pcg(k2, np.full(grid.n, 1.5), b, 1e-10)
        assert calls == {"rfft": 2, "irfft": 2}
        calls.update(rfft=0, irfft=0)
        e = np.exp(random_band_limited_1d(grid, 6, rng, 0.5).values)
        x = ik._pcg(k2, e, b, 1e-13)
        assert calls["rfft"] == calls["irfft"] >= 4
        monkeypatch.undo()
        for sol, diag in ((x1, 1.5), (x, e)):
            residual = ddx2(Field1D(grid, -sol)).values + diag * sol - b
            assert np.max(np.abs(residual)) <= 1e-12

    def test_residual_floor_bounds_the_reachable_residual(self):
        # at n = 1024 and amplitude 0.3 the float64 residual cannot reach 1e-12
        grid = Grid1D(1024)
        floor = ik.residual_floor(grid, 1, 0.3)
        assert floor > ik.PHI_TOL
        with pytest.raises(ik.NewtonError) as err:
            ik.solve_phi(ik.acoustic_mode_state(grid, 1, 0.3).parts[0])
        assert ik.PHI_TOL < err.value.residual <= floor
        # the largest grid whose floor bound is within the tolerance converges
        grid = Grid1D(490)
        assert ik.residual_floor(grid, 1, 0.3) <= ik.PHI_TOL
        assert ik.solve_phi(ik.acoustic_mode_state(grid, 1, 0.3).parts[0]).residual <= ik.PHI_TOL


def count_ffts(monkeypatch):
    """Count np.fft.rfft and np.fft.irfft calls from here on."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*a, _fn=fn, _name=name, **k):
            calls[_name] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestRowBatches:
    """A stack of rows solves and flows bitwise as each row does alone."""

    def test_pcg_rows_equal_single_row_solves(self):
        rng = np.random.default_rng(11)
        grid = Grid1D(64)
        k2 = grid_k2(grid)
        e = np.array([np.full(grid.n, 1.5)] + [
            np.exp(random_band_limited_1d(grid, 6, rng, a).values) for a in (0.2, 0.6)
        ])
        b = np.array([random_band_limited_1d(grid, 6, rng, 1.0).values for _ in range(3)])
        atol = np.array([1e-10, 1e-13, 1e-12])
        x = ik._pcg(k2, e, b, atol)
        for i in range(3):
            assert np.array_equal(x[i], ik._pcg(k2, e[i], b[i], atol[i]))

    def test_pcg_row_with_constant_e_stops_after_one_iteration(self, monkeypatch):
        # the preconditioner is exact for that row: it freezes after one
        # iteration while the other rows go on, and its x is untouched since
        rng = np.random.default_rng(12)
        grid = Grid1D(64)
        k2 = grid_k2(grid)
        e = np.array([np.full(grid.n, 1.5)] + [
            np.exp(random_band_limited_1d(grid, 6, rng, 0.5).values) for _ in range(2)
        ])
        b = np.array([random_band_limited_1d(grid, 6, rng, 1.0).values for _ in range(3)])
        calls = count_ffts(monkeypatch)
        ik._pcg(k2, e[0], b[0], 1e-10)
        assert calls == {"rfft": 2, "irfft": 2}
        x = ik._pcg(k2, e, b, 1e-10)
        assert calls["rfft"] > 4
        monkeypatch.undo()
        assert np.array_equal(x[0], ik._pcg(k2, e[0], b[0], 1e-10))

    def test_newton_rows_equal_solve_phi(self):
        rng = np.random.default_rng(13)
        grid = Grid1D(128)
        rho = np.array([
            (Field1D.full(grid, 1.0) + random_band_limited_1d(grid, 6, rng, a)).values
            for a in (1e-4, 0.1, 0.5)
        ])
        phi, histories = ik._newton(grid, rho, ik.PHI_TOL, 25)
        iterations = []
        for i in range(3):
            sol = ik.solve_phi(Field1D(grid, rho[i]))
            assert np.array_equal(phi[i], sol.phi.values)
            assert tuple(histories[i]) == sol.history
            iterations.append(sol.iterations)
        assert len(set(iterations)) > 1  # the rows froze at different steps

    def test_newton_rows_raise_for_a_row_that_does_not_converge(self):
        grid = Grid1D(1024)
        rho = np.array([ik.acoustic_mode_state(grid, 1, a).parts[0].values for a in (1e-4, 0.3)])
        with pytest.raises(ik.NewtonError) as err:
            ik._newton(grid, rho, ik.PHI_TOL, 25)
        with pytest.raises(ik.NewtonError) as alone:
            ik.solve_phi(Field1D(grid, rho[1]))
        assert err.value.residual == alone.value.residual

    @pytest.mark.parametrize("members", [(2,), (2, 2)])
    def test_flow_of_a_batch_equals_ion_rhs_per_member(self, members):
        rng = np.random.default_rng(14)
        states = [ik.random_ion_state(GRID, 6, rng, 0.3) for _ in range(math.prod(members))]
        z = np.array([[s.parts[i].values for s in states] for i in (0, 1)])
        z = z.reshape((2, *members, GRID.n))
        flow = ik.ion_flow(GRID, z[0], z[1]).reshape(2, -1, GRID.n)
        for j, s in enumerate(states):
            out = ik.ion_rhs(s)
            assert np.array_equal(flow[0, j], out.parts[0].values)
            assert np.array_equal(flow[1, j], out.parts[1].values)

    def test_flow_of_two_members_makes_the_fft_calls_of_one(self, monkeypatch):
        members = [ik.acoustic_mode_state(GRID, k, 1e-4) for k in (1, 2)]
        z = np.array([[s.parts[i].values for s in members] for i in (0, 1)])
        calls = count_ffts(monkeypatch)
        alone = []
        for s in members:
            ik.ion_flow(GRID, s.parts[0].values, s.parts[1].values)
            alone.append(dict(calls))
            calls.update(rfft=0, irfft=0)
        ik.ion_flow(GRID, z[0], z[1])
        assert alone[0] == alone[1] == calls
        assert calls["rfft"] > 0

    def test_closure_of_the_preset_rows_makes_two_transform_pairs(self, monkeypatch):
        # ionacoustic1d's default rows, modes 1 and 2 at amplitude 1e-4: one
        # rfft/irfft pair each for phi1 and the second-order correction, for
        # both rows at once; the start's a-priori bound certifies both rows,
        # so no residual is computed
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2)])
        calls = count_ffts(monkeypatch)
        ik._closure(GRID, rho)
        assert calls == {"rfft": 2, "irfft": 2}

    def test_flow_checks_the_density_floor_in_every_member(self):
        rho = np.array([np.ones(GRID.n), 1e-8 + 0.5 * (1 + np.cos(GRID.x()))])
        with pytest.raises(ik.DensityFloorError):
            ik.ion_flow(GRID, rho, np.zeros_like(rho))


def count_pcg(monkeypatch):
    """Count ion_kdv._pcg calls from here on."""
    calls = [0]
    pcg = ik._pcg

    def counted(*a, **k):
        calls[0] += 1
        return pcg(*a, **k)

    monkeypatch.setattr(ik, "_pcg", counted)
    return calls


class TestFlowGuess:
    """The flow starts every row by the closure rule, as solve_phi does."""

    def test_small_amplitude_modes_take_no_newton_step(self, monkeypatch):
        calls = count_pcg(monkeypatch)
        for k in (1, 2):
            z = ik.acoustic_mode_state(GRID, k, 1e-4)
            ik.ion_flow(GRID, z.parts[0].values, z.parts[1].values)
        assert calls == [0]

    def test_second_order_guess_meets_the_tolerance(self):
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2)])
        phi, histories = ik._newton(GRID, rho, ik.PHI_TOL, ik.PHI_MAX_ITER)
        for i, history in enumerate(histories):
            assert len(history) == 1 and history[0] <= ik.PHI_TOL
            # and phi is bitwise solve_phi's
            sol = ik.solve_phi(Field1D(GRID, rho[i]))
            assert np.array_equal(phi[i], sol.phi.values)

    # the bound does not certify these starts: each takes one Newton step, in the
    # flow as in solve_phi
    @pytest.mark.parametrize("z", [
        ik.random_ion_state(GRID, 6, np.random.default_rng(12), 0.3),
        ik.acoustic_mode_state(GRID, 1, 0.01),
    ], ids=["random-0.3", "mode1-0.01"])
    def test_density_above_the_bound_solves_as_solve_phi_does(self, z, monkeypatch):
        calls = count_pcg(monkeypatch)
        ik.solve_phi(z.parts[0])
        alone = calls[0]
        calls[0] = 0
        ik.ion_flow(GRID, z.parts[0].values, z.parts[1].values)
        assert calls[0] == alone > 0

    def test_batch_straddling_the_bound_equals_ion_rhs_per_member(self):
        members = [ik.acoustic_mode_state(GRID, 1, 1e-4),
                   ik.random_ion_state(GRID, 6, np.random.default_rng(16), 0.3)]
        z = np.array([[s.parts[i].values for s in members] for i in (0, 1)])
        flow = ik.ion_flow(GRID, z[0], z[1])
        for j, s in enumerate(members):
            out = ik.ion_rhs(s)
            assert np.array_equal(flow[0, j], out.parts[0].values)
            assert np.array_equal(flow[1, j], out.parts[1].values)

    def test_stack_below_the_bound_equals_each_row_alone(self):
        rng = np.random.default_rng(17)
        noise = random_band_limited_1d(GRID, 6, rng, 5e-5)
        rho = np.array([ik.acoustic_mode_state(GRID, 1, 1e-4).parts[0].values,
                        ik.acoustic_mode_state(GRID, 3, 5e-5).parts[0].values,
                        (Field1D.full(GRID, 1.0) + noise).values])
        phi, histories = ik._newton(GRID, rho, ik.PHI_TOL, ik.PHI_MAX_ITER)
        for i in range(len(rho)):
            alone, (history,) = ik._newton(GRID, rho[i:i + 1], ik.PHI_TOL, ik.PHI_MAX_ITER)
            assert np.array_equal(phi[i], alone[0]) and histories[i] == history

    def test_energy_watcher_uses_the_flows_phi(self, monkeypatch):
        members = [ik.acoustic_mode_state(GRID, 1, 1e-4), ik.acoustic_mode_state(GRID, 2, 1e-4),
                   ik.random_ion_state(GRID, 6, np.random.default_rng(18), 0.3)]
        z = np.array([[s.parts[i].values for s in members] for i in (0, 1)])
        solved, newton = [], ik._newton

        def recorded(*args, **kwargs):
            out = newton(*args, **kwargs)
            solved.append(out[0].copy())
            return out

        monkeypatch.setattr(ik, "_newton", recorded)
        ik.ion_flow(GRID, z[0], z[1])
        monkeypatch.undo()
        (phi,) = solved
        H = ik.ion_energy()
        for j, s in enumerate(members):
            rho, v = s.parts
            flow_phi = Field1D(GRID, phi[j])
            assert np.array_equal(H.gradient(s).parts[0].values, (v * v * 0.5 + flow_phi).values)
            dphi = ddx1(flow_phi)
            internal = Field1D(GRID, (phi[j] - 1.0) * np.exp(phi[j]))
            assert H.value(s) == integrate(rho * v * v * 0.5 + dphi * dphi * 0.5 + internal)


class TestStartCertificate:
    """The closure accepts a second-order start by an a-priori bound on its residual."""

    @pytest.mark.parametrize("n", [128, 512, 2048])
    def test_bound_lies_above_the_start_residual(self, n):
        # seeded densities m + a f on domains from 1e-9 to 20, scaled so that
        # max|phi1| spans 1e-8 to 0.5 (a < 0.95 m keeps rho positive)
        rng = np.random.default_rng(n)
        rows = certified = 0
        for length in (1e-9, 1e-5, 0.1, 1.0, L, 20.0):
            grid = Grid1D(n, length)
            k2 = ik.workspace1d(grid).k2
            rho = []
            for target in (1e-8, 1e-6, 1e-5, 5e-5, 1e-4, 1e-2, 0.5):
                for kmax in (1, 6, n // 3):
                    f = random_band_limited_1d(grid, kmax, rng, 1.0).values
                    f = f / np.abs(f).max()
                    m = 10.0 ** rng.uniform(-1.0, 1.0) if kmax == 6 else 1.0
                    phi1 = np.fft.irfft(np.fft.rfft(f) / (k2 + m), n=n)
                    rho.append(m + min(target / np.abs(phi1).max(), 0.95 * m) * f)
            rho = np.array(rho)
            _, bound = ik._start(k2, rho)
            _, histories = ik._newton(grid, rho, np.inf, 0)
            residual = np.array([h[0] for h in histories])
            assert np.all(np.isfinite(bound)) and np.all(bound >= residual)
            rows += len(rho)
            certified += np.count_nonzero(bound <= ik.PHI_TOL / 8)
        assert rows == 126 and certified >= 10

    def test_density_holding_a_nan_raises(self):
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2)])
        rho[1, 5] = np.nan
        for rows in (rho, rho[1:]):
            # NaN arithmetic flags invalid values on the way; the error is the point
            with np.errstate(invalid="ignore"), pytest.raises(ik.NewtonError, match="non-finite"):
                ik._closure(GRID, rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_is_rejected_before_numpy_warns(self, bad):
        # under the suite's error::RuntimeWarning filter and no np.errstate: a
        # warning from arithmetic on the density would escape in place of the error
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2)])
        rho[1, 5] = bad
        v = np.zeros_like(rho)
        with pytest.raises(ik.NewtonError, match="non-finite"):
            ik._closure(GRID, rho)
        with pytest.raises(ik.NewtonError, match="non-finite"):
            ik.ion_diagnostics(GRID, rho, v, (1, 2))
        # -inf is below the flow's density floor, which it checks first
        with pytest.raises(ik.DensityFloorError if bad < 0 else ik.NewtonError):
            ik.ion_flow(GRID, rho, v)

    @pytest.mark.parametrize("n, step", [(64, 1), (256, 2)])
    def test_overflowing_exp_raises_the_steps_newton_error(self, n, step):
        # one spike of 1e6 over 1e-2 is not certified, and exp(phi) overflows at
        # Newton step `step`; under the suite's error::RuntimeWarning filter and
        # no np.errstate, a numpy warning would escape in place of the error
        grid = Grid1D(n)
        rho = np.full((1, n), 1e-2)
        rho[0, 5] = 1e6
        with pytest.raises(ik.NewtonError, match="non-finite Newton residual") as flow:
            ik.ion_flow(grid, rho, np.zeros_like(rho))
        with pytest.raises(ik.NewtonError, match="non-finite Newton residual") as solve:
            ik.solve_phi(Field1D(grid, rho[0]))
        for err in (flow, solve):
            assert err.value.iterations == step and err.value.residual == math.inf

    def test_overflowing_bound_leaves_the_start_uncertified(self):
        # max|phi1| + max|L^-1(m phi1^2 / 2)| is about 8.1e3, so e^d overflows:
        # the bound is inf, and nothing is raised or warned
        rho = np.full((1, GRID.n), 1e-8)
        rho[0, 5] = 1e8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bound = ik._start(ik.workspace1d(GRID).k2, rho)
        assert bound.tolist() == [math.inf]

    def test_nan_bound_does_not_certify(self, monkeypatch):
        # a NaN bound falls through to the residual: one more transform pair
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2)])
        start = ik._start
        monkeypatch.setattr(ik, "_start", lambda k2, r: (start(k2, r)[0], np.full(len(r), np.nan)))
        calls = count_ffts(monkeypatch)
        ik._closure(GRID, rho)
        assert calls == {"rfft": 3, "irfft": 3}

    def test_certified_rows_beside_a_solved_row_keep_their_bits(self):
        rho = np.array([ik.acoustic_mode_state(GRID, 1, 1e-4).parts[0].values,
                        ik.random_ion_state(GRID, 6, np.random.default_rng(19), 0.3).parts[0].values,
                        ik.acoustic_mode_state(GRID, 2, 1e-4).parts[0].values])
        _, bound = ik._start(ik.workspace1d(GRID).k2, rho)
        assert list(bound <= ik.PHI_TOL / 8) == [True, False, True]
        phi = ik._closure(GRID, rho)
        assert np.array_equal(phi, ik._newton(GRID, rho, ik.PHI_TOL, ik.PHI_MAX_ITER)[0])


class TestIonSystem:
    def test_density_must_be_positive(self):
        rho = np.ones(GRID.n)
        rho[5] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ik.ion_state(Field1D(GRID, rho), Field1D.zeros(GRID))

    def test_non_finite_energy_density_raises(self):
        z = ik.ion_state(Field1D.full(GRID, 1.0), Field1D.full(GRID, 1e200))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ik.ion_energy().value(z)

    def test_quiescent_equilibrium(self):
        out = ik.ion_rhs(ik.quiescent_state(GRID))
        assert out.parts[0].max_abs() <= 1e-13
        assert out.parts[1].max_abs() <= 1e-13

    def test_uniform_flow_equilibrium(self):
        z = ik.ion_state(Field1D.full(GRID, 1.0), Field1D.full(GRID, 0.7))
        out = ik.ion_rhs(z)
        assert out.parts[0].max_abs() <= 1e-12
        assert out.parts[1].max_abs() <= 1e-12

    def test_fused_rhs_matches_unfused_operators(self):
        z = ik.random_ion_state(GRID, 6, np.random.default_rng(7), 0.3)
        rho, v = z.parts
        phi = ik.solve_phi(rho).phi
        expect_rho = -1.0 * ddx1(dealias(rho * v))
        expect_v = -1.0 * ddx1(phi + dealias(v * v) * 0.5)
        out = ik.ion_rhs(z)
        for got, expect in zip(out.parts, (expect_rho, expect_v)):
            assert np.max(np.abs(got.values - expect.values)) <= 1e-13 * expect.max_abs()

    def test_density_floor_aborts(self):
        rho = Field1D.from_function(GRID, lambda x: 1e-8 + 0.5 * (1 + np.cos(x)))
        z = ik.ion_state(rho, Field1D.zeros(GRID))
        with pytest.raises(ik.DensityFloorError):
            ik.ion_rhs(z)

    def test_energy_values(self):
        H = ik.ion_energy()
        assert abs(H(ik.quiescent_state(GRID)) + L) <= 1e-12
        z = ik.ion_state(Field1D.full(GRID, 1.0), Field1D.full(GRID, 0.3))
        assert abs(H(z) - (-L + L * 0.3**2 / 2)) <= 1e-12

    def test_casimir_values(self):
        assert abs(ik.total_mass()(ik.quiescent_state(GRID)) - L) <= 1e-13
        z = ik.ion_state(Field1D.full(GRID, 1.0), Field1D.full(GRID, 0.3))
        assert abs(ik.momentum()(z) - 0.3 * L) <= 1e-13

    def test_casimir_drift_nonlinear_run(self):
        rng = np.random.default_rng(1)
        z0 = ik.random_ion_state(GRID, 3, rng, 0.08)
        series, _ = run_and_record(
            Integrator("rk4", 1e-2), ik.ion_rhs, z0, 5.0,
            watch=[ik.total_mass(), ik.momentum(), ik.ion_energy()], output_every=0.1,
        )
        assert series.drift("mass")[0] <= 1e-10
        # momentum is an exact divergence: rounding-level drift only,
        # bounded by 1e-12 in absolute terms per unit time
        assert series.drift("momentum")[0] <= 1e-12 * 5.0
        assert series.drift("ion_energy")[1] <= 1e-7

    @pytest.mark.parametrize("k,t_end", [(1, 20.0), (3, 15.0)])
    def test_dispersion_modes(self, k, t_end):
        z0 = ik.acoustic_mode_state(GRID, k, 1e-4)
        series, _ = run_and_record(
            Integrator("rk4", 1e-2), ik.ion_rhs, z0, t_end,
            watch=[ik.mode_amplitude(k)], output_every=0.05,
        )
        measured = estimate_frequency(series.times, series.values[f"mode_cos_{k}"])
        theory = ik.acoustic_dispersion(float(k))
        assert abs(measured - theory) / theory <= 1e-2


class TestGardner:
    def test_constant_profile_is_steady(self):
        assert ik.gardner_rhs(Field1D.full(GRID, 3.0)).max_abs() == 0.0

    def test_traveling_wave_identity(self):
        grid = Grid1D(512, 40.0)
        c = 1.0
        w = ik.kdv_soliton(c, 10.0, grid)
        resid = ik.gardner_rhs(w) + c * ddx1(w)
        assert resid.max_abs() <= 1e-6

    def test_linear_dispersion(self):
        # w = eps sin kx: rhs ~ eps k^3 cos kx, i.e. frequency -k^3
        eps, k = 1e-6, 3.0
        w = Field1D.from_function(GRID, lambda x: eps * np.sin(k * x))
        expect = eps * k**3 * np.cos(k * GRID.x())
        quadratic_term = 3.0 * eps**2 * k  # amplitude of -6 w dx(w)
        assert np.max(np.abs(ik.gardner_rhs(w).values - expect)) <= 1.5 * quadratic_term

    def test_operator_matches_rhs(self):
        rng = np.random.default_rng(2)
        w = random_band_limited_1d(GRID, 6, rng, 0.5)
        z = ik.kdv_state(w)
        via_operator = ik.gardner_operator().apply(z, ik.kdv_energy().gradient(z))
        assert np.max(np.abs(via_operator.parts[0].values - ik.gardner_rhs(w).values)) <= 1e-12


def old_if_rk4_step(w, dt):
    """The IF-RK4 KdV step as written before its constants were built once: the oracle."""
    ws = ik.workspace1d(w.grid)
    half = np.exp(1j * ws.k**3 * (dt / 2.0))
    full = half * half

    def nonlin(what):
        wv = np.fft.irfft(what, n=w.grid.n)
        return -3j * ws.k * (np.fft.rfft(wv * wv) * ws.mask)

    v = np.fft.rfft(w.values) * ws.mask
    a = dt * nonlin(v)
    b = dt * nonlin(half * (v + 0.5 * a))
    c = dt * nonlin(half * v + 0.5 * b)
    d = dt * nonlin(full * v + half * c)
    v_new = full * v + (full * a + 2.0 * half * (b + c) + d) / 6.0
    return Field1D(w.grid, np.fft.irfft(v_new, n=w.grid.n))


class TestSoliton:
    def test_peak_and_mass(self):
        grid = Grid1D(512, 40.0)
        for c in (0.5, 1.0, 2.0):
            w = ik.kdv_soliton(c, 20.0, grid)
            assert abs(w.max_abs() - c / 2.0) <= 1e-9
            assert abs(integrate(w) - 2.0 * math.sqrt(c)) <= 1e-6

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            ik.kdv_soliton(-1.0, 0.0, Grid1D(64))

    def test_if_rk4_step_is_bitwise_the_old_one(self):
        grid = Grid1D(256, 40.0)
        w = old = ik.kdv_soliton(1.0, 10.0, grid)
        for _ in range(300):
            w, old = ik.kdv_if_rk4_step(w, 1e-3), old_if_rk4_step(old, 1e-3)
        assert np.array_equal(w.values, old.values)

    def test_invariants_zero_field(self):
        assert ik.kdv_invariants(Field1D.zeros(GRID)) == (0.0, 0.0, 0.0)

    def test_short_evolution_tracks_translation(self):
        grid = Grid1D(256, 40.0)
        w0 = ik.kdv_soliton(1.0, 10.0, grid)
        z = ik.kdv_state(w0)
        integ = Integrator("if_rk4", 2e-3)
        for _ in range(500):
            z = step(integ, None, z)
        exact = ik.kdv_soliton(1.0, 11.0, grid)
        assert np.max(np.abs(z.parts[0].values - exact.values)) <= 2e-4

    def test_invariant_drift_short_run(self):
        grid = Grid1D(512, 40.0)
        z0 = ik.kdv_state(ik.kdv_soliton(1.0, 10.0, grid))
        series, _ = run_and_record(
            Integrator("if_rk4", 1e-3), None, z0, 2.0,
            watch=[ik.kdv_mass(), ik.kdv_momentum(), ik.kdv_energy()], output_every=0.1,
        )
        assert series.drift("kdv_mass")[0] <= 1e-12
        assert series.drift("kdv_momentum")[1] <= 1e-8
        assert series.drift("kdv_energy")[1] <= 1e-7

    def test_soliton_speed_from_peak_tracking(self):
        grid = Grid1D(256, 40.0)
        c = 1.0
        z = ik.kdv_state(ik.kdv_soliton(c, 10.0, grid))
        integ = Integrator("if_rk4", 2e-3)
        t_end = 4.0
        for _ in range(int(round(t_end / 2e-3))):
            z = step(integ, None, z)
        # quadratic interpolation of the peak position
        v = z.parts[0].values
        i = int(np.argmax(v))
        num = v[(i - 1) % grid.n] - v[(i + 1) % grid.n]
        den = 2.0 * (v[(i - 1) % grid.n] - 2 * v[i] + v[(i + 1) % grid.n])
        x_peak = grid.x()[i] + grid.dx * (num / den if den != 0 else 0.0)
        speed = (x_peak - 10.0) / t_end
        assert abs(speed - c) <= 0.01 * c


class TestStepScratch:
    """kdv_if_rk4_step keeps its intermediates in scratch per grid and dt; its outputs are fresh."""

    @pytest.mark.parametrize("step_alone", [ik.kdv_if_rk4_step, old_if_rk4_step])
    def test_alternating_fields_step_as_each_alone(self, step_alone):
        # one grid and one dt: both fields step through the same kept scratch;
        # the oracle, old_if_rk4_step, keeps nothing between calls
        grid = Grid1D(256, 40.0)
        start = (ik.kdv_soliton(1.0, 10.0, grid), ik.kdv_soliton(0.5, 25.0, grid))
        alone = []
        for w in start:
            for _ in range(50):
                w = step_alone(w, 1e-3)
            alone.append(w.values)
        u, w = start
        for _ in range(50):
            u = ik.kdv_if_rk4_step(u, 1e-3)
            w = ik.kdv_if_rk4_step(w, 1e-3)
        assert np.array_equal(u.values, alone[0]) and np.array_equal(w.values, alone[1])

    def test_a_stepped_field_keeps_its_values_after_later_steps(self):
        grid = Grid1D(256, 40.0)
        first = w = ik.kdv_if_rk4_step(ik.kdv_soliton(1.0, 10.0, grid), 1e-3)
        kept = first.values.copy()
        for _ in range(5):
            w = ik.kdv_if_rk4_step(w, 1e-3)
        assert np.array_equal(first.values, kept) and not np.array_equal(w.values, kept)
        scratch = ik._if_factors(grid, 1e-3)[5:]
        assert not any(np.shares_memory(first.values, s) for s in scratch)

    def test_one_step_makes_five_rfft_and_five_irfft_calls(self, monkeypatch):
        # the step's rfft, one irfft/rfft pair per stage, and the output's irfft
        grid = Grid1D(512, 40.0)
        w = ik.kdv_soliton(1.0, 10.0, grid)
        ik.kdv_if_rk4_step(w, 1e-3)  # builds the step's constants and scratch
        calls = count_ffts(monkeypatch)
        ik.kdv_if_rk4_step(w, 1e-3)
        assert calls == {"rfft": 5, "irfft": 5}


def count_closures(monkeypatch):
    """Count ion_kdv._closure calls from here on."""
    calls = [0]
    closure = ik._closure

    def counted(*a, **k):
        calls[0] += 1
        return closure(*a, **k)

    monkeypatch.setattr(ik, "_closure", counted)
    return calls


def stepped_batch(members, steps, dt=0.05):
    """The (2, m, n) batch of members' (rho, V) after RK4 steps of the ion flow."""
    grid = members[0].parts[0].grid
    z = np.array([[s.parts[i].values for s in members] for i in (0, 1)])
    integ = Integrator("rk4", dt)
    for _ in range(steps):
        z = step(integ, lambda zv: ik.ion_flow(grid, zv[0], zv[1]), z)
    return z


def field_watch_values(z, modes):
    """The ion watchers of each member in Field arithmetic, as written before the array
    kernels: the oracle."""
    grid = GRID
    out = []
    for j, k in enumerate(modes):
        rho, v = Field1D(grid, z[0, j]), Field1D(grid, z[1, j])
        probe = Field1D(grid, np.cos(2.0 * math.pi * k / grid.l * grid.x()))
        phi = Field1D(grid, ik._closure(grid, z[0, j:j + 1])[0])
        dphi = ddx1(phi)
        internal = Field1D(grid, (phi.values - 1.0) * np.exp(phi.values))
        out += [2.0 / grid.l * integrate((rho - Field1D.full(grid, 1.0)) * probe),
                integrate(rho * v * v * 0.5 + dphi * dphi * 0.5 + internal),
                integrate(rho), integrate(v)]
    return out


class TestBatchDiagnostics:
    """ion_diagnostics: every member's watcher values from the arrays, one closure solve."""

    MODES = (1, 2, 3)

    @pytest.mark.parametrize("steps", [0, 4])
    def test_batch_values_equal_each_members_functionals(self, steps):
        members = [ik.acoustic_mode_state(GRID, k, 1e-4) for k in self.MODES]
        z = stepped_batch(members, steps)
        assert (np.abs(z[1]).max() > 0) == (steps > 0)  # stepped: V is no longer zero
        got = ik.ion_diagnostics(GRID, z[0], z[1], self.MODES)
        states = [State("ion", (Field1D(GRID, z[0, j]), Field1D(GRID, z[1, j])))
                  for j in range(len(self.MODES))]
        assert got == [f.value(s) for s, k in zip(states, self.MODES) for f in ik.mode_watchers(k)]
        assert got == field_watch_values(z, self.MODES)

    def test_mixed_batch_equals_each_member_alone(self):
        # the middle member's start is not certified: it takes Newton steps, the others none
        members = [ik.acoustic_mode_state(GRID, 1, 1e-4),
                   ik.random_ion_state(GRID, 6, np.random.default_rng(19), 0.3),
                   ik.acoustic_mode_state(GRID, 3, 1e-4)]
        z = stepped_batch(members, 3)
        modes = (1, 2, 3)
        got = ik.ion_diagnostics(GRID, z[0], z[1], modes)
        for j, k in enumerate(modes):
            alone = ik.ion_diagnostics(GRID, z[0, j:j + 1], z[1, j:j + 1], (k,))
            assert got[4 * j:4 * j + 4] == alone
        assert got == field_watch_values(z, modes)
        phi = ik._closure(GRID, z[0])
        for j in range(len(members)):
            assert np.array_equal(phi[j], ik._closure(GRID, z[0, j:j + 1])[0])

    def test_one_closure_solve_for_all_members(self, monkeypatch):
        members = [ik.acoustic_mode_state(GRID, k, 1e-4) for k in self.MODES]
        z = stepped_batch(members, 2)
        calls = count_closures(monkeypatch)
        ik.ion_diagnostics(GRID, z[0], z[1], self.MODES)
        assert calls == [1]

    def test_preset_solves_the_closure_once_per_sample(self, monkeypatch):
        from casimirlab import cli

        cfg = cli.parse_config(preset="ionacoustic1d",
                               sets=("initial.modes=[1,2,3]", "dt=0.01", "t_end=0.1",
                                     "output_every=0.05"))
        calls = count_closures(monkeypatch)
        result = cli.PRESETS["ionacoustic1d"].runner(cfg)
        steps, samples = 10, len(result.series.times)
        assert samples == 3
        assert calls == [4 * steps + samples]  # 4 per RK4 step, then 1 per sample

    def test_energy_of_a_nonpositive_density_raises_value_error(self):
        rho = np.array([np.ones(GRID.n), np.cos(GRID.x())])
        with pytest.raises(ValueError, match="rho > 0"):
            ik.ion_diagnostics(GRID, rho, np.zeros_like(rho), (1, 2))

    def test_second_order_guess_of_a_whole_stack_is_the_indexed_one(self):
        # the closure's certified start of a whole stack is bitwise the guess
        # ln m + phi1 - L^-1(m phi1^2 / 2) formed here on every row at once
        rho = np.array([ik.acoustic_mode_state(GRID, k, 1e-4).parts[0].values for k in (1, 2, 5)])
        k2 = ik.workspace1d(GRID).k2
        mean = np.add.reduce(rho, axis=-1, keepdims=True) / GRID.n
        lin = k2 + mean
        phi1 = np.fft.irfft(np.fft.rfft(rho - mean) / lin, n=GRID.n)
        phi = np.log(mean) + phi1
        phi -= np.fft.irfft(np.fft.rfft(0.5 * mean * phi1 ** 2) / lin, n=GRID.n)
        assert np.array_equal(ik._closure(GRID, rho), phi)


class TestFoldedMask:
    def test_nonlinear_symbol_folds_the_mask(self):
        grid = Grid1D(512, 40.0)
        ws = ik.workspace1d(grid)
        symbol = ik._if_factors(grid, 1e-3)[3]
        assert np.array_equal(symbol, -3j * ws.k * ws.mask)
        assert not symbol[grid.n // 3 + 1:].any()
        assert ws.mask.dtype == complex and not ws.mask.flags.writeable
