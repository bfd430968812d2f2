"""Vortex hierarchy tests: operators, Hamiltonians, the Casimir catalog,
kernel states, singular-leaf diagnostics and phantom-field invariance."""

import dataclasses
import math

import numpy as np
import pytest

from casimirlab import cli
from casimirlab import dynamics as dyn
from casimirlab import finitedim as fd
from casimirlab import ion_kdv as ik
from casimirlab import Field2D, Grid2D, bracket2d, integrate, l2norm
from casimirlab import casimir_residual
from casimirlab.dynamics import Integrator, run_and_record, step
from casimirlab.field_core import random_band_limited_2d
from casimirlab.poisson import State
from casimirlab import vortex as vx

GRID = Grid2D(64, 64)
PI_SQ = math.pi**2


def mode(fn):
    return Field2D.from_function(GRID, fn)


class TestOperators:
    def test_j1_constant_covector(self):
        omega = mode(lambda X, Y: np.sin(X) + np.cos(2 * Y))
        assert vx.apply_j1(omega, Field2D.full(GRID, 4.2)).max_abs() == 0.0

    def test_j1_function_of_omega_commutes(self):
        rng = np.random.default_rng(0)
        omega = random_band_limited_2d(GRID, 6, rng)
        g = Field2D(GRID, 3.0 * omega.values**2)  # gradient of omega^3
        assert vx.apply_j1(omega, g).max_abs() <= 1e-9 * max(1.0, omega.max_abs() ** 3)

    def test_j1_analytic(self):
        out = vx.apply_j1(mode(lambda X, Y: np.sin(X)), mode(lambda X, Y: np.sin(Y)))
        X, Y = GRID.meshgrid()
        assert np.max(np.abs(out.values + np.cos(X) * np.cos(Y))) <= 1e-12

    def test_j2_zero_psi_gradient_reduces(self):
        rng = np.random.default_rng(1)
        z = vx.random_vortex_state(2, GRID, 6, rng)
        g_omega = random_band_limited_2d(GRID, 6, rng)
        g = State("vortex2", (g_omega, Field2D.zeros(GRID)))
        out = vx.apply_j2(z, g)
        expect1 = bracket2d(z.parts[0], g_omega)
        expect2 = bracket2d(z.parts[1], g_omega)
        assert np.array_equal(out.parts[0].values, expect1.values)
        assert np.array_equal(out.parts[1].values, expect2.values)

    def test_j2_annihilates_cross_helicity_gradient(self):
        rng = np.random.default_rng(2)
        z = vx.random_vortex_state(2, GRID, 6, rng)
        C1 = vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["square"]))
        out = vx.apply_j2(z, C1.gradient(z))
        assert out.parts[0].max_abs() <= 1e-9
        assert out.parts[1].max_abs() <= 1e-9

    def test_j3_identical_advection_rows(self):
        rng = np.random.default_rng(3)
        psi = random_band_limited_2d(GRID, 5, rng)
        z = vx.state_iii(random_band_limited_2d(GRID, 5, rng), psi, Field2D(GRID, psi.values.copy()))
        g = State("vortex3", (random_band_limited_2d(GRID, 5, rng),
                              Field2D.zeros(GRID), Field2D.zeros(GRID)))
        out = vx.apply_j3(z, g)
        assert np.array_equal(out.parts[1].values, out.parts[2].values)

    def test_j3_flux_pair_gradient_annihilated(self):
        rng = np.random.default_rng(4)
        psi = random_band_limited_2d(GRID, 5, rng)
        z = vx.state_iii(random_band_limited_2d(GRID, 5, rng), psi, Field2D(GRID, psi.values.copy()))
        C3 = vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["identity"]))
        out = vx.apply_j3(z, C3.gradient(z))
        for p in out.parts:
            assert p.max_abs() <= 1e-9

    def test_j3_zero_covector(self):
        rng = np.random.default_rng(5)
        z = vx.random_vortex_state(3, GRID, 5, rng)
        out = vx.apply_j3(z, z.zeros_like())
        for p in out.parts:
            assert p.max_abs() == 0.0


class TestBracketKernel:
    """bracket_sums: one transform per distinct live field, one projection per output."""

    @staticmethod
    def record_transforms(monkeypatch):
        """Patch np.fft.rfft2 and irfft2 to record (name, copy of the input) per call."""
        calls = []
        for name in ("rfft2", "irfft2"):

            def recorded(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append((_name, np.array(x)))
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "level, hamiltonian, transforms",
        [(2, vx.rmhd_energy, 14), (3, vx.rmhd_energy, 19), (2, vx.euler_energy, 12),
         (1, vx.euler_energy, 7)],
    )
    def test_transforms_per_rhs(self, monkeypatch, level, hamiltonian, transforms):
        z = vx.random_vortex_state(level, GRID, 5, np.random.default_rng(20))
        rhs = vx.vortex_rhs(level, hamiltonian(level))
        calls = self.record_transforms(monkeypatch)
        for row in rhs(z).parts:
            row.values
        assert len(calls) == transforms

    @pytest.mark.parametrize(
        "level, hamiltonian, transforms",
        [(1, vx.euler_energy, 22), (2, vx.euler_energy, 36), (2, vx.rmhd_energy, 44),
         (3, vx.rmhd_energy, 58)],
    )
    def test_transforms_per_step(self, monkeypatch, level, hamiltonian, transforms):
        # RK4's stage sums stay spectral: the step transforms its input forward
        # once per part and its output back once per part, and each of the four
        # RHS makes its bracket work only
        z = vx.random_vortex_state(level, GRID, 5, np.random.default_rng(20))
        rhs = vx.vortex_rhs(level, hamiltonian(level))
        calls = self.record_transforms(monkeypatch)
        step(Integrator("rk4", 0.01), rhs, z)
        assert len(calls) == transforms

    @pytest.mark.parametrize("level", sorted(vx.PAIRS))
    def test_step_output_carries_no_synthesized_spectrum(self, level):
        z = vx.random_vortex_state(level, GRID, 5, np.random.default_rng(24))
        out = step(Integrator("rk4", 0.01), vx.vortex_rhs(level, vx.euler_energy(level)), z)
        for p in out.parts:
            assert not p._synthesized and "_hat" not in vars(p)
            assert not p.values.flags.writeable

    def test_tables_follow_the_extension_rule(self):
        # row 0 sums [z_s, g_s]; row s >= 1 is [z_s, g_0]
        assert vx._KINDS == {1: "vortex1", 2: "vortex2", 3: "vortex3"}
        assert vx.PAIRS == {
            1: (((0, 0),),),
            2: (((0, 0), (1, 1)), ((1, 0),)),
            3: (((0, 0), (1, 1), (2, 2)), ((1, 0),), ((2, 0),)),
        }

    @pytest.mark.parametrize("level", sorted(vx.PAIRS))
    def test_outputs_match_separate_brackets(self, level):
        rng = np.random.default_rng(21)
        z = vx.random_vortex_state(level, GRID, 6, rng)
        g = vx.random_vortex_state(level, GRID, 6, rng)
        out = vx.vortex_operator(level).apply(z, g)
        for row, pairs in zip(out.parts, vx.PAIRS[level]):
            expect = sum(
                (bracket2d(z.parts[s], g.parts[r]).values for s, r in pairs), np.zeros(GRID.shape)
            )
            assert np.max(np.abs(row.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_zero_rows_are_never_transformed(self, monkeypatch):
        rng = np.random.default_rng(22)
        z = vx.random_vortex_state(3, GRID, 5, rng)
        g = State("vortex3", (random_band_limited_2d(GRID, 5, rng), Field2D.zeros(GRID),
                              Field2D.zeros(GRID)))
        calls = self.record_transforms(monkeypatch)
        out = vx.apply_j3(z, g)
        forward = [x for name, x in calls if name == "rfft2"]
        # omega, psi, psi2 and g_omega, then one projection per output row;
        # the zero rows g_psi and g_psi2 never reach rfft2
        assert len(forward) == 4 + 3 and all(x.any() for x in forward)
        assert np.array_equal(out.parts[0].values, bracket2d(z.parts[0], g.parts[0]).values)

    def test_output_without_live_pair_is_exact_zero(self, monkeypatch):
        z = vx.random_vortex_state(3, GRID, 5, np.random.default_rng(23))
        calls = self.record_transforms(monkeypatch)
        out = vx.apply_j3(z, z.zeros_like())
        assert calls == []
        for row in out.parts:
            assert not row.values.any()


class TestTracerContract:
    """perfbench wraps these module-level names; the operators must call them."""

    def test_traced_names_exist(self):
        for name in ("apply_j1", "apply_j2", "apply_j3", "bracket2d", "euler_energy",
                     "rmhd_energy"):
            assert callable(getattr(vx, name))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_operator_calls_the_module_level_apply(self, monkeypatch, level):
        name = f"apply_j{level}"
        original, calls = getattr(vx, name), []

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(vx, name, spy)
        z = vx.random_vortex_state(level, GRID, 4, np.random.default_rng(24))
        vx.vortex_operator(level).apply(z, vx.euler_energy(level).gradient(z))
        assert calls == [name]

    @pytest.mark.parametrize("module, names", [
        (dyn, ("step", "run_and_record")),
        (ik, ("solve_phi", "kdv_if_rk4_step")),
        (fd, ("simulate_plane_orbits", "closedness_residual")),
        (cli, ("parse_config", "run_preset")),
    ])
    def test_rebound_names_exist(self, module, names):
        for name in names:
            assert callable(getattr(module, name))

    def test_presets_are_dataclasses_with_a_runner(self):
        for spec in cli.PRESETS.values():
            assert dataclasses.is_dataclass(spec) and callable(spec.runner)
            assert dataclasses.replace(spec, runner=spec.runner) == spec

    @pytest.mark.parametrize("preset, sets, factory", [
        ("euler2d", ("grid.n=16", "t_end=0.02"), "euler_energy"),
        ("rmhd2d", ("grid.n=16", "dt=0.01", "t_end=0.02"), "rmhd_energy"),
        ("phantom3", ("grid.n=16", "t_end=0.02"), "rmhd_energy"),
    ])
    def test_presets_build_the_hamiltonian_at_run_time(self, monkeypatch, tmp_path, capsys,
                                                       preset, sets, factory):
        # a Hamiltonian built at import time would escape a rebound factory,
        # and its gradient calls would go uncounted
        original, calls = getattr(vx, factory), []

        def spy(*args):
            H = original(*args)
            return dataclasses.replace(H, gradient=lambda z: calls.append(z) or H.gradient(z))

        monkeypatch.setattr(vx, factory, spy)
        cli.run_preset(cli.parse_config(preset=preset, sets=sets, out_dir_flag=str(tmp_path)))
        assert len(calls) >= 8  # four RHS calls in each of two RK4 steps


class TestHamiltonians:
    def test_euler_energy_single_mode(self):
        assert abs(vx.euler_energy(1)(vx.state_i(mode(lambda X, Y: np.sin(X)))) - PI_SQ) <= 1e-12

    def test_euler_energy_zero(self):
        assert vx.euler_energy(1)(vx.state_i(Field2D.zeros(GRID))) == 0.0

    def test_rmhd_reduces_to_euler_at_zero_flux(self):
        rng = np.random.default_rng(6)
        omega = random_band_limited_2d(GRID, 6, rng)
        e2 = vx.rmhd_energy(2)(vx.state_ii(omega, Field2D.zeros(GRID)))
        e1 = vx.euler_energy(1)(vx.state_i(omega))
        assert abs(e2 - e1) <= 1e-14 * max(1.0, abs(e1))

    def test_rmhd_magnetic_term(self):
        z = vx.state_ii(Field2D.zeros(GRID), mode(lambda X, Y: np.cos(X)))
        assert abs(vx.rmhd_energy(2)(z) - PI_SQ) <= 1e-12

    def test_stream_function_sign(self):
        # omega = -lap(phi) must hold for the derived stream function
        rng = np.random.default_rng(7)
        omega = random_band_limited_2d(GRID, 6, rng)
        from casimirlab import laplacian

        phi = vx.stream_function(omega)
        mean = integrate(omega) / (GRID.lx * GRID.ly)
        assert np.max(np.abs(laplacian(phi).values + omega.values - mean)) <= 1e-10


class TestRhs:
    def test_shear_equilibrium(self):
        # functions of x alone commute: omega = sin x is steady
        z = vx.state_i(mode(lambda X, Y: np.sin(X)))
        out = vx.vortex_rhs(1, vx.euler_energy(1))(z)
        assert out.parts[0].max_abs() <= 1e-13

    def test_level2_euler_only_structure(self):
        # with no flux in the Hamiltonian the omega equation ignores psi and
        # psi is purely advected
        rng = np.random.default_rng(8)
        omega = random_band_limited_2d(GRID, 5, rng)
        psi = random_band_limited_2d(GRID, 5, rng)
        out = vx.vortex_rhs(2, vx.euler_energy(2))(vx.state_ii(omega, psi))
        only = vx.vortex_rhs(1, vx.euler_energy(1))(vx.state_i(omega))
        assert np.array_equal(out.parts[0].values, only.parts[0].values)
        g_omega = vx.euler_energy(1).gradient(vx.state_i(omega)).parts[0]
        assert np.array_equal(out.parts[1].values, bracket2d(psi, g_omega).values)

    def test_reloaded_run_is_bitwise_equal(self, tmp_path):
        # states never carry a synthesized spectrum, so stopping, saving and
        # reloading a run cannot change where it goes
        from casimirlab.cli import load_snapshot, save_snapshot

        rhs = vx.vortex_rhs(2, vx.rmhd_energy(2))
        integ = Integrator("rk4", 0.01)
        z = vx.random_vortex_state(2, GRID, 5, np.random.default_rng(40))
        straight = z
        for _ in range(6):
            straight = step(integ, rhs, straight)
        for _ in range(3):
            z = step(integ, rhs, z)
        save_snapshot(tmp_path / "mid.snap", z)
        z = load_snapshot(tmp_path / "mid.snap")
        for _ in range(3):
            z = step(integ, rhs, z)
        for a, b in zip(straight.parts, z.parts):
            assert np.array_equal(a.values, b.values)

    def test_level2_lorentz_drive(self):
        # omega = 0, psi = cos x + cos 2y: omega-dot = [psi, -lap psi], the
        # magnetic drive, equal to -6 sin x sin 2y
        z = vx.state_ii(Field2D.zeros(GRID), mode(lambda X, Y: np.cos(X) + np.cos(2 * Y)))
        out = vx.vortex_rhs(2, vx.rmhd_energy(2))(z)
        X, Y = GRID.meshgrid()
        assert np.max(np.abs(out.parts[0].values + 6.0 * np.sin(X) * np.sin(2 * Y))) <= 1e-10
        assert out.parts[1].max_abs() == 0.0


class TestCasimirCatalog:
    def test_enstrophy_value(self):
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"]))
        assert abs(C(vx.state_i(mode(lambda X, Y: np.sin(X)))) - 2 * PI_SQ) <= 1e-12

    def test_cross_helicity_subsumes_enstrophy(self):
        # with psi = omega the cross helicity evaluates as the enstrophy
        w = mode(lambda X, Y: np.sin(X))
        C1 = vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["identity"]))
        assert abs(C1(vx.state_ii(w, w)) - 2 * PI_SQ) <= 1e-12

    def test_flux_pair_zero_second_field(self):
        C3 = vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["identity"]))
        rng = np.random.default_rng(9)
        z = vx.state_iii(
            random_band_limited_2d(GRID, 5, rng),
            random_band_limited_2d(GRID, 5, rng),
            Field2D.zeros(GRID),
        )
        assert C3(z) == 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            vx.make_casimir(vx.CasimirSpec("nope", vx.PROFILES["identity"]))

    def test_family_below_minimum_level_rejected(self):
        with pytest.raises(ValueError):
            vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["identity"], level=2))

    @pytest.mark.parametrize("make,level,zeros", [
        (lambda: vx.euler_energy(1), 1, 0),
        (lambda: vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"])), 1, 0),
        (lambda: vx.rmhd_energy(3), 3, 1),
        (lambda: vx.make_casimir(vx.CasimirSpec("flux2", vx.PROFILES["sin"])), 3, 1),
    ], ids=["euler_energy-1", "enstrophy-1", "rmhd_energy-3", "flux2-3"])
    def test_missing_gradient_rows_share_one_zero_field(self, monkeypatch, make, level, zeros):
        F = make()
        z = vx.random_vortex_state(level, GRID, 4, np.random.default_rng(0))
        calls = []
        zeros_of = Field2D.zeros.__func__
        monkeypatch.setattr(Field2D, "zeros",
                            classmethod(lambda cls, grid: calls.append(grid) or zeros_of(cls, grid)))
        g = F.gradient(z)
        assert len(calls) == zeros
        zero_rows = [f for f in g.parts if not f.values.any()]
        assert all(f is zero_rows[0] for f in zero_rows)

    def test_poly_profile_derivative(self):
        p = vx.poly_profile([1.0, 0.0, 2.0])  # 1 + 2 s^2
        s = np.linspace(-2, 2, 9)
        assert np.allclose(p.f(s), 1 + 2 * s**2)
        assert np.allclose(p.df(s), 4 * s)


# each entry point that takes a hierarchy level, called at that level
LEVEL_ENTRY_POINTS = {
    "vortex_operator": vx.vortex_operator,
    "euler_energy": vx.euler_energy,
    "random_vortex_state": lambda level: vx.random_vortex_state(
        level, GRID, 4, np.random.default_rng(0)
    ),
    "make_casimir": lambda level: vx.make_casimir(
        vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=level)
    ),
}


@pytest.mark.parametrize("level", [0, 4])
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_out_of_range_level_raises_value_error(entry, level):
    with pytest.raises(ValueError, match="level"):
        LEVEL_ENTRY_POINTS[entry](level)


class TestKernelState:
    def test_commutator_vanishes_nonmonotonic(self):
        grid = Grid2D(128, 128)
        zeta = Field2D.from_function(grid, lambda X, Y: np.cos(X) + np.cos(Y))
        z = vx.make_kernel_state(zeta, vx.PROFILES["square"], vx.PROFILES["identity"])
        assert bracket2d(z.parts[0], z.parts[1]).max_abs() <= 1e-9

    def test_identity_profiles_exact_zero(self):
        zeta = mode(lambda X, Y: np.cos(X) + np.cos(Y))
        z = vx.make_kernel_state(zeta, vx.PROFILES["identity"], vx.PROFILES["identity"])
        assert bracket2d(z.parts[0], z.parts[1]).max_abs() == 0.0

    def test_cross_helicity_residual_at_kernel_state(self):
        zeta = mode(lambda X, Y: np.cos(X) + np.cos(Y))
        z = vx.make_kernel_state(zeta, vx.PROFILES["square"], vx.PROFILES["identity"])
        for g in ("identity", "square", "sin"):
            C1 = vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES[g]))
            assert casimir_residual(C1, z, vx.vortex_operator(2)) <= 1e-9

    def test_dependence_witness_found_for_nonmonotonic_xi(self):
        zeta = mode(lambda X, Y: np.cos(X) + np.cos(Y))
        z = vx.make_kernel_state(zeta, vx.PROFILES["square"], vx.PROFILES["identity"])
        w = vx.function_dependence_witness(z.parts[0], z.parts[1], psi_gap=0.1)
        assert w is not None
        assert w["omega_diff"] <= 1e-9 and w["psi_diff"] > 0.1

    def test_dependence_witness_absent_for_monotonic_xi(self):
        # xi = identity is monotonic: omega determines psi, no witness pair
        zeta = mode(lambda X, Y: np.cos(X) + np.cos(Y))
        z = vx.make_kernel_state(zeta, vx.PROFILES["identity"], vx.PROFILES["identity"])
        assert vx.function_dependence_witness(z.parts[0], z.parts[1], psi_gap=0.1) is None


class TestSingularLeaf:
    def test_indicator_values(self):
        n2, on = vx.singular_leaf_indicator(Field2D.zeros(GRID))
        assert n2 == 0.0 and on
        n2, on = vx.singular_leaf_indicator(mode(lambda X, Y: np.sin(X)))
        assert abs(n2 - 2 * PI_SQ) <= 1e-12 and not on

    def test_indicator_constant_under_advection(self):
        rng = np.random.default_rng(10)
        omega = random_band_limited_2d(GRID, 4, rng, 0.8)
        z = vx.state_ii(omega, Field2D.zeros(GRID))
        rhs = vx.vortex_rhs(2, vx.rmhd_energy(2))
        integ = Integrator("rk4", 1e-2)
        for _ in range(50):
            z = step(integ, rhs, z)
            assert vx.singular_leaf_indicator(z.parts[1])[1]

    def test_interior_residual_on_leaf(self):
        rng = np.random.default_rng(11)
        omega = random_band_limited_2d(GRID, 6, rng)
        assert vx.interior_casimir_residual(omega, vx.PROFILES["square"]) == 0.0
        assert vx.interior_casimir_residual(omega, vx.PROFILES["quartic"]) <= 1e-9

    def test_interior_gradient_not_annihilated_off_leaf(self):
        rng = np.random.default_rng(12)
        omega = random_band_limited_2d(GRID, 6, rng)
        z = vx.state_ii(omega, mode(lambda X, Y: np.sin(X)))
        g = State("vortex2", (Field2D(GRID, 2.0 * omega.values), Field2D.zeros(GRID)))
        out = vx.apply_j2(z, g)
        assert l2norm(out.parts[1]) > 1e-3


class TestPhantomInvariance:
    def test_omega_trajectories_bitwise_equal(self):
        rng = np.random.default_rng(13)
        omega = random_band_limited_2d(GRID, 4, rng, 0.8)
        psi_a = random_band_limited_2d(GRID, 4, np.random.default_rng(100))
        psi_b = random_band_limited_2d(GRID, 4, np.random.default_rng(200))
        rhs = vx.vortex_rhs(2, vx.euler_energy(2))
        integ = Integrator("rk4", 1e-2)
        za, zb = vx.state_ii(omega, psi_a), vx.state_ii(omega, psi_b)
        for _ in range(50):
            za = step(integ, rhs, za)
            zb = step(integ, rhs, zb)
            assert np.array_equal(za.parts[0].values, zb.parts[0].values)
        assert float(np.max(np.abs(za.parts[0].values - zb.parts[0].values))) == 0.0

    def test_modifying_hamiltonian_breaks_enstrophy(self):
        # generalized enstrophy grows once the flux enters the Hamiltonian
        z0 = vx.state_ii(Field2D.zeros(GRID), mode(lambda X, Y: np.cos(X) + np.cos(2 * Y)))
        C0 = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
        series, _ = run_and_record(
            Integrator("rk4", 1e-3), vx.vortex_rhs(2, vx.rmhd_energy(2)), z0, 0.25,
            watch=[C0], output_every=0.05,
        )
        assert series.final("enstrophy[square]") > 1e-4

    def test_level3_pair_stays_equal(self):
        rng = np.random.default_rng(14)
        omega = random_band_limited_2d(GRID, 4, rng, 0.8)
        psi = random_band_limited_2d(GRID, 4, rng)
        z = vx.state_iii(omega, psi, Field2D(GRID, psi.values.copy()))
        rhs = vx.vortex_rhs(3, vx.rmhd_energy(3))
        integ = Integrator("rk4", 1e-2)
        for _ in range(50):
            z = step(integ, rhs, z)
        assert np.array_equal(z.parts[1].values, z.parts[2].values)


class TestEnergyConservation:
    def test_euler_energy_drift_standard_run(self):
        rng = np.random.default_rng(15)
        z0 = vx.state_i(random_band_limited_2d(GRID, 4, rng, 0.8))
        H = vx.euler_energy(1)
        series, _ = run_and_record(
            Integrator("rk4", 1e-2), vx.vortex_rhs(1, H), z0, 10.0,
            watch=[H], output_every=0.5,
        )
        assert series.drift("euler_energy")[1] <= 1e-8


class TestZeroTests:
    def test_each_distinct_input_is_tested_for_zero_once(self, monkeypatch):
        # a level-3 RHS with the rmhd gradient brackets 6 distinct fields in
        # 5 pairs; each is tested for an exact zero once, not once per pair
        from casimirlab.field_core import Field

        z = vx.random_vortex_state(3, GRID, 5, np.random.default_rng(26))
        g = vx.rmhd_energy(3).gradient(z)
        expected = [vx.apply_j3(z, g).parts[s].values for s in range(3)]
        calls, real_any = [], Field._any

        def spy(f):
            calls.append(id(f))
            return real_any(f)

        monkeypatch.setattr(Field, "_any", spy)
        out = vx.apply_j3(z, g)
        assert len(calls) == 6
        assert set(calls) == {id(f) for f in (*z.parts, *g.parts)}
        for row, values in zip(out.parts, expected):
            assert np.array_equal(row.values, values)
