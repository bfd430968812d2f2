"""Framework tests: gradients, operator antisymmetry, Casimir residuals,
bracket evaluation and the finite-difference Jacobi check."""

import numpy as np
import pytest

from casimirlab import Field1D, Field2D, Grid1D, Grid2D, StateError
from casimirlab import (
    casimir_residual,
    eval_poisson_bracket,
    gradient_check,
    inner,
    jacobi_residual,
    norm,
)
from casimirlab.field_core import random_band_limited_1d, random_band_limited_2d
from casimirlab.poisson import (
    State,
    antisymmetry_defect,
    max_abs_diff,
    states_equal_bitwise,
)
from casimirlab import finitedim as fd
from casimirlab import ion_kdv as ik
from casimirlab import vortex as vx

GRID = Grid2D(64, 64)
GRID1 = Grid1D(256)


def rng_for(seed):
    return np.random.default_rng(seed)


def random_states(seed):
    rng = rng_for(seed)
    return {
        "vortex1": vx.random_vortex_state(1, GRID, 6, rng),
        "vortex2": vx.random_vortex_state(2, GRID, 6, rng),
        "vortex3": vx.random_vortex_state(3, GRID, 6, rng),
        "ion": ik.random_ion_state(GRID1, 6, rng, 0.3),
        "kdv": ik.kdv_state(random_band_limited_1d(GRID1, 8, rng)),
    }


def random_covector(kind, seed, kmax=6):
    # the 1D directions carry a mean component so that linear functionals
    # (mass, momentum) have a nonzero slope to compare against
    rng = rng_for(seed)
    if kind in ("vortex1", "vortex2", "vortex3"):
        n = {"vortex1": 1, "vortex2": 2, "vortex3": 3}[kind]
        return State(kind, tuple(random_band_limited_2d(GRID, kmax, rng) for _ in range(n)))
    mean = Field1D.full(GRID1, 0.2)
    if kind == "ion":
        return State(
            "ion",
            (
                random_band_limited_1d(GRID1, kmax, rng) + mean,
                random_band_limited_1d(GRID1, kmax, rng) + mean,
            ),
        )
    return State("kdv", (random_band_limited_1d(GRID1, kmax, rng) + mean,))


class TestStates:
    def test_kind_mismatch_rejected(self):
        z1 = vx.random_vortex_state(1, GRID, 4, rng_for(0))
        z2 = vx.random_vortex_state(2, GRID, 4, rng_for(0))
        with pytest.raises(StateError):
            z1 + z2
        with pytest.raises(StateError):
            inner(z1, z2)

    @pytest.mark.parametrize("kind, parts", [
        ("ion", (Field2D.zeros(GRID), Field2D.zeros(GRID))),
        ("kdv", (Field2D.zeros(GRID),)),
        ("vortex2", (Field1D.zeros(GRID1), Field1D.zeros(GRID1))),
        ("vortex1", (np.ones(GRID.shape),)),
    ])
    def test_part_types_checked(self, kind, parts):
        with pytest.raises(StateError, match="parts"):
            State(kind, parts)

    @pytest.mark.parametrize("kind, parts, message", [
        ("vortex4", (Field2D.zeros(GRID),), "unknown state kind"),
        ("vortex2", (Field2D.zeros(GRID),), "needs 2 parts, got 1"),
        ("finite", (np.ones((2, 2)),), "1-d point"),
        ("vortex2", (Field2D.zeros(GRID), Field2D.zeros(Grid2D(32, 32))), "one grid"),
    ], ids=["unknown_kind", "part_count", "point_not_1d", "mixed_grids"])
    def test_malformed_state_rejected(self, kind, parts, message):
        with pytest.raises(StateError, match=message):
            State(kind, parts)

    def test_zeros_like_of_a_point(self):
        z = State("finite", (np.array([1.5, -2.0, 0.25]),))
        zero = z.zeros_like()
        assert zero.kind == "finite"
        assert np.array_equal(zero.parts[0], np.zeros(3))

    def test_vector_space_ops(self):
        z = vx.random_vortex_state(2, GRID, 4, rng_for(1))
        w = vx.random_vortex_state(2, GRID, 4, rng_for(2))
        s = 2.0 * z - w
        assert np.allclose(s.parts[0].values, 2 * z.parts[0].values - w.parts[0].values)

    def test_inner_is_l2(self):
        a = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        z = State("vortex1", (a,))
        assert abs(inner(z, z) - 2 * np.pi**2) <= 1e-12
        assert abs(norm(z) - np.sqrt(2 * np.pi**2)) <= 1e-12

    def test_bitwise_comparison_utilities(self):
        z = vx.random_vortex_state(2, GRID, 4, rng_for(3))
        same = State("vortex2", tuple(Field2D(GRID, p.values.copy()) for p in z.parts))
        assert states_equal_bitwise(z, same)
        assert max_abs_diff(z, same) == 0.0
        bumped = z + 1e-9 * vx.random_vortex_state(2, GRID, 4, rng_for(4))
        assert not states_equal_bitwise(z, bumped)
        assert 0.0 < max_abs_diff(z, bumped) <= 2e-9

    def test_bitwise_comparison_of_points(self):
        z = State("finite", (np.array([0.5, -1.0, 2.0]),))
        assert states_equal_bitwise(z, State("finite", (z.parts[0].copy(),)))
        bumped = State("finite", (z.parts[0] + [0.0, 0.25, 0.0],))
        assert not states_equal_bitwise(z, bumped)
        assert max_abs_diff(z, bumped) == 0.25
        assert not states_equal_bitwise(z, State("finite", (z.parts[0][:2],)))
        vortex = vx.random_vortex_state(1, GRID, 4, rng_for(5))
        assert not states_equal_bitwise(z, vortex)
        with pytest.raises(StateError):
            max_abs_diff(z, vortex)


SHIPPED_FUNCTIONALS = [
    ("vortex1", lambda: vx.euler_energy(1)),
    ("vortex2", lambda: vx.euler_energy(2)),
    ("vortex2", lambda: vx.rmhd_energy(2)),
    ("vortex3", lambda: vx.rmhd_energy(3)),
    ("vortex1", lambda: vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["cube"]))),
    ("vortex2", lambda: vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["square"]))),
    ("vortex2", lambda: vx.make_casimir(vx.CasimirSpec("flux", vx.PROFILES["quartic"]))),
    ("vortex3", lambda: vx.make_casimir(vx.CasimirSpec("flux", vx.PROFILES["cube"], level=3))),
    ("vortex3", lambda: vx.make_casimir(vx.CasimirSpec("flux_pair", vx.PROFILES["square"]))),
    ("vortex3", lambda: vx.make_casimir(vx.CasimirSpec("flux2", vx.PROFILES["sin"]))),
    ("ion", ik.ion_energy),
    ("ion", ik.total_mass),
    ("ion", ik.momentum),
    ("kdv", ik.kdv_mass),
    ("kdv", ik.kdv_momentum),
    ("kdv", ik.kdv_energy),
    # every padded row combination: one and two zero rows, at levels 2 and 3
    ("vortex3", lambda: vx.euler_energy(3)),
    ("vortex2", lambda: vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["cube"], level=2))),
    ("vortex3", lambda: vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["cube"], level=3))),
    ("vortex3", lambda: vx.make_casimir(vx.CasimirSpec("cross_helicity", vx.PROFILES["square"],
                                                       level=3))),
]


class TestGradientConsistency:
    """Every shipped functional: central FD slope vs analytic gradient pairing."""

    @pytest.mark.parametrize("kind,make", SHIPPED_FUNCTIONALS,
                             ids=[f"{k}-{i}" for i, (k, _) in enumerate(SHIPPED_FUNCTIONALS)])
    def test_directional_derivative(self, kind, make):
        F = make()
        z = random_states(21)[kind]
        dz = random_covector(kind, 22, kmax=5)
        if kind == "ion":
            dz = State("ion", (dz.parts[0] * 0.3, dz.parts[1] * 0.3))
        err = gradient_check(F, z, dz, eps=1e-5)
        assert err <= 1e-6, f"{F.label}: gradient mismatch {err:.3e}"


OPERATORS = [
    ("vortex1", vx.vortex_operator(1)),
    ("vortex2", vx.vortex_operator(2)),
    ("vortex3", vx.vortex_operator(3)),
    ("ion", ik.ion_operator()),
    ("kdv", ik.gardner_operator()),
]


class TestOperatorAntisymmetry:
    @pytest.mark.parametrize("kind,J", OPERATORS, ids=[J.label for _, J in OPERATORS])
    def test_field_operators(self, kind, J):
        z = random_states(31)[kind]
        g1 = random_covector(kind, 32)
        g2 = random_covector(kind, 33)
        assert antisymmetry_defect(J, z, g1, g2) <= 1e-11

    def test_finite_dim_operator(self):
        J = fd.x_scaled_canonical_operator()
        rng = rng_for(34)
        z = State("finite", (rng.uniform(-1, 1, 2),))
        g1 = State("finite", (rng.uniform(-1, 1, 2),))
        g2 = State("finite", (rng.uniform(-1, 1, 2),))
        assert antisymmetry_defect(J, z, g1, g2) <= 1e-14


CASIMIR_PAIRS = [
    ("vortex1", 1, vx.CasimirSpec("enstrophy", vx.PROFILES["square"])),
    ("vortex2", 2, vx.CasimirSpec("cross_helicity", vx.PROFILES["identity"])),
    ("vortex2", 2, vx.CasimirSpec("flux", vx.PROFILES["cube"])),
    ("vortex3", 3, vx.CasimirSpec("flux", vx.PROFILES["square"], level=3)),
    ("vortex3", 3, vx.CasimirSpec("flux_pair", vx.PROFILES["identity"])),
    ("vortex3", 3, vx.CasimirSpec("flux2", vx.PROFILES["quartic"])),
]


class TestCasimirResidual:
    @pytest.mark.parametrize("kind,level,spec", CASIMIR_PAIRS,
                             ids=[f"{s.family}" for _, _, s in CASIMIR_PAIRS])
    def test_vortex_casimirs(self, kind, level, spec):
        C = vx.make_casimir(spec)
        J = vx.vortex_operator(level)
        z = random_states(41)[kind]
        assert casimir_residual(C, z, J) <= 1e-8

    def test_ion_casimirs(self):
        J = ik.ion_operator()
        z = random_states(42)["ion"]
        assert casimir_residual(ik.total_mass(), z, J) <= 1e-12
        assert casimir_residual(ik.momentum(), z, J) <= 1e-12

    def test_gardner_casimir(self):
        z = random_states(43)["kdv"]
        assert casimir_residual(ik.kdv_mass(), z, ik.gardner_operator()) <= 1e-12

    def test_enstrophy_profile_of_omega_commutes(self):
        # gradient f'(omega) = 3 omega^2 commutes with omega under the bracket
        rng = rng_for(44)
        omega = random_band_limited_2d(GRID, 6, rng)
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["cube"]))
        assert casimir_residual(C, State("vortex1", (omega,)), vx.vortex_operator(1)) <= 1e-9

    def test_non_casimir_is_flagged_large(self):
        # generalized enstrophy stops being a Casimir on the two-field level;
        # tested at generic omega != 0 (at omega = 0 its gradient vanishes
        # and the residual is degenerate)
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
        z = vx.state_ii(
            Field2D.from_function(GRID, lambda X, Y: np.sin(X) + np.sin(2 * Y)),
            Field2D.from_function(GRID, lambda X, Y: np.cos(X) + np.cos(2 * Y)),
        )
        assert casimir_residual(C, z, vx.vortex_operator(2)) > 1e-3

    def test_residual_at_the_zero_state_is_relative_to_the_gradient_alone(self):
        # C = x under the constant Jc: |J grad C| = |grad C| = 1, and ||z|| = 0
        C = fd.cubic_functional([0, 1, 0, 0, 0, 0, 0, 0, 0, 0], "x")
        assert casimir_residual(C, fd.finite_state(0.0, 0.0), fd.canonical_operator()) == 1.0

    def test_degenerate_gradient_warns(self):
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
        z = vx.state_ii(Field2D.zeros(GRID), Field2D.from_function(GRID, lambda X, Y: np.cos(X)))
        with pytest.warns(UserWarning, match="degenerate"):
            r = casimir_residual(C, z, vx.vortex_operator(2))
        assert r == 0.0


class TestEvalPoissonBracket:
    def test_self_bracket_vanishes(self):
        H = vx.euler_energy(1)
        z = random_states(51)["vortex1"]
        scale = norm(H.gradient(z)) ** 2
        assert abs(eval_poisson_bracket(H, H, z, vx.vortex_operator(1))) <= 1e-12 * scale

    def test_casimir_bracket_with_energy_vanishes(self):
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"]))
        H = vx.euler_energy(1)
        z = random_states(52)["vortex1"]
        scale = max(1.0, norm(C.gradient(z)) * norm(H.gradient(z)))
        assert abs(eval_poisson_bracket(C, H, z, vx.vortex_operator(1))) <= 1e-9 * scale

    def test_non_casimir_bracket_is_nonzero(self):
        # generalized enstrophy against the flux-coupled Hamiltonian at a
        # generic two-field state
        C = vx.make_casimir(vx.CasimirSpec("enstrophy", vx.PROFILES["square"], level=2))
        H = vx.rmhd_energy(2)
        # omega overlaps the Lorentz drive [psi, -lap(psi)] = -6 sin(x) sin(2y)
        z = vx.state_ii(
            Field2D.from_function(GRID, lambda X, Y: np.sin(X) * np.sin(2 * Y) + np.cos(Y)),
            Field2D.from_function(GRID, lambda X, Y: np.cos(X) + np.cos(2 * Y)),
        )
        assert abs(eval_poisson_bracket(C, H, z, vx.vortex_operator(2))) > 1e-3

    def test_tag_mismatch_rejected(self):
        H = vx.euler_energy(1)
        z = random_states(53)["vortex2"]
        with pytest.raises(StateError):
            eval_poisson_bracket(H, H, z, vx.vortex_operator(1))


class TestJacobiResidual:
    def quadratics(self, seed):
        rng = rng_for(seed)
        out = []
        for _ in range(3):
            c = np.zeros(10)
            c[:6] = rng.uniform(-0.5, 0.5, 6)
            out.append(fd.cubic_functional(c, "quadratic"))
        return out

    def cubics(self, seed):
        rng = rng_for(seed)
        return [fd.cubic_functional(rng.uniform(-0.2, 0.2, 10)) for _ in range(3)]

    def test_canonical_with_quadratics(self):
        F, G, H = self.quadratics(61)
        z = State("finite", (np.array([0.3, -0.7]),))
        assert jacobi_residual(fd.canonical_operator(), z, F, G, H) <= 1e-9

    def test_x_scaled_with_cubics(self):
        # any antisymmetric operator on R^2 satisfies Jacobi; the residual is
        # pure finite-difference truncation
        F, G, H = self.cubics(62)
        for seed in range(3):
            z = State("finite", (rng_for(63 + seed).uniform(-1, 1, 2),))
            assert jacobi_residual(fd.x_scaled_canonical_operator(), z, F, G, H) <= 1e-8

    def test_so3_passes_and_broken_fails(self):
        coords = [fd.coordinate_functional(i) for i in range(3)]
        z = State("finite", (np.array([0.4, 0.8, 0.6]),))
        assert jacobi_residual(fd.so3_operator(), z, *coords) <= 1e-8
        r = jacobi_residual(fd.broken_so3_operator(), z, *coords)
        assert r >= 1e-3
        # analytic Jacobiator of the broken operator is 2 z2 z3
        assert abs(r - 2 * 0.8 * 0.6) <= 1e-6

    def test_field_states_rejected(self):
        H = vx.euler_energy(1)
        z = random_states(64)["vortex1"]
        with pytest.raises(StateError):
            jacobi_residual(vx.vortex_operator(1), z, H, H, H)
