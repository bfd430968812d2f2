"""The 2D vortex hierarchy: one, two and three advected fields.

Level 1 is Eulerian vortex dynamics: state omega, operator J1 = [omega, .],
Hamiltonian

    H_E(omega) = -1/2 int omega lap^{-1}(omega) d^2x,

whose flow is d(omega)/dt + V . grad(omega) = 0 with the velocity
V = (dy(phi), -dx(phi)) of the stream function phi = -lap^{-1} omega.

Level 2 appends a flux function psi (operator rows [omega,.] [psi,.] ;
[psi,.] 0).  With

    H_RMHD(omega, psi) = -1/2 int [ omega lap^{-1}(omega) + psi lap(psi) ] d^2x

this is the standard reduced-MHD pair: omega is driven by [psi, -lap(psi)]
(the Lorentz force of the current -lap psi) and psi is advected.  If the
Hamiltonian does not involve psi, psi is a phantom: it is advected by the
flow but the omega dynamics is unchanged bit for bit, because its back
reaction enters only through the bracket with an exactly zero gradient.

Level 3 appends a second advected field psi2, with the analogous operator.
So J1, J2 and J3 are one table, PAIRS, generated from the extension rule:
output row 0 is the sum over s of [z_s, g_s], output row s >= 1 is
[z_s, g_0].  One kernel, field_core.bracket_sums, evaluates a level's rows.

The Casimir catalog is one table too, CASIMIR_FAMILIES: a density and its
nonzero gradient rows per family (profiles are smooth maps with analytic
derivatives):

    generalized enstrophy   int f(omega)          rows omega          level 1
    cross helicity          int omega g(psi)      rows omega, psi     level 2
    flux integral           int f(psi)            row psi             levels 2, 3
    flux-pair integral      int h(psi * psi2)     rows psi, psi2      level 3
    second-flux integral    int f(psi2)           row psi2            level 3

Hamiltonians declare only their nonzero rows too; every other row is an
exact zero field, which is what makes its field a phantom.

Sign convention: grad H_E = -lap^{-1}(omega) = phi, so the level-1 flow is
[omega, phi] = -V . grad(omega).  This is pinned by the shear-equilibrium
and Lorentz-drive tests; every other sign in the module follows from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field_core import (
    Field2D,
    Grid2D,
    _apply,
    bracket2d,
    bracket_sums,
    integrate,
    invert_laplacian,
    l2norm,
    laplacian,
    random_band_limited_2d,
    workspace2d,
)
from .poisson import Functional, PoissonOperator, State, StateError, hamiltonian_rhs

_KINDS = {level: f"vortex{level}" for level in (1, 2, 3)}


def _kind(level: int) -> str:
    if level not in _KINDS:
        raise ValueError(f"unknown hierarchy level {level}")
    return _KINDS[level]


def state_i(omega: Field2D) -> State:
    return State("vortex1", (omega,))


def state_ii(omega: Field2D, psi: Field2D) -> State:
    return State("vortex2", (omega, psi))


def state_iii(omega: Field2D, psi: Field2D, psi2: Field2D) -> State:
    return State("vortex3", (omega, psi, psi2))


def stream_function(omega: Field2D) -> Field2D:
    """phi with omega = -lap(phi), zero-mean gauge: the symbol +1/k^2 on omega's spectrum."""
    return _apply(omega, workspace2d(omega.grid).inv_k2)


# ---------------------------------------------------------------------------
# Poisson operators
# ---------------------------------------------------------------------------


# level -> for each output row, the (state row, gradient row) pairs whose
# brackets sum to it, by the extension rule in the module docstring
PAIRS = {
    level: (tuple((s, s) for s in range(level)), *(((s, 0),) for s in range(1, level)))
    for level in _KINDS
}


def _apply_pairs(level: int, z: State, g: State) -> State:
    rows = [[(z.parts[s], g.parts[r]) for s, r in pairs] for pairs in PAIRS[level]]
    return State(_kind(level), tuple(bracket_sums(rows)))


def apply_j1(omega: Field2D, g_omega: Field2D) -> Field2D:
    return bracket2d(omega, g_omega)  # the one pair of PAIRS[1]


def apply_j2(z: State, g: State) -> State:
    return _apply_pairs(2, z, g)


def apply_j3(z: State, g: State) -> State:
    return _apply_pairs(3, z, g)


def vortex_operator(level: int) -> PoissonOperator:
    kind = _kind(level)
    if level == 1:
        return PoissonOperator(
            "J1", kind, lambda z, g: State(kind, (apply_j1(z.parts[0], g.parts[0]),))
        )
    return PoissonOperator(f"J{level}", kind, apply_j2 if level == 2 else apply_j3)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def _gradient(level: int, grid: Grid2D, rows: dict[int, Field2D]) -> State:
    """A level's gradient State from its nonzero rows; the missing rows share one exact zero."""
    zero = Field2D.zeros(grid) if len(rows) < level else None
    return State(_kind(level), tuple(rows.get(r, zero) for r in range(level)))


def euler_energy(level: int = 1) -> Functional:
    """H_E = -1/2 int omega lap^{-1}(omega); gradient (-lap^{-1} omega, 0, ...).

    On levels 2 and 3 the extra gradient components are exact zero fields,
    which is what makes the extra fields phantoms under this Hamiltonian.
    """
    _kind(level)  # an unknown level fails here, not at the first call

    def value(z: State) -> float:
        omega = z.parts[0]
        return -0.5 * integrate(omega * invert_laplacian(omega))

    def gradient(z: State) -> State:
        omega = z.parts[0]
        return _gradient(level, omega.grid, {0: stream_function(omega)})

    return Functional("euler_energy", value, gradient)


def rmhd_energy(level: int = 2) -> Functional:
    """H_RMHD = -1/2 int [omega lap^{-1}(omega) + psi lap(psi)]."""
    if level not in (2, 3):
        raise ValueError("rmhd_energy needs a flux function (level 2 or 3)")

    def value(z: State) -> float:
        omega, psi = z.parts[0], z.parts[1]
        return -0.5 * (
            integrate(omega * invert_laplacian(omega)) + integrate(psi * laplacian(psi))
        )

    def gradient(z: State) -> State:
        omega, psi = z.parts[0], z.parts[1]
        current = _apply(psi, workspace2d(psi.grid).k2)  # -lap(psi): the symbol +k^2
        rows = {0: stream_function(omega), 1: current}
        return _gradient(level, omega.grid, rows)

    return Functional("rmhd_energy", value, gradient)


def vortex_rhs(level: int, H: Functional) -> Callable[[State], State]:
    """dz/dt = J(z) grad H(z) for the requested hierarchy level."""
    return hamiltonian_rhs(vortex_operator(level), H)


# ---------------------------------------------------------------------------
# Casimir catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Scalar profile s -> f(s) with analytic derivative."""

    label: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]


PROFILES = {
    "identity": Profile("identity", lambda s: s, lambda s: np.ones_like(s)),
    "square": Profile("square", lambda s: s**2, lambda s: 2.0 * s),
    "cube": Profile("cube", lambda s: s**3, lambda s: 3.0 * s**2),
    "quartic": Profile("quartic", lambda s: s**4, lambda s: 4.0 * s**3),
    "sin": Profile("sin", np.sin, np.cos),
    "cosh": Profile("cosh", np.cosh, np.sinh),
}


def poly_profile(coeffs, label: str | None = None) -> Profile:
    """Polynomial profile sum c_k s^k with analytic derivative."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    lab = label or "poly" + "[" + ",".join(f"{v:g}" for v in c) + "]"
    return Profile(
        lab,
        lambda s: np.polynomial.polynomial.polyval(s, c),
        lambda s: np.polynomial.polynomial.polyval(s, dc),
    )


def _flux_pair_rows(p: Profile, v) -> dict:
    dh = p.df(v[1] * v[2])
    return {1: v[2] * dh, 2: v[1] * dh}


# family -> (lowest level, also its default; density; nonzero gradient rows):
# functions of the profile p and the state's value arrays v.  The rows map a
# row index to its array; every row they omit is exactly zero.
CASIMIR_FAMILIES = {
    "enstrophy": (1, lambda p, v: p.f(v[0]), lambda p, v: {0: p.df(v[0])}),
    "cross_helicity": (2, lambda p, v: v[0] * p.f(v[1]),
                       lambda p, v: {0: p.f(v[1]), 1: v[0] * p.df(v[1])}),
    "flux": (2, lambda p, v: p.f(v[1]), lambda p, v: {1: p.df(v[1])}),
    "flux_pair": (3, lambda p, v: p.f(v[1] * v[2]), _flux_pair_rows),
    "flux2": (3, lambda p, v: p.f(v[2]), lambda p, v: {2: p.df(v[2])}),
}


@dataclass(frozen=True)
class CasimirSpec:
    """A Casimir family plus its profile; level may widen where legal.

    'enstrophy' on level >= 2 and 'cross_helicity' on level 3 are valid
    functionals but not Casimirs there; each is a Casimir on the leaf where
    the rows it does not reach vanish (psi = 0 for enstrophy on level 2,
    psi2 = 0 for cross helicity on level 3), and the non-conservation
    witnesses use them exactly that way.
    """

    family: str
    profile: Profile
    level: int | None = None


def make_casimir(spec: CasimirSpec) -> Functional:
    """The functional int density(z) of a CASIMIR_FAMILIES entry, with its row gradient."""
    if spec.family not in CASIMIR_FAMILIES:
        raise ValueError(f"unknown Casimir family {spec.family!r}")
    lowest, density, rows = CASIMIR_FAMILIES[spec.family]
    level = spec.level if spec.level is not None else lowest
    if level < lowest:
        raise ValueError(f"{spec.family} needs at least level {lowest}")
    _kind(level)  # an unknown level fails here, not at the first call
    p = spec.profile

    def value(z: State) -> float:
        return integrate(Field2D(z.parts[0].grid, density(p, [f.values for f in z.parts])))

    def gradient(z: State) -> State:
        grid = z.parts[0].grid
        g = rows(p, [f.values for f in z.parts])
        return _gradient(level, grid, {r: Field2D(grid, a) for r, a in g.items()})

    return Functional(f"{spec.family}[{p.label}]", value, gradient)


# ---------------------------------------------------------------------------
# kernel states and singular-leaf diagnostics
# ---------------------------------------------------------------------------


def make_kernel_state(zeta: Field2D, xi: Profile, eta: Profile) -> State:
    """Level-2 state (omega, psi) = (xi(zeta), eta(zeta)).

    Both fields are functions of one scalar, so [omega, psi] vanishes by the
    chain rule; for nonmonotonic xi no enstrophy profile can reproduce the
    cross-helicity gradient g(psi), which is the Casimir-deficit situation.
    """
    return state_ii(Field2D(zeta.grid, xi.f(zeta.values)), Field2D(zeta.grid, eta.f(zeta.values)))


def singular_leaf_indicator(psi: Field2D) -> tuple[float, bool]:
    """(||psi||^2, on-leaf flag): membership in the single leaf psi = 0.

    The exterior Casimir is the hard step Y(||psi||^2); its only leaf exists
    at the singularity, so the indicator is a strict threshold
    (||psi||^2 < 1e-20), not a smoothed step.
    """
    n2 = integrate(psi * psi)
    return n2, n2 < 1e-20


def interior_casimir_residual(omega: Field2D, profile: Profile) -> float:
    """Norm of J2 applied at (omega, psi=0) to the gradient (f'(omega), 0).

    Vanishes identically: the generalized enstrophy is a Casimir of the
    subsystem living on the singular leaf, though not of the full level-2
    dynamics.
    """
    z = state_ii(omega, Field2D.zeros(omega.grid))
    out = apply_j2(z, make_casimir(CasimirSpec("enstrophy", profile, level=2)).gradient(z))
    return math.hypot(l2norm(out.parts[0]), l2norm(out.parts[1]))


def function_dependence_witness(
    omega: Field2D, psi: Field2D, psi_gap: float = 0.1
) -> dict | None:
    """Two grid points with omega within 1e-9 but psi apart by > psi_gap.

    Existence shows psi is not a function of omega, so no profile f(omega)
    has gradient g(psi).  Returns None when no such pair exists.
    """
    if omega.grid != psi.grid:
        raise StateError("witness needs one shared grid")
    w = omega.values.ravel()
    p = psi.values.ravel()
    order = np.argsort(w, kind="stable")
    ws, ps = w[order], p[order]
    close = np.abs(np.diff(ws)) <= 1e-9
    apart = np.abs(np.diff(ps)) > psi_gap
    hits = np.nonzero(close & apart)[0]
    if hits.size == 0:
        return None
    i = int(hits[np.argmax(np.abs(ps[hits + 1] - ps[hits]))])
    return {
        "omega_diff": float(abs(ws[i + 1] - ws[i])),
        "psi_diff": float(abs(ps[i + 1] - ps[i])),
        "flat_indices": (int(order[i]), int(order[i + 1])),
    }


# ---------------------------------------------------------------------------
# seeded initial data
# ---------------------------------------------------------------------------


def random_vortex_state(
    level: int, grid: Grid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> State:
    kind = _kind(level)
    parts = tuple(
        random_band_limited_2d(grid, kmax, rng, amplitude) for _ in range(level)
    )
    return State(kind, parts)


def field_from_modes(grid: Grid2D, modes) -> Field2D:
    """Sum of cosine modes; each mode is (kx, ky, amplitude, phase)."""
    X, Y = grid.meshgrid()
    v = np.zeros(grid.shape)
    for kx, ky, amp, phase in modes:
        v += amp * np.cos(kx * X + ky * Y + phase)
    return Field2D(grid, v)
