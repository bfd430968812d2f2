"""Ion acoustic dynamics in one space dimension and the KdV reduction.

The ion fluid (density rho > 0, velocity V) closes with a Boltzmann electron
response through the nonlinear Poisson equation

    -d2x(phi) = rho - exp(phi),

solved for phi = Phi(rho) by Newton iteration with FFT-preconditioned
conjugate-gradient linear steps (two FFT calls per CG iteration).

The closure rule.  With m the mean density, L = k^2 + m and
phi1 = L^-1(rho - m), every density starts from the perturbation series to
second order, ln(m) + phi1 - L^-1(m phi1^2 / 2): one chord step with the
Jacobian frozen at m, where the FFT preconditioner is exact.  `_start`
bounds that start's residual a priori; the flow, the ion_energy watcher and
the ionacoustic1d config check (`_closure`) accept a start whose bound is at
most an eighth of the tolerance without evaluating its residual, so at small
amplitude they take no Newton step and compute no residual.  A start the
bound does not certify (its bound too large, NaN or overflowing) takes
Newton steps until its residual meets the tolerance.  `solve_phi` alone
evaluates the start's residual, which it reports.  All of them solve by this
one rule, so each gives bitwise the same phi for the same density.

The four ion watchers (mode amplitude, energy, mass, momentum) are array
kernels on rows; `ion_diagnostics` runs them on a whole batch of members
with one closure solve, and each Functional runs them on its one member, so
both give the same values.  The flow is

    d(rho)/dt = -dx(V rho),      dV/dt = -dx(phi + V^2/2),

the Hamiltonian form of which uses the constant antisymmetric operator
J = [[0, -dx], [-dx, 0]] (the curl force vanishes identically in 1D: every
1D state is irrotational, i.e. already on the vortex-free singular leaf)
with energy

    H = int [ rho V^2 / 2 + (dx phi)^2 / 2 + (phi - 1) exp(phi) ] dx.

Its Casimirs are the total mass int rho dx and the x-momentum int V dx.

On that leaf, substituting rho - 1 = V = w collapses the bracket to the
constant operator dx (the factor 2 of the reduced bracket is absorbed into
the Hamiltonian normalization), and with

    H_kdv = int [ -w^3 + (dx w)^2 / 2 ] dx

the flow is KdV in standard form, dw/dt + 6 w dx(w) + d3x(w) = 0, whose
exact traveling solution (c/2) sech^2(sqrt(c) (x - c t) / 2) is the oracle
for the soliton tests.  Time stepping for KdV uses integrating-factor RK4
on the d3x term to avoid stiffness.

The closure and the flow work on rows: `ion_flow` takes rho and V of shape
(..., n), one independent member per leading index, and solves every
member's closure in one Newton loop whose transforms and reductions run
along the last axis.  A member that has converged is dropped from the
working set, and each member's starting guess depends on that member alone,
so each member's flow is bitwise the flow of that member alone; `solve_phi`
and `ion_rhs` are the one-member calls on fields.  The
ionacoustic1d preset steps all of its modes as one such batch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .field_core import (
    Field1D,
    Grid1D,
    NonFiniteError,
    NumericalFailure,
    Workspace,
    _read_only,
    _spectral,
    dealias,
    ddx1,
    ddx2,
    ddx3,
    integrate,
    integrate_rows,
    random_band_limited_1d,
    wavenumber,
    workspace,
)
from .poisson import Functional, PoissonOperator, State

RHO_FLOOR = 1e-6
PHI_TOL = 1e-12  # the closure's bound on max|residual| (solve_phi's default)
PHI_MAX_ITER = 25  # the closure's limit on Newton steps (solve_phi's default)


class NewtonError(NumericalFailure):
    """Newton iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DensityFloorError(NumericalFailure):
    """Density dropped below the positivity floor during evolution."""


def above_floor(rho: np.ndarray) -> np.ndarray:
    """rho, once no entry lies below RHO_FLOOR (DensityFloorError otherwise; a NaN
    passes, for the closure to reject).  The time loop's two readers of the ion
    density gate it here: the flow and the ionacoustic1d preset's watcher."""
    if (low := float(np.min(rho))) < RHO_FLOOR:
        raise DensityFloorError(f"min(rho) = {low:.3e} below floor {RHO_FLOOR:g}")
    return rho


def ion_state(rho: Field1D, v: Field1D) -> State:
    if np.min(rho.values) <= 0.0:
        raise ValueError("ion density must be positive everywhere")
    return State("ion", (rho, v))


def kdv_state(w: Field1D) -> State:
    return State("kdv", (w,))


# ---------------------------------------------------------------------------
# nonlinear Poisson-Boltzmann closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiSolve:
    """Electric potential phi = Phi(rho) with Newton convergence data."""

    phi: Field1D
    iterations: int
    residual: float
    history: tuple[float, ...]


def _retire(met, live, out, x, *rows):
    """Drop the rows marked met from a working set: out[live[met]] takes x[met], and
    live, x and each of rows come back without those rows, in that order."""
    out[live[met]] = x[met]
    keep = ~met
    return [a[keep] for a in (live, x, *rows)]


def _pcg(k2: np.ndarray, e: np.ndarray, b: np.ndarray, atol: float | np.ndarray) -> np.ndarray:
    """Solve (-d2x + diag(e)) x = b by conjugate gradients, stopping at max|r| <= atol.

    e and b are rows of shape (..., n), one system per row, and atol is one
    bound per row (or one for all).  The preconditioner 1 / (k^2 + mean(e))
    is applied in Fourier space; it is the exact inverse when e is constant.
    Beside the direction p the loop carries its image -d2x(p), updated by
    the same recurrence, so an iteration makes two FFT calls for all rows:
    one rfft of r and one irfft of the stack (z-hat, k^2 z-hat).  At most n
    iterations.  Every reduction runs along the last axis (np.vecdot for the
    dots, which matches r @ p bitwise per row), and a row that has met its
    bound is dropped from the working set by `_retire`, so each row's x is
    bitwise the x of solving that row alone; the rows still live at the end
    are written to the output by one scatter.
    """
    shape, n = b.shape, b.shape[-1]
    e, b = e.reshape(-1, n), b.reshape(-1, n)
    atol = np.full(b.shape[0], atol)
    inv_m = 1.0 / (k2 + e.mean(axis=-1, keepdims=True))
    symbols = np.array((inv_m, k2 * inv_m))
    live = np.arange(b.shape[0])  # the rows still iterating, in the arrays below
    out = x = np.zeros(b.shape)  # out takes each row's x once that row has met its bound
    r = b.copy()
    p, k2p = np.fft.irfft(symbols * np.fft.rfft(r), n=n)
    rz = np.vecdot(r, p, keepdims=True)
    for _ in range(n):
        met = np.abs(r).max(axis=-1) <= atol
        n_met = np.count_nonzero(met)
        if n_met == live.size:
            break
        if n_met:
            live, x, atol, e, r, p, k2p, rz = _retire(met, live, out, x, atol, e, r, p, k2p, rz)
            symbols = symbols[:, ~met]
        ap = k2p + e * p
        alpha = rz / np.vecdot(p, ap, keepdims=True)
        x += alpha * p
        r -= alpha * ap
        z, k2z = np.fft.irfft(symbols * np.fft.rfft(r), n=n)
        rz, rz_old = np.vecdot(r, z, keepdims=True), rz
        beta = rz / rz_old
        p = z + beta * p
        k2p = k2z + beta * k2p
    if x is not out:  # else no row retired and x is out
        out[live] = x
    return out.reshape(shape)


def residual_floor(grid: Grid1D, k: int, amplitude: float) -> float:
    """Bound on the float64 rounding floor of solve_phi's residual for rho = 1 + a cos(k x).

    Rounding phi to float64 errs by about eps |phi| per point, and -d2x
    amplifies that by up to k_max^2 = (pi n / l)^2; the linearized potential
    of this density has max|phi| = a / (1 + kappa^2), kappa = 2 pi k / l.
    The smallest residual of 7 Newton iterates measured 0.14 to 0.43 of
    eps k_max^2 a / (1 + kappa^2) (n = 256 to 2048, l = 3 to 20, modes 1 to 8,
    a = 0.01 to 0.97); this returns 0.5 of it.

    Python float arithmetic throughout, so a tiny l raises nothing: the
    squares overflow to inf and the bound is inf or NaN, which the caller
    must reject as not <= its tolerance.
    """
    k_max = wavenumber(grid.n // 2, grid.l)
    kappa = wavenumber(k, grid.l)
    return 0.5 * sys.float_info.epsilon * (k_max * k_max) * amplitude / (1.0 + kappa * kappa)


def _start(k2: np.ndarray, rho: np.ndarray):
    """Each row's Newton start (rho of shape (m, n)), by the closure rule of the module
    docstring, and an a-priori bound on its residual.

    Each row's start and bound come from that row alone.  On
    u = phi1 - c(x), c(x) = L^-1(m phi1^2 / 2), the residual is
    m (e^u - 1 - u - phi1^2 / 2) exactly, so with a = max|phi1|,
    c = max|c(x)| and d = a + c it is at most m (a c + c^2 / 2 + e^d d^3 / 6)
    in exact arithmetic.  Rounding phi errs by eps |phi| per point, which
    -d2x amplifies by up to k_max^2 (see `residual_floor`), and exp(phi) by
    eps e^phi: the bound adds eps (8 k_max^2 M + 2 m e^M), with
    M = |ln m| + d >= max|phi| and m e^M = max(m^2, 1) e^d.  Each row's
    bound is Python float arithmetic, as in `residual_floor`: where it
    overflows it is inf (e^d beyond the float range is taken as inf) or
    NaN, not an error, and certifies nothing.
    """
    n = rho.shape[-1]
    mean = np.add.reduce(rho, axis=-1, keepdims=True) / n  # what rho.mean(axis=-1) computes
    lin = k2 + mean
    phi1 = np.fft.irfft(np.fft.rfft(rho - mean) / lin, n=n)
    correction = np.fft.irfft(np.fft.rfft(0.5 * mean * phi1 ** 2) / lin, n=n)
    a = np.abs(phi1).max(axis=-1, keepdims=True)
    c = np.abs(correction).max(axis=-1, keepdims=True)
    k2_max, bound = float(k2[-1]), []
    for m, a, c, d in np.concatenate((mean, a, c, a + c), axis=1).tolist():
        e_d = math.exp(d) if d <= math.log(sys.float_info.max) else math.inf  # exp would raise
        bound.append(m * (c * (a + 0.5 * c) + e_d * d ** 3 / 6) + math.ulp(1.0) * (
            8 * k2_max * (abs(math.log(m)) + d) + 2 * max(m * m, 1.0) * e_d))
    return np.log(mean) + phi1 - correction, np.array(bound)


def _newton(grid: Grid1D, rho: np.ndarray, tol: float, max_iter: int, certify: bool = False):
    """Newton rows of the closure: phi for each row of rho (shape (m, n)) and each row's history.

    Each row starts by the closure rule of the module docstring (`_start`).
    With certify, a row whose a-priori bound is at most tol / 8 is accepted
    at its start without its residual being computed, the decision the
    residual would make, and its history stays empty.  A row whose residual
    is at most tol is dropped from the working set by `_retire`, and the
    rows still live at the end are written to the output by one scatter, so
    each row's phi and history are bitwise those of solving that row alone.
    Raises NewtonError if rho holds a NaN or an infinity, before any
    transform; ValueError unless rho > 0 everywhere; and NewtonError for the
    first row (in row order) that meets a non-finite residual or is not
    converged after max_iter steps.  An exp(phi) that overflows makes its
    residual non-finite, so it raises that NewtonError, not a numpy warning.
    """
    if not np.isfinite(rho).all():
        raise NewtonError("non-finite density", math.nan, 0)
    if np.min(rho) <= 0.0:
        raise ValueError("the closure requires rho > 0 everywhere")
    k2 = workspace(grid).k2
    phi, bound = _start(k2, rho)
    histories = [[] for _ in range(rho.shape[0])]
    live = np.arange(rho.shape[0])  # the rows still iterating, in phi and rho
    out = phi  # phi0's buffer takes each row's phi once that row has converged
    if certify:  # a NaN bound is not <= tol / 8, so it never certifies
        met = bound <= tol / 8
        if met.all():
            return out, histories
        live, phi, rho = _retire(met, live, out, phi, rho)
    for it in range(max_iter + 1):
        neg_d2 = np.fft.irfft(k2 * np.fft.rfft(phi.astype(np.longdouble)), n=grid.n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
            e = np.exp(phi)
            residual = (neg_d2 - rho + e).astype(np.float64)
        res = np.abs(residual).max(axis=-1)
        for i, r in zip(live.tolist(), res.tolist()):
            if not math.isfinite(r):
                raise NewtonError("non-finite Newton residual", r, it)
            histories[i].append(r)
        met = res <= tol
        n_met = np.count_nonzero(met)
        if n_met == live.size:
            break
        if n_met:
            live, phi, rho, e, residual, res = _retire(met, live, out, phi, rho, e, residual, res)
        if it == max_iter:
            raise NewtonError(f"no convergence to {tol:g} within {max_iter} iterations",
                              histories[live[0]][-1], max_iter)
        phi = phi + _pcg(k2, e, -residual, np.minimum(0.1, res) * res)
    if phi is not out:  # else no row retired and phi is out
        out[live] = phi
    return out, histories


def _closure(grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    """phi for each row of rho (shape (m, n)): `_newton` to PHI_TOL within PHI_MAX_ITER steps.

    The flow, the ion_energy watcher and the ionacoustic1d config check solve
    through this call.  It certifies a start by its a-priori bound, as the
    closure rule of the module docstring says, and phi is bitwise
    `solve_phi`'s, which evaluates that start's residual.  A density holding
    a NaN or an infinity raises NewtonError, and one with min <= 0 raises
    ValueError.
    """
    return _newton(grid, rho, PHI_TOL, PHI_MAX_ITER, certify=True)[0]


def solve_phi(rho: Field1D, tol: float = PHI_TOL, max_iter: int = PHI_MAX_ITER) -> PhiSolve:
    """Solve -d2x(phi) + exp(phi) = rho by Newton iteration: the one-field form of `_closure`.

    It solves by the closure rule of the module docstring, but evaluates
    the start's residual where `_closure` accepts a certified start by its
    bound, so the residual, history and iteration count it reports are the
    true ones.
    Each Newton step solves with the symmetric positive definite Jacobian
    -d2x + diag(exp(phi)) by FFT-preconditioned conjugate gradients
    (`_pcg`), stopped by the forcing term max|r| <= min(0.1, res) * res,
    which keeps the contraction quadratic.  The residual is recomputed from
    phi at every iteration, never updated, so the reported residual is the
    true one.  Its spectral d2x runs in long double: float64 transforms
    raise the residual's rounding floor about twofold (to ~1e-13 at
    n = 256), too high for the contraction r1 <= 10 r0^2 to hold from
    r0 ~ 1e-7.
    At the default tol and max_iter, phi is bitwise the phi the flow and
    the ion_energy watcher use for the same density.
    Raises ValueError unless rho > 0 everywhere, and NewtonError (carrying
    the last residual) if the residual is not at most tol within max_iter
    steps.  On fine grids the float64 rounding floor of the residual lies
    above the default tol (see `residual_floor`).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    phi, (history,) = _newton(rho.grid, rho.values[None], tol, max_iter)
    return PhiSolve(Field1D(rho.grid, _read_only(phi[0])), len(history) - 1, history[-1],
                    tuple(history))


# ---------------------------------------------------------------------------
# ion acoustic Hamiltonian system
# ---------------------------------------------------------------------------


def ion_operator() -> PoissonOperator:
    """Constant antisymmetric operator [[0, -dx], [-dx, 0]] on (rho, V)."""

    def apply(z: State, g: State) -> State:
        g_rho, g_v = g.parts
        return State("ion", (-1.0 * ddx1(g_v), -1.0 * ddx1(g_rho)))

    return PoissonOperator("J_ion", "ion", apply)


# The ion watchers' values are array kernels on rows of shape (m, n), one
# member per row (mass and momentum: integrate_rows, which integrate runs): a
# Functional's value is its kernel on one row, and `ion_diagnostics` runs all
# four kernels on a whole batch, so the two paths share every operation and
# their values are equal.


def _energies(grid: Grid1D, rho: np.ndarray, v: np.ndarray) -> list[float]:
    """H of each row pair (rho, V), from one closure solve and one rfft/irfft pair for dx phi.

    The density is formed in the order the Field arithmetic of H forms it,
    and dx phi with ddx1's symbol, so each value is bitwise the Field one.
    A non-finite density raises NonFiniteError, as a Field of it would.
    """
    phi = _closure(grid, rho)
    dphi = _spectral(grid, phi, 1j * workspace(grid).dk)
    density = rho * v * v * 0.5 + dphi * dphi * 0.5 + (phi - 1.0) * np.exp(phi)
    if not np.isfinite(density).all():
        raise NonFiniteError("field contains non-finite values")
    return integrate_rows(grid, density)


def _probes(grid: Grid1D, modes: tuple[int, ...]) -> np.ndarray:
    """cos(kappa x) for each mode number k of modes, kappa = wavenumber(k, l), shape
    (len(modes), n)."""
    x = grid.x()
    return np.array([np.cos(wavenumber(k, grid.l) * x) for k in modes])


def _mode_amplitudes(grid: Grid1D, rho: np.ndarray, modes: tuple[int, ...]) -> list[float]:
    """(2/L) int (rho - 1) cos(k x) dx for each row of rho and its mode k."""
    return [2.0 / grid.l * s for s in integrate_rows(grid, (rho - 1.0) * _probes(grid, modes))]


def ion_diagnostics(grid: Grid1D, rho: np.ndarray, v: np.ndarray,
                    modes: tuple[int, ...]) -> list[float]:
    """The `mode_watchers(k)` values of each member of rows rho, V (shape (m, n)), member by member.

    Row j is the member of mode modes[j].  One closure solve serves every
    member's energy, and each value equals its Functional's on that member
    alone.
    """
    columns = (_mode_amplitudes(grid, rho, modes), _energies(grid, rho, v),
               integrate_rows(grid, rho), integrate_rows(grid, v))
    return [value for member in zip(*columns) for value in member]


def ion_energy() -> Functional:
    """H = int [rho V^2/2 + (dx phi)^2/2 + (phi - 1) e^phi]; grad (V^2/2 + phi, rho V).

    The closure response contributes exactly phi to the density gradient,
    which the finite-difference harness verifies.  phi comes from
    `_closure`, so it is bitwise the phi ion_flow uses for the same density;
    a density with min <= 0 raises ValueError.
    """

    def value(z: State) -> float:
        rho, v = z.parts
        return _energies(rho.grid, rho.values[None], v.values[None])[0]

    def gradient(z: State) -> State:
        rho, v = z.parts
        phi = Field1D(rho.grid, _read_only(_closure(rho.grid, rho.values[None])[0]))
        return State("ion", (v * v * 0.5 + phi, rho * v))

    return Functional("ion_energy", value, gradient)


def total_mass() -> Functional:
    def value(z: State) -> float:
        return integrate(z.parts[0])

    def gradient(z: State) -> State:
        rho = z.parts[0]
        return State("ion", (Field1D.full(rho.grid, 1.0), Field1D.zeros(rho.grid)))

    return Functional("mass", value, gradient)


def momentum() -> Functional:
    def value(z: State) -> float:
        return integrate(z.parts[1])

    def gradient(z: State) -> State:
        rho = z.parts[0]
        return State("ion", (Field1D.zeros(rho.grid), Field1D.full(rho.grid, 1.0)))

    return Functional("momentum", value, gradient)


def _flow_symbols(ws: Workspace) -> np.ndarray:
    """ion_flow's symbols (-i k mask, -i k mask / 2, -i k), shape (3, 1, n // 2 + 1), read-only."""
    minus_dx = -1j * ws.dk
    return _read_only(np.array((minus_dx * ws.mask, 0.5 * minus_dx * ws.mask, minus_dx))[:, None])


def ion_flow(grid: Grid1D, rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(-dx(V rho), -dx(phi + V^2/2)) for rows rho, V of shape (..., n), stacked as (2, ..., n).

    The quadratic products are dealiased.  The rows (rho V, V^2, phi) of
    every member go through one stacked rfft and one stacked irfft, each
    with its own symbol (-i k mask, -i k mask / 2, -i k); the last two are
    summed afterwards.  phi comes from `_closure`, so each member's flow is
    bitwise the flow of that member alone.

    Aborts with DensityFloorError if min(rho) < 1e-6 in any member, before
    the closure is solved for a density at or near zero.  The closure is
    solved before any other arithmetic on rho, so a density holding a NaN or
    an infinity raises its NewtonError and no numpy warning.
    """
    above_floor(rho)
    shape = rho.shape
    rho, v = rho.reshape(-1, grid.n), v.reshape(-1, grid.n)
    phi = _closure(grid, rho)
    out = _spectral(grid, np.array((rho * v, v * v, phi)), workspace(grid).kept(_flow_symbols))
    out[1] += out[2]
    return out[:2].reshape((2, *shape))


def ion_rhs(z: State) -> State:
    """The ion flow (`ion_flow`) of one state."""
    rho, v = z.parts
    rho_dot, v_dot = _read_only(ion_flow(rho.grid, rho.values, v.values))
    return State("ion", (Field1D(rho.grid, rho_dot), Field1D(rho.grid, v_dot)))


def quiescent_state(grid: Grid1D) -> State:
    return ion_state(Field1D.full(grid, 1.0), Field1D.zeros(grid))


def random_ion_state(
    grid: Grid1D, kmax: int, rng: np.random.Generator, amplitude: float = 0.2
) -> State:
    rho = Field1D.full(grid, 1.0) + random_band_limited_1d(grid, kmax, rng, amplitude)
    v = random_band_limited_1d(grid, kmax, rng, amplitude)
    return ion_state(rho, v)


def acoustic_mode_state(grid: Grid1D, k: int, amplitude: float) -> State:
    """rho = 1 + a cos(kappa x), V = 0: the standing acoustic mode of mode number k,
    its cosine the one `_probes` gives the mode's amplitude watcher."""
    rho = Field1D(grid, 1.0 + amplitude * _probes(grid, (k,))[0])
    return ion_state(rho, Field1D.zeros(grid))


def acoustic_dispersion(k: float) -> float:
    """Linear-theory frequency k / sqrt(1 + k^2) of the Boltzmann-closed fluid, for the
    wavenumber k (`field_core.wavenumber` of a mode number)."""
    return k / math.sqrt(1.0 + k * k)


def mode_amplitude(k: int) -> Functional:
    """Watcher: (2/L) int (rho - 1) cos(k x) dx, the signed mode amplitude."""

    def value(z: State) -> float:
        rho = z.parts[0]
        return _mode_amplitudes(rho.grid, rho.values[None], (k,))[0]

    return Functional(f"mode_cos_{k}", value)


def mode_watchers(k: int) -> tuple[Functional, ...]:
    """Mode k's watchers, in the order `ion_diagnostics` gives their values:
    mode amplitude, energy, mass, momentum."""
    return mode_amplitude(k), ion_energy(), total_mass(), momentum()


# ---------------------------------------------------------------------------
# KdV on the irrotational leaf
# ---------------------------------------------------------------------------


def gardner_operator() -> PoissonOperator:
    """The constant operator dx underlying the Hamiltonian form of KdV."""

    def apply(z: State, g: State) -> State:
        return State("kdv", (ddx1(g.parts[0]),))

    return PoissonOperator("J_gardner", "kdv", apply)


def kdv_energy() -> Functional:
    """H_kdv = int(-w^3 + (dx w)^2 / 2); gradient -3 w^2 - d2x(w) (dealiased)."""

    def value(z: State) -> float:
        w = z.parts[0]
        dw = ddx1(w)
        return integrate(dw * dw * 0.5 - w * w * w)

    def gradient(z: State) -> State:
        w = z.parts[0]
        return State("kdv", (dealias(w * w) * -3.0 - ddx2(w),))

    return Functional("kdv_energy", value, gradient)


def kdv_mass() -> Functional:
    def value(z: State) -> float:
        return integrate(z.parts[0])

    def gradient(z: State) -> State:
        return State("kdv", (Field1D.full(z.parts[0].grid, 1.0),))

    return Functional("kdv_mass", value, gradient)


def kdv_momentum() -> Functional:
    def value(z: State) -> float:
        w = z.parts[0]
        return 0.5 * integrate(w * w)

    def gradient(z: State) -> State:
        return State("kdv", (z.parts[0],))

    return Functional("kdv_momentum", value, gradient)


def gardner_rhs(w: Field1D) -> Field1D:
    """dx of the KdV energy gradient: -6 w dx(w) - d3x(w)."""
    return -1.0 * ddx1(dealias(w * w) * 3.0) - ddx3(w)


def kdv_soliton(c: float, x0: float, grid: Grid1D) -> Field1D:
    """Traveling profile (c/2) sech^2(sqrt(c)(x - x0)/2), periodically wrapped.

    The wrap sums five shifted copies (shifts m l, m = -2..2) so the sampled
    function is a smooth periodic one, not a minimal-image kink.
    """
    if not c > 0:
        raise ValueError("soliton speed c must be positive")
    x = grid.x()
    v = np.zeros(grid.n)
    for m in range(-2, 3):
        arg = math.sqrt(c) * (x - x0 + m * grid.l) / 2.0
        v += 0.5 * c / np.cosh(arg) ** 2
    return Field1D(grid, v)


def kdv_invariants(w: Field1D) -> tuple[float, float, float]:
    """(int w, int w^2/2, H_kdv): the first three invariants of the flow."""
    z = kdv_state(w)
    return kdv_mass()(z), kdv_momentum()(z), kdv_energy()(z)


def _if_factors(ws: Workspace, dt: float):
    """The step's constants: e^(i k^3 dt/2), e^(i k^3 dt), 2 e^(i k^3 dt/2), -3i k mask;
    then its scratch: seven spectra and one grid row, written by every step.

    The step keeps them in its grid's workspace for one dt at a time.  The
    mask is folded into the nonlinear symbol: it is 1 + 0j or 0, so
    (-3i k mask) X equals -3i k (X mask) entry by entry.  Only the sign of an
    exact zero can differ (at k = 0 and on the dropped modes), and the step's
    output values are bitwise those of the unfolded form.  dt is not folded
    in: dt (s X) is not bitwise (dt s) X.
    """
    lk = 1j * ws.k**3  # (-d3x w)-hat = +i k^3 w-hat
    half = np.exp(lk * (dt / 2.0))
    spectra = [np.empty(ws.grid.n // 2 + 1, complex) for _ in range(7)]
    return (half, half * half, 2.0 * half, _read_only(-3j * ws.k * ws.mask),
            *spectra, np.empty(ws.grid.n))


def kdv_if_rk4_step(w: Field1D, dt: float) -> Field1D:
    """One integrating-factor RK4 step: exact linear propagator, RK4 nonlinearity.

    Every intermediate is written into the scratch kept with `_if_factors`,
    so a step allocates only its output, which is fresh.
    """
    n, ws = w.grid.n, workspace(w.grid)
    half, full, two_half, symbol, v, full_v, t, a, b, c, d, wv = ws.kept(_if_factors, dt)

    def nonlin(what: np.ndarray, out: np.ndarray) -> None:  # out = dt (symbol rfft(irfft(what)^2))
        np.fft.irfft(what, n=n, out=wv)
        np.multiply(wv, wv, out=wv)
        np.fft.rfft(wv, out=out)
        np.multiply(symbol, out, out=out)
        np.multiply(dt, out, out=out)

    # Each line is the expression in its comment, with every product's
    # operands in that order: a complex a * b and b * a can differ in their
    # last bit (numpy's SIMD complex loops), so X *= s would change the step's
    # bits where s * X does not.  Sums and products by a real scalar commute
    # exactly.
    np.multiply(np.fft.rfft(w.values, out=v), ws.mask, out=v)  # v = rfft(w) * mask
    np.multiply(full, v, out=full_v)  # full_v = full * v
    nonlin(v, a)  # a = dt N(v)
    np.multiply(0.5, a, out=t)
    np.add(v, t, out=t)
    nonlin(np.multiply(half, t, out=t), b)  # b = dt N(half * (v + 0.5 * a))
    np.multiply(half, v, out=t)
    np.add(t, np.multiply(0.5, b, out=d), out=t)
    nonlin(t, c)  # c = dt N(half * v + 0.5 * b)
    np.add(full_v, np.multiply(half, c, out=t), out=t)
    nonlin(t, d)  # d = dt N(full_v + half * c)
    np.multiply(full, a, out=a)
    np.multiply(two_half, np.add(b, c, out=b), out=b)
    np.add(np.add(a, b, out=a), d, out=a)
    np.add(full_v, np.divide(a, 6.0, out=a), out=a)  # full_v + (full a + two_half (b + c) + d) / 6
    return Field1D(w.grid, _read_only(np.fft.irfft(a, n=n)))
