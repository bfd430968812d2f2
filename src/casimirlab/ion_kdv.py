"""Ion acoustic dynamics in one space dimension and the KdV reduction.

The ion fluid (density rho > 0, velocity V) closes with a Boltzmann electron
response through the nonlinear Poisson equation

    -d2x(phi) = rho - exp(phi),

solved for phi = Phi(rho) by Newton iteration with FFT-preconditioned
conjugate-gradient linear steps (two FFT calls per CG iteration).  With m
the mean density, L = k^2 + m and phi1 = L^-1(rho - m), `solve_phi` starts
from the solution of the linearized equation, ln(m) + phi1.  The flow's
closure starts a density with max|phi1| <= PHI1_BOUND from the next term of
the perturbation series, ln(m) + phi1 - L^-1(m phi1^2 / 2): one chord step
with the Jacobian frozen at m, where the FFT preconditioner is exact.  That
guess already meets the tolerance, so at small amplitude the flow takes no
Newton step; a larger density starts from ln(m) + phi1.  The ion_energy
watcher solves through the same closure, so its phi is bitwise the flow's
for the same density.  The flow is

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
from functools import lru_cache

import numpy as np

from .field_core import (
    Field1D,
    Grid1D,
    NumericalFailure,
    _read_only,
    _spectral,
    dealias,
    ddx1,
    ddx2,
    ddx3,
    integrate,
    random_band_limited_1d,
    workspace1d,
)
from .poisson import Functional, PoissonOperator, State

RHO_FLOOR = 1e-6
PHI_TOL = 1e-12  # solve_phi's default bound on max|residual|
PHI_MAX_ITER = 25  # solve_phi's default limit on Newton steps
# ion_flow starts a row from the second-order guess (see `_newton`) when its
# max|phi1| is at most PHI1_BOUND.  That guess leaves a residual of about
# (2/3) m max|phi1|^3 at most (mean density m), under PHI_TOL here for m near 1.
# Measured on 675 densities (modes 1, 2, 5 and random kmax 2, 6 states at 25
# amplitudes from 1e-5 to 0.5, on grids n = 128, 256, 512): the residual was at
# most 0.26 max|phi1|^3 and met PHI_TOL at the start on every row below 1.5e-4,
# on 14 of 17 rows in [1.5e-4, 2e-4) and on none above 3e-4.  A row that misses
# takes its Newton step anyway, and from a smaller residual the forcing term asks
# CG for more iterations: with every row on the second-order guess, one ion_rhs
# at n = 128 took 0.55x its time from the first-order guess on rows that met
# PHI_TOL at the start, but 1.21x to 1.27x on 10 of the 24 rows measured above
# 1e-4 (max|phi1| up to 0.25): those where it left the Newton step count unchanged.
PHI1_BOUND = 1e-4


class NewtonError(NumericalFailure):
    """Newton iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DensityFloorError(NumericalFailure):
    """Density dropped below the positivity floor during evolution."""


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
    bound is dropped from the working set, so each row's x is bitwise the x
    of solving that row alone.
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
            out[live[met]] = x[met]
            keep = ~met
            live, atol, e, symbols = live[keep], atol[keep], e[keep], symbols[:, keep]
            x, r, p, k2p, rz = x[keep], r[keep], p[keep], k2p[keep], rz[keep]
        ap = k2p + e * p
        alpha = rz / np.vecdot(p, ap, keepdims=True)
        x += alpha * p
        r -= alpha * ap
        z, k2z = np.fft.irfft(symbols * np.fft.rfft(r), n=n)
        rz, rz_old = np.vecdot(r, z, keepdims=True), rz
        beta = rz / rz_old
        p = z + beta * p
        k2p = k2z + beta * k2p
    if x is not out:
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
    k_max = math.pi * grid.n / grid.l
    kappa = 2.0 * math.pi * k / grid.l
    return 0.5 * sys.float_info.epsilon * (k_max * k_max) * amplitude / (1.0 + kappa * kappa)


def _newton(grid: Grid1D, rho: np.ndarray, tol: float, max_iter: int, *,
            phi1_bound: float | None = None):
    """Newton rows of solve_phi: phi for each row of rho (shape (m, n)) and each row's history.

    Each row starts from the first-order guess ln(m) + phi1, with m the
    row's mean, L = k^2 + m and phi1 = L^-1(rho - m).  Given phi1_bound,
    a row with max|phi1| <= phi1_bound starts from the second-order guess
    ln(m) + phi1 - L^-1(m phi1^2 / 2) instead, whose residual is O(phi1^3)
    rather than O(phi1^2); the choice is made per row, from that row alone.
    A row whose residual is at most tol is dropped from the working set, so
    its phi and history are bitwise those of solving that row alone.  Raises
    NewtonError for the first row (in row order) that meets a non-finite
    residual or is not converged after max_iter steps.
    """
    k2 = workspace1d(grid).k2
    mean = np.add.reduce(rho, axis=-1, keepdims=True) / grid.n  # what rho.mean(axis=-1) computes
    lin = k2 + mean
    phi1 = np.fft.irfft(np.fft.rfft(rho - mean) / lin, n=grid.n)
    phi = np.log(mean) + phi1
    if phi1_bound is not None:
        near = np.abs(phi1).max(axis=-1) <= phi1_bound
        if near.any():
            quad = 0.5 * mean[near] * phi1[near] ** 2
            phi[near] -= np.fft.irfft(np.fft.rfft(quad) / lin[near], n=grid.n)
    histories = [[] for _ in range(rho.shape[0])]
    live = np.arange(rho.shape[0])  # the rows still iterating, in phi and rho
    out = phi  # phi0's buffer takes each row's phi once that row has converged
    for it in range(max_iter + 1):
        neg_d2 = np.fft.irfft(k2 * np.fft.rfft(phi.astype(np.longdouble)), n=grid.n)
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
            if live.size == len(out):  # no row converged earlier: phi holds every row
                return phi, histories
            out[live] = phi
            return out, histories
        if n_met:
            out[live[met]] = phi[met]
            keep = ~met
            live, phi, rho, e = live[keep], phi[keep], rho[keep], e[keep]
            residual, res = residual[keep], res[keep]
        if it == max_iter:
            break
        phi = phi + _pcg(k2, e, -residual, np.minimum(0.1, res) * res)
    raise NewtonError(
        f"no convergence to {tol:g} within {max_iter} iterations",
        histories[live[0]][-1], max_iter,
    )


def _closure(grid: Grid1D, rho: np.ndarray) -> np.ndarray:
    """The flow's phi for each row of rho (shape (m, n)): `_newton` to PHI_TOL, with PHI1_BOUND."""
    return _newton(grid, rho, PHI_TOL, PHI_MAX_ITER, phi1_bound=PHI1_BOUND)[0]


def solve_phi(rho: Field1D, tol: float = PHI_TOL, max_iter: int = PHI_MAX_ITER) -> PhiSolve:
    """Solve -d2x(phi) + exp(phi) = rho by Newton iteration.

    The initial guess is the solution of the equation linearized about the
    mean density m, phi0 = ln(m) + irfft(rfft(rho - m) / (k^2 + m)): exact
    for constant density, and within O((rho - m)^2) of phi otherwise, so a
    small-amplitude density converges in one Newton step.
    Each Newton step solves with the symmetric positive definite Jacobian
    -d2x + diag(exp(phi)) by FFT-preconditioned conjugate gradients
    (`_pcg`), stopped by the forcing term max|r| <= min(0.1, res) * res,
    which keeps the contraction quadratic.  The residual is recomputed from
    phi at every iteration, never updated, so the reported residual is the
    true one.  Its spectral d2x runs in long double: float64 transforms
    raise the residual's rounding floor about twofold (to ~1e-13 at
    n = 256), too high for the contraction r1 <= 10 r0^2 to hold from
    r0 ~ 1e-7.
    This is the one-row call of the Newton loop that `ion_flow` runs on a
    stack of densities (`_newton`); each row of a stack started from this
    first-order guess gets bitwise the phi this returns for it.  The flow
    and the ion_energy watcher start a small-amplitude row from the
    second-order guess instead (see PHI1_BOUND), so their phi there agrees
    with this one to within the tolerance, not bitwise.
    Raises NewtonError (carrying the last residual) if the residual is not
    at most tol within max_iter steps.  On fine grids the float64 rounding
    floor of the residual lies above the default tol (see `residual_floor`).
    """
    if np.min(rho.values) <= 0.0:
        raise ValueError("solve_phi requires rho > 0 everywhere")
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


def ion_energy() -> Functional:
    """H = int [rho V^2/2 + (dx phi)^2/2 + (phi - 1) e^phi]; grad (V^2/2 + phi, rho V).

    The closure response contributes exactly phi to the density gradient,
    which the finite-difference harness verifies.  phi comes from the flow's
    closure, so it is bitwise the phi ion_flow uses for the same density; a
    density with min <= 0 raises ValueError, as in solve_phi.
    """

    def potential(rho: Field1D) -> Field1D:
        if np.min(rho.values) <= 0.0:
            raise ValueError("solve_phi requires rho > 0 everywhere")
        return Field1D(rho.grid, _read_only(_closure(rho.grid, rho.values[None])[0]))

    def value(z: State) -> float:
        rho, v = z.parts
        phi = potential(rho)
        dphi = ddx1(phi)
        internal = Field1D(rho.grid, (phi.values - 1.0) * np.exp(phi.values))
        return integrate(rho * v * v * 0.5 + dphi * dphi * 0.5 + internal)

    def gradient(z: State) -> State:
        rho, v = z.parts
        return State("ion", (v * v * 0.5 + potential(rho), rho * v))

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


@lru_cache(maxsize=None)
def _flow_symbols(grid: Grid1D) -> np.ndarray:
    """ion_flow's symbols (-i k mask, -i k mask / 2, -i k), shape (3, 1, n // 2 + 1), read-only."""
    ws = workspace1d(grid)
    minus_dx = -1j * ws.dk
    return _read_only(np.array((minus_dx * ws.mask, 0.5 * minus_dx * ws.mask, minus_dx))[:, None])


def ion_flow(grid: Grid1D, rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(-dx(V rho), -dx(phi + V^2/2)) for rows rho, V of shape (..., n), stacked as (2, ..., n).

    The quadratic products are dealiased.  The rows (rho V, V^2, phi) of
    every member go through one stacked rfft and one stacked irfft, each
    with its own symbol (-i k mask, -i k mask / 2, -i k); the last two are
    summed afterwards.  phi comes from the Newton rows of solve_phi, so each
    member's flow is bitwise the flow of that member alone.  A member with
    max|phi1| <= PHI1_BOUND starts Newton from the second-order guess (see
    `_newton`), which at small amplitude meets PHI_TOL with no Newton step;
    the others start from solve_phi's first-order guess.

    Aborts with DensityFloorError if min(rho) < 1e-6 in any member, before
    the closure is solved for a density at or near zero.
    """
    low = float(np.min(rho))
    if low < RHO_FLOOR:
        raise DensityFloorError(f"min(rho) = {low:.3e} below floor {RHO_FLOOR:g}")
    shape = rho.shape
    rho, v = rho.reshape(-1, grid.n), v.reshape(-1, grid.n)
    (out,) = _spectral(grid, np.array((rho * v, v * v, _closure(grid, rho))), _flow_symbols(grid))
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
    """rho = 1 + a cos(k x), V = 0: a standing acoustic mode of wavenumber k."""
    x = grid.x()
    kk = 2.0 * math.pi * k / grid.l
    rho = Field1D(grid, 1.0 + amplitude * np.cos(kk * x))
    return ion_state(rho, Field1D.zeros(grid))


def acoustic_dispersion(k: float) -> float:
    """Linear-theory frequency k / sqrt(1 + k^2) of the Boltzmann-closed fluid."""
    return k / math.sqrt(1.0 + k * k)


def mode_amplitude(k: int) -> Functional:
    """Watcher: (2/L) int (rho - 1) cos(k x) dx, the signed mode amplitude."""

    def value(z: State) -> float:
        rho = z.parts[0]
        x = rho.grid.x()
        kk = 2.0 * math.pi * k / rho.grid.l
        probe = Field1D(rho.grid, np.cos(kk * x))
        return 2.0 / rho.grid.l * integrate((rho - Field1D.full(rho.grid, 1.0)) * probe)

    return Functional(f"mode_cos_{k}", value)


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


@lru_cache(maxsize=None)
def _if_factors(grid: Grid1D, dt: float):
    """The step's constants: e^(i k^3 dt/2), e^(i k^3 dt), 2 e^(i k^3 dt/2), -3i k, workspace."""
    ws = workspace1d(grid)
    lk = 1j * ws.k**3  # (-d3x w)-hat = +i k^3 w-hat
    half = np.exp(lk * (dt / 2.0))
    return half, half * half, 2.0 * half, -3j * ws.k, ws


def kdv_if_rk4_step(w: Field1D, dt: float) -> Field1D:
    """One integrating-factor RK4 step: exact linear propagator, RK4 nonlinearity."""
    half, full, two_half, minus_3ik, ws = _if_factors(w.grid, dt)

    def nonlin(what: np.ndarray) -> np.ndarray:
        wv = np.fft.irfft(what, n=w.grid.n)
        return minus_3ik * (np.fft.rfft(wv * wv) * ws.mask)

    v = np.fft.rfft(w.values) * ws.mask
    full_v = full * v
    a = dt * nonlin(v)
    b = dt * nonlin(half * (v + 0.5 * a))
    c = dt * nonlin(half * v + 0.5 * b)
    d = dt * nonlin(full_v + half * c)
    v_new = full_v + (full * a + two_half * (b + c) + d) / 6.0
    return Field1D(w.grid, _read_only(np.fft.irfft(v_new, n=w.grid.n)))
