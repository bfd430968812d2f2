"""The two-dimensional singular example: J = x * Jc on R^2.

The plane x = 0 is a rank-dropping singularity.  The kernel of J is spanned
by delta(x) e_x and delta(x) e_y; the first integrates to the step function
Y(x) (an exterior Casimir with the single leaf x = 0), the second is not a
closed 1-form and yields no Casimir at all.  Numerically the delta is
regularized as a unit-mass Gaussian of width eps and Y as an erf step, and
closedness is tested by sampling the curl on a window.

Also here: the deliberately non-Jacobi 3D operator used to show that the
finite-difference cyclic sum actually detects violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import Trajectory
from .field_core import NonFiniteError
from .poisson import Functional, PoissonOperator, State


def finite_state(x: float, y: float) -> State:
    return State("finite", (np.array([float(x), float(y)]),))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def canonical_operator() -> PoissonOperator:
    """Constant symplectic Jc on R^2: g -> (g_y, -g_x)."""

    def apply(z: State, g: State) -> State:
        gv = g.parts[0]
        return State("finite", (np.array([gv[1], -gv[0]]),))

    return PoissonOperator("Jc", "finite", apply)


def x_scaled_canonical_operator() -> PoissonOperator:
    """J = x * Jc; rank drops to zero on the plane x = 0."""

    def apply(z: State, g: State) -> State:
        x = z.parts[0][0]
        gv = g.parts[0]
        return State("finite", (np.array([x * gv[1], -x * gv[0]]),))

    return PoissonOperator("x*Jc", "finite", apply)


def _antisym3(j12, j23, j31) -> Callable[[State, State], State]:
    def apply(z: State, g: State) -> State:
        p = z.parts[0]
        a, b, c = j12(p), j23(p), j31(p)
        M = np.array([[0.0, a, -c], [-a, 0.0, b], [c, -b, 0.0]])
        return State("finite", (M @ g.parts[0],))

    return apply


def so3_operator() -> PoissonOperator:
    """Rigid-body type operator J12 = z3, J23 = z1, J31 = z2 (satisfies Jacobi)."""
    return PoissonOperator(
        "so3", "finite", _antisym3(lambda p: p[2], lambda p: p[0], lambda p: p[1])
    )


def broken_so3_operator() -> PoissonOperator:
    """so(3)-type operator with one entry squared: J23 = z2^2.

    Its Jacobiator on coordinate functions is 2 * z2 * z3, nonzero at generic
    points, so the finite-difference cyclic sum must flag it.
    """
    return PoissonOperator(
        "so3-broken", "finite", _antisym3(lambda p: p[2], lambda p: p[1] ** 2, lambda p: p[1])
    )


# ---------------------------------------------------------------------------
# Hamiltonians and dynamics on the singular plane's ambient space
# ---------------------------------------------------------------------------


def _poly_value(c: np.ndarray, x, y):
    return (
        c[0]
        + c[1] * x
        + c[2] * y
        + c[3] * x * x
        + c[4] * x * y
        + c[5] * y * y
        + c[6] * x**3
        + c[7] * x * x * y
        + c[8] * x * y * y
        + c[9] * y**3
    )


# The gradient of a cubic has the monomials 1, x, y, x^2, xy, y^2.  Indices
# into the point (x, y): the first factor of each non-constant monomial, then
# the second factor of the three quadratic ones.
_FACTORS = np.array([0, 1, 0, 0, 1, 0, 1, 1])


def _cubic_rows(coeffs) -> np.ndarray:
    """The gradient's rows (dH/dx, dH/dy), one per monomial: shape (6, 2) or (6, 2, m)."""
    c = np.asarray(coeffs, dtype=float)
    return np.array([
        [c[1], c[2]],
        [2 * c[3], c[4]],
        [c[4], 2 * c[5]],
        [3 * c[6], c[7]],
        [2 * c[7], 2 * c[8]],
        [c[8], 3 * c[9]],
    ])


def _polynomial(rows: np.ndarray):
    """p -> sum over i of rows[i] times the i-th monomial at p = (x, y) (shape (2,) or (2, m)).

    The six terms are summed along axis 0, which adds left to right, so each
    entry rounds exactly as the expanded derivative written out term by term.
    The factors are gathered with take, the same rows as p[_FACTORS] for less
    per-call overhead: _FACTORS holds only 0 and 1, so mode="wrap" gathers
    what the default mode does, without the buffered copy the default mode
    makes of an out array.  The gathered factors and the terms are written
    into scratch allocated here, once, and overwritten by every call; each
    call returns a fresh sum.
    """
    const, coeff = rows[0], rows[1:]
    f = np.empty((8, *rows.shape[2:]))
    t = np.empty(coeff.shape)
    linear, quadratic, first, second = f[:5, None], f[5:, None], t[0], t[2:]

    def evaluate(p):
        p.take(_FACTORS, axis=0, out=f, mode="wrap")
        np.multiply(coeff, linear, out=t)  # the rows of x, y, x^2, xy, y^2 times x, y, x, x, y
        np.multiply(second, quadratic, out=second)  # ... and the quadratic ones times x, y, y
        np.add(first, const, out=first)  # const + x term, as addition commutes exactly
        return np.add.reduce(t, axis=0)

    return evaluate


def cubic_functional(coeffs, label: str = "cubic") -> Functional:
    """Polynomial of degree <= 3 on R^2 with analytic gradient.

    Coefficient order: 1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (10,):
        raise ValueError("cubic_functional needs 10 coefficients")

    grad = _polynomial(_cubic_rows(c))

    def value(z: State) -> float:
        x, y = z.parts[0]
        return float(_poly_value(c, x, y))

    def gradient(z: State) -> State:
        return State("finite", (grad(z.parts[0]),))

    return Functional(label, value, gradient)


def coordinate_functional(i: int, dim: int = 3) -> Functional:
    """The coordinate function z_i on R^dim."""

    def value(z: State) -> float:
        return float(z.parts[0][i])

    def gradient(z: State) -> State:
        g = np.zeros(dim)
        g[i] = 1.0
        return State("finite", (g,))

    return Functional(f"z{i + 1}", value, gradient)


def fd_rhs(z: State, H: Functional) -> State:
    """Flow of J = x * Jc: (x * dH/dy, -x * dH/dx).

    The first component vanishes identically at x = 0, so the singular plane
    is exactly invariant and sign(x) is conserved for every Hamiltonian.
    """
    return x_scaled_canonical_operator().apply(z, H.gradient(z))


def simulate_plane_orbits(
    coeffs: np.ndarray, z0: np.ndarray, t_end: float, dt: float
) -> dict:
    """RK4-integrate a batch of orbits of J = x * Jc with cubic Hamiltonians.

    coeffs: (10, m) per-orbit cubic coefficients; z0: (2, m) initial points.
    The batch steps as one (2, m) array through dynamics.Trajectory, so a
    blow-up is an IntegrationError naming its step.  Returns per-orbit
    summary arrays: sign conservation, the signed extremes of x(t) (for
    step-function drift bounds), and final points.
    """
    # the rows of (dH/dy, -dH/dx): negation is exact, so each entry is bitwise
    # the old grad[::-1] * (1, -1) (but for the sign of an exactly zero sum)
    flow = _polynomial(_cubic_rows(coeffs)[:, ::-1] * np.array([[1.0], [-1.0]]))
    z = np.array(z0, dtype=float)
    if np.any(z[0] == 0.0):
        raise ValueError("orbits must start off the singular plane x = 0")
    s0 = np.sign(z[0])
    xs_min = xs_max = s0 * z[0]

    def rhs(zv):  # (x dH/dy, -x dH/dx), scaled in place: the product commutes exactly
        out = flow(zv)
        out *= zv[0]
        return out

    # sampled at t = 0 and t_end only; it heads a failed run's partial series
    least = Functional("min_signed_x", lambda zv: float(np.min(s0 * zv[0])))
    run = Trajectory(dt, rhs, z, t_end, [least], output_every=t_end)
    for zv in run:
        xs = s0 * zv[0]
        xs_min = np.minimum(xs_min, xs)
        xs_max = np.maximum(xs_max, xs)

    return {
        "x0": z[0],
        "sign_ok": xs_min > 0.0,
        "x_min_signed": xs_min,
        "x_max_signed": xs_max,
        "final": run.state,
    }


# ---------------------------------------------------------------------------
# regularized kernel basis, closedness, exterior Casimir
# ---------------------------------------------------------------------------


def gaussian_bump(x, eps: float):
    """Unit-mass Gaussian of width eps: exp(-(x/eps)^2) / (eps sqrt(pi))."""
    x = np.asarray(x, dtype=float)
    return np.exp(-((x / eps) ** 2)) / (eps * math.sqrt(math.pi))


@dataclass(frozen=True)
class OneForm2:
    """A 1-form wx dx + wy dy given by two callables of (X, Y) arrays.

    The callables are evaluated pointwise: closedness_residual calls them on
    blocks of rows of its window, so each must compute an element from the
    same element of X and Y alone.
    """

    label: str
    wx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    wy: Callable[[np.ndarray, np.ndarray], np.ndarray]


def kernel_basis_regularized(eps: float) -> tuple[OneForm2, OneForm2]:
    """Regularized kernel basis of J = x * Jc: (delta_eps(x), 0) and (0, delta_eps(x))."""
    if not eps > 0:
        raise ValueError("eps must be positive")

    def bump_x(X, Y):
        return gaussian_bump(X, eps) + 0.0 * Y

    def zero(X, Y):
        return np.zeros_like(X)

    nu_x = OneForm2(f"nu_x(eps={eps:g})", bump_x, zero)
    nu_y = OneForm2(f"nu_y(eps={eps:g})", zero, bump_x)
    return nu_x, nu_y


def apply_scaled_canonical_to_form(form: OneForm2, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise x * Jc applied to the covector field: (x wy, -x wx)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return X * form.wy(X, Y), -X * form.wx(X, Y)


# interior rows per block of closedness_residual's window: 34 rows of 401
# points make about 107 KiB per array
_CURL_ROWS = 32


def closedness_residual(
    w: OneForm2,
    window: tuple[tuple[float, float], tuple[float, float]] = ((-2.0, 2.0), (-2.0, 2.0)),
) -> float:
    """max |d(wy)/dx - d(wx)/dy| on the window, central differences on 401 x 401 points.

    Zero (to FD accuracy) iff w is closed there, i.e. locally a gradient and
    hence integrable to a Casimir candidate.  The window is walked in blocks
    of _CURL_ROWS interior rows, each evaluated with one halo row on either
    side, so every curl element is the whole-window arithmetic on the same
    inputs; np.maximum keeps a NaN, as np.max over the whole curl would.
    """
    (x0, x1), (y0, y1) = window
    if not (x1 > x0 and y1 > y0):
        raise ValueError("degenerate evaluation window")
    xs = np.linspace(x0, x1, 401)
    ys = np.linspace(y0, y1, 401)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    peak = -np.inf
    for start in range(1, ys.size - 1, _CURL_ROWS):
        stop = min(start + _CURL_ROWS, ys.size - 1)
        X, Y = np.meshgrid(xs, ys[start - 1 : stop + 1], indexing="xy")
        WX = np.asarray(w.wx(X, Y), dtype=float)
        WY = np.asarray(w.wy(X, Y), dtype=float)
        if not (np.all(np.isfinite(WX)) and np.all(np.isfinite(WY))):
            raise NonFiniteError(f"one-form {w.label} is not finite on the window")
        curl = (WY[1:-1, 2:] - WY[1:-1, :-2]) / (2.0 * hx) - (
            WX[2:, 1:-1] - WX[:-2, 1:-1]
        ) / (2.0 * hy)
        peak = np.maximum(peak, np.max(np.abs(curl)))
    return float(peak)


def smoothed_step(x, eps: float):
    """Y_eps(x) = (1 + erf(x / eps)) / 2, the erf regularization of the step."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / eps))


def exterior_casimir_fd(z: State, eps: float) -> float:
    """Smoothed exterior Casimir Y_eps(x) of the point z = (x, y)."""
    return float(smoothed_step(z.parts[0][0], eps))
