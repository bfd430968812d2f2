"""Periodic uniform grids and the spectral calculus shared by all field systems.

Conventions
-----------
* 2D fields live on a uniform periodic grid over [0, lx) x [0, ly) with no
  duplicated endpoint.  Values are stored row-major by y then x, i.e.
  ``values[j, i] = f(x_i, y_j)`` with shape ``(ny, nx)``.
* Derivatives, the Laplacian and its inverse are spectral: exact on resolved
  Fourier modes (rfft along x, full fft along y).
* The canonical bracket [a, b] = dy(a) dx(b) - dx(a) dy(b) is evaluated
  pseudo-spectrally and the product is projected back onto the 2/3-rule mode
  set (Galerkin truncation).  For band-limited inputs this makes the
  quadratic pairings integrate(a * [a, b]) and integrate(b * [a, b]) exact to
  rounding, which every invariant-drift test downstream relies on.
* invert_laplacian fixes the k = 0 mode to zero (zero-mean gauge on the
  torus); a constant shift of a stream function never changes a bracket.
* integrate() uses compensated fixed-order summation (math.fsum), so the
  value is the correctly rounded sum of the samples: repeated runs are
  bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


class NumericalFailure(RuntimeError):
    """A computation left the finite numbers or failed to converge.

    The input was valid and the run went wrong: the CLI turns these into a
    failure record and exit status 1, not a configuration error.
    """


class BlowupError(NumericalFailure):
    """A time step produced non-finite values."""


class FieldError(ValueError):
    """Invalid field data (non-finite values, bad shape, bad grid)."""


class NonFiniteError(FieldError, NumericalFailure):
    """Values that must be finite are not: the data of a field, or a computed residual."""


class GridMismatchError(FieldError):
    """Two fields were combined that do not share one grid."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on [0, lx) x [0, ly); nx, ny even and >= 8."""

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self):
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if n < 8 or n % 2 != 0:
                raise FieldError(f"{name} must be even and >= 8, got {n}")
        if not (self.lx > 0 and self.ly > 0):
            raise FieldError("domain lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """X, Y arrays of shape (ny, nx) matching the field storage order."""
        return np.meshgrid(self.x(), self.y(), indexing="xy")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, l); n even and >= 8."""

    n: int
    l: float = TWO_PI

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise FieldError(f"n must be even and >= 8, got {self.n}")
        if not self.l > 0:
            raise FieldError("domain length must be positive")

    @property
    def dx(self) -> float:
        return self.l / self.n

    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


# ---------------------------------------------------------------------------
# spectral workspaces (wavenumbers, dealiasing masks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralWorkspace2D:
    kx: np.ndarray        # physical wavenumbers, rfft layout, shape (1, nx//2+1)
    ky: np.ndarray        # shape (ny, 1)
    dkx: np.ndarray       # derivative wavenumbers, Nyquist zeroed
    dky: np.ndarray
    k2: np.ndarray        # kx^2 + ky^2
    inv_neg_k2: np.ndarray  # -1/k2 with the k = 0 entry set to 0
    mask: np.ndarray      # 2/3-rule dealiasing mask (True = keep)


@lru_cache(maxsize=None)
def workspace2d(grid: Grid2D) -> SpectralWorkspace2D:
    nx, ny = grid.nx, grid.ny
    ix = np.arange(nx // 2 + 1)                       # rfft mode indices
    iy = np.rint(np.fft.fftfreq(ny) * ny).astype(int)
    kx = (TWO_PI / grid.lx) * ix[None, :]
    ky = (TWO_PI / grid.ly) * iy[:, None].astype(float)
    dkx = kx.copy()
    dkx[0, -1] = 0.0                                  # Nyquist has no odd derivative
    dky = ky.copy()
    dky[ny // 2, 0] = 0.0
    k2 = kx**2 + ky**2
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = -1.0 / k2[nz]
    mask = (ix[None, :] <= nx // 3) & (np.abs(iy)[:, None] <= ny // 3)
    return SpectralWorkspace2D(kx, ky, dkx, dky, k2, inv, mask)


@dataclass(frozen=True, eq=False)
class SpectralWorkspace1D:
    k: np.ndarray         # physical wavenumbers, rfft layout
    dk: np.ndarray        # Nyquist zeroed
    mask: np.ndarray


@lru_cache(maxsize=None)
def workspace1d(grid: Grid1D) -> SpectralWorkspace1D:
    n = grid.n
    ix = np.arange(n // 2 + 1)
    k = (TWO_PI / grid.l) * ix.astype(float)
    dk = k.copy()
    dk[-1] = 0.0
    mask = ix <= n // 3
    return SpectralWorkspace1D(k, dk, mask)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class _FieldOps:
    """Vector-space arithmetic shared by Field2D and Field1D."""

    __slots__ = ()

    def _like(self, values):
        return type(self)(self.grid, values)

    def _check(self, other):
        if self.grid != other.grid:
            raise GridMismatchError(
                f"fields on different grids: {self.grid} vs {other.grid}"
            )

    def __add__(self, other):
        self._check(other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return self._like(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._like(self.values * other.values)
        return self._like(self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class Field2D(_FieldOps):
    """Real scalar field on a Grid2D; all values finite."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise FieldError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zeros(grid: Grid2D) -> "Field2D":
        return Field2D(grid, np.zeros(grid.shape))

    @staticmethod
    def full(grid: Grid2D, value: float) -> "Field2D":
        return Field2D(grid, np.full(grid.shape, float(value)))

    @staticmethod
    def from_function(grid: Grid2D, fn) -> "Field2D":
        X, Y = grid.meshgrid()
        return Field2D(grid, np.asarray(fn(X, Y), dtype=float))


@dataclass(frozen=True, eq=False)
class Field1D(_FieldOps):
    """Real scalar field on a Grid1D; all values finite."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise FieldError(f"values shape {v.shape} != ({self.grid.n},)")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zeros(grid: Grid1D) -> "Field1D":
        return Field1D(grid, np.zeros(grid.n))

    @staticmethod
    def full(grid: Grid1D, value: float) -> "Field1D":
        return Field1D(grid, np.full(grid.n, float(value)))

    @staticmethod
    def from_function(grid: Grid1D, fn) -> "Field1D":
        return Field1D(grid, np.asarray(fn(grid.x()), dtype=float))


# ---------------------------------------------------------------------------
# 2D spectral operators
# ---------------------------------------------------------------------------


def _rfft2(f: Field2D) -> np.ndarray:
    return np.fft.rfft2(f.values)


def _irfft2(grid: Grid2D, hat: np.ndarray) -> np.ndarray:
    return np.fft.irfft2(hat, s=grid.shape)


def ddx(f: Field2D) -> Field2D:
    ws = workspace2d(f.grid)
    return Field2D(f.grid, _irfft2(f.grid, 1j * ws.dkx * _rfft2(f)))


def ddy(f: Field2D) -> Field2D:
    ws = workspace2d(f.grid)
    return Field2D(f.grid, _irfft2(f.grid, 1j * ws.dky * _rfft2(f)))


def laplacian(f: Field2D) -> Field2D:
    ws = workspace2d(f.grid)
    return Field2D(f.grid, _irfft2(f.grid, -ws.k2 * _rfft2(f)))


def invert_laplacian(f: Field2D) -> Field2D:
    """Solve lap(u) = f - mean(f) with mean(u) = 0 (zero-mean gauge)."""
    ws = workspace2d(f.grid)
    return Field2D(f.grid, _irfft2(f.grid, ws.inv_neg_k2 * _rfft2(f)))


def dealias(f: Field2D | Field1D):
    """Project onto the 2/3-rule mode set (modes with |k| > n/3 zeroed)."""
    if isinstance(f, Field1D):
        ws1 = workspace1d(f.grid)
        return Field1D(f.grid, np.fft.irfft(np.fft.rfft(f.values) * ws1.mask, n=f.grid.n))
    ws = workspace2d(f.grid)
    return Field2D(f.grid, _irfft2(f.grid, _rfft2(f) * ws.mask))


def bracket2d(a: Field2D, b: Field2D) -> Field2D:
    """Canonical bracket [a, b] = dy(a) dx(b) - dx(a) dy(b), dealiased.

    Derivatives are spectral, the products pointwise, and the result is
    projected back onto the 2/3-rule mode set, so for inputs supported on
    that set this is the exact Galerkin truncation of the bracket.
    Antisymmetric by construction.
    """
    if a.grid != b.grid:
        raise GridMismatchError("bracket2d requires one shared grid")
    grid = a.grid
    if not a.values.any() or not b.values.any():
        return Field2D.zeros(grid)  # [a, 0] = 0 exactly
    ws = workspace2d(grid)
    ahat = _rfft2(a)
    bhat = _rfft2(b)
    a_x = _irfft2(grid, 1j * ws.dkx * ahat)
    a_y = _irfft2(grid, 1j * ws.dky * ahat)
    b_x = _irfft2(grid, 1j * ws.dkx * bhat)
    b_y = _irfft2(grid, 1j * ws.dky * bhat)
    prod = a_y * b_x - a_x * b_y
    return Field2D(grid, _irfft2(grid, np.fft.rfft2(prod) * ws.mask))


# ---------------------------------------------------------------------------
# 1D spectral operators
# ---------------------------------------------------------------------------


def _rfft1(f: Field1D) -> np.ndarray:
    return np.fft.rfft(f.values)


def _irfft1(grid: Grid1D, hat: np.ndarray) -> np.ndarray:
    return np.fft.irfft(hat, n=grid.n)


def ddx1(f: Field1D) -> Field1D:
    ws = workspace1d(f.grid)
    return Field1D(f.grid, _irfft1(f.grid, 1j * ws.dk * _rfft1(f)))


def ddx2(f: Field1D) -> Field1D:
    ws = workspace1d(f.grid)
    return Field1D(f.grid, _irfft1(f.grid, -(ws.k**2) * _rfft1(f)))


def ddx3(f: Field1D) -> Field1D:
    ws = workspace1d(f.grid)
    return Field1D(f.grid, _irfft1(f.grid, -1j * ws.dk**3 * _rfft1(f)))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


def integrate(f: Field2D | Field1D) -> float:
    """Integral over the periodic domain: correctly rounded sample sum * cell.

    Raises NonFiniteError if the sum of the (finite) samples overflows.
    """
    if isinstance(f, Field1D):
        values, cell = f.values, f.grid.dx
    else:
        values, cell = f.values.ravel(), f.grid.dx * f.grid.dy
    try:
        return math.fsum(values) * cell
    except OverflowError as exc:
        raise NonFiniteError(f"integral overflows: {exc}") from None


def l2norm(f: Field2D | Field1D) -> float:
    return math.sqrt(integrate(f * f))


# ---------------------------------------------------------------------------
# seeded band-limited noise (initial data for tests and presets)
# ---------------------------------------------------------------------------


def random_band_limited_2d(
    grid: Grid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> Field2D:
    """Zero-mean random field supported on modes with |kx|,|ky| <= kmax."""
    white = rng.standard_normal(grid.shape)
    hat = np.fft.rfft2(white)
    ix = np.arange(grid.nx // 2 + 1)
    iy = np.rint(np.fft.fftfreq(grid.ny) * grid.ny).astype(int)
    keep = (ix[None, :] <= kmax) & (np.abs(iy)[:, None] <= kmax)
    keep[0, 0] = False
    v = np.fft.irfft2(hat * keep, s=grid.shape)
    peak = np.max(np.abs(v))
    if peak > 0:
        v = v * (amplitude / peak)
    return Field2D(grid, v)


def random_band_limited_1d(
    grid: Grid1D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> Field1D:
    white = rng.standard_normal(grid.n)
    hat = np.fft.rfft(white)
    ix = np.arange(grid.n // 2 + 1)
    keep = (ix <= kmax) & (ix >= 1)
    v = np.fft.irfft(hat * keep, n=grid.n)
    peak = np.max(np.abs(v))
    if peak > 0:
        v = v * (amplitude / peak)
    return Field1D(grid, v)
