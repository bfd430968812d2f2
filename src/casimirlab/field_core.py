"""Periodic uniform grids and the spectral calculus shared by all field systems.

Conventions
-----------
* 2D fields live on a uniform periodic grid over [0, lx) x [0, ly) with no
  duplicated endpoint.  Values are stored row-major by y then x, i.e.
  ``values[j, i] = f(x_i, y_j)`` with shape ``(ny, nx)``.
* Derivatives, the Laplacian and its inverse are spectral: exact on resolved
  Fourier modes (rfft along x, full fft along y).
* The canonical bracket [a, b] = dy(a) dx(b) - dx(a) dy(b) is evaluated
  pseudo-spectrally and projected back onto the 2/3-rule mode set (Galerkin
  truncation), which makes integrate(a * [a, b]) and integrate(b * [a, b])
  exact to rounding for band-limited inputs.  One kernel, bracket_sums,
  forms every sum of brackets: each input is transformed once, its
  (dx, dy) pair is synthesized in one inverse call on a two-plane stack,
  and each sum is projected once (the projection is linear); bracket2d is
  its one pair.
* invert_laplacian fixes the k = 0 mode to zero (zero-mean gauge on the
  torus); a constant shift of a stream function never changes a bracket.
* wavenumber(k, length) = (2 pi / length) k is the one map from a mode
  number k to its wavenumber on a periodic axis of that length: the
  workspaces' symbols, the ion probes and every seeded mode are built from
  it, so a mode list names the same modes on any box.
* integrate() uses compensated fixed-order summation (math.fsum), so the
  value is the correctly rounded sum of the samples: repeated runs are
  bit-identical.  fsum is fed each row as one list of Python floats, which
  it reads faster than a numpy row's boxed scalars; the sum is the same.
* One field class, Field, serves both grids: its values have the shape
  grid.shape, are finite, and are read-only.  A writeable input array is
  copied, so no caller can change a field's values afterwards; a read-only
  one is taken as a view.  Arithmetic, spectral synthesis, bracket_sums,
  zeros, full and the seeded noise hand over arrays they have just
  allocated, marked read-only, and so copy nothing.
  Field1D and Field2D are its subclasses, one per grid class, and each
  rejects the other's grid.
* A field keeps its spectrum.  The spectrum is rfft(values) (rfft2 on a
  Grid2D), computed at the first spectral use and kept, unless the field was
  synthesized from a spectrum: then it keeps that one, and its values are
  irfft(spectrum), computed and checked at their first read.  Every
  spectral operator's output and every bracket_sums output is synthesized,
  so a derivative of it transforms nothing forward, and a field used only
  through its spectrum (the stream function, the current) is never
  transformed back.  States at a step boundary (a step's output, seeded
  initial data, a snapshot) carry no synthesized spectrum, so a run is the
  same whether it was stopped and reloaded or not.  With its outputs read, a
  level-2 rmhd_energy RHS takes 14 2-D transforms in 10 calls, level 3 19
  in 14, a level-2 euler_energy RHS 12 in 9 and level 1 7 in 5.
* Linear arithmetic on a synthesized field stays in spectral space: +, -,
  unary - and a scalar * give the field synthesized from the combined
  spectra whenever an operand was synthesized (an operand born from values
  contributes its kept rfft spectrum); a product of two fields, or
  arithmetic on fields born from values alone, works on the values.  The
  rule follows how each operand was born, never whether its values were
  read, so no bit depends on read history.  RK4's stage sums therefore
  transform nothing, and dynamics.step reads each output part's values
  once: 2-D transforms per RK4 step at 64^2 are 22 at level 1, 36 at
  level 2 with euler_energy, 44 with rmhd_energy and 58 at level 3, made in
  14, 24, 28 and 38 calls.
* A field from zeros is an exact zero: it keeps an exact zero spectrum, so
  no spectral use transforms it, and a zero test (_any) reads its values as
  it reads any field's that was born from values.  There is one per (class,
  grid), built at the first call and shared by every later one, so a phantom
  gradient row or a bracket output with no live pair allocates nothing.
* Two helpers, _forward and _inverse, are the only code that picks the 1-D
  or 2-D transforms.  On a Grid2D both pass s = grid.shape, so rfft2 runs
  its two 1-D passes without first deriving s from the array's shape
  through an ndarray: the same transforms, less overhead.  _forward also
  hands numpy a fresh output array of the spectrum's shape, so rfft2 runs
  its second (axis-0) pass in place there and allocates one array, not two;
  every spectrum it returns is still its own array.  _inverse takes a stack
  of spectra too, (m, ny, nx//2+1) on a Grid2D, and each plane of its
  output is bitwise that plane's own call.
* The 2-D workspace holds its symbols in the form they are applied: the
  gradient symbol as one (2, ny, nx//2+1) stack (i kx, i ky) and the
  2/3-rule mask, read-only complex arrays of the full rfft2 shape.  A
  derivative or a projection is then one complex multiply, with no symbol
  built and no bool or broadcast operand cast per call, and each product is
  bitwise the one the real broadcast forms give.  It holds both
  -1/k^2 (invert_laplacian) and its negation +1/k^2 (the vortex stream
  function), so neither negates a symbol per call.  The 1-D workspace holds
  its mask as complex 1/0 too, and all its arrays read-only.
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
    """Uniform periodic grid on [0, lx) x [0, ly); nx, ny even and >= 8, lx, ly finite."""

    nx: int
    ny: int
    lx: float = TWO_PI
    ly: float = TWO_PI

    def __post_init__(self):
        for n, name in ((self.nx, "nx"), (self.ny, "ny")):
            if n < 8 or n % 2 != 0:
                raise FieldError(f"{name} must be even and >= 8, got {n}")
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise FieldError("domain lengths must be positive and finite")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def cell(self) -> float:
        return self.dx * self.dy

    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """X, Y arrays of shape (ny, nx) matching the field storage order."""
        return np.meshgrid(self.x(), self.y(), indexing="xy")

    coords = meshgrid


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, l); n even and >= 8, l finite."""

    n: int
    l: float = TWO_PI

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise FieldError(f"n must be even and >= 8, got {self.n}")
        if not 0 < self.l < math.inf:
            raise FieldError("domain length must be positive and finite")

    @property
    def dx(self) -> float:
        return self.l / self.n

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def cell(self) -> float:
        return self.dx

    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def coords(self) -> tuple[np.ndarray]:
        return (self.x(),)


# ---------------------------------------------------------------------------
# spectral workspaces (wavenumbers, dealiasing masks)
# ---------------------------------------------------------------------------


def wavenumber(k, length: float):
    """The wavenumber (2 pi / length) k of mode number k (a number or an array) on a
    periodic axis of that length; at length 2 pi it is k itself, bit for bit."""
    return (TWO_PI / length) * k


@dataclass(frozen=True, eq=False)
class SpectralWorkspace2D:
    """The spectral symbols of one Grid2D: read-only, each of the rfft2 shape (ny, nx//2+1)
    or, for grad, a stack of two.

    The derivative symbols and the mask are held in the form they are
    applied, complex and full-shape, so applying one casts and broadcasts
    nothing.  The products are bitwise those of the real broadcast forms:
    numpy casts k to k + 0j and True to 1 + 0j before it multiplies.
    """

    grad: np.ndarray      # (i kx, i ky) stacked, Nyquist column / row zeroed
    k2: np.ndarray        # kx^2 + ky^2
    inv_neg_k2: np.ndarray  # -1/k2 with the k = 0 entry set to 0
    inv_k2: np.ndarray    # +1/k2, the negation of inv_neg_k2 (its k = 0 entry is -0.0)
    mask: np.ndarray      # 2/3-rule dealiasing mask, complex: 1 keeps a mode, 0 drops it
    order: np.ndarray     # max(|ix|, |iy|), the largest mode index of each mode


@lru_cache(maxsize=None)
def workspace2d(grid: Grid2D) -> SpectralWorkspace2D:
    nx, ny = grid.nx, grid.ny
    ix = np.arange(nx // 2 + 1)                       # rfft mode indices
    iy = np.rint(np.fft.fftfreq(ny) * ny).astype(int)
    kx = wavenumber(ix[None, :], grid.lx)
    ky = wavenumber(iy[:, None], grid.ly)
    dkx = kx.copy()
    dkx[0, -1] = 0.0                                  # Nyquist has no odd derivative
    dky = ky.copy()
    dky[ny // 2, 0] = 0.0
    k2 = kx**2 + ky**2
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = -1.0 / k2[nz]
    mask = (ix[None, :] <= nx // 3) & (np.abs(iy)[:, None] <= ny // 3)
    order = np.maximum(ix[None, :], np.abs(iy)[:, None])
    full = k2.shape
    grad = np.stack((np.broadcast_to(1j * dkx, full), np.broadcast_to(1j * dky, full)))
    symbols = (grad, k2, inv, -inv, mask.astype(complex), order)
    return SpectralWorkspace2D(*(_read_only(a) for a in symbols))


@dataclass(frozen=True, eq=False)
class SpectralWorkspace1D:
    """The spectral symbols of one Grid1D: read-only, each of the rfft shape (n//2+1,).

    The mask is complex, as in the 2-D workspace, so a projection casts no
    bool operand, and a symbol may fold it in (KdV's -3i k mask): numpy
    casts True to 1 + 0j before it multiplies, so the products are bitwise
    those of a bool mask.
    """

    k: np.ndarray         # physical wavenumbers, rfft layout
    dk: np.ndarray        # Nyquist zeroed
    k2: np.ndarray        # k^2
    mask: np.ndarray      # 2/3-rule dealiasing mask, complex: 1 keeps a mode, 0 drops it
    order: np.ndarray     # mode indices


@lru_cache(maxsize=None)
def workspace1d(grid: Grid1D) -> SpectralWorkspace1D:
    n = grid.n
    ix = np.arange(n // 2 + 1)
    k = wavenumber(ix, grid.l)
    dk = k.copy()
    dk[-1] = 0.0
    mask = (ix <= n // 3).astype(complex)
    return SpectralWorkspace1D(*(_read_only(a) for a in (k, dk, k**2, mask, ix)))


def _workspace(grid):
    return workspace1d(grid) if isinstance(grid, Grid1D) else workspace2d(grid)


def _forward(grid, values: np.ndarray) -> np.ndarray:
    """rfft of values on a Grid1D, rfft2 on a Grid2D, from np.fft at call time, into a
    fresh array of the spectrum's shape.

    rfft2 is given s = grid.shape: the same two 1-D passes run in the same
    order, but numpy skips deriving s from values.shape through an ndarray
    (take), which costs about a sixth of a 64^2 transform.  Given out, rfft2
    runs its axis-0 pass in place in it, so it allocates one array, not two;
    the bits are the same.
    """
    out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), complex)
    if isinstance(grid, Grid1D):
        return np.fft.rfft(values, out=out)
    return np.fft.rfft2(values, s=grid.shape, out=out)


def _inverse(grid, hat: np.ndarray) -> np.ndarray:
    """The inverse of _forward: irfft or irfft2 onto grid.shape, of one spectrum or of
    each of a stack of them (on a Grid2D, shape (m, ny, nx//2+1) gives (m, ny, nx))."""
    if isinstance(grid, Grid1D):
        return np.fft.irfft(hat, n=grid.n)
    return np.fft.irfft2(hat, s=grid.shape)


def _spectral(grid, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """irfft(symbol * rfft(values)) onto grid.shape."""
    return _inverse(grid, symbol * _forward(grid, values))


def _read_only(values: np.ndarray) -> np.ndarray:
    """Mark a just-allocated array read-only, so a Field takes it without a copy."""
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar field: finite, read-only values of shape grid.shape.

    A writeable input array is copied; a read-only one is taken as a view.
    A field synthesized from a spectrum computes its values at their first
    read, through the same checks (__post_init__).
    """

    grid: Grid1D | Grid2D
    values: np.ndarray
    # not dataclass fields: the kept spectrum (see _spectrum) and whether the
    # field was synthesized from a spectrum
    _hat = None
    _synthesized = False

    def __post_init__(self):
        if not isinstance(self.grid, self._grid_type):
            raise FieldError(f"{type(self).__name__} cannot live on a {type(self.grid).__name__}")
        v = np.asarray(self.values, dtype=float)
        if v.flags.writeable:
            v = v.copy()
            v.setflags(write=False)
        else:
            v = v.view()  # read-only, as its base is
        if v.shape != self.grid.shape:
            raise FieldError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def _from_spectrum(cls, grid, hat: np.ndarray):
        """The field synthesized from hat, which it keeps as its spectrum (hat is taken over).

        Its values, irfft(hat), are computed and checked at their first read.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "_hat", _read_only(hat))
        object.__setattr__(f, "_synthesized", True)
        return f

    def __getattr__(self, name):
        # reached only for the values of a synthesized field that no one has read yet
        if name != "values" or self._hat is None:
            raise AttributeError(name)
        object.__setattr__(self, "values", _read_only(_inverse(self.grid, self._hat)))
        try:
            self.__post_init__()
        except FieldError:
            object.__delattr__(self, "values")  # every later read fails the same way
            raise
        return self.values

    def _any(self) -> bool:
        """values.any(), taken from the spectrum while the values are unread: a field
        born from values, zeros among them, is scanned, and none is transformed."""
        values = vars(self).get("values")
        return bool((self._hat if values is None else values).any())

    def _spectrum(self) -> np.ndarray:
        """The kept spectrum; the first call on a field that has none computes rfft(values)."""
        if self._hat is None:
            object.__setattr__(self, "_hat", _read_only(_forward(self.grid, self.values)))
        return self._hat

    @classmethod
    @lru_cache(maxsize=None)
    def zeros(cls, grid):
        """The exact zero field of grid: one per (class, grid), shared by every caller.

        It keeps an exact zero spectrum; its values and spectrum are
        read-only, and no operation changes a field.
        """
        f = cls(grid, _read_only(np.zeros(grid.shape)))
        object.__setattr__(f, "_hat", _read_only(np.zeros_like(_workspace(grid).k2, complex)))
        return f

    @classmethod
    def full(cls, grid, value: float):
        return cls(grid, _read_only(np.full(grid.shape, float(value))))

    @classmethod
    def from_function(cls, grid, fn):
        """fn(x) on a Grid1D, fn(X, Y) on a Grid2D (arrays of shape grid.shape)."""
        return cls(grid, np.asarray(fn(*grid.coords()), dtype=float))

    def _like(self, values):
        return type(self)(self.grid, _read_only(values))

    def _check(self, other):
        if self.grid is not other.grid and self.grid != other.grid:
            raise GridMismatchError(f"fields on different grids: {self.grid} vs {other.grid}")

    def _linear(self, other, op):
        """op(self, other) on the spectra if either was synthesized, else on the values."""
        if not isinstance(other, Field):
            return NotImplemented
        self._check(other)
        if self._synthesized or other._synthesized:
            return type(self)._from_spectrum(self.grid, op(self._spectrum(), other._spectrum()))
        return self._like(op(self.values, other.values))

    def __add__(self, other):
        return self._linear(other, np.add)

    def __sub__(self, other):
        return self._linear(other, np.subtract)

    def __mul__(self, other):
        if isinstance(other, Field):
            self._check(other)
            return self._like(self.values * other.values)
        if self._synthesized:
            return type(self)._from_spectrum(self.grid, self._hat * float(other))
        return self._like(self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        if self._synthesized:
            return type(self)._from_spectrum(self.grid, -self._hat)
        return self._like(-self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class Field2D(Field):
    """A Field on a Grid2D."""

    _grid_type = Grid2D


class Field1D(Field):
    """A Field on a Grid1D."""

    _grid_type = Grid1D


def _apply(f: Field, symbol) -> Field:
    return type(f)._from_spectrum(f.grid, symbol * f._spectrum())


# ---------------------------------------------------------------------------
# spectral operators and integrals
# ---------------------------------------------------------------------------


def ddx(f: Field2D) -> Field2D:
    return _apply(f, workspace2d(f.grid).grad[0])


def ddy(f: Field2D) -> Field2D:
    return _apply(f, workspace2d(f.grid).grad[1])


def laplacian(f: Field2D) -> Field2D:
    return _apply(f, -workspace2d(f.grid).k2)


def invert_laplacian(f: Field2D) -> Field2D:
    """Solve lap(u) = f - mean(f) with mean(u) = 0 (zero-mean gauge)."""
    return _apply(f, workspace2d(f.grid).inv_neg_k2)


def ddx1(f: Field1D) -> Field1D:
    return _apply(f, 1j * workspace1d(f.grid).dk)


def ddx2(f: Field1D) -> Field1D:
    return _apply(f, -workspace1d(f.grid).k2)


def ddx3(f: Field1D) -> Field1D:
    return _apply(f, -1j * workspace1d(f.grid).dk ** 3)


def dealias(f: Field) -> Field:
    """Project onto the 2/3-rule mode set (modes with |k| > n/3 zeroed)."""
    return _apply(f, _workspace(f.grid).mask)


def bracket_sums(outputs) -> list[Field2D]:
    """dealias(sum of [a, b] over the (a, b) pairs of each output), one Field2D per output.

    Each distinct input is tested for an exact zero once, and its
    derivatives are synthesized once from its kept spectrum, as one (dx, dy)
    stack from one inverse call, both kept for the whole call; a pair's two
    products are one multiply of those stacks.  A pair with an exactly zero
    side is skipped untransformed ([a, 0] = 0), and an output with no live
    pair is an exact zero field.  Each output keeps its masked spectrum.
    """
    grid = outputs[0][0][0].grid
    if any(f.grid is not grid and f.grid != grid
           for pairs in outputs for pair in pairs for f in pair):
        raise GridMismatchError("bracket2d requires one shared grid")
    ws, live, derivs, out = workspace2d(grid), {}, {}, []
    for pairs in outputs:
        total = None
        for a, b in pairs:
            for f in (a, b):
                if id(f) not in live:
                    live[id(f)] = f._any()
            if not (live[id(a)] and live[id(b)]):
                continue
            for f in (a, b):
                if id(f) not in derivs:
                    derivs[id(f)] = _inverse(grid, ws.grad * f._spectrum())
            q = derivs[id(a)] * derivs[id(b)][::-1]  # (a_x b_y, a_y b_x)
            p = np.subtract(q[1], q[0])
            total = p if total is None else np.add(total, p, out=total)
        if total is None:
            out.append(Field2D.zeros(grid))
            continue
        hat = _forward(grid, total)
        hat *= ws.mask  # one projection of the sum: still the Galerkin truncation
        out.append(Field2D._from_spectrum(grid, hat))
    return out


def bracket2d(a: Field2D, b: Field2D) -> Field2D:
    """Canonical bracket [a, b] = dy(a) dx(b) - dx(a) dy(b), dealiased: bracket_sums' one pair.

    Each input is transformed once.  Antisymmetric by construction.
    """
    return bracket_sums([[(a, b)]])[0]


def integrate(f: Field) -> float:
    """Integral over the periodic domain: correctly rounded sample sum * cell.

    Raises NonFiniteError if the sum of the (finite) samples overflows.
    """
    return integrate_rows(f.grid, f.values[None])[0]


def integrate_rows(grid, rows: np.ndarray) -> list[float]:
    """integrate() of each of a stack of finite sample arrays on grid, shape (m, *grid.shape).

    Raises NonFiniteError if a sum overflows.
    """
    try:
        return [math.fsum(row.tolist()) * grid.cell for row in rows.reshape(len(rows), -1)]
    except OverflowError as exc:
        raise NonFiniteError(f"integral overflows: {exc}") from None


def l2norm(f: Field) -> float:
    return math.sqrt(integrate(f * f))


# ---------------------------------------------------------------------------
# seeded band-limited noise (initial data for tests and presets)
# ---------------------------------------------------------------------------


def _band_limited(cls, grid, kmax: int, rng: np.random.Generator, amplitude: float):
    """Zero-mean random field on the modes with every |index| <= kmax, peak |amplitude|."""
    order = _workspace(grid).order
    v = _spectral(grid, rng.standard_normal(grid.shape), (order <= kmax) & (order > 0))
    peak = np.max(np.abs(v))
    if peak > 0:
        v = v * (amplitude / peak)
    return cls(grid, _read_only(v))


def random_band_limited_2d(
    grid: Grid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> Field2D:
    """Zero-mean random field supported on modes with |kx|,|ky| <= kmax."""
    return _band_limited(Field2D, grid, kmax, rng, amplitude)


def random_band_limited_1d(
    grid: Grid1D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> Field1D:
    """Zero-mean random field supported on modes with |k| <= kmax."""
    return _band_limited(Field1D, grid, kmax, rng, amplitude)
