"""Spectral calculus tests: derivatives, bracket, inversion, integrals.

Analytic fields (sines and cosines the grid resolves exactly) give machine
precision targets; a second-order central-difference oracle provides an
independent consistency check with its own known truncation error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from casimirlab import (
    Field1D,
    Field2D,
    FieldError,
    Grid1D,
    Grid2D,
    GridMismatchError,
    bracket2d,
    ddx,
    ddx1,
    ddx2,
    ddx3,
    ddy,
    dealias,
    integrate,
    invert_laplacian,
    l2norm,
    laplacian,
)
from casimirlab.field_core import (
    NonFiniteError,
    _forward,
    _inverse,
    bracket_sums,
    integrate_rows,
    random_band_limited_2d,
    workspace1d,
    workspace2d,
)
from casimirlab import vortex as vx
from casimirlab.poisson import State

GRID = Grid2D(64, 64)
TWO_PI_SQ = 2.0 * math.pi**2


def central_diff_x(values, dx):
    """Independent second-order FD oracle along x (axis 1)."""
    return (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * dx)


class TestGridsAndFields:
    def test_grid_validation(self):
        with pytest.raises(FieldError):
            Grid2D(7, 64)
        with pytest.raises(FieldError):
            Grid2D(64, 6)
        with pytest.raises(FieldError, match="even"):
            Grid1D(7)
        with pytest.raises(FieldError):
            Grid1D(64, -1.0)
        with pytest.raises(FieldError):
            Grid1D(16, math.inf)
        with pytest.raises(FieldError):
            Grid2D(8, 8, math.inf, 1.0)

    def test_values_of_another_shape_rejected(self):
        with pytest.raises(FieldError, match="shape"):
            Field2D(Grid2D(8, 8), np.zeros((8, 10)))

    def test_missing_attribute_raises_attribute_error(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        g = ddx(f)  # synthesized, its values unread
        for field in (f, g):
            with pytest.raises(AttributeError, match="no_such_attribute"):
                field.no_such_attribute
        assert "values" not in vars(g)  # the failed lookup computed nothing

    def test_negating_a_field_born_from_values(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X) + np.cos(2 * Y))
        neg = -f
        assert not neg._synthesized
        assert np.array_equal(neg.values, -f.values)

    def test_spacing_exact(self):
        g = Grid2D(64, 32, 4.0, 2.0)
        assert g.dx == 4.0 / 64 and g.dy == 2.0 / 32

    def test_non_finite_rejected(self):
        v = np.zeros(GRID.shape)
        v[3, 5] = np.nan
        with pytest.raises(FieldError):
            Field2D(GRID, v)
        with pytest.raises(FieldError):
            Field1D(Grid1D(16), np.full(16, np.inf))

    def test_grid_mismatch_rejected(self):
        a = Field2D.zeros(GRID)
        b = Field2D.zeros(Grid2D(32, 32))
        with pytest.raises(GridMismatchError):
            a + b
        with pytest.raises(GridMismatchError):
            bracket2d(a, b)

    def test_field_arithmetic(self):
        a = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        b = Field2D.from_function(GRID, lambda X, Y: np.cos(Y))
        assert np.allclose((a + b).values, a.values + b.values)
        assert np.allclose((2.0 * a - b).values, 2 * a.values - b.values)
        assert np.allclose((a * b).values, a.values * b.values)

    def test_field_class_must_match_grid(self):
        with pytest.raises(FieldError, match="Field1D"):
            Field1D(Grid2D(8, 8), np.ones((8, 8)))
        with pytest.raises(FieldError, match="Field2D"):
            Field2D(Grid1D(8), np.ones(8))

    def test_values_are_read_only(self):
        a = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        for f in (Field1D.zeros(Grid1D(16)), a, a * 2.0 - a):
            with pytest.raises(ValueError, match="read-only"):
                f.values[0] = 1.0

    def test_writeable_input_is_copied(self):
        arr = np.ones((8, 8))
        f = Field2D(Grid2D(8, 8), arr)
        arr[0, 0] = 5.0
        assert f.values[0, 0] == 1.0

    def test_read_only_input_is_a_view(self):
        arr = np.ones((8, 8))
        arr.setflags(write=False)
        f = Field2D(Grid2D(8, 8), arr)
        assert np.shares_memory(f.values, arr)
        g = Field2D(Grid2D(8, 8), f.values)
        assert np.shares_memory(g.values, f.values)

    def test_product_across_grid_classes_rejected(self):
        with pytest.raises(GridMismatchError):
            Field2D.zeros(GRID) * Field1D.zeros(Grid1D(16))
        with pytest.raises(GridMismatchError):
            Field1D.zeros(Grid1D(16)) * Field2D.zeros(GRID)

    @pytest.mark.parametrize("op", [lambda f: f + 1.0, lambda f: f - 1.0, lambda f: 1.0 + f],
                             ids=["field+scalar", "field-scalar", "scalar+field"])
    def test_sum_with_a_scalar_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(Field2D.zeros(Grid2D(8, 8)))


class TestDerivatives:
    def test_ddx_sin_analytic(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        X, _ = GRID.meshgrid()
        assert np.max(np.abs(ddx(f).values - np.cos(X))) <= 1e-12

    def test_ddx_constant_is_zero(self):
        assert ddx(Field2D.full(GRID, 3.7)).max_abs() == 0.0

    def test_ddx_cos2x_analytic(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.cos(2 * X))
        X, _ = GRID.meshgrid()
        assert np.max(np.abs(ddx(f).values + 2.0 * np.sin(2 * X))) <= 1e-12

    def test_ddy_analytic(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(3 * Y))
        _, Y = GRID.meshgrid()
        assert np.max(np.abs(ddy(f).values - 3.0 * np.cos(3 * Y))) <= 1e-11

    def test_ddx_matches_fd_oracle_within_its_truncation(self):
        # FD of sin(3x) is cos(3x) sin(3h)/h, so the gap to the spectral
        # derivative is |3 - sin(3h)/h| = 4.5 h^2 (1 + O(h^2)).
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(3 * X))
        h = GRID.dx
        gap = np.max(np.abs(ddx(f).values - central_diff_x(f.values, h)))
        expected = 3.0 - math.sin(3.0 * h) / h
        assert abs(gap - expected) <= 1e-3 * expected

    def test_fd_oracle_on_random_band_limited(self):
        rng = np.random.default_rng(2)
        f = random_band_limited_2d(GRID, 5, rng)
        h = GRID.dx
        gap = np.max(np.abs(ddx(f).values - central_diff_x(f.values, h)))
        # third-derivative bound: sum of |k|^3 over modes <= kmax^3 * peak factor
        assert gap <= (h**2 / 6.0) * 5**3 * np.max(np.abs(f.values)) * 10

    def test_1d_derivatives(self):
        g = Grid1D(128)
        x = g.x()
        f = Field1D(g, np.sin(2 * x))
        assert np.max(np.abs(ddx1(f).values - 2 * np.cos(2 * x))) <= 1e-12
        assert np.max(np.abs(ddx2(f).values + 4 * np.sin(2 * x))) <= 1e-11
        assert np.max(np.abs(ddx3(f).values + 8 * np.cos(2 * x))) <= 1e-10

    def test_laplacian_inverts(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X) * np.cos(2 * Y))
        X, Y = GRID.meshgrid()
        assert np.max(np.abs(laplacian(f).values + 5.0 * f.values)) <= 1e-10


class TestTransformsAndDealiasing:
    def test_round_trip_2d(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(GRID.shape)
        w = np.fft.irfft2(np.fft.rfft2(v), s=GRID.shape)
        assert np.max(np.abs(v - w)) <= 1e-13 * np.max(np.abs(v))

    def test_round_trip_1d(self):
        g = Grid1D(256)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(g.n)
        w = np.fft.irfft(np.fft.rfft(v), n=g.n)
        assert np.max(np.abs(v - w)) <= 1e-13 * np.max(np.abs(v))

    def test_mask_cuts_high_modes(self):
        ws = workspace2d(GRID)
        ix = np.arange(GRID.nx // 2 + 1)
        iy = np.rint(np.fft.fftfreq(GRID.ny) * GRID.ny).astype(int)
        high = (ix[None, :] > GRID.nx // 3) | (np.abs(iy)[:, None] > GRID.ny // 3)
        assert not ws.mask[high].any()
        assert ws.mask[0, 0]

    def test_dealias_is_projection(self):
        rng = np.random.default_rng(6)
        f = Field2D(GRID, rng.standard_normal(GRID.shape))
        once = dealias(f)
        twice = dealias(once)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-13

    def test_dealias_keeps_low_modes(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.cos(3 * X + 2 * Y))
        assert np.max(np.abs(dealias(f).values - f.values)) <= 1e-12

    def test_1d_mask(self):
        ws = workspace1d(Grid1D(256))
        assert ws.mask[: 256 // 3 + 1].all() and not ws.mask[256 // 3 + 1 :].any()


class TestBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(7)
        a = random_band_limited_2d(GRID, 8, rng)
        assert bracket2d(a, a).max_abs() <= 1e-13

    def test_analytic_value(self):
        a = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        b = Field2D.from_function(GRID, lambda X, Y: np.sin(Y))
        X, Y = GRID.meshgrid()
        out = bracket2d(a, b)
        assert np.max(np.abs(out.values + np.cos(X) * np.cos(Y))) <= 1e-12
        assert abs(out.values[0, 0] + 1.0) <= 1e-12  # value -1 at the origin

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(8)
        a = random_band_limited_2d(GRID, 10, rng)
        b = random_band_limited_2d(GRID, 10, rng)
        resid = (bracket2d(a, b) + bracket2d(b, a)).max_abs()
        scale = a.max_abs() * b.max_abs() * 100.0
        assert resid <= 1e-13 * scale

    def test_bracket_integrates_to_zero(self):
        rng = np.random.default_rng(9)
        a = random_band_limited_2d(GRID, 10, rng)
        b = random_band_limited_2d(GRID, 10, rng)
        scale = l2norm(a) * l2norm(b)
        assert abs(integrate(bracket2d(a, b))) <= 1e-12 * scale

    def test_quadratic_pairings_vanish(self):
        # the Galerkin-truncated bracket conserves both quadratic pairings
        rng = np.random.default_rng(10)
        a = dealias(random_band_limited_2d(GRID, 10, rng))
        b = dealias(random_band_limited_2d(GRID, 10, rng))
        br = bracket2d(a, b)
        scale = l2norm(a) * l2norm(b) * 100.0
        assert abs(integrate(a * br)) <= 1e-12 * scale
        assert abs(integrate(b * br)) <= 1e-12 * scale

    def test_zero_field_short_circuit_exact(self):
        a = Field2D.from_function(GRID, lambda X, Y: np.sin(X) + np.cos(2 * Y))
        z = Field2D.zeros(GRID)
        assert bracket2d(a, z).max_abs() == 0.0
        assert bracket2d(z, a).max_abs() == 0.0


class TestIntegrate:
    def test_odd_mode_integrates_to_zero(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        assert abs(integrate(f)) <= 1e-13

    def test_sin_squared(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X) ** 2)
        assert abs(integrate(f) - TWO_PI_SQ) <= 1e-12

    def test_constant(self):
        assert abs(integrate(Field2D.full(GRID, 2.5)) - 2.5 * 4 * math.pi**2) <= 1e-12

    def test_1d_analytic(self):
        g = Grid1D(256)
        f = Field1D.from_function(g, lambda x: np.sin(x) ** 2)
        assert abs(integrate(f) - math.pi) <= 1e-13

    def test_integrate_is_deterministic(self):
        rng = np.random.default_rng(11)
        f = Field2D(GRID, rng.standard_normal(GRID.shape))
        vals = {integrate(f) for _ in range(5)}
        assert len(vals) == 1

    def test_overflowing_sum_raises_non_finite_error(self):
        # finite samples whose sum leaves the float64 range
        for f in (Field1D.full(Grid1D(8), 1e308), Field2D.full(GRID, 1e308)):
            with pytest.raises(NonFiniteError):
                integrate(f)


@st.composite
def sample_rows(draw):
    """(grid, rows): a stack of finite sample rows on a Grid1D, with signed zeros,
    subnormals and magnitudes up to 1e308."""
    grid = Grid1D(2 * draw(st.integers(4, 16)), draw(st.floats(1e-3, 1e3)))
    samples = st.floats(-1e308, 1e308) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308])
    rows = draw(arrays(float, (draw(st.integers(1, 4)), grid.n), elements=samples))
    return grid, rows


@given(sample_rows())
@example((Grid1D(8), np.array([[-0.0] * 8, [5e-324, -0.0, *[0.0] * 6]])))
def test_integrate_rows_is_fsum_of_the_numpy_rows(case):
    grid, rows = case
    try:
        expected = [math.fsum(row) * grid.cell for row in rows]
    except OverflowError:
        with pytest.raises(NonFiniteError):
            integrate_rows(grid, rows)
        return
    got = integrate_rows(grid, rows)
    assert [v.hex() for v in got] == [v.hex() for v in expected]  # sign of zero included


class TestInvertLaplacian:
    def test_single_mode(self):
        f = Field2D.from_function(GRID, lambda X, Y: np.sin(X))
        X, _ = GRID.meshgrid()
        assert np.max(np.abs(invert_laplacian(f).values + np.sin(X))) <= 1e-13

    def test_constant_maps_to_zero(self):
        assert invert_laplacian(Field2D.full(GRID, 4.0)).max_abs() == 0.0

    def test_round_trip_on_random_field(self):
        rng = np.random.default_rng(12)
        f = random_band_limited_2d(GRID, 12, rng)
        u = invert_laplacian(f)
        mean_f = integrate(f) / (GRID.lx * GRID.ly)
        resid = laplacian(u).values - (f.values - mean_f)
        assert np.max(np.abs(resid)) <= 1e-11 * max(1.0, f.max_abs())
        assert abs(integrate(u)) <= 1e-12


class TestKeptSpectrum:
    """A field's spectrum is rfft2(values), computed once, unless it was synthesized from one."""

    @staticmethod
    def record(monkeypatch, made=None):
        """Patch np.fft.rfft2 and irfft2 to record the name per 2-D transform, one per plane
        of a stacked input, and the name per call in made."""
        calls = []
        for name in ("rfft2", "irfft2"):

            def recorded(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.extend([_name] * math.prod(np.shape(x)[:-2]))
                if made is not None:
                    made.append(_name)
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        return calls

    def test_one_forward_transform_per_field(self, monkeypatch):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(30))
        calls = self.record(monkeypatch)
        outputs = ddx(f), ddy(f), laplacian(f)
        assert calls == ["rfft2"]
        for g in outputs:
            g.values
        assert calls.count("rfft2") == 1 and calls.count("irfft2") == 3

    def test_synthesized_field_keeps_its_spectrum(self, monkeypatch):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(31))
        u = invert_laplacian(f)
        calls = self.record(monkeypatch)
        du = ddx(u)
        assert calls == []
        du.values
        assert calls == ["irfft2"]
        fresh = ddx(Field2D(GRID, u.values.copy()))
        assert np.max(np.abs(du.values - fresh.values)) <= 1e-13 * fresh.max_abs()

    def test_bracket_output_keeps_its_masked_spectrum(self, monkeypatch):
        rng = np.random.default_rng(32)
        br = bracket2d(random_band_limited_2d(GRID, 8, rng), random_band_limited_2d(GRID, 8, rng))
        calls = self.record(monkeypatch)
        again = dealias(br)
        assert calls == []
        again.values
        assert calls == ["irfft2"]
        assert np.array_equal(again.values, br.values)

    def test_bracket_is_history_independent(self):
        rng = np.random.default_rng(33)
        p = random_band_limited_2d(GRID, 8, rng)
        q = random_band_limited_2d(GRID, 8, rng)
        fresh = bracket2d(Field2D(GRID, p.values.copy()), Field2D(GRID, q.values.copy()))
        ddx(p)
        assert np.array_equal(bracket2d(p, q).values, fresh.values)

    def test_1d_spectrum_kept(self, monkeypatch):
        g = Grid1D(64)
        w = Field1D.from_function(g, lambda x: np.sin(x) + 0.5 * np.cos(3 * x))
        calls, rfft = [], np.fft.rfft

        def recorded(x, *args, **kwargs):
            calls.append("rfft")
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        d1, d3 = ddx1(w), ddx3(w)
        ddx2(d1)
        assert calls == ["rfft"]
        assert np.array_equal(d3.values, ddx3(Field1D(g, w.values.copy())).values)


class TestLazyValues:
    """A synthesized field keeps its spectrum and computes its values at the first read."""

    record = staticmethod(TestKeptSpectrum.record)

    def test_values_are_synthesized_at_the_first_read(self, monkeypatch):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(40))
        ddx(f)  # f keeps its spectrum from here on
        calls = self.record(monkeypatch)
        u = invert_laplacian(f)
        assert calls == []
        values = u.values
        assert calls == ["irfft2"]
        assert u.values is values and calls == ["irfft2"]
        monkeypatch.undo()
        assert np.array_equal(values, np.fft.irfft2(u._spectrum(), s=GRID.shape))
        assert values.shape == GRID.shape and not values.flags.writeable

    def test_non_finite_spectrum_raises_at_the_first_read(self):
        with np.errstate(all="ignore"):  # its sum, and so its spectrum, overflows
            lap = laplacian(Field2D.full(GRID, 1e306))
        for _ in range(2):
            with pytest.raises(NonFiniteError):
                lap.values

    def test_bracket_sums_skips_a_zero_synthesized_row_untransformed(self, monkeypatch):
        rng = np.random.default_rng(41)
        a, b = (random_band_limited_2d(GRID, 6, rng) for _ in range(2))
        zero = dealias(Field2D.zeros(GRID))  # synthesized, values unread
        expect = bracket2d(a, b)
        made = []
        calls = self.record(monkeypatch, made)
        out = bracket_sums([[(a, b), (zero, b)], [(a, zero)]])
        # a's and b's derivatives, one two-plane call each, and the one projection;
        # zero is never transformed
        assert calls.count("irfft2") == 4 and made.count("irfft2") == 2
        assert calls.count("rfft2") == 1
        assert "values" not in vars(zero)
        assert np.array_equal(out[0].values, expect.values)
        assert not out[1].values.any()


class TestSpectralArithmetic:
    """+, -, unary - and scalar * stay spectral when an operand was synthesized."""

    record = staticmethod(TestKeptSpectrum.record)

    @staticmethod
    def synthesized(seed):
        rng = np.random.default_rng(seed)
        return ddx(random_band_limited_2d(GRID, 6, rng)), laplacian(random_band_limited_2d(GRID, 6, rng))

    def test_combination_of_synthesized_fields_is_spectral(self, monkeypatch):
        a, b = self.synthesized(50)
        calls = self.record(monkeypatch)
        out = a + 0.3 * b - (-a)
        assert calls == [] and out._synthesized
        values = out.values
        assert calls == ["irfft2"]
        monkeypatch.undo()
        hat = a._spectrum() + 0.3 * b._spectrum() - (-a._spectrum())
        assert np.array_equal(values, np.fft.irfft2(hat, s=GRID.shape))

    def test_field_born_from_values_contributes_its_kept_spectrum(self, monkeypatch):
        a, _ = self.synthesized(51)
        z = random_band_limited_2d(GRID, 6, np.random.default_rng(52))
        calls = self.record(monkeypatch)
        first, second = z + 0.5 * a, z + 0.25 * a
        assert calls == ["rfft2"] and first._synthesized and second._synthesized
        monkeypatch.undo()
        hat = np.fft.rfft2(z.values) + 0.5 * a._spectrum()
        assert np.array_equal(first.values, np.fft.irfft2(hat, s=GRID.shape))

    def test_values_alone_stay_in_values(self, monkeypatch):
        rng = np.random.default_rng(53)
        p, q = (random_band_limited_2d(GRID, 6, rng) for _ in range(2))
        calls = self.record(monkeypatch)
        out = p + 0.5 * q
        assert calls == [] and not out._synthesized
        assert np.array_equal(out.values, p.values + 0.5 * q.values)

    def test_product_reads_values(self, monkeypatch):
        a, b = self.synthesized(54)
        calls = self.record(monkeypatch)
        out = a * b
        assert calls == ["irfft2", "irfft2"] and not out._synthesized
        assert np.array_equal(out.values, a.values * b.values)

    def test_result_is_independent_of_read_history(self):
        a, b = self.synthesized(55)
        unread = (a + 0.7 * b).values
        a, b = self.synthesized(55)
        a.values, b.values  # reading the operands first does not change the rule
        assert np.array_equal((a + 0.7 * b).values, unread)


class TestExactZero:
    """Field.zeros keeps an exact zero spectrum: nothing transforms or scans it."""

    record = staticmethod(TestKeptSpectrum.record)

    def test_zero_field_is_never_transformed(self, monkeypatch):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(60))
        a = ddx(f)
        calls = self.record(monkeypatch)
        zero = Field2D.zeros(GRID)
        assert not zero._any()
        assert zero._spectrum() is Field2D.zeros(GRID)._spectrum() and not zero._spectrum().any()
        out = a + zero
        d = dealias(zero)
        assert calls == []
        assert not d._any() and not d.values.any()
        monkeypatch.undo()
        assert np.array_equal(out.values, a.values)

    def test_1d_zero_keeps_an_exact_zero_spectrum(self):
        zero = Field1D.zeros(Grid1D(16))
        assert not zero._any() and zero._spectrum().shape == (9,)
        assert not ddx1(zero).values.any()

    def test_zeros_is_one_shared_read_only_field_per_class_and_grid(self):
        zero = Field2D.zeros(GRID)
        assert Field2D.zeros(Grid2D(64, 64)) is zero  # an equal grid, not the same object
        assert Field2D.zeros(Grid2D(32, 32)) is not zero
        assert not zero.values.flags.writeable and not zero._spectrum().flags.writeable
        assert not zero.values.any() and not zero._spectrum().any()
        assert zero._spectrum() is Field2D.zeros(Grid2D(64, 64))._spectrum()
        g1 = Grid1D(16)
        assert Field1D.zeros(g1) is Field1D.zeros(g1) and type(Field1D.zeros(g1)) is Field1D


class TestForward:
    """_forward hands numpy a fresh output array: the same bits as the plain
    transform, and every spectrum its own memory."""

    @pytest.mark.parametrize("grid, shape", [(GRID, GRID.shape), (Grid2D(48, 32), (32, 48)),
                                             (Grid1D(16), (16,)), (Grid1D(16), (3, 2, 16))],
                             ids=["2d", "2d_48x32", "1d", "1d_rows"])
    def test_two_calls_give_equal_spectra_that_share_no_memory(self, grid, shape):
        values = np.random.default_rng(80).standard_normal(shape)
        first, second = _forward(grid, values), _forward(grid, values)
        plain = np.fft.rfft(values) if isinstance(grid, Grid1D) else np.fft.rfft2(values)
        for hat in (first, second):
            TestBitwiseAgainstRealSymbols.assert_same_spectrum(hat, plain)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, values)


class TestInverse:
    """_inverse of a (2, ny, nx//2+1) stack, as bracket_sums makes it: each plane of the
    output is bitwise that plane's own call."""

    @pytest.mark.parametrize("grid", [GRID, Grid2D(48, 32), Grid2D(128, 128)],
                             ids=["64x64", "48x32", "128x128"])
    def test_stack_planes_are_the_single_calls(self, grid):
        hat = _forward(grid, np.random.default_rng(81).standard_normal(grid.shape))
        stack = workspace2d(grid).grad * hat
        out = _inverse(grid, stack)
        assert out.shape == (2, *grid.shape)
        for plane, plane_hat in zip(out, stack):
            assert np.array_equal(plane.view(np.uint64), _inverse(grid, plane_hat).view(np.uint64))


class TestStateFinite:
    def test_non_finite_synthesized_part_is_not_finite(self):
        with np.errstate(all="ignore"):  # its sum, and so its spectrum, overflows
            lap = laplacian(Field2D.full(GRID, 1e306))
        with pytest.raises(NonFiniteError):
            State("vortex1", (lap,)).from_values()

    def test_finite_synthesized_part_is_finite(self):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(61))
        z = State("vortex2", (ddx(f), f))
        settled = z.from_values()
        assert not settled.parts[0]._synthesized and settled.parts[1] is f
        assert np.array_equal(settled.parts[0].values, z.parts[0].values)


class TestStateFromValues:
    def test_values_born_state_is_itself(self):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(62))
        z = State("vortex2", (f, f + f))
        assert z.from_values() is z
        w = State("kdv", (Field1D(Grid1D(16), np.arange(16.0)),))
        assert w.from_values() is w

    def test_synthesized_part_makes_a_new_state(self):
        f = random_band_limited_2d(GRID, 6, np.random.default_rng(63))
        z = State("vortex2", (f, ddx(f)))
        settled = z.from_values()
        assert settled is not z and settled.parts[0] is f
        assert not settled.parts[1]._synthesized
        assert settled.from_values() is settled


class TestBitwiseAgainstRealSymbols:
    """The workspace's complex full-shape symbols and rfft2's s give every bit of
    the real broadcast forms: rfft2 without s, i k built from the grid, and a
    bool 2/3 mask, sign bits of the kept spectra included."""

    GRIDS = [Grid2D(64, 64), Grid2D(48, 32, ly=3.0)]

    @staticmethod
    def real_symbols(grid):
        ix = np.arange(grid.nx // 2 + 1)
        iy = np.rint(np.fft.fftfreq(grid.ny) * grid.ny).astype(int)
        dkx = (2.0 * math.pi / grid.lx) * ix[None, :]
        dkx[0, -1] = 0.0
        dky = (2.0 * math.pi / grid.ly) * iy[:, None].astype(float)
        dky[grid.ny // 2, 0] = 0.0
        mask = (ix[None, :] <= grid.nx // 3) & (np.abs(iy)[:, None] <= grid.ny // 3)
        return dkx, dky, mask

    @staticmethod
    def field(grid, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "band_limited":
            return random_band_limited_2d(grid, 5, rng)
        return Field2D(grid, rng.standard_normal(grid.shape))

    @staticmethod
    def assert_same_spectrum(kept, hat):
        assert np.array_equal(kept, hat)
        assert np.array_equal(np.signbit(kept.real), np.signbit(hat.real))
        assert np.array_equal(np.signbit(kept.imag), np.signbit(hat.imag))

    def assert_bitwise(self, f, hat):
        """f keeps exactly hat, sign bits included, and its values are irfft2(hat)."""
        self.assert_same_spectrum(f._spectrum(), hat)
        assert np.array_equal(f.values, np.fft.irfft2(hat, s=f.grid.shape))

    @pytest.mark.parametrize("grid", GRIDS, ids=["64x64", "48x32"])
    @pytest.mark.parametrize("kind", ["band_limited", "full_spectrum"])
    def test_operators(self, grid, kind):
        dkx, dky, mask = self.real_symbols(grid)
        f = self.field(grid, kind, 70)
        hat = np.fft.rfft2(f.values)
        self.assert_same_spectrum(f._spectrum(), hat)
        self.assert_bitwise(ddx(f), 1j * dkx * hat)
        self.assert_bitwise(ddy(f), 1j * dky * hat)
        self.assert_bitwise(dealias(f), mask * hat)

    @pytest.mark.parametrize("grid", GRIDS, ids=["64x64", "48x32"])
    @pytest.mark.parametrize("kind", ["band_limited", "full_spectrum"])
    def test_bracket(self, grid, kind):
        dkx, dky, mask = self.real_symbols(grid)
        a, b = self.field(grid, kind, 71), self.field(grid, kind, 72)
        ha, hb = np.fft.rfft2(a.values), np.fft.rfft2(b.values)

        def d(hat, k):
            return np.fft.irfft2(1j * k * hat, s=grid.shape)

        p = d(ha, dky) * d(hb, dkx)
        p -= d(ha, dkx) * d(hb, dky)
        hat = np.fft.rfft2(p)
        hat *= mask
        self.assert_bitwise(bracket2d(a, b), hat)

    @pytest.mark.parametrize("grid", GRIDS, ids=["64x64", "48x32"])
    @pytest.mark.parametrize("kind", ["band_limited", "full_spectrum"])
    def test_bracket_sums(self, grid, kind):
        # the level-3 rows: z_1, z_2 and g_0 sit in several pairs, and g_2 is an exact zero
        dkx, dky, mask = self.real_symbols(grid)
        z = [self.field(grid, kind, 73 + s) for s in range(3)]
        g = [self.field(grid, kind, 76), self.field(grid, kind, 77), Field2D.zeros(grid)]
        rows = [[(z[s], g[r]) for s, r in pairs] for pairs in vx.PAIRS[3]]

        def d(f, k):  # one irfft2 per derivative
            return np.fft.irfft2(1j * k * np.fft.rfft2(f.values), s=grid.shape)

        for out, pairs in zip(bracket_sums(rows), rows):
            total = None
            for a, b in pairs:
                if not (a.values.any() and b.values.any()):
                    continue
                p = d(a, dky) * d(b, dkx)
                p -= d(a, dkx) * d(b, dky)
                total = p if total is None else np.add(total, p, out=total)
            hat = np.fft.rfft2(total)
            hat *= mask
            self.assert_bitwise(out, hat)
            assert np.array_equal(out.values.view(np.uint64),
                                  np.fft.irfft2(hat, s=grid.shape).view(np.uint64))
