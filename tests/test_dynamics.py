"""Time-loop and diagnostics tests: order behavior, blow-up handling,
determinism, frequency estimation, CSV serialization."""

import math

import numpy as np
import pytest

from casimirlab import Grid2D
from casimirlab.dynamics import (
    BlowupError,
    DiagnosticSeries,
    IntegrationError,
    estimate_frequency,
    run_and_record,
    step,
    step_count,
)
from casimirlab import finitedim as fd
from casimirlab.poisson import Functional, State, hamiltonian_rhs
from casimirlab import vortex as vx

GRID = Grid2D(64, 64)


def harmonic_rhs():
    H = fd.cubic_functional([0, 0, 0, 0.5, 0, 0.5, 0, 0, 0, 0], "harmonic")
    return hamiltonian_rhs(fd.canonical_operator(), H)


class TestStep:
    def test_zero_rhs_keeps_state_bitwise(self):
        rng = np.random.default_rng(0)
        z = vx.random_vortex_state(1, GRID, 4, rng)
        out = step(1e-2, lambda s: s.zeros_like(), z)
        assert np.array_equal(out.parts[0].values, z.parts[0].values)

    def test_invalid_scheme_rejected(self):
        # the time step is the one knob of the time loop: it must be positive
        z = fd.finite_state(1.0, 0.0)
        for dt in (-1e-2, 0.0, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                step(dt, harmonic_rhs(), z)
            with pytest.raises(ValueError, match="dt must be positive"):
                run_and_record(dt, harmonic_rhs(), z, 1.0)
            with pytest.raises(ValueError, match="dt must be positive"):
                step_count(1.0, dt)

    def test_if_rk4_requires_kdv_state(self):
        rng = np.random.default_rng(1)
        z = vx.random_vortex_state(1, GRID, 4, rng)
        with pytest.raises(ValueError):
            step(1e-2, None, z)
        with pytest.raises(ValueError, match="KdV system only"):
            step(1e-2, None, np.array([1.0, 0.0]))

    def test_nan_detected(self):
        z = State("finite", (np.array([1.0, 0.0]),))

        def bad(s):
            return State("finite", (np.array([np.inf, 0.0]),))

        with pytest.raises(BlowupError):
            step(1e-2, bad, z)

    def test_harmonic_trajectory_error_fourth_order(self):
        # global trajectory error of rk4 drops ~16x when dt halves
        errs = {}
        for dt in (0.1, 0.05):
            z = fd.finite_state(1.0, 0.0)
            for _ in range(int(round(10.0 / dt))):
                z = step(dt, harmonic_rhs(), z)
            x, y = z.parts[0]
            errs[dt] = math.hypot(x - math.cos(-10.0), y - math.sin(-10.0))
        ratio = errs[0.1] / errs[0.05]
        assert 13.0 <= ratio <= 19.0

    def test_harmonic_energy_superconvergence(self):
        # rk4 preserves quadratic invariants one order better than its
        # trajectory order: |R(i theta)|^2 = 1 - theta^6/72, so halving dt
        # cuts the energy drift by ~2^5, not 2^4
        drifts = {}
        for dt in (0.1, 0.05):
            z = fd.finite_state(1.0, 0.0)
            for _ in range(int(round(10.0 / dt))):
                z = step(dt, harmonic_rhs(), z)
            x, y = z.parts[0]
            drifts[dt] = abs(0.5 * (x * x + y * y) - 0.5)
        ratio = drifts[0.1] / drifts[0.05]
        assert 28.0 <= ratio <= 36.0
        # and the absolute size matches E0 * T * theta^6 / (72 dt) to ~theta^2
        theta = 0.1
        predicted = 0.5 * 10.0 * theta**6 / (72.0 * theta)
        assert abs(drifts[0.1] - predicted) <= 0.05 * predicted

    def test_fd_orbit_matches_tiny_step_reference(self):
        H = fd.cubic_functional([0, 0, 0, 0.5, 0, 0.5, 0, 0, 0, 0], "harmonic")
        rhs = lambda s: fd.fd_rhs(s, H)

        def integrate_to(dt, t_end=1.0):
            z = fd.finite_state(1.0, 0.0)
            for _ in range(int(round(t_end / dt))):
                z = step(dt, rhs, z)
            return z.parts[0]

        coarse = integrate_to(1e-3)
        reference = integrate_to(1e-4)
        assert np.max(np.abs(coarse - reference)) <= 1e-8


class TestRunAndRecord:
    def test_empty_watch_records_times_only(self):
        series, zf = run_and_record(
            0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0), 1.0
        )
        assert series.labels == ()
        assert len(series.times) == 11
        assert zf.parts[0].shape == (2,)

    def test_output_stride(self):
        series, _ = run_and_record(
            0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0), 1.0,
            output_every=0.5,
        )
        assert series.times == [0.0, 0.5, 1.0]

    def test_nonintegral_output_every_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            run_and_record(
                0.01, harmonic_rhs(), fd.finite_state(1.0, 0.0), 0.1,
                output_every=0.015,
            )

    def test_output_every_below_dt_samples_every_step(self):
        series, _ = run_and_record(
            0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0), 0.5,
            output_every=0.04,
        )
        assert len(series.times) == 6

    def test_nonintegral_t_end_rejected(self):
        with pytest.raises(ValueError):
            run_and_record(
                0.3, harmonic_rhs(), fd.finite_state(1.0, 0.0), 1.0
            )

    def test_blowup_preserves_partial_series(self):
        calls = {"n": 0}

        def exploding(s):
            calls["n"] += 1
            if calls["n"] > 20:
                return State("finite", (np.array([np.inf, 0.0]),))
            return harmonic_rhs()(s)

        E = Functional("energy", lambda s: 0.5 * float(s.parts[0] @ s.parts[0]))
        with pytest.raises(IntegrationError) as info:
            run_and_record(
                0.1, exploding, fd.finite_state(1.0, 0.0), 10.0, watch=[E]
            )
        err = info.value
        assert err.step_index >= 1
        assert len(err.series.times) >= 1

    def test_tuple_label_gives_one_column_per_label(self):
        pair = Functional(("x", "y"), lambda s: tuple(float(c) for c in s.parts[0]))
        E = Functional("energy", lambda s: 0.5 * float(s.parts[0] @ s.parts[0]))
        series, zf = run_and_record(
            0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0), 0.4,
            watch=[pair, E], output_every=0.2,
        )
        assert series.labels == ("x", "y", "energy")
        assert series.values["x"][0] == 1.0 and series.values["y"][0] == 0.0
        assert (series.final("x"), series.final("y")) == tuple(zf.parts[0])
        assert len(series.values["energy"]) == len(series.times) == 3

    def test_determinism_bitwise(self):
        rng_state = 17

        def make_run():
            rng = np.random.default_rng(rng_state)
            z0 = vx.random_vortex_state(1, GRID, 4, rng, 0.8)
            H = vx.euler_energy(1)
            return run_and_record(
                1e-2, vx.vortex_rhs(1, H), z0, 0.5,
                watch=[H], output_every=0.1,
            )

        s1, zf1 = make_run()
        s2, zf2 = make_run()
        assert s1.values == s2.values and s1.times == s2.times
        assert np.array_equal(zf1.parts[0].values, zf2.parts[0].values)


class TestFailedAllocation:
    """A MemoryError in a step or a watcher ends the run as a numerical failure does."""

    @staticmethod
    def energy():
        return Functional("energy", lambda s: 0.5 * float(s.parts[0] @ s.parts[0]))

    def test_in_a_step_names_the_step_and_keeps_the_series(self):
        calls = {"n": 0}

        def hungry(s):
            calls["n"] += 1
            if calls["n"] > 20:  # the first RHS of step 6
                np.empty(1 << 60, dtype=np.uint8)
            return harmonic_rhs()(s)

        with pytest.raises(IntegrationError) as info:
            run_and_record(0.1, hungry, fd.finite_state(1.0, 0.0), 10.0,
                           watch=[self.energy()])
        err = info.value
        assert err.step_index == 6
        assert str(err).startswith("MemoryError at step 6 (t = 0.6): Unable to allocate")
        assert isinstance(err.__cause__, MemoryError)
        assert err.series.times == pytest.approx([0.1 * n for n in range(6)])
        _, z5 = run_and_record(0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0),
                               0.5)
        assert np.array_equal(err.last_state.parts[0], z5.parts[0])

    def test_in_a_watcher_names_the_step(self):
        def value(s):
            if s.parts[0][1] != 0.0:
                raise MemoryError("no room")
            return 0.0

        with pytest.raises(IntegrationError) as info:
            run_and_record(0.1, harmonic_rhs(), fd.finite_state(1.0, 0.0),
                           1.0, watch=[Functional("hungry", value)])
        assert info.value.step_index == 1
        assert str(info.value) == "MemoryError at step 1 (t = 0.1): no room"
        assert info.value.series.times == [0.0]


class TestDiagnosticSeries:
    def test_repeated_label_rejected(self):
        # both columns would append to one list, so later rows would read earlier samples
        with pytest.raises(ValueError, match="repeated label"):
            DiagnosticSeries(("energy", "energy"))

    def test_drift_metrics(self):
        s = DiagnosticSeries(("a", "b"))
        s.record(0.0, [2.0, 0.0])
        s.record(1.0, [2.5, 1e-9])
        assert s.drift("a") == (0.5, 0.25)
        assert s.drift("b") == (1e-9, 1e-9)  # zero initial: absolute fallback

    def test_times_strictly_increasing(self):
        s = DiagnosticSeries(("a",))
        s.record(0.0, [1.0])
        with pytest.raises(ValueError):
            s.record(0.0, [1.0])

    def test_csv_round_trip_exact(self, tmp_path):
        s = DiagnosticSeries(("val",))
        s.record(0.0, [1.0 / 3.0])
        s.record(0.1, [math.pi])
        path = tmp_path / "series.csv"
        s.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,val"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0
        assert float(lines[2].split(",")[1]) == math.pi


class TestFrequencyEstimate:
    def test_known_cosine(self):
        t = np.arange(0.0, 50.0, 0.05)
        omega = 0.7071067811865475
        v = 1e-4 * np.cos(omega * t)
        measured = estimate_frequency(t, v)
        assert abs(measured - omega) / omega <= 1e-4

    def test_too_few_crossings(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            estimate_frequency(t, np.cos(0.5 * t))
