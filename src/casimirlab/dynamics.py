"""Time integration and invariant-drift bookkeeping shared by all systems.

Explicit classical RK4 is the one general scheme; 'if_rk4' dispatches to the
integrating-factor KdV stepper.  The spatial discretization is what preserves
Casimirs; the temporal drift of conserved functionals is controlled by the
O(dt^4) convergence tests, not by exact conservation.

A state is a ``State`` or a bare float ndarray: the RK4 stages only add
states and scale them by floats, so a batch of independent trajectories
steps as one array without a wrapper per operation.  Two
presets do so: finitedim's orbits as one (2, m) array of points, and
ionacoustic1d's modes as one (2, m, n) array of (rho, V) rows.  Every
operation on such a batch is member by member, so each member's trajectory
is bitwise the one it would have alone; the batch fails at the first step
at which any member fails.  A watcher may read a whole batch: its label is
then a tuple of labels and its value one value per label (ionacoustic1d's
one watcher gives every member's values from one closure solve), and the
series has one column per label.

Three rules that the front door shares with the time loop live here once:
``write_csv`` prints every CSV the package writes (floats with 17
significant digits), ``sample_stride`` turns output_every into steps between
samples, and ``failure_name`` names an exception in a failure record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ion_kdv
from .field_core import BlowupError, NumericalFailure
from .poisson import Functional, State


class IntegrationError(RuntimeError):
    """A numerical failure mid-run; carries the partial series and the failing step."""

    def __init__(self, message: str, series: "DiagnosticSeries", step_index: int, last_state: State):
        super().__init__(message)
        self.series = series
        self.step_index = step_index
        self.last_state = last_state


@dataclass(frozen=True)
class Integrator:
    scheme: str = "rk4"
    dt: float = 1e-2

    def __post_init__(self):
        if self.scheme not in ("rk4", "if_rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def step(integ: Integrator, rhs: Callable | None, z: State | np.ndarray) -> State | np.ndarray:
    """One explicit step; raises a NumericalFailure on non-finite output.

    Stage sums of synthesized fields stay in spectral space (field_core.Field);
    the output is checked once: a State by `State.from_values`, which reads its
    parts' values (and checks them finite) once per step, so a step is a
    function of its input's values alone; a bare array by one isfinite test.
    """
    dt = integ.dt
    if integ.scheme == "if_rk4":
        if z.kind != "kdv":
            raise ValueError("if_rk4 integrates the KdV system only")
        return State("kdv", (ion_kdv.kdv_if_rk4_step(z.parts[0], dt),))
    k1 = rhs(z)
    k2 = rhs(z + (0.5 * dt) * k1)
    k3 = rhs(z + (0.5 * dt) * k2)
    k4 = rhs(z + dt * k3)
    out = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if isinstance(out, State):
        return out.from_values()
    if not np.isfinite(out).all():
        raise BlowupError("non-finite state after step")
    return out


@dataclass
class DiagnosticSeries:
    """Time-indexed records of watched functionals, serializable to CSV."""

    labels: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"repeated label in {self.labels}: each records into its own column")
        for lab in self.labels:
            self.values.setdefault(lab, [])

    def record(self, t: float, vals: Sequence[float]):
        if self.times and t <= self.times[-1]:
            raise ValueError("times must be strictly increasing")
        self.times.append(t)
        for lab, v in zip(self.labels, vals):
            self.values[lab].append(float(v))

    def initial(self, label: str) -> float:
        return self.values[label][0]

    def final(self, label: str) -> float:
        return self.values[label][-1]

    def drift(self, label: str) -> tuple[float, float]:
        """(max absolute drift from the initial value, relative version).

        The relative drift divides by |initial| when that is nonzero and
        falls back to the absolute drift otherwise.
        """
        series = self.values[label]
        v0 = series[0]
        abs_drift = max(abs(v - v0) for v in series)
        rel_drift = abs_drift / abs(v0) if v0 != 0.0 else abs_drift
        return abs_drift, rel_drift

    def to_csv(self, path):
        write_csv(path, ("t", *self.labels),
                  zip(self.times, *(self.values[lab] for lab in self.labels)))


def write_csv(path, header: Sequence[str], rows):
    """Write a header line and one line per row: floats with 17 significant
    digits, so a value round-trips exactly and a rerun is byte-identical; any
    other cell as its str."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in (header, *rows):
            cells = (f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that reach t_end; ValueError unless it is whole."""
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"{t_end:g} is not a whole number of dt = {dt:g} steps")
    return n_steps


def sample_stride(output_every: float | None, dt: float) -> int:
    """Steps between samples: an output_every of at most dt (or None) samples
    every step; a longer one must be a whole number of dt steps (ValueError)."""
    return 1 if output_every is None or output_every <= dt else step_count(output_every, dt)


def failure_name(exc: BaseException) -> str:
    """The name a failure record gives exc: numpy raises a MemoryError
    subclass whose own name is private, so any MemoryError is MemoryError."""
    return "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__


def _labels(watch: Sequence[Functional]) -> tuple[str, ...]:
    """The series columns of the watched functionals: a tuple label gives one per entry."""
    return tuple(lab for f in watch
                 for lab in (f.label if isinstance(f.label, tuple) else (f.label,)))


def _sample(watch: Sequence[Functional], z) -> list[float]:
    """The watched values at z, one per column of `_labels(watch)`."""
    values = []
    for f in watch:
        if isinstance(f.label, tuple):
            values.extend(f.value(z))
        else:
            values.append(f.value(z))
    return values


class Trajectory:
    """The time loop: iterating it steps z0 to t_end and yields each new state.

    The watched functionals are sampled into ``series`` at t = 0, every
    ``output_every`` and at t_end; ``state`` is the latest state.  A
    functional whose label is a tuple gives one value per label, each in its
    own column.  An ``output_every`` longer than dt must be a whole number of
    dt steps (ValueError otherwise); one of at most dt samples every step.
    z0 may be a tuple of states that one rhs steps in lockstep, in which case
    the watched functionals receive the tuple.  A NumericalFailure in a step or
    in a watched functional becomes an IntegrationError carrying the partial
    series and the index of the failing step; so does a MemoryError, a failed
    allocation, whose message names it MemoryError.
    """

    def __init__(self, integ: Integrator, rhs, z0, t_end: float,
                 watch: Sequence[Functional] = (), output_every: float | None = None):
        self.integ, self.rhs, self.watch = integ, rhs, tuple(watch)
        self.n_steps = step_count(t_end, integ.dt)
        self.stride = sample_stride(output_every, integ.dt)
        self.series = DiagnosticSeries(_labels(self.watch))
        self.state = z0

    def __iter__(self):
        integ, rhs, z = self.integ, self.rhs, self.state
        n = 0
        try:
            self.series.record(0.0, _sample(self.watch, z))
            for n in range(1, self.n_steps + 1):
                if isinstance(z, tuple):
                    z = tuple(step(integ, rhs, member) for member in z)
                else:
                    z = step(integ, rhs, z)
                self.state = z
                if n % self.stride == 0 or n == self.n_steps:
                    self.series.record(n * integ.dt, _sample(self.watch, z))
                yield z
        except (NumericalFailure, MemoryError) as exc:
            raise IntegrationError(
                f"{failure_name(exc)} at step {n} (t = {n * integ.dt:g}): {exc}",
                self.series, n, self.state,
            ) from exc


def run_and_record(
    integ: Integrator,
    rhs: Callable[[State], State] | None,
    z0: State,
    t_end: float,
    watch: Sequence[Functional] = (),
    output_every: float | None = None,
) -> tuple[DiagnosticSeries, State]:
    """Integrate to t_end, sampling the watched functionals.

    On a numerical failure raises IntegrationError carrying the partial
    series and the index of the failing step.
    """
    run = Trajectory(integ, rhs, z0, t_end, watch, output_every)
    for _ in run:
        pass
    return run.series, run.state


def estimate_frequency(times: Sequence[float], values: Sequence[float]) -> float:
    """Oscillation frequency from linearly interpolated zero crossings.

    Needs at least three crossings of the demeaned signal; accuracy is set
    by the sampling stride, not the run length.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    v = v - np.mean(v)
    i = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]  # the sample before each crossing
    if i.size < 3:
        raise ValueError("too few zero crossings to estimate a frequency")
    crossings = t[i] + v[i] / (v[i] - v[i + 1]) * (t[i + 1] - t[i])
    gaps = np.diff(crossings)
    return math.pi / float(np.mean(gaps))
