"""Every metric the benchmark reports: name, unit, direction, and what it should move.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer metrics
from traced runs (``--trace 1``).  For each per-layer metric, ``moves`` names
the end-to-end metric it should move and ``on`` the workloads where it does;
on the other workloads its layer does no work and it reads 0.  ``exact``
marks work counts that two traced runs must repeat exactly.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    what: str
    moves: str = ""
    on: str = ""
    exact: bool = False
    bound: float | None = None


VH, IS = "vortex-hierarchy", "ion-small-state"
ALL = f"{VH}, {IS}"

END_TO_END = [
    Metric("run_refs", "refs", "lower",
           "median time of one workload run, parsed config to every artifact written, in "
           "times of the reference kernel sampled through the same run (reference.py)",
           bound=0.2),
    Metric("setup_s", "s", "lower",
           "median seconds from process start to casimirlab imported and every config parsed",
           bound=0.25),
    Metric("peak_rss_mib", "MiB", "lower",
           "median peak resident memory of the run's process", bound=0.1),
    Metric("pass_share", "fraction", "higher",
           "runs that passed every check with identical CSVs over runs attempted (1 - fail_share)",
           bound=0.01),
]

PER_LAYER = [
    Metric("field_core.fft2_per_rhs", "count", "lower", "2-D FFTs per RHS evaluation",
           "run_refs", VH, exact=True),
    Metric("field_core.fft2_s", "s", "lower", "seconds per run inside 2-D FFTs",
           "run_refs", VH),
    Metric("field_core.bracket2d_us", "us", "lower", "bracket2d, median microseconds per call",
           "run_refs", VH),
    Metric("field_core.fft1_per_rhs", "count", "lower",
           "1-D FFTs per RHS evaluation (an IF-RK4 step counts as 4 evaluations)",
           "run_refs", IS, exact=True),
    Metric("field_core.field_allocs_per_step", "count", "lower",
           "Field1D/Field2D constructions inside dynamics.step, per step",
           "run_refs", ALL, exact=True),
    Metric("poisson.state_allocs_per_step", "count", "lower",
           "State constructions inside dynamics.step, per step",
           "run_refs", ALL, exact=True),
    Metric("poisson.rhs_calls_per_step", "count", "lower",
           "RHS evaluations per dynamics.step call (guard: 4 under RK4)",
           "run_refs", ALL, exact=True),
    Metric("vortex.apply_j1_us", "us", "lower", "J1 apply, median microseconds per call",
           "run_refs", VH),
    Metric("vortex.apply_j2_us", "us", "lower", "J2 apply, median microseconds per call",
           "run_refs", VH),
    Metric("vortex.apply_j3_us", "us", "lower", "J3 apply, median microseconds per call",
           "run_refs", VH),
    Metric("vortex.grad_h_us", "us", "lower",
           "Hamiltonian gradient, median microseconds per call", "run_refs", VH),
    Metric("dynamics.step_ms_p50", "ms", "lower",
           "dynamics.step, median milliseconds per step (per preset in the report file)",
           "run_refs", ALL),
    Metric("dynamics.step_ms_p99", "ms", "lower",
           "dynamics.step, 99th percentile milliseconds per step", "run_refs", ALL),
    Metric("dynamics.steps", "count", "higher",
           "dynamics.step calls per run (guard on run length)", "run_refs", ALL, exact=True),
    Metric("dynamics.watch_share", "fraction", "lower",
           "share of runner time outside dynamics.step (watchers, sampling, set-up, checks), "
           "over presets that step through dynamics.step",
           "run_refs", ALL),
    Metric("ion_kdv.solve_phi_ms", "ms", "lower", "solve_phi, median milliseconds per call",
           "run_refs", IS),
    Metric("ion_kdv.solve_phi_per_step", "count", "lower",
           "solve_phi calls (RHS and watchers) per dynamics.step call, over presets that solve",
           "run_refs", IS, exact=True),
    Metric("ion_kdv.watch_solve_share", "fraction", "lower",
           "solve_phi calls made outside an RHS evaluation over all solve_phi calls",
           "run_refs", IS, exact=True),
    Metric("ion_kdv.newton_iters_mean", "count", "lower",
           "mean PhiSolve.iterations per solve_phi call", "run_refs", IS, exact=True),
    Metric("ion_kdv.newton_iters_max", "count", "lower",
           "largest PhiSolve.iterations", "run_refs", IS, exact=True),
    Metric("ion_kdv.newton_residual_max", "max-norm", "lower",
           "largest final PhiSolve.residual (must stay <= 1e-12)", "pass_share", IS, exact=True),
    Metric("ion_kdv.linalg_solve_s", "s", "lower", "seconds per run inside numpy.linalg.solve",
           "run_refs", IS),
    Metric("ion_kdv.d2_matrix_bytes", "bytes", "lower",
           "dense d2 matrix size, computed as n^2 * 8 for the largest grid solved",
           "peak_rss_mib", IS, exact=True),
    Metric("ion_kdv.if_rk4_step_us", "us", "lower",
           "kdv_if_rk4_step, median microseconds per call", "run_refs", IS),
    Metric("finitedim.orbits_s", "s", "lower",
           "simulate_plane_orbits, median seconds per call", "run_refs", IS),
    Metric("finitedim.closedness_ms", "ms", "lower",
           "closedness_residual, median milliseconds per call", "run_refs", IS),
    Metric("cli.parse_config_ms", "ms", "lower",
           "milliseconds per run in parse_config, all presets", "setup_s", ALL),
    Metric("cli.runner_s", "s", "lower", "seconds per run in the preset runners",
           "run_refs", ALL),
    Metric("cli.write_ms", "ms", "lower",
           "milliseconds per run in run_preset outside the runner (artifact writing)",
           "run_refs", ALL),
    Metric("cli.csv_bytes", "bytes", "lower", "bytes of CSV written per run",
           "run_refs", ALL, exact=True),
    Metric("trace.overhead_share", "fraction", "lower",
           "median of traced run_refs over the preceding untraced run_refs, minus 1", "", ALL),
]


def listing() -> str:
    """One line per metric: name, unit, better, what, and what it should move where."""
    lines = []
    for kind, table in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        lines.append(f"# {kind}")
        for m in table:
            if m.bound is not None:
                extra = f"bound {m.bound}"
            else:
                extra = f"moves {m.moves or '-'} on {m.on}"
            tag = " [exact]" if m.exact else ""
            lines.append(f"{m.name:36s} {m.unit:9s} {m.better:6s} {m.what}; {extra}{tag}")
    return "\n".join(lines)
