"""Span and counter recording for the traced benchmark run.

The tracer wraps the public functions of each casimirlab module from the
outside, by rebinding the name where its caller looks it up (``vortex``
imports ``bracket2d`` by name, so both ``vortex.bracket2d`` and
``field_core.bracket2d`` are wrapped).  Nothing in ``src/`` is edited.

Spans hold (name, start, end, parent index, preset) and stay in memory
until the run ends.  There is one thread and no queue, so no layer waits on another:
the tracer records busy time and exact work counts, never wait time.
The numpy FFT entry points and ``numpy.linalg.solve`` are called tens of
thousands of times per run, so they get counters and summed time instead
of spans.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# RHS evaluations hidden inside one integrating-factor RK4 step: its four
# stages evaluate the nonlinear term in a closure the tracer cannot wrap.
IF_RK4_STAGES = 4


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, preset]
        self._stack: list[int] = []
        self.active: Counter = Counter()  # names of the spans now open
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.preset = ""
        # one entry per solve_phi call: (iterations, residual, from an RHS, preset)
        self.solves: list[tuple[int, float, bool, str]] = []
        self.d2_bytes = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span called name."""
        spans, stack, active = self.spans, self._stack, self.active

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.preset])
            stack.append(idx)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def in_rhs(self) -> bool:
        return bool(self.active["poisson.rhs"] or self.active["ion_kdv.kdv_if_rk4_step"])

    def _count_fft(self, kind, fn):
        counts, times = self.counts, self.times

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[kind] += perf_counter() - t0
                counts[kind] += 1
                if self.in_rhs():
                    counts[kind + "_rhs"] += 1

        return counted

    def _count_allocs(self, cls, key):
        original = cls.__post_init__
        counts, active = self.counts, self.active

        def post_init(obj):
            original(obj)
            if active["dynamics.step"]:
                counts[key] += 1

        cls.__post_init__ = post_init

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced name.  Call before any config is parsed."""
        import numpy as np

        from casimirlab import cli, dynamics, field_core, finitedim, ion_kdv, poisson, vortex

        w = self.wrap
        ffts = (("rfft2", "fft2"), ("irfft2", "fft2"), ("rfft", "fft1"), ("irfft", "fft1"))
        for name, kind in ffts:
            setattr(np.fft, name, self._count_fft(kind, getattr(np.fft, name)))
        np.linalg.solve = self._count_fft("linalg_solve", np.linalg.solve)

        self._count_allocs(field_core.Field1D, "field_allocs")
        self._count_allocs(field_core.Field2D, "field_allocs")
        self._count_allocs(poisson.State, "state_allocs")

        bracket = w("field_core.bracket2d", field_core.bracket2d)
        field_core.bracket2d = bracket
        vortex.bracket2d = bracket
        for name in ("apply_j1", "apply_j2", "apply_j3"):
            setattr(vortex, name, w(f"vortex.{name}", getattr(vortex, name)))
        for name in ("euler_energy", "rmhd_energy"):
            setattr(vortex, name, self._traced_hamiltonian(getattr(vortex, name)))

        traced_step = w("dynamics.step", dynamics.step)

        def step_with_rhs(integ, rhs, z):
            if rhs is None:
                self.counts["rhs_calls"] += IF_RK4_STAGES
            else:
                rhs = self._counted_rhs(rhs)
            self.counts["steps"] += 1
            return traced_step(integ, rhs, z)

        dynamics.step = step_with_rhs
        dynamics.run_and_record = w("dynamics.run_and_record", dynamics.run_and_record)

        ion_kdv.solve_phi = self._traced_solve_phi(ion_kdv.solve_phi)
        ion_kdv.kdv_if_rk4_step = w("ion_kdv.kdv_if_rk4_step", ion_kdv.kdv_if_rk4_step)

        finitedim.simulate_plane_orbits = w(
            "finitedim.simulate_plane_orbits", finitedim.simulate_plane_orbits
        )
        finitedim.closedness_residual = w(
            "finitedim.closedness_residual", finitedim.closedness_residual
        )

        cli.parse_config = w("cli.parse_config", cli.parse_config)
        cli.run_preset = w("cli.run_preset", cli.run_preset)
        for name, spec in list(cli.PRESETS.items()):
            runner = self._traced_runner(name, spec.runner)
            cli.PRESETS[name] = dataclasses.replace(spec, runner=runner)

    def _counted_rhs(self, rhs):
        traced = self.wrap("poisson.rhs", rhs)

        def counted(z):
            self.counts["rhs_calls"] += 1
            return traced(z)

        return counted

    def _traced_hamiltonian(self, factory):
        wrap = self.wrap

        def make(*args, **kwargs):
            H = factory(*args, **kwargs)
            return dataclasses.replace(H, gradient=wrap("vortex.grad_h", H.gradient))

        return make

    def _traced_solve_phi(self, solve_phi):
        traced = self.wrap("ion_kdv.solve_phi", solve_phi)

        def solve(rho, *args, **kwargs):
            out = traced(rho, *args, **kwargs)
            self.solves.append((out.iterations, out.residual, self.in_rhs(), self.preset))
            self.d2_bytes = max(self.d2_bytes, rho.grid.n * rho.grid.n * 8)
            return out

        return solve

    def _traced_runner(self, preset, runner):
        traced = self.wrap("cli.runner", runner)

        def run(cfg):
            self.preset = preset
            try:
                return traced(cfg)
            finally:
                self.preset = ""

        return run

    # -- reduction ---------------------------------------------------------

    def durations(self, name, preset=None) -> list[float]:
        return [
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and (preset is None or s[4] == preset)
        ]

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds (minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict = {}
        for s, c in zip(self.spans, child):
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += s[2] - s[1] - c
        return out

    def metrics(self) -> dict:
        """The per-layer metrics of one traced run (see metrics.py)."""
        c = self.counts
        steps = c["steps"]
        rhs = c["rhs_calls"]
        solves = self.solves
        solving = {p for *_, p in solves}
        solving_steps = sum(1 for s in self.spans if s[0] == "dynamics.step" and s[4] in solving)
        runner_s = sum(self.durations("cli.runner"))
        stepping = {s[4] for s in self.spans if s[0] == "dynamics.step"}
        stepping_runner = sum(
            s[2] - s[1] for s in self.spans if s[0] == "cli.runner" and s[4] in stepping
        )
        step_s = sum(self.durations("dynamics.step"))
        step_ms = sorted(d * 1e3 for d in self.durations("dynamics.step"))
        run_preset_s = sum(self.durations("cli.run_preset"))
        return {
            "field_core.fft2_per_rhs": _ratio(c["fft2_rhs"], rhs),
            "field_core.fft2_s": self.times["fft2"],
            "field_core.bracket2d_us": _p50(self.durations("field_core.bracket2d")) * 1e6,
            "field_core.fft1_per_rhs": _ratio(c["fft1_rhs"], rhs),
            "field_core.field_allocs_per_step": _ratio(c["field_allocs"], steps),
            "poisson.state_allocs_per_step": _ratio(c["state_allocs"], steps),
            "poisson.rhs_calls_per_step": _ratio(rhs, steps),
            "vortex.apply_j1_us": _p50(self.durations("vortex.apply_j1")) * 1e6,
            "vortex.apply_j2_us": _p50(self.durations("vortex.apply_j2")) * 1e6,
            "vortex.apply_j3_us": _p50(self.durations("vortex.apply_j3")) * 1e6,
            "vortex.grad_h_us": _p50(self.durations("vortex.grad_h")) * 1e6,
            "dynamics.step_ms_p50": _p50(step_ms),
            "dynamics.step_ms_p99": _quantile(step_ms, 0.99),
            "dynamics.steps": steps,
            "dynamics.watch_share": _ratio(stepping_runner - step_s, stepping_runner),
            "ion_kdv.solve_phi_ms": _p50(self.durations("ion_kdv.solve_phi")) * 1e3,
            "ion_kdv.solve_phi_per_step": _ratio(len(solves), solving_steps),
            "ion_kdv.watch_solve_share": _ratio(sum(not s[2] for s in solves), len(solves)),
            "ion_kdv.newton_iters_mean": _ratio(sum(s[0] for s in solves), len(solves)),
            "ion_kdv.newton_iters_max": max((s[0] for s in solves), default=0),
            "ion_kdv.newton_residual_max": max((s[1] for s in solves), default=0.0),
            "ion_kdv.linalg_solve_s": self.times["linalg_solve"],
            "ion_kdv.d2_matrix_bytes": self.d2_bytes,
            "ion_kdv.if_rk4_step_us": _p50(self.durations("ion_kdv.kdv_if_rk4_step")) * 1e6,
            "finitedim.orbits_s": _p50(self.durations("finitedim.simulate_plane_orbits")),
            "finitedim.closedness_ms": _p50(self.durations("finitedim.closedness_residual")) * 1e3,
            "cli.parse_config_ms": sum(self.durations("cli.parse_config")) * 1e3,
            "cli.runner_s": runner_s,
            "cli.write_ms": (run_preset_s - runner_s) * 1e3,
        }

    def per_preset(self) -> dict:
        """Step-time percentiles for each preset that steps through dynamics.step."""
        out = {}
        for preset in sorted({s[4] for s in self.spans if s[0] == "dynamics.step"}):
            ms = sorted(d * 1e3 for d in self.durations("dynamics.step", preset))
            out[preset] = {
                "steps": len(ms),
                "step_ms_p50": _p50(ms),
                "step_ms_p99": _quantile(ms, 0.99),
            }
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(sorted_values, q) -> float:
    """Nearest-rank quantile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
