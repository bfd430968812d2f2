"""The benchmark's workloads: which presets one workload run executes, and how long.

Each workload run drives ``cli.parse_config`` then ``cli.run_preset`` for its
presets in order, in one fresh interpreter.  Only run length (``t_end``) is
changed from the preset defaults; grids, time steps and initial data stay as
the presets define them.  The workload seed is passed as ``seed`` to the
presets that draw their initial data from it; the default seed leaves each
preset's own default seed in place.
"""

from __future__ import annotations

DEFAULT_SEED = 0

# presets whose initial data come from a random generator seeded by `seed`
SEEDED = frozenset({"euler2d", "phantom3", "finitedim"})

WORKLOADS = {
    # One preset per hierarchy level, at 64^2: J1 (euler2d), J2 with all three
    # brackets live because the flux enters the Hamiltonian (rmhd2d), and J3
    # (phantom3).  Nearly all time is bracket2d, the 2-D FFTs and the vortex
    # applies; ion_kdv and finitedim do no work.  A fused J2/J3 apply or an
    # array-backed State should show here.
    "vortex-hierarchy": {
        "presets": [
            ("euler2d", ("t_end=2.0",)),
            ("rmhd2d", ("t_end=0.2",)),
            ("phantom3", ("t_end=1.0",)),
        ],
        "toy": [
            ("euler2d", ("grid.n=16", "t_end=0.1")),
            ("rmhd2d", ("grid.n=16", "dt=0.01", "t_end=0.1")),
            ("phantom3", ("grid.n=16", "t_end=0.1")),
        ],
    },
    # No vortex code and no 2-D FFT.  First the Poisson-Boltzmann closure:
    # solve_phi's dense Newton solve dominates ionacoustic1d (from the RHS and
    # from the ion_energy watcher); t_end must leave the k = 1 mode three zero
    # crossings or estimate_frequency raises ValueError, and at t_end 15 and 16
    # the dispersion check misses its 1e-2 bound.  Then small arrays and many
    # steps, where per-step interpreter overhead dominates and State/Field
    # arithmetic is mostly bypassed: finitedim's own RK4 loop on (2, 50)
    # arrays, and IF-RK4 KdV at n = 512.  A stepper that helps the vortex
    # workload but costs more per step regresses here.  These were two
    # workloads; they share one so that each run can be longer, which the
    # drifting throughput of a small shared machine needs for steady medians.
    "ion-small-state": {
        "presets": [
            ("ionacoustic1d", ("t_end=14.0",)),
            ("finitedim", ()),
            ("kdv_soliton", ()),
        ],
        "toy": [
            ("ionacoustic1d", ("grid.n=16", "dt=0.05", "t_end=14.0")),
            ("finitedim", ("t_end=0.2",)),
            ("kdv_soliton", ("grid.n=128", "t_end=0.1")),
        ],
    },
}


def preset_runs(workload: str, seed: int, toy: bool = False) -> list[tuple[str, list[str]]]:
    """(preset, --set overrides) for each preset of one workload run."""
    runs = []
    for preset, sets in WORKLOADS[workload]["toy" if toy else "presets"]:
        sets = list(sets)
        if preset in SEEDED and seed != DEFAULT_SEED:
            sets.append(f"seed={seed}")
        runs.append((preset, sets))
    return runs
