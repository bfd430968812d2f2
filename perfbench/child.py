"""One workload run in a fresh interpreter.

Usage (normally started by run.py): ``python3 perfbench/child.py SPEC_JSON``
from the root of a casimirlab checkout.  SPEC_JSON holds ``presets`` (a list
of [preset, [--set overrides]]), ``out_dir``, ``trace``, ``setup_only``
(stop once the configs are parsed and report only ``setup_s``) and
``t_spawn`` (the parent's ``time.monotonic()`` just before it started this
process).

The child imports casimirlab from ``src/``, parses and validates every
preset config, runs the presets with ``cli.run_preset``, and prints one JSON
line: set-up and run seconds, the run's time in reference-kernel times
(``reference.py`` samples the core's speed during the run and its time is
left out of the run's), peak resident memory, each preset's outcome
and the sha256 of every CSV it wrote, the environment fingerprint, and, when
traced, the per-layer metrics.  An exception escaping a preset is recorded
with its type and the remaining presets still run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def environment() -> dict:
    """What the numbers and bit-reproducibility of a run depend on."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": np.fft.rfft.__module__ + " (pocketfft)",
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _csv_digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def main(spec: dict) -> dict:
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    from casimirlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"casimirlab imported from {cli.__file__}, not from {src}")

    # bind numpy's functions for the reference kernel before the tracer wraps them
    from reference import Sampler, kernel

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_root = Path(spec["out_dir"])
    cfgs = [
        cli.parse_config(preset=preset, sets=tuple(sets), out_dir_flag=str(out_root / preset))
        for preset, sets in spec["presets"]
    ]
    setup_s = time.monotonic() - spec["t_spawn"]
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    kernel()  # warm up the reference kernel (FFT plans, BLAS buffers)
    sampler = Sampler()
    sampler.sample()
    outcomes = []
    t0, cpu0 = time.perf_counter(), time.process_time()
    with sampler:
        for cfg in cfgs:
            outcome = {"preset": cfg.preset, "rc": None, "error": None}
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outcome["rc"] = cli.run_preset(cfg)
            except Exception as exc:  # a failed preset is counted, not fatal
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcomes.append(outcome)
    run_s = time.perf_counter() - t0 - sampler.spent
    cpu_s = time.process_time() - cpu0 - sampler.spent
    sampler.sample()
    ref_s = sum(sampler.samples) / len(sampler.samples)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    csv_bytes = 0
    for outcome, cfg in zip(outcomes, cfgs):
        out_dir = Path(cfg.out_dir)
        summary = out_dir / "summary.json"
        outcome["pass"] = summary.exists() and json.loads(summary.read_text())["pass"] is True
        outcome["csv_sha256"] = _csv_digests(out_dir)
        csv_bytes += sum(p.stat().st_size for p in out_dir.glob("*.csv"))

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "ref_ms": ref_s * 1e3,
        "ref_samples": len(sampler.samples),
        "run_refs": run_s / ref_s,
        "peak_rss_mib": peak_rss_mib,
        "outcomes": outcomes,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics() | {"cli.csv_bytes": csv_bytes}
        result["per_preset"] = tracer.per_preset()
        result["self_times"] = tracer.self_times()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
