"""casimirlab benchmark: preset workloads timed end to end, or traced layer by layer.

Run from the root of a casimirlab checkout (numpy is the only dependency):

    python3 perfbench/run.py --workload vortex-hierarchy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list          # every metric, its unit and what it moves

One client in a closed loop: each workload run is a fresh interpreter
(child.py) that imports casimirlab from ./src, parses its preset configs and
runs them through ``cli.run_preset``; the next run starts when the previous
one has ended.  BLAS and OpenMP threads are pinned to 1, so a run uses one
core.  Runs repeat while the next one is expected to end within half a run
of ``--seconds``.  Untraced, interpreters that stop once the configs are
parsed then bring the set-up samples up to nine, so that long workload runs
still give a steady median ``setup_s``; they count as attempts.

``--trace 0`` reports the end-to-end metrics as medians over the runs.  The
run's time is reported as ``run_refs``: its seconds divided by the mean time
of a fixed reference kernel that reference.py samples every ~0.2 s through
the same run, on the same core, which cancels the drift of a shared host's
speed.  The wall seconds (sampling left out) and the reference's time are
printed beside it and kept in the report.
``--trace 1`` alternates untraced and traced runs (at least two traced); the
traced runs wrap each module's public functions.  It reports the per-layer
metrics, checks that the traced runs repeat every exact work count, and
reports the tracing overhead as the median ratio of each traced run's
run_refs to that of the untraced run just before it.

A run fails if a preset exits nonzero, a preset check fails, an exception
escapes, or a CSV it writes differs byte for byte from the first run's.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A report with every sample, the environment and the
span self-times is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, listing
from workloads import DEFAULT_SEED, WORKLOADS, preset_runs

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
TOTAL_LIMIT_S = 170.0  # every run of the harness ends within this, children included
MIN_TRACED = 2  # exact counts must repeat between two traced runs
MIN_SETUPS = 9  # set-up-only children top up setup_s to this many samples


def run_child(presets, trace: bool, out_dir: Path, timeout: float, setup_only: bool = False):
    """Start one workload run in a fresh interpreter; return (result or None, error or None)."""
    env = dict(os.environ) | PINNED_ENV
    spec = {"presets": presets, "out_dir": str(out_dir), "trace": trace,
            "setup_only": setup_only, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"TimeoutExpired: run took longer than {timeout:.0f} s"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"child exited {proc.returncode}: {tail}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def run_failure(result: dict | None, error: str | None, reference: dict | None) -> str | None:
    """Why one workload run failed, or None if it passed."""
    if result is None:
        return error
    for o in result["outcomes"]:
        if o["error"] is not None:
            return f"{o['preset']}: {o['error']}"
        if o["rc"] != 0 or not o["pass"]:
            return f"{o['preset']}: exit {o['rc']}, a preset check failed"
    if reference is not None:
        for o, ref in zip(result["outcomes"], reference["outcomes"]):
            if o["csv_sha256"] != ref["csv_sha256"]:
                return f"{o['preset']}: CSV bytes differ from the first run"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {DEFAULT_SEED} keeps each preset's default seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    ap.add_argument("--list", action="store_true", help="print every metric and exit")
    args = ap.parse_args(argv)

    if args.list:
        print(listing())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not Path("src/casimirlab/__init__.py").is_file():
        print("perfbench: no casimirlab sources at ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    presets = preset_runs(args.workload, args.seed, args.toy)
    WORK_DIR.mkdir(exist_ok=True)
    runs = []  # (traced, result, failure)
    reference = None
    while True:
        elapsed = time.monotonic() - t_start
        trace_this = bool(args.trace) and len(runs) % 2 == 1
        n_traced = sum(t for t, _, _ in runs)
        done = [r["wall"] for _, r, _ in runs if r is not None]
        next_s = statistics.mean(done) if done else 0.0
        needed = not runs or (args.trace and n_traced < MIN_TRACED)
        if not needed and elapsed + next_s / 2 > args.seconds:
            break
        if elapsed + next_s > TOTAL_LIMIT_S:
            break
        out_dir = WORK_DIR / f"out-{os.getpid()}-{len(runs)}"
        t0 = time.monotonic()
        result, error = run_child(presets, trace_this, out_dir, TOTAL_LIMIT_S - elapsed)
        if result is not None:
            result["wall"] = time.monotonic() - t0
        failure = run_failure(result, error, reference)
        if reference is None and result is not None:
            reference = result
        runs.append((trace_this, result, failure))
        if failure:
            print(f"run {len(runs)} failed: {failure}", file=sys.stderr)

    untraced = [r for t, r, _ in runs if not t and r is not None]
    traced = [r for t, r, _ in runs if t and r is not None]
    setups = [r["setup_s"] for r in untraced]
    setup_failures = []
    while not args.trace and untraced and len(setups) < MIN_SETUPS:
        elapsed = time.monotonic() - t_start
        if elapsed + 5.0 > TOTAL_LIMIT_S:
            break
        out_dir = WORK_DIR / f"out-{os.getpid()}-setup{len(setups)}"
        result, error = run_child(presets, False, out_dir, TOTAL_LIMIT_S - elapsed, True)
        if result is None:
            setup_failures.append(error)
            print(f"set-up run failed: {error}", file=sys.stderr)
            break
        setups.append(result["setup_s"])

    attempted = len(runs) + len(setups) - len(untraced) + len(setup_failures)
    failed = sum(1 for _, _, f in runs if f) + len(setup_failures)
    if not untraced or (args.trace and not traced):
        print("perfbench: no run completed", file=sys.stderr)
        return 1

    correct = failed == 0
    metrics, counts, notes = {}, {}, []
    if args.trace:
        for m in PER_LAYER:
            if m.name == "trace.overhead_share":
                values = [
                    t[1]["run_refs"] / u[1]["run_refs"] - 1.0
                    for u, t in zip(runs[::2], runs[1::2])
                    if u[1] is not None and t[1] is not None
                ] or [0.0]
            else:
                values = [r["layers"][m.name] for r in traced]
            if m.exact and len(set(values)) > 1:
                correct = False
                notes.append(f"{m.name} differs between traced runs: {values}")
            metrics[m.name] = (values[0] if m.exact else statistics.median(values), m.unit)
            counts[m.name] = len(values)
    else:
        for m in END_TO_END:
            if m.name == "pass_share":
                values = [(attempted - failed) / attempted]
            elif m.name == "setup_s":
                values = setups
            else:
                values = [r[m.name] for r in untraced]
            metrics[m.name] = (statistics.median(values), m.unit)
            counts[m.name] = len(values)

    env = untraced[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {attempted}  failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:9s} n={counts[name]}")
    for name, unit in (("run_s", "s"), ("ref_ms", "ms")):
        value = statistics.median(r[name] for r in untraced)
        print(f"  untraced {name:27s} {value:14.6g} {unit:9s} n={len(untraced)} (not a metric)")
    if traced:
        print("span self-times of the first traced run (name, calls, total s, self s):")
        for name, row in sorted(traced[0]["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:34s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for preset, row in traced[0]["per_preset"].items():
            print(f"  {preset:16s} steps {row['steps']:6d}  step_ms p50 {row['step_ms_p50']:.4f}"
                  f"  p99 {row['step_ms_p99']:.4f}")
    for note in notes:
        print("exact count mismatch: " + note, file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "presets": presets, "env": env,
        "runs": [{"traced": t, "failure": f, "result": r} for t, r, f in runs],
        "setup_s": setups, "setup_failures": setup_failures,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    report_path = WORK_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
