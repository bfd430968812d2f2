"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
Each workload runs once untraced and once traced; every named metric must be
present with its unit, and BENCHMARK.json must agree with metrics.py.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
    assert set(expected) <= printed


def test_benchmark_json_matches_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vortex-hierarchy", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_times_the_kernel_and_restores_the_handler():
    from reference import Sampler, kernel

    kernel()  # the first call pays for FFT plans and BLAS set-up
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(period=0.02) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.spent < 0.3
    assert signal.getsignal(signal.SIGALRM) is before
