"""tools/same_outputs.py: preset outputs compared with a git revision, byte for byte,
and summary.json as JSON without its wall time and output directory."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def summary(wall, out_dir, passed=True):
    return {"preset": "p", "config": {"seed": 7, "out_dir": out_dir}, "pass": passed,
            "wall_time_s": wall}


@pytest.fixture
def runs(tmp_path):
    """Two run directories that hold the same files, bar wall time and output directory."""
    for side, wall in (("before", 0.25), ("after", 0.5)):
        run = tmp_path / side / "p"
        run.mkdir(parents=True)
        (run / "diagnostics.csv").write_text("t,energy\n0,1.5\n")
        (run / "state_final.snap").write_bytes(b"casimirlab-snapshot 1\nend\n\x00\x01")
        (run / "summary.json").write_text(json.dumps(summary(wall, str(run))))
    return tmp_path / "before", tmp_path / "after"


def test_same_runs_differ_in_no_file(runs):
    assert same_outputs.compare(*runs) == [("p/diagnostics.csv", None),
                                           ("p/state_final.snap", None),
                                           ("p/summary.json", None)]


def test_one_changed_csv_byte_is_named(runs):
    (runs[1] / "p" / "diagnostics.csv").write_text("t,energy\n0,1.6\n")
    assert same_outputs.compare(*runs)[0] == ("p/diagnostics.csv", "bytes differ")


def test_a_differing_summary_key_is_named(runs):
    (runs[1] / "p" / "summary.json").write_text(json.dumps(summary(0.5, "x", passed=False)))
    assert same_outputs.compare(*runs)[2] == ("p/summary.json", "key 'pass' differs")


@pytest.mark.skipif(shutil.which("git") is None, reason="--against reads the revision with git")
def test_a_preset_reads_identical_against_its_own_revision(tmp_path):
    shutil.copytree(REPO / "src" / "casimirlab", tmp_path / "src" / "casimirlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "first"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), "--against", "HEAD",
                           "--presets", "jacobi_check"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["same     jacobi_check/diagnostics.csv",
                                        "same     jacobi_check/summary.json",
                                        "all 2 files identical"]
    # the working tree is left alone: no run directory, no bytecode
    assert sorted(p.name for p in tmp_path.iterdir()) == [".git", "src"]
    assert not list((tmp_path / "src").rglob("__pycache__"))
