"""Run presets on the working tree and on a git revision, and compare what they write.

    python3 tools/same_outputs.py --against REF [--presets NAME ...] [ROOT]

ROOT is the repository root (default: the parent of this file's directory).
REF is read through `git archive` into a temporary directory, and every run
writes into that directory with bytecode writing off, so the working tree is
left alone.  Each preset (default: every preset of the working tree) runs at
its defaults on both sides, with snapshot=true on the presets whose defaults
take a snapshot.  Every file a run writes is compared byte for byte, except
summary.json, which is compared as JSON with `wall_time_s` and
`config.out_dir` left out; a preset whose exit status differs is reported
too.  One line per file; the exit status is 0 when everything is identical,
otherwise 1, and the first difference is named.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# which presets take a snapshot, read from the tree's own preset table
_SNAPSHOT_QUERY = ("import json; from casimirlab.cli import PRESETS; "
                   "print(json.dumps({n: 'snapshot' in p.defaults for n, p in PRESETS.items()}))")


def archive(root: Path, ref: str, dest: Path) -> None:
    """Extract the tree of git revision ref of the repository at root into dest."""
    done = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", ref],
                          capture_output=True)
    if done.returncode:
        sys.exit(f"git archive: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _python(tree: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True)


def takes_snapshot(tree: Path, cwd: Path) -> dict[str, bool]:
    """Preset name -> whether its defaults take a snapshot, in the tree's preset order."""
    done = _python(tree, ["-c", _SNAPSHOT_QUERY], cwd)
    if done.returncode:
        sys.exit(f"reading the presets of {tree}: {done.stderr.strip()}")
    return json.loads(done.stdout)


def run_presets(tree: Path, presets: list[str], out: Path) -> dict[str, int]:
    """Run each preset of the tree at its defaults into out/<preset>; its exit status by name."""
    out.mkdir(parents=True)
    snapshot = takes_snapshot(tree, out)
    status = {}
    for name in presets:
        args = ["-m", "casimirlab", "run", name, "--out-dir", str(out / name)]
        if snapshot.get(name):
            args += ["--set", "snapshot=true"]
        status[name] = _python(tree, args, out).returncode
    return status


def _summary(path: Path) -> dict:
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary.pop("wall_time_s", None)
    summary.get("config", {}).pop("out_dir", None)
    return summary


def difference(before: Path, after: Path) -> str | None:
    """None when the two files are the same, else what differs."""
    if not (before.is_file() and after.is_file()):
        return "missing before" if after.is_file() else "missing after"
    if before.name != "summary.json":
        return None if before.read_bytes() == after.read_bytes() else "bytes differ"
    old, new = _summary(before), _summary(after)
    missing = object()
    key = next((k for k in {**old, **new} if old.get(k, missing) != new.get(k, missing)), None)
    return None if key is None else f"key {key!r} differs"


def compare(before: Path, after: Path) -> list[tuple[str, str | None]]:
    """(path under the run directories, difference or None) of every file either side wrote."""
    names = sorted({p.relative_to(top).as_posix()
                    for top in (before, after) for p in top.rglob("*") if p.is_file()})
    return [(name, difference(before / name, after / name)) for name in names]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare preset outputs with a git revision.")
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository root (default: the checkout holding this file)")
    parser.add_argument("--against", metavar="REF", required=True, help="git revision to compare")
    parser.add_argument("--presets", nargs="+", metavar="NAME", help="default: every preset")
    args = parser.parse_args(argv[1:])
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        archive(root, args.against, ref_tree)
        presets = args.presets or list(takes_snapshot(root, tmp))
        status = {side: run_presets(tree, presets, tmp / side)
                  for side, tree in (("before", ref_tree), ("after", root))}
        rows = compare(tmp / "before", tmp / "after")
    rows += [(f"{name} exit status", f"{status['before'][name]} -> {status['after'][name]}")
             for name in presets if status["before"][name] != status["after"][name]]
    for name, diff in rows:
        print(f"{'same' if diff is None else 'DIFFERS':8s} {name}" + (f"  ({diff})" if diff else ""))
    first = next((name for name, diff in rows if diff is not None), None)
    if first is None:
        print(f"all {len(rows)} files identical")
        return 0
    print(f"first difference: {first}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
