"""tools/code_lines.py: code lines leave out docstrings, comments and blanks,
and --against REF counts the same directory at a git revision.  And src/
holds no unbounded cache."""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SRC = Path(__file__).resolve().parents[1] / "src"

# 4 code lines: the import, the def and the two lines of the return
SOURCE = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """A function docstring."""

    return (math.pi
            * x)
'''


def run_tool(*args, cwd=None):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True,
                          text=True, cwd=cwd, check=True)
    return done.stdout


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(SOURCE)
    return tmp_path


def test_counts_code_lines_only(tree):
    assert run_tool(tree / "src") == "     4  pkg/mod.py\n     4  total\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="--against reads the revision with git")
def test_against_compares_with_a_git_revision(tree):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tree,
                       check=True, capture_output=True)

    git("init", "-q")
    (tree / "top.py").write_text("x = 1\n")  # outside ROOT: never counted
    git("add", "-A")
    git("commit", "-qm", "first")
    with open(tree / "src" / "pkg" / "mod.py", "a") as f:
        f.write("y = 1\n\n# more\n")
    (tree / "src" / "pkg" / "new.py").write_text('"""New."""\nz = 2\n')
    (tree / "top.py").write_text("x = 1\ny = 2\n")
    assert run_tool(tree / "src", "--against", "HEAD", cwd=tree.parent).splitlines() == [
        "before   after    diff  file",
        "     4       5       1  pkg/mod.py",
        "     -       1       1  pkg/new.py",
        "     4       6       2  total",
    ]


def unbounded_caches(source: str) -> list[int]:
    """The lines of source that name functools.cache or call lru_cache with no bound:
    no arguments, maxsize=None or a first argument None."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hits += [node.lineno for alias in node.names if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            size = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
            if not size or (isinstance(size[0], ast.Constant) and size[0].value is None):
                hits.append(node.lineno)
    return hits


def test_unbounded_cache_scan_finds_each_form():
    source = """import functools
from functools import cache, lru_cache
@functools.cache
def a(x): ...
@lru_cache()
def b(x): ...
@functools.lru_cache(maxsize=None)
def c(x): ...
@lru_cache(None)
def d(x): ...
@lru_cache(maxsize=4)
def e(x): ...
@functools.lru_cache(8)
def f(x): ...
"""
    assert unbounded_caches(source) == [2, 3, 5, 7, 9]


def test_src_holds_no_unbounded_cache():
    # a per-grid or per-dt cache without a bound grows with every grid or dt a process visits
    hits = {path.relative_to(SRC).as_posix(): lines for path in sorted(SRC.rglob("*.py"))
            if (lines := unbounded_caches(path.read_text(encoding="utf-8")))}
    assert hits == {}
