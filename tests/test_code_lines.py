"""tools/code_lines.py: code lines leave out docstrings, comments and blanks,
and --against REF counts the same directory at a git revision."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

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
