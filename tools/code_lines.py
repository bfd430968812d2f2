"""Count the code lines of each Python file under src/ and their total.

A code line is a line that holds a token other than a comment, leaving out
blank lines and the lines of docstrings (a string literal that is the first
statement of a module, class or function, found with `ast`).  Standard
library only.  Run from anywhere:

    python3 tools/code_lines.py [ROOT] [--against REF]

ROOT defaults to the src/ directory beside this file's parent.  With
--against REF, the same directory is also read at the git revision REF
(through `git archive`, so the working tree is left alone), and each file
gets three columns: its code lines at REF ("before"), in ROOT as it is on
disk ("after"), and the difference; a file missing on one side shows "-".
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def tree_counts(root: Path) -> dict[str, int]:
    """Code lines of each Python file under root on disk, by path relative to root."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def ref_counts(root: Path, ref: str) -> dict[str, int]:
    """Code lines of each Python file under root at git revision ref, by path relative to root."""

    def git(*args: str) -> bytes:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True)
        if done.returncode:
            sys.exit(f"git {args[0]}: {done.stderr.decode(errors='replace').strip()}")
        return done.stdout

    # run in root, git archive takes root's subtree with paths relative to root
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref, "."))) as archive:
        return {m.name: code_lines(archive.extractfile(m).read().decode("utf-8"))
                for m in archive.getmembers() if m.isfile() and m.name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code lines of the Python files under ROOT.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--against", metavar="REF", help="also count ROOT at git revision REF")
    args = parser.parse_args(argv[1:])
    after = tree_counts(args.root)
    if args.against is None:
        for name, n in after.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    before = ref_counts(args.root, args.against)
    print(f"{'before':>6}  {'after':>6}  {'diff':>6}  file")
    rows = [(name, before.get(name), after.get(name)) for name in sorted({*before, *after})]
    rows.append(("total", sum(before.values()), sum(after.values())))
    for name, b, a in rows:
        cells = ["-" if n is None else str(n) for n in (b, a, (a or 0) - (b or 0))]
        print("  ".join(f"{c:>6}" for c in cells) + f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
