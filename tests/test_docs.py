"""The README's preset tables say what `cli.PRESETS` declares, and every name it
gives in a package module exists, so a change of a preset, of the keys it takes
or of a module's names cannot leave them stale."""

import importlib
import re
from pathlib import Path

import casimirlab
from casimirlab.cli import _BASE, PRESETS

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {p.stem for p in Path(casimirlab.__file__).parent.glob("*.py")} - {"__init__", "__main__"}


def table_after(marker: str) -> tuple[list[str], list[list[str]]]:
    """The header and body rows of the first table after the README line holding marker,
    each cell without its backticks."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.replace("`", "").strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    header, _rule, *body = rows
    return header, body


def test_preset_table_lists_every_preset_in_order():
    header, body = table_after("Presets:")
    assert header[0] == "preset"
    assert [row[0] for row in body] == list(PRESETS)


def test_top_level_key_table_matches_each_presets_defaults():
    header, body = table_after("The top-level keys by preset:")
    columns = [set(cell.split(", ")) for cell in header[1:]]
    assert [row[0] for row in body] == list(PRESETS)
    for name, *cells in body:
        taken = set().union(*(keys for keys, cell in zip(columns, cells) if cell == "yes"))
        assert taken == set(PRESETS[name].defaults) - set(_BASE), name


def test_every_backticked_module_name_exists():
    # `casimirlab.cli.load_snapshot`, `vortex.PAIRS`: a dotted name in backticks
    # whose head is the package or one of its modules; `grid.n` and
    # `summary.json` are not such names
    text = README.read_text(encoding="utf-8")
    checked, missing = [], []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text))):
        parts = name.split(".")
        if parts[0] == "casimirlab":
            parts = parts[1:]
        if parts[0] not in MODULES:
            continue
        checked.append(name)
        obj = importlib.import_module(f"casimirlab.{parts[0]}")
        for attr in parts[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert len(checked) >= 10 and missing == []
