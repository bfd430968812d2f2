"""The README's preset tables say what `cli.PRESETS` declares, so a change of a
preset or of the keys it takes cannot leave them stale."""

from pathlib import Path

from casimirlab.cli import _BASE, PRESETS

README = Path(__file__).resolve().parents[1] / "README.md"


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
