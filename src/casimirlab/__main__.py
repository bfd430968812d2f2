"""``python -m casimirlab``: the command-line front door (see cli)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
