"""``python -m optpart``: the ``optpart`` command, runnable from a checkout."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
