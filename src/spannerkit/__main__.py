"""Entry point for `python -m spannerkit`: the command-line interface."""

from .cli_io import main

if __name__ == "__main__":
    raise SystemExit(main())
