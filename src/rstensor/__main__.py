"""``python -m rstensor``: the command-line interface of ``rstensor.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
