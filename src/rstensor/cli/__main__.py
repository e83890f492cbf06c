"""``python -m rstensor.cli``: run ``main`` and exit with its code."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
