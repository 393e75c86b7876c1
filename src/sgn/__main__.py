"""``python -m sgn``: the command-line interface of ``sgn.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
