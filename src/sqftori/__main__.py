"""``python -m sqftori``: the command line of `sqftori.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
