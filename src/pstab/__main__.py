"""``python -m pstab``: the command-line front end of :mod:`pstab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
