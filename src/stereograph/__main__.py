"""``python -m stereograph <command> ...`` runs the stereograph command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
