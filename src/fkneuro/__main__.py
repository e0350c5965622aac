"""`python -m fkneuro`: the command-line front end (see fkneuro.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
