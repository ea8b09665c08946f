"""`python3 -m nadlint` with scripts/ on PYTHONPATH:

    PYTHONPATH=scripts python3 -m nadlint [--root DIR] [--fixtures DIR]
                                          [--sarif OUT.sarif]
"""

import sys

from .engine import main

if __name__ == "__main__":
    sys.exit(main())
