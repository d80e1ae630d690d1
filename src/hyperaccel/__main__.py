"""``python -m hyperaccel``: the command-line interface of hyperaccel.cli."""

import sys

from hyperaccel.cli import main

sys.exit(main())
