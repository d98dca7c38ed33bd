"""`python -m mvpdl`: the command line, as the `mvpdl` script runs it."""

import sys

from .cli import main

sys.exit(main())
