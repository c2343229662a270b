"""`python -m appell4` runs the command line, as the `appell4` script does."""

import sys

from .cli import main

sys.exit(main())
