"""``python -m plapsim``: the plapsim command line."""

import sys

from .cli import main

sys.exit(main())
