"""Run the command-line front end as ``python -m troplines``."""

import sys

from .cli import main

sys.exit(main())
