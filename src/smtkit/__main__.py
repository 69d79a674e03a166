"""`python -m smtkit`: the smtkit command line (see `smtkit.cli`)."""

import sys

from .cli import main

sys.exit(main())
