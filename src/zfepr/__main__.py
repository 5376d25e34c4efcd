"""``python -m zfepr``: the same command line as the ``zfepr`` script."""

import sys

from .cli import main

sys.exit(main())
