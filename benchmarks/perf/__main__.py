"""``PYTHONPATH=src python -m benchmarks.perf``: same as ``run.py``."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
