"""Child process for ``peak_rss_mb``: import, run one repeat, report.

Usage: ``python -m benchmarks.perf.rss <workload> <seed>`` with ``src``
and the checkout root on ``PYTHONPATH``.  Prints one JSON line with the
process's ``ru_maxrss`` in MB.  The untimed check is skipped: it is the
benchmark's work, not the program's.
"""

from __future__ import annotations

import json
import resource
import sys

from benchmarks.perf.workloads import canonical


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    canonical()[name].run(seed)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
