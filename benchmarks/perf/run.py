"""Entry point: ``python3 benchmarks/perf/run.py [options]`` from the checkout.

Puts the checkout's ``src`` (the program under test) and root (this
package) on the import path, then runs :func:`benchmarks.perf.cli.main`.
Exits with code 2, printing no result, when ``src/repro`` is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing\n")
        sys.exit(2)
    # Replace the script's own directory, whose module names could shadow
    # the standard library's.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.perf.cli import main

    sys.exit(main())
