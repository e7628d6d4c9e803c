"""Footprint guards: which installed packages the simulator loads, and
how much host memory an idle MicroFS block pool holds."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import repro
from repro.core.microfs.blockpool import BlockPool
from repro.units import GiB, KiB

from tests.systems.test_registry import BUILD_ARGS

# Prints the installed (site-packages or dist-packages) top-level
# modules that importing repro and building every registered system
# adds to a bare interpreter.  Python 3.9 has no
# ``sys.stdlib_module_names``, so the install location tells
# third-party packages from the standard library.
_PROBE = r"""
import json, os, sys

def tops(names):
    return {name.partition(".")[0] for name in names}

def installed(top):
    module = sys.modules[top]
    paths = list(getattr(module, "__path__", None) or [])
    paths.append(getattr(module, "__file__", None) or "")
    return any(
        part in ("site-packages", "dist-packages")
        for path in paths for part in path.split(os.sep)
    )

before = tops(sys.modules)
import repro
from repro import systems
for name, kwargs in sorted(json.loads(sys.argv[1]).items()):
    systems.build(name, nprocs=2, seed=3, **kwargs)
new = tops(sys.modules) - before
print(json.dumps(sorted(top for top in new if installed(top))))
"""


def test_only_numpy_is_loaded_from_installed_packages():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(BUILD_ARGS)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["numpy"]


def test_block_pool_memory_does_not_grow_with_capacity():
    """A 64 GiB region of 4 KiB blocks (16.8 M blocks) costs the host a
    few runs, not a byte per block."""
    tracemalloc.start()
    try:
        pool = BlockPool(GiB(64), KiB(4))
        pool.free_runs(pool.alloc_runs(1000))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pool.capacity_blocks == 16 * 1024 * 1024
    assert peak < KiB(64)
