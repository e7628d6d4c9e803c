"""Golden storage rows across seeds, pinned in
``tests/golden/storage_seeds_ref.json``.

Every checkpoint and restart time comes from the simulated SSD: its
arbitration-jitter draws, the WRR front-end arbiter, tier IO, NVMf
sessions, and power loss in the middle of a command. ``tables_ref.json``
pins one seed of each experiment; this pins the storage experiments
that run those paths for seeds 0-7 at the same scales, so a change to
how a device command is scheduled must keep every row. Floats are
compared as ``repr``. Regenerate the fixture (only when a change is
*meant* to move a result) with::

    PYTHONPATH=src python -m tests.bench.test_storage_seeds_golden
"""

import json
from pathlib import Path

import pytest

from repro import cli
from tests.bench.test_tables_golden import SCALES

GOLDEN = Path(__file__).parent.parent / "golden" / "storage_seeds_ref.json"

SEEDS = range(8)
EXPERIMENTS = ("fig7a", "fig7d", "fig9weak", "qos", "tiers", "resilience")


def rows(name, seed):
    """One experiment's rows at its pinned scale and ``seed``, floats
    as ``repr``."""
    table = cli._EXPERIMENTS[name](seed=seed, **SCALES[name])
    return [[repr(c) if isinstance(c, float) else c for c in row] for row in table.rows]


def record():
    return {name: {str(seed): rows(name, seed) for seed in SEEDS}
            for name in EXPERIMENTS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_storage_rows_match_golden(name, seed, golden):
    assert rows(name, seed) == golden[name][str(seed)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
