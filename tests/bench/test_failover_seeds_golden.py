"""Golden failover rows across seeds, pinned in
``tests/golden/failover_seeds_ref.json``.

The Raft control plane's results depend on the order in which
same-time events dispatch: message deliveries, election timers and
client proposals. ``tables_ref.json`` pins one failover cell; this
pins the full fault-rate sweep for seeds 0-7 at a scale where every
cell sees leader kills and partitions, so a change to how messages
or timers are scheduled must keep every row. Floats are compared as
``repr``. Regenerate the fixture (only when a change is *meant* to
move a result) with::

    PYTHONPATH=src python -m tests.bench.test_failover_seeds_golden
"""

import json
from pathlib import Path

import pytest

from repro.bench.failover import failover

GOLDEN = Path(__file__).parent.parent / "golden" / "failover_seeds_ref.json"

SEEDS = range(8)
SCALE = dict(fault_rates=(2.0, 5.0, 10.0), n_ops=300)


def rows(seed):
    """One seed's failover rows, floats as ``repr``."""
    table = failover(seed=seed, **SCALE)
    return [[repr(c) if isinstance(c, float) else c for c in row] for row in table.rows]


def record():
    return {str(seed): rows(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_failover_rows_match_golden(seed, golden):
    assert rows(seed) == golden[str(seed)]


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(seed)}: {json.dumps(r)}" for seed, r in record().items()
    ) + "\n}\n")
