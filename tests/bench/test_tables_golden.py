"""Golden tables: the raw rows of every ``repro run`` experiment at a
cheap scale, pinned in ``tests/golden/tables_ref.json``.

The tables are the reproduction's contract, so a refactor that keeps
them must keep these rows exactly; floats are compared as ``repr``, so
one ulp of drift fails. Regenerate the fixture (only when a change is
*meant* to move a result) with::

    PYTHONPATH=src python -m tests.bench.test_tables_golden
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.bench import calibration as cal
from repro.units import KiB, MiB

GOLDEN = Path(__file__).parent.parent / "golden" / "tables_ref.json"

#: Per-experiment kwargs. Each scale reaches the systems its table
#: compares: tab2 drains to Lustre only because ``pfs_interval`` divides
#: its checkpoint count, and fig9strong keeps to GlusterFS because the
#: strong-scaling volume is fixed and the other systems take seconds.
SCALES = {
    "fig1": dict(procs=(4, 8)),
    "fig7a": dict(block_sizes=(KiB(32), MiB(2)), nprocs=4, file_bytes=MiB(8)),
    "fig7b": dict(procs=(8,)),
    "fig7c": dict(sizes=(MiB(16),), nprocs=4),
    "fig7d": dict(procs=(8,), atoms_per_rank=2000),
    "fig8a": dict(sizes=(MiB(16),), nprocs=4),
    "fig8b": dict(procs=(4,)),
    "fig9weak": dict(procs=(8,), checkpoints=1, atoms_per_rank=2000),
    "fig9strong": dict(procs=(56,), checkpoints=1, systems=("glusterfs",)),
    "tab1": dict(nprocs=8, checkpoints=2),
    "tab2": dict(nprocs=8, checkpoints=2, pfs_interval=2, atoms_per_rank=4000),
    "sysmatrix": dict(nprocs=4, nbytes=MiB(8)),
    "resilience": dict(mtbfs=(60.0,), total_compute=60.0, nbytes=MiB(8)),
    "qos": dict(nprocs=4, steps=1),
    "failover": dict(fault_rates=(5.0,), n_ops=40),
    "tiers": dict(steps=4, nbytes=MiB(8), mtbfs=(20.0,)),
    "ablation-coalescing": dict(writes=16),
    "ablation-distributors": dict(nfiles=16),
    "ext-cache": dict(nprocs=4, nbytes=MiB(8), cache_bytes=MiB(16)),
    "ext-incremental": dict(dirty_fractions=(0.3,), state_bytes=MiB(8), checkpoints=3),
    "ext-compression": dict(procs=(1, 4), nbytes=MiB(8)),
    "ext-burstbuffer": dict(nranks=4, nbytes=MiB(8)),
    "ext-mtbf": dict(intervals=(6.0, 30.0), total_compute=120.0, nbytes=MiB(16)),
    "ext-n1": dict(nranks=8, segment=MiB(8)),
    "ext-skew": dict(nprocs=16, skews=(0.0, 1.0)),
}


def rows(name):
    """Run one experiment at its pinned scale; its rows with floats as
    ``repr``, so equality is bit-exact."""
    table = cli._EXPERIMENTS[name](**SCALES[name])
    return [[repr(c) if isinstance(c, float) else c for c in row] for row in table.rows]


def record():
    return {name: rows(name) for name in cli._EXPERIMENTS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_experiment_has_a_scale():
    assert sorted(SCALES) == sorted(cli._EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(SCALES))
def test_table_rows_match_golden(name, golden):
    assert rows(name) == golden[name]


#: One calibration constant per baseline client and for the NVM tier's
#: write path, a table it moves, and the relative nudge that moves it.
#: The NVM write latency (100 ns) and persist barrier (500 ns) are
#: added to a clock of seconds, where 1e-12 of them is below one ulp.
SENSITIVE = [
    ("SYSCALL_TRAP_COST", "fig7c", 1e-12),
    ("SPDK_SUBMIT_COST", "fig7c", 1e-12),
    ("CRAIL_MDS_SERVICE", "fig8a", 1e-12),
    ("METADATA_OP_CPU", "ext-burstbuffer", 1e-12),
    ("LUSTRE_PER_REQUEST_COST", "sysmatrix", 1e-12),
    ("LUSTRE_SERVER_BANDWIDTH", "tab2", 1e-12),
    ("ORANGEFS_MDS_SERVICE", "fig1", 1e-12),
    ("GLUSTERFS_DIR_ENTRY_SERVICE", "fig8b", 1e-12),
    ("NVM_WRITE_LATENCY", "tiers", 1e-9),
    ("NVM_PERSIST_BARRIER", "tiers", 1e-9),
]


@pytest.mark.parametrize("constant,name,nudge", SENSITIVE,
                         ids=[f"{c}-{n}" for c, n, _ in SENSITIVE])
def test_pins_see_one_part_in_a_trillion(constant, name, nudge, golden,
                                         monkeypatch):
    """A mutant that nudges one cost by its entry's factor (one part in
    a trillion, or in a billion below one ulp) must fail its table's pin."""
    monkeypatch.setattr(cal, constant, getattr(cal, constant) * (1 + nudge))
    assert rows(name) != golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
