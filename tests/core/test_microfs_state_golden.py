"""Golden internal-state blob: a fragmenting MicroFS scenario whose
``serialize_state()`` bytes, pool snapshot pickle and recovered block
maps are pinned in ``tests/golden/microfs_state_ref.json``.

The blob's length is the simulated size of a state-checkpoint write, and
the recovered block maps are where replay put every file, so both pin
simulated cost, not just host representation. Regenerate the fixture
(only when a change is *meant* to move them) with::

    PYTHONPATH=src python -m tests.core.test_microfs_state_golden
"""

import hashlib
import json
import pickle
from pathlib import Path

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.core.microfs.recovery import recover
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig

GOLDEN = Path(__file__).parent.parent / "golden" / "microfs_state_ref.json"

#: 4 KiB blocks and a partition whose data region holds 512 of them, so
#: the late writes wrap the ring into runs freed by truncate and unlink.
CONFIG = RuntimeConfig(log_region_bytes=KiB(64), state_region_bytes=KiB(512),
                       hugeblock_bytes=KiB(4))
PARTITION_BYTES = KiB(4) + KiB(64) + KiB(512) + MiB(2)

PATHS = ("/", "/d", "/d/a", "/d/c", "/e", "/late0", "/late1", "/late2")


def scenario(rig):
    fs = rig.fs

    def write(path, nbytes, create=True):
        fd = yield from fs.open(path, create=create)
        yield from fs.pwrite(fd, nbytes, fs.stat(path).size)
        yield from fs.close(fd)

    yield from fs.mkdir("/d")
    # Interleaved appends: /d/a and /d/b each end up in three extents.
    for _ in range(3):
        yield from write("/d/a", KiB(120))
        yield from write("/d/b", KiB(88))
    yield from write("/d/c", KiB(200))
    yield from fs.checkpoint_state()
    yield from fs.truncate("/d/a", KiB(150))   # frees a's tail mid-extent
    yield from fs.unlink("/d/b")               # frees three extents
    yield from fs.rename("/d/c", "/e")
    yield from write("/d/c", KiB(36))
    # Exhaust the never-used head of the ring, then reuse freed runs.
    for i in range(3):
        yield from write(f"/late{i}", KiB(480))
    yield from write("/e", KiB(44), create=False)


def record():
    """Run the scenario and recovery; the dict the fixture pins."""
    rig = MicroFSRig(config=CONFIG, partition_bytes=PARTITION_BYTES)
    rig.run(scenario(rig))
    blob = rig.fs.serialize_state()
    pool_pickle = pickle.dumps(rig.fs.pool.snapshot(), protocol=4)
    data_plane = DataPlane(rig.env, rig.transport, rig.namespace.nsid, rig.config)

    def do_recover():
        return (yield from recover(rig.env, rig.config, data_plane, rig.partition,
                                   instance_name="recovered"))

    recovered, _report = rig.run(do_recover())
    recovered.check_consistency()
    return {
        "state_len": len(blob),
        "state_sha256": hashlib.sha256(blob).hexdigest(),
        "pool_snapshot_sha256": hashlib.sha256(pool_pickle).hexdigest(),
        "recovered_blocks": {path: list(recovered.stat(path).blocks)
                             for path in PATHS},
    }


def test_state_blob_and_recovered_blocks_match_golden():
    assert record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
