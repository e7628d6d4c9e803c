"""Node-local burst-buffer baseline (BurstFS/UnifyFS-class, §II-B).

"Other works like PapyrusKV, UnifyCR, and BurstFS present a burst buffer
design using node local storage to accelerate C/R IO as opposed to
NVMe-CR that is targeted towards a disaggregated setup."

Each *compute* node gets a local SSD; ranks checkpoint to their node's
device at local speed and a background drainer pushes data to a PFS.
The design trades exactly what the paper's balancer refuses to trade:
the checkpoint lives in the *same failure domain* as the process it
protects. The comparison bench quantifies both sides:

* checkpoint dumps are fast (no fabric, node-local bandwidth scales
  with compute nodes);
* a compute-node failure takes the newest local checkpoints with it —
  recovery falls back to whatever the drainer had pushed to the PFS,
  losing up to a full drain lag of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set

from repro.baselines.common import BaselineClient, BaselineFile, bump_allocate
from repro.baselines.lustre import LustreCluster
from repro.bench import calibration as cal
from repro.errors import RecoveryError
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.nvme.device import SSD, SSDSpec, generic_nand_ssd
from repro.sim.engine import Environment, Event
from repro.sim.rng import RngHub
from repro.obs.metrics import Counter
from repro.units import GiB, KiB

__all__ = ["BurstBufferCluster", "BurstBufferClient"]


@dataclass
class _BFile(BaselineFile):
    node: str = ""  # the compute node whose local buffer holds the file
    offset: int = -1
    drained: bool = False


class BurstBufferCluster:
    """One local SSD per compute node + a PFS drain target."""

    def __init__(
        self,
        env: Environment,
        compute_nodes: List[str],
        pfs: Optional[LustreCluster] = None,
        node_ssd_spec: Optional[SSDSpec] = None,
        namespace_bytes: int = GiB(64),
        seed: int = 0,
    ):
        self.env = env
        self.pfs = pfs if pfs is not None else LustreCluster(env)
        rng = RngHub(seed)
        spec = node_ssd_spec or generic_nand_ssd()
        self.node_ssds: Dict[str, SSD] = {}
        self.node_namespaces: Dict[str, int] = {}
        self._cursors: Dict[str, int] = {}
        for node in compute_nodes:
            ssd = SSD(env, spec, f"local-{node}", rng=rng.stream(f"bb.{node}"))
            ns = ssd.create_namespace(namespace_bytes, owner_job="burstfs")
            self.node_ssds[node] = ssd
            self.node_namespaces[node] = ns.nsid
            self._cursors[node] = 0
        self.files: Dict[str, _BFile] = {}
        self.dirs: set = {"/"}
        self.failed_nodes: Set[str] = set()
        self.counters = Counter()

    def allocate(self, node: str, nbytes: int) -> int:
        limit = self.node_ssds[node].namespace(self.node_namespaces[node]).nbytes
        offset, self._cursors[node] = bump_allocate(
            self._cursors[node], nbytes, limit, f"burst buffer on {node} full")
        return offset

    def client(self, name: str, node: str) -> "BurstBufferClient":
        return BurstBufferClient(self, name, node)

    # -- failure injection --------------------------------------------------------------

    def fail_node(self, node: str) -> None:
        """A compute node dies: its local burst buffer dies with it."""
        self.failed_nodes.add(node)
        self.node_ssds[node].power_fail()

    def drain_lag_files(self) -> int:
        return sum(1 for f in self.files.values() if not f.drained)


class BurstBufferClient(BaselineClient):
    """One rank's burst-buffer mount on its own compute node."""

    file_type = _BFile

    def __init__(self, cluster: BurstBufferCluster, name: str, node: str):
        super().__init__(cluster.env, name, cluster.files, cluster.dirs)
        self.cluster = cluster
        self.node = node
        self.ssd = cluster.node_ssds[node]
        self.nsid = cluster.node_namespaces[node]

    # -- system hooks ----------------------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        yield self.env.timeout(cal.METADATA_OP_CPU)

    def _do_create(self, file: _BFile) -> Generator[Event, Any, None]:
        file.node = self.node
        yield from ()

    def _do_write(self, file: _BFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        nbytes = payload.nbytes
        n_cmds = max(1, -(-nbytes // KiB(128)))
        yield self.env.timeout(n_cmds * cal.SPDK_SUBMIT_COST)
        device_offset = self.cluster.allocate(self.node, max(nbytes, 1))
        if file.offset < 0:
            file.offset = device_offset
        yield self.ssd.write(self.nsid, device_offset, payload, KiB(128), qos=QoSClass.CKPT_DATA)
        file.drained = False
        return nbytes

    def _do_read(self, file: _BFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        if file.node in self.cluster.failed_nodes:
            if not file.drained:
                raise RecoveryError(
                    f"{file.path}: burst buffer on {file.node} lost and "
                    f"file never drained to the PFS"
                )
            yield from self.cluster.pfs.read_file(file.path)
        elif file.node == self.node:
            yield self.ssd.read(
                self.nsid, max(file.offset, 0), nbytes, KiB(128),
                qos=QoSClass.BEST_EFFORT,
            )
        else:
            # Cross-node read: remote ranks pull via the PFS copy.
            if not file.drained:
                raise RecoveryError(
                    f"{file.path}: resides on {file.node}'s local buffer, "
                    f"not yet drained — unreachable from {self.node}"
                )
            yield from self.cluster.pfs.read_file(file.path)

    def _do_fsync(self, file: _BFile) -> Generator[Event, Any, None]:
        yield self.ssd.flush(self.nsid)

    # -- draining -------------------------------------------------------------------------

    def drain(self, path: str) -> Generator[Event, Any, None]:
        """Push one file's data from the local buffer to the PFS."""
        file = self.stat(path)
        yield self.ssd.read(
            self.nsid, max(file.offset, 0), file.size, KiB(128),
            qos=QoSClass.BEST_EFFORT,
        )
        yield from self.cluster.pfs.write_file(path, file.size)
        file.drained = True
        self.cluster.counters.add("drained_bytes", file.size)
