"""Crail model: SPDK/NVMf data plane + a single metadata server.

§IV: "its publicly available version only supports a single NVMe
server" and "Crail uses a single metadata server which becomes a
bottleneck at high-concurrency". §IV-F: despite the same SPDK data
path, Crail runs 5-10 % behind NVMe-CR on remote access because every
block allocation is an RPC to the metadata server carrying inode-sized
payloads — the traffic metadata provenance eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.apps.deployment import Deployment
from repro.baselines.common import BaselineClient, BaselineFile, bump_allocate
from repro.bench import calibration as cal
from repro.fabric.nvmf import NVMfInitiator
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.sim.engine import Event
from repro.sim.resources import Resource
from repro.obs.metrics import Counter
from repro.units import KiB

__all__ = ["CrailCluster", "CrailClient"]


@dataclass
class _CFile(BaselineFile):
    blocks: int = 0  # block count allocated via the MDS


class CrailCluster:
    """One NVMf storage server + one metadata server."""

    def __init__(self, deployment: Deployment, namespace_bytes: int, storage_node: str = None):
        self.env = deployment.env
        self.deployment = deployment
        node = storage_node or deployment.cluster.storage_nodes()[0].name
        self.storage_node = node
        self.ssd = deployment.ssds[node]
        self.namespace = self.ssd.create_namespace(namespace_bytes, owner_job="crail")
        self.target = deployment.targets[node][0]
        # The single metadata server (runs on the storage node).
        self.mds = Resource(self.env, capacity=1)
        self.mds_node = node
        self.files: Dict[str, _CFile] = {}
        self.dirs: set = {"/"}
        self._cursor = 0
        self.counters = Counter()

    def allocate(self, nbytes: int) -> int:
        offset, self._cursor = bump_allocate(
            self._cursor, nbytes, self.namespace.nbytes, "crail namespace full")
        return offset

    def client(self, name: str, node_name: str) -> "CrailClient":
        return CrailClient(self, name, node_name)


class CrailClient(BaselineClient):
    """One rank's Crail endpoint: every namespace call is an MDS RPC."""

    file_type = _CFile

    def __init__(self, cluster: CrailCluster, name: str, node_name: str):
        super().__init__(cluster.env, name, cluster.files, cluster.dirs)
        self.cluster = cluster
        self.node_name = node_name
        initiator = NVMfInitiator(self.env, node_name, cluster.deployment.fabric)
        self.session = initiator.connect(cluster.target)

    # -- metadata RPC -------------------------------------------------------------------

    def _mds_rpc(self, wire_bytes: int = 0) -> Generator[Event, Any, None]:
        """One round trip to the single metadata server."""
        fabric = self.cluster.deployment.fabric
        rtt = fabric.round_trip(self.node_name, self.cluster.mds_node)
        wire = wire_bytes / fabric.spec.link_bandwidth
        yield self.env.timeout(rtt + wire)
        yield from self.cluster.mds.serve(cal.CRAIL_MDS_SERVICE)
        self.counters.add("mds_rpcs")
        self.counters.add("mds_wire_bytes", wire_bytes)

    # -- system hooks ---------------------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        yield from self._mds_rpc(cal.CRAIL_INODE_WIRE_BYTES)

    def _do_write(self, file: _CFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        nbytes = payload.nbytes
        # Block allocation: one MDS RPC per Crail block, inode-sized
        # payloads each way. This is the 5-10 % of Figure 8(a).
        end_blocks = math.ceil((offset + nbytes) / cal.CRAIL_BLOCK_BYTES)
        new_blocks = max(0, end_blocks - file.blocks)
        for _ in range(new_blocks):
            yield from self._mds_rpc(cal.CRAIL_INODE_WIRE_BYTES)
        file.blocks = end_blocks
        n_cmds = max(1, math.ceil(nbytes / KiB(128)))
        yield self.env.timeout(n_cmds * cal.SPDK_SUBMIT_COST)
        device_offset = self.cluster.allocate(max(nbytes, 1))
        yield self.session.write(
            self.cluster.namespace.nsid, device_offset, payload, KiB(128),
            qos=QoSClass.CKPT_DATA,
        )
        return nbytes

    def _do_read(self, file: _CFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        # Block lookups batched per read but still via the MDS.
        yield from self._mds_rpc(cal.CRAIL_INODE_WIRE_BYTES)
        n_cmds = max(1, math.ceil(nbytes / KiB(128)))
        yield self.env.timeout(n_cmds * cal.SPDK_SUBMIT_COST)
        yield self.session.read(
            self.cluster.namespace.nsid, 0, nbytes, KiB(128),
            qos=QoSClass.BEST_EFFORT,
        )

    def _do_fsync(self, file: _CFile) -> Generator[Event, Any, None]:
        yield self.session.flush(self.cluster.namespace.nsid)

    def _do_close(self, file: _CFile) -> Generator[Event, Any, None]:
        yield from self._mds_rpc()  # close updates the inode
