"""GlusterFS model: consistent-hash placement + decentralised bricks.

What the paper says GlusterFS does (and this model reproduces):

* distributes *whole files* to bricks by consistent hashing — high load
  CoV at low file counts (Figure 7(b), citing Lamping-Veach [17]);
* no central metadata server (decentralised; the best baseline in
  Figure 9), but creates append to the single common directory file,
  serialising (Figure 8(b): ~18x fewer creates/s than NVMe-CR);
* FUSE + translator stack per chunk caps per-brick throughput at ~84 %
  of hardware (Figure 1);
* lookups on open stampede the hashed-dht path at 448 readers — the
  recovery dip of Figure 9(d);
* near-zero per-server metadata (Table I: 3.5 MB).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.apps.deployment import Deployment
from repro.bench import calibration as cal
from repro.baselines.common import BaselineClient, BaselineFile, StorageServer
from repro.hashing.jump import jump_hash
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.sim.engine import Event
from repro.sim.resources import Resource

__all__ = ["GlusterFSCluster", "GlusterFSClient"]


class GlusterFSCluster:
    """Cluster-wide GlusterFS state (bricks + DHT)."""

    def __init__(self, deployment: Deployment, namespace_bytes: int):
        self.env = deployment.env
        self.deployment = deployment
        self.servers: List[StorageServer] = []
        for node in deployment.cluster.storage_nodes():
            ssd = deployment.ssds[node.name]
            ns = ssd.create_namespace(namespace_bytes, owner_job="glusterfs")
            self.servers.append(
                StorageServer(
                    self.env, node.name, ssd, ns,
                    io_service_time=cal.GLUSTERFS_SERVER_SERVICE,
                    io_chunk_bytes=cal.GLUSTERFS_CHUNK_BYTES,
                )
            )
        self.directory_lock = Resource(self.env, capacity=1)
        self.lookup_path = Resource(self.env, capacity=1)
        self.files: Dict[str, BaselineFile] = {}
        self.dirs: set = {"/"}

    def client(self, name: str) -> "GlusterFSClient":
        return GlusterFSClient(self, name)

    def brick_of(self, path: str) -> int:
        return jump_hash(path, len(self.servers))

    # -- Table I accounting ------------------------------------------------------------

    def metadata_bytes_per_server(self) -> float:
        """Hash-ring bookkeeping only — tiny and file-count independent."""
        return float(cal.GLUSTERFS_SERVER_METADATA_BYTES)

    def bytes_per_server(self) -> List[int]:
        return [int(s.counters.get("bytes")) for s in self.servers]


class GlusterFSClient(BaselineClient):
    """One rank's FUSE mount."""

    def __init__(self, cluster: GlusterFSCluster, name: str):
        super().__init__(cluster.env, name, cluster.files, cluster.dirs)
        self.cluster = cluster

    # -- metadata path ------------------------------------------------------------------

    def open(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        if mode == "r":
            # DHT lookup before the parent resolves the brick.
            yield from self.cluster.lookup_path.serve(cal.GLUSTERFS_LOOKUP_SERVICE)
        return (yield from super().open(path, mode))

    def _do_create(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from self.cluster.directory_lock.serve(cal.GLUSTERFS_DIR_ENTRY_SERVICE)

    def _do_mkdir(self, path: str) -> Generator[Event, Any, None]:
        yield from self.cluster.directory_lock.serve(cal.GLUSTERFS_DIR_ENTRY_SERVICE)

    def _do_unlink(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from self.cluster.directory_lock.serve(cal.GLUSTERFS_DIR_ENTRY_SERVICE)

    # -- data path -----------------------------------------------------------------------

    def _do_write(self, file: BaselineFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        yield from self._file_lock(file, payload.nbytes)
        if payload.nbytes == 0:
            return 0
        server = self.cluster.servers[self.cluster.brick_of(file.path)]
        chunk_bytes = cal.GLUSTERFS_CHUNK_BYTES
        n_chunks = max(1, -(-payload.nbytes // chunk_bytes))
        # FUSE + translator client path, serialised per client.
        yield self.env.timeout(n_chunks * cal.GLUSTERFS_PER_REQUEST_COST)
        device_offset = yield from server.write_chunk(payload)
        file.placement.append((self.cluster.brick_of(file.path), device_offset, payload.nbytes))
        return payload.nbytes

    def _do_read(self, file: BaselineFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        server = self.cluster.servers[self.cluster.brick_of(file.path)]
        chunk_bytes = cal.GLUSTERFS_CHUNK_BYTES
        n_chunks = max(1, -(-nbytes // chunk_bytes))
        yield self.env.timeout(n_chunks * cal.GLUSTERFS_PER_REQUEST_COST)
        yield from server.io_resource.serve(n_chunks * cal.GLUSTERFS_SERVER_READ_SERVICE)
        yield server.ssd.read(
            server.namespace.nsid, 0, nbytes, chunk_bytes,
            qos=QoSClass.BEST_EFFORT,
        )

    def _do_fsync(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield self.env.timeout(cal.GLUSTERFS_PER_REQUEST_COST)
