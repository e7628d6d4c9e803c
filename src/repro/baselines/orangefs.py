"""OrangeFS model: striping + distributed metadata + layered servers.

What the paper says OrangeFS does (and this model reproduces):

* stripes file data across all storage servers (Figure 7(b): good
  balance at low concurrency, unlike consistent hashing);
* layers its servers over kernel filesystems, capping per-server
  throughput well below the device (Figure 1: peaks at ~41 %);
* keeps a *shared global namespace*: creates visit distributed metadata
  servers *and* append to a single common directory file, serialising
  (Figure 8(b): ~7x fewer creates/s than NVMe-CR at 448 procs);
* stores inode + striping layout per file — the ~2.6 GB/server metadata
  of Table I.
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

__all__ = ["OrangeFSCluster", "OrangeFSClient"]


class OrangeFSCluster:
    """Cluster-wide OrangeFS state over a deployment's storage nodes."""

    def __init__(self, deployment: Deployment, namespace_bytes: int):
        self.env = deployment.env
        self.deployment = deployment
        self.servers: List[StorageServer] = []
        for node in deployment.cluster.storage_nodes():
            ssd = deployment.ssds[node.name]
            ns = ssd.create_namespace(namespace_bytes, owner_job="orangefs")
            self.servers.append(
                StorageServer(
                    self.env, node.name, ssd, ns,
                    io_service_time=cal.ORANGEFS_SERVER_SERVICE,
                    io_chunk_bytes=cal.ORANGEFS_STRIPE_SIZE,
                )
            )
        # Metadata distributed across all servers...
        self.metadata = Resource(self.env, capacity=len(self.servers))
        # ...but the common directory file is a single serialisation point.
        self.directory_lock = Resource(self.env, capacity=1)
        self.files: Dict[str, BaselineFile] = {}
        self.dirs: set = {"/"}
        self.file_count_high_water = 0
        self.stripe_records_high_water = 0

    def client(self, name: str) -> "OrangeFSClient":
        return OrangeFSClient(self, name)

    # -- Table I accounting -----------------------------------------------------------

    def metadata_bytes_per_server(self) -> float:
        """Inodes plus per-stripe layout records (Table I: OrangeFS "has
        high overhead as it needs to store both file metadata and
        striping information" — dominated by the stripe maps)."""
        return (
            self.file_count_high_water * cal.ORANGEFS_FILE_METADATA_BYTES
            + self.stripe_records_high_water * cal.ORANGEFS_PER_STRIPE_METADATA
        )

    def bytes_per_server(self) -> List[int]:
        return [int(s.counters.get("bytes")) for s in self.servers]


class OrangeFSClient(BaselineClient):
    """One rank's OrangeFS mount."""

    def __init__(self, cluster: OrangeFSCluster, name: str):
        super().__init__(cluster.env, name, cluster.files, cluster.dirs)
        self.cluster = cluster

    # -- metadata path ---------------------------------------------------------------

    def _metadata_visit(self) -> Generator[Event, Any, None]:
        yield from self.cluster.metadata.serve(cal.ORANGEFS_MDS_SERVICE)

    def _do_create(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from self._metadata_visit()
        yield from self.cluster.directory_lock.serve(cal.ORANGEFS_DIR_ENTRY_SERVICE)
        self.cluster.file_count_high_water += 1

    def _do_mkdir(self, path: str) -> Generator[Event, Any, None]:
        yield from self._metadata_visit()

    def _do_unlink(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from self._metadata_visit()
        yield from self.cluster.directory_lock.serve(cal.ORANGEFS_DIR_ENTRY_SERVICE)

    # -- data path ------------------------------------------------------------------------

    def _stripe_plan(self, file: BaselineFile, offset: int, nbytes: int):
        """(server_index, nbytes) stripes, round-robin from a hash start."""
        stripe = cal.ORANGEFS_STRIPE_SIZE
        nservers = len(self.cluster.servers)
        start = jump_hash(file.path, nservers)
        plan = []
        at = offset
        end = offset + nbytes
        while at < end:
            take = min(stripe - (at % stripe), end - at)
            server = (start + at // stripe) % nservers
            plan.append((server, take))
            at += take
        return plan

    def _aggregate_plan(self, file: BaselineFile, offset: int, nbytes: int):
        """Fold the stripe plan into (server_index, total_bytes, stripes)
        — one IO per server instead of one per stripe (identical timing,
        three orders of magnitude fewer simulation events)."""
        totals: Dict[int, List[int]] = {}
        for server_index, take in self._stripe_plan(file, offset, nbytes):
            entry = totals.setdefault(server_index, [0, 0])
            entry[0] += take
            entry[1] += 1
        return [(s, t, n) for s, (t, n) in sorted(totals.items())]

    def _do_write(self, file: BaselineFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        yield from self._file_lock(file, payload.nbytes)
        if payload.nbytes == 0:
            return 0
        plan = self._aggregate_plan(file, offset, payload.nbytes)
        total_stripes = sum(n for _s, _t, n in plan)
        # Client request-protocol cost, serialised in the client.
        yield self.env.timeout(total_stripes * cal.ORANGEFS_PER_REQUEST_COST)
        events = []
        consumed = 0
        for server_index, take, _stripes in plan:
            server = self.cluster.servers[server_index]
            chunk = payload.slice(consumed, take)
            events.append(self.env.process(self._server_write(server, file, server_index, chunk)))
            consumed += take
        yield self.env.all_of(events)
        file.placement.append(("striped", total_stripes))
        self.cluster.stripe_records_high_water += total_stripes
        return payload.nbytes

    def _server_write(self, server: StorageServer, file: BaselineFile, server_index: int, chunk: Payload):
        yield from server.write_chunk(chunk)

    def _do_read(self, file: BaselineFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        plan = self._aggregate_plan(file, offset, nbytes)
        yield self.env.timeout(sum(n for _s, _t, n in plan) * cal.ORANGEFS_PER_REQUEST_COST)
        events = []
        for server_index, take, _stripes in plan:
            server = self.cluster.servers[server_index]
            events.append(self.env.process(self._server_read(server, take)))
        yield self.env.all_of(events)

    def _server_read(self, server: StorageServer, nbytes: int):
        # Read service is lighter than write service (no allocation, no
        # journal on the backend FS) — Figure 9's recovery efficiencies.
        n_chunks = max(1, -(-nbytes // server.io_chunk_bytes))
        yield from server.io_resource.serve(n_chunks * cal.ORANGEFS_SERVER_READ_SERVICE)
        yield server.ssd.read(
            server.namespace.nsid, 0, nbytes, server.io_chunk_bytes,
            qos=QoSClass.BEST_EFFORT,
        )

    def _do_fsync(self, file: BaselineFile) -> Generator[Event, Any, None]:
        # Servers persist on write; fsync is a round trip per dfile server.
        yield self.env.timeout(cal.ORANGEFS_PER_REQUEST_COST)
