"""Lustre model: the slow-but-reliable second checkpoint tier.

§IV-A: "Lustre is used as the PFS and is configured with 4 separate
storage servers, each using one 12 Gbps RAID controller." Each OSS is a
serial pipe at RAID bandwidth; files stripe across all four. Redundancy
(the property multi-level checkpointing buys) is modelled as the tier
simply *surviving* failures injected into the NVMe tier — its clients
expose ``write_file``/``read_file`` for
:class:`~repro.core.multilevel.MultiLevelCheckpointer`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.baselines.common import BaselineClient, BaselineFile
from repro.bench import calibration as cal
from repro.errors import FileNotFound
from repro.nvme.commands import Payload
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.obs.metrics import Counter

__all__ = ["LustreCluster", "LustreClient"]


class LustreCluster:
    """Four OSSes behind RAID controllers + one MDS. Durable by design."""

    def __init__(self, env: Environment, servers: int = cal.LUSTRE_SERVERS):
        self.env = env
        self.servers = [Resource(env, capacity=1) for _ in range(servers)]
        self.mds = Resource(env, capacity=1)
        # One namespace for the checkpointer surface and the POSIX client.
        self.files: Dict[str, BaselineFile] = {}
        self.dirs: set = set()
        self.counters = Counter()

    def client(self, name: str) -> "LustreClient":
        """An intercepted-POSIX client over the striped file path."""
        return LustreClient(self, name)

    # -- MultiLevelCheckpointer client surface -----------------------------------------

    def write_file(self, path: str, nbytes: int) -> Generator[Event, Any, None]:
        """Striped write: RAID bandwidth is the bottleneck per OSS."""
        yield from self.striped_io(0, nbytes)
        file = self.files.get(path)
        if file is None:
            file = self.files[path] = BaselineFile(path=path)
        file.size = nbytes
        self.counters.add("bytes_written", nbytes)

    def read_file(self, path: str) -> Generator[Event, Any, int]:
        file = self.files.get(path)
        if file is None:
            raise FileNotFound(path)
        nbytes = file.size
        yield from self.striped_io(0, nbytes)
        self.counters.add("bytes_read", nbytes)
        return nbytes

    def striped_io(self, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        """One striped transfer: the MDS (open + layout), then every OSS
        holding a stripe of ``[offset, offset + nbytes)``, in parallel."""
        yield from self.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
        stripe = cal.LUSTRE_STRIPE_SIZE
        per_server = [0] * len(self.servers)
        at, end = offset, offset + nbytes
        while at < end:
            take = min(stripe - at % stripe, end - at)
            per_server[(at // stripe) % len(self.servers)] += take
            at += take
        events = [
            self.env.process(self._oss_io(server, load))
            for server, load in zip(self.servers, per_server)
            if load > 0
        ]
        if events:
            yield self.env.all_of(events)

    def _oss_io(self, server: Resource, nbytes: int):
        # The RAID controller is a serial pipe: hold the OSS for the
        # transfer duration (this is what makes Lustre the slow tier).
        yield from server.serve(
            nbytes / cal.LUSTRE_SERVER_BANDWIDTH + cal.LUSTRE_PER_REQUEST_COST
        )

    def aggregate_bandwidth(self) -> float:
        return len(self.servers) * cal.LUSTRE_SERVER_BANDWIDTH


class LustreClient(BaselineClient):
    """POSIX-flavoured adapter so shim-driven workloads (campaigns,
    :func:`sysmatrix`, the resilience experiment) can run against the
    PFS tier directly.

    Lustre clients buffer dirty pages; the striped RPCs happen at
    ``fsync``/``close`` via :meth:`LustreCluster.write_file`, which is
    where the RAID-bound OSS cost lands — matching how the multi-level
    checkpointer already drives this tier.
    """

    def __init__(self, cluster: LustreCluster, name: str):
        super().__init__(cluster.env, name, cluster.files, cluster.dirs)
        self.cluster = cluster

    # -- system hooks -------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        if op == "open":  # mkdir and unlink reach the MDS only on success
            yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)

    def _do_write(
        self, file: BaselineFile, offset: int, payload: Payload
    ) -> Generator[Event, Any, int]:
        file.dirty += payload.nbytes
        yield self.env.timeout(0)  # buffered in the client page cache
        return payload.nbytes

    def _do_read(self, file: BaselineFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        yield from self.cluster.striped_io(offset, nbytes)
        self.cluster.counters.add("bytes_read", nbytes)

    def _do_fsync(self, file: BaselineFile) -> Generator[Event, Any, None]:
        if file.dirty:
            yield from self.cluster.write_file(file.path, file.size)
            file.dirty = 0
        else:
            yield self.env.timeout(0)

    _do_close = _do_fsync  # close flushes what fsync did not

    def _do_mkdir(self, path: str) -> Generator[Event, Any, None]:
        yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)

    def _do_unlink(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
