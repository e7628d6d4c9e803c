"""NVMe-CR runtime instance: one per application process (§III-B).

Wires the three per-rank components of Figure 3 — control plane (inside
:class:`MicroFS`), data plane, and the rank's slice of the storage
balancer's plan — around the rank's MPI communicator. Initialisation is
the *only* coordinated step ("coordination is only necessary in the
initialization routine"):

1. split ``COMM_WORLD`` by assigned SSD into ``MPI_COMM_CR``,
2. validate namespace ownership (security model),
3. partition the namespace by ``MPI_COMM_CR`` rank,
4. connect the NVMf session and build the MicroFS instance,
5. barrier; after this, no instance ever coordinates again.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.balancer import BalancerPlan
from repro.core.config import RuntimeConfig
from repro.core.control_plane import GlobalNamespaceService
from repro.core.data_plane import DataPlane
from repro.core.microfs.fs import MicroFS
from repro.core.microfs.recovery import RecoveryReport, recover
from repro.core.security import SecurityManager
from repro.errors import SimulationError
from repro.fabric.nvmf import NVMfInitiator, NVMfTarget
from repro.fabric.rdma import RdmaFabric
from repro.fabric.transport import FabricTransport, LocalPCIeTransport, Transport
from repro.mpi.comm import Communicator
from repro.obs.context import tracer_of
from repro.obs.tracer import NULL_CONTEXT
from repro.sim.engine import Environment, Event
from repro.obs.metrics import Counter

__all__ = ["NVMeCRRuntime"]


class NVMeCRRuntime:
    """One rank's ephemeral storage runtime. Lives exactly as long as the
    application ("The runtime mirrors the lifespan of the application")."""

    def __init__(
        self,
        env: Environment,
        config: RuntimeConfig,
        comm: Communicator,
        plan: BalancerPlan,
        node_name: str,
        fabric: RdmaFabric,
        targets: Dict[str, NVMfTarget],
        uid: int = 0,
        global_namespace: Optional[GlobalNamespaceService] = None,
    ):
        self.env = env
        self.config = config
        self.comm = comm
        self.plan = plan
        self.node_name = node_name
        self.fabric = fabric
        self.targets = targets
        self.uid = uid
        self.global_namespace = global_namespace
        self.security = SecurityManager(plan.job.spec.name, uid)
        self.counters = Counter()
        self.initiator = NVMfInitiator(env, node_name, fabric)
        self.comm_cr: Optional[Communicator] = None
        self.fs: Optional[MicroFS] = None
        self.data_plane: Optional[DataPlane] = None
        self._ckpt_stop: Optional[Event] = None
        self._initialized = False

    @property
    def _track(self) -> str:
        return f"{self.plan.job.spec.name}.r{self.comm.rank}"

    def _span(self, name: str, **attrs):
        tr = tracer_of(self.env)
        if tr is None:
            return NULL_CONTEXT
        return tr.span(name, cat="runtime", track=self._track, **attrs)

    # -- lifecycle -------------------------------------------------------------------

    def init(self, start_checkpointer: bool = True) -> Generator[Event, Any, None]:
        """The work behind the intercepted ``MPI_Init`` (§III-C)."""
        if self._initialized:
            raise SimulationError("runtime already initialized")
        with self._span("runtime.init"):
            yield from self._init(start_checkpointer)

    def _init(self, start_checkpointer: bool) -> Generator[Event, Any, None]:
        rank = self.comm.rank
        grant = self.plan.grant_of_rank(rank)
        # 1. MPI_COMM_CR: all processes sharing this SSD.
        self.comm_cr = yield from self.comm.split(self.plan.color_of_rank(rank))
        # 2. Security: the namespace must belong to this job.
        self.security.check_namespace(grant.namespace)
        # 3. Private partition of the shared namespace.
        partition = self.plan.partition_for(rank, self.config.effective_block_bytes)
        # 4. Data plane over NVMf (or local PCIe when co-located).
        transport = self._build_transport(grant)
        self.data_plane = DataPlane(
            self.env, transport, grant.namespace.nsid, self.config, self.counters
        )
        self.fs = MicroFS(
            self.env, self.config, self.data_plane, partition,
            instance_name=f"{self.plan.job.spec.name}.r{rank}",
            uid=self.uid,
            global_namespace=self.global_namespace,
            counters=self.counters,
        )
        if start_checkpointer:
            self._ckpt_stop = self.env.event()
            self.env.process(self.fs.background_checkpointer(stop_event=self._ckpt_stop))
        # 5. Everybody ready before the application proceeds.
        yield from self.comm.barrier()
        self._initialized = True

    def _build_transport(self, grant) -> Transport:
        if grant.node_name == self.node_name:
            return LocalPCIeTransport(self.env, grant.ssd)
        entry = self.targets[grant.node_name]
        candidates = entry if isinstance(entry, (list, tuple)) else [entry]
        for target in candidates:
            if target.ssd is grant.ssd:
                return FabricTransport(self.initiator.connect(target))
        raise SimulationError(
            f"no NVMf target on {grant.node_name} exports {grant.ssd.name}"
        )

    def finalize(self) -> Generator[Event, Any, None]:
        """The work behind the intercepted ``MPI_Finalize``: retire the
        background thread, drop sessions, and rendezvous."""
        self._require_init()
        with self._span("runtime.finalize"):
            if self._ckpt_stop is not None and not self._ckpt_stop.triggered:
                self._ckpt_stop.succeed()
            yield from self.comm.barrier()
            self.initiator.disconnect_all()
            self._initialized = False

    def recover(self) -> Generator[Event, Any, RecoveryReport]:
        """Rebuild this rank's MicroFS from its partition after a crash.

        Requires init-time wiring (plan, transport) but a *fresh* fs —
        models runtime restart on the replacement process.
        """
        if self.data_plane is None:
            raise SimulationError("recover() before init()")
        rank = self.comm.rank
        partition = self.plan.partition_for(rank, self.config.effective_block_bytes)
        with self._span("runtime.recover"):
            fs, report = yield from recover(
                self.env, self.config, self.data_plane, partition,
                instance_name=f"{self.plan.job.spec.name}.r{rank}",
                uid=self.uid,
                global_namespace=self.global_namespace,
                counters=self.counters,
            )
        self.fs = fs
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("runtime.recoveries").add(1)
            ctx.metrics.histogram("runtime.recovery_replayed_records",
                                  unit="1").observe(report.records_replayed)
        return report

    # -- helpers ------------------------------------------------------------------------

    def _require_init(self) -> None:
        if not self._initialized or self.fs is None:
            raise SimulationError("runtime not initialized (call init())")

    @property
    def microfs(self) -> MicroFS:
        self._require_init()
        return self.fs
