"""Storage-system registry: every comparable backend under one name.

The evaluation compares NVMe-CR against seven baseline storage systems,
plus standalone MicroFS fleets for the single-node figures. Before this
registry each experiment hand-wired the subset it compared, so adding a
backend to a figure meant editing the figure. Now each system registers
one *builder* producing a :class:`SystemHandle` — a uniform facade over
"a deployed storage system with ``nprocs`` shim-compatible clients" —
and experiments take a ``systems=(...)`` tuple of names.

Builders are keyword-only and accept the same provisioning overrides the
experiments used to pass to the underlying constructors, so a registry
build is bit-for-bit identical to the hand-wired object graph it
replaced (same construction order, same seeds, same client names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import UnknownSystem
from repro.sim.engine import Environment

__all__ = ["SystemSpec", "SystemHandle", "register", "get", "names", "specs",
           "build"]


@dataclass(frozen=True)
class SystemSpec:
    """One registered storage system."""

    name: str
    title: str  # display label, e.g. "NVMe-CR"
    short: str  # column-name fragment, e.g. "ofs"
    kind: str  # "runtime" | "distributed" | "kernel" | "local"
    description: str
    builder: Callable[..., "SystemHandle"]

    def build(self, **kwargs: Any) -> "SystemHandle":
        handle = self.builder(**kwargs)
        handle.spec = self
        from repro.obs.context import attach

        handle.obs = attach(handle.env, label=self.name)
        from repro.analysis.sanitize import attach_if_active

        attach_if_active(handle.env, label=self.name)
        return handle


@dataclass
class SystemHandle:
    """A deployed storage system, ready to serve ``nprocs`` ranks.

    ``clients`` holds one shim-compatible client per rank for systems a
    workload drives directly; runtime-managed systems (the full NVMe-CR
    runtime, whose shims only exist inside ``MPI_Init``/``Finalize``)
    leave it ``None`` and provide ``_run_ranks`` instead.
    """

    env: Environment
    deployment: Any = None  # apps.deployment.Deployment, when testbed-backed
    cluster: Any = None  # the baseline cluster / fleet / filesystem object
    clients: Optional[List[Any]] = None
    spec: Optional[SystemSpec] = None
    _run_ranks: Optional[Callable[[Callable], List[Any]]] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    obs: Any = None  # repro.obs.ObsContext, attached by SystemSpec.build()

    # -- drivers ----------------------------------------------------------

    def run_ranks(self, rank_main: Callable) -> List[Any]:
        """Run ``rank_main(shim, comm)`` on every rank; per-rank returns.

        Client-backed systems launch simulated MPI ranks over their
        clients; the NVMe-CR runtime routes through the scheduler's
        ``run_job`` (MPI_Init/Finalize wrap the rank body there).
        """
        if self._run_ranks is not None:
            return self._run_ranks(rank_main)
        if self.clients is None:
            raise UnknownSystem(f"{self.name}: no clients and no rank driver")
        from repro.mpi.runtime import launch

        clients = self.clients

        def main(comm):
            return (yield from rank_main(clients[comm.rank], comm))

        mpi_job = launch(self.env, len(clients), main)
        self.env.run()
        if mpi_job.done.triggered:
            mpi_job.done.value  # re-raises if any rank failed
        return mpi_job.results()

    def makespan(self, work: Callable) -> float:
        """Drive ``work(i, client)`` on every client; max finish - start."""
        if self.clients is None:
            raise UnknownSystem(
                f"{self.name}: runtime-managed system has no standalone "
                "clients; use run_ranks()"
            )
        from repro.bench.harness import parallel_clients

        return parallel_clients(self.env, self.clients, work)

    # -- measurement ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name if self.spec is not None else "<unregistered>"

    def load_per_server(self) -> List[float]:
        """Stored-byte load per storage server (Figure 7(b)'s input)."""
        if self.cluster is not None and hasattr(self.cluster, "bytes_per_server"):
            return list(self.cluster.bytes_per_server())
        if self.deployment is not None:
            return list(self.deployment.bytes_per_server())
        raise UnknownSystem(f"{self.name}: no per-server load accounting")

    def metadata_bytes_per_server(self) -> float:
        if self.cluster is not None and hasattr(
            self.cluster, "metadata_bytes_per_server"
        ):
            return self.cluster.metadata_bytes_per_server()
        raise UnknownSystem(f"{self.name}: no metadata accounting")

    def aggregate_write_bandwidth(self) -> float:
        if self.deployment is not None:
            return self.deployment.aggregate_write_bandwidth()
        ssds = self.extras.get("ssds")
        if ssds:
            return sum(ssd.spec.write_bandwidth for ssd in ssds)
        if self.cluster is not None and hasattr(self.cluster, "aggregate_bandwidth"):
            return self.cluster.aggregate_bandwidth()  # PFS tier: RAID pipes
        raise UnknownSystem(f"{self.name}: no device inventory")

    def aggregate_read_bandwidth(self) -> float:
        if self.deployment is not None:
            return self.deployment.aggregate_read_bandwidth()
        ssds = self.extras.get("ssds")
        if ssds:
            return sum(ssd.spec.read_bandwidth for ssd in ssds)
        if self.cluster is not None and hasattr(self.cluster, "aggregate_bandwidth"):
            return self.cluster.aggregate_bandwidth()
        raise UnknownSystem(f"{self.name}: no device inventory")


_REGISTRY: Dict[str, SystemSpec] = {}


def register(
    name: str, *, title: str, short: str, kind: str, description: str
) -> Callable[[Callable[..., SystemHandle]], Callable[..., SystemHandle]]:
    """Decorator: register ``builder(**kwargs) -> SystemHandle`` as ``name``."""

    def decorate(builder: Callable[..., SystemHandle]) -> Callable[..., SystemHandle]:
        if name in _REGISTRY:
            raise UnknownSystem(f"duplicate system registration: {name!r}")
        _REGISTRY[name] = SystemSpec(
            name=name, title=title, short=short, kind=kind,
            description=description, builder=builder,
        )
        return builder

    return decorate


def get(name: str) -> SystemSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownSystem(f"unknown storage system {name!r}; known: {known}")
    return spec


def names() -> List[str]:
    return sorted(_REGISTRY)


def specs() -> List[SystemSpec]:
    return [_REGISTRY[n] for n in names()]


def build(name: str, **kwargs: Any) -> SystemHandle:
    """Build a registered system: ``build("glusterfs", nprocs=28, ...)``."""
    return get(name).build(**kwargs)
