"""Built-in storage-system builders.

One builder per comparable system in the evaluation. Each reproduces
exactly the object graph the experiments used to hand-wire (same
construction order, same RNG seeding, same client names), so routing an
experiment through the registry does not move a single simulated event.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from repro.core.config import RuntimeConfig
from repro.sim.engine import Environment
from repro.systems.registry import SystemHandle, register
from repro.units import GiB

__all__: List[str] = []


# ---------------------------------------------------------------------------
# The paper's contribution: the full NVMe-CR runtime through the scheduler
# ---------------------------------------------------------------------------


@register(
    "nvmecr", title="NVMe-CR", short="nvmecr", kind="runtime",
    description="full NVMe-CR runtime: balancer, NVMf data plane, microfs",
)
def _build_nvmecr(
    *,
    nprocs: int,
    seed: int = 0,
    devices: Optional[int] = None,
    bytes_per_device: int = GiB(2),
    config: Optional[RuntimeConfig] = None,
    global_namespace: Any = None,
    job_name: str = "job",
    deployment: Any = None,
) -> SystemHandle:
    from repro.apps.deployment import Deployment

    dep = deployment if deployment is not None else Deployment(seed=seed)
    job, plan = dep.submit(
        job_name, nprocs=nprocs, devices=devices or 8,
        bytes_per_device=bytes_per_device,
    )
    run_config = config or RuntimeConfig()

    def run_ranks(rank_main: Callable) -> List[Any]:
        mpi_job = dep.run_job(
            job, plan, rank_main, config=run_config,
            global_namespace=global_namespace,
        )
        return mpi_job.results()

    return SystemHandle(
        env=dep.env, deployment=dep, _run_ranks=run_ranks,
        extras={"job": job, "plan": plan, "config": run_config},
    )


@register(
    "nvmecr-raft", title="NVMe-CR (Raft)", short="nvmecr-r", kind="runtime",
    description="NVMe-CR with a Raft-replicated control plane across zones",
)
def _build_nvmecr_raft(
    *,
    nprocs: int,
    seed: int = 0,
    devices: Optional[int] = None,
    bytes_per_device: int = GiB(2),
    config: Optional[RuntimeConfig] = None,
    global_namespace: Any = None,
    job_name: str = "job",
    deployment: Any = None,
    replicas: int = 3,
    witnesses: int = 0,
    zones: int = 2,
) -> SystemHandle:
    """The nvmecr data plane plus a zone-replicated metadata authority.

    Control-plane metadata (the :class:`MetadataStore` interface) is
    served by a Raft group whose members are spread one-per-zone over
    the federated cluster; the data plane is byte-for-byte the nvmecr
    builder's.  ``extras`` carries the live group, the replicated store,
    and the zone map for fault-injection experiments.
    """
    from repro.apps.deployment import Deployment
    from repro.consensus.group import RaftGroup
    from repro.core.control_plane import make_metadata_store
    from repro.topology.zones import ZoneMap

    dep = deployment if deployment is not None else Deployment(seed=seed)
    job, plan = dep.submit(
        job_name, nprocs=nprocs, devices=devices or 8,
        bytes_per_device=bytes_per_device,
    )
    run_config = (config or RuntimeConfig()).with_(control_plane_mode="raft")

    zone_map = ZoneMap.federate(dep.cluster, zones=zones)
    candidates = [n.name for n in dep.cluster.storage_nodes()]
    candidates += [n.name for n in dep.cluster.compute_nodes()]
    members = zone_map.spread(candidates, replicas)
    witness_members = tuple(members[-witnesses:]) if witnesses else ()
    group = RaftGroup(
        dep.env, members, dep.rng, zone_of=zone_map.zone_of,
        witnesses=witness_members,
    )
    group.start()
    store = make_metadata_store(dep.env, "raft", group)

    def run_ranks(rank_main: Callable) -> List[Any]:
        mpi_job = dep.run_job(
            job, plan, rank_main, config=run_config,
            global_namespace=global_namespace, on_complete=group.stop,
        )
        return mpi_job.results()

    return SystemHandle(
        env=dep.env, deployment=dep, _run_ranks=run_ranks,
        extras={
            "job": job, "plan": plan, "config": run_config,
            "group": group, "store": store, "zones": zone_map,
        },
    )


@register(
    "nvmecr-tiered", title="NVMe-CR (tiered)", short="nvmecr-t", kind="runtime",
    description="NVMe-CR plus a calibrated NVM fast tier and cost-model placement",
)
def _build_nvmecr_tiered(
    *,
    nprocs: int,
    seed: int = 0,
    devices: Optional[int] = None,
    bytes_per_device: int = GiB(2),
    config: Optional[RuntimeConfig] = None,
    global_namespace: Any = None,
    job_name: str = "job",
    deployment: Any = None,
) -> SystemHandle:
    """The nvmecr runtime with a byte-addressable fast tier.

    A calibrated NVM module sits above the job's NVMe storage, and the
    run config requests cost-model checkpoint placement.  The NVMe data
    plane is byte-for-byte the nvmecr builder's — the NVM module only
    adds a tier above it.  ``extras["fast_device"]`` is the module.
    """
    from repro.apps.deployment import Deployment
    from repro.tiers import NVMDevice

    dep = deployment if deployment is not None else Deployment(seed=seed)
    fast = NVMDevice(dep.env, name="nvm0")
    job, plan = dep.submit(
        job_name, nprocs=nprocs, devices=devices or 8,
        bytes_per_device=bytes_per_device,
    )
    run_config = (config or RuntimeConfig()).with_(
        checkpoint_placement="cost-model"
    )

    def run_ranks(rank_main: Callable) -> List[Any]:
        mpi_job = dep.run_job(
            job, plan, rank_main, config=run_config,
            global_namespace=global_namespace,
        )
        return mpi_job.results()

    return SystemHandle(
        env=dep.env, deployment=dep, _run_ranks=run_ranks,
        extras={
            "job": job, "plan": plan, "config": run_config,
            "fast_device": fast,
        },
    )


# ---------------------------------------------------------------------------
# Standalone MicroFS fleets (single node, figures 7(a)/7(c)/8(a))
# ---------------------------------------------------------------------------


def _build_fleet(remote: bool, **kwargs: Any) -> SystemHandle:
    from repro.bench.fleet import MicroFSFleet

    fleet = MicroFSFleet(remote=remote, **kwargs)
    return SystemHandle(
        env=fleet.env, cluster=fleet, clients=list(fleet.clients),
        extras={"ssds": [fleet.ssd], "fleet": fleet},
    )


@register(
    "microfs", title="MicroFS (local)", short="mfs", kind="local",
    description="standalone MicroFS instances over one local SSD",
)
def _build_microfs(**kwargs: Any) -> SystemHandle:
    return _build_fleet(False, **kwargs)


@register(
    "microfs-remote", title="MicroFS (NVMf)", short="mfsr", kind="local",
    description="standalone MicroFS instances over one NVMf-remote SSD",
)
def _build_microfs_remote(**kwargs: Any) -> SystemHandle:
    return _build_fleet(True, **kwargs)


# ---------------------------------------------------------------------------
# Distributed baselines over the testbed deployment
# ---------------------------------------------------------------------------


def _deployment_for(seed: int, deployment: Any) -> Any:
    from repro.apps.deployment import Deployment

    return deployment if deployment is not None else Deployment(seed=seed)


@register(
    "orangefs", title="OrangeFS", short="ofs", kind="distributed",
    description="striping + metadata servers + layered server stack",
)
def _build_orangefs(
    *, nprocs: int, namespace_bytes: int, seed: int = 0, deployment: Any = None
) -> SystemHandle:
    from repro.baselines.orangefs import OrangeFSCluster

    dep = _deployment_for(seed, deployment)
    cluster = OrangeFSCluster(dep, namespace_bytes)
    clients = [cluster.client(f"r{i}") for i in range(nprocs)]
    return SystemHandle(env=dep.env, deployment=dep, cluster=cluster, clients=clients)


@register(
    "glusterfs", title="GlusterFS", short="gfs", kind="distributed",
    description="jump-consistent-hash placement, serialised dir entries",
)
def _build_glusterfs(
    *, nprocs: int, namespace_bytes: int, seed: int = 0, deployment: Any = None
) -> SystemHandle:
    from repro.baselines.glusterfs import GlusterFSCluster

    dep = _deployment_for(seed, deployment)
    cluster = GlusterFSCluster(dep, namespace_bytes)
    clients = [cluster.client(f"r{i}") for i in range(nprocs)]
    return SystemHandle(env=dep.env, deployment=dep, cluster=cluster, clients=clients)


@register(
    "crail", title="Crail", short="crail", kind="distributed",
    description="SPDK data plane behind a single metadata server",
)
def _build_crail(
    *,
    nprocs: int,
    namespace_bytes: int,
    seed: int = 0,
    client_node: str = "comp00",
    deployment: Any = None,
) -> SystemHandle:
    from repro.baselines.crail import CrailCluster

    dep = _deployment_for(seed, deployment)
    cluster = CrailCluster(dep, namespace_bytes)
    clients = [cluster.client(f"c{i}", client_node) for i in range(nprocs)]
    return SystemHandle(env=dep.env, deployment=dep, cluster=cluster, clients=clients)


@register(
    "lustre", title="Lustre", short="pfs", kind="distributed",
    description="the level-2 PFS tier: 4 OSSes behind RAID, durable",
)
def _build_lustre(
    *,
    nprocs: int,
    seed: int = 0,
    namespace_bytes: int = 0,  # accepted for matrix parity; capacity-unbounded
    servers: Optional[int] = None,
    env: Optional[Environment] = None,
) -> SystemHandle:
    from repro.baselines.lustre import LustreCluster

    env = env if env is not None else Environment()
    kwargs = {} if servers is None else {"servers": servers}
    cluster = LustreCluster(env, **kwargs)
    clients = [cluster.client(f"r{i}") for i in range(nprocs)]
    return SystemHandle(env=env, cluster=cluster, clients=clients)


@register(
    "burstfs", title="BurstFS", short="bb", kind="distributed",
    description="node-local burst buffers + PFS drain (BurstFS/UnifyFS-class)",
)
def _build_burstfs(
    *, nprocs: int, namespace_bytes: int = GiB(64), seed: int = 0
) -> SystemHandle:
    from repro.baselines.burstfs import BurstBufferCluster

    env = Environment()
    nodes = [f"comp{i:02d}" for i in range(nprocs)]
    cluster = BurstBufferCluster(
        env, nodes, namespace_bytes=namespace_bytes, seed=seed
    )
    clients = [cluster.client(f"r{i}", nodes[i]) for i in range(nprocs)]
    return SystemHandle(
        env=env, cluster=cluster, clients=clients,
        extras={"ssds": list(cluster.node_ssds.values())},
    )


# ---------------------------------------------------------------------------
# Single-SSD kernel filesystems and raw SPDK (figure 7(c))
# ---------------------------------------------------------------------------


def _build_kernel_fs(
    variant: str, *, nprocs: int, bytes_per_client: int, seed: int = 0
) -> SystemHandle:
    from repro.baselines.posixfs import KernelFilesystem
    from repro.nvme.device import SSD, intel_p4800x

    env = Environment()
    ssd = SSD(env, intel_p4800x(), "nvme0", rng=np.random.default_rng(seed))
    ns = ssd.create_namespace(bytes_per_client * nprocs, owner_job=variant)
    kfs = KernelFilesystem(env, ssd, ns, variant)
    clients = [kfs.client(f"c{i}") for i in range(nprocs)]
    return SystemHandle(
        env=env, cluster=kfs, clients=clients, extras={"ssds": [ssd]}
    )


@register(
    "xfs", title="XFS", short="xfs", kind="kernel",
    description="kernel data path: trap + VFS + page cache, XFS journaling",
)
def _build_xfs(**kwargs: Any) -> SystemHandle:
    return _build_kernel_fs("xfs", **kwargs)


@register(
    "ext4", title="ext4", short="ext4", kind="kernel",
    description="kernel data path: trap + VFS + page cache, ext4 journaling",
)
def _build_ext4(**kwargs: Any) -> SystemHandle:
    return _build_kernel_fs("ext4", **kwargs)


@register(
    "spdk", title="raw SPDK", short="spdk", kind="local",
    description="raw SPDK bdev access, no filesystem (lower bound)",
)
def _build_spdk(
    *, nprocs: int, bytes_per_client: int, seed: int = 0
) -> SystemHandle:
    from repro.baselines.spdk import RawSPDKClient
    from repro.fabric.transport import LocalPCIeTransport
    from repro.nvme.device import SSD, intel_p4800x

    env = Environment()
    ssd = SSD(env, intel_p4800x(), "nvme0", rng=np.random.default_rng(seed))
    ns = ssd.create_namespace(bytes_per_client * nprocs, owner_job="spdk")
    region = ns.nbytes // nprocs
    clients = [
        RawSPDKClient(
            env, LocalPCIeTransport(env, ssd), ns.nsid,
            i * region, region, name=f"spdk{i}",
        )
        for i in range(nprocs)
    ]
    return SystemHandle(env=env, clients=clients, extras={"ssds": [ssd]})
