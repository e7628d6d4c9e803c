"""End-to-end tests: scheduler -> balancer -> runtime -> CoMD over NVMf."""

import pytest

from repro.apps import CoMDConfig, CoMDProxy, Deployment
from repro.core.config import RuntimeConfig
from repro.errors import PermissionDenied
from repro.metrics import coefficient_of_variation, efficiency, summarize_stats
from repro.units import GiB, MiB


def small_config():
    return RuntimeConfig(log_region_bytes=MiB(1), state_region_bytes=MiB(16))


def test_full_stack_comd_small():
    dep = Deployment(seed=1, deterministic_devices=True)
    job, plan = dep.submit("comd-mini", nprocs=8, devices=2, bytes_per_device=GiB(8))
    proxy = CoMDProxy(CoMDConfig(atoms_per_rank=2000, checkpoints=3))
    mpi_job = dep.run_job(job, plan, proxy.rank_main, config=small_config())
    results = mpi_job.results()
    assert len(results) == 8
    for stats in results:
        assert len(stats.checkpoint_times) == 3
        assert stats.bytes_written == 3 * 2000 * 5120
        assert stats.compute_time > 0


def test_balancer_places_storage_on_partner_domain():
    dep = Deployment(seed=2)
    job, plan = dep.submit("j", nprocs=28, devices=3, bytes_per_device=GiB(4))
    compute_domains = {d.domain_id for d in dep.balancer.job_domains(job)}
    for grant in plan.grants:
        storage_domain = dep.balancer.domain_of_node(grant.node_name)
        assert storage_domain.domain_id not in compute_domains


def test_round_robin_rank_assignment():
    dep = Deployment(seed=3)
    job, plan = dep.submit("j", nprocs=10, devices=4, bytes_per_device=GiB(2))
    assert [plan.rank_to_grant[r] for r in range(10)] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    # Groups partition the ranks.
    all_ranks = sorted(
        r for g in range(4) for r in plan.group_of_grant(g)
    )
    assert all_ranks == list(range(10))


def test_partitions_disjoint_within_namespace():
    dep = Deployment(seed=4)
    job, plan = dep.submit("j", nprocs=8, devices=2, bytes_per_device=GiB(8))
    block = RuntimeConfig().effective_block_bytes
    for g in range(2):
        group = plan.group_of_grant(g)
        windows = []
        for rank in group:
            part = plan.partition_for(rank, block)
            windows.append((part.offset, part.offset + part.nbytes))
        windows.sort()
        for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
            assert a1 <= b0  # no overlap


def test_perfect_load_balance_across_servers():
    """Figure 7(b): NVMe-CR's CoV of per-server load is ~0."""
    dep = Deployment(seed=5, deterministic_devices=True)
    job, plan = dep.submit("comd", nprocs=8, devices=4, bytes_per_device=GiB(4))
    proxy = CoMDProxy(CoMDConfig(atoms_per_rank=2000, checkpoints=2))
    dep.run_job(job, plan, proxy.rank_main, config=small_config())
    loads = [b for b in dep.bytes_per_server() if b > 0]
    assert len(loads) == 4
    assert coefficient_of_variation(loads) < 0.02


def test_checkpoint_efficiency_reasonable_at_small_scale():
    dep = Deployment(seed=6, deterministic_devices=True)
    job, plan = dep.submit("comd", nprocs=28, devices=1, bytes_per_device=GiB(30))
    proxy = CoMDProxy(CoMDConfig(atoms_per_rank=8000, checkpoints=2, compute_jitter=0.0))
    mpi_job = dep.run_job(job, plan, proxy.rank_main, config=small_config())
    row = summarize_stats("nvme-cr", 28, mpi_job.results())
    ssd = dep.ssds[plan.grants[0].node_name]
    eff = efficiency(row.total_bytes, row.checkpoint_time, ssd.spec.write_bandwidth)
    assert eff > 0.80  # near-hardware at full subscription of one SSD


def test_namespace_security_rejects_foreign_job():
    dep = Deployment(seed=7)
    job_a, plan_a = dep.submit("job-a", nprocs=2, devices=1, bytes_per_device=GiB(2))
    job_b, plan_b = dep.submit("job-b", nprocs=2, devices=1, bytes_per_device=GiB(2))
    # Forge a plan whose grant belongs to the other job.
    plan_a.grants[0] = plan_b.grants[0]

    def rank_main(shim, comm):
        yield from comm.barrier()
        return None

    with pytest.raises(PermissionDenied):
        dep.run_job(job_a, plan_a, rank_main, config=small_config())


def test_job_completion_releases_namespaces():
    dep = Deployment(seed=8)
    ssd_free_before = {n: s.free_bytes() for n, s in dep.ssds.items()}
    job, plan = dep.submit("ephemeral", nprocs=4, devices=2, bytes_per_device=GiB(4))
    assert any(
        dep.ssds[n].free_bytes() < ssd_free_before[n] for n in dep.ssds
    )
    dep.scheduler.complete(job)
    for name, ssd in dep.ssds.items():
        assert ssd.free_bytes() == ssd_free_before[name]


def test_restart_reads_back_checkpoints():
    dep = Deployment(seed=9, deterministic_devices=True)
    job, plan = dep.submit("comd", nprocs=4, devices=2, bytes_per_device=GiB(4))
    proxy = CoMDProxy(CoMDConfig(atoms_per_rank=1000, checkpoints=2))

    def rank_main(shim, comm):
        yield from proxy.rank_main(shim, comm)
        stats = yield from proxy.restart_main(shim, comm)
        return stats

    mpi_job = dep.run_job(job, plan, rank_main, config=small_config())
    for stats in mpi_job.results():
        assert stats.bytes_read == 2 * 1000 * 5120


def test_replacement_rank_replays_its_log_from_the_partner_domain_ssd():
    """A compute-node crash loses only the ranks: each replacement rank
    rebuilds its MicroFS by log replay from the partner-domain SSD."""
    from repro.core.microfs.recovery import recover
    from repro.mpi.runtime import launch

    dep = Deployment(seed=7, deterministic_devices=True)
    job, plan = dep.submit("replay", nprocs=2, procs_per_node=1, devices=1,
                           bytes_per_device=GiB(2))
    config = small_config()
    files = {f"/ckpt{i}.dat": MiB(4) for i in range(2)}

    def rank_main(shim, comm):
        for path, nbytes in files.items():
            fd = yield from shim.open(path, "w")
            yield from shim.write(fd, nbytes)
            yield from shim.fsync(fd)
            yield from shim.close(fd)

    dep.run_job(job, plan, rank_main, config=config)

    recovered = {}

    def replacement(comm):
        runtime = dep.build_runtime(comm, job, plan, config)
        yield from runtime.init(start_checkpointer=False)
        partition = plan.partition_for(comm.rank, config.effective_block_bytes)
        fs, report = yield from recover(
            dep.env, config, runtime.data_plane, partition)
        recovered[comm.rank] = (runtime, fs, report)

    mpi_job = launch(dep.env, 2, replacement, node_of_rank=job.rank_to_node)
    dep.env.run_until_complete(mpi_job.done)
    mpi_job.done.value  # re-raises if any rank failed

    compute_domains = {d.domain_id for d in dep.balancer.job_domains(job)}
    assert sorted(recovered) == [0, 1]
    for rank, (runtime, fs, report) in recovered.items():
        for path, nbytes in files.items():
            assert fs.stat(path).size == nbytes
        assert report.records_replayed > 0
        assert not runtime.data_plane.transport.session.is_local
        grant = plan.grant_of_rank(rank)
        storage_domain = dep.balancer.domain_of_node(grant.node_name)
        assert storage_domain.domain_id not in compute_domains


def test_nvmf_remote_vs_local_transport_selected():
    """Compute ranks are remote from storage: transports must be NVMf."""
    dep = Deployment(seed=10)
    job, plan = dep.submit("j", nprocs=2, devices=1, bytes_per_device=GiB(2))

    def rank_main(shim, comm):
        yield from comm.barrier()
        return shim.runtime.data_plane.transport.description

    mpi_job = dep.run_job(job, plan, rank_main, config=small_config())
    for desc in mpi_job.results():
        assert desc.startswith("nvmf:")


def test_multi_ssd_storage_nodes():
    """Storage nodes can carry several SSDs; jobs span them via per-SSD
    NVMf targets."""
    from repro.topology import ClusterSpec, Node, NodeKind, Rack
    from repro.units import GiB as _GiB

    racks = [
        Rack("rc", [Node(f"c{i}", NodeKind.COMPUTE, "rc", "pc", 8, _GiB(16))
                    for i in range(3)]),
        Rack("rs", [Node("s0", NodeKind.STORAGE, "rs", "ps", 8, _GiB(16),
                         ssd_count=3)]),
    ]
    dep = Deployment(seed=30, cluster=ClusterSpec(racks))
    assert len(dep.all_ssds["s0"]) == 3
    assert dep.aggregate_write_bandwidth() == 3 * dep.ssd_spec.write_bandwidth
    # Three jobs each land a namespace; the scheduler spreads by free space.
    names = set()
    for j in range(3):
        job, plan = dep.submit(f"j{j}", nprocs=2, procs_per_node=8,
                               devices=1, bytes_per_device=_GiB(2))

        def rank_main(shim, comm):
            fd = yield from shim.open("/x", "w")
            yield from shim.write(fd, MiB(8))
            yield from shim.close(fd)
            return shim.runtime.data_plane.transport.description

        mpi_job = dep.run_job(job, plan, rank_main, config=small_config())
        names.update(mpi_job.results())
    # Namespaces stay live across jobs, so the free-space heuristic
    # spreads the three jobs over all three devices.
    assert len(names) == 3
