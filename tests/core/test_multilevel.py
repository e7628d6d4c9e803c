"""Tests for the multi-level checkpointer over NVMe-CR + Lustre."""

import pytest

from repro.baselines import LustreCluster
from repro.bench.fleet import MicroFSFleet
from repro.core.multilevel import MultiLevelCheckpointer
from repro.core.placement import FixedIntervalPolicy, TierTarget
from repro.errors import InvalidArgument, RecoveryError
from repro.units import MiB


@pytest.fixture
def rig():
    fleet = MicroFSFleet(1, partition_bytes=MiB(768))
    lustre = LustreCluster(fleet.env)
    mlc = MultiLevelCheckpointer(fleet.clients[0], lustre, pfs_interval=5)
    return fleet, lustre, mlc


def run(fleet, gen):
    return fleet.env.run_until_complete(fleet.env.process(gen))


def test_level_policy():
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    mlc = MultiLevelCheckpointer(fleet.clients[0], LustreCluster(fleet.env), pfs_interval=10)
    levels = [mlc.level_for(step) for step in range(10)]
    assert levels == [1] * 9 + [2]


def test_invalid_interval():
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    with pytest.raises(InvalidArgument):
        MultiLevelCheckpointer(fleet.clients[0], LustreCluster(fleet.env), pfs_interval=0)


def test_missing_tier_clients_rejected():
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    lustre = LustreCluster(fleet.env)
    with pytest.raises(InvalidArgument):
        MultiLevelCheckpointer(None, lustre)


def test_no_durable_tier_mode_raises_at_durable_write():
    """level2=None is the deliberate level-1-only mode; only *placing*
    a checkpoint on level 2 is an error."""
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    mlc = MultiLevelCheckpointer(fleet.clients[0], None, pfs_interval=1)
    mlc._dir_made = True

    def scenario():
        yield from mlc.write_checkpoint(0, MiB(1))  # every step durable

    with pytest.raises(InvalidArgument):
        run(fleet, scenario())


def test_targets_mode_validation():
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    lustre = LustreCluster(fleet.env)
    pfs = TierTarget("pfs", lustre, write_bandwidth=1e9, read_bandwidth=1e9)
    with pytest.raises(InvalidArgument):
        MultiLevelCheckpointer(targets=[pfs])  # < 2 tiers
    holey = TierTarget("hole", None, write_bandwidth=1e9, read_bandwidth=1e9)
    with pytest.raises(InvalidArgument):
        MultiLevelCheckpointer(targets=[holey, pfs])


def test_level_for_boundaries():
    """level_for is the §III-F rule: 1-based steps-from-0, every k-th
    checkpoint durable — including the k=1 everything-durable edge."""
    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    lustre = LustreCluster(fleet.env)
    mlc = MultiLevelCheckpointer(fleet.clients[0], lustre, pfs_interval=3)
    assert [mlc.level_for(s) for s in range(7)] == [1, 1, 2, 1, 1, 2, 1]
    every = MultiLevelCheckpointer(fleet.clients[0], lustre, pfs_interval=1)
    assert [every.level_for(s) for s in range(3)] == [2, 2, 2]


def test_write_routes_by_policy(rig):
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(10):
            yield from mlc.write_checkpoint(step, MiB(8))

    run(fleet, scenario())
    levels = [r.level for r in mlc.records]
    assert levels == [1, 1, 1, 1, 2, 1, 1, 1, 1, 2]
    assert mlc.tier_bytes() == {1: 8 * MiB(8), 2: 2 * MiB(8)}
    assert lustre.counters.get("bytes_written") == 2 * MiB(8)


def test_recover_latest_prefers_newest(rig):
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(6):
            yield from mlc.write_checkpoint(step, MiB(4))
        record = yield from mlc.recover_latest()
        return record

    record = run(fleet, scenario())
    assert record.step == 5
    assert record.level == 1


def test_recover_after_cascading_failure_uses_lustre(rig):
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(7):
            yield from mlc.write_checkpoint(step, MiB(4))
        record = yield from mlc.recover_latest(level1_alive=False)
        return record

    record = run(fleet, scenario())
    assert record.level == 2
    assert record.step == 4  # the 1-in-5 Lustre checkpoint


def test_recover_prefer_level(rig):
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(5):
            yield from mlc.write_checkpoint(step, MiB(4))
        record = yield from mlc.recover_latest(prefer_level=2)
        return record

    record = run(fleet, scenario())
    assert record.level == 2


def test_no_checkpoint_raises(rig):
    fleet, lustre, mlc = rig

    def scenario():
        yield from mlc.recover_latest()

    with pytest.raises(RecoveryError):
        run(fleet, scenario())


def test_recovery_walk_is_newest_first(rig):
    """The walk scans records newest-first and takes the first survivor,
    not the newest overall: with level 1 dead, an *older* level-2
    checkpoint wins over every newer level-1 one."""
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(10):  # durable at steps 4 and 9 (k=5)
            yield from mlc.write_checkpoint(step, MiB(2))
        yield from mlc.write_checkpoint(10, MiB(2))  # newest is level 1
        record = yield from mlc.recover_latest(dead_levels=[1])
        return record

    record = run(fleet, scenario())
    assert (record.step, record.level) == (9, 2)


def test_forget_levels_drops_records(rig):
    fleet, lustre, mlc = rig

    def scenario():
        for step in range(10):
            yield from mlc.write_checkpoint(step, MiB(2))

    run(fleet, scenario())
    mlc.forget_levels([1])
    assert [r.level for r in mlc.records] == [2, 2]
    assert mlc.tier_bytes() == {1: 0, 2: 2 * MiB(2)}


def test_targets_mode_routes_and_recovers():
    """An explicit 3-deep hierarchy: placement routes by positional
    level and recovery reads through the matching target client."""
    from repro.sim.engine import Environment
    from repro.tiers import NVMDevice, TierClient

    env = Environment()
    lustre = LustreCluster(env)
    fast = TierClient(NVMDevice(env), name="nvm")
    mid = TierClient(NVMDevice(env, name="nvm1"), name="mid")
    targets = [
        TierTarget("nvm", fast, write_bandwidth=2.3e9, read_bandwidth=6.6e9,
                   residual_failure_prob=0.67),
        TierTarget("mid", mid, write_bandwidth=2.2e9, read_bandwidth=2.4e9,
                   residual_failure_prob=0.33),
        TierTarget("pfs", lustre, write_bandwidth=6e9, read_bandwidth=6e9),
    ]
    mlc = MultiLevelCheckpointer(
        targets=targets, policy=FixedIntervalPolicy(4, durable_level=3),
    )
    assert mlc.n_levels == 3
    assert [t.level for t in targets] == [1, 2, 3]

    def scenario():
        for step in range(8):  # durable at steps 3 and 7
            yield from mlc.write_checkpoint(step, MiB(1))
        fast.lose_data()
        mlc.forget_levels([1])
        record = yield from mlc.recover_latest(dead_levels=[1])
        return record

    record = env.run_until_complete(env.process(scenario()))
    assert (record.step, record.level) == (7, 3)
    assert lustre.counters.get("bytes_written") == 2 * MiB(1)


def test_lustre_tier_is_raid_limited(rig):
    """A level-2 checkpoint runs at the PFS's aggregate RAID bandwidth
    (~6 GB/s) — ample for one rank, the bottleneck at job scale."""
    fleet, lustre, mlc = rig
    env = fleet.env

    def scenario():
        t0 = env.now
        yield from mlc.write_checkpoint(4, MiB(512))  # level 2
        return env.now - t0

    level2_time = run(fleet, scenario())
    floor = MiB(512) / lustre.aggregate_bandwidth()
    assert floor <= level2_time < 1.3 * floor
