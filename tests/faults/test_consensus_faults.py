"""Injector-driven consensus faults: LeaderKill and NetworkPartition."""

from repro.consensus import RaftGroup
from repro.faults import FaultInjector, FaultKind, LeaderKill, NetworkPartition
from repro.faults.model import blast_radius
from repro.sim.engine import Environment
from repro.sim.rng import RngHub
from repro.units import ms

MEMBERS = ["cn0", "cn1", "cn2"]


def make_group(seed=5):
    env = Environment()
    group = RaftGroup(env, MEMBERS, RngHub(seed))
    group.start()
    return env, group


def settle(env, group, until):
    def body():
        yield env.timeout(until)

    proc = env.process(body())
    env.run_until_complete(proc)
    group.stop()
    env.run()


def test_consensus_fault_kinds_have_empty_blast_radius():
    # They target the replicated control plane, not cluster hardware.
    for fault in (LeaderKill("cp"), NetworkPartition("cp")):
        radius = blast_radius(fault)
        assert not radius.nodes and not radius.ssds and not radius.targets


def test_leader_kill_crashes_leader_and_repair_revives_it():
    env, group = make_group()
    injector = FaultInjector(env)
    injector.attach_consensus(group)
    injector.at(ms(150), LeaderKill("cp"), repair_after=ms(100))
    injector.start()

    settle(env, group, ms(600))

    records = injector.timeline.records
    assert [r.kind for r in records] == [FaultKind.LEADER_KILL.value]
    killed = [m for m in MEMBERS if group.nodes[m].trace and any(
        t[0] == "crash" for t in group.nodes[m].trace
    )]
    assert len(killed) == 1
    victim = group.nodes[killed[0]]
    assert not victim.crashed  # repaired: revived after repair_after
    # A new leader took over, and the revived member converged on it.
    assert sum(len(n.terms_led) for n in group.nodes.values()) >= 2
    assert len(set(group.digests().values())) == 1


def test_partition_defaults_to_worst_minority_cut():
    env, group = make_group()
    injector = FaultInjector(env)
    injector.attach_consensus(group)
    injector.at(ms(150), NetworkPartition("cp"), repair_after=ms(100))
    injector.start()

    cuts = []

    def capture(record, fault, radius):
        cuts.append(frozenset(group.fabric._isolated))

    injector.subscribe(capture)
    settle(env, group, ms(600))

    # The default cut isolates the leader plus enough followers to stay
    # a minority: for 3 members, exactly the leader alone.
    assert len(cuts) == 1 and len(cuts[0]) == 1
    assert not group.fabric.is_partitioned()  # healed by repair
    # The majority side elected around the cut; replicas re-converged.
    assert sum(len(n.terms_led) for n in group.nodes.values()) >= 2
    assert len(set(group.digests().values())) == 1


def test_partition_with_explicit_members():
    env, group = make_group()
    injector = FaultInjector(env)
    injector.attach_consensus(group)
    injector.at(
        ms(150), NetworkPartition("cp", members=("cn2",)),
        repair_after=ms(100),
    )
    injector.start()

    def body():
        yield env.timeout(ms(170))
        assert group.fabric._isolated == frozenset({"cn2"})
        yield env.timeout(ms(430))

    proc = env.process(body())
    env.run_until_complete(proc)
    group.stop()
    env.run()
    assert not group.fabric.is_partitioned()


def test_consensus_faults_without_wiring_are_timeline_only():
    env = Environment()
    injector = FaultInjector(env)
    injector.at(ms(10), LeaderKill("cp"), repair_after=ms(10))
    injector.at(ms(20), NetworkPartition("cp"), repair_after=ms(10))
    injector.start()
    env.run()
    assert len(injector.timeline.records) == 2  # recorded, nothing struck


def test_interleaved_kills_and_partitions_recover():
    """The failover experiment's schedule shape: alternating strikes,
    each repaired before the next, with live proposals throughout."""
    env, group = make_group()
    injector = FaultInjector(env)
    injector.attach_consensus(group)
    for k in range(4):
        fault = LeaderKill("cp") if k % 2 == 0 else NetworkPartition("cp")
        injector.at(ms(100) + k * ms(200), fault, repair_after=ms(80))
    injector.start()

    acked = []

    def client():
        yield from group.wait_leader(timeout=1.0)
        for i in range(16):
            yield env.timeout(ms(50))
            yield from group.propose(("meta.set", f"/k{i}", i))
            acked.append(i)
        yield env.timeout(ms(300))

    proc = env.process(client())
    env.run_until_complete(proc)
    group.stop()
    env.run()

    assert acked == list(range(16))
    assert len(set(group.digests().values())) == 1
    live = [m for m in MEMBERS if not group.nodes[m].crashed]
    assert group.leader() in live
