"""Property: consensus is deterministic — seed + fault schedule fix the
full election/commit/term trace, bit for bit."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import RaftGroup
from repro.sim.engine import Environment
from repro.sim.rng import RngHub
from repro.units import ms

MEMBERS = ["cn0", "cn1", "cn2"]

# A fault step is (kind, at_offset_ms): the scripted client applies it
# mid-workload.  Offsets are integers so schedules compare exactly.
fault_steps = st.lists(
    st.tuples(
        st.sampled_from(["kill-leader", "partition-leader", "none"]),
        st.integers(min_value=10, max_value=60),
    ),
    min_size=0,
    max_size=2,
)


def scripted_client(env, group, schedule, n_ops, acks):
    """Process body: ``n_ops`` proposals through the fault schedule.

    Appends each acknowledged proposal's ``(log index, env.now)`` to
    ``acks``.
    """
    yield from group.wait_leader(timeout=2.0)
    pending = list(schedule)
    for i in range(n_ops):
        # One outstanding fault at a time: strike, commit through it,
        # repair.  A lone fault always leaves a quorum side, so the
        # untimed propose below cannot block forever.
        repair = None
        if pending:
            kind, offset = pending.pop(0)
            yield env.timeout(ms(offset))
            if kind == "kill-leader":
                victim = group.kill_leader()
                if victim is not None:
                    repair = ("revive", victim)
            elif kind == "partition-leader":
                lead = group.leader()
                if lead is not None:
                    group.partition([lead])
                    repair = ("heal", None)
        index, _result = yield from group.propose(("meta.set", f"/k{i}", i))
        acks.append((index, env.now))
        if repair is not None:
            action, victim = repair
            group.revive(victim) if action == "revive" else group.heal()
    yield env.timeout(ms(250))


def run_once(seed, schedule, n_ops=6):
    """One full consensus run; returns the observable outcome tuple."""
    env = Environment()
    group = RaftGroup(env, MEMBERS, RngHub(seed))
    group.start()
    proc = env.process(scripted_client(env, group, schedule, n_ops, []))
    env.run_until_complete(proc)
    group.stop()
    env.run()
    return (
        group.traces(),
        group.digests(),
        group.commit_indexes(),
        {m: group.nodes[m].term for m in MEMBERS},
    )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       schedule=fault_steps)
def test_same_seed_and_schedule_reproduce_the_trace(seed, schedule):
    first = run_once(seed, schedule)
    second = run_once(seed, schedule)
    assert first == second


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       schedule=fault_steps)
def test_replicas_always_converge(seed, schedule):
    """Whatever the schedule throws, healed replicas end digest-equal
    with every acked command applied."""
    traces, digests, commits, _terms = run_once(seed, schedule)
    assert len(set(digests.values())) == 1
    assert all(ci >= 6 for ci in commits.values())
    # The trace carries at least the initial election and the commits.
    kinds = {t[0] for trace in traces.values() for t in trace}
    assert "leader" in kinds and "commit" in kinds


def test_different_seeds_draw_different_timelines():
    """Not a tautology: the timeout jitter is the only randomness, and a
    different seed must actually move it."""
    a = run_once(1, [])
    b = run_once(2, [])
    assert a[0] != b[0]  # traces differ (timings, possibly the leader)
    assert a[1] == b[1]  # ... but the replicated STATE is seed-free
