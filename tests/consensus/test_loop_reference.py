"""The callback member loop against its coroutine reference, bit for bit.

``tests/consensus/reference_raft.py`` drives each member with the
generator process it had before the loop became engine callbacks.  Both
run the same seed and fault schedule on twin environments, and every
observable must be ``==``: each member's trace, the exact float time of
each acknowledged proposal, digests, commit indexes, ``terms_led``, the
fabric's message counts, the final clock and the cancelled-event count.
The callback loop pushes the same events in the same order, less one
per member: the reference's process-end event, which nothing awaits.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consensus import AppendReply, RaftGroup
from repro.sim.engine import Environment
from repro.sim.rng import RngHub
from repro.units import ms, us
from tests.consensus.reference_raft import reference_group
from tests.consensus.test_properties import MEMBERS, fault_steps, scripted_client


def outcome(env, group, acks):
    """The observables of a finished run, and the events it pushed."""
    fabric = group.fabric
    observables = {
        "traces": group.traces(),
        "acks": acks,
        "digests": group.digests(),
        "commit_indexes": group.commit_indexes(),
        "terms_led": {m: group.nodes[m].terms_led for m in MEMBERS},
        "fabric": (fabric.sent, fabric.delivered, fabric.dropped),
        "now": env.now,
        "events_cancelled": env.events_cancelled,
    }
    return observables, env.events_scheduled


def observe(make_group, seed, schedule, n_ops=6):
    """One scripted run through ``schedule``."""
    env = Environment()
    group = make_group(env, MEMBERS, RngHub(seed))
    group.start()
    acks = []
    env.run_until_complete(
        env.process(scripted_client(env, group, schedule, n_ops, acks)))
    group.stop()
    env.run()
    return outcome(env, group, acks)


def revive_beside_a_stale_waiter(make_group):
    """The leader crashes with a reply in flight, 3 us before its
    heartbeat timer ends its wait, and revives at the reply's arrival
    instant, just ahead of the arrival.  The reply lands before the
    revive is dispatched, so the revived leader waits on a fresh ready
    event while the fabric's old waiter, which still carries the
    pre-crash wait's callback, fires as well."""
    env = Environment()
    group = make_group(env, MEMBERS, RngHub(7))
    group.start()
    fabric = group.fabric

    def body():
        lead = yield from group.wait_leader(timeout=1.0)
        node = group.nodes[lead]
        follower = next(m for m in MEMBERS if m != lead)
        yield env.timeout(node._heartbeat_due - env.now - us(3))
        assert not fabric._waiters[lead].triggered  # the leader awaits it
        arrival = fabric.latency(follower, lead)
        env.timeout(arrival).callbacks.append(lambda _e: group.revive(lead))
        fabric.send(follower, lead, AppendReply(node.term, follower, False, 0))
        group.kill(lead)
        yield env.timeout(ms(300))

    env.run_until_complete(env.process(body()))
    group.stop()
    env.run()
    return outcome(env, group, [])


def check_matches_reference(run, *args):
    """``run`` on both loops: equal observables, 3 fewer pushes."""
    got, pushed = run(RaftGroup, *args)
    want, reference_pushed = run(reference_group, *args)
    assert got == want
    assert pushed == reference_pushed - len(MEMBERS)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       schedule=fault_steps)
# Both examples fail a loop that runs the step inside the wake callback
# itself, with no hop event.
@example(seed=0, schedule=[])
@example(seed=5, schedule=[("partition-leader", 35), ("kill-leader", 10)])
def test_callback_loop_matches_the_coroutine_exactly(seed, schedule):
    check_matches_reference(observe, seed, schedule)


def test_revival_beside_a_stale_waiter_matches_the_coroutine():
    check_matches_reference(revive_beside_a_stale_waiter)


def test_only_the_current_waits_events_wake_the_member():
    """The stale waiter above is dispatched right before the fresh ready
    event, so the two loops push alike even if it woke the member; this
    checks the guard itself."""
    env = Environment()
    group = RaftGroup(env, MEMBERS, RngHub(7))
    group.start()
    env.run(until=ms(1))  # every member waits on its fabric waiter and timer
    node = group.nodes[MEMBERS[0]]
    pushed = env.events_scheduled
    node._on_wake(env.event())  # an earlier wait's waiter
    assert env.events_scheduled == pushed
    node._on_wake(node._mail)
    assert env.events_scheduled == pushed + 1  # the hop
    node._on_wake(node._timer)  # the loser, dispatched before the hop
    assert env.events_scheduled == pushed + 1


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       schedule=fault_steps)
def test_callback_loop_matches_the_coroutine_exactly_deep(seed, schedule):
    """The same property over ten times as many runs."""
    check_matches_reference(observe, seed, schedule)
