"""Nothing the engine dispatches does nothing.

A timer left behind by a re-rate or by a wait that something else won
used to be dispatched only for its callbacks to return at once: a
superseded fair-share ``_on_wake``, the ``_on_child`` of a condition
that had already triggered, or a Raft member's ``_on_wake`` after its
wait was won by mail. Those timers are now cancelled, so a
counting observer over fig7a's pinned cell and a small failover run
must find none, while the results stay pinned.
"""

import pytest

from repro.bench.failover import failover
from repro.consensus.network import ConsensusFabric
from repro.consensus.raft import RaftNode
from repro.sim import Environment, FairShareServer
from repro.sim.engine import AllOf, AnyOf, Timeout
from tests.conftest import FIG7A_REF, fig7a_run


def _is_noop(callback, event):
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (AnyOf, AllOf)):
        return owner.triggered
    if isinstance(owner, FairShareServer):
        return event is not owner._wake
    if isinstance(owner, RaftNode):  # acts only when armed, on its own timer
        return owner._mail is None or event is not owner._timer
    return False


class NoOpTimeouts:
    """Observer counting dispatched timeouts whose callbacks all no-op."""

    def __init__(self):
        self.timeouts = 0
        self.noops = 0

    def note_event(self, time, seq, event):
        if isinstance(event, Timeout):
            self.timeouts += 1
            if event.callbacks and all(_is_noop(cb, event) for cb in event.callbacks):
                self.noops += 1

    def end_loop(self):
        pass


@pytest.fixture
def counter(monkeypatch):
    """Attach one :class:`NoOpTimeouts` to every environment built."""
    counter = NoOpTimeouts()
    init = Environment.__init__

    def observed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.observe(counter)

    monkeypatch.setattr(Environment, "__init__", observed_init)
    return counter


def test_fig7a_cell_dispatches_no_noop_timeout(counter):
    assert fig7a_run() == FIG7A_REF["makespan_s"]
    assert counter.timeouts > 0
    assert counter.noops == 0


def test_failover_dispatches_no_noop_timeout(counter):
    table = failover(fault_rates=(5.0,), n_ops=40)
    assert table.rows and all(row[-2] == "yes" for row in table.rows)
    assert counter.timeouts > 0
    assert counter.noops == 0


def test_fabric_delivers_without_a_process(monkeypatch):
    """A message is one timer whose callback delivers it."""
    spawned = []
    monkeypatch.setattr(Environment, "process",
                        lambda self, gen: spawned.append(gen))
    env = Environment()
    fabric = ConsensusFabric(env, ["a", "b"])
    mail = fabric.recv_event("b")
    fabric.send("a", "b", "hello")
    env.run()
    assert spawned == []
    assert mail.processed and fabric.pop("b") == "hello"
    assert env.now == fabric.latency("a", "b")
    assert (env.events_scheduled, env.events_cancelled) == (2, 0)
