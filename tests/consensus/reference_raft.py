"""Reference Raft member loop for the consensus property tests.

A verbatim copy of ``RaftNode.start`` and its ``_run`` coroutine as they
stood before the member loop became a set of engine callbacks: one
process per member that waits on ``any_of([mail, timer])`` and runs a
step on each resume.  Elections, replication and every message handler
are inherited unchanged, so the only difference from
:class:`repro.consensus.raft.RaftNode` is how the loop is driven.
``tests/consensus/test_loop_reference.py`` runs both on twin
environments and requires every trace, ack time and fabric counter to
be equal with ``==``.  Do not edit it to follow the model.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.consensus.group import RaftGroup
from repro.consensus.raft import RaftNode, Role
from repro.sim.engine import Event

__all__ = ["ReferenceRaftNode", "reference_group"]


class ReferenceRaftNode(RaftNode):
    """A Raft member driven by one generator process."""

    def start(self):
        """Launch the member's main coroutine."""
        self._reset_deadline()
        return self.env.process(self._run())

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        while not self._stopped:
            if self.crashed:
                self._revive_ev = env.event()
                yield self._revive_ev
                self._revive_ev = None
                continue
            due = (
                self._heartbeat_due if self.role is Role.LEADER
                else self._deadline
            )
            delay = max(0.0, due - env.now)
            # Mail first: with mail queued and no delay left, the ready
            # event must sit ahead of the timer in the heap.
            mail = self.fabric.recv_event(self.name)
            timer = env.timeout(delay)
            yield env.any_of([mail, timer])
            timer.cancel()
            if self._stopped:
                return
            if self.crashed:
                continue
            msg = self.fabric.pop(self.name)
            while msg is not None and not self.crashed and not self._stopped:
                self._handle(msg)
                msg = self.fabric.pop(self.name)
            if self.crashed or self._stopped:
                continue
            if self.role is Role.LEADER:
                if env.now >= self._heartbeat_due:
                    self._broadcast_entries()
            elif env.now >= self._deadline:
                self._start_prevote()


def reference_group(*args: Any, **kwargs: Any) -> RaftGroup:
    """A :class:`RaftGroup` whose members run the reference loop.

    Takes :class:`RaftGroup`'s arguments.  The members are built as
    usual and then re-classed before ``start``: the subclass adds no
    state, so each keeps its RNG stream and everything else it holds.
    """
    group = RaftGroup(*args, **kwargs)
    for node in group.nodes.values():
        node.__class__ = ReferenceRaftNode
    return group
