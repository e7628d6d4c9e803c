"""A Raft group: members, their fabric, and the client proposal loop.

``RaftGroup`` is the deployment-facing bundle: it builds one
:class:`~repro.consensus.raft.RaftNode` per member (full or witness
state machine), wires them over a :class:`ConsensusFabric` whose
latencies follow the zone map, and exposes the *client* side of
consensus — a ``propose`` coroutine that chases leader hints, retries
through elections, and re-proposes after an operation timeout.
Re-proposal is safe because every replicated command is an idempotent
upsert/delete keyed by name (the MicroFS op-log discipline).

The group also carries the fault-injection surface (``kill_leader``,
``kill``/``revive``, ``partition``/``heal``) that
:mod:`repro.faults` drives during the failover experiment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.consensus.network import ConsensusFabric
from repro.consensus.raft import (
    ELECTION_TIMEOUT_MIN,
    ELECTION_TIMEOUT_SPAN,
    HEARTBEAT_INTERVAL,
    RaftNode,
    Role,
)
from repro.consensus.statemachine import (
    FullStateMachine,
    WitnessStateMachine,
)
from repro.errors import ConsensusError, NotLeader
from repro.sim.engine import Environment, Event
from repro.sim.rng import RngHub
from repro.units import ms

__all__ = ["RaftGroup"]

#: Client back-off between proposal attempts (hint chase / no leader).
PROPOSE_RETRY_BACKOFF = ms(5)

#: Per-attempt commit wait before the client re-resolves the leader.
#: Quorum round trips are microseconds, so anything this long means the
#: attempt's leader lost quorum (e.g. got partitioned mid-commit);
#: re-proposing is safe because commands are idempotent.
PROPOSE_OP_TIMEOUT = ms(50)

#: Poll period while waiting for a first leader.
LEADER_POLL = ms(5)


class RaftGroup:
    """All members of one replicated control-plane group."""

    def __init__(
        self,
        env: Environment,
        members: Sequence[str],
        hub: RngHub,
        zone_of: Optional[Callable[[str], str]] = None,
        witnesses: Sequence[str] = (),
        snapshot_threshold: int = 128,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        election_timeout_min: float = ELECTION_TIMEOUT_MIN,
        election_timeout_span: float = ELECTION_TIMEOUT_SPAN,
    ):
        if not members:
            raise ConsensusError("a Raft group needs at least one member")
        witness_set = {w for w in witnesses}
        unknown = sorted(witness_set.difference(members))
        if unknown:
            raise ConsensusError(f"witness members not in group: {unknown}")
        self.env = env
        self.members = list(members)
        self.fabric = ConsensusFabric(env, self.members, zone_of=zone_of)
        self.nodes: Dict[str, RaftNode] = {}
        for name in self.members:
            machine = (
                WitnessStateMachine() if name in witness_set
                else FullStateMachine()
            )
            self.nodes[name] = RaftNode(
                env, name, self.members, self.fabric, machine, hub,
                heartbeat_interval=heartbeat_interval,
                election_timeout_min=election_timeout_min,
                election_timeout_span=election_timeout_span,
                snapshot_threshold=snapshot_threshold,
            )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for name in self.members:
            self.nodes[name].start()

    def stop(self) -> None:
        """Park every member so ``env.run()`` can drain the queue."""
        for name in self.members:
            self.nodes[name].stop()

    @property
    def quorum_size(self) -> int:
        return len(self.members) // 2 + 1

    def full_members(self) -> List[str]:
        """Members that materialise state (non-witnesses)."""
        return [m for m in self.members if not self.nodes[m].machine.witness]

    # -- leadership ----------------------------------------------------------

    def leader(self) -> Optional[str]:
        """The live leader with the highest term, if any.

        During a partition a deposed leader may linger at a stale term;
        the highest-term rule always resolves to the member that can
        actually commit.
        """
        best: Optional[str] = None
        best_term = -1
        for name in self.members:
            node = self.nodes[name]
            if node.crashed or node.role is not Role.LEADER:
                continue
            if node.term > best_term:
                best, best_term = name, node.term
        return best

    def wait_leader(
        self, timeout: Optional[float] = None
    ) -> Generator[Event, Any, str]:
        """Process body: poll until some member leads; returns its name."""
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            lead = self.leader()
            if lead is not None:
                return lead
            if deadline is not None and self.env.now >= deadline:
                raise ConsensusError("no leader elected before deadline")
            yield self.env.timeout(LEADER_POLL)

    # -- client proposal path -------------------------------------------------

    def propose(
        self, command: Sequence[Any], timeout: Optional[float] = None
    ) -> Generator[Event, Any, Tuple[int, Any]]:
        """Process body: commit ``command``; returns ``(log_index, result)``.

        Retries across leader changes: a :class:`NotLeader` rejection
        redirects to the hinted member; a per-attempt timeout (leader
        lost quorum mid-commit) re-resolves leadership and re-proposes.
        """
        env = self.env
        deadline = None if timeout is None else env.now + timeout
        target = self.leader()
        while True:
            if deadline is not None and env.now >= deadline:
                raise ConsensusError(
                    f"proposal {command[0]!r} exceeded its deadline"
                )
            if target is None or self.nodes[target].crashed:
                target = self.leader()
            if target is None:
                yield env.timeout(PROPOSE_RETRY_BACKOFF)
                continue
            try:
                waiter = self.nodes[target].propose(command)
            except NotLeader as exc:
                target = exc.leader_hint
                yield env.timeout(PROPOSE_RETRY_BACKOFF)
                continue
            timer = env.timeout(PROPOSE_OP_TIMEOUT)
            try:
                yield env.any_of([waiter, timer])
            except NotLeader as exc:
                # The leader crashed with our entry pending.
                timer.cancel()
                target = exc.leader_hint
                yield env.timeout(PROPOSE_RETRY_BACKOFF)
                continue
            timer.cancel()
            if waiter.triggered and waiter.ok:
                return waiter.value
            # Attempt timed out (no quorum?); re-resolve and re-propose —
            # commands are idempotent, so a late duplicate is harmless.
            target = None

    # -- fault-injection surface ----------------------------------------------

    def kill(self, member: str) -> None:
        self.nodes[member].crash()

    def revive(self, member: str) -> None:
        self.nodes[member].revive()

    def kill_leader(self) -> Optional[str]:
        """Crash the current leader; returns its name (None if leaderless)."""
        lead = self.leader()
        if lead is not None:
            self.nodes[lead].crash()
        return lead

    def partition(self, isolated: Sequence[str]) -> None:
        self.fabric.partition(isolated)

    def heal(self) -> None:
        self.fabric.heal()

    # -- verification ----------------------------------------------------------

    def digests(self) -> Dict[str, str]:
        """Content hash per full member (crashed members keep their disk)."""
        return {
            m: self.nodes[m].machine.digest() for m in self.full_members()
        }

    def traces(self) -> Dict[str, List[Tuple[Any, ...]]]:
        """Per-member determinism traces (election/leader/commit/... tuples)."""
        return {m: list(self.nodes[m].trace) for m in self.members}

    def commit_indexes(self) -> Dict[str, int]:
        return {m: self.nodes[m].commit_index for m in self.members}
