"""The Raft replica: one callback-driven member over the consensus fabric.

A faithful (if compact) Raft implementation on the repro.sim substrate.
Each member is a chain of engine callbacks, stepped the way raft-rs's
``RawNode`` is: wait for mail or the member timer, then handle the mail
and heartbeat or time out (see "main loop" below for its event order).

* **Leader election** with randomized-but-seeded timeouts — every member
  draws its election timeouts from its own named RNG stream
  (:class:`~repro.sim.rng.RngHub`), so a seed fully determines who times
  out first, every term, on every run;
* **PreVote** (Raft thesis §4.2.3): before bumping its term a would-be
  candidate polls a majority with a no-side-effect probe, so a member
  that spent a partition timing out rejoins at its old term instead of
  deposing a healthy leader with an inflated one;
* **Log replication** with per-follower ``next_index``/``match_index``
  bookkeeping, conflict back-off, and commit advancement by
  current-term majority match (§5.3/5.4 of the Raft paper);
* **Snapshot/compaction**: once the applied prefix outgrows
  ``snapshot_threshold`` entries, the member snapshots its state machine
  and truncates the log; laggards beyond the snapshot horizon are caught
  up with ``InstallSnapshot``;
* **Crash/revive**: persistent state (term, vote, log, snapshot)
  survives a crash — it lives on the member's SSD partition — while
  volatile leader state and the inbox do not.

Determinism contract: every externally visible transition (election
start, leadership, commit, snapshot, crash, revive) is appended to
``trace`` as a plain tuple, and the same seed plus the same fault
schedule reproduces the identical trace (tested by Hypothesis, which
also holds it equal to the reference loop's).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.consensus.messages import (
    AppendEntries,
    AppendReply,
    InstallSnapshot,
    LogEntry,
    RequestVote,
    SnapshotReply,
    VoteReply,
)
from repro.consensus.network import ConsensusFabric
from repro.consensus.statemachine import StateMachine
from repro.errors import NotLeader, SimulationError
from repro.obs.context import tracer_of
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.rng import RngHub
from repro.units import ms

__all__ = ["Role", "RaftNode", "ELECTION_TIMEOUT_MIN", "ELECTION_TIMEOUT_SPAN",
           "HEARTBEAT_INTERVAL"]

#: Election timeout window (Raft demands span >> RTT; the fabric's
#: cross-zone hop is 50 us, so 50-100 ms gives a ~1000x margin).
ELECTION_TIMEOUT_MIN = ms(50)
ELECTION_TIMEOUT_SPAN = ms(50)

#: Leader heartbeat period (an order of magnitude under the timeout).
HEARTBEAT_INTERVAL = ms(10)

#: Max entries shipped per AppendEntries (bounds catch-up burst size).
MAX_BATCH_ENTRIES = 64


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class RaftNode:  # reproflow: ignore[FLOW103] (per-node state; only its own loop callbacks write)
    """One consensus group member bound to a cluster node name."""

    def __init__(
        self,
        env: Environment,
        name: str,
        members: Sequence[str],
        fabric: ConsensusFabric,
        machine: StateMachine,
        hub: RngHub,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        election_timeout_min: float = ELECTION_TIMEOUT_MIN,
        election_timeout_span: float = ELECTION_TIMEOUT_SPAN,
        snapshot_threshold: int = 128,
    ):
        self.env = env
        self.name = name
        self.members = list(members)
        self.peers = [m for m in self.members if m != name]
        self.fabric = fabric
        self.machine = machine
        self.heartbeat_interval = heartbeat_interval
        self.election_timeout_min = election_timeout_min
        self.election_timeout_span = election_timeout_span
        self.snapshot_threshold = snapshot_threshold
        # The one sanctioned randomness: per-member seeded timeout jitter.
        self._rng = hub.stream(f"consensus.timeout.{name}")

        # Persistent state (survives crash: lives on the member's SSD).
        self.term = 0
        self.voted_for: Optional[str] = None
        self._log: List[LogEntry] = []  # entries with index > snap_last_index
        self.snap_last_index = 0
        self.snap_last_term = 0
        self._snap_image: Any = None

        # Volatile state.
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.leader_hint: Optional[str] = None
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        self._votes: Dict[str, bool] = {}
        self._prevotes: Optional[Dict[str, bool]] = None  # active probe tally
        self._waiters: Dict[int, Event] = {}
        self._proposed_at: Dict[int, float] = {}

        # Lifecycle.
        self.crashed = False
        self._stopped = False
        self._revive_ev: Optional[Event] = None
        self._deadline = 0.0
        self._heartbeat_due = 0.0
        #: The current wait's mail event (None once it has woken) and timer.
        self._mail: Optional[Event] = None
        self._timer: Optional[Timeout] = None
        self._wake_callback = self._on_wake
        self._step_callback = self._step

        # Counters + the determinism trace.
        self.elections_started = 0
        self.terms_led: List[int] = []
        self.entries_applied = 0
        self.snapshots_taken = 0
        self.trace: List[Tuple[Any, ...]] = []
        #: Campaign start (first prevote of the current bid), for the
        #: election-latency histogram; None outside a campaign.
        self._election_began: Optional[float] = None

    # -- log geometry --------------------------------------------------------

    def last_index(self) -> int:
        return self.snap_last_index + len(self._log)

    def last_term(self) -> int:
        return self._log[-1].term if self._log else self.snap_last_term

    def _term_at(self, index: int) -> Optional[int]:
        """Term of ``index``, or None when compacted away / out of range."""
        if index == self.snap_last_index:
            return self.snap_last_term
        offset = index - self.snap_last_index - 1
        if 0 <= offset < len(self._log):
            return self._log[offset].term
        return None

    def _entry(self, index: int) -> LogEntry:
        return self._log[index - self.snap_last_index - 1]

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the member: its loop first runs at the current time."""
        self._reset_deadline()
        boot = Event(self.env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def stop(self) -> None:
        self._stopped = True
        self._fail_waiters()
        revive = self._revive_ev
        if revive is not None and not revive.triggered:
            revive.succeed()

    def crash(self) -> None:
        """Power loss: volatile state and inbox gone, disk state kept."""
        if self.crashed:
            return
        self.crashed = True
        self.fabric.kill(self.name)
        self.role = Role.FOLLOWER
        self.leader_hint = None
        self._prevotes = None
        self._election_began = None
        self._fail_waiters()
        self._trace("crash", self.term)

    def revive(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        self.fabric.revive(self.name)
        self._reset_deadline()
        self._trace("revive", self.term)
        revive = self._revive_ev
        if revive is not None and not revive.triggered:
            revive.succeed()

    def _fail_waiters(self) -> None:
        pending = sorted(self._waiters)
        self._waiters, waiters = {}, self._waiters
        self._proposed_at.clear()
        for index in pending:
            event = waiters[index]
            if not event.triggered:
                event.fail(NotLeader(self.leader_hint))

    # -- main loop -----------------------------------------------------------
    #
    # The loop is a chain of engine callbacks.  Each wait schedules the
    # mail event (a ready event when mail is queued, else the fabric's
    # waiter, which pushes when mail lands) and then the member timer.
    # The first of the two to be dispatched pushes one hop event at the
    # current time, and the hop runs the step: handle the mail, then
    # heartbeat or time out.  These are the pushes a generator process
    # waiting on ``any_of([mail, timer])`` makes, in the same order, so
    # same-instant events interleave exactly as they do under one
    # (``tests/consensus/reference_raft.py`` keeps that process as the
    # reference).  A crashed member waits on a revive event instead.

    def _resume(self, _event: Event) -> None:
        """Bootstrap or revive: back to the top of the loop."""
        self._revive_ev = None
        self._wait()

    def _wait(self) -> None:
        """Top of the loop: park until mail, the timer, or a revive."""
        if self._stopped:
            return
        env = self.env
        if self.crashed:
            revive = self._revive_ev = Event(env)
            revive.callbacks.append(self._resume)
            return
        due = (
            self._heartbeat_due if self.role is Role.LEADER
            else self._deadline
        )
        delay = max(0.0, due - env.now)
        # Mail first: with mail queued and no delay left, the ready
        # event must sit ahead of the timer in the heap.
        mail = self._mail = self.fabric.recv_event(self.name)
        timer = self._timer = Timeout(env, delay)
        wake = self._wake_callback
        mail.callbacks.append(wake)
        timer.callbacks.append(wake)

    def _on_wake(self, event: Event) -> None:
        """The wait's first mail or timer dispatch: push the hop.

        The member is armed while ``_mail`` is set.  A reused fabric
        waiter also carries the callback of each earlier wait whose timer
        won, and the wait's loser may be dispatched before the hop:
        neither does anything.
        """
        mail = self._mail
        if mail is None or (event is not mail and event is not self._timer):
            return
        self._mail = None
        hop = Event(self.env)
        hop.callbacks.append(self._step_callback)
        hop.succeed()

    def _step(self, _hop: Event) -> None:
        """What the member does when its wait ends; then the next wait."""
        self._timer._withdraw()
        if self._stopped:
            return
        if not self.crashed:
            fabric, name = self.fabric, self.name
            msg = fabric.pop(name)
            while msg is not None and not self.crashed and not self._stopped:
                self._handle(msg)
                msg = fabric.pop(name)
            if not (self.crashed or self._stopped):
                now = self.env.now
                if self.role is Role.LEADER:
                    if now >= self._heartbeat_due:
                        self._broadcast_entries()
                elif now >= self._deadline:
                    self._start_prevote()
        self._wait()

    def _reset_deadline(self) -> None:
        jitter = float(self._rng.random()) * self.election_timeout_span
        self._deadline = self.env.now + self.election_timeout_min + jitter

    # -- elections -----------------------------------------------------------

    def _start_prevote(self) -> None:
        """Probe for electability at ``term + 1`` without bumping the term.

        Only a majority of granted probes leads to a real election, so a
        member cut off from the quorum keeps timing out at its old term
        and cannot disrupt the cluster when connectivity returns.
        """
        self._prevotes = {self.name: True}
        if self._election_began is None:
            self._election_began = self.env.now
        self._reset_deadline()
        self._trace("prevote", self.term + 1)
        probe = RequestVote(
            term=self.term + 1, candidate=self.name,
            last_log_index=self.last_index(), last_log_term=self.last_term(),
            prevote=True,
        )
        for peer in self.peers:
            self.fabric.send(self.name, peer, probe)
        self._maybe_prewin()  # single-member group probes itself

    def _maybe_prewin(self) -> None:
        tally = self._prevotes
        if tally is None:
            return
        granted = sum(1 for m in self.members if tally.get(m, False))
        if granted >= self._majority():
            self._prevotes = None
            self._start_election()

    def _start_election(self) -> None:
        self.term += 1
        self.role = Role.CANDIDATE
        self.voted_for = self.name
        self.leader_hint = None
        self._prevotes = None
        self._votes = {self.name: True}
        self.elections_started += 1
        self._reset_deadline()
        self._trace("election", self.term)
        self._obs_instant("raft.election", term=self.term)
        self._obs_count("consensus.elections")
        request = RequestVote(
            term=self.term, candidate=self.name,
            last_log_index=self.last_index(), last_log_term=self.last_term(),
        )
        for peer in self.peers:
            self.fabric.send(self.name, peer, request)
        self._maybe_win()  # single-member group elects itself

    def _maybe_win(self) -> None:
        granted = sum(1 for m in self.members if self._votes.get(m, False))
        if granted >= self._majority():
            self._become_leader()

    def _majority(self) -> int:
        return len(self.members) // 2 + 1

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.name
        self.terms_led.append(self.term)
        last = self.last_index()
        self.next_index = {p: last + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self._trace("leader", self.term)
        self._obs_instant("raft.leader", term=self.term)
        self._obs_count("consensus.leader_elections")
        if self.fabric.last_leader not in (None, self.name):
            self._obs_count("consensus.leader_changes")
        self.fabric.last_leader = self.name
        began = self._election_began
        if began is not None:
            self._election_began = None
            ctx = self.env.obs
            if ctx is not None:
                ctx.metrics.histogram(
                    "consensus.election_latency_s").observe(
                        self.env.now - began)
        # Barrier entry: commits any still-uncommitted prior-term entries
        # as soon as this term replicates it (Raft §5.4.2).
        self._append_local(("noop",))
        self._broadcast_entries()
        self._advance_commit()

    def _become_follower(self, term: int) -> None:
        was_leader = self.role is Role.LEADER
        self.term = term
        self.role = Role.FOLLOWER
        self.voted_for = None
        self._prevotes = None
        self._election_began = None  # someone else's term won the race
        if was_leader:
            self._fail_waiters()
        self._reset_deadline()

    # -- proposals (leader API) ----------------------------------------------

    def propose(self, command: Sequence[Any]) -> Event:
        """Append a command; the event fires when it commits and applies.

        Raises :class:`~repro.errors.NotLeader` (with a hint) from
        non-leaders; the group client retries against the hint.
        """
        if self.crashed or self._stopped or self.role is not Role.LEADER:
            raise NotLeader(self.leader_hint)
        entry = self._append_local(tuple(command))
        waiter = self.env.event()
        self._waiters[entry.index] = waiter
        self._proposed_at[entry.index] = self.env.now
        self._obs_count("consensus.proposals")
        self._broadcast_entries()
        self._advance_commit()
        return waiter

    def _append_local(self, command: Tuple[Any, ...]) -> LogEntry:
        entry = LogEntry(term=self.term, index=self.last_index() + 1,
                         command=command)
        self._log.append(entry)
        return entry

    # -- replication (leader side) ---------------------------------------------

    def _broadcast_entries(self) -> None:
        for peer in self.peers:
            self._send_entries(peer)
        self._heartbeat_due = self.env.now + self.heartbeat_interval
        self._obs_count("consensus.heartbeats")

    def _send_entries(self, peer: str) -> None:
        nxt = self.next_index.get(peer, self.last_index() + 1)
        if nxt <= self.snap_last_index:
            self.fabric.send(self.name, peer, InstallSnapshot(
                term=self.term, leader=self.name,
                last_included_index=self.snap_last_index,
                last_included_term=self.snap_last_term,
                snapshot=self._snap_image,
            ))
            return
        prev = nxt - 1
        prev_term = self._term_at(prev)
        if prev_term is None:
            raise SimulationError(
                f"{self.name}: next_index[{peer}]={nxt} points past the log"
            )
        first = nxt - self.snap_last_index - 1
        batch = tuple(self._log[first:first + MAX_BATCH_ENTRIES])
        self._obs_count("consensus.append_entries")
        self.fabric.send(self.name, peer, AppendEntries(
            term=self.term, leader=self.name,
            prev_log_index=prev, prev_log_term=prev_term,
            entries=batch, leader_commit=self.commit_index,
        ))

    def _advance_commit(self) -> None:
        if self.role is not Role.LEADER:
            return
        matches = sorted(
            [self.match_index.get(p, 0) for p in self.peers]
            + [self.last_index()]
        )
        # The (majority)th-highest match is replicated on a majority.
        candidate = matches[len(self.members) - self._majority()]
        if candidate > self.commit_index and self._term_at(candidate) == self.term:
            self.commit_index = candidate
            self._apply_committed()

    # -- message handling ------------------------------------------------------

    def _handle(self, msg: Any) -> None:
        # PreVote traffic carries a *prospective* term and must not bump
        # ours — that is the whole point of the probe.
        prevote = isinstance(msg, (RequestVote, VoteReply)) and msg.prevote
        if msg.term > self.term and not prevote:
            self._become_follower(msg.term)
        if isinstance(msg, RequestVote):
            self._on_request_vote(msg)
        elif isinstance(msg, VoteReply):
            self._on_vote_reply(msg)
        elif isinstance(msg, AppendEntries):
            self._on_append_entries(msg)
        elif isinstance(msg, AppendReply):
            self._on_append_reply(msg)
        elif isinstance(msg, InstallSnapshot):
            self._on_install_snapshot(msg)
        elif isinstance(msg, SnapshotReply):
            self._on_snapshot_reply(msg)
        else:
            raise SimulationError(f"unknown consensus message {msg!r}")

    def _on_request_vote(self, msg: RequestVote) -> None:
        up_to_date = (
            msg.last_log_term > self.last_term()
            or (msg.last_log_term == self.last_term()
                and msg.last_log_index >= self.last_index())
        )
        if msg.prevote:
            # Side-effect-free: no voted_for record, no deadline reset.
            granted = msg.term >= self.term and up_to_date
            self.fabric.send(self.name, msg.candidate,
                             VoteReply(self.term, self.name, granted,
                                       prevote=True))
            return
        granted = False
        if (msg.term >= self.term
                and self.voted_for in (None, msg.candidate) and up_to_date):
            granted = True
            self.voted_for = msg.candidate
            self._prevotes = None
            self._reset_deadline()
        self.fabric.send(self.name, msg.candidate,
                         VoteReply(self.term, self.name, granted))

    def _on_vote_reply(self, msg: VoteReply) -> None:
        if msg.prevote:
            if msg.granted and self._prevotes is not None:
                self._prevotes[msg.voter] = True
                self._maybe_prewin()
            return
        if self.role is not Role.CANDIDATE or msg.term != self.term:
            return
        if msg.granted:
            self._votes[msg.voter] = True
            self._maybe_win()

    def _on_append_entries(self, msg: AppendEntries) -> None:
        if msg.term < self.term:
            self.fabric.send(self.name, msg.leader, AppendReply(
                self.term, self.name, False, self.last_index()))
            return
        if self.role is Role.CANDIDATE:
            self.role = Role.FOLLOWER
        self.leader_hint = msg.leader
        self._prevotes = None  # a live leader cancels any probe in flight
        self._election_began = None
        self._reset_deadline()
        prev = msg.prev_log_index
        prev_term = self._term_at(prev)
        if prev_term is None or prev_term != msg.prev_log_term:
            # Missing or conflicting: back the leader off to our tail.
            hint = min(self.last_index(), max(prev - 1, self.snap_last_index))
            if prev_term is not None and prev > self.snap_last_index:
                # Conflict inside our log: drop the conflicting suffix.
                del self._log[prev - self.snap_last_index - 1:]
            self.fabric.send(self.name, msg.leader,
                             AppendReply(self.term, self.name, False, hint))
            return
        for entry in msg.entries:
            existing = self._term_at(entry.index)
            if existing is None and entry.index == self.last_index() + 1:
                self._log.append(entry)
            elif existing is not None and existing != entry.term:
                del self._log[entry.index - self.snap_last_index - 1:]
                self._log.append(entry)
            # else: duplicate of an entry we already hold — skip.
        if msg.leader_commit > self.commit_index:
            # Only up to the prefix THIS RPC verified (prev + entries):
            # beyond it we may still hold a deposed leader's uncommitted
            # suffix that the new leader has yet to overwrite.
            verified = prev + len(msg.entries)
            if verified > self.commit_index:
                self.commit_index = min(msg.leader_commit, verified)
                self._apply_committed()
        self.fabric.send(self.name, msg.leader, AppendReply(
            self.term, self.name, True,
            max(prev + len(msg.entries), self.snap_last_index)))

    def _on_append_reply(self, msg: AppendReply) -> None:
        if self.role is not Role.LEADER or msg.term != self.term:
            return
        peer = msg.follower
        if msg.success:
            if msg.match_index > self.match_index.get(peer, 0):
                self.match_index[peer] = msg.match_index
            self.next_index[peer] = self.match_index[peer] + 1
            self._advance_commit()
            if self.next_index[peer] <= self.last_index():
                self._send_entries(peer)  # keep catch-up flowing
        else:
            nxt = max(1, min(self.next_index.get(peer, 1) - 1,
                             msg.match_index + 1))
            self.next_index[peer] = nxt
            self._send_entries(peer)

    def _on_install_snapshot(self, msg: InstallSnapshot) -> None:
        if msg.term < self.term:
            self.fabric.send(self.name, msg.leader, SnapshotReply(
                self.term, self.name, self.snap_last_index))
            return
        self.leader_hint = msg.leader
        self._prevotes = None
        self._reset_deadline()
        if msg.last_included_index > self.snap_last_index:
            if self._term_at(msg.last_included_index) == msg.last_included_term:
                # We hold the suffix: keep it, drop the covered prefix.
                del self._log[:msg.last_included_index - self.snap_last_index]
            else:
                self._log = []
            self.machine.restore(msg.last_included_index, msg.snapshot)
            self.snap_last_index = msg.last_included_index
            self.snap_last_term = msg.last_included_term
            self._snap_image = msg.snapshot
            if msg.last_included_index > self.commit_index:
                self.commit_index = msg.last_included_index
            self._trace("snapshot.install", msg.last_included_index)
            self._obs_count("consensus.snapshots_installed")
        self.fabric.send(self.name, msg.leader, SnapshotReply(
            self.term, self.name, self.snap_last_index))

    def _on_snapshot_reply(self, msg: SnapshotReply) -> None:
        if self.role is not Role.LEADER or msg.term != self.term:
            return
        peer = msg.follower
        if msg.last_included_index > self.match_index.get(peer, 0):
            self.match_index[peer] = msg.last_included_index
        self.next_index[peer] = self.match_index[peer] + 1
        self._advance_commit()
        if self.next_index[peer] <= self.last_index():
            self._send_entries(peer)

    # -- apply + compaction ---------------------------------------------------

    def _apply_committed(self) -> None:
        ctx = self.env.obs
        while self.machine.applied_index < self.commit_index:
            index = self.machine.applied_index + 1
            entry = self._entry(index)
            result = self.machine.apply(index, entry.command)
            self.entries_applied += 1
            self._trace("commit", index, entry.term)
            if ctx is not None:
                ctx.metrics.counter("consensus.commits").add(1)
            waiter = self._waiters.pop(index, None)
            if waiter is not None:
                proposed = self._proposed_at.pop(index, None)
                if ctx is not None and proposed is not None:
                    ctx.metrics.histogram(
                        "consensus.commit_latency_s").observe(
                            self.env.now - proposed)
                if not waiter.triggered:
                    waiter.succeed((index, result))
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        applied = self.machine.applied_index
        if applied - self.snap_last_index < self.snapshot_threshold:
            return
        last_term = self._term_at(applied)
        if last_term is None:
            return
        self._snap_image = self.machine.snapshot()
        del self._log[:applied - self.snap_last_index]
        self.snap_last_index = applied
        self.snap_last_term = last_term
        self.snapshots_taken += 1
        self._trace("snapshot", applied)
        self._obs_count("consensus.snapshots")

    # -- observability ---------------------------------------------------------

    def _trace(self, kind: str, *detail: Any) -> None:
        self.trace.append((kind, *detail, round(self.env.now, 9), self.name))

    def _obs_count(self, name: str) -> None:
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter(name).add(1)

    def _obs_instant(self, name: str, **attrs: Any) -> None:
        tr = tracer_of(self.env)
        if tr is not None:
            tr.instant(name, cat="consensus", track="consensus",
                       member=self.name, **attrs)
