"""Typed Raft wire messages and log entries.

Messages are ``__slots__`` records with value equality, hashing and a
field-by-field repr, so a captured exchange compares and renders
deterministically — the determinism contract extends to consensus (same
seed + same fault schedule must produce a bit-identical
election/commit/term trace).  They are built with plain attribute
stores: a frozen dataclass pays one ``object.__setattr__`` call per
field, and members build one message per RPC.  Nothing mutates a
record after construction; a :class:`LogEntry` is shared by reference
between the leader's log and its followers' logs.  Commands carried by
:class:`LogEntry` are plain tuples, e.g.
``("meta.set", "/ckpt/r0.dat", (ino, nbytes))`` — the same discipline
as the MicroFS operation log: journal the operation and its
parameters, never object references.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = [
    "LogEntry",
    "RequestVote",
    "VoteReply",
    "AppendEntries",
    "AppendReply",
    "InstallSnapshot",
    "SnapshotReply",
]


class _Record:
    """Value semantics over ``__slots__``: equal when the type and every
    compared field are equal.  ``_compared`` names those fields (all of
    them unless a class narrows it)."""

    __slots__ = ()
    _compared: Tuple[str, ...] = ()

    def _key(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class LogEntry(_Record):
    """One replicated command at a global log ``index`` (1-based)."""

    __slots__ = _compared = ("term", "index", "command")

    def __init__(self, term: int, index: int, command: Tuple[Any, ...]):
        self.term = term
        self.index = index
        self.command = command


class RequestVote(_Record):
    """Candidate solicits a vote for ``term``.

    With ``prevote`` set this is a PreVote probe (Raft thesis §4.2.3):
    the sender asks whether it *could* win ``term`` without bumping its
    own term, so a partitioned member cannot inflate its term and depose
    a healthy leader when the partition heals.
    """

    __slots__ = _compared = ("term", "candidate", "last_log_index",
                             "last_log_term", "prevote")

    def __init__(self, term: int, candidate: str, last_log_index: int,
                 last_log_term: int, prevote: bool = False):
        self.term = term
        self.candidate = candidate
        self.last_log_index = last_log_index
        self.last_log_term = last_log_term
        self.prevote = prevote


class VoteReply(_Record):
    __slots__ = _compared = ("term", "voter", "granted", "prevote")

    def __init__(self, term: int, voter: str, granted: bool,
                 prevote: bool = False):
        self.term = term
        self.voter = voter
        self.granted = granted
        self.prevote = prevote


class AppendEntries(_Record):
    """Leader replicates ``entries`` (empty = heartbeat)."""

    __slots__ = _compared = ("term", "leader", "prev_log_index",
                             "prev_log_term", "entries", "leader_commit")

    def __init__(self, term: int, leader: str, prev_log_index: int,
                 prev_log_term: int, entries: Tuple[LogEntry, ...] = (),
                 leader_commit: int = 0):
        self.term = term
        self.leader = leader
        self.prev_log_index = prev_log_index
        self.prev_log_term = prev_log_term
        self.entries = entries
        self.leader_commit = leader_commit


class AppendReply(_Record):
    # match_index: on success the last replicated index, else a back-off hint.
    __slots__ = _compared = ("term", "follower", "success", "match_index")

    def __init__(self, term: int, follower: str, success: bool,
                 match_index: int):
        self.term = term
        self.follower = follower
        self.success = success
        self.match_index = match_index


class InstallSnapshot(_Record):
    """Leader ships a compacted prefix to a follower that fell behind the
    snapshot horizon.  ``snapshot`` is the state machine's opaque image
    (witness images are empty — vote-only members hold no data); it is
    left out of equality and hashing."""

    __slots__ = ("term", "leader", "last_included_index",
                 "last_included_term", "snapshot")
    _compared = __slots__[:4]

    def __init__(self, term: int, leader: str, last_included_index: int,
                 last_included_term: int, snapshot: Any = None):
        self.term = term
        self.leader = leader
        self.last_included_index = last_included_index
        self.last_included_term = last_included_term
        self.snapshot = snapshot


class SnapshotReply(_Record):
    __slots__ = _compared = ("term", "follower", "last_included_index")

    def __init__(self, term: int, follower: str, last_included_index: int):
        self.term = term
        self.follower = follower
        self.last_included_index = last_included_index
