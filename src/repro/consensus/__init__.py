"""Raft-replicated control plane (ROADMAP: zone federation).

The paper's runtime keeps control-plane metadata in a single authority
per instance; this package replicates it across storage zones so the
control plane survives node loss and rack-level partitions.  The pieces:

* :mod:`~repro.consensus.messages` — typed Raft wire messages;
* :mod:`~repro.consensus.statemachine` — the replicated state machines
  (full metadata/grants vs vote-only witness);
* :mod:`~repro.consensus.network` — the consensus fabric with
  zone-aware latencies, member death, and partitions;
* :mod:`~repro.consensus.raft` — the callback-driven member (elections,
  replication, snapshots);
* :mod:`~repro.consensus.group` — the group bundle + client propose loop;
* :mod:`~repro.consensus.store` — the
  :class:`~repro.core.control_plane.MetadataStore` implementation that
  commits every mutation through the group.
"""

from repro.consensus.group import RaftGroup
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
from repro.consensus.raft import RaftNode, Role
from repro.consensus.statemachine import (
    FullStateMachine,
    StateMachine,
    WitnessStateMachine,
)
from repro.consensus.store import ReplicatedMetadataStore

__all__ = [
    "AppendEntries",
    "AppendReply",
    "ConsensusFabric",
    "FullStateMachine",
    "InstallSnapshot",
    "LogEntry",
    "RaftGroup",
    "RaftNode",
    "ReplicatedMetadataStore",
    "RequestVote",
    "Role",
    "SnapshotReply",
    "StateMachine",
    "VoteReply",
    "WitnessStateMachine",
]
