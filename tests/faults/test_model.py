"""Blast radii and value semantics of the fault kinds."""

from repro.faults.model import (
    BlastRadius,
    LeaderKill,
    NetworkPartition,
    NodeCrash,
    blast_radius,
)


def test_compute_node_crash_kills_only_the_host():
    assert blast_radius(NodeCrash("comp03")) == BlastRadius(nodes=("comp03",))


def test_faults_are_hashable_and_comparable():
    assert NodeCrash("a") == NodeCrash("a")
    assert len({NodeCrash("a"), NodeCrash("a"), LeaderKill("a")}) == 2
    assert NetworkPartition("a", members=("x",)) != NetworkPartition("a")
