"""The failover experiment: its recovery scan, and smoke tests of the
acceptance gate."""

import pytest

from repro.bench.failover import _recoveries, failover
from repro.units import ms


def test_recovery_is_the_first_ack_strictly_after_each_strike():
    acks = [0.0, 1.0, 1.0, 2.5]
    # An ack at exactly the strike's time is not its recovery, and a
    # strike after the last ack records none.
    assert _recoveries([1.0, 0.5, -1.0, 2.5, 3.0], acks) == [1.5, 0.5, 1.0]


@pytest.mark.slow
def test_failover_raft_survives_with_zero_loss():
    table = failover(
        systems=("nvmecr-raft",), fault_rates=(5.0,), n_ops=60,
        repair_after=ms(300), seed=17,
    )
    assert len(table.rows) == 1
    assert table.column("faults")[0] >= 1  # a kill and/or a partition struck
    assert table.column("lost_ops") == [0]
    assert table.column("replicas_agree") == ["yes"]
    assert table.column("leader_changes")[0] >= 2  # real failovers happened
    assert table.column("ops_acked")[0] >= 60
    # Consensus instrumentation: elections were timed, entries counted.
    assert table.column("elect_p99_ms")[0] > 0.0
    assert table.column("commit_p99_ms")[0] > 0.0
    assert table.column("appends")[0] > 0


@pytest.mark.slow
def test_failover_baseline_comparison_runs():
    table = failover(
        systems=("nvmecr", "nvmecr-raft"), fault_rates=(5.0,), n_ops=40,
        repair_after=ms(300), seed=17,
    )
    by_system = dict(zip(table.column("system"), table.column("avail_gap_ms")))
    # The baseline's gap is repair-bound; the replicated control plane
    # recovers in about one election timeout.
    assert by_system["nvmecr"] > by_system["nvmecr-raft"]
