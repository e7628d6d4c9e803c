"""Shared fixtures: a single-SSD microfs rig used across core tests, and
the fig7a reference workload with its golden results."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import dump_files
from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.core.microfs.fs import MicroFS
from repro.exec import ExecutionPlan, SimUnit
from repro.fabric.transport import LocalPCIeTransport
from repro.nvme import SSD, SSDSpec, intel_p4800x
from repro.sim import Environment
from repro.systems import build
from repro.units import GiB, KiB, MiB

#: Pinned results of the fig7a reference workload: its makespan and the
#: merged fingerprint of :func:`fig7a_unit_plan`.  No event count is
#: pinned — how much work the engine does is not a result.
FIG7A_REF = json.loads(
    (Path(__file__).parent / "golden" / "fig7a_ref.json").read_text())

FIG7A_FILE_BYTES = MiB(32)


def fig7a_fleet():
    """The fig7a reference fleet: 4 MicroFS ranks, 32 KiB hugeblocks, seed 2."""
    config = RuntimeConfig(
        log_region_bytes=MiB(4), state_region_bytes=MiB(16),
        hugeblock_bytes=KiB(32),
    )
    return build("microfs", nprocs=4, config=config,
                 partition_bytes=2 * FIG7A_FILE_BYTES + MiB(64), seed=2)


def fig7a_run():
    """Build the reference fleet and return its one-dump makespan."""
    return fig7a_fleet().makespan(dump_files(FIG7A_FILE_BYTES))


def fig7a_unit_plan():
    """The reference workload as a one-unit ``_fig7a_unit`` plan."""
    unit = SimUnit(
        index=0, label="fig7a/pin",
        fn="repro.bench.experiments:_fig7a_unit",
        params={"block": KiB(32), "nprocs": 4,
                "file_bytes": FIG7A_FILE_BYTES, "seed": 2},
    )
    return ExecutionPlan(title="fig7a-pin", units=[unit],
                         reduce=lambda rs: rs[0].payload)


def deterministic_spec(**overrides) -> SSDSpec:
    """P4800X with arbitration jitter off so unit tests are exact."""
    base = intel_p4800x()
    fields = dict(
        model=base.model,
        capacity_bytes=base.capacity_bytes,
        write_bandwidth=base.write_bandwidth,
        read_bandwidth=base.read_bandwidth,
        per_command_cost=base.per_command_cost,
        flush_cost=base.flush_cost,
        lba_size=base.lba_size,
        max_hw_queues=base.max_hw_queues,
        max_namespaces=base.max_namespaces,
        ram_buffer_bytes=base.ram_buffer_bytes,
        ram_write_bandwidth=base.ram_write_bandwidth,
        arbitration_beta=0.0,
    )
    fields.update(overrides)
    return SSDSpec(**fields)


class MicroFSRig:
    """One env + SSD + namespace + a MicroFS on a partition."""

    def __init__(self, config=None, partition_bytes=GiB(4), nranks=1, rank=0):
        self.env = Environment()
        self.config = config or RuntimeConfig(
            log_region_bytes=MiB(1), state_region_bytes=MiB(16)
        )
        self.ssd = SSD(
            self.env, deterministic_spec(), "ssd0", rng=np.random.default_rng(0)
        )
        self.namespace = self.ssd.create_namespace(partition_bytes * nranks, owner_job="test")
        self.partition = self.namespace.partition(
            rank, nranks, self.config.effective_block_bytes
        )
        self.transport = LocalPCIeTransport(self.env, self.ssd)
        self.data_plane = DataPlane(
            self.env, self.transport, self.namespace.nsid, self.config
        )
        self.fs = MicroFS(
            self.env, self.config, self.data_plane, self.partition,
            instance_name="test-rig",
        )

    def run(self, gen):
        """Drive a sub-generator to completion, returning its value."""
        return self.env.run_until_complete(self.env.process(gen))


@pytest.fixture
def rig():
    return MicroFSRig()
