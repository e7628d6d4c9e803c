"""Self-test of the host-performance benchmark (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Workload shapes are shrunk wherever the test does not need the
canonical ones; the command-line checks use ``raft-failover``, whose
full size repeats in under a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings

import pytest

from benchmarks.perf import cli
from benchmarks.perf.layers import ENGINE, LAYERS, LayerClock, LayerSpec, instrument
from benchmarks.perf.measure import ROOT, measure
from benchmarks.perf.traced import measure_traced
from benchmarks.perf.workloads import ComdRestart, Dump, RaftFailover
from repro.obs import capture
from repro.units import KiB, MiB

pytestmark = pytest.mark.slow


def tiny_dump() -> Dump:
    return Dump("dump-4k", KiB(4), fleets=2, nprocs=2, file_bytes=MiB(8))


def tiny_comd() -> ComdRestart:
    return ComdRestart(nprocs=4, checkpoints=2, atoms_per_rank=2_000, devices=2)


def tiny_raft() -> RaftFailover:
    return RaftFailover(n_ops=200)


def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_end_to_end_metrics_printed_with_units_at_seed_3(capsys, declared):
    # Seed 3 is not a default seed, so only the invariants are checked.
    code, table, result = _run_cli(
        capsys, "--workload", "raft-failover", "--seed", "3", "--seconds", "1")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for metric in declared["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert any("failed_frac" in line for line in table)


def test_per_layer_metrics_printed_with_units(capsys, declared):
    code, table, result = _run_cli(
        capsys, "--workload", "raft-failover", "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for metric in declared["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["consensus.append_entries"]["value"] > 0
    assert result["metrics"]["sim.fairshare.flows"]["value"] == 0
    assert any(line.startswith("consensus ") for line in table)


def test_benchmark_json_matches_the_code(declared):
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(cli.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(cli.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} == {
        "dump-4k", "dump-2m", "comd-restart", "raft-failover"}


@pytest.mark.parametrize("workload", [tiny_dump(), tiny_comd(), tiny_raft()],
                         ids=lambda w: w.name)
def test_wrappers_do_not_perturb_results(workload):
    plain = workload.check(workload.run(5), 5)
    clock = LayerClock()
    with instrument(clock) as present, capture(telemetry=True):
        wrapped = workload.check(workload.run(5), 5)
    assert plain.failed == wrapped.failed == 0
    assert plain.digest == wrapped.digest
    assert set(present) == {spec.name for spec in LAYERS}
    assert clock.self_s[ENGINE] > 0


def test_tiny_comd_counts_every_layer_on_its_path():
    series = measure_traced([tiny_comd()], {"comd-restart": 1}, rounds=1)
    s = series["comd-restart"]
    values = s.metrics()
    assert s.failed == 0 and s.digests_agree and s.counts_repeat
    for name in ("core.microfs.calls", "core.data_plane.submits",
                 "fabric.nvmf.ios", "nvme.device.ios", "mpi.collectives",
                 "core.interception.calls", "sim.fairshare.flows"):
        assert values[name] > 0, name
    assert values["critpath.makespan_ms"] > 0


def test_corrupted_golden_fails_every_op():
    workload = tiny_dump()
    outcome = workload.check(workload.run(2), 2)
    golden = {workload.name: {"seed": 2, "params": workload.params(),
                              "result": outcome.result}}
    good = measure([workload], {workload.name: 2}, rounds=1, golden=golden)
    assert good[workload.name].failed == 0

    golden[workload.name]["result"] = {"makespan_s": [t + 1e-9 for t in
                                                      outcome.result["makespan_s"]]}
    bad = measure([workload], {workload.name: 2}, rounds=1, golden=golden)
    s = bad[workload.name]
    assert s.attempted > 0 and s.failed == s.attempted

    # Another seed is checked on invariants alone.
    other = measure([workload], {workload.name: 3}, rounds=1, golden=golden)
    assert other[workload.name].failed == 0


def test_missing_entry_point_is_an_absent_layer_with_a_warning():
    renamed = LayerSpec("ghost", "", (
        ("repro.sim.engine", "Environment", ("no_such_method",)),
        ("repro.no_such_module", "Nothing", ("run",)),
    ))
    workload = tiny_raft()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = measure_traced([workload], {workload.name: 17}, rounds=1,
                                layers=(LAYERS[0], renamed))
    messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert any("no_such_method" in m for m in messages)
    assert any("layer ghost" in m and "absent" in m for m in messages)
    s = series[workload.name]
    assert s.present == [ENGINE]
    values = s.metrics(layers=(LAYERS[0], renamed))
    assert not any(key.startswith("ghost.") for key in values)
    assert values[f"{ENGINE}.events"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dump-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
