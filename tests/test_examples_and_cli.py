"""Smoke tests: the examples and the CLI stay runnable."""

import subprocess
import sys

from repro.cli import main as cli_main


def test_failure_recovery_example_runs():
    import examples.failure_recovery as demo

    demo.main()  # asserts internally


def test_quickstart_example_compiles_and_imports():
    import examples.quickstart  # noqa: F401
    import examples.comd_weak_scaling  # noqa: F401
    import examples.multilevel_checkpointing  # noqa: F401


def test_quickstart_example_runs():
    import examples.quickstart as demo

    demo.main()


def test_multilevel_checkpointing_example_runs():
    import examples.multilevel_checkpointing as demo

    demo.main()


def test_exascale_mtbf_example_runs():
    import examples.exascale_mtbf as demo

    demo.main()


def test_cli_list():
    assert cli_main(["list"]) == 0


def test_cli_unknown_experiment():
    assert cli_main(["run", "fig99"]) == 2


def test_cli_run_fast_experiment(capsys):
    assert cli_main(["run", "ablation-distributors"]) == 0
    out = capsys.readouterr().out
    assert "round-robin" in out


def test_cli_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "fig7a" in result.stdout


# -- flag routing -------------------------------------------------------------


def test_procs_routes_by_the_experiments_own_parameter():
    from repro import cli

    assert cli._experiment_kwargs("fig1", [28], None) == {"procs": (28,)}
    assert cli._experiment_kwargs("ext-cache", [28], None) == {"nprocs": 28}
    assert cli._experiment_kwargs("ext-compression", [7, 14], None) == {
        "procs": (7, 14)}


def test_flags_an_experiment_cannot_take_exit_2(tmp_path, capsys):
    assert cli_main(["run", "ablation-distributors", "--procs", "8"]) == 2
    assert "ext-cache" in capsys.readouterr().err  # names the takers
    assert cli_main(["profile", "fig7a", "--systems", "nvmecr",
                     "--out-dir", str(tmp_path)]) == 2
    assert "fig9weak" in capsys.readouterr().err
    assert cli_main(["run", "fig8a", "--shards", "2"]) == 2
    assert "fig7a, fig9strong, fig9weak" in capsys.readouterr().err


def test_fig9_provenance_sees_the_signature_defaults():
    from repro import cli
    from repro.bench.trend import config_digest, provenance

    meta = provenance("fig9weak", fn=cli._EXPERIMENTS["fig9weak"], kwargs={})
    assert meta["seed"] == 8
    assert meta["systems"] == ["glusterfs", "nvmecr", "orangefs"]
    assert meta["config_digest"] != config_digest({})


def test_fig7a_export_is_identical_at_any_shard_count(tmp_path, monkeypatch,
                                                      capsys):
    """The CLI writes BENCH_fig7a.json to the cwd, so run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    exported = []
    for out, flags, backend in (
        ("plain", [], "in-process"),
        ("inline", ["--shards", "2", "--start-method", "inline"],
         "sharded/inline"),
        ("fork", ["--shards", "2"], "sharded/fork"),
    ):
        argv = ["run", "fig7a", "--procs", "4", "--export", out, *flags]
        assert cli_main(argv) == 0
        assert f"[execution: {backend}, " in capsys.readouterr().out
        (path,) = (tmp_path / out).glob("*.json")
        exported.append(path.read_bytes())
    assert exported[0] == exported[1] == exported[2]
