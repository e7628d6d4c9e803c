"""DetLint: the tree stays clean, the corpus fires, suppressions hold."""

from pathlib import Path

import pytest

from repro.analysis.detlint import RULES, lint_file, lint_index, main
from repro.analysis.flow.config import AnalysisConfig, load_config

_HERE = Path(__file__).parent
_FIXTURES = _HERE / "fixtures"
_REPO = _HERE.parents[1]


def _codes(name, config=None):
    return [f.code for f in lint_file(_FIXTURES / name, config)]


# -- the tree itself ----------------------------------------------------------


def test_src_lints_clean(src_index):
    """The enforced contract: zero findings across the whole source tree."""
    config = load_config(root=_REPO)
    findings = lint_index(src_index, config)
    assert findings == [], "\n".join(f.render() for f in findings)


# -- the violation corpus -----------------------------------------------------


def test_det001_wall_clock_corpus():
    assert _codes("det001_wall_clock.py") == ["DET001", "DET001", "DET001"]


def test_det001_sampling_allowlist_is_path_scoped():
    """The sampling-profiler allowlist covers exactly its module path.

    The same wall-clock-reading source is clean at
    ``repro/obs/sampling.py`` but fires everywhere else — including a
    copycat fixture shaped like the profiler.
    """
    assert _codes("det001_sampling_scope.py") == ["DET001"] * 3
    source = (_FIXTURES / "det001_sampling_scope.py").read_text()
    config = AnalysisConfig()
    allowed = lint_file(Path("src/repro/obs/sampling.py"), config,
                        source=source)
    assert allowed == []
    elsewhere = lint_file(Path("src/repro/sim/sampling.py"), config,
                          source=source)
    assert [f.code for f in elsewhere] == ["DET001"] * 3


def test_det002_rng_corpus():
    codes = _codes("det002_rng.py")
    assert codes == ["DET002", "DET002"]  # seeded default_rng not flagged


def test_det003_float_eq_corpus():
    assert _codes("det003_float_eq.py") == ["DET003", "DET003"]


def test_det004_set_iteration_corpus():
    assert _codes("det004_set_iter.py") == ["DET004", "DET004"]


def test_det005_unregistered_coroutine_corpus():
    assert _codes("det005_unregistered.py") == ["DET005", "DET005"]


def test_det006_hot_module_slots():
    """DET006 fires only under a hot-module config, and only on the
    class without __slots__."""
    assert _codes("det006_hot.py") == []  # not hot by default
    hot = AnalysisConfig(hot_modules=("fixtures/det006_hot.py",))
    findings = lint_file(_FIXTURES / "det006_hot.py", hot)
    assert [f.code for f in findings] == ["DET006"]
    assert "HotEvent" in findings[0].message


def test_det007_bare_except_corpus():
    assert _codes("det007_bare_except.py") == ["DET007"]


def test_det008_process_identity_corpus():
    # Four violations fire; the suppressed worker-entry pid read does not.
    assert _codes("det008_pid.py") == ["DET008"] * 4


def test_suppressions_silence_everything():
    assert _codes("suppressed_ok.py") == []


def test_every_rule_has_a_hint_and_stable_code():
    assert sorted(RULES) == [f"DET00{i}" for i in range(1, 9)]
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.hint


# -- config: allowlists -------------------------------------------------------


def test_allowlist_suppresses_by_path_suffix():
    source = "import time\nWALL = time.time()\n"
    config = AnalysisConfig()
    flagged = lint_file(
        Path("src/repro/core/data_plane.py"), config, source=source
    )
    assert [f.code for f in flagged] == ["DET001"]
    allowed = lint_file(
        Path("src/repro/obs/context.py"), config, source=source
    )
    assert allowed == []  # self-profiler may read the wall clock


def test_executor_allowlist_covers_worker_entry_points():
    # The worker-process boundary may read the wall clock and its own pid;
    # everywhere else DET008 fires.
    source = "import os, time\nPID = os.getpid()\nT0 = time.time()\n"
    config = AnalysisConfig()
    flagged = lint_file(Path("src/repro/core/data_plane.py"), config,
                        source=source)
    assert sorted(f.code for f in flagged) == ["DET001", "DET008"]
    allowed = lint_file(Path("src/repro/exec/executors.py"), config,
                        source=source)
    assert allowed == []


# -- the config ---------------------------------------------------------------


def test_pyproject_repeats_the_built_in_config():
    """``[tool.detlint]`` and ``[tool.reproflow]`` repeat the defaults,
    so a path changed in one copy and not the other fails here."""
    pytest.importorskip("tomllib")
    assert load_config(root=_REPO) == AnalysisConfig()


def test_configured_paths_name_files_under_src():
    for config in (AnalysisConfig(), load_config(root=_REPO)):
        paths = list(config.hot_modules)
        paths += [path for paths_ in config.allow.values() for path in paths_]
        missing = [path for path in paths if not (_REPO / "src" / path).is_file()]
        assert missing == []


# -- CLI ----------------------------------------------------------------------


def test_main_exit_codes(capsys):
    assert main([str(_FIXTURES)]) == 1
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "DET004", "DET005", "DET007",
                 "DET008"):
        assert code in out
    assert main([str(_FIXTURES / "suppressed_ok.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_finding_render_includes_hint():
    findings = lint_file(_FIXTURES / "det001_wall_clock.py")
    rendered = findings[0].render()
    assert "DET001" in rendered and "hint:" in rendered
