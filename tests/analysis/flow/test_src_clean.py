"""The shipped tree passes its own whole-program analyzer.

Mirrors ``test_src_lints_clean`` for DetLint: every intentional
violation in ``src/repro`` is either fixed, allowlisted in
``[tool.reproflow]``, or carries a justified line suppression — so CI
can run ``repro flow src --baseline flow-baseline.json`` as a blocking
step with an empty committed baseline.
"""

import json
from pathlib import Path

from repro.analysis.flow import analyze_index, load_config

ROOT = Path(__file__).resolve().parents[3]


def test_src_flows_clean(src_index):
    findings, _ = analyze_index(src_index, load_config(ROOT))
    assert findings == [], "\n".join(f.render() for f in findings)


def test_committed_baseline_is_empty():
    """The baseline exists for the CI workflow but holds no debt."""
    data = json.loads((ROOT / "flow-baseline.json").read_text())
    assert data["tool"] == "reproflow"
    assert data["findings"] == {}


def test_src_candidates_include_deliberately_unsuppressed_devices(src_index):
    """Devices are intentionally tie-break-free (the runtime sanitizer
    watches them); the static pass must still export them as candidates
    even though the blocking finding is suppressed."""
    _, candidates = analyze_index(src_index, load_config(ROOT))
    classes = {c.class_qualname for c in candidates}
    assert "repro.tiers.nvm.NVMDevice" in classes
