"""repro.analysis — static analysis + runtime sanitizer suite.

Two layers enforce the repro's correctness contracts:

* Static analysis, one front end: :class:`~repro.analysis.flow.symbols.ProjectIndex`
  parses the tree once (import maps with relative imports resolved,
  generator facts, suppression comments, parse failures) and two rule
  sets run over it, sharing one config (``[tool.detlint]`` +
  ``[tool.reproflow]``), one suppression filter, one finding type and
  one text/JSON/SARIF emitter:

  - :mod:`repro.analysis.detlint` (``repro lint``, ``python -m
    repro.analysis``) — per-file DET001–DET008 rules that forbid the
    nondeterminism classes that would break bit-identical pinned-seed
    replays (wall clocks, unseeded RNG, float == on sim timestamps,
    order-sensitive set iteration, unregistered coroutines, missing
    ``__slots__`` on hot-path classes, bare ``except:``,
    process-identity fingerprints);
  - :mod:`repro.analysis.flow` (``repro flow``, ``python -m
    repro.analysis.flow``) — a call graph over the same index and
    fixed-point interprocedural rules: FLOW101 transitive impurity
    taint, FLOW102 coroutine yield-discipline, FLOW103 static
    race-candidate discovery (exported to the runtime sanitizer).

* :mod:`repro.analysis.sanitize` — runtime sanitizers behind
  ``repro run <exp> --sanitize``: a determinism sanitizer (run twice,
  diff per-layer event-stream hashes), a sim-time race detector
  (same-timestamp multi-actor mutations on objects without a declared
  ``_san_tiebreak``, with FLOW103 candidates annotated as predicted),
  and a leak sanitizer (unreleased resources, ungranted arbiter
  waiters, namespaces, and data-plane IOs still in flight at run end).
"""

from repro.analysis.detlint import RULES, lint_file, lint_paths
from repro.analysis.detlint import main as lint_main
from repro.analysis.flow import (
    FLOW_RULES,
    AnalysisConfig,
    Finding as StaticFinding,
    RaceCandidate,
    analyze as flow_analyze,
    load_candidates,
)
from repro.analysis.flow import main as flow_main
from repro.analysis.sanitize import (
    Finding as SanitizeFinding,
    Monitor,
    SanitizeReport,
    SanitizeSession,
    attach_if_active,
    first_divergence,
    note_mutation,
    sanitized_run,
    session,
)

__all__ = [
    "RULES",
    "AnalysisConfig",
    "StaticFinding",
    "lint_file",
    "lint_paths",
    "lint_main",
    "FLOW_RULES",
    "RaceCandidate",
    "flow_analyze",
    "flow_main",
    "load_candidates",
    "SanitizeFinding",
    "Monitor",
    "SanitizeReport",
    "SanitizeSession",
    "attach_if_active",
    "first_divergence",
    "note_mutation",
    "sanitized_run",
    "session",
]
