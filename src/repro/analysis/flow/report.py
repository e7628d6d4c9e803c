"""Rule catalogs, the one finding type, output formats, and baselines.

DetLint's DET rules and the flow passes report the same
:class:`Finding` — ``path``/``line``/``col``/``code``/``message``, plus
the ``symbol`` and call ``chain`` only whole-program findings carry —
through one text/JSON/SARIF emitter, so CI annotates PRs uniformly
whichever rule set produced the report.

Baselines make the analyzer adoptable on a tree with known findings:
``--write-baseline`` records a fingerprint multiset (rule, file, symbol
— deliberately *not* line numbers, so unrelated edits don't churn it),
and ``--baseline`` filters those out so only **new** violations block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Rule",
    "DET_RULES",
    "FLOW_RULES",
    "Finding",
    "render_text",
    "findings_payload",
    "to_sarif",
    "write_report",
    "fingerprint",
    "write_baseline",
    "load_baseline",
    "filter_baseline",
]


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: a stable code, a summary, and a fix-hint."""

    code: str
    name: str
    summary: str
    hint: str


def _catalog(*rules: Rule) -> Dict[str, Rule]:
    return {rule.code: rule for rule in rules}


DET_RULES = _catalog(
    Rule(
        "DET001",
        "wall-clock",
        "wall-clock read in simulation code",
        "read env.now (simulated seconds); wall time belongs only in "
        "the self-profiler and CLI reporting",
    ),
    Rule(
        "DET002",
        "unseeded-rng",
        "module-level / unseeded RNG",
        "draw from a named stream: RngHub.stream(...) in repro.sim.rng "
        "(or np.random.default_rng(seed) at a seeded boundary)",
    ),
    Rule(
        "DET003",
        "float-time-eq",
        "exact float equality on a simulated timestamp",
        "compare with a tolerance (math.isclose / abs(a-b) < eps) or "
        "restructure around event ordering",
    ),
    Rule(
        "DET004",
        "unordered-iter",
        "iteration over an unordered set",
        "wrap in sorted(...) or keep a list/dict — set order follows "
        "the hash seed, not insertion",
    ),
    Rule(
        "DET005",
        "unregistered-coroutine",
        "sim coroutine or timeout created but never driven",
        "register with env.process(...), drive with `yield from`, or "
        "yield the returned event",
    ),
    Rule(
        "DET006",
        "missing-slots",
        "hot-module class without __slots__",
        "declare __slots__ — classes on the event hot path must not "
        "carry per-instance dicts",
    ),
    Rule(
        "DET007",
        "bare-except",
        "bare `except:` around simulation code",
        "name the exception; a bare except swallows SimulationError and "
        "model errors and corrupts recovery paths",
    ),
    Rule(
        "DET008",
        "process-identity",
        "process-identity read in simulation code",
        "pids/uuids/urandom differ per process and per run; key state "
        "by unit index or a seeded stream — process identity belongs "
        "only in the worker-process entry points (repro.exec)",
    ),
)

FLOW_RULES = _catalog(
    Rule(
        "FLOW101",
        "transitive-impurity",
        "call chain reaches a wall-clock/RNG/process-identity sink",
        "thread a seeded stream (repro.sim.rng.RngHub) through the "
        "chain, or absorb the impurity at an allowlisted boundary — "
        "sim results must be a pure function of the seed",
    ),
    Rule(
        "FLOW102",
        "yield-discipline",
        "sim coroutine created but never driven, or yields a non-event",
        "drive sub-coroutines with `yield from`, register roots with "
        "env.process(...), and yield only Events — the engine fails "
        "non-event yields at runtime, after the schedule already "
        "diverged",
    ),
    Rule(
        "FLOW103",
        "race-candidate",
        "attribute mutated from multiple sim coroutines with no "
        "declared tie-break",
        "declare `_san_tiebreak` on the class if same-timestamp "
        "ordering is disciplined (e.g. FIFO), or serialize the "
        "writers; the runtime race sanitizer prioritizes these "
        "candidates",
    ),
)

_RULES = {**DET_RULES, **FLOW_RULES}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: function/class qualname the finding is about (flow findings only)
    symbol: Optional[str] = None
    #: call chain from ``symbol`` towards the violation (flow findings only)
    chain: Tuple[str, ...] = ()

    @property
    def hint(self) -> str:
        return _RULES[self.code].hint

    def render(self) -> str:
        subject = f"[{self.symbol}] " if self.symbol else ""
        text = (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{subject}{self.message}"
        )
        if self.chain:
            text += f"\n    chain: {' -> '.join(self.chain)}"
        return text + f"\n    hint: {self.hint}"


def render_text(
    findings: Sequence[Finding], label: str, clean: str = "clean"
) -> str:
    """Every finding, then a ``label: N finding(s) [...]`` summary line."""
    lines = [f.render() for f in findings]
    if findings:
        counts: Dict[str, int] = {}
        for finding in findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        summary = ", ".join(f"{c}×{code}" for code, c in sorted(counts.items()))
        lines.append(f"{label}: {len(findings)} finding(s) [{summary}]")
    else:
        lines.append(f"{label}: {clean}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine-readable formats


def findings_payload(findings: Sequence[Finding], tool_name: str) -> Dict[str, Any]:
    """Plain-JSON report: one object per finding, stable field names."""
    items: List[Dict[str, Any]] = []
    for f in findings:
        item: Dict[str, Any] = {
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "code": f.code,
            "message": f.message,
        }
        if f.symbol:
            item["symbol"] = f.symbol
        if f.chain:
            item["chain"] = list(f.chain)
        items.append(item)
    return {"tool": tool_name, "findings": items, "count": len(items)}


def to_sarif(
    findings: Sequence[Finding],
    tool_name: str,
    rules: Mapping[str, Rule],
    version: str = "1.0.0",
) -> Dict[str, Any]:
    """SARIF 2.1.0 document for GitHub code-scanning upload."""
    used = sorted({f.code for f in findings} | set(rules))
    rule_objs = [
        {
            "id": code,
            "name": rules[code].name if code in rules else code,
            "shortDescription": {
                "text": rules[code].summary if code in rules else code
            },
            "help": {"text": rules[code].hint if code in rules else ""},
            "defaultConfiguration": {"level": "error"},
        }
        for code in used
    ]
    results = []
    for f in findings:
        message = f.message
        if f.chain:
            message += f" (chain: {' -> '.join(f.chain)})"
        results.append(
            {
                "ruleId": f.code,
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": str(f.path).replace("\\", "/"),
                            },
                            "region": {
                                "startLine": max(1, int(f.line)),
                                "startColumn": max(1, int(f.col)),
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": version,
                        "informationUri": "https://github.com/",
                        "rules": rule_objs,
                    }
                },
                "results": results,
            }
        ],
    }


def write_report(
    findings: Sequence[Finding],
    fmt: str,
    output: Optional[str],
    tool_name: str,
    rules: Mapping[str, Rule],
    label: str,
    clean: str = "clean",
) -> None:
    """Render ``findings`` as text, JSON, or SARIF to ``output`` or stdout.

    ``label``/``clean`` shape the text summary line (:func:`render_text`).
    """
    if fmt == "sarif":
        text = json.dumps(to_sarif(findings, tool_name, rules), indent=2)
    elif fmt == "json":
        text = json.dumps(findings_payload(findings, tool_name), indent=2)
    else:
        text = render_text(findings, label, clean)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# baseline (diff-aware adoption)


def fingerprint(finding: Finding) -> str:
    """Stable identity of a finding across unrelated edits.

    Line numbers are excluded on purpose: moving code above a known
    violation must not make it look new.  Two identical violations in
    the same symbol share a fingerprint — the baseline stores counts, so
    *adding* a second one still blocks.
    """
    norm = finding.path.replace("\\", "/")
    body = f"{finding.code}|{norm}|{finding.symbol}"
    return hashlib.sha256(body.encode()).hexdigest()[:20]


def write_baseline(path: str, findings: Sequence[Finding]) -> str:
    counts: Dict[str, int] = {}
    for finding in findings:
        key = fingerprint(finding)
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "version": 1,
        "tool": "reproflow",
        "findings": {key: counts[key] for key in sorted(counts)},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_baseline(path: str) -> Dict[str, int]:
    data = json.loads(Path(path).read_text())
    findings = data.get("findings", {})
    return {str(k): int(v) for k, v in findings.items()}


def filter_baseline(
    findings: Iterable[Finding], baseline: Mapping[str, int]
) -> List[Finding]:
    """Only findings *beyond* the baselined count for their fingerprint."""
    budget = dict(baseline)
    fresh: List[Finding] = []
    for finding in findings:
        key = fingerprint(finding)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            continue
        fresh.append(finding)
    return fresh
