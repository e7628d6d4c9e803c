"""Analyzer configuration: one dataclass, one ``pyproject.toml`` loader.

DetLint's DET rules and the flow passes share one config.  Per-rule
path allowlists (suffix match) silence a rule in a file; a file
allowlisted for DET001/DET002/DET008 also *sanctions* its sinks, so no
FLOW101 taint originates there.  ``[tool.detlint]`` overlays
``hot_modules`` and the DET allowlists, ``[tool.reproflow]`` the FLOW
allowlists.  The built-in defaults stand alone: the overlay needs
tomllib, which older interpreters lack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["AnalysisConfig", "load_config"]


@dataclass
class AnalysisConfig:
    """Codebase-tuned knobs for both rule sets."""

    #: Module paths (suffix match) whose classes must declare __slots__.
    hot_modules: Tuple[str, ...] = (
        "repro/sim/engine.py",
        "repro/nvme/queues.py",
        "repro/tiers/base.py",
        "repro/tiers/nvm.py",
        "repro/tiers/client.py",
    )
    #: Per-rule path allowlists (suffix match): rule does not fire there.
    allow: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            # The self-profiler and the sampling profiler measure the
            # *simulator's* wall cost and never feed simulated time; the
            # RNG hub is the one place seeded generators are minted; the
            # plan executor is the one sanctioned worker-process
            # boundary — its wall clocks and pids are shard
            # diagnostics that never reach any fingerprinted field (see
            # repro/exec/executors.py).
            "DET001": ("repro/obs/context.py", "repro/obs/export.py",
                       "repro/obs/sampling.py", "repro/exec/executors.py"),
            "DET002": ("repro/sim/rng.py",),
            "DET008": ("repro/exec/executors.py",),
            # The engine's Event/Environment mutation *is* the global
            # ordering mechanism, and the sanitizer's Monitor is observer
            # bookkeeping — FLOW103 contention reports there are
            # self-referential.
            "FLOW103": ("repro/sim/engine.py", "repro/analysis/sanitize.py"),
        }
    )

    def allows(self, code: str, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.allow.get(code, ()))

    def is_hot_module(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in self.hot_modules)


def load_config(root: Optional[Path] = None) -> AnalysisConfig:
    """Defaults overlaid with ``[tool.detlint]`` and ``[tool.reproflow]``."""
    config = AnalysisConfig()
    pyproject = (root or Path.cwd()) / "pyproject.toml"
    if not pyproject.is_file():
        return config
    try:
        import tomllib  # py3.11+; older interpreters keep the defaults
    except ImportError:  # pragma: no cover - version dependent
        return config
    try:
        tool = tomllib.loads(pyproject.read_text()).get("tool", {})
    except (OSError, ValueError):  # pragma: no cover - malformed pyproject
        return config
    detlint = tool.get("detlint", {})
    if "hot_modules" in detlint:
        config.hot_modules = tuple(detlint["hot_modules"])
    for table in (detlint, tool.get("reproflow", {})):
        for code, paths in table.get("allow", {}).items():
            config.allow[code] = tuple(paths)
    return config
