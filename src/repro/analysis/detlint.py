"""DetLint: per-file AST rules that enforce the repro's determinism contract.

Every headline number this repository reproduces (the Fig 7/8 curves,
the pinned fig7a makespan, same-seed fault replay) depends on
an unwritten contract: simulation code reads *simulated* time only,
draws randomness only from named seeded streams, never lets hash-order
leak into event scheduling, and keeps its hot-path classes allocation
lean. DetLint makes the contract machine-checked.

Rule catalog (see DESIGN.md §8 for the full semantics):

==========  ==============================================================
DET001      wall-clock read (``time.time``/``datetime.now``/...) in sim code
DET002      unseeded / module-level RNG (stdlib ``random``, ``np.random.*``)
DET003      exact float equality on simulated timestamps
DET004      iteration over an unordered ``set`` (hash-order nondeterminism)
DET005      sim coroutine / timeout created but never registered or yielded
DET006      hot-module class without ``__slots__``
DET007      bare ``except:`` (swallows SimulationError and model errors); also a
            file that does not parse
DET008      process-identity read (``os.getpid``/``uuid.uuid4``/...) in sim code
==========  ==============================================================

The rules are one visitor per :class:`~repro.analysis.flow.symbols.ModuleInfo`
of the shared :class:`~repro.analysis.flow.symbols.ProjectIndex`: the
same parse, import maps, generator facts, sink classifier, config,
suppression filter and emitter as ``repro flow``.  They stay per-file on
purpose — a call resolves only through its own file's imports, never
through module-level bindings or other modules, so laundering across
files is FLOW101's job.

Suppression: append ``# detlint: ignore[DET001]`` (comma-separate for
several codes) to the offending line, or put
``# detlint: ignore-file[DET00x]`` in the first ten lines of the file.
A ``[tool.detlint]`` table in ``pyproject.toml`` can override
``hot_modules`` and the per-rule path allowlists when the tree moves.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import unsuppressed
from repro.analysis.flow.config import AnalysisConfig, load_config
from repro.analysis.flow.report import DET_RULES as RULES
from repro.analysis.flow.report import Finding, write_report
from repro.analysis.flow.symbols import ModuleInfo, ProjectIndex
from repro.analysis.flow.taint import sink_family

__all__ = [
    "RULES",
    "lint_file",
    "lint_index",
    "lint_paths",
    "main",
]

#: Names that read as simulated timestamps for DET003.
_TIME_NAME_RE = re.compile(
    r"(?:^|_)(now|deadline|timestamp|expiry|makespan|mtbf)(?:_s)?$|(?:^|_)time(?:_s)?$"
)


class _Visitor(ast.NodeVisitor):
    def __init__(self, mod: ModuleInfo, config: AnalysisConfig) -> None:
        self.mod = mod
        self.config = config
        self.findings: List[Finding] = []
        #: bare names of generator functions defined anywhere in the module
        self.generator_names = {fn.name for fn in mod.defs if fn.is_generator}
        #: variable names bound to set expressions, per function scope
        self._set_vars: List[Set[str]] = [set()]

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.mod.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # -- name resolution: this file's import maps only -----------------------

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Imported module path an expression names (``np.random``)."""
        if isinstance(node, ast.Name):
            if node.id in self.mod.import_aliases:
                return self.mod.import_aliases[node.id]
            origin = self.mod.from_imports.get(node.id)
            return ".".join(origin) if origin else None
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    def _origin(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """(module, attr) a call target resolves to, if imported."""
        if isinstance(func, ast.Name):
            return self.mod.from_imports.get(func.id)
        if isinstance(func, ast.Attribute):
            module = self._dotted(func.value)
            return (module, func.attr) if module else None
        return None

    # -- DET001 / DET002 / DET008 --------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        origin = self._origin(node.func)
        sink = sink_family(*origin) if origin is not None else None
        if origin is not None and sink is not None:
            module, attr = origin
            code = sink[1]
            if code == "DET001":
                message = f"wall-clock read `{module}.{attr}()` in simulation code"
            elif code == "DET008":
                message = (f"process-identity read `{module}.{attr}()` varies "
                           "per process and per run")
            elif module == "random":
                message = (f"stdlib global RNG `random.{attr}()` (hash-seeded, "
                           "shared across components)")
            else:
                message = (f"module-level numpy RNG `np.random.{attr}()` draws "
                           "from the shared global state")
            self.report(node, code, message)
        if isinstance(node.func, ast.Name) and node.func.id == "list":
            if len(node.args) == 1 and self._is_set_expr(node.args[0]):
                self.report(
                    node, "DET004",
                    "materialising a set into a list keeps hash order",
                )
        self.generic_visit(node)

    # -- DET003 -------------------------------------------------------------

    def _is_timelike(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "now" or bool(_TIME_NAME_RE.search(node.attr))
        if isinstance(node, ast.Name):
            return bool(_TIME_NAME_RE.search(node.id))
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for a, b in ((left, right), (right, left)):
                if not self._is_timelike(a):
                    continue
                if isinstance(b, ast.Constant) and isinstance(b.value, float):
                    self.report(
                        node, "DET003",
                        "exact float comparison of a sim timestamp against "
                        f"literal {b.value!r}",
                    )
                    break
                if self._is_timelike(b):
                    self.report(
                        node, "DET003",
                        "exact float comparison between two sim timestamps",
                    )
                    break
        self.generic_visit(node)

    # -- DET004 -------------------------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self._set_vars[-1]
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_vars[-1].add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self.report(
                node, "DET004",
                "iterating a set: order depends on the interpreter hash seed",
            )
        self.generic_visit(node)

    # -- DET005 -------------------------------------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            callee: Optional[str] = None
            if isinstance(call.func, ast.Name):
                callee = call.func.id
            elif isinstance(call.func, ast.Attribute):
                callee = call.func.attr
            if callee == "timeout" and isinstance(call.func, ast.Attribute):
                base = call.func.value
                if (isinstance(base, ast.Name) and base.id == "env") or (
                    isinstance(base, ast.Attribute) and base.attr == "env"
                ):
                    self.report(
                        node, "DET005",
                        "env.timeout(...) result discarded — the delay never "
                        "elapses for anyone",
                    )
            elif callee in self.generator_names:
                self.report(
                    node, "DET005",
                    f"sim coroutine `{callee}(...)` created but never "
                    "registered with the engine",
                )
        self.generic_visit(node)

    # -- DET006 / DET007 ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.config.is_hot_module(self.mod.path):
            has_slots = any(
                (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                )
                or (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                )
                for stmt in node.body
            )
            slotted_dataclass = any(
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass"
                and any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                )
                for dec in node.decorator_list
            )
            if not has_slots and not slotted_dataclass:
                self.report(
                    node, "DET006",
                    f"class `{node.name}` in a hot module lacks __slots__",
                )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node, "DET007",
                "bare `except:` catches SimulationError and model errors and "
                "hides model bugs",
            )
        self.generic_visit(node)

    # Fresh set-variable scope per function.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._set_vars.append(set())
        self.generic_visit(node)
        self._set_vars.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# entry points


def lint_index(index: ProjectIndex, config: AnalysisConfig) -> List[Finding]:
    """DET findings for every indexed file, suppressions applied, sorted."""
    findings = [
        Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code="DET007",
            message=f"file does not parse: {exc.msg}",
        )
        for path, exc in index.parse_errors.items()
    ]
    for mod in index.by_path.values():
        visitor = _Visitor(mod, config)
        visitor.visit(mod.tree)
        findings.extend(visitor.findings)
    return unsuppressed(index, config, findings)


def lint_file(
    path: Path, config: Optional[AnalysisConfig] = None, source: Optional[str] = None
) -> List[Finding]:
    """Lint one python file; returns surviving (unsuppressed) findings."""
    index = ProjectIndex()
    index.add_file(path, source)
    return lint_index(index, config or AnalysisConfig())


def lint_paths(
    paths: Sequence[str], config: Optional[AnalysisConfig] = None
) -> List[Finding]:
    return lint_index(ProjectIndex.build(paths), config or load_config())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``repro lint [paths...]`` / ``python -m repro.analysis``.

    ``--format json|sarif`` renders machine-readable output through the
    emitter ``repro flow`` uses, so both rule sets annotate PRs
    uniformly in CI.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint", description="DetLint: determinism contract linter"
    )
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the formatted report to FILE "
                             "(default: stdout)")
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    index = ProjectIndex.build(args.paths or ["src"])
    findings = lint_index(index, load_config())
    files = len(index.by_path) + len(index.parse_errors)
    write_report(findings, args.fmt, args.output, "detlint", RULES,
                 label="detlint", clean=f"clean ({files} files)")
    if args.output:
        print(f"detlint: wrote {args.output} "
              f"({len(findings)} finding(s), {args.fmt})")
    return 1 if findings else 0
