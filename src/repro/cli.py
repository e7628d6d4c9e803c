"""Command-line interface: regenerate paper artefacts from a shell.

    python -m repro list                  # what can be regenerated
    python -m repro systems               # registered storage backends
    python -m repro run fig7a             # one figure/table
    python -m repro run all --fast        # everything, reduced scale
    python -m repro run tab2 --procs 448  # paper scale where supported
    python -m repro run fig8b --systems nvmecr crail   # swap comparisons
    python -m repro run fig8a --trace trace.json       # Perfetto trace
    python -m repro run fig8a --metrics                # counters + latency
    python -m repro trace fig8a                        # shorthand for --trace
    python -m repro run fig8a --sanitize               # determinism/race/leak
    python -m repro lint src                           # DetLint static analysis
    python -m repro profile fig7a                      # critical-path attribution
    python -m repro trend record BENCH_fig8a.json      # bless as baseline
    python -m repro trend check BENCH_fig8a.json       # gate regressions
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.bench import experiments as E
from repro.bench import extensions as X
from repro.errors import UnknownSystem
from repro.exec.plan import resolve_unit_fn
from repro.systems import get as get_system


def _resilience(**kwargs):
    from repro.bench.resilience import resilience

    return resilience(**kwargs)


def _qos(**kwargs):
    from repro.bench.qos import qos

    return qos(**kwargs)


def _failover(**kwargs):
    from repro.bench.failover import failover

    return failover(**kwargs)


def _tiers(**kwargs):
    from repro.bench.tiers import tiers

    return tiers(**kwargs)


#: What each lazy entry imports.  Flag routing reads these signatures;
#: provenance() keeps digesting the entries' own ``**kwargs`` ones.
_LAZY_TARGETS: Dict[Callable, str] = {
    _resilience: "repro.bench.resilience:resilience",
    _qos: "repro.bench.qos:qos",
    _failover: "repro.bench.failover:failover",
    _tiers: "repro.bench.tiers:tiers",
}

_EXPERIMENTS: Dict[str, Callable] = {
    "fig1": E.fig1_motivation,
    "fig7a": E.fig7a_hugeblock_sweep,
    "fig7b": E.fig7b_load_imbalance,
    "fig7c": E.fig7c_direct_access,
    "fig7d": E.fig7d_drilldown,
    "fig8a": E.fig8a_nvmf_overhead,
    "fig8b": E.fig8b_create_rate,
    "fig9weak": functools.partial(E.fig9_scaling, "weak"),
    "fig9strong": functools.partial(E.fig9_scaling, "strong"),
    "tab1": E.tab1_metadata_overhead,
    "tab2": E.tab2_multilevel,
    "sysmatrix": E.sysmatrix,
    "resilience": _resilience,
    "qos": _qos,
    "failover": _failover,
    "tiers": _tiers,
    "ablation-coalescing": E.ablation_coalescing,
    "ablation-distributors": E.ablation_distributors,
    "ext-cache": X.ext_cache_layer,
    "ext-incremental": X.ext_incremental,
    "ext-compression": X.ext_compression,
    "ext-burstbuffer": X.ext_burst_buffer,
    "ext-mtbf": X.ext_mtbf_campaign,
    "ext-n1": X.ext_n1_pattern,
    "ext-skew": X.ext_skewed_balance,
}

# Experiments whose wall-clock/efficiency numbers CI tracks as artefacts:
# every run emits BENCH_<name>.json (uploaded by the bench-artifacts job).
_PERF_RELEVANT: Dict[str, str] = {
    "fig8a": "fig8a",
    "qos": "qos",
    "fig9weak": "fig9",
    "fig9strong": "fig9strong",
    "fig7a": "fig7a",
    "failover": "failover",
    "tiers": "tiers",
}

_DESCRIPTIONS: Dict[str, str] = {
    "fig1": "weak-scaling bandwidth of OrangeFS/GlusterFS vs hw peak",
    "fig7a": "checkpoint time vs hugeblock size",
    "fig7b": "per-server load imbalance (CoV)",
    "fig7c": "direct access vs ext4/XFS/SPDK + kernel-time share",
    "fig7d": "drilldown: optimisations one by one",
    "fig8a": "NVMf overhead: local vs remote vs Crail",
    "fig8b": "file-create throughput",
    "fig9weak": "weak-scaling checkpoint/recovery efficiency",
    "fig9strong": "strong-scaling checkpoint/recovery efficiency",
    "tab1": "metadata storage overhead",
    "tab2": "multi-level checkpointing with Lustre tier",
    "sysmatrix": "one N-N pass over every registered storage system",
    "resilience": "fault-injected campaigns: effective progress vs MTBF",
    "failover": "replicated control plane: availability under leader "
                "kills and partitions",
    "tiers": "checkpoint placement over NVM/NVMe/PFS tiers under "
             "tier-loss strikes",
    "qos": "per-class latency under FCFS vs WRR arbitration (+ batching)",
    "ablation-coalescing": "log record coalescing on/off",
    "ablation-distributors": "round-robin vs jump hash vs vnode ring",
    "ext-cache": "DRAM cache layer (the paper's future work)",
    "ext-incremental": "incremental checkpointing on NVMe-CR",
    "ext-compression": "checkpoint compression crossover",
    "ext-burstbuffer": "node-local burst buffer vs disaggregation",
    "ext-mtbf": "failure campaign: checkpoint interval vs effective progress",
    "ext-n1": "N-1 shared-file pattern vs N-N",
    "ext-skew": "load balance under AMR-skewed checkpoint sizes",
}


def _parameters(fn: Callable) -> Mapping[str, inspect.Parameter]:
    """The parameters an experiment entry takes (a lazy entry answers
    for the function it imports)."""
    if fn in _LAZY_TARGETS:
        fn = resolve_unit_fn(_LAZY_TARGETS[fn])
    return inspect.signature(fn).parameters


def _taking(*params: str) -> str:
    """The experiments taking any of ``params``, for error messages."""
    return ", ".join(sorted(
        name for name, fn in _EXPERIMENTS.items()
        if any(p in _parameters(fn) for p in params)))


def _experiment_kwargs(name: str, procs: Optional[Sequence[int]],
                       systems: Optional[Sequence[str]]
                       ) -> Optional[Dict[str, Any]]:
    """Route ``--procs``/``--systems`` to experiment ``name``'s parameters.

    ``--procs`` gives ``nprocs`` its first value or ``procs`` the tuple,
    whichever the experiment has.  A flag the experiment cannot take
    prints the experiments that can and returns None (exit 2).
    """
    params = _parameters(_EXPERIMENTS[name])
    kwargs: Dict[str, Any] = {}
    if procs:
        if "nprocs" in params:
            kwargs["nprocs"] = procs[0]
        elif "procs" in params:
            kwargs["procs"] = tuple(procs)
        else:
            print(f"{name} does not take --procs "
                  f"(supported: {_taking('nprocs', 'procs')})",
                  file=sys.stderr)
            return None
    if systems:
        if "systems" not in params:
            print(f"{name} does not take --systems "
                  f"(supported: {_taking('systems')})", file=sys.stderr)
            return None
        try:
            for system in systems:
                get_system(system)  # fail fast with the known-names list
        except UnknownSystem as exc:
            print(exc, file=sys.stderr)
            return None
        kwargs["systems"] = tuple(systems)
    return kwargs


def _profile_command(args) -> int:
    """``repro profile <exp>``: traced + telemetry run, then attribution.

    Runs the experiment once with spans and engine telemetry on,
    walks the critical path, prints the per-layer table, and writes
    ``<name>.critpath.jsonl`` + ``<name>.collapsed`` (simulated-time
    flamegraph).  ``--sample`` additionally runs the host wall-clock
    sampler and writes ``<name>.host.collapsed``.
    """
    from pathlib import Path

    from repro import obs

    fn = _EXPERIMENTS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; try 'repro list'",
              file=sys.stderr)
        return 2
    kwargs = _experiment_kwargs(args.name, args.procs, args.systems)
    if kwargs is None:
        return 2

    sampler = None
    if args.sample:
        from repro.obs.sampling import SamplingProfiler

        sampler = SamplingProfiler(
            interval_s=args.sample_interval_ms / 1e3).start()
    started = time.time()  # wall-clock CLI reporting  # detlint: ignore[DET001]
    with obs.capture(trace=True, telemetry=True) as cap:
        table = fn(**kwargs)
    if sampler is not None:
        sampler.stop()
    table.show()

    spans = obs.spans_of(cap.contexts)
    cp = obs.critical_path(spans)
    obs.layer_table(
        cp, title=f"Critical-path attribution: {args.name}").show()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl = obs.write_critical_path_jsonl(
        cp, str(out_dir / f"{args.name}.critpath.jsonl"))
    print(f"wrote {jsonl}")
    collapsed = obs.write_collapsed(
        obs.collapsed_stacks(spans, by_track=args.by_track),
        str(out_dir / f"{args.name}.collapsed"))
    print(f"wrote {collapsed} (simulated time; feed to flamegraph.pl "
          "or speedscope)")

    # Engine self-telemetry, folded per context then printed merged.
    engine_counters: dict = {}
    for ctx in cap.contexts:
        for key, value in ctx.flat_extra().items():
            if key.startswith("engine."):
                engine_counters[key] = engine_counters.get(key, 0) + value
    if engine_counters:
        print("engine telemetry (deterministic):")
        for key in sorted(engine_counters):
            print(f"  {key:<34} {engine_counters[key]:>14g}")

    if sampler is not None:
        host = sampler.write(str(out_dir / f"{args.name}.host.collapsed"))
        print(f"wrote {host} ({sampler.samples} samples, HOST wall clock; "
              "non-deterministic)")
        for line in sampler.top(5):
            print(f"  {line}")
    print(f"[{args.name} profiled in "
          f"{time.time() - started:.1f}s wall]")  # detlint: ignore[DET001]
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="NVMe-CR reproduction: regenerate paper artefacts"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("systems", help="list registered storage systems")
    runp = sub.add_parser("run", help="run experiment(s)")
    runp.add_argument("name", help="experiment id (or 'all')")
    runp.add_argument("--fast", action="store_true",
                      help="reduced scale for 'all'")
    runp.add_argument("--procs", type=int, nargs="+", default=None,
                      help="process counts (where supported)")
    runp.add_argument("--systems", nargs="+", default=None, metavar="NAME",
                      help="storage systems to compare (see 'repro systems')")
    runp.add_argument("--export", metavar="DIR", default=None,
                      help="also write the table(s) as CSV + JSON to DIR")
    runp.add_argument("--trace", metavar="FILE", default=None,
                      help="record spans and write a Chrome/Perfetto trace")
    runp.add_argument("--trace-jsonl", metavar="FILE", default=None,
                      help="also write the spans as flat JSONL")
    runp.add_argument("--metrics", action="store_true",
                      help="print the metrics/span summary after the run")
    runp.add_argument("--profile", action="store_true",
                      help="wall-clock self-profile of the simulator itself")
    runp.add_argument("--qos", choices=("wrr", "fcfs", "both"), default=None,
                      help="arbitration mode(s) for the qos experiment")
    runp.add_argument("--batching", action="store_true",
                      help="qos experiment: also compare NVMf round trips "
                           "with doorbell batching off vs on")
    runp.add_argument("--sanitize", action="store_true",
                      help="run twice under the determinism/race/leak "
                           "sanitizers; nonzero exit on any finding")
    runp.add_argument("--shards", type=int, default=None, metavar="N",
                      help="run plan-capable experiments sharded across N "
                           "worker processes (deterministic merge; same "
                           "seed gives bit-identical results for any N)")
    runp.add_argument("--start-method", default=None,
                      choices=("fork", "spawn", "forkserver", "inline"),
                      help="worker start method for --shards "
                           "(default fork; inline = same pipeline, "
                           "no processes)")
    lintp = sub.add_parser(
        "lint", help="DetLint: static determinism analysis (DET001-DET008)"
    )
    lintp.add_argument("paths", nargs="*", default=None, metavar="PATH",
                       help="files or directories to lint (default: src)")
    lintp.add_argument("--format", dest="fmt", default="text",
                       choices=("text", "json", "sarif"),
                       help="report format (default: text)")
    lintp.add_argument("--output", metavar="FILE", default=None,
                       help="write the report to FILE (default: stdout)")
    flowp = sub.add_parser(
        "flow",
        help="whole-program flow analysis: interprocedural determinism "
             "taint, coroutine yield-discipline, race candidates "
             "(FLOW101-FLOW103)",
    )
    flowp.add_argument("paths", nargs="*", default=None, metavar="PATH",
                       help="files or directories to analyze (default: src)")
    flowp.add_argument("--format", dest="fmt", default="text",
                       choices=("text", "json", "sarif"),
                       help="report format (default: text)")
    flowp.add_argument("--output", metavar="FILE", default=None,
                       help="write the report to FILE (default: stdout)")
    flowp.add_argument("--baseline", metavar="FILE", default=None,
                       help="known-findings file: only new findings block")
    flowp.add_argument("--write-baseline", dest="write_baseline",
                       metavar="FILE", default=None,
                       help="record current findings as the baseline")
    flowp.add_argument("--candidates-out", dest="candidates_out",
                       metavar="FILE", default=None,
                       help="export FLOW103 race candidates for --sanitize")
    tracep = sub.add_parser(
        "trace", help="run one experiment with tracing on; write the trace"
    )
    tracep.add_argument("name", help="experiment id")
    tracep.add_argument("--out", metavar="FILE", default=None,
                        help="trace path (default: <name>.trace.json)")
    tracep.add_argument("--procs", type=int, nargs="+", default=None)
    tracep.add_argument("--systems", nargs="+", default=None, metavar="NAME")
    tracep.add_argument("--metrics", action="store_true",
                        help="print the metrics/span summary too")
    profp = sub.add_parser(
        "profile",
        help="critical-path profile: run one experiment traced, attribute "
             "the makespan per layer, write collapsed stacks",
    )
    profp.add_argument("name", help="experiment id")
    profp.add_argument("--out-dir", metavar="DIR", default=".",
                       help="artefact directory (default: .)")
    profp.add_argument("--procs", type=int, nargs="+", default=None)
    profp.add_argument("--systems", nargs="+", default=None, metavar="NAME")
    profp.add_argument("--by-track", action="store_true",
                       help="root the flamegraph at each span's track "
                            "(one flame per rank/device)")
    profp.add_argument("--sample", action="store_true",
                       help="also sample the HOST process wall-clock stacks "
                            "(writes <name>.host.collapsed)")
    profp.add_argument("--sample-interval-ms", type=float, default=5.0,
                       help="sampling period for --sample (default 5 ms)")
    trendp = sub.add_parser(
        "trend",
        help="perf-regression observatory: record/check BENCH_*.json "
             "against committed baselines",
    )
    trendp.add_argument("action", choices=("record", "check"),
                        help="record = bless as new baseline; check = gate")
    trendp.add_argument("bench", nargs="+", metavar="BENCH_FILE",
                        help="BENCH_<name>.json payload(s)")
    trendp.add_argument("--dir", dest="baseline_dir", metavar="DIR",
                        default=None,
                        help="baseline store (default: benchmarks/baselines)")
    trendp.add_argument("--tolerance", type=float, default=None,
                        metavar="FRAC",
                        help="regression tolerance for every metric "
                             "(default 0.10 = 10%%)")
    trendp.add_argument("--require-baseline", action="store_true",
                        help="fail a check when no comparable baseline "
                             "exists (default: pass with a note)")
    args = parser.parse_args(argv)

    if args.command == "lint":
        from repro.analysis.detlint import main as lint_main

        argv2 = [*(args.paths or ["src"]), "--format", args.fmt]
        if args.output:
            argv2 += ["--output", args.output]
        return lint_main(argv2)

    if args.command == "flow":
        from repro.analysis.flow import main as flow_main

        argv2 = [*(args.paths or ["src"]), "--format", args.fmt]
        if args.output:
            argv2 += ["--output", args.output]
        if args.baseline:
            argv2 += ["--baseline", args.baseline]
        if args.write_baseline:
            argv2 += ["--write-baseline", args.write_baseline]
        if args.candidates_out:
            argv2 += ["--candidates-out", args.candidates_out]
        return flow_main(argv2)

    if args.command == "trend":
        from repro.bench.trend import (DEFAULT_BASELINE_DIR, TrendStore,
                                       check, load_bench)

        store = TrendStore(args.baseline_dir or DEFAULT_BASELINE_DIR)
        status = 0
        for bench_path in args.bench:
            bench = load_bench(bench_path)
            if args.action == "record":
                out = store.record(bench)
                print(f"recorded {bench['name']} ({bench_path}) -> {out}")
            else:
                tolerances = (
                    {"*": args.tolerance} if args.tolerance is not None
                    else None
                )
                report = check(bench, store, tolerances=tolerances,
                               require_baseline=args.require_baseline)
                print(report.render())
                if not report.ok:
                    status = 1
        return status

    if args.command == "profile":
        return _profile_command(args)

    if args.command == "trace":
        # Shorthand: `repro trace fig8a` == `repro run fig8a --trace ...`.
        args.trace = args.out or f"{args.name}.trace.json"
        args.trace_jsonl = None
        args.profile = False
        args.fast = False
        args.export = None
        args.qos = None
        args.batching = False
        args.sanitize = False
        args.shards = None
        args.start_method = None

    if args.command == "list":
        for name in _EXPERIMENTS:
            print(f"  {name:<22} {_DESCRIPTIONS[name]}")
        return 0

    if args.command == "systems":
        from repro import systems

        for spec in systems.specs():
            print(f"  {spec.name:<16} [{spec.kind:<11}] {spec.description}")
        return 0

    sharded = (args.shards or 1) > 1
    if args.shards is not None or args.start_method is not None:
        fn = _EXPERIMENTS.get(args.name)
        if fn is None or "executor" not in _parameters(fn):
            print(f"--shards applies to plan experiments "
                  f"({_taking('executor')}), not {args.name!r}",
                  file=sys.stderr)
            return 2
        if args.shards is not None and args.shards < 1:
            print("--shards must be >= 1", file=sys.stderr)
            return 2
        if sharded and (args.trace or args.trace_jsonl or args.profile
                        or args.sanitize):
            print("--shards > 1 runs units in worker processes and cannot "
                  "combine with --trace/--trace-jsonl/--profile/--sanitize "
                  "(merged metrics stay available via --metrics)",
                  file=sys.stderr)
            return 2

    want_obs = bool(
        args.trace or args.trace_jsonl or args.metrics or args.profile
    ) and not sharded
    if args.sanitize and want_obs:
        print("--sanitize re-runs the experiment and cannot combine with "
              "--trace/--trace-jsonl/--metrics/--profile", file=sys.stderr)
        return 2
    if args.sanitize and args.name == "all":
        print("--sanitize applies to single experiments, not 'all'",
              file=sys.stderr)
        return 2

    if args.name == "all":
        if want_obs:
            print("--trace/--metrics apply to single experiments, not 'all'",
                  file=sys.stderr)
            return 2
        tables = E.run_all(fast=args.fast)
        for ext in (X.ext_cache_layer, X.ext_incremental, X.ext_compression,
                    X.ext_burst_buffer, X.ext_mtbf_campaign, X.ext_n1_pattern):
            table = ext()
            table.show()
            tables.append(table)
        if args.export:
            from repro.bench.report import export

            for path in export(tables, args.export):
                print(f"wrote {path}")
        return 0

    fn = _EXPERIMENTS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; try 'repro list'", file=sys.stderr)
        return 2
    kwargs = _experiment_kwargs(args.name, args.procs, args.systems)
    if kwargs is None:
        return 2
    if args.qos or args.batching:
        if args.name != "qos":
            print("--qos/--batching only apply to the qos experiment",
                  file=sys.stderr)
            return 2
        if args.qos and args.qos != "both":
            kwargs["modes"] = (args.qos,)
        if args.batching:
            kwargs["batching"] = True
    if args.shards is not None or args.start_method is not None:
        from repro.exec import Executor

        kwargs["executor"] = Executor(args.shards or 1,
                                      start_method=args.start_method or "fork")
    started = time.time()  # wall-clock CLI reporting  # detlint: ignore[DET001]
    if args.sanitize:
        from repro.analysis.flow.races import load_candidates
        from repro.analysis.sanitize import sanitized_run

        # Static FLOW103 handoff (written by `repro flow --candidates-out`):
        # races on statically flagged classes are annotated as predicted.
        candidates = load_candidates("flow-candidates.json")
        if candidates:
            total = sum(len(attrs) for attrs in candidates.values())
            print(f"[sanitize: {total} static race candidate(s) loaded "
                  f"from flow-candidates.json]")
        table, report = sanitized_run(lambda: fn(**kwargs), candidates=candidates)
        table.show()
        print(report.render())
        if args.export:
            from repro.bench.report import export

            for path in export(table, args.export):
                print(f"wrote {path}")
        print(f"[{args.name} sanitized in "
              f"{time.time() - started:.1f}s wall]")  # detlint: ignore[DET001]
        return 0 if report.ok else 1
    if want_obs:
        from repro import obs

        with obs.capture(trace=bool(args.trace or args.trace_jsonl),
                         profile=args.profile) as cap:
            table = fn(**kwargs)
    else:
        cap = None
        table = fn(**kwargs)
    table.show()
    execution = getattr(table, "execution", None)
    if execution is not None:
        merged = execution.merged
        print(f"[execution: {execution.backend}, {execution.shards} "
              f"shard(s), {len(execution.results)} units, "
              f"fingerprint {merged.fingerprint[:16]}]")
        if args.metrics and sharded:
            for key, value in sorted(merged.summary().items()):
                print(f"  {key} = {value:.6g}")
    if _PERF_RELEVANT.get(args.name):
        from repro.bench.harness import write_bench_json
        from repro.bench.trend import provenance

        # Full provenance (seed, shard count, system list, config digest)
        # so `repro trend check` can refuse to compare unlike runs.
        meta = provenance(args.name, fn=fn, kwargs=kwargs,
                          execution=execution, table=table)
        path = write_bench_json(
            _PERF_RELEVANT[args.name], table,
            wall_s=time.time() - started,  # detlint: ignore[DET001]
            meta=meta,
        )
        print(f"wrote {path}")
    if cap is not None:
        if args.trace:
            print(f"wrote {cap.write_chrome(args.trace)} "
                  f"({cap.n_spans()} spans; open in ui.perfetto.dev)")
        if args.trace_jsonl:
            print(f"wrote {cap.write_jsonl(args.trace_jsonl)}")
        if args.metrics or args.profile:
            print(cap.report())
    if args.export:
        from repro.bench.report import export

        for path in export(table, args.export):
            print(f"wrote {path}")
    print(f"[{args.name} regenerated in "
          f"{time.time() - started:.1f}s wall]")  # detlint: ignore[DET001]
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
