"""Command line: run workloads, print every metric, check every result.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
                                   [--seconds T] [--trace 0|1 | --traced]

(``PYTHONPATH=src python -m benchmarks.perf`` is the same program.)
Without ``--workload`` all four run round-robin.  Without ``--seconds``
there are 7 timed rounds after 1 warm-up round; with it, rounds start
until ``T`` seconds have passed.  ``--seed`` replaces every workload's
default seed; the golden results are checked only at the defaults.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several
workloads, metric names are prefixed ``<workload>/``.  A failed check
shows as ``"correct": false``; the exit code is 0 whenever that line is
printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List, Optional, Tuple

from benchmarks.perf.layers import ENGINE, LAYERS
from benchmarks.perf.measure import ROOT, measure, peak_rss_mb, quartiles
from benchmarks.perf.traced import measure_traced
from benchmarks.perf.workloads import canonical

__all__ = ["END_TO_END", "PER_LAYER", "main"]

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics the JSON line carries with
#: ``--trace 1``: the ones an optimisation is likely to move, and none that
#: is a constant time (a layer off a workload's path reports a 0 share).
#: The table prints more: per-layer seconds, simulated p99s, critical path.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.engine.events", "count"),
    ("sim.engine.resumes", "count"),
    ("sim.engine.host_residual_s", "s"),
    ("sim.engine.events_per_host_s", "1/s"),
    ("sim.fairshare.flows", "count"),
    ("sim.fairshare.recomputes", "count"),
    ("sim.fairshare.recomputes_per_flow", "ratio"),
    ("sim.fairshare.host_frac", "ratio"),
    ("core.microfs.calls", "count"),
    ("core.microfs.blocks_used", "count"),
    ("core.microfs.host_frac", "ratio"),
    ("core.data_plane.submits", "count"),
    ("core.data_plane.host_frac", "ratio"),
    ("fabric.nvmf.ios", "count"),
    ("nvmf.commands", "count"),
    ("fabric.nvmf.host_frac", "ratio"),
    ("nvme.device.ios", "count"),
    ("nvme.device.host_frac", "ratio"),
    ("mpi.collectives", "count"),
    ("mpi.host_frac", "ratio"),
    ("core.interception.calls", "count"),
    ("core.interception.host_frac", "ratio"),
    ("consensus.append_entries", "count"),
    ("consensus.heartbeats", "count"),
    ("consensus.host_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("ref_s", "s"),
    ("raw.wall_s", "s"),
)

_ROUNDS = 7
_TRACED_ROUNDS = 3
_HOST_KEYS = ("host_s", "host_frac", "host_residual_s")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="Host-performance benchmark of the NVMe-CR simulator.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=_seed,
                        help="seed for every workload (default: each one's own)")
    parser.add_argument("--seconds", type=float,
                        help=f"measure for this long (default: {_ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: instrumented run, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    return parser


def _golden() -> Dict:
    with open(ROOT / "benchmarks" / "perf" / "golden.json") as fh:
        return json.load(fh)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[List[str]] = None) -> int:
    registry = canonical()
    args = _parser(list(registry)).parse_args(argv)
    workloads = [registry[n] for n in (args.workload or list(registry))]
    seeds = {w.name: (w.default_seed if args.seed is None else args.seed)
             for w in workloads}
    golden = _golden()
    if args.trace:
        metrics, attempted, failed, correct = _traced(workloads, seeds, args, golden)
    else:
        metrics, attempted, failed, correct = _untraced(workloads, seeds, args, golden)
    prefix = len(workloads) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{w}/{name}" if prefix else name): {"value": value, "unit": unit}
            for w, name, value, unit in metrics
        },
    }))
    return 0


def _untraced(workloads, seeds, args, golden):
    rss = {w.name: peak_rss_mb(w.name, seeds[w.name]) for w in workloads}
    series = measure(workloads, seeds, golden=golden,
                     rounds=None if args.seconds else _ROUNDS,
                     seconds=args.seconds)
    print(f"{'workload':<14} {'metric':<12} {'unit':<6} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'n':>3}")
    metrics, attempted, failed, correct = [], 0, 0, True
    for w in workloads:
        s = series[w.name]
        values = {"host_s": s.host, "setup_s": s.setup, "raw.wall_s": s.raw_host,
                  "ref_s": s.refs}
        for name, samples in values.items():
            q1, median, q3 = quartiles(samples)
            unit = "s"
            print(f"{w.name:<14} {name:<12} {unit:<6} {median:>10.5f} "
                  f"{q1:>10.5f} {q3:>10.5f} {len(samples):>3}")
        print(f"{w.name:<14} {'peak_rss_mb':<12} {'MB':<6} {rss[w.name]:>10.2f}"
              f" {'':>10} {'':>10} {1:>3}")
        print(f"{w.name:<14} {'failed_frac':<12} {'ratio':<6} "
              f"{s.failed / s.attempted:>10.4g}   ({s.failed} of {s.attempted} "
              f"ops; digest {', '.join(sorted(s.digests))})")
        for error in s.errors[:5]:
            print(f"{'':<14} ! {error}")
        row = {"host_s": statistics.median(s.host),
               "setup_s": statistics.median(s.setup),
               "peak_rss_mb": rss[w.name]}
        metrics += [(w.name, name, row[name], unit) for name, unit in END_TO_END]
        attempted += s.attempted
        failed += s.failed
        correct = correct and s.failed == 0 and len(s.digests) == 1
    return metrics, attempted, failed, correct


def _traced(workloads, seeds, args, golden):
    from repro.obs.profile import LAYER_OF_CAT

    series = measure_traced(workloads, seeds, golden=golden,
                            rounds=_TRACED_ROUNDS, seconds=args.seconds)
    metrics, attempted, failed, correct = [], 0, 0, True
    for w in workloads:
        s = series[w.name]
        values = s.metrics()
        print(f"== {w.name}: {len(s.traced)} traced repeats, overhead "
              f"{values['trace.overhead_frac']:+.1%}, digests "
              f"{'agree' if s.digests_agree else 'DIFFER'}, counts "
              f"{'repeat' if s.counts_repeat else 'DIFFER'}")
        print(f"{'layer':<18} {'critpath':<10} {'cp_self_ms':>11} {'host_s':>9} "
              f"{'host%':>6}  counts")
        shown = set()
        for spec in LAYERS:
            if spec.name not in s.present:
                print(f"{spec.name:<18} absent")
                continue
            cp = LAYER_OF_CAT.get(spec.category, "-")
            keys = [k for k in values if k.startswith(spec.name + ".")]
            shown.update(keys)
            host_keys = {f"{spec.name}.{k}" for k in _HOST_KEYS}
            counts = "  ".join(f"{k[len(spec.name) + 1:]}={_fmt(values[k])}"
                               for k in keys if k not in host_keys)
            host = values.get(f"{spec.name}.host_s",
                              values.get(f"{ENGINE}.host_residual_s"))
            print(f"{spec.name:<18} {cp:<10} "
                  f"{values.get(f'critpath.{cp}.self_ms', 0.0):>11.3f} "
                  f"{host:>9.4f} {values[spec.name + '.host_frac']:>6.1%}  {counts}")
        for key in sorted(set(values) - shown):
            print(f"  {key} = {_fmt(values[key])}")
        for error in s.errors[:5]:
            print(f"  ! {error}")
        metrics += [(w.name, name, values[name], unit)
                    for name, unit in PER_LAYER if name in values]
        attempted += s.attempted
        failed += s.failed
        correct = (correct and s.failed == 0 and s.digests_agree
                   and s.counts_repeat)
    return metrics, attempted, failed, correct
