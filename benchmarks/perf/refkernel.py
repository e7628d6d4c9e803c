"""Frozen reference kernel: a fixed unit of interpreter work.

Host speed on a shared VM drifts by several percent within a minute, so
the benchmark times this kernel immediately before and after every
sample and reports ``sample / mean(adjacent kernels) * REF_NOMINAL_S``.

The kernel mixes the interpreter operations the simulator spends its
time on: a heap of ``(time, seq, payload)`` tuples (the event list),
dict read-modify-writes (counters and tables), and generator ``send``
(coroutine resumes).  It must never change: a different kernel rescales
every corrected number.  It imports nothing from ``repro``, so no change
to the program under test can move it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Generator, Tuple

__all__ = ["ITERATIONS", "CALLS", "REF_NOMINAL_S", "CHECKSUM", "kernel", "timed_kernel"]

#: Loop trips per kernel call; a timing takes the median of ``CALLS`` calls
#: (~0.16 s in all) so one preempted call does not skew a correction.
ITERATIONS = 75_000
CALLS = 3

#: Kernel time on the reference host, a 2-vCPU x86-64 VM with CPython
#: 3.11 (median of 40 timings: 0.163 s).  Corrected times are seconds of
#: a host on which a timing takes exactly this long.
REF_NOMINAL_S = 0.16

#: ``kernel()``'s return value; a mismatch means the kernel was edited.
CHECKSUM = 20553290


def _accumulator() -> Generator[int, int, None]:
    total = 0
    while True:
        total = (total + (yield total)) & 0xFFFFFFFF


def kernel(iterations: int = ITERATIONS) -> int:
    """Run the fixed work; returns a checksum of everything it touched."""
    heap: list = []
    table: dict = {}
    acc = _accumulator()
    next(acc)
    push, pop = heapq.heappush, heapq.heappop
    now = 0.0
    checksum = 0
    for seq in range(iterations):
        push(heap, (now + (seq * 7919 % 1009) * 1e-6, seq, seq & 255))
        if len(heap) > 64:
            now, _seq, key = pop(heap)
            table[key] = table.get(key, 0) + 1
            checksum = acc.send(key + table[key])
    return checksum ^ len(table)


def timed_kernel() -> Tuple[float, int]:
    """(host seconds, checksum): the median of ``CALLS`` timed calls, times
    ``CALLS`` so the value is in seconds of the whole kernel."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        checksum = kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * CALLS, checksum
