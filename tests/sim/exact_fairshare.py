"""Exact completion times of a fluid max-min fair-share pipe.

The oracle for :class:`repro.sim.fairshare.FairShareServer`: the same
model — capacity ``C`` shared by max-min fairness with optional per-flow
rate caps (progressive water-filling), re-rated whenever a flow arrives
or finishes — computed in :class:`fractions.Fraction` arithmetic, so
there is no rounding and no completion epsilon.  It shares no code with
the server: it is an offline sweep over a known arrival schedule.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["completion_times"]


def _rates(capacity: Fraction, limits: Dict[int, Optional[Fraction]]) -> Dict[int, Fraction]:
    """Max-min fair rates: visit flows by ascending limit; each takes the
    smaller of its limit and an equal share of what is left."""
    order = sorted(limits, key=lambda i: (limits[i] is None, limits[i] or 0))
    rates: Dict[int, Fraction] = {}
    left = capacity
    for n, i in enumerate(order):
        share = left / (len(order) - n)
        limit = limits[i]
        rates[i] = share if limit is None or share <= limit else limit
        left -= rates[i]
    return rates


def completion_times(
    capacity: float,
    flows: Sequence[Tuple[float, float, Optional[float]]],
) -> List[Fraction]:
    """Exact completion time of each ``(start, nbytes, cap)`` flow.

    ``cap`` ``None`` or ``inf`` means uncapped; every float is taken at
    its exact binary value.  A zero-size flow finishes at its start.
    """
    cap_of = [None if cap is None or cap == float("inf") else Fraction(cap)
              for _start, _nbytes, cap in flows]
    starts = [Fraction(start) for start, _nbytes, _cap in flows]
    pending = deque(sorted(range(len(flows)), key=lambda i: (starts[i], i)))
    done: Dict[int, Fraction] = {}
    remaining: Dict[int, Fraction] = {}
    now = Fraction(0)
    total = Fraction(capacity)
    while pending or remaining:
        while pending and starts[pending[0]] <= now:
            i = pending.popleft()
            if flows[i][1] == 0:
                done[i] = starts[i]
            else:
                remaining[i] = Fraction(flows[i][1])
        if not remaining:
            if pending:
                now = starts[pending[0]]
            continue
        rates = _rates(total, {i: cap_of[i] for i in remaining})
        step = min(remaining[i] / rates[i] for i in remaining)
        if pending:
            step = min(step, starts[pending[0]] - now)
        now += step
        for i in list(remaining):
            remaining[i] -= rates[i] * step
            if remaining[i] == 0:
                done[i] = now
                del remaining[i]
    return [done[i] for i in range(len(flows))]
