"""Discrete-event simulation kernel.

A small, dependency-free SimPy-like kernel: an :class:`~repro.sim.engine.Environment`
advances virtual time through a binary-heap event queue; user code is written
as generator *processes* that ``yield`` events (timeouts, resource requests,
transfer completions, other processes).

Why build one instead of depending on SimPy: the device and fabric models
need a fluid fair-share bandwidth server with mid-flight re-rating
(:mod:`repro.sim.fairshare`), which requires tighter integration with the
event core than SimPy exposes, and the offline environment has no SimPy.

Public surface::

    env = Environment()
    env.process(gen)          # start a coroutine process
    env.timeout(0.5)          # event firing 0.5 simulated seconds later
    env.run()                 # run to exhaustion (or until=t)
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.fairshare import FairShareServer, Flow
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngHub

# Counter/TraceRecorder live in repro.obs.metrics (the old repro.sim.trace
# alias shim has been removed); re-exported here for workload code that
# treats them as part of the sim toolkit.
from repro.obs.metrics import Counter, TraceRecorder

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "FairShareServer",
    "Flow",
    "Interrupt",
    "Process",
    "Resource",
    "RngHub",
    "Store",
    "Timeout",
    "TraceRecorder",
]
