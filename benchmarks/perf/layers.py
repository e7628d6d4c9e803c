"""Per-layer host time from wrappers around public ``repro`` entry points.

Nothing under ``src/`` is instrumented for this: :func:`instrument`
patches the listed methods on their classes for the duration of a
``with`` block and restores them afterwards.

Accounting is by *self time* on one stack.  Every wrapped call, and
every resume of a generator a wrapped call returns, pushes a frame;
a frame's self time is its duration minus the time of frames nested in
it.  A process that a wrapped call spawns through the public
``Environment.process`` belongs to that call's layer, so a device
command's service coroutine counts as ``nvme.device`` even though the
engine resumes it.  Code the engine enters through private callbacks
(fair-share wake re-rates, Raft node loops) stays in the engine's
residual.

A listed module, class or method that no longer exists (a later change
renamed it) is skipped with a :class:`RuntimeWarning`; a layer none of
whose entry points resolve is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

__all__ = ["ENGINE", "LAYERS", "LayerSpec", "LayerClock", "instrument"]

ENGINE = "sim.engine"


@dataclass(frozen=True)
class LayerSpec:
    """A host layer: its entry points and the span category it maps to."""

    name: str
    #: Span category of the layer's spans (``repro.obs.profile.LAYER_OF_CAT``
    #: maps it to the critical-path layer); "" when it records none.
    category: str
    #: (module, class, methods) triples.
    entries: Tuple[Tuple[str, str, Tuple[str, ...]], ...]


_FS_OPS = ("mkdir", "open", "write", "pwrite", "read", "pread", "fsync",
           "close", "unlink", "rename", "truncate", "stat", "exists", "readdir")

LAYERS: Tuple[LayerSpec, ...] = (
    # ``step`` is only called from ``run_until_complete``, which covers it.
    LayerSpec(ENGINE, "", (
        ("repro.sim.engine", "Environment",
         ("run", "run_until_complete", "run_window")),)),
    LayerSpec("sim.fairshare", "device", (
        ("repro.sim.fairshare", "FairShareServer", ("transfer",)),)),
    LayerSpec("core.microfs", "fs", (
        ("repro.core.microfs.fs", "MicroFS",
         ("__init__",) + _FS_OPS + ("checkpoint_state", "background_checkpointer")),)),
    LayerSpec("core.data_plane", "dataplane", (
        ("repro.core.data_plane", "DataPlane",
         ("submit", "write_runs", "read_runs", "write_log_page", "write_state",
          "read_bytes")),)),
    LayerSpec("fabric.nvmf", "fabric", (
        ("repro.fabric.nvmf", "NVMfSession",
         ("write", "read", "write_batch", "flush")),)),
    LayerSpec("nvme.device", "device", (
        ("repro.nvme.device", "SSD",
         ("write", "read", "flush", "submit", "tier_write", "tier_read",
          "tier_sync")),)),
    LayerSpec("mpi", "mpi", (
        ("repro.mpi.comm", "Communicator",
         ("barrier", "allgather", "gather", "bcast", "split")),)),
    LayerSpec("core.interception", "fs", (
        ("repro.core.interception", "PosixShim",
         ("MPI_Init", "MPI_Finalize", "open", "creat", "write", "pwrite",
          "read", "pread", "lseek", "fsync", "close", "mkdir", "unlink",
          "rename", "truncate", "stat", "listdir")),)),
    LayerSpec("consensus", "consensus", (
        ("repro.consensus.network", "ConsensusFabric",
         ("send", "pop", "recv_event")),
        ("repro.consensus.statemachine", "FullStateMachine", ("apply",)),
        ("repro.consensus.statemachine", "WitnessStateMachine", ("apply",)),
        ("repro.consensus.group", "RaftGroup", ("propose",)),
        ("repro.consensus.store", "ReplicatedMetadataStore",
         ("set", "add_grant")))),
)


class LayerClock:
    """Self-time and call accounting for one instrumented repeat."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (layer, method) -> calls, every call counted.
        self.calls: Counter = Counter()
        #: layer -> calls entering it from another layer (or from outside).
        self.entries: Counter = Counter()
        #: Objects built by wrapped constructors, per layer.
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[list] = []

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def timed_generator(self, layer: str, gen):
        """Drive ``gen`` transparently, timing each resume as ``layer``."""
        value = exc = None
        while True:
            frame = self.enter(layer)
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self.leave(frame)
            value = exc = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded into gen
                exc = err

    def wrap(self, layer: str, method: str, original):
        is_init = method == "__init__"
        key = (layer, method)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self.current() != layer:
                self.entries[layer] += 1
            frame = self.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.leave(frame)
            if is_init:
                self.instances[layer].append(args[0])
            elif isinstance(result, types.GeneratorType):
                return self.timed_generator(layer, result)
            return result

        return wrapper

    def wrap_process(self, original):
        """``Environment.process``: a spawned body joins the spawner's layer."""

        @functools.wraps(original)
        def process(env, generator):
            layer = self.current()
            if layer and layer != ENGINE:
                generator = self.timed_generator(layer, generator)
            return original(env, generator)

        return process


def _resolve(spec: LayerSpec):
    """Yield (class, method, original) for each entry point that exists."""
    for module_name, class_name, methods in spec.entries:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError) as exc:
            warnings.warn(f"layer {spec.name}: {module_name}.{class_name} "
                          f"not found ({exc}); its entry points are skipped",
                          RuntimeWarning, stacklevel=3)
            continue
        for method in methods:
            original = cls.__dict__.get(method)
            if not callable(original):
                warnings.warn(f"layer {spec.name}: {class_name}.{method} not "
                              f"found; entry point skipped",
                              RuntimeWarning, stacklevel=3)
                continue
            yield cls, method, original


@contextmanager
def instrument(clock: LayerClock,
               layers: Tuple[LayerSpec, ...] = LAYERS) -> Iterator[List[str]]:
    """Patch every resolvable entry point; yields the present layer names."""
    from repro.sim.engine import Environment

    patched: List[Tuple[type, str, Any]] = []
    present: List[str] = []
    try:
        for spec in layers:
            found = False
            for cls, method, original in _resolve(spec):
                setattr(cls, method, clock.wrap(spec.name, method, original))
                patched.append((cls, method, original))
                found = True
            if found:
                present.append(spec.name)
            else:
                warnings.warn(f"layer {spec.name}: no entry point resolved; "
                              f"layer absent", RuntimeWarning, stacklevel=3)
        original_process = Environment.__dict__["process"]
        Environment.process = clock.wrap_process(original_process)
        patched.append((Environment, "process", original_process))
        yield present
    finally:
        for cls, method, original in reversed(patched):
            setattr(cls, method, original)
