"""Pluggable storage-system registry.

Usage::

    from repro import systems

    handle = systems.build("glusterfs", nprocs=28, namespace_bytes=GiB(4))
    elapsed = handle.makespan(dump_files(MiB(64)))

Importing this package registers every built-in system; third-party
backends register themselves with :func:`repro.systems.register`.
"""

from repro.systems import builtin as _builtin  # noqa: F401  (registers built-ins)
from repro.systems.registry import (
    SystemHandle,
    SystemSpec,
    build,
    get,
    names,
    register,
    specs,
)

__all__ = [
    "SystemHandle",
    "SystemSpec",
    "build",
    "get",
    "names",
    "register",
    "specs",
]
