"""Exception hierarchy for the NVMe-CR reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
catch simulator-level failures without masking programming errors.
POSIX-shaped failures carry an ``errno``-style name so the interception
shim (:mod:`repro.core.interception`) can map them back onto the return
conventions applications expect.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class Deadlock(SimulationError):
    """``run(until=...)`` could not advance: no events before the horizon."""


# --------------------------------------------------------------------------
# Devices and fabric
# --------------------------------------------------------------------------


class DeviceError(ReproError):
    """Generic NVMe device failure."""


class OutOfSpace(DeviceError):
    """A namespace or partition has no free blocks left."""


class InvalidCommand(DeviceError):
    """A malformed NVMe command was submitted (bad LBA range, bad nsid...)."""


class DevicePoweredOff(DeviceError):
    """Command submitted to a device that lost power."""


class FabricError(ReproError):
    """NVMe-over-Fabrics transport failure (disconnected QP, bad target)."""


# --------------------------------------------------------------------------
# Filesystem / runtime (POSIX-shaped)
# --------------------------------------------------------------------------


class FSError(ReproError):
    """Base class for filesystem errors; carries a POSIX errno name."""

    errno_name = "EIO"


class FileNotFound(FSError):
    """ENOENT: path does not exist."""

    errno_name = "ENOENT"


class FileExists(FSError):
    """EEXIST: exclusive create of an existing path."""

    errno_name = "EEXIST"


class NotADirectory(FSError):
    """ENOTDIR: a path component is not a directory."""

    errno_name = "ENOTDIR"


class IsADirectory(FSError):
    """EISDIR: data operation attempted on a directory."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FSError):
    """ENOTEMPTY: rmdir of a non-empty directory."""

    errno_name = "ENOTEMPTY"


class BadFileDescriptor(FSError):
    """EBADF: operation on a closed or unknown descriptor."""

    errno_name = "EBADF"


class NoSpace(FSError):
    """ENOSPC: the block pool is exhausted."""

    errno_name = "ENOSPC"


class PermissionDenied(FSError):
    """EACCES: the security model rejected the access."""

    errno_name = "EACCES"


class InvalidArgument(FSError):
    """EINVAL: bad offset, size, or flag combination."""

    errno_name = "EINVAL"


# --------------------------------------------------------------------------
# Storage-system registry
# --------------------------------------------------------------------------


class UnknownSystem(ReproError):
    """A storage-system name not present in :mod:`repro.systems`."""


# --------------------------------------------------------------------------
# Scheduler / balancer
# --------------------------------------------------------------------------


class SchedulerError(ReproError):
    """The job scheduler could not satisfy a request."""


class AllocationError(SchedulerError):
    """No storage allocation satisfying the constraints exists."""


class RecoveryError(ReproError):
    """Log replay or state-checkpoint load failed during recovery."""


class ConsensusError(ReproError):
    """A Raft-group operation could not complete (no quorum, timeout)."""


class NotLeader(ConsensusError):
    """A proposal reached a non-leader member; retry at ``leader_hint``."""

    def __init__(self, leader_hint=None):
        super().__init__(f"not the leader (hint: {leader_hint})")
        self.leader_hint = leader_hint
