"""Multi-level checkpointing (§III-F, "Handling Cascading Failures").

"Most checkpoints are still handled by NVMe-CR, but every so often, one
checkpoint is put on a slower but more reliable parallel filesystem,
such as Lustre."

The checkpointer drives its tiers through duck-typed clients:

* level 1 (classic mode) — a :class:`PosixShim` (NVMe-CR) or any
  baseline filesystem client exposing the same intercepted-POSIX
  surface,
* level 2 (classic mode) — a PFS client exposing
  ``write_file``/``read_file`` (implemented by
  :class:`repro.baselines.lustre.LustreCluster`),
* or an explicit tier hierarchy (``targets``) of
  :class:`~repro.core.placement.TierTarget` entries, fastest first,
  each exposing ``write_file``/``read_file`` — the tiered mode the
  ``tiers`` experiment runs with an NVM fast tier.

*Which* tier each checkpoint lands on is a pluggable
:class:`~repro.core.placement.PlacementPolicy`; the default
:class:`~repro.core.placement.FixedIntervalPolicy` reproduces the
paper's every-k-th rule bit-identically.

Recovery walks checkpoints newest-first and restores from the newest
one that survived — if a fast tier was lost to a cascading failure,
the most recent durable checkpoint bounds the lost work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence

from repro.core.placement import FixedIntervalPolicy, PlacementPolicy, TierTarget
from repro.errors import InvalidArgument, RecoveryError
from repro.sim.engine import Event

__all__ = ["CheckpointRecord", "MultiLevelCheckpointer"]


@dataclass
class CheckpointRecord:
    """Bookkeeping for one checkpoint instance of one rank."""

    step: int
    level: int
    path: str
    nbytes: int
    written_at: float


class MultiLevelCheckpointer:
    """Tiered checkpoint policy for one rank."""

    def __init__(
        self,
        level1=None,
        level2=None,
        pfs_interval: int = 10,
        directory: str = "/ckpt",
        rank: int = 0,
        policy: Optional[PlacementPolicy] = None,
        targets: Optional[Sequence[TierTarget]] = None,
    ):
        """``pfs_interval`` = k: every k-th checkpoint goes to the
        durable tier (the paper's Table II uses one-in-ten). ``rank``
        qualifies file names so the N-N pattern holds on
        shared-namespace systems too.

        Classic mode passes ``level1``/``level2`` clients; tiered mode
        passes ``targets`` (fastest first; levels are positional,
        1-based). ``policy`` defaults to the paper's fixed-interval
        rule either way.
        """
        if pfs_interval < 1:
            raise InvalidArgument(
                f"pfs_interval must be >= 1, got {pfs_interval}"
            )
        if targets is not None:
            targets = list(targets)
            if len(targets) < 2:
                raise InvalidArgument(
                    f"need at least 2 tier targets, got {len(targets)}"
                )
            for index, target in enumerate(targets):
                if target is None or target.client is None:
                    raise InvalidArgument(
                        f"tier target {index + 1} has no client"
                    )
                target.level = index + 1
        else:
            if level1 is None:
                raise InvalidArgument(
                    "MultiLevelCheckpointer needs a non-None level1 client "
                    "(or an explicit tier target list)"
                )
            # level2 may be None: a level-1-only checkpointer. Placing a
            # checkpoint on level 2 then raises at write time.
        self.level1 = level1
        self.level2 = level2
        self.pfs_interval = pfs_interval
        self.directory = directory
        self.rank = rank
        self.targets = targets
        n_levels = 2 if targets is None else len(targets)
        self.policy: PlacementPolicy = (
            policy
            if policy is not None
            else FixedIntervalPolicy(pfs_interval, durable_level=n_levels)
        )
        self.records: List[CheckpointRecord] = []
        self._dir_made = False

    @property
    def n_levels(self) -> int:
        return 2 if self.targets is None else len(self.targets)

    def level_for(self, step: int) -> int:
        """1-based checkpoint levels; step counts from 0."""
        return self.policy.preview(step)

    def _path(self, step: int) -> str:
        return f"{self.directory}/rank{self.rank:05d}_ckpt_{step:06d}.dat"

    def _client_for(self, level: int):
        if self.targets is not None:
            return self.targets[level - 1].client
        return self.level1 if level == 1 else self.level2

    # -- write path -------------------------------------------------------------------

    def write_checkpoint(self, step: int, nbytes: int) -> Generator[Event, Any, CheckpointRecord]:
        """Write one checkpoint to the tier the policy selects."""
        level = self.policy.place(step, nbytes, self._now())
        if not 1 <= level <= self.n_levels:
            raise InvalidArgument(
                f"policy placed step {step} on level {level}; "
                f"have levels 1..{self.n_levels}"
            )
        path = self._path(step)
        if self.targets is None and level == 2 and self.level2 is None:
            raise InvalidArgument(
                f"policy placed step {step} on level 2 but no durable "
                "tier client was configured"
            )
        if self.targets is not None:
            yield from self.targets[level - 1].client.write_file(path, nbytes)
            written_at = self._now()
        elif level == 1:
            if not self._dir_made:
                yield from self.level1.mkdir(self.directory)
                self._dir_made = True
            fd = yield from self.level1.open(path, "w")
            yield from self.level1.write(fd, nbytes)
            yield from self.level1.fsync(fd)
            yield from self.level1.close(fd)
            written_at = self._now()
        else:
            yield from self.level2.write_file(path, nbytes)
            written_at = self._now()
        record = CheckpointRecord(step, level, path, nbytes, written_at)
        self.records.append(record)
        return record

    # -- recovery -----------------------------------------------------------------------

    def recover_latest(
        self,
        level1_alive: bool = True,
        prefer_level: Optional[int] = None,
        dead_levels: Iterable[int] = (),
    ) -> Generator[Event, Any, CheckpointRecord]:
        """Read back the newest recoverable checkpoint.

        ``level1_alive=False`` models a cascading failure that took the
        NVMe-CR tier's data with it: only level-2 checkpoints qualify.
        ``dead_levels`` generalises that to any tier subset.
        ``prefer_level`` restricts recovery to one tier (Table II times
        normal recovery from the fast tier).
        """
        dead = set(dead_levels)
        if not level1_alive:
            dead.add(1)
        for record in reversed(self.records):
            if record.level in dead:
                continue
            if prefer_level is not None and record.level != prefer_level:
                continue
            if self.targets is not None:
                yield from self.targets[record.level - 1].client.read_file(
                    record.path)
            elif record.level == 1:
                fd = yield from self.level1.open(record.path, "r")
                yield from self.level1.read(fd, record.nbytes)
                yield from self.level1.close(fd)
            else:
                yield from self.level2.read_file(record.path)
            return record
        raise RecoveryError("no recoverable checkpoint exists")

    # -- fault hooks ----------------------------------------------------------------------

    def forget_levels(self, levels: Iterable[int]) -> None:
        """A strike wiped these tiers: drop their records (and tell a
        loss-aware policy, so its risk bookkeeping restarts)."""
        lost = set(levels)
        self.records = [r for r in self.records if r.level not in lost]
        note = getattr(self.policy, "note_loss", None)
        if note is not None:
            note(sorted(lost))

    # -- accounting ----------------------------------------------------------------------

    def _now(self) -> float:
        # All tiers carry an env; prefer the fast tier's runtime clock.
        if self.targets is not None:
            return self.targets[0].client.env.now
        runtime = getattr(self.level1, "runtime", None)
        if runtime is not None:
            return runtime.env.now
        return self.level2.env.now

    def tier_bytes(self) -> Dict[int, int]:
        out: Dict[int, int] = {
            level: 0 for level in range(1, self.n_levels + 1)
        }
        for record in self.records:
            out[record.level] += record.nbytes
        return out
