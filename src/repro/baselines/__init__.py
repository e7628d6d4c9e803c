"""Baseline storage systems the paper compares against (§IV).

Every baseline runs over the *same* simulated SSDs and fabric as
NVMe-CR and differs exactly where the paper says it differs:

* :mod:`posixfs`   — ext4 / XFS: kernel data path, page cache + fsync
  writeback, journaling (Figure 7(c)).
* :mod:`spdk`      — raw SPDK: userspace data path, no filesystem
  (Figure 7(c)'s lower bound).
* :mod:`orangefs`  — striping, shared namespace, layered server stack
  (Figures 1, 7(b), 8(b), 9).
* :mod:`glusterfs` — jump-consistent-hash placement, serialised
  directory entries (Figures 1, 7(b), 8(b), 9).
* :mod:`crail`     — SPDK data plane but a single metadata server
  (Figures 7(c)/8(a) comparisons).
* :mod:`lustre`    — the PFS second tier for multi-level checkpointing
  (Table II).
* :mod:`burstfs`   — a node-local burst buffer (BurstFS/UnifyFS-class),
  the §II-B design NVMe-CR's disaggregation argument contrasts with.

Every client is a :class:`~repro.baselines.common.BaselineClient`: one
fd table and one POSIX contract (modes, ``O_CREAT`` reservation,
``pwrite``/``pread``, errors), the surface of
:class:`~repro.core.interception.PosixShim`, so the CoMD proxy and the
checkpoint drivers run unmodified against any of them. Each system's
module keeps only its file record and its costs.
"""

from repro.baselines.burstfs import BurstBufferCluster
from repro.baselines.common import BaselineClient, StorageServer
from repro.baselines.crail import CrailCluster
from repro.baselines.glusterfs import GlusterFSCluster
from repro.baselines.lustre import LustreCluster
from repro.baselines.orangefs import OrangeFSCluster
from repro.baselines.posixfs import KernelFSClient
from repro.baselines.spdk import RawSPDKClient

__all__ = [
    "BaselineClient",
    "BurstBufferCluster",
    "CrailCluster",
    "GlusterFSCluster",
    "KernelFSClient",
    "LustreCluster",
    "OrangeFSCluster",
    "RawSPDKClient",
    "StorageServer",
]
