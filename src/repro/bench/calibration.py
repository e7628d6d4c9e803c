"""Every calibrated constant in the reproduction, with provenance.

Single source of truth: nothing outside this module hard-codes a
performance number. Constants fall into three classes:

1. **Datasheet / literature values** — device and fabric numbers quoted
   by the paper or its citations.
2. **Measured-systems folklore** — syscall and filesystem path costs
   from the microbenchmark literature (Min et al. [16] for manycore FS
   scalability, lmbench-class syscall costs).
3. **Fitted values** — a handful of software-path constants tuned so the
   simulated baseline systems land near the paper's measured ratios
   (e.g. OrangeFS peaking at ~41 % of hardware bandwidth, Figure 1).
   Each fitted value names the figure it was fitted against.
"""

from __future__ import annotations

from repro.units import GB_per_s, Gbit_per_s, GiB, KiB, MiB, ns, us

# ---------------------------------------------------------------------------
# Userspace (SPDK / NVMe-CR) client-side path — §III-D
# ---------------------------------------------------------------------------

#: CPU cost to build, submit, and poll-complete one NVMe command from
#: userspace (SPDK's advertised ~0.4 us submission path).
SPDK_SUBMIT_COST = us(0.4)

#: O(1) circular-pool hugeblock allocation (§III-E, "Hugeblocks").
BLOCK_ALLOC_COST = us(0.15)

#: CPU to format + coalesce one operation-log record (§III-E).
LOG_APPEND_CPU = us(0.3)

#: Control-plane CPU per metadata operation: B+Tree lookup/insert,
#: inode update, permission check. Fitted against Figure 8(b)'s
#: NVMe-CR create rate being hardware-bound, not software-bound.
METADATA_OP_CPU = us(1.0)

# ---------------------------------------------------------------------------
# Kernel path — Figure 2's nvme_rdma stack and local kernel filesystems
# ---------------------------------------------------------------------------

#: Trap + return for one syscall (lmbench-class number on Skylake).
SYSCALL_TRAP_COST = us(1.3)

#: VFS + block layer + kernel NVMe driver per IO request; the "multiple
#: software layers" of §I-A. Fitted against Figure 7(c): XFS 19 % slower
#: than NVMe-CR at 512 MB with ~76.5 % kernel time.
KERNEL_IO_PATH_COST = us(2.6)

#: Page-cache copy bandwidth (one memcpy of the write payload).
PAGE_CACHE_COPY_BW = GB_per_s(9.0)

#: Kernel filesystems submit block-layer requests at up to 512 KiB
#: after merging; their effective command size on the device.
KERNEL_MAX_BIO_BYTES = 512 * 1024

#: ext4 ordered-mode journal: commit record + metadata blocks per fsync
#: window. Fitted against Figure 7(c): ext4 83 % slower than NVMe-CR.
EXT4_JOURNAL_COST_PER_MB = us(840)

#: XFS delayed-logging equivalent — extent-based, much cheaper. Fitted
#: against Figure 7(c): XFS 19 % slower than NVMe-CR.
XFS_JOURNAL_COST_PER_MB = us(95)

#: Per-4KiB-block allocation under the shared block-group lock in ext4
#: (serialises across concurrent writers — the manycore collapse of
#: Min et al. [16]). Fitted against Figure 7(c): ext4 ~83 % slower than
#: NVMe-CR at 28-process full subscription.
EXT4_PER_BLOCK_ALLOC = us(1.2)

#: XFS allocates per extent (one per large append), also under a shared
#: AG lock but visited ~1000x less often.
XFS_PER_EXTENT_ALLOC = us(12.0)

#: Largest contiguous extent XFS carves per allocation call.
XFS_EXTENT_BYTES = 8 * MiB(1)

# ---------------------------------------------------------------------------
# NVMe SSD device specs — §IV-A testbed hardware (moved here from
# repro.nvme.device so the spec factories carry no literal numbers)
# ---------------------------------------------------------------------------

#: Intel Optane P4800X (the paper's device): 375 GB, ~2.2 GB/s
#: sequential write, ~2.4 GB/s read (datasheet).
P4800X_CAPACITY_BYTES = 375 * 10**9
P4800X_WRITE_BANDWIDTH = GB_per_s(2.2)
P4800X_READ_BANDWIDTH = GB_per_s(2.4)

#: Controller serialisation per command: 2.0 us reproduces the ~500 K
#: IOPS small-write ceiling (4 KiB / 2.0 us ~= 2.05 GB/s, ~7 % below
#: the sequential ceiling — the device-side half of Figure 7(a)'s
#: small-block penalty).
P4800X_PER_COMMAND_COST = us(2.0)
P4800X_FLUSH_COST = us(5.0)

#: 3D-XPoint media access: ~10 us read/write latency (datasheet).
P4800X_ACCESS_LATENCY = us(10.0)
P4800X_MAX_HW_QUEUES = 32

#: Generic NAND TLC datacenter SSD with a capacitor-backed DRAM write
#: buffer (vendor-class numbers; exercises the burst/drain and
#: power-loss capacitance paths the Optane spec never reaches).
NAND_SSD_CAPACITY_BYTES = 2 * 10**12
NAND_SSD_WRITE_BANDWIDTH = GB_per_s(1.4)
NAND_SSD_READ_BANDWIDTH = GB_per_s(3.0)
NAND_SSD_PER_COMMAND_COST = us(4.0)
NAND_SSD_FLUSH_COST = us(10.0)

#: NAND program into the DRAM buffer path.
NAND_SSD_ACCESS_LATENCY = us(25.0)
NAND_SSD_RAM_BUFFER_BYTES = GiB(1)
NAND_SSD_RAM_WRITE_BANDWIDTH = GB_per_s(3.2)

#: Spec-level defaults shared by every SSD model: media access latency
#: when a spec does not override it, and the command-granular
#: arbitration-jitter coefficient (§IV-B "a large block size will
#: increase the waiting time for each hardware IO queue"; fitted to the
#: mild large-block upturn of Figure 7(a)).
SSD_DEFAULT_ACCESS_LATENCY = us(10.0)
SSD_ARBITRATION_BETA = 0.25

# ---------------------------------------------------------------------------
# Byte-addressable NVM tier — JASS (arXiv:2301.11511) models checkpoint
# placement against Optane DC PMM-class persistent memory
# ---------------------------------------------------------------------------

#: Random load latency of Optane DC PMM (~300 ns, the widely reproduced
#: Izraelevitz et al. characterisation JASS builds on).
NVM_READ_LATENCY = ns(300)

#: Store latency to the ADR-protected write-pending queue (~100 ns);
#: persistence is asynchronous behind it.
NVM_WRITE_LATENCY = ns(100)

#: CLWB + sfence persist barrier closing one checkpoint region
#: (folklore: a few hundred ns once the stores are queued).
NVM_PERSIST_BARRIER = ns(500)

#: Per-DIMM sustained bandwidth: reads ~6.6 GB/s, writes ~2.3 GB/s —
#: the asymmetry JASS's placement model keys on.
NVM_READ_BANDWIDTH = GB_per_s(6.6)
NVM_WRITE_BANDWIDTH = GB_per_s(2.3)

#: One 128 GB module per node (the smallest DC PMM SKU).
NVM_CAPACITY_BYTES = 128 * 10**9

# ---------------------------------------------------------------------------
# Distributed baselines — §II-B / §IV
# ---------------------------------------------------------------------------

#: OrangeFS stripe unit (pvfs2 default ballpark).
ORANGEFS_STRIPE_SIZE = 64 * KiB(1)

#: Client-side OrangeFS request path per stripe (BMI + request proto).
#: Caps one client at ~1.4 GB/s — why single clients can't saturate.
ORANGEFS_PER_REQUEST_COST = us(45)

#: Server-side software service per stripe, layered over a kernel FS.
#: Fitted against Figure 1: per-server ceiling = stripe/service =
#: 64 KiB / 72 us ~= 0.91 GB/s = 41 % of the P4800X's 2.2 GB/s.
ORANGEFS_SERVER_SERVICE = us(72)

#: Server-side read service per stripe. Fitted against Figure 9(b):
#: recovery efficiency ~0.85 => 64 KiB / (0.85 * 2.4 GB/s) ~= 32 us.
ORANGEFS_SERVER_READ_SERVICE = us(32)

#: OrangeFS metadata op (create: inode + dfile handles), distributed
#: across all servers' metadata instances, plus the single common
#: directory-file append that serialises creates (§IV-G). Fitted
#: against Figure 8(b): ~7x fewer creates/s than NVMe-CR at 448.
ORANGEFS_MDS_SERVICE = us(120)
ORANGEFS_DIR_ENTRY_SERVICE = us(14)

#: GlusterFS FUSE+translator client stack per 128 KiB chunk.
GLUSTERFS_CHUNK_BYTES = 128 * KiB(1)
GLUSTERFS_PER_REQUEST_COST = us(14)

#: GlusterFS brick (server) service per chunk. The end-to-end peak of
#: Figure 1 (~84 %) is the per-brick ceiling *compounded with* hash
#: imbalance across bricks (busiest brick finishes last), so the
#: per-brick ceiling sits higher: 128 KiB / 62 us ~= 2.1 GB/s = 96 % of
#: device peak, yielding ~84 % end-to-end at 448 processes.
GLUSTERFS_SERVER_SERVICE = us(62)

#: Brick read service per chunk: recovery efficiency ~0.9 (Figure 9(d))
#: => 128 KiB / (0.9 * 2.4 GB/s) ~= 61 us.
GLUSTERFS_SERVER_READ_SERVICE = us(61)

#: Directory-entry append per create — "both must add file entries to a
#: single common directory file which effectively serializes file
#: creates" (§IV-G). Fitted against Figure 8(b): ~18x fewer creates/s
#: than NVMe-CR at 448 procs.
GLUSTERFS_DIR_ENTRY_SERVICE = us(36)

#: Per-open lookup on GlusterFS's distributed hash lookup path; the
#: serialised influx at 448 readers is the Figure 9(d) recovery dip.
GLUSTERFS_LOOKUP_SERVICE = us(150)

#: Crail: SPDK data plane like ours, but block allocation and lookups
#: are RPCs to a *single* metadata server, shipping inode-sized
#: payloads over the fabric (§IV-F: 5-10 % slower than NVMe-CR; the
#: single MDS "becomes a bottleneck at high-concurrency", §IV-A).
CRAIL_MDS_SERVICE = us(25)
CRAIL_INODE_WIRE_BYTES = 4 * KiB(1)
CRAIL_BLOCK_BYTES = MiB(1)

#: Shared-file write serialisation on POSIX distributed filesystems:
#: once a file has concurrent writers, every lock unit (1 MiB range)
#: takes the file's range/metadata lock — the N-1 pattern pain PLFS
#: [24] exists to solve. Single-writer files never pay (N-N unaffected).
SHARED_FILE_LOCK_SERVICE = us(800)
SHARED_FILE_LOCK_UNIT = MiB(1)

#: Lustre second tier for multi-level checkpointing (§IV-A: 4 servers,
#: each behind one 12 Gb/s RAID controller).
LUSTRE_SERVER_BANDWIDTH = Gbit_per_s(12)
LUSTRE_SERVERS = 4
LUSTRE_PER_REQUEST_COST = us(55)
LUSTRE_STRIPE_SIZE = MiB(1)

# ---------------------------------------------------------------------------
# Metadata sizes — Table I / §IV-G accounting
# ---------------------------------------------------------------------------

#: In-DRAM inode footprint of NVMe-CR (conventional inode + block list
#: head; §III-E "inodes to store file metadata").
NVMECR_INODE_BYTES = 256

#: One B+Tree node (order-64 node of name->ino mappings).
NVMECR_BTREE_NODE_BYTES = 4096

#: Compact operation-log record (§III-E: "Only the syscall type and its
#: parameters need to be added to the log").
NVMECR_LOG_RECORD_BYTES = 64

#: Physical-logging record for the provenance ablation: a full inode
#: image plus block map page, the "large sized physical log records"
#: other systems ship (§III-E).
PHYSICAL_LOG_RECORD_BYTES = 4096

#: Under physical logging, one 4 KiB record covers this many data
#: blocks (inode image + bitmap page per group). Fitted against
#: Figure 7(d): metadata provenance recovers up to ~17 % by removing
#: this journal traffic from the data path.
PHYSICAL_LOG_BLOCKS_PER_RECORD = 4

#: OrangeFS per-file inode/handle metadata on its servers.
ORANGEFS_FILE_METADATA_BYTES = 6 * KiB(1)

#: OrangeFS per-stripe layout record, replicated to every dfile server.
#: Fitted against Table I: 4480 files x ~2440 stripes x 240 B ~= 2.6 GB
#: per server at 448 processes.
ORANGEFS_PER_STRIPE_METADATA = 240

#: GlusterFS keeps only hash-ring bookkeeping per server (Table I: 3.5 MB).
GLUSTERFS_SERVER_METADATA_BYTES = int(3.5 * MiB(1))

# ---------------------------------------------------------------------------
# Application model — CoMD (§IV-A, §IV-H)
# ---------------------------------------------------------------------------

#: Checkpoint bytes per atom. Weak scaling: 32K atoms/process and 10
#: checkpoints make 700 GB total over 448 processes => 156.25 MB per
#: process-checkpoint => ~4.8 KiB per atom (position+velocity+force
#: history in CoMD's double-precision state).
COMD_BYTES_PER_ATOM = 5120

#: Compute time per atom for one *block of timesteps between
#: checkpoints* (not a single step). Fitted against Table II: with
#: 32K atoms/rank the progress rates 0.252/0.402/0.423 imply ~2.9 s of
#: compute per checkpoint interval => ~90 us per atom per interval.
COMD_COMPUTE_SECONDS_PER_ATOM = 9.0e-5

# ---------------------------------------------------------------------------
# NVMe-CR runtime defaults — §III
# ---------------------------------------------------------------------------

#: The paper's chosen hugeblock size (§IV-B).
DEFAULT_HUGEBLOCK = 32 * KiB(1)

#: Data-plane batching: one app-level write is submitted as pipelined
#: command batches of at most this size.
MAX_BATCH_BYTES = 8 * MiB(1)

#: Operation-log region reserved on each partition.
LOG_REGION_BYTES = 16 * MiB(1)

#: Reserved region for internal-state checkpoints (§III-E "the runtime
#: checkpoints internal DRAM state ... to a reserved region"). Two
#: slots for atomic A/B updates.
STATE_REGION_BYTES = 64 * MiB(1)

#: Background checkpointer threshold: free log records below this
#: fraction (with no open files) triggers a state checkpoint.
LOG_FREE_THRESHOLD = 0.25
