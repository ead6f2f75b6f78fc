//! FAT32.
//!
//! Prototype 5 needs files far larger than xv6fs's 268 KB limit (DOOM's
//! assets, videos, high-resolution slides), faster-than-single-block loading,
//! and interoperability so users can drop media onto the SD card from any
//! commodity OS (§4.5). Proto ports ChaN's FatFS; this module implements the
//! equivalent functionality natively: a FAT32 volume with a BIOS parameter
//! block, a single FAT, 4 KB clusters and 8.3 directory entries.
//!
//! Two properties of the paper's port are preserved deliberately:
//!
//! * **Range I/O.** File data moves through the unified buffer cache's range
//!   API in whole cluster *runs*: the chain walker merges contiguous
//!   clusters (up to [`MAX_RUN_CLUSTERS`]) into single multi-cluster
//!   commands before they ever reach the cache, so a cold sequential read
//!   costs a fraction of the one-command-per-cluster budget the retired
//!   cache-*bypass* hack paid for §5.2 — while also keeping hot clusters
//!   cached, which the bypass never could. On top of that, `read_at`
//!   prefetches the next run of a detected sequential stream (see
//!   [`Fat32::read_at`]); with the SD host's DMA data path active the cache
//!   turns that prefetch into an in-flight scatter-gather chain the next
//!   demand read *waits on* instead of re-issuing — genuine
//!   transfer/compute overlap rather than just a discounted setup cost.
//!   Metadata (BPB, FAT, directories) shares the same cache, so there is
//!   exactly one consistency domain.
//! * **No inodes.** FAT has no inode concept, so every call here names its
//!   file by path. The kernel's FAT volume numbers the paths it opens
//!   (pseudo-inodes, in a table of the volume's own; see the kernel's `vfs`
//!   module) and puts those numbers in its xv6-style file table, exactly as
//!   Proto bridges FatFS into its file table.
//!
//! The cache is write-back: callers that need the card itself up to date
//! (unmount, `fsync`) call [`crate::bufcache::BufCache::flush`].
//!
//! **Crash consistency** (an extension beyond the paper, which excludes it
//! in §5.4): writes to new files dirty the cache with write-order
//! dependencies — data clusters before the FAT entries mapping them, both
//! before the dirent that publishes the file — so the ordered drain can be
//! cut by a power loss at any block boundary (or torn mid-CMD25) and a
//! remount sees either the old tree or the complete file. Multi-sector
//! metadata updates whose safe order is cyclic at sector granularity
//! (mkdir, [`Fat32::rename`], [`Fat32::remove`], overwriting an existing
//! file, directory extension) instead commit through a tiny physical redo
//! log in the reserved region ([`INTENT_LOG_START`]) that [`Fat32::mount`]
//! replays. The log machinery itself — record format, group commit, replay,
//! the fallback for oversized transactions — is the filesystem-agnostic
//! transaction layer in [`crate::txn`]; this module supplies only the
//! placement (where the log lives on a FAT volume) and the choice of which
//! operations run as transactions. The xv6fs metadata journal is the second
//! client of the same layer. With the default group size of one, logged
//! operations are atomic *and durable* on return; with group commit enabled
//! ([`Fat32::set_group_commit_ops`]) they stay atomic at every cut but a
//! burst of them shares one checksummed commit record — durability moves to
//! the group's single commit flush, forced by any barrier.

use crate::block::{BlockDevice, BLOCK_SIZE};
use crate::bufcache::BufCache;
use crate::path;
use crate::txn::TxnLog;
use crate::{FsError, FsResult};

/// Sectors per cluster (4 KB clusters).
pub const SECTORS_PER_CLUSTER: u32 = 8;
/// Bytes per cluster.
pub const CLUSTER_SIZE: usize = SECTORS_PER_CLUSTER as usize * BLOCK_SIZE;
/// End-of-chain marker.
pub const FAT_EOC: u32 = 0x0FFF_FFFF;
/// Free-cluster marker.
pub const FAT_FREE: u32 = 0;
/// First allocatable cluster number (0 and 1 are reserved).
pub const FIRST_CLUSTER: u32 = 2;
/// Directory entry size.
pub const DIRENT_SIZE: usize = 32;
/// Attribute flag: directory.
pub const ATTR_DIRECTORY: u8 = 0x10;
/// Attribute flag: archive (ordinary file).
pub const ATTR_ARCHIVE: u8 = 0x20;
/// Maximum clusters merged into one coalesced device command (128 KB). Bounds
/// the temporary transfer buffer while still amortising the per-command
/// latency over a long run.
pub const MAX_RUN_CLUSTERS: usize = 32;
/// First sector of the on-volume intent log, in the reserved region right
/// after the boot sector.
pub const INTENT_LOG_START: u64 = 1;
/// Sectors reserved for the intent log: one header plus up to
/// [`INTENT_LOG_PAYLOAD`] logged metadata sectors. Sized to the whole
/// usable reserved region so one record covers the FAT sectors of both
/// chains of a ~7 MB file overwrite (a FAT sector maps 128 clusters =
/// 512 KB); larger transactions fall back to an edge-ordered flush.
pub const INTENT_LOG_SECTORS: u64 = 30;
/// Maximum metadata sectors one logged transaction can carry.
pub const INTENT_LOG_PAYLOAD: usize = (INTENT_LOG_SECTORS - 1) as usize;
/// Magic bytes opening a committed intent-log header (the shared
/// transaction layer's record magic; used by the mount tests that forge
/// records).
#[cfg(test)]
const INTENT_MAGIC: &[u8; 8] = crate::txn::TXN_MAGIC;
/// Initial read-ahead window for a newly detected sequential stream (32 KB).
/// The window doubles per sequential continuation — the classic readahead
/// ramp — up to [`MAX_PREFETCH_CLUSTERS`], and since the deep-queue PR the
/// ramp state lives *per stream slot* in the cache
/// ([`BufCache::stream_window`]): each of the four tracked streams carries
/// its own depth, so an interleaved second stream no longer resets the
/// first's. A steady stream's demand reads end up fully covered by earlier
/// prefetch and pay no command setup of their own.
pub const PREFETCH_CLUSTERS: usize = 8;
/// Read-ahead window ceiling (128 KB, one maximal cluster run).
pub const MAX_PREFETCH_CLUSTERS: usize = MAX_RUN_CLUSTERS;

/// Metadata for a file or directory inside the FAT volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatEntry {
    /// Name in its original `NAME.EXT` form (upper-cased).
    pub name: String,
    /// True if this is a directory.
    pub is_dir: bool,
    /// Size in bytes (0 for directories).
    pub size: u32,
    /// First cluster of the data chain (0 if empty).
    pub first_cluster: u32,
}

/// The BIOS parameter block fields we need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bpb {
    /// Total sectors in the volume.
    pub total_sectors: u32,
    /// Sectors per FAT.
    pub sectors_per_fat: u32,
    /// First sector of the FAT.
    pub fat_start: u32,
    /// First sector of the data area.
    pub data_start: u32,
    /// Cluster number of the root directory.
    pub root_cluster: u32,
    /// Number of data clusters.
    pub cluster_count: u32,
}

/// A mounted FAT32 volume.
#[derive(Debug, Clone)]
pub struct Fat32 {
    bpb: Bpb,
    /// This volume's handle on the shared transaction layer
    /// ([`crate::txn::TxnLog`]): the intent-log geometry (the reserved
    /// region at [`INTENT_LOG_START`]) plus the group-commit knob. The
    /// mutable transaction state itself (open recorder, commit group, pins,
    /// pending frees) lives in the [`BufCache`]: the cache pins the group's
    /// sectors against eviction and drains, and a full flush clears the
    /// pending frees. Logging is on whenever the reserved region has room
    /// for the log area (a foreign card may lack it); with a group size
    /// above 1 ([`Fat32::set_group_commit_ops`]) consecutive transactions
    /// share one checksummed commit record and durability moves to the
    /// group's single commit flush, forced by any barrier.
    txn: TxnLog,
}

fn encode_83(name: &str) -> FsResult<[u8; 11]> {
    if !path::valid_name(name) {
        return Err(FsError::Invalid(format!("bad FAT name '{name}'")));
    }
    let upper = name.to_ascii_uppercase();
    let (base, ext) = match upper.rsplit_once('.') {
        Some((b, e)) => (b, e),
        None => (upper.as_str(), ""),
    };
    if base.is_empty() || base.len() > 8 || ext.len() > 3 {
        return Err(FsError::Invalid(format!("'{name}' does not fit 8.3")));
    }
    let mut out = [b' '; 11];
    out[..base.len()].copy_from_slice(base.as_bytes());
    out[8..8 + ext.len()].copy_from_slice(ext.as_bytes());
    Ok(out)
}

/// Groups consecutive cluster numbers into contiguous runs of at most
/// [`MAX_RUN_CLUSTERS`], so a FAT chain like `[5,6,7,9]` becomes
/// `[(5,3),(9,1)]` and each run can travel as one multi-cluster device
/// command instead of one command per cluster.
fn cluster_runs(clusters: &[u32]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for &c in clusters {
        match runs.last_mut() {
            Some((first, count))
                if *first + *count == c && (*count as usize) < MAX_RUN_CLUSTERS =>
            {
                *count += 1
            }
            _ => runs.push((c, 1)),
        }
    }
    runs
}

fn decode_83(raw: &[u8; 11]) -> String {
    let base: String = String::from_utf8_lossy(&raw[..8]).trim_end().to_string();
    let ext: String = String::from_utf8_lossy(&raw[8..]).trim_end().to_string();
    if ext.is_empty() {
        base
    } else {
        format!("{base}.{ext}")
    }
}

/// One FAT sector held across a walk of the table: entries are decoded
/// from the sector last read, so a chain walk or a free-cluster scan reads
/// each FAT sector through the cache once per run of entries it holds
/// instead of once per 4-byte entry. A reader lives for one walk and is
/// never written through, so a walk that changes the FAT must not read back
/// an entry it changed.
struct FatReader {
    /// The sector held in `buf`, if any.
    held: Option<u64>,
    buf: [u8; BLOCK_SIZE],
}

impl FatReader {
    fn new() -> Self {
        FatReader {
            held: None,
            buf: [0; BLOCK_SIZE],
        }
    }

    /// The FAT entry of `cluster` (its low 28 bits) — the one place an
    /// entry is decoded.
    fn entry(
        &mut self,
        fs: &Fat32,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
    ) -> FsResult<u32> {
        fs.check_fat_index(cluster)?;
        let (sector, off) = fs.fat_sector_of(cluster);
        if self.held != Some(sector) {
            self.held = None;
            bc.read(dev, sector, &mut self.buf)?;
            self.held = Some(sector);
        }
        let e = &self.buf[off..off + 4];
        Ok(u32::from_le_bytes([e[0], e[1], e[2], e[3]]) & 0x0FFF_FFFF)
    }
}

/// Where a first-fit free-cluster scan resumes, carried across the
/// clusters of one [`Fat32::alloc_chain`] call (nothing survives the call).
struct FreeScan {
    /// The resume point: every cluster below it is in use or reserved.
    next: u32,
    /// Whether a cluster below `next` is free but reserved behind a pending
    /// free — the cue for the commit-and-retry path when the scan runs out.
    skipped_reserved: bool,
}

impl FreeScan {
    /// A scan from the first allocatable cluster.
    fn start() -> FreeScan {
        FreeScan {
            next: FIRST_CLUSTER,
            skipped_reserved: false,
        }
    }
}

impl Fat32 {
    // ---- formatting / mounting -------------------------------------------------------------

    /// Formats the device as FAT32 and returns the mounted volume.
    pub fn mkfs(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Fat32> {
        let total_sectors = dev.num_blocks() as u32;
        if total_sectors < 128 {
            return Err(FsError::Invalid("device too small for FAT32".into()));
        }
        // Size the FAT: each data cluster needs one 4-byte FAT entry.
        // Solve approximately: clusters ~= (total - fat) / spc.
        let approx_clusters = total_sectors / SECTORS_PER_CLUSTER;
        let sectors_per_fat = (approx_clusters * 4).div_ceil(BLOCK_SIZE as u32).max(1);
        let fat_start = 32; // reserved region
        let data_start = fat_start + sectors_per_fat;
        let cluster_count = (total_sectors - data_start) / SECTORS_PER_CLUSTER;
        if cluster_count < 8 {
            return Err(FsError::Invalid(
                "device too small for FAT32 data area".into(),
            ));
        }
        let bpb = Bpb {
            total_sectors,
            sectors_per_fat,
            fat_start,
            data_start,
            root_cluster: FIRST_CLUSTER,
            cluster_count,
        };
        // Write the boot sector.
        let mut boot = vec![0u8; BLOCK_SIZE];
        boot[0] = 0xEB; // jump
        boot[3..11].copy_from_slice(b"PROTO5  ");
        boot[11..13].copy_from_slice(&(BLOCK_SIZE as u16).to_le_bytes());
        boot[13] = SECTORS_PER_CLUSTER as u8;
        boot[14..16].copy_from_slice(&(fat_start as u16).to_le_bytes());
        boot[16] = 1; // number of FATs
        boot[32..36].copy_from_slice(&total_sectors.to_le_bytes());
        boot[36..40].copy_from_slice(&sectors_per_fat.to_le_bytes());
        boot[44..48].copy_from_slice(&bpb.root_cluster.to_le_bytes());
        boot[82..90].copy_from_slice(b"FAT32   ");
        boot[510] = 0x55;
        boot[511] = 0xAA;
        bc.write(dev, 0, &boot)?;
        bc.note_metadata(0, 1);
        // An empty intent-log header: a reformat must not leave a stale
        // committed record from the volume's previous life. Written straight
        // to the device, so it is durable before any formatted sector the
        // cache holds: a cut mid-format can never replay the old record
        // over the new layout.
        let zero = vec![0u8; BLOCK_SIZE];
        dev.write_block(INTENT_LOG_START, &zero)?;
        // Zero the FAT.
        for s in 0..sectors_per_fat {
            bc.write(dev, (fat_start + s) as u64, &zero)?;
            bc.note_metadata((fat_start + s) as u64, 1);
        }
        let fs = Fat32 {
            bpb,
            txn: Self::make_txn(&bpb),
        };
        // Reserve clusters 0 and 1, allocate the root directory cluster.
        fs.fat_set(dev, bc, 0, 0x0FFF_FFF8)?;
        fs.fat_set(dev, bc, 1, FAT_EOC)?;
        fs.fat_set(dev, bc, bpb.root_cluster, FAT_EOC)?;
        fs.zero_cluster(dev, bc, bpb.root_cluster)?;
        let root_sector = fs.cluster_to_sector(bpb.root_cluster)?;
        bc.note_metadata(root_sector, SECTORS_PER_CLUSTER as u64);
        Ok(fs)
    }

    /// Whether the reserved region leaves room for the intent log.
    fn log_fits(bpb: &Bpb) -> bool {
        bpb.fat_start as u64 >= INTENT_LOG_START + INTENT_LOG_SECTORS
    }

    /// Mounts an existing FAT32 volume by parsing (and validating) its boot
    /// sector, then replaying any committed intent-log record left by a
    /// power cut in the middle of a multi-sector metadata update.
    pub fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Fat32> {
        let mut boot = vec![0u8; BLOCK_SIZE];
        bc.read(dev, 0, &mut boot)?;
        Self::mount_boot_sector(dev, bc, &boot)
    }

    /// Mounts the volume on `dev`, or formats it if its boot sector is all
    /// zeros, as a new card's is. Any other volume is only mounted, so a
    /// card that fails to mount fails with [`Fat32::mount`]'s error and is
    /// never reformatted.
    pub fn mount_or_mkfs(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Fat32> {
        let mut boot = vec![0u8; BLOCK_SIZE];
        bc.read(dev, 0, &mut boot)?;
        if boot.iter().all(|&b| b == 0) {
            return Self::mkfs(dev, bc);
        }
        Self::mount_boot_sector(dev, bc, &boot)
    }

    /// [`Fat32::mount`] of the volume whose boot sector reads `boot`.
    fn mount_boot_sector(
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        boot: &[u8],
    ) -> FsResult<Fat32> {
        if boot[510] != 0x55 || boot[511] != 0xAA {
            return Err(FsError::Corrupt("missing FAT32 boot signature".into()));
        }
        if &boot[82..87] != b"FAT32" {
            return Err(FsError::Corrupt("not a FAT32 volume".into()));
        }
        if boot[13] != SECTORS_PER_CLUSTER as u8 {
            return Err(FsError::Corrupt(format!(
                "unsupported sectors-per-cluster {}",
                boot[13]
            )));
        }
        let total_sectors = u32::from_le_bytes([boot[32], boot[33], boot[34], boot[35]]);
        let sectors_per_fat = u32::from_le_bytes([boot[36], boot[37], boot[38], boot[39]]);
        let fat_start = u16::from_le_bytes([boot[14], boot[15]]) as u32;
        let root_cluster = u32::from_le_bytes([boot[44], boot[45], boot[46], boot[47]]);
        // A corrupt BPB must surface as `Corrupt`, never as an arithmetic
        // panic or an absurd allocation during remount.
        if fat_start == 0 || sectors_per_fat == 0 {
            return Err(FsError::Corrupt("BPB has an empty FAT region".into()));
        }
        let data_start = fat_start
            .checked_add(sectors_per_fat)
            .ok_or_else(|| FsError::Corrupt("BPB FAT region overflows".into()))?;
        if data_start >= total_sectors {
            return Err(FsError::Corrupt(
                "BPB data area starts beyond the volume".into(),
            ));
        }
        if total_sectors as u64 > dev.num_blocks() {
            return Err(FsError::Corrupt(format!(
                "BPB claims {total_sectors} sectors but the device holds {}",
                dev.num_blocks()
            )));
        }
        let cluster_count = (total_sectors - data_start) / SECTORS_PER_CLUSTER;
        if cluster_count == 0 {
            return Err(FsError::Corrupt("BPB has no data clusters".into()));
        }
        if !(FIRST_CLUSTER..FIRST_CLUSTER + cluster_count).contains(&root_cluster) {
            return Err(FsError::Corrupt(format!(
                "root cluster {root_cluster} outside the data area"
            )));
        }
        let bpb = Bpb {
            total_sectors,
            sectors_per_fat,
            fat_start,
            data_start,
            root_cluster,
            cluster_count,
        };
        let fs = Fat32 {
            bpb,
            txn: Self::make_txn(&bpb),
        };
        fs.txn.replay(dev, bc)?;
        Ok(fs)
    }

    /// Builds this volume's transaction-layer handle: the intent-log
    /// geometry over the reserved region, or a log of no sectors when the
    /// region is too small for it.
    fn make_txn(bpb: &Bpb) -> TxnLog {
        let sectors = if Self::log_fits(bpb) {
            INTENT_LOG_SECTORS
        } else {
            0
        };
        TxnLog::new(INTENT_LOG_START, sectors, bpb.total_sectors as u64)
    }

    /// Whether multi-sector metadata updates go through the intent log: the
    /// volume's reserved region holds one.
    pub fn intent_log_enabled(&self) -> bool {
        self.txn.enabled()
    }

    /// Sets how many logged transactions one commit record may cover (group
    /// commit; clamped to at least 1). Callers that raise this above 1 own
    /// the durability consequences and must force [`Fat32::commit_pending`]
    /// at their barriers — the kernel does so in `fsync`, `sync_all` and the
    /// flusher's timeout pass.
    pub fn set_group_commit_ops(&mut self, ops: u32) {
        self.txn.set_group_ops(ops);
    }

    /// The configured group-commit size.
    pub fn group_commit_ops(&self) -> u32 {
        self.txn.group_ops()
    }

    /// The parsed BPB.
    pub fn bpb(&self) -> Bpb {
        self.bpb
    }

    // ---- the intent log ------------------------------------------------------------------------
    //
    // FAT32's intent log is now a client of the shared transaction layer
    // ([`crate::txn`]): a tiny physical redo log for multi-sector metadata
    // updates (mkdir, rename, remove, file overwrite) living in the
    // reserved region at `INTENT_LOG_START`, with group commit folding a
    // burst of transactions into one checksummed record. The mechanism —
    // ready-drain before the commit record, the header and its payloads
    // written through the cache as one run, the FLUSH closing their drain
    // as the commit point, idempotent checksum-validated replay,
    // pending-free reservation of freed clusters — is documented once, in
    // `txn.rs`; what stays FAT-specific here is only the geometry (the
    // reserved region) and which operations are transactions.

    /// Builds the checksummed header sector for a committed record (the
    /// shared layer's format; kept as a named helper for the mount tests
    /// that hand-craft records).
    #[cfg(test)]
    fn intent_header(targets: &[u64], payloads: &[u8]) -> Vec<u8> {
        TxnLog::header(targets, payloads)
    }

    /// Forces the open commit group's record to the device: the barrier
    /// entry point. `fsync`, `sync_all` and the flusher's group-timeout
    /// pass call this before their cache flush — a flush skips group-held
    /// sectors, so skipping the commit would leave the burst cached instead
    /// of durable. A no-op when no group is open. See
    /// [`crate::txn::TxnLog::commit_pending`] for the full commit sequence
    /// and its crash-ordering argument.
    pub fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        self.txn.commit_pending(dev, bc)
    }

    /// Runs `f` as an intent-log transaction through the shared layer
    /// ([`crate::txn::TxnLog::with_txn`]). Every logged operation goes
    /// through here so no path can forget half of the begin / commit / end
    /// protocol.
    fn with_meta_txn<R>(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        f: impl FnOnce(&Self, &mut dyn BlockDevice, &mut BufCache) -> FsResult<R>,
    ) -> FsResult<R> {
        let txn = self.txn;
        txn.with_txn(dev, bc, |dev, bc| f(self, dev, bc))
    }

    // ---- FAT access ---------------------------------------------------------------------------

    fn fat_sector_of(&self, cluster: u32) -> (u64, usize) {
        // A corrupt dirent or FAT entry controls `cluster`, so the sector
        // is computed in u64, where no u32 cluster can overflow it, and
        // every access runs `check_fat_index` first to reject a sector
        // past the FAT region.
        let byte = u64::from(cluster).saturating_mul(4);
        (
            (self.bpb.fat_start as u64).saturating_add(byte / BLOCK_SIZE as u64),
            (byte % BLOCK_SIZE as u64) as usize,
        )
    }

    /// Rejects FAT indices whose entry would fall outside the FAT region —
    /// a corrupt chain must not silently read or scribble on the data area.
    fn check_fat_index(&self, cluster: u32) -> FsResult<()> {
        let (sector, _) = self.fat_sector_of(cluster);
        if sector >= self.bpb.data_start as u64 {
            return Err(FsError::Corrupt(format!(
                "FAT entry for cluster {cluster} lies outside the FAT region"
            )));
        }
        Ok(())
    }

    fn fat_set(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        value: u32,
    ) -> FsResult<()> {
        self.check_fat_index(cluster)?;
        let (sector, off) = self.fat_sector_of(cluster);
        let mut buf = vec![0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf)?;
        buf[off..off + 4].copy_from_slice(&(value & 0x0FFF_FFFF).to_le_bytes());
        bc.write(dev, sector, &buf)?;
        bc.note_metadata(sector, 1);
        Ok(())
    }

    /// Allocates the first free cluster at or past `scan`'s resume point
    /// and marks it end-of-chain, skipping clusters reserved behind a
    /// pending free.
    ///
    /// The allocator's invariant: every cluster below the resume point is
    /// in use or reserved. So resuming there picks exactly the cluster a
    /// scan from [`FIRST_CLUSTER`] would, and the clusters of one chain
    /// cost one pass over the FAT between them, not one pass each. Nothing
    /// below the resume point changes between the clusters of a chain:
    /// claims only fill free clusters, and only the commit-and-retry path
    /// below releases reservations — which is why it rescans from
    /// [`FIRST_CLUSTER`].
    ///
    /// With `zero_fill` the cluster's contents are zeroed in cache and a
    /// FAT→contents write-order edge is recorded, so the FAT entry claiming
    /// the cluster can never land before its (zeroed) contents — a chain
    /// must never gain a cluster of stale bytes. Callers that *fully
    /// overwrite* every allocated cluster before publishing it (whole-file
    /// writes; the tail cluster is zero-padded by the data write itself)
    /// pass `zero_fill = false` and skip both — their own data ≺ FAT ≺
    /// dirent edges, added right after the real data lands, take over, and
    /// until then the worst a power cut can expose is an
    /// allocated-but-unpublished chain: a cluster leak, never a visible file
    /// with stale bytes. Skipping the zero fill halves the device traffic of
    /// a large sequential write — previously every data cluster travelled
    /// twice (once as evicted zeros, once as data). `for_metadata`
    /// classifies the fresh cluster's contents as metadata (directory
    /// clusters) so the ordered drain treats its dirents as such.
    fn alloc_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        scan: &mut FreeScan,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<u32> {
        let c = match self.find_free(dev, bc, scan)? {
            Some(c) => c,
            None if scan.skipped_reserved => {
                // The only free clusters await a durable free. Force the
                // pending group's commit record out (releasing its
                // reservations) and rescan — a delete-then-write on a nearly
                // full volume must not report NoSpace. Committing
                // mid-transaction is safe: the current transaction's sectors
                // so far are plain chain links whose early drain can at
                // worst leak an unpublished cluster across a cut.
                self.commit_pending(dev, bc)?;
                if bc.has_pending_frees() {
                    // Reservations with no group to commit them — left
                    // behind by a transaction that failed before logging its
                    // frees. A full flush makes those frees durable too and
                    // clears the reservations.
                    bc.flush(dev)?;
                }
                *scan = FreeScan::start();
                self.find_free(dev, bc, scan)?.ok_or(FsError::NoSpace)?
            }
            None => return Err(FsError::NoSpace),
        };
        self.claim_cluster(dev, bc, c, for_metadata, zero_fill)
    }

    /// Advances `scan` past the first free cluster no pending free
    /// reserves, at or past its resume point, and returns that cluster;
    /// `None` once the scan reaches the end of the data area. Reads each
    /// FAT sector once.
    fn find_free(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        scan: &mut FreeScan,
    ) -> FsResult<Option<u32>> {
        let mut fat = FatReader::new();
        let end = FIRST_CLUSTER.saturating_add(self.bpb.cluster_count);
        while scan.next < end {
            let c = scan.next;
            scan.next = c.saturating_add(1);
            if fat.entry(self, dev, bc, c)? != FAT_FREE {
                continue;
            }
            if bc.is_pending_free(c) {
                scan.skipped_reserved = true;
                continue;
            }
            return Ok(Some(c));
        }
        Ok(None)
    }

    /// Marks the free cluster `c` end-of-chain and applies the `zero_fill`
    /// policy described on [`Fat32::alloc_cluster`].
    fn claim_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        c: u32,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<u32> {
        // Metadata clusters (directories) must always be zero-filled with
        // the FAT→contents edge recorded: skipping it would let the FAT
        // claim persist before the dirents, exposing a directory of stale
        // bytes across a cut. Only fully-overwritten *data* chains may skip.
        debug_assert!(
            zero_fill || !for_metadata,
            "metadata clusters cannot skip the zero fill"
        );
        self.fat_set(dev, bc, c, FAT_EOC)?;
        if zero_fill {
            self.zero_cluster(dev, bc, c)?;
            if for_metadata {
                bc.note_metadata(self.cluster_to_sector(c)?, SECTORS_PER_CLUSTER as u64);
            }
            let (fat_sector, _) = self.fat_sector_of(c);
            bc.add_dependency(
                fat_sector,
                1,
                self.cluster_to_sector(c)?,
                SECTORS_PER_CLUSTER as u64,
            );
        }
        Ok(c)
    }

    /// Allocates and links an `n`-cluster chain, unwinding the allocation on
    /// failure so a mid-flight `NoSpace` (or I/O error) never leaks
    /// half-built chains into the FAT. One first-fit scan serves the whole
    /// chain: each cluster's search resumes just past the cluster claimed
    /// before it, under the invariant stated on [`Fat32::alloc_cluster`].
    /// `zero_fill` as there: whole-file writers that overwrite every
    /// cluster skip the redundant zero pass.
    fn alloc_chain(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        n: usize,
        for_metadata: bool,
        zero_fill: bool,
    ) -> FsResult<Vec<u32>> {
        // Pre-reserve at most a bounded chunk: `n` scales with the caller's
        // write size and the vec grows as clusters land anyway.
        let mut clusters = Vec::with_capacity(n.min(1024));
        let mut scan = FreeScan::start();
        for _ in 0..n {
            match self.alloc_cluster(dev, bc, &mut scan, for_metadata, zero_fill) {
                Ok(c) => clusters.push(c),
                Err(e) => {
                    self.unwind_chain(dev, bc, &clusters);
                    return Err(e);
                }
            }
        }
        for w in clusters.windows(2) {
            if let Err(e) = self.fat_set(dev, bc, w[0], w[1]) {
                self.unwind_chain(dev, bc, &clusters);
                return Err(e);
            }
        }
        Ok(clusters)
    }

    /// Frees an allocated (but not yet referenced) chain — the unwind path
    /// for operations that fail after [`Fat32::alloc_chain`] succeeded.
    fn unwind_chain(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, clusters: &[u32]) {
        for &c in clusters {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best effort: the chain was never published, and the error that started the unwind is the one to surface"
            )]
            let _ = self.fat_set(dev, bc, c, FAT_FREE);
        }
    }

    /// Frees the clusters of a published chain, as [`Fat32::chain`] walked
    /// it (so a corrupt or cyclic chain has already failed the walk).
    fn free_chain(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        clusters: &[u32],
    ) -> FsResult<()> {
        for &c in clusters {
            self.fat_set(dev, bc, c, FAT_FREE)?;
            // The free is not durable until the commit record (or a full
            // flush) lands. Reserve the cluster so a later transaction in
            // the same commit group cannot reallocate it and overwrite data
            // the old tree still references — a cut before the commit point
            // must keep showing the intact old file.
            bc.note_pending_free(c);
        }
        Ok(())
    }

    /// Collects the cluster chain starting at `first`, reading each FAT
    /// sector once per run of entries it holds. A chain that leaves the
    /// data area or cycles fails with [`FsError::Corrupt`].
    fn chain(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        first: u32,
    ) -> FsResult<Vec<u32>> {
        let mut fat = FatReader::new();
        let mut out = Vec::new();
        let mut c = first;
        let limit = (self.bpb.cluster_count as usize).saturating_add(2);
        while (FIRST_CLUSTER..0x0FFF_FFF8).contains(&c) {
            if c >= FIRST_CLUSTER.saturating_add(self.bpb.cluster_count) {
                return Err(FsError::Corrupt(format!(
                    "FAT chain references cluster {c} beyond the data area"
                )));
            }
            out.push(c);
            if out.len() > limit {
                return Err(FsError::Corrupt("FAT chain cycle".into()));
            }
            c = fat.entry(self, dev, bc, c)?;
        }
        Ok(out)
    }

    /// Maps a data cluster to its first sector LBA. Cluster numbers outside
    /// the data area — which a corrupt dirent or torn FAT entry can supply —
    /// surface as [`FsError::Corrupt`] instead of underflowing the sector
    /// arithmetic.
    fn cluster_to_sector(&self, cluster: u32) -> FsResult<u64> {
        let end = FIRST_CLUSTER.saturating_add(self.bpb.cluster_count);
        if !(FIRST_CLUSTER..end).contains(&cluster) {
            return Err(FsError::Corrupt(format!(
                "cluster {cluster} outside the data area"
            )));
        }
        let off = u64::from(cluster - FIRST_CLUSTER).saturating_mul(SECTORS_PER_CLUSTER as u64);
        Ok((self.bpb.data_start as u64).saturating_add(off))
    }

    fn zero_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
    ) -> FsResult<()> {
        let zero = vec![0u8; CLUSTER_SIZE];
        let sector = self.cluster_to_sector(cluster)?;
        bc.write_range(dev, sector, SECTORS_PER_CLUSTER as u64, &zero)
    }

    /// Number of free clusters remaining.
    pub fn free_clusters(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let mut fat = FatReader::new();
        let mut free = 0;
        for c in FIRST_CLUSTER..FIRST_CLUSTER.saturating_add(self.bpb.cluster_count) {
            if fat.entry(self, dev, bc, c)? == FAT_FREE {
                free += 1;
            }
        }
        Ok(free)
    }

    // ---- cluster data I/O ------------------------------------------------------------------------

    fn read_cluster(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        out: &mut [u8],
    ) -> FsResult<()> {
        debug_assert_eq!(out.len(), CLUSTER_SIZE);
        let sector = self.cluster_to_sector(cluster)?;
        bc.read_range(dev, sector, SECTORS_PER_CLUSTER as u64, out)
    }

    // ---- directories --------------------------------------------------------------------------------

    fn read_dir_cluster_entries(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_first_cluster: u32,
    ) -> FsResult<Vec<(u32, usize, FatEntry)>> {
        // Returns (cluster, offset-within-cluster, entry).
        let mut out = Vec::new();
        for cluster in self.chain(dev, bc, dir_first_cluster)? {
            let mut buf = vec![0u8; CLUSTER_SIZE];
            self.read_cluster(dev, bc, cluster, &mut buf)?;
            for (i, raw) in buf.chunks_exact(DIRENT_SIZE).enumerate() {
                if raw[0] == 0x00 || raw[0] == 0xE5 {
                    continue; // end-of-dir sentinel / deleted; we scan everything
                }
                let mut name = [0u8; 11];
                name.copy_from_slice(&raw[..11]);
                let attr = raw[11];
                let first_cluster = u32::from_le_bytes([raw[26], raw[27], 0, 0])
                    | (u32::from_le_bytes([raw[20], raw[21], 0, 0]) << 16);
                let size = u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]);
                out.push((
                    cluster,
                    i.saturating_mul(DIRENT_SIZE),
                    FatEntry {
                        name: decode_83(&name),
                        is_dir: attr & ATTR_DIRECTORY != 0,
                        size,
                        first_cluster,
                    },
                ));
            }
        }
        Ok(out)
    }

    /// Writes one 32-byte directory entry via a read-modify-write of the
    /// single sector containing it (an entry never straddles sectors), so
    /// every dirent update is one atomic device command. Returns the sector
    /// LBA so callers can order it after the blocks the entry references.
    fn write_dirent(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        cluster: u32,
        offset: usize,
        raw: &[u8; DIRENT_SIZE],
    ) -> FsResult<u64> {
        let sector = self
            .cluster_to_sector(cluster)?
            .saturating_add((offset / BLOCK_SIZE) as u64);
        let entry_off = offset % BLOCK_SIZE;
        let mut buf = vec![0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf)?;
        buf[entry_off..entry_off + DIRENT_SIZE].copy_from_slice(raw);
        bc.write(dev, sector, &buf)?;
        bc.note_metadata(sector, 1);
        Ok(sector)
    }

    /// Encodes `entry` as a raw 32-byte 8.3 directory entry.
    fn encode_dirent(entry: &FatEntry) -> FsResult<[u8; DIRENT_SIZE]> {
        let name83 = encode_83(&entry.name)?;
        let mut raw = [0u8; DIRENT_SIZE];
        raw[..11].copy_from_slice(&name83);
        raw[11] = if entry.is_dir {
            ATTR_DIRECTORY
        } else {
            ATTR_ARCHIVE
        };
        raw[20..22].copy_from_slice(&((entry.first_cluster >> 16) as u16).to_le_bytes());
        raw[26..28].copy_from_slice(&(entry.first_cluster as u16).to_le_bytes());
        raw[28..32].copy_from_slice(&entry.size.to_le_bytes());
        Ok(raw)
    }

    /// Adds `entry` to the directory, extending its chain if no slot is
    /// free. Returns the sector holding the new dirent.
    fn dir_add_entry(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_cluster: u32,
        entry: &FatEntry,
    ) -> FsResult<u64> {
        let raw = Self::encode_dirent(entry)?;
        // Find a free slot in the existing chain.
        let chain = self.chain(dev, bc, dir_cluster)?;
        for &cluster in &chain {
            let mut buf = vec![0u8; CLUSTER_SIZE];
            self.read_cluster(dev, bc, cluster, &mut buf)?;
            for i in 0..CLUSTER_SIZE / DIRENT_SIZE {
                let off = i * DIRENT_SIZE;
                if buf[off] == 0x00 || buf[off] == 0xE5 {
                    return self.write_dirent(dev, bc, cluster, off, &raw);
                }
            }
        }
        // No free slot: extend the directory with a new cluster — a
        // multi-sector metadata update (FAT link + EOC + cluster contents +
        // dirent) that runs as its own intent-log transaction unless the
        // caller already opened one. Leaving it async would let a later
        // file's dirent-ordering edges form a cycle with the extension's
        // FAT-before-contents edge whenever they share a FAT sector.
        let last = *chain
            .last()
            .ok_or_else(|| FsError::Corrupt("empty dir chain".into()))?;
        if bc.meta_txn_active() {
            self.extend_dir_with_entry(dev, bc, last, &raw)
        } else {
            self.with_meta_txn(dev, bc, |fs, dev, bc| {
                fs.extend_dir_with_entry(dev, bc, last, &raw)
            })
        }
    }

    /// Splices a fresh cluster onto the directory chain and writes `raw` as
    /// its first dirent; returns the dirent's sector. Runs inside a
    /// metadata transaction.
    fn extend_dir_with_entry(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        last: u32,
        raw: &[u8; DIRENT_SIZE],
    ) -> FsResult<u64> {
        let newc = self.alloc_cluster(dev, bc, &mut FreeScan::start(), true, true)?;
        if let Err(e) = self.fat_set(dev, bc, last, newc) {
            self.unwind_chain(dev, bc, &[newc]);
            return Err(e);
        }
        let (link_sector, _) = self.fat_sector_of(last);
        bc.add_dependency(
            link_sector,
            1,
            self.cluster_to_sector(newc)?,
            SECTORS_PER_CLUSTER as u64,
        );
        self.write_dirent(dev, bc, newc, 0, raw)
    }

    fn dir_find(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_cluster: u32,
        name: &str,
    ) -> FsResult<(u32, usize, FatEntry)> {
        let upper = name.to_ascii_uppercase();
        self.read_dir_cluster_entries(dev, bc, dir_cluster)?
            .into_iter()
            .find(|(_, _, e)| e.name == upper)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Resolves `p` (a path inside the FAT volume) to its entry. The root
    /// resolves to a synthetic directory entry.
    pub fn lookup(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<FatEntry> {
        let mut cur = FatEntry {
            name: String::new(),
            is_dir: true,
            size: 0,
            first_cluster: self.bpb.root_cluster,
        };
        for comp in path::components(p) {
            if !cur.is_dir {
                return Err(FsError::NotADirectory(comp));
            }
            let (_, _, entry) = self.dir_find(dev, bc, cur.first_cluster, &comp)?;
            cur = entry;
        }
        Ok(cur)
    }

    /// Lists the directory at `p`.
    pub fn list_dir(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<FatEntry>> {
        let dir = self.lookup(dev, bc, p)?;
        if !dir.is_dir {
            return Err(FsError::NotADirectory(p.to_string()));
        }
        Ok(self
            .read_dir_cluster_entries(dev, bc, dir.first_cluster)?
            .into_iter()
            .map(|(_, _, e)| e)
            .collect())
    }

    /// Creates an empty file or directory at `p`.
    ///
    /// File creation is a single-sector dirent write (atomic by itself) and
    /// stays asynchronous under the ordered write-back drain. Directory
    /// creation spans the parent dirent plus the child's FAT entry and
    /// cluster — a multi-sector metadata update — so it runs as an
    /// intent-log transaction (mkdir is atomic and durable on return).
    pub fn create(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        is_dir: bool,
    ) -> FsResult<FatEntry> {
        let (parent, name) = path::split_parent(p)
            .ok_or_else(|| FsError::Invalid("cannot create FAT root".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        if !parent_entry.is_dir {
            return Err(FsError::NotADirectory(parent));
        }
        if self
            .dir_find(dev, bc, parent_entry.first_cluster, &name)
            .is_ok()
        {
            return Err(FsError::AlreadyExists(p.to_string()));
        }
        if !is_dir {
            let entry = FatEntry {
                name: name.to_ascii_uppercase(),
                is_dir: false,
                size: 0,
                first_cluster: 0,
            };
            self.dir_add_entry(dev, bc, parent_entry.first_cluster, &entry)?;
            return Ok(entry);
        }
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let first_cluster = fs.alloc_cluster(dev, bc, &mut FreeScan::start(), true, true)?;
            let entry = FatEntry {
                name: name.to_ascii_uppercase(),
                is_dir: true,
                size: 0,
                first_cluster,
            };
            let dirent_sector = match fs.dir_add_entry(dev, bc, parent_entry.first_cluster, &entry)
            {
                Ok(s) => s,
                Err(e) => {
                    fs.unwind_chain(dev, bc, &[first_cluster]);
                    return Err(e);
                }
            };
            // Belt and braces for the no-log fallback: the parent dirent
            // must follow the child's FAT entry and cluster contents.
            let (fat_sector, _) = fs.fat_sector_of(first_cluster);
            bc.add_dependency(dirent_sector, 1, fat_sector, 1);
            bc.add_dependency(
                dirent_sector,
                1,
                fs.cluster_to_sector(first_cluster)?,
                SECTORS_PER_CLUSTER as u64,
            );
            Ok(entry)
        })
    }

    /// Rewrites the dirent for `p` with a new chain head and size, returning
    /// the sector holding the entry.
    fn update_dirent_for(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        new_first_cluster: u32,
        new_size: u32,
    ) -> FsResult<u64> {
        let (parent, name) =
            path::split_parent(p).ok_or_else(|| FsError::Invalid("root has no dirent".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        let (cluster, offset, mut entry) =
            self.dir_find(dev, bc, parent_entry.first_cluster, &name)?;
        entry.first_cluster = new_first_cluster;
        entry.size = new_size;
        let raw = Self::encode_dirent(&entry)?;
        self.write_dirent(dev, bc, cluster, offset, &raw)
    }

    // ---- whole-file I/O -----------------------------------------------------------------------------

    /// Writes `data` as the complete contents of the file at `p`, creating it
    /// if necessary (existing contents are replaced).
    ///
    /// A write to a *new* (or empty) file stays fully asynchronous: the data
    /// clusters, the FAT entries and finally the dirent are dirtied in the
    /// cache with write-order dependencies (`data ≺ FAT ≺ dirent`), so the
    /// ordered drain — background or fsync — can never expose a dirent
    /// pointing at unwritten clusters; until the dirent lands, a power cut
    /// simply yields the old tree. Overwriting a file that already has a
    /// chain additionally frees old FAT entries — a multi-sector metadata
    /// update with an ordering cycle no drain order can solve — so it runs
    /// as an intent-log transaction: atomic (old or new contents, never a
    /// mix) and durable on return.
    pub fn write_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        data: &[u8],
    ) -> FsResult<()> {
        let entry = match self.lookup(dev, bc, p) {
            Ok(e) if e.is_dir => return Err(FsError::IsADirectory(p.to_string())),
            Ok(e) => e,
            Err(FsError::NotFound(_)) => self.create(dev, bc, p, false)?,
            Err(e) => return Err(e),
        };
        if entry.first_cluster == 0 {
            return self.write_new_contents(dev, bc, p, data);
        }
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            fs.rewrite_contents(dev, bc, p, entry.first_cluster, data)
        })
    }

    /// Writes `data` at byte `offset` of the file at `p`. A write at offset
    /// 0 replaces the whole file, as [`Fat32::write_file`] does; anywhere
    /// else the file is read, patched (zero-filling any gap before
    /// `offset`) and written back whole. The caller keeps
    /// `offset + data.len()` within FAT32's 4 GiB file limit.
    pub fn write_at(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        offset: u32,
        data: &[u8],
    ) -> FsResult<()> {
        if offset == 0 {
            return self.write_file(dev, bc, p, data);
        }
        let off = offset as usize;
        let end = off
            .checked_add(data.len())
            .ok_or_else(|| FsError::TooLarge(p.to_string()))?;
        let mut whole = self.read_file(dev, bc, p)?;
        whole.resize(whole.len().max(end), 0);
        whole[off..end].copy_from_slice(data);
        self.write_file(dev, bc, p, &whole)
    }

    /// The asynchronous new-file write: allocate, fill, link, then publish
    /// via the dirent, with write-order dependencies registered so the drain
    /// commits the file bottom-up.
    fn write_new_contents(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        data: &[u8],
    ) -> FsResult<()> {
        if data.is_empty() {
            self.update_dirent_for(dev, bc, p, 0, 0)?;
            return Ok(());
        }
        // Every cluster of the chain is fully overwritten below (the
        // tail is zero-padded by `write_chain_data`), so the allocation
        // skips the redundant zero fill.
        let clusters =
            self.alloc_chain(dev, bc, data.len().div_ceil(CLUSTER_SIZE), false, false)?;
        if let Err(e) = self.write_chain_data(dev, bc, &clusters, data) {
            self.unwind_chain(dev, bc, &clusters);
            return Err(e);
        }
        // data ≺ FAT: no FAT sector of the chain may land before the
        // clusters it maps.
        let data_runs = cluster_runs(&clusters);
        let fat_sectors: std::collections::BTreeSet<u64> =
            clusters.iter().map(|&c| self.fat_sector_of(c).0).collect();
        for &f in &fat_sectors {
            for &(first, count) in &data_runs {
                bc.add_dependency(
                    f,
                    1,
                    self.cluster_to_sector(first)?,
                    count as u64 * SECTORS_PER_CLUSTER as u64,
                );
            }
        }
        // FAT ≺ dirent: the entry publishing the file goes last.
        let Some(&head) = clusters.first() else {
            return Err(FsError::Invalid(
                "empty allocation for non-empty write".into(),
            ));
        };
        let dirent_sector = match self.update_dirent_for(dev, bc, p, head, data.len() as u32) {
            Ok(s) => s,
            Err(e) => {
                self.unwind_chain(dev, bc, &clusters);
                return Err(e);
            }
        };
        for &f in &fat_sectors {
            bc.add_dependency(dirent_sector, 1, f, 1);
        }
        for &(first, count) in &data_runs {
            bc.add_dependency(
                dirent_sector,
                1,
                self.cluster_to_sector(first)?,
                count as u64 * SECTORS_PER_CLUSTER as u64,
            );
        }
        Ok(())
    }

    /// Records that the FAT sectors holding a freed chain's entries must
    /// drain only after the dirent that stopped referencing the chain — the
    /// tombstone-before-frees order the no-log fallback relies on.
    fn order_frees_after_dirent(&self, bc: &mut BufCache, old_chain: &[u32], dirent_sector: u64) {
        let sectors: std::collections::BTreeSet<u64> =
            old_chain.iter().map(|&c| self.fat_sector_of(c).0).collect();
        for f in sectors {
            bc.add_dependency(f, 1, dirent_sector, 1);
        }
    }

    /// The logged overwrite: allocate + fill the new chain, swing the
    /// dirent, then free the old chain — all inside the caller's open
    /// metadata transaction. Failures before the dirent swings unwind the
    /// new allocation and leave the old file untouched. Write-order edges
    /// (`data ≺ new FAT ≺ dirent ≺ old-chain frees`) are registered as well,
    /// so even a transaction too large for the intent log keeps its safe
    /// order through the fallback flush (only torn-update atomicity is lost
    /// there, plus the shared-FAT-sector cycle case the
    /// [`crate::txn::TxnLog::commit`] docs describe).
    fn rewrite_contents(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        old_first: u32,
        data: &[u8],
    ) -> FsResult<()> {
        let old_chain = self.chain(dev, bc, old_first)?;
        if data.is_empty() {
            let dirent_sector = self.update_dirent_for(dev, bc, p, 0, 0)?;
            self.free_chain(dev, bc, &old_chain)?;
            self.order_frees_after_dirent(bc, &old_chain, dirent_sector);
            return Ok(());
        }
        // Every cluster of the chain is fully overwritten below (the
        // tail is zero-padded by `write_chain_data`), so the allocation
        // skips the redundant zero fill.
        let clusters =
            self.alloc_chain(dev, bc, data.len().div_ceil(CLUSTER_SIZE), false, false)?;
        if let Err(e) = self.write_chain_data(dev, bc, &clusters, data) {
            self.unwind_chain(dev, bc, &clusters);
            return Err(e);
        }
        let Some(&head) = clusters.first() else {
            return Err(FsError::Invalid(
                "empty allocation for non-empty write".into(),
            ));
        };
        let dirent_sector = match self.update_dirent_for(dev, bc, p, head, data.len() as u32) {
            Ok(s) => s,
            Err(e) => {
                self.unwind_chain(dev, bc, &clusters);
                return Err(e);
            }
        };
        for &(first, count) in &cluster_runs(&clusters) {
            bc.add_dependency(
                dirent_sector,
                1,
                self.cluster_to_sector(first)?,
                count as u64 * SECTORS_PER_CLUSTER as u64,
            );
        }
        let new_fat: std::collections::BTreeSet<u64> =
            clusters.iter().map(|&c| self.fat_sector_of(c).0).collect();
        for f in new_fat {
            bc.add_dependency(dirent_sector, 1, f, 1);
        }
        self.free_chain(dev, bc, &old_chain)?;
        self.order_frees_after_dirent(bc, &old_chain, dirent_sector);
        Ok(())
    }

    /// Writes `data` across the chain's clusters, merging contiguous cluster
    /// runs (the common case for a freshly allocated chain) into single
    /// multi-cluster commands.
    fn write_chain_data(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        clusters: &[u32],
        data: &[u8],
    ) -> FsResult<()> {
        let mut ci = 0usize;
        for (first, count) in cluster_runs(clusters) {
            let byte_start = ci * CLUSTER_SIZE;
            let run_bytes = count as usize * CLUSTER_SIZE;
            let mut buf = vec![0u8; run_bytes];
            let end = (byte_start + run_bytes).min(data.len());
            buf[..end - byte_start].copy_from_slice(&data[byte_start..end]);
            let sector = self.cluster_to_sector(first)?;
            bc.write_range(dev, sector, count as u64 * SECTORS_PER_CLUSTER as u64, &buf)?;
            ci += count as usize;
        }
        Ok(())
    }

    /// Reads `len` bytes of the file at `p` starting at `offset`.
    ///
    /// Contiguous cluster runs in the FAT chain are merged into single
    /// multi-cluster range reads before they reach the cache, and — when the
    /// cache's prefetch policy is on and the read continues a detected
    /// sequential stream — the next [`PREFETCH_CLUSTERS`] of the chain are
    /// range-filled ahead of demand so a streaming consumer finds them
    /// already cached.
    ///
    /// A cluster run the request covers whole is read straight into the
    /// returned buffer; only a run the request starts or ends inside goes
    /// through a scratch buffer, from which the requested part is copied.
    pub fn read_at(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        offset: u32,
        len: usize,
    ) -> FsResult<Vec<u8>> {
        let entry = self.lookup(dev, bc, p)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        if offset >= entry.size {
            return Ok(Vec::new());
        }
        let len = len.min((entry.size - offset) as usize);
        if len == 0 {
            return Ok(Vec::new());
        }
        let chain = self.chain(dev, bc, entry.first_cluster)?;
        let offset = offset as usize;
        let first_ci = offset / CLUSTER_SIZE;
        let last_ci = (offset + len - 1) / CLUSTER_SIZE;
        let needed = chain
            .get(first_ci..=last_ci)
            .ok_or_else(|| FsError::Corrupt(format!("chain too short for {p}")))?;
        let mut out = vec![0u8; len];
        let mut ci = first_ci;
        for (first, count) in cluster_runs(needed) {
            let run_bytes = count as usize * CLUSTER_SIZE;
            let run_start = ci * CLUSTER_SIZE; // file offset of the run start
            let blocks = count as u64 * SECTORS_PER_CLUSTER as u64;
            let want_start = offset.max(run_start);
            let want_end = (offset + len).min(run_start + run_bytes);
            let sector = self.cluster_to_sector(first)?;
            let want = &mut out[want_start - offset..want_end - offset];
            if want.len() == run_bytes {
                bc.read_range(dev, sector, blocks, want)?;
            } else {
                let mut buf = vec![0u8; run_bytes];
                bc.read_range(dev, sector, blocks, &mut buf)?;
                want.copy_from_slice(&buf[want_start - run_start..want_end - run_start]);
            }
            ci += count as usize;
        }
        // Streaming read-ahead: fill the next cluster run of the chain while
        // the caller consumes this one. Errors are swallowed deliberately —
        // this is speculative I/O, and a real fault will surface on the
        // demand read that eventually covers the same blocks.
        let streak = bc.sequential_streak();
        if bc.prefetch_enabled() && streak >= 1 {
            if let Some(ahead) = chain.get(last_ci + 1..) {
                // Per-stream readahead ramp: the stream slot this read just
                // extended carries its own window (8 clusters on detection,
                // doubling per continuation up to a full 128 KB run), so an
                // interleaved second stream ramps independently instead of
                // resetting this one's depth — but never more than a quarter
                // of the cache, so read-ahead cannot thrash out the demand
                // run (or itself).
                let cap_clusters = (bc.capacity_blocks() / 4 / SECTORS_PER_CLUSTER as usize).max(1);
                let window_clusters = (bc.stream_window() as usize / SECTORS_PER_CLUSTER as usize)
                    .clamp(1, MAX_PREFETCH_CLUSTERS)
                    .min(cap_clusters);
                let take = ahead.len().min(window_clusters);
                let window = &ahead[..take];
                for (first, count) in cluster_runs(window) {
                    let sector = self.cluster_to_sector(first)?;
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "read-ahead is opportunistic: a failed prefetch must not fail the demand read that triggered it"
                    )]
                    let _ =
                        bc.prefetch_range(dev, sector, count as u64 * SECTORS_PER_CLUSTER as u64);
                }
            }
        }
        Ok(out)
    }

    /// Reads the whole file at `p`.
    pub fn read_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<u8>> {
        let entry = self.lookup(dev, bc, p)?;
        self.read_at(dev, bc, p, 0, entry.size as usize)
    }

    /// Removes the file (or empty directory) at `p`, freeing its clusters.
    ///
    /// The dirent tombstone and the FAT frees span multiple sectors whose
    /// safe order (tombstone first) can cycle against concurrent creates on
    /// the same sectors, so the whole update runs as an intent-log
    /// transaction: after a power cut the entry is either fully gone or
    /// fully intact — never a surviving dirent pointing at freed clusters.
    pub fn remove(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, p: &str) -> FsResult<()> {
        let (parent, name) = path::split_parent(p)
            .ok_or_else(|| FsError::Invalid("cannot remove FAT root".into()))?;
        let parent_entry = self.lookup(dev, bc, &parent)?;
        let (cluster, offset, entry) = self.dir_find(dev, bc, parent_entry.first_cluster, &name)?;
        if entry.is_dir {
            let children = self.read_dir_cluster_entries(dev, bc, entry.first_cluster)?;
            if !children.is_empty() {
                return Err(FsError::NotEmpty(p.to_string()));
            }
        }
        // Walk the chain before touching anything: a corrupt chain fails the
        // remove and leaves the file as it was.
        let old_chain = self.chain(dev, bc, entry.first_cluster)?;
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let mut raw = [0u8; DIRENT_SIZE];
            raw[0] = 0xE5;
            let tombstone = fs.write_dirent(dev, bc, cluster, offset, &raw)?;
            fs.free_chain(dev, bc, &old_chain)?;
            // Tombstone-before-frees edges keep the no-log fallback ordered
            // for chains too large to log.
            fs.order_frees_after_dirent(bc, &old_chain, tombstone);
            Ok(())
        })
    }

    /// Renames (or moves) `from` to `to` atomically: the new dirent is
    /// added, the old one tombstoned, and both land through one intent-log
    /// transaction — after any power cut exactly one of the two names
    /// exists, always pointing at the intact chain. Fails if `to` exists.
    pub fn rename(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        from: &str,
        to: &str,
    ) -> FsResult<()> {
        let (fparent, fname) = path::split_parent(from)
            .ok_or_else(|| FsError::Invalid("cannot rename FAT root".into()))?;
        let (tparent, tname) = path::split_parent(to)
            .ok_or_else(|| FsError::Invalid("cannot rename to FAT root".into()))?;
        let src_parent = self.lookup(dev, bc, &fparent)?;
        let (src_cluster, src_offset, src_entry) =
            self.dir_find(dev, bc, src_parent.first_cluster, &fname)?;
        // Moving a directory beneath itself would detach it from the tree.
        if src_entry.is_dir {
            let from_comps = path::components(from);
            let to_comps = path::components(to);
            if to_comps.len() > from_comps.len() && to_comps[..from_comps.len()] == from_comps[..] {
                return Err(FsError::Invalid(format!(
                    "cannot move '{from}' beneath itself"
                )));
            }
        }
        let dst_parent = self.lookup(dev, bc, &tparent)?;
        if !dst_parent.is_dir {
            return Err(FsError::NotADirectory(tparent));
        }
        if self
            .dir_find(dev, bc, dst_parent.first_cluster, &tname)
            .is_ok()
        {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        // Validate the destination name before mutating anything.
        encode_83(&tname)?;
        self.with_meta_txn(dev, bc, |fs, dev, bc| {
            let new_entry = FatEntry {
                name: tname.to_ascii_uppercase(),
                ..src_entry.clone()
            };
            let new_sector = fs.dir_add_entry(dev, bc, dst_parent.first_cluster, &new_entry)?;
            let mut raw = [0u8; DIRENT_SIZE];
            raw[0] = 0xE5;
            // The source coordinates looked up before the txn stay valid:
            // the target entry only ever fills a free/tombstoned slot.
            let tombstone = fs.write_dirent(dev, bc, src_cluster, src_offset, &raw)?;
            // Fallback-defense edges: the new name lands before the old one
            // disappears, and only after the chain it points at.
            if tombstone != new_sector {
                bc.add_dependency(tombstone, 1, new_sector, 1);
            }
            if src_entry.first_cluster != 0 {
                let (f, _) = fs.fat_sector_of(src_entry.first_cluster);
                bc.add_dependency(new_sector, 1, f, 1);
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;

    fn fresh_volume() -> (MemDisk, BufCache, Fat32) {
        // 16 MB volume.
        let mut dev = MemDisk::new(32 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        (dev, bc, fs)
    }

    #[test]
    fn mkfs_then_mount_round_trips_the_bpb() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let mounted = Fat32::mount(&mut dev, &mut bc).unwrap();
        assert_eq!(mounted.bpb(), fs.bpb());
    }

    #[test]
    fn small_file_round_trips() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/hello.txt", b"hi fat32")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/hello.txt").unwrap(),
            b"hi fat32"
        );
        let entry = fs.lookup(&mut dev, &mut bc, "/hello.txt").unwrap();
        assert_eq!(entry.size, 8);
        assert!(!entry.is_dir);
    }

    #[test]
    fn multi_megabyte_file_round_trips() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 3 MB: far beyond xv6fs's 268 KB limit — the reason FAT32 exists in
        // Prototype 5.
        let data: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 253) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/doom.wad", &data)
            .unwrap();
        let back = fs.read_file(&mut dev, &mut bc, "/doom.wad").unwrap();
        assert_eq!(back.len(), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn directories_nest_and_list() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/games", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/games/mario.nes", &[1u8; 4000])
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/games/kungfu.nes", &[2u8; 5000])
            .unwrap();
        let listing = fs.list_dir(&mut dev, &mut bc, "/games").unwrap();
        let names: Vec<_> = listing.iter().map(|e| e.name.clone()).collect();
        assert!(names.contains(&"MARIO.NES".to_string()));
        assert!(names.contains(&"KUNGFU.NES".to_string()));
        assert_eq!(listing.len(), 2);
    }

    #[test]
    fn partial_reads_honour_offset_and_length() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/track1.ogg", &data)
            .unwrap();
        let mid = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 5000, 300)
            .unwrap();
        assert_eq!(&mid[..], &data[5000..5300]);
        let tail = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 19_900, 500)
            .unwrap();
        assert_eq!(tail.len(), 100);
        let past = fs
            .read_at(&mut dev, &mut bc, "/track1.ogg", 50_000, 10)
            .unwrap();
        assert!(past.is_empty());
        // Zero-length reads are a no-op, not an underflow.
        let none = fs.read_at(&mut dev, &mut bc, "/track1.ogg", 0, 0).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn overwrite_replaces_contents_and_frees_old_clusters() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/video.mpg", &vec![7u8; 200 * 1024])
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/video.mpg", b"small now")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/video.mpg").unwrap(),
            b"small now"
        );
        let free1 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        assert_eq!(free1, free0 - 1, "only one cluster remains allocated");
    }

    #[test]
    fn remove_frees_clusters_and_hides_the_file() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/tmp.bin", &vec![1u8; 64 * 1024])
            .unwrap();
        fs.remove(&mut dev, &mut bc, "/tmp.bin").unwrap();
        assert_eq!(fs.free_clusters(&mut dev, &mut bc).unwrap(), free0);
        assert!(matches!(
            fs.lookup(&mut dev, &mut bc, "/tmp.bin"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn eight_three_names_are_enforced() {
        let (mut dev, mut bc, fs) = fresh_volume();
        assert!(fs
            .write_file(&mut dev, &mut bc, "/averylongfilename.data", b"x")
            .is_err());
        assert!(fs.write_file(&mut dev, &mut bc, "/ok.txt", b"x").is_ok());
        // Lookup is case-insensitive (names are stored upper-case).
        assert!(fs.lookup(&mut dev, &mut bc, "/OK.TXT").is_ok());
        assert!(fs.lookup(&mut dev, &mut bc, "/ok.txt").is_ok());
    }

    #[test]
    fn volume_fills_up_with_no_space() {
        // Small volume: 1 MB.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        let mut i = 0;
        let result = loop {
            let r = fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/f{i}.bin"),
                &vec![0u8; 64 * 1024],
            );
            if r.is_err() {
                break r;
            }
            i += 1;
            if i > 64 {
                panic!("volume never filled");
            }
        };
        assert!(matches!(result, Err(FsError::NoSpace)));
    }

    #[test]
    fn cold_reads_coalesce_and_warm_reads_stay_in_cache() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 32 KB = 8 clusters: small enough to stay resident in the cache.
        let data = vec![9u8; 32 * 1024];
        fs.write_file(&mut dev, &mut bc, "/big.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let before = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/big.bin").unwrap(), data);
        let after = dev.stats();
        // Data clusters plus the root-directory cluster the lookup reads
        // (the retired bypass path issued exactly the same commands).
        let nclusters = data.len().div_ceil(CLUSTER_SIZE) as u64 + 1;
        assert!(
            after.range_cmds - before.range_cmds <= nclusters,
            "cold read issued {} range commands for {nclusters} clusters",
            after.range_cmds - before.range_cmds
        );
        // Warm read: everything still cached, zero device traffic.
        let mid = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/big.bin").unwrap(), data);
        let warm = dev.stats();
        assert_eq!(
            warm.single_cmds, mid.single_cmds,
            "warm read hits the cache"
        );
        assert_eq!(warm.range_cmds, mid.range_cmds);
        assert!(cold.stats().hits > 0);
    }

    #[test]
    fn unified_cache_issues_no_more_sd_commands_than_the_retired_bypass_path() {
        // The acceptance bar for retiring `bypass_bufcache`: a cold FAT32
        // range read through the unified cache must cost no more SD commands
        // than the bypass issued — one CMD18 per cluster for data, plus the
        // handful of single-block metadata reads both paths share.
        let mut sd = hal::sdhost::SdHost::new(64 * 1024);
        sd.init().unwrap();
        let data = vec![7u8; 256 * 1024];
        // Data clusters + the root-directory cluster read by the lookup —
        // the exact command budget of the seed's bypass path.
        let nclusters = data.len().div_ceil(CLUSTER_SIZE) as u64 + 1;
        {
            let mut dev = crate::block::SdBlockDevice::new(&mut sd, 0, 64 * 1024);
            let mut bc = BufCache::default();
            let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
            fs.write_file(&mut dev, &mut bc, "/doom.wad", &data)
                .unwrap();
            bc.flush(&mut dev).unwrap();
        }
        let (range_before, single_before) = (sd.range_cmds(), sd.single_block_cmds());
        let blocks_before = sd.blocks_transferred();
        let mut cold = BufCache::default();
        let stats = {
            let mut dev = crate::block::SdBlockDevice::new(&mut sd, 0, 64 * 1024);
            let fs = Fat32::mount(&mut dev, &mut cold).unwrap();
            let back = fs.read_file(&mut dev, &mut cold, "/doom.wad").unwrap();
            assert_eq!(back, data);
            cold.stats()
        };
        let range_delta = sd.range_cmds() - range_before;
        let single_delta = sd.single_block_cmds() - single_before;
        assert!(
            range_delta <= nclusters,
            "data path: {range_delta} range commands for {nclusters} clusters"
        );
        // Metadata (boot sector, FAT chain, root directory) is a handful of
        // single-block fills — the same blocks the bypass path also read.
        assert!(
            single_delta <= 16,
            "metadata path issued {single_delta} single-block commands"
        );
        // The cache's own accounting agrees with the SD host's counters,
        // modulo the one direct (uncached, by design) intent-log header
        // probe the mount performs.
        assert_eq!(stats.coalesced_ranges, range_delta);
        assert_eq!(stats.single_cmds + 1, single_delta);
        // Cluster-run coalescing merges contiguous clusters into fewer, larger
        // commands: well under one command per cluster on a contiguous file.
        assert!(
            range_delta <= nclusters.div_ceil(MAX_RUN_CLUSTERS as u64) + 2,
            "{range_delta} range commands for {nclusters} clusters"
        );
        // Every miss corresponds to exactly one block fetched from the card
        // (plus the direct intent-log header probe).
        let blocks_delta = sd.blocks_transferred() - blocks_before;
        assert_eq!(stats.misses + 1, blocks_delta);
    }

    #[test]
    fn contiguous_cluster_runs_travel_as_single_commands() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // 128 KB = 32 contiguous clusters on a fresh volume = one run.
        let data: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 241) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/run.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let before = dev.stats();
        assert_eq!(fs.read_file(&mut dev, &mut cold, "/run.bin").unwrap(), data);
        let after = dev.stats();
        // One command for the 32-cluster data run plus the root-directory
        // cluster the lookup reads — not one per cluster.
        assert!(
            after.range_cmds - before.range_cmds <= 3,
            "expected a coalesced run, got {} range commands",
            after.range_cmds - before.range_cmds
        );
    }

    #[test]
    fn fragmented_chains_split_into_per_fragment_runs() {
        let (mut dev, mut bc, fs) = fresh_volume();
        // Interleave two files so their chains fragment, then delete one.
        for i in 0..8 {
            fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/a{i}.bin"),
                &[1u8; CLUSTER_SIZE],
            )
            .unwrap();
            fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/b{i}.bin"),
                &[2u8; CLUSTER_SIZE],
            )
            .unwrap();
        }
        for i in 0..8 {
            fs.remove(&mut dev, &mut bc, &format!("/a{i}.bin")).unwrap();
        }
        // A new 8-cluster file lands in the freed (non-contiguous) holes.
        let data: Vec<u8> = (0..8 * CLUSTER_SIZE as u32)
            .map(|i| (i % 199) as u8)
            .collect();
        fs.write_file(&mut dev, &mut bc, "/frag.bin", &data)
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/frag.bin").unwrap(),
            data,
            "fragmented chain round-trips through per-fragment runs"
        );
    }

    #[test]
    fn sequential_reads_prefetch_the_next_cluster_run() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data = vec![7u8; 256 * 1024];
        fs.write_file(&mut dev, &mut bc, "/stream.bin", &data)
            .unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        cold.set_prefetch(true);
        // Stream the file in cluster-sized chunks, as a media player would.
        let mut got = Vec::new();
        let mut off = 0u32;
        loop {
            let chunk = fs
                .read_at(&mut dev, &mut cold, "/stream.bin", off, CLUSTER_SIZE)
                .unwrap();
            if chunk.is_empty() {
                break;
            }
            off += chunk.len() as u32;
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, data);
        let s = cold.stats();
        assert!(s.prefetch_cmds > 0, "prefetch issued speculative fills");
        assert!(s.prefetched_blocks > 0);
        assert!(
            s.hits >= s.prefetched_blocks,
            "prefetched blocks were consumed as hits ({} hits, {} prefetched)",
            s.hits,
            s.prefetched_blocks
        );
        // With prefetch off, the same stream issues no speculative commands.
        let mut plain = BufCache::default();
        let _ = fs.read_file(&mut dev, &mut plain, "/stream.bin").unwrap();
        assert_eq!(plain.stats().prefetch_cmds, 0);
    }

    #[test]
    fn prefetch_faults_do_not_fail_the_demand_read() {
        let (mut dev, mut bc, fs) = fresh_volume();
        let data = vec![5u8; 64 * 1024];
        fs.write_file(&mut dev, &mut bc, "/ok.bin", &data).unwrap();
        bc.flush(&mut dev).unwrap();
        let entry = fs.lookup(&mut dev, &mut bc, "/ok.bin").unwrap();
        let chain = fs.chain(&mut dev, &mut bc, entry.first_cluster).unwrap();
        // Fault a block in the *last* cluster: prefetch will trip over it
        // while earlier demand reads must still succeed.
        let bad = fs.cluster_to_sector(*chain.last().unwrap()).unwrap();
        dev.inject_fault(bad);
        let mut cold = BufCache::default();
        cold.set_prefetch(true);
        // Stream every cluster but the last: prefetch windows cross the
        // faulty block along the way, but the speculative failures are
        // swallowed and every demand read still succeeds.
        let nclusters = data.len() / CLUSTER_SIZE;
        for ci in 0..nclusters - 1 {
            let chunk = fs
                .read_at(
                    &mut dev,
                    &mut cold,
                    "/ok.bin",
                    (ci * CLUSTER_SIZE) as u32,
                    CLUSTER_SIZE,
                )
                .unwrap();
            assert_eq!(chunk, data[ci * CLUSTER_SIZE..(ci + 1) * CLUSTER_SIZE]);
        }
        // The demand read that actually covers the faulty block reports it.
        let at_fault = fs.read_at(
            &mut dev,
            &mut cold,
            "/ok.bin",
            (data.len() - CLUSTER_SIZE) as u32,
            CLUSTER_SIZE,
        );
        assert!(at_fault.is_err(), "fault surfaces on the demand read");
    }

    #[test]
    fn rename_moves_files_atomically_between_directories() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/inbox", true).unwrap();
        fs.create(&mut dev, &mut bc, "/outbox", true).unwrap();
        let data = vec![3u8; 10_000];
        fs.write_file(&mut dev, &mut bc, "/inbox/mail.txt", &data)
            .unwrap();
        fs.rename(&mut dev, &mut bc, "/inbox/mail.txt", "/outbox/sent.txt")
            .unwrap();
        assert!(matches!(
            fs.lookup(&mut dev, &mut bc, "/inbox/mail.txt"),
            Err(FsError::NotFound(_))
        ));
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/outbox/sent.txt").unwrap(),
            data
        );
        // Renaming onto an existing name is refused, as is moving a
        // directory beneath itself.
        fs.write_file(&mut dev, &mut bc, "/outbox/other.txt", b"x")
            .unwrap();
        assert!(matches!(
            fs.rename(&mut dev, &mut bc, "/outbox/other.txt", "/outbox/sent.txt"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(fs
            .rename(&mut dev, &mut bc, "/inbox", "/inbox/sub")
            .is_err());
    }

    #[test]
    fn committed_intent_log_is_replayed_on_mount() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/a.txt", b"old").unwrap();
        bc.flush(&mut dev).unwrap();
        // Hand-craft a committed record renaming the dirent sector contents:
        // capture the root dir sector, tombstone the entry in the payload.
        let root_sector = fs.cluster_to_sector(fs.bpb().root_cluster).unwrap();
        let mut sector = vec![0u8; BLOCK_SIZE];
        dev.read_block(root_sector, &mut sector).unwrap();
        sector[0] = 0xE5; // delete /a.txt
        dev.write_block(INTENT_LOG_START + 1, &sector).unwrap();
        let hdr = Fat32::intent_header(&[root_sector], &sector);
        dev.write_block(INTENT_LOG_START, &hdr).unwrap();
        // Remount: the record is replayed and cleared.
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut bc2).unwrap();
        assert!(matches!(
            fs2.lookup(&mut dev, &mut bc2, "/a.txt"),
            Err(FsError::NotFound(_))
        ));
        let mut hdr_after = vec![0u8; BLOCK_SIZE];
        dev.read_block(INTENT_LOG_START, &mut hdr_after).unwrap();
        assert_eq!(&hdr_after[0..8], &[0u8; 8], "record cleared after replay");
        // A second mount replays nothing and still succeeds.
        let mut bc3 = BufCache::default();
        Fat32::mount(&mut dev, &mut bc3).unwrap();
    }

    #[test]
    fn torn_intent_log_records_are_ignored() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/keep.txt", b"keep")
            .unwrap();
        bc.flush(&mut dev).unwrap();
        // A header whose checksum does not match its payloads (torn commit).
        let root_sector = fs.cluster_to_sector(fs.bpb().root_cluster).unwrap();
        let mut hdr = vec![0u8; BLOCK_SIZE];
        hdr[0..8].copy_from_slice(INTENT_MAGIC);
        hdr[8..12].copy_from_slice(&1u32.to_le_bytes());
        hdr[16..24].copy_from_slice(&root_sector.to_le_bytes());
        hdr[12..16].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        dev.write_block(INTENT_LOG_START, &hdr).unwrap();
        let mut bc2 = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut bc2).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut bc2, "/keep.txt").unwrap(),
            b"keep",
            "torn record ignored, old tree intact"
        );
    }

    #[test]
    fn corrupt_bpbs_fail_mount_cleanly() {
        let (mut dev, mut bc, _fs) = fresh_volume();
        bc.flush(&mut dev).unwrap();
        let mut boot = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut boot).unwrap();
        // Data area beyond the volume: total_sectors tiny.
        let mut bad = boot.clone();
        bad[32..36].copy_from_slice(&8u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Root cluster outside the data area.
        let mut bad = boot.clone();
        bad[44..48].copy_from_slice(&0x00FF_FFFF_u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Zero-length FAT.
        let mut bad = boot.clone();
        bad[36..40].copy_from_slice(&0u32.to_le_bytes());
        dev.write_block(0, &bad).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Fat32::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // The pristine boot sector still mounts.
        dev.write_block(0, &boot).unwrap();
        let mut cold = BufCache::default();
        assert!(Fat32::mount(&mut dev, &mut cold).is_ok());
    }

    #[test]
    fn failed_allocation_mid_write_unwinds_and_keeps_the_old_contents() {
        // Small volume that a big write cannot fit into.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/v.bin", b"version one")
            .unwrap();
        let free1 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        // Overwrite with more data than the volume holds: NoSpace, the old
        // contents survive, and no clusters leak.
        let huge = vec![1u8; 4 * 1024 * 1024];
        assert!(matches!(
            fs.write_file(&mut dev, &mut bc, "/v.bin", &huge),
            Err(FsError::NoSpace)
        ));
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/v.bin").unwrap(),
            b"version one"
        );
        assert_eq!(
            fs.free_clusters(&mut dev, &mut bc).unwrap(),
            free1,
            "failed overwrite leaked no clusters"
        );
        // Same for a brand-new file: nothing visible, nothing leaked.
        assert!(matches!(
            fs.write_file(&mut dev, &mut bc, "/n.bin", &huge),
            Err(FsError::NoSpace)
        ));
        assert_eq!(fs.free_clusters(&mut dev, &mut bc).unwrap(), free1);
        let entry = fs.lookup(&mut dev, &mut bc, "/n.bin").unwrap();
        assert_eq!(
            (entry.first_cluster, entry.size),
            (0, 0),
            "the created dirent still points nowhere"
        );
        let _ = free0;
    }

    #[test]
    fn group_commit_batches_txns_into_one_record() {
        let (mut dev, mut bc, mut fs) = fresh_volume();
        // Pre-create four files so every write below is a *logged*
        // overwrite (a couple of sectors each — dirent + FAT).
        for i in 0..4 {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}.bin"), b"old")
                .unwrap();
        }
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(4);
        // Three logged transactions accumulate without committing: nothing
        // reaches the medium, the group is pending.
        for i in 0..3 {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}.bin"), b"newer contents")
                .unwrap();
        }
        assert_eq!(bc.group_txns(), 3);
        assert_eq!(bc.stats().log_commits, 0);
        {
            let mut cold = BufCache::default();
            let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
            assert_eq!(
                fs2.read_file(&mut dev, &mut cold, "/f0.bin").unwrap(),
                b"old",
                "uncommitted group is cache-only — a cut now yields the old tree"
            );
        }
        // The fourth transaction closes the group: one commit record, one
        // home drain, everything durable.
        fs.write_file(&mut dev, &mut bc, "/f3.bin", b"newer contents")
            .unwrap();
        assert_eq!(bc.group_txns(), 0);
        let s = bc.stats();
        assert_eq!((s.log_txns, s.log_commits), (4, 1));
        assert_eq!(
            s.forced_meta_writes, 0,
            "the pending group never tripped the cycle escape hatch"
        );
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        for i in 0..4 {
            assert_eq!(
                fs2.read_file(&mut dev, &mut cold, &format!("/f{i}.bin"))
                    .unwrap(),
                b"newer contents"
            );
        }
    }

    #[test]
    fn pending_frees_commit_and_retry_instead_of_nospace() {
        // Nearly fill a small volume, then delete-and-rewrite while the
        // commit group is open: the freed clusters are reserved until the
        // group's record lands, so the allocator must force the pending
        // commit out and rescan instead of reporting NoSpace.
        let mut dev = MemDisk::new(2048);
        let mut bc = BufCache::default();
        let mut fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(8);
        let free = fs.free_clusters(&mut dev, &mut bc).unwrap() as usize;
        let big = vec![7u8; (free - 2) * CLUSTER_SIZE];
        fs.write_file(&mut dev, &mut bc, "/big.bin", &big).unwrap();
        fs.remove(&mut dev, &mut bc, "/big.bin").unwrap();
        assert!(bc.group_txns() > 0, "the remove pends in the open group");
        let big2 = vec![9u8; (free - 2) * CLUSTER_SIZE];
        fs.write_file(&mut dev, &mut bc, "/next.bin", &big2)
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/next.bin").unwrap(),
            big2,
            "the freed clusters were reused after the forced commit"
        );
    }

    #[test]
    fn commit_pending_forces_the_open_group_out() {
        let (mut dev, mut bc, mut fs) = fresh_volume();
        bc.flush(&mut dev).unwrap();
        fs.set_group_commit_ops(16);
        fs.create(&mut dev, &mut bc, "/a", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/f.bin", b"v1").unwrap();
        fs.write_file(&mut dev, &mut bc, "/f.bin", b"v2 is longer")
            .unwrap(); // overwrite: a second logged txn in the group
        assert_eq!(bc.group_txns(), 2);
        fs.commit_pending(&mut dev, &mut bc).unwrap();
        assert_eq!(bc.group_txns(), 0);
        assert_eq!(bc.stats().log_commits, 1);
        // Idempotent on an empty group.
        fs.commit_pending(&mut dev, &mut bc).unwrap();
        assert_eq!(bc.stats().log_commits, 1);
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let fs2 = Fat32::mount(&mut dev, &mut cold).unwrap();
        assert!(fs2.lookup(&mut dev, &mut cold, "/a").unwrap().is_dir);
        assert_eq!(
            fs2.read_file(&mut dev, &mut cold, "/f.bin").unwrap(),
            b"v2 is longer"
        );
    }

    #[test]
    fn deep_paths_resolve() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.create(&mut dev, &mut bc, "/a", true).unwrap();
        fs.create(&mut dev, &mut bc, "/a/b", true).unwrap();
        fs.create(&mut dev, &mut bc, "/a/b/c", true).unwrap();
        fs.write_file(&mut dev, &mut bc, "/a/b/c/deep.txt", b"deep")
            .unwrap();
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/a/b/c/deep.txt").unwrap(),
            b"deep"
        );
    }

    /// Cache lookups (hits + misses) so far.
    fn lookups(bc: &BufCache) -> u64 {
        let s = bc.stats();
        s.hits + s.misses
    }

    /// Writes the 2 MB `/two.bin` and returns the cache lookups it cost
    /// and its first cluster.
    fn write_two_mb(dev: &mut MemDisk, bc: &mut BufCache, fs: &Fat32) -> (u64, u32) {
        let before = lookups(bc);
        fs.write_file(dev, bc, "/two.bin", &vec![2u8; 2 << 20])
            .unwrap();
        let cost = lookups(bc) - before;
        (cost, fs.lookup(dev, bc, "/two.bin").unwrap().first_cluster)
    }

    #[test]
    fn a_chain_costs_a_few_cache_lookups_per_cluster() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/one.bin", &vec![1u8; 1 << 20])
            .unwrap();
        let (cost, first) = write_two_mb(&mut dev, &mut bc, &fs);
        let clusters = ((2 << 20) / CLUSTER_SIZE) as u64;
        // Two FAT updates per cluster (claim, link) plus about one read of
        // the scan's resume sector. A scan restarting at cluster 2 for every
        // cluster, reading a sector per entry, would cost about 500 here.
        assert!(
            cost <= 4 * clusters,
            "{cost} lookups for {clusters} clusters"
        );
        // After 8 MB more, the same write costs exactly the extra FAT
        // sectors its first scan crosses to reach free space.
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/one.bin", &vec![1u8; 1 << 20])
            .unwrap();
        for i in 0..8 {
            fs.write_file(
                &mut dev,
                &mut bc,
                &format!("/o{i}.bin"),
                &vec![3u8; 1 << 20],
            )
            .unwrap();
        }
        let (cost_later, first_later) = write_two_mb(&mut dev, &mut bc, &fs);
        let per_sector = (BLOCK_SIZE / 4) as u32;
        let extra_sectors = u64::from(first_later / per_sector - first / per_sector);
        assert!(extra_sectors > 0);
        assert_eq!(cost_later - cost, extra_sectors);
    }

    /// A FAT entry decoded straight from its cached sector, independent of
    /// [`FatReader`].
    fn raw_entry(fs: &Fat32, dev: &mut MemDisk, bc: &mut BufCache, c: u32) -> u32 {
        let (sector, off) = fs.fat_sector_of(c);
        let mut buf = [0u8; BLOCK_SIZE];
        bc.read(dev, sector, &mut buf).unwrap();
        u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) & 0x0FFF_FFFF
    }

    /// The first-fit reference for an `n`-cluster chain: each cluster
    /// rescans from cluster 2 for the first free cluster no pending free
    /// reserves, and a scan that runs out having skipped a reserved one
    /// commits (releasing every reservation) and rescans once. Returns the
    /// chain and whether it took that retry, or `None` for `NoSpace`.
    fn reference_chain(
        fs: &Fat32,
        dev: &mut MemDisk,
        bc: &mut BufCache,
        n: usize,
    ) -> Option<(Vec<u32>, bool)> {
        let all: Vec<u32> = (FIRST_CLUSTER..FIRST_CLUSTER + fs.bpb.cluster_count).collect();
        let mut free: Vec<bool> = all
            .iter()
            .map(|&c| raw_entry(fs, dev, bc, c) == FAT_FREE)
            .collect();
        let mut reserved: Vec<bool> = all.iter().map(|&c| bc.is_pending_free(c)).collect();
        let (mut chain, mut retried) = (Vec::new(), false);
        for _ in 0..n {
            let mut pick = None;
            let mut saw_reserved = false;
            for (i, &c) in all.iter().enumerate() {
                if free[i] && reserved[i] {
                    saw_reserved = true;
                } else if free[i] {
                    pick = Some((i, c));
                    break;
                }
            }
            if pick.is_none() && saw_reserved {
                retried = true;
                reserved.iter_mut().for_each(|r| *r = false);
                pick = all.iter().copied().enumerate().find(|&(i, _)| free[i]);
            }
            let (i, c) = pick?;
            free[i] = false;
            chain.push(c);
        }
        Some((chain, retried))
    }

    /// xorshift64: the seeded op stream of the equivalence test.
    fn next_rand(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Writes `len` bytes to `p` and checks the chain it got against
    /// [`reference_chain`]; returns whether the reference took the
    /// commit-and-retry path.
    fn write_matching_reference(
        fs: &Fat32,
        dev: &mut MemDisk,
        bc: &mut BufCache,
        p: &str,
        len: usize,
    ) -> bool {
        let want = reference_chain(fs, dev, bc, len.div_ceil(CLUSTER_SIZE));
        let result = fs.write_file(dev, bc, p, &vec![0x5Au8; len]);
        let Some((want, retried)) = want else {
            assert!(matches!(result, Err(FsError::NoSpace)), "{p}: {result:?}");
            return false;
        };
        result.unwrap();
        let first = fs.lookup(dev, bc, p).unwrap().first_cluster;
        assert_eq!(fs.chain(dev, bc, first).unwrap(), want, "{p}");
        retried
    }

    #[test]
    fn resumed_scans_allocate_exactly_what_a_scan_from_cluster_two_would() {
        for seed in [1u64, 7, 13, 29] {
            // 2 MB volume, group commit on: removes and overwrites leave
            // reserved clusters for later writes to skip.
            let mut dev = MemDisk::new(4096);
            let mut bc = BufCache::default();
            let mut fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
            fs.set_group_commit_ops(8);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut live: Vec<String> = Vec::new();
            for op in 0..120 {
                let r = next_rand(&mut rng);
                // A quarter removes, a quarter overwrites, half create.
                let pick = (r >> 8) as usize % live.len().max(1);
                let p = match r % 4 {
                    0 if !live.is_empty() => {
                        fs.remove(&mut dev, &mut bc, &live.swap_remove(pick))
                            .unwrap();
                        continue;
                    }
                    1 if !live.is_empty() => live[pick].clone(),
                    _ => format!("/f{op}.bin"),
                };
                let len = 1 + (r >> 16) as usize % (48 * CLUSTER_SIZE);
                write_matching_reference(&fs, &mut dev, &mut bc, &p, len);
                if !live.contains(&p) && fs.lookup(&mut dev, &mut bc, &p).is_ok() {
                    live.push(p);
                }
            }
            // Fill all but four clusters, free that file with the frees
            // pending in the open group, and write a file that fits only
            // once they commit.
            for p in live.drain(..) {
                fs.remove(&mut dev, &mut bc, &p).unwrap();
            }
            fs.commit_pending(&mut dev, &mut bc).unwrap();
            let free = fs.free_clusters(&mut dev, &mut bc).unwrap() as usize;
            let big = (free - 4) * CLUSTER_SIZE;
            write_matching_reference(&fs, &mut dev, &mut bc, "/big.bin", big);
            fs.remove(&mut dev, &mut bc, "/big.bin").unwrap();
            assert_eq!(bc.group_txns(), 1, "seed {seed}: the frees pend");
            assert!(
                write_matching_reference(&fs, &mut dev, &mut bc, "/last.bin", 8 * CLUSTER_SIZE),
                "seed {seed}: the write fit without the commit-and-retry path"
            );
        }
    }

    #[test]
    fn a_cyclic_chain_is_corrupt_and_its_remove_returns() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/loop.bin", &[4u8; 3 * CLUSTER_SIZE])
            .unwrap();
        let first = fs
            .lookup(&mut dev, &mut bc, "/loop.bin")
            .unwrap()
            .first_cluster;
        let chain = fs.chain(&mut dev, &mut bc, first).unwrap();
        // Point the second cluster back at the first: a two-cluster cycle.
        fs.fat_set(&mut dev, &mut bc, chain[1], chain[0]).unwrap();
        assert!(matches!(
            fs.read_at(&mut dev, &mut bc, "/loop.bin", 0, CLUSTER_SIZE),
            Err(FsError::Corrupt(_))
        ));
        assert!(matches!(
            fs.remove(&mut dev, &mut bc, "/loop.bin"),
            Err(FsError::Corrupt(_))
        ));
        // The failed remove walked the chain before touching anything.
        assert!(fs.lookup(&mut dev, &mut bc, "/loop.bin").is_ok());
    }

    #[test]
    fn a_chain_entry_past_the_data_area_is_corrupt() {
        let (mut dev, mut bc, fs) = fresh_volume();
        fs.write_file(&mut dev, &mut bc, "/far.bin", &[5u8; 2 * CLUSTER_SIZE])
            .unwrap();
        let first = fs
            .lookup(&mut dev, &mut bc, "/far.bin")
            .unwrap()
            .first_cluster;
        let past = FIRST_CLUSTER + fs.bpb().cluster_count + 10;
        fs.fat_set(&mut dev, &mut bc, first, past).unwrap();
        assert!(matches!(
            fs.read_file(&mut dev, &mut bc, "/far.bin"),
            Err(FsError::Corrupt(_))
        ));
    }
}
