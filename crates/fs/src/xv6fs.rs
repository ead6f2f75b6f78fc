//! The xv6-like filesystem ("xv6fs").
//!
//! Prototype 4 ports xv6's simple inode-based filesystem and runs it on the
//! ramdisk packed into the kernel image (§4.4). The design is deliberately
//! minimal: a superblock, a fixed array of on-disk inodes, a block bitmap and
//! data blocks; 1 KB filesystem blocks; 12 direct block pointers plus one
//! singly-indirect block, giving the 268 KB maximum file size the paper
//! quotes ("xv6fs only supports files up to 270KB"). All I/O goes through the
//! single-block buffer cache, one block at a time — the performance property
//! that later motivates FAT32 for multi-megabyte game assets and videos.
//!
//! The original Proto drops xv6's journalling/log layer entirely: the paper
//! excludes crash consistency as a non-goal (§5.4). This reproduction's
//! extension keeps that shape as a *fallback* — metadata blocks (inodes,
//! bitmap, indirect blocks, directory contents) are tagged for the cache's
//! dependency-ordered write-back drain, with edges ordering an inode after
//! the data and bitmap blocks it references — and then closes the gap the
//! ordered drain cannot: `mkfs` reserves a small on-volume log region
//! ([`XV6_LOG_BLOCKS`]) and the mutating path-level operations (`create`,
//! `unlink`, `truncate`, `write_file`) run as transactions through the
//! shared [`crate::txn::TxnLog`] layer. With the journal on (the default),
//! the two torn states the PR-5 ordered drain had to tolerate become
//! impossible: a dirent can no longer name a still-free inode (the dirent
//! and the child inode commit atomically, cycle-safe under the
//! transaction's pins even though they often share an on-disk block), and
//! an in-place overwrite is old-contents XOR new-contents (truncate and
//! rewrite are a single transaction). Freed blocks are reserved
//! ([`BufCache::note_pending_free`]) until their free is durable, so a cut
//! before the commit point keeps the intact old file. With the journal off
//! (`set_journal(false)`, the ablation baseline), behaviour reverts to the
//! ordered drain and its two documented torn states.

use crate::block::{BlockDevice, BLOCK_SIZE as SECTOR_SIZE};
use crate::bufcache::BufCache;
use crate::path;
use crate::txn::TxnLog;
use crate::{FsError, FsResult};

/// Filesystem block size (two 512-byte device sectors, as in modern xv6).
pub const BSIZE: usize = 1024;
/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 12;
/// Number of block pointers in the indirect block.
pub const NINDIRECT: usize = BSIZE / 4;
/// Maximum file size in blocks.
pub const MAXFILE_BLOCKS: usize = NDIRECT + NINDIRECT;
/// Maximum file size in bytes (the "270 KB" limit of the paper).
pub const MAXFILE_BYTES: usize = MAXFILE_BLOCKS * BSIZE;
/// Maximum length of a directory-entry name.
pub const DIRSIZ: usize = 27;
/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 64;
/// Inodes per filesystem block.
pub const IPB: usize = BSIZE / INODE_SIZE;
/// Bytes per directory entry.
pub const DIRENT_SIZE: usize = 32;
/// Magic number in the superblock.
pub const FSMAGIC: u32 = 0x10203040;
/// Read-ahead window for a detected sequential xv6fs stream, in 1 KB file
/// blocks (32 KB — modest, since ramdisk-backed xv6fs gains less from
/// overlap than the SD-backed FAT volume).
pub const XV6_READAHEAD_BLOCKS: usize = 32;

/// Root directory inode number.
pub const ROOT_INUM: u32 = 1;

/// Filesystem blocks `mkfs` reserves for the transaction log (32 sectors:
/// one header plus 31 payload sectors — comfortably above the handful of
/// metadata sectors any single xv6fs operation touches).
pub const XV6_LOG_BLOCKS: u32 = 16;

/// On-disk inode types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeType {
    /// Unallocated.
    Free,
    /// Directory.
    Dir,
    /// Regular file.
    File,
}

impl InodeType {
    fn to_u16(self) -> u16 {
        match self {
            InodeType::Free => 0,
            InodeType::Dir => 1,
            InodeType::File => 2,
        }
    }
    fn from_u16(v: u16) -> FsResult<Self> {
        match v {
            0 => Ok(InodeType::Free),
            1 => Ok(InodeType::Dir),
            2 => Ok(InodeType::File),
            _ => Err(FsError::Corrupt(format!("bad inode type {v}"))),
        }
    }
}

/// File metadata returned by [`Xv6Fs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub inum: u32,
    /// File or directory.
    pub itype: InodeType,
    /// Link count.
    pub nlink: u16,
    /// Size in bytes.
    pub size: u32,
}

/// A directory entry as returned by [`Xv6Fs::list_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number.
    pub inum: u32,
    /// Entry name.
    pub name: String,
}

/// The on-disk superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// Magic number ([`FSMAGIC`]).
    pub magic: u32,
    /// Total filesystem size in blocks.
    pub size: u32,
    /// Number of inodes.
    pub ninodes: u32,
    /// First block of the transaction log region (0 when the volume
    /// carries no log).
    pub logstart: u32,
    /// Blocks in the transaction log region (0 when the volume carries no
    /// log — journalling is then permanently unavailable on this volume).
    pub nlog: u32,
    /// First block of the inode area.
    pub inodestart: u32,
    /// First block of the free bitmap.
    pub bmapstart: u32,
    /// First data block.
    pub datastart: u32,
}

impl SuperBlock {
    fn encode(&self) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[0..4].copy_from_slice(&self.magic.to_le_bytes());
        b[4..8].copy_from_slice(&self.size.to_le_bytes());
        b[8..12].copy_from_slice(&self.ninodes.to_le_bytes());
        b[12..16].copy_from_slice(&self.logstart.to_le_bytes());
        b[16..20].copy_from_slice(&self.nlog.to_le_bytes());
        b[20..24].copy_from_slice(&self.inodestart.to_le_bytes());
        b[24..28].copy_from_slice(&self.bmapstart.to_le_bytes());
        b[28..32].copy_from_slice(&self.datastart.to_le_bytes());
        b
    }
    fn decode(b: &[u8]) -> FsResult<Self> {
        let rd = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        let sb = SuperBlock {
            magic: rd(0),
            size: rd(4),
            ninodes: rd(8),
            logstart: rd(12),
            nlog: rd(16),
            inodestart: rd(20),
            bmapstart: rd(24),
            datastart: rd(28),
        };
        if sb.magic != FSMAGIC {
            return Err(FsError::Corrupt("bad xv6fs magic".into()));
        }
        Ok(sb)
    }
}

/// An in-memory copy of an on-disk inode.
#[derive(Debug, Clone)]
struct DiskInode {
    itype: InodeType,
    nlink: u16,
    size: u32,
    addrs: [u32; NDIRECT + 1],
}

impl DiskInode {
    fn empty() -> Self {
        DiskInode {
            itype: InodeType::Free,
            nlink: 0,
            size: 0,
            addrs: [0; NDIRECT + 1],
        }
    }
    fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0..2].copy_from_slice(&self.itype.to_u16().to_le_bytes());
        b[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        b[4..8].copy_from_slice(&self.size.to_le_bytes());
        for (i, a) in self.addrs.iter().enumerate() {
            let o = 8 + i * 4;
            b[o..o + 4].copy_from_slice(&a.to_le_bytes());
        }
        b
    }
    fn decode(b: &[u8]) -> FsResult<Self> {
        let itype = InodeType::from_u16(u16::from_le_bytes([b[0], b[1]]))?;
        let nlink = u16::from_le_bytes([b[2], b[3]]);
        let size = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let mut addrs = [0u32; NDIRECT + 1];
        for (i, a) in addrs.iter_mut().enumerate() {
            let o = 8 + i * 4;
            *a = u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
        }
        Ok(DiskInode {
            itype,
            nlink,
            size,
            addrs,
        })
    }
}

/// One filesystem block held across a scan, so a scan of bitmap bits or
/// on-disk inodes reads each block through the cache once per pass instead
/// of once per bit or inode. A holder lives for one scan, which writes
/// nothing it holds before it ends.
#[derive(Default)]
struct HeldBlock {
    /// The block held in `data`, if any.
    blockno: Option<u32>,
    data: Vec<u8>,
}

impl HeldBlock {
    /// Block `blockno`, read through the cache unless it is the one held.
    fn get(
        &mut self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        blockno: u32,
    ) -> FsResult<&[u8]> {
        if self.blockno != Some(blockno) {
            self.blockno = None;
            self.data = Xv6Fs::read_fs_block(dev, bc, blockno)?;
            self.blockno = Some(blockno);
        }
        Ok(&self.data)
    }
}

/// The mounted filesystem handle. Methods take the backing device and buffer
/// cache explicitly, since both are owned by the kernel.
#[derive(Debug, Clone)]
pub struct Xv6Fs {
    sb: SuperBlock,
    /// Handle on the shared transaction layer (geometry from the
    /// superblock's log region; disabled when the volume carries none).
    txn: TxnLog,
}

impl Xv6Fs {
    // ---- block-level helpers --------------------------------------------------------

    fn read_fs_block(
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        blockno: u32,
    ) -> FsResult<Vec<u8>> {
        let mut out = vec![0u8; BSIZE];
        let (first, _) = Self::block_lbas(blockno);
        for (lba, sector) in (first..).zip(out.chunks_exact_mut(SECTOR_SIZE)) {
            bc.read(dev, lba, sector)?;
        }
        Ok(out)
    }

    fn write_fs_block(
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        blockno: u32,
        data: &[u8],
    ) -> FsResult<()> {
        debug_assert_eq!(data.len(), BSIZE);
        let sectors_per_block = BSIZE / SECTOR_SIZE;
        for s in 0..sectors_per_block {
            let lba = blockno as u64 * sectors_per_block as u64 + s as u64;
            bc.write(dev, lba, &data[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE])?;
        }
        Ok(())
    }

    /// Like [`Self::write_fs_block`], but classifies the block as metadata
    /// for the cache's ordered write-back drain (superblock, inodes, bitmap,
    /// indirect blocks, directory contents).
    fn write_meta_fs_block(
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        blockno: u32,
        data: &[u8],
    ) -> FsResult<()> {
        Self::write_fs_block(dev, bc, blockno, data)?;
        let (lba, n) = Self::block_lbas(blockno);
        bc.note_metadata(lba, n);
        Ok(())
    }

    /// The sector run backing one 1 KB filesystem block.
    fn block_lbas(blockno: u32) -> (u64, u64) {
        let spb = (BSIZE / SECTOR_SIZE) as u64;
        (blockno as u64 * spb, spb)
    }

    /// The sector run backing the inode block that holds `inum`.
    fn inode_lbas(&self, inum: u32) -> (u64, u64) {
        Self::block_lbas(self.sb.inodestart.saturating_add(inum / IPB as u32))
    }

    /// The sector run backing the bitmap block that covers `blockno`.
    fn bitmap_lbas(&self, blockno: u32) -> (u64, u64) {
        Self::block_lbas(self.bitmap_bit(blockno).0)
    }

    /// Where `blockno`'s bit lives: the bitmap block, the byte within it
    /// and the bit's mask.
    fn bitmap_bit(&self, blockno: u32) -> (u32, usize, u8) {
        let bits_per_block = (BSIZE * 8) as u32;
        let bit = (blockno % bits_per_block) as usize;
        (
            self.sb.bmapstart + blockno / bits_per_block,
            bit / 8,
            1u8 << (bit % 8),
        )
    }

    // ---- formatting and mounting -----------------------------------------------------

    /// Formats a fresh filesystem with `total_blocks` 1 KB blocks and
    /// `ninodes` inodes, creating an empty root directory.
    pub fn mkfs(
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        total_blocks: u32,
        ninodes: u32,
    ) -> FsResult<Xv6Fs> {
        let device_fs_blocks = (dev.num_blocks() as usize * SECTOR_SIZE / BSIZE) as u32;
        if total_blocks > device_fs_blocks {
            return Err(FsError::Invalid(format!(
                "requested {total_blocks} blocks but device holds {device_fs_blocks}"
            )));
        }
        let ninodeblocks = ninodes.div_ceil(IPB as u32);
        let nbitmap = total_blocks.div_ceil((BSIZE * 8) as u32);
        let logstart = 1;
        let nlog = XV6_LOG_BLOCKS;
        let inodestart = logstart + nlog;
        let bmapstart = inodestart + ninodeblocks;
        let datastart = bmapstart + nbitmap;
        if datastart >= total_blocks {
            return Err(FsError::Invalid("filesystem too small for metadata".into()));
        }
        let sb = SuperBlock {
            magic: FSMAGIC,
            size: total_blocks,
            ninodes,
            logstart,
            nlog,
            inodestart,
            bmapstart,
            datastart,
        };
        // Zero metadata blocks (the log region included: a zero header is
        // "no committed record").
        let zero = vec![0u8; BSIZE];
        for b in 0..datastart {
            Self::write_meta_fs_block(dev, bc, b, &zero)?;
        }
        // Write superblock.
        let mut sb_block = vec![0u8; BSIZE];
        sb_block[..32].copy_from_slice(&sb.encode());
        Self::write_meta_fs_block(dev, bc, 0, &sb_block)?;
        // Mark metadata blocks as allocated in the bitmap.
        let fs = Xv6Fs {
            sb,
            txn: Self::make_txn(&sb),
        };
        for b in 0..datastart {
            fs.bitmap_set(dev, bc, b, true)?;
        }
        // Create the root directory (inode 1; inode 0 is reserved/unused).
        let mut root = DiskInode::empty();
        root.itype = InodeType::Dir;
        root.nlink = 1;
        fs.write_inode(dev, bc, ROOT_INUM, &root)?;
        Ok(fs)
    }

    /// Mounts an existing filesystem by reading (and validating) its
    /// superblock. A corrupt superblock surfaces as [`FsError::Corrupt`] —
    /// remounting the surviving half of a power-cut image must never panic
    /// or trigger absurd allocations.
    pub fn mount(dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<Xv6Fs> {
        let block = Self::read_fs_block(dev, bc, 0)?;
        let sb = SuperBlock::decode(&block[..32])?;
        let device_fs_blocks = (dev.num_blocks() as usize * SECTOR_SIZE / BSIZE) as u32;
        if sb.size == 0 || sb.size > device_fs_blocks {
            return Err(FsError::Corrupt(format!(
                "superblock claims {} blocks but the device holds {device_fs_blocks}",
                sb.size
            )));
        }
        if sb.ninodes == 0 {
            return Err(FsError::Corrupt("superblock has no inodes".into()));
        }
        let ninodeblocks = sb.ninodes.div_ceil(IPB as u32);
        let log_end = if sb.nlog == 0 {
            // A log-less volume (nlog == 0): the inode area may start right
            // after the superblock.
            1
        } else {
            match sb.logstart.checked_add(sb.nlog) {
                Some(end) if sb.logstart >= 1 => end,
                _ => {
                    return Err(FsError::Corrupt(
                        "superblock log region overflows or starts at 0".into(),
                    ))
                }
            }
        };
        let valid_layout = sb.inodestart >= log_end
            && sb
                .inodestart
                .checked_add(ninodeblocks)
                .is_some_and(|end| end <= sb.bmapstart)
            && sb.bmapstart < sb.datastart
            && sb.datastart < sb.size;
        if !valid_layout {
            return Err(FsError::Corrupt(
                "superblock layout regions overlap or exceed the volume".into(),
            ));
        }
        let fs = Xv6Fs {
            sb,
            txn: Self::make_txn(&sb),
        };
        // Repair a power cut that fell after a commit point: redo the
        // committed record's home writes (idempotent), or ignore a torn /
        // stale record. Runs even if the caller later disables the journal,
        // so a committed record from an earlier life is never dropped.
        if fs.txn.enabled() {
            fs.txn.replay(dev, bc)?;
        }
        Ok(fs)
    }

    /// The [`TxnLog`] handle over the superblock's log region, in device
    /// sectors (the transaction layer, like the cache, speaks 512-byte
    /// sectors — not 1 KB filesystem blocks).
    fn make_txn(sb: &SuperBlock) -> TxnLog {
        let spb = (BSIZE / SECTOR_SIZE) as u64;
        let mut txn = TxnLog::new(
            sb.logstart as u64 * spb,
            sb.nlog as u64 * spb,
            sb.size as u64 * spb,
        );
        txn.set_enabled(sb.nlog > 0);
        txn
    }

    /// Enables or disables journalled metadata transactions (the
    /// crash-consistency ablation switch; `Xv6Baseline` turns it off). On a
    /// volume formatted without a log region this is permanently off.
    pub fn set_journal(&mut self, on: bool) {
        self.txn.set_enabled(on && self.sb.nlog > 0);
    }

    /// Whether metadata operations commit through the transaction log.
    pub fn journal_enabled(&self) -> bool {
        self.txn.enabled()
    }

    /// Forces the open commit group's record to the device (a no-op when no
    /// group is open). The kernel's barriers call this before flushing the
    /// root cache, mirroring FAT32's `commit_pending`.
    pub fn commit_pending(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<()> {
        self.txn.commit_pending(dev, bc)
    }

    /// The superblock of the mounted filesystem.
    pub fn superblock(&self) -> SuperBlock {
        self.sb
    }

    // ---- bitmap ------------------------------------------------------------------------

    fn bitmap_set(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        blockno: u32,
        used: bool,
    ) -> FsResult<()> {
        let (bmap_block, byte, mask) = self.bitmap_bit(blockno);
        let mut data = Self::read_fs_block(dev, bc, bmap_block)?;
        if used {
            data[byte] |= mask;
        } else {
            data[byte] &= !mask;
        }
        Self::write_meta_fs_block(dev, bc, bmap_block, &data)
    }

    /// Whether `blockno` is marked in use, read through `bits` — the one
    /// place a bitmap bit is decoded.
    fn bitmap_get(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        bits: &mut HeldBlock,
        blockno: u32,
    ) -> FsResult<bool> {
        let (bmap_block, byte, mask) = self.bitmap_bit(blockno);
        Ok(bits.get(dev, bc, bmap_block)?[byte] & mask != 0)
    }

    /// Allocates and zeroes the first free data block no pending free
    /// reserves. Each scan reads every bitmap block once; every block below
    /// the scan's position is in use or reserved, so the scan picks exactly
    /// the block a bit-by-bit walk from `datastart` would.
    fn balloc(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let b = match self.find_free_block(dev, bc)? {
            (Some(b), _) => b,
            (None, true) => {
                // Out of space only because freed blocks are still fenced
                // behind an undurable free. Commit the journal group (making
                // the frees durable), drain any remaining ordered frees, and
                // rescan.
                self.txn.commit_pending(dev, bc)?;
                if bc.has_pending_frees() {
                    bc.flush(dev)?;
                }
                self.find_free_block(dev, bc)?.0.ok_or(FsError::NoSpace)?
            }
            (None, false) => return Err(FsError::NoSpace),
        };
        self.bitmap_set(dev, bc, b, true)?;
        // Zero freshly allocated blocks, as xv6 does.
        Self::write_fs_block(dev, bc, b, &vec![0u8; BSIZE])?;
        Ok(b)
    }

    /// First-fit scan of the bitmap from `datastart`: the first free block
    /// no pending free reserves, and whether the scan skipped a reserved
    /// one.
    fn find_free_block(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
    ) -> FsResult<(Option<u32>, bool)> {
        let mut bits = HeldBlock::default();
        let mut skipped_reserved = false;
        for b in self.sb.datastart..self.sb.size {
            // Blocks freed by a not-yet-durable transaction must not be
            // recycled: a crash after the reuse but before the free commits
            // would leave the old file's metadata pointing at clobbered data.
            if bc.is_pending_free(b) {
                skipped_reserved = true;
                continue;
            }
            if !self.bitmap_get(dev, bc, &mut bits, b)? {
                return Ok((Some(b), skipped_reserved));
            }
        }
        Ok((None, skipped_reserved))
    }

    fn bfree(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, blockno: u32) -> FsResult<()> {
        self.bitmap_set(dev, bc, blockno, false)?;
        // Fence the block against reallocation until the free is durable
        // (journal commit, or cache flush when the journal is off).
        bc.note_pending_free(blockno);
        Ok(())
    }

    /// Number of free data blocks remaining (used by `/proc` style reporting
    /// and the no-space tests).
    pub fn free_blocks(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let mut bits = HeldBlock::default();
        let mut free = 0;
        for b in self.sb.datastart..self.sb.size {
            if !self.bitmap_get(dev, bc, &mut bits, b)? {
                free += 1;
            }
        }
        Ok(free)
    }

    // ---- inodes ------------------------------------------------------------------------

    fn read_inode(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
    ) -> FsResult<DiskInode> {
        self.read_inode_via(dev, bc, &mut HeldBlock::default(), inum)
    }

    /// [`Self::read_inode`] through `inodes`, so a scan reads each inode
    /// block once — the one place an on-disk inode is decoded.
    fn read_inode_via(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inodes: &mut HeldBlock,
        inum: u32,
    ) -> FsResult<DiskInode> {
        let (block, off) = self.checked_inode_slot(inum)?;
        DiskInode::decode(&inodes.get(dev, bc, block)?[off..off + INODE_SIZE])
    }

    /// The inode block holding `inum` and the inode's offset within it.
    fn checked_inode_slot(&self, inum: u32) -> FsResult<(u32, usize)> {
        if inum == 0 || inum >= self.sb.ninodes {
            return Err(FsError::Invalid(format!("bad inode number {inum}")));
        }
        Ok((
            self.sb.inodestart + inum / IPB as u32,
            (inum as usize % IPB) * INODE_SIZE,
        ))
    }

    fn write_inode(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
        ino: &DiskInode,
    ) -> FsResult<()> {
        let (block, off) = self.checked_inode_slot(inum)?;
        let mut data = Self::read_fs_block(dev, bc, block)?;
        data[off..off + INODE_SIZE].copy_from_slice(&ino.encode());
        Self::write_meta_fs_block(dev, bc, block, &data)
    }

    /// Allocates the first free inode. The scan reads each inode block
    /// once; every inode below its position is in use.
    fn ialloc(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        itype: InodeType,
    ) -> FsResult<u32> {
        let mut inodes = HeldBlock::default();
        for inum in 1..self.sb.ninodes {
            let ino = self.read_inode_via(dev, bc, &mut inodes, inum)?;
            if ino.itype == InodeType::Free {
                let mut fresh = DiskInode::empty();
                fresh.itype = itype;
                fresh.nlink = 1;
                self.write_inode(dev, bc, inum, &fresh)?;
                return Ok(inum);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Maps a file block index of inode `inum` to a disk block, allocating
    /// it if `alloc`. Allocations register write-order dependencies with the
    /// cache: the inode (and indirect block) referencing a fresh block must
    /// not reach the device before the bitmap marks it allocated and before
    /// the block itself — so a power cut never exposes an inode pointing at
    /// unwritten or free-in-bitmap blocks.
    fn bmap(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        ino: &mut DiskInode,
        inum: u32,
        file_block: usize,
        alloc: bool,
    ) -> FsResult<u32> {
        let (ino_lba, ino_n) = self.inode_lbas(inum);
        if file_block < NDIRECT {
            if ino.addrs[file_block] == 0 {
                if !alloc {
                    return Ok(0);
                }
                let b = self.balloc(dev, bc)?;
                ino.addrs[file_block] = b;
                let (bm_lba, bm_n) = self.bitmap_lbas(b);
                bc.add_dependency(ino_lba, ino_n, bm_lba, bm_n);
            }
            return Ok(ino.addrs[file_block]);
        }
        let idx = file_block - NDIRECT;
        if idx >= NINDIRECT {
            return Err(FsError::TooLarge(format!(
                "file block {file_block} exceeds xv6fs maximum of {MAXFILE_BLOCKS} blocks"
            )));
        }
        if ino.addrs[NDIRECT] == 0 {
            if !alloc {
                return Ok(0);
            }
            let b = self.balloc(dev, bc)?;
            ino.addrs[NDIRECT] = b;
            let (bm_lba, bm_n) = self.bitmap_lbas(b);
            bc.add_dependency(ino_lba, ino_n, bm_lba, bm_n);
        }
        let ind_block = ino.addrs[NDIRECT];
        let (ind_lba, ind_n) = Self::block_lbas(ind_block);
        bc.add_dependency(ino_lba, ino_n, ind_lba, ind_n);
        let mut ind = Self::read_fs_block(dev, bc, ind_block)?;
        let off = idx * 4;
        let mut ptr = u32::from_le_bytes([ind[off], ind[off + 1], ind[off + 2], ind[off + 3]]);
        if ptr == 0 {
            if !alloc {
                return Ok(0);
            }
            ptr = self.balloc(dev, bc)?;
            ind[off..off + 4].copy_from_slice(&ptr.to_le_bytes());
            Self::write_meta_fs_block(dev, bc, ind_block, &ind)?;
            let (bm_lba, bm_n) = self.bitmap_lbas(ptr);
            bc.add_dependency(ind_lba, ind_n, bm_lba, bm_n);
            let (ptr_lba, ptr_n) = Self::block_lbas(ptr);
            bc.add_dependency(ind_lba, ind_n, ptr_lba, ptr_n);
        }
        Ok(ptr)
    }

    // ---- file read / write --------------------------------------------------------------

    /// Reads up to `buf.len()` bytes from inode `inum` starting at `offset`.
    /// Returns the number of bytes read (0 at or past end of file).
    ///
    /// Contiguous disk-block runs in the inode's block map are merged into
    /// single range reads before they reach the cache — the same coalescing
    /// FAT32's cluster runs get — which both amortises per-command cost and
    /// makes sequential xv6fs streams visible to the cache's stream table
    /// ([`BufCache::sequential_streak`]). When the cache's prefetch policy
    /// is on and this read continues a detected stream, the next
    /// [`XV6_READAHEAD_BLOCKS`] file blocks are range-filled ahead of
    /// demand, so the second filesystem benefits from read-ahead too.
    pub fn read(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
        offset: u32,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        let mut ino = self.read_inode(dev, bc, inum)?;
        if ino.itype == InodeType::Free {
            return Err(FsError::NotFound(format!("inode {inum} is free")));
        }
        if offset >= ino.size {
            return Ok(0);
        }
        let to_read = buf.len().min((ino.size - offset) as usize);
        if to_read == 0 {
            return Ok(0);
        }
        let offset = offset as usize;
        let first_fb = offset / BSIZE;
        let last_fb = (offset + to_read - 1) / BSIZE;
        // Map the whole span up front so contiguous disk blocks coalesce.
        let mut map: Vec<u32> = Vec::with_capacity(last_fb - first_fb + 1);
        for fb in first_fb..=last_fb {
            map.push(self.bmap(dev, bc, &mut ino, inum, fb, false)?);
        }
        let mut idx = 0usize;
        while idx < map.len() {
            let fb = first_fb + idx;
            // File-byte window this step serves, clipped to the request.
            let copy_into = |buf: &mut [u8], run_bytes: &[u8], run_start: usize| {
                let want_start = offset.max(run_start);
                let want_end = (offset + to_read).min(run_start + run_bytes.len());
                buf[want_start - offset..want_end - offset]
                    .copy_from_slice(&run_bytes[want_start - run_start..want_end - run_start]);
            };
            if map[idx] == 0 {
                // Hole: reads as zero.
                let zero = vec![0u8; BSIZE];
                copy_into(buf, &zero, fb * BSIZE);
                idx += 1;
                continue;
            }
            let mut len = 1usize;
            while idx + len < map.len() && map[idx + len] == map[idx] + len as u32 {
                len += 1;
            }
            let (lba, spb) = Self::block_lbas(map[idx]);
            let mut run = vec![0u8; len * BSIZE];
            bc.read_range(dev, lba, len as u64 * spb, &mut run)?;
            copy_into(buf, &run, fb * BSIZE);
            idx += len;
        }
        // Streaming read-ahead, reusing the cache's stream table: fill the
        // next window of the file while the caller consumes this one.
        // Errors are swallowed deliberately — speculative I/O; a real fault
        // surfaces on the demand read that covers the same blocks.
        if bc.prefetch_enabled() && bc.sequential_streak() >= 1 {
            let mut ahead: Vec<u32> = Vec::new();
            for fb in last_fb + 1..last_fb + 1 + XV6_READAHEAD_BLOCKS {
                if (fb * BSIZE) as u64 >= ino.size as u64 {
                    break;
                }
                match self.bmap(dev, bc, &mut ino, inum, fb, false) {
                    Ok(b) if b != 0 => ahead.push(b),
                    _ => break,
                }
            }
            let mut i = 0usize;
            while i < ahead.len() {
                let mut len = 1usize;
                while i + len < ahead.len() && ahead[i + len] == ahead[i] + len as u32 {
                    len += 1;
                }
                let (lba, spb) = Self::block_lbas(ahead[i]);
                let _ = bc.prefetch_range(dev, lba, len as u64 * spb);
                i += len;
            }
        }
        Ok(to_read)
    }

    /// Writes `data` to inode `inum` starting at `offset`, growing the file
    /// as needed (up to [`MAXFILE_BYTES`]). Returns bytes written.
    pub fn write(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
        offset: u32,
        data: &[u8],
    ) -> FsResult<usize> {
        let mut ino = self.read_inode(dev, bc, inum)?;
        if ino.itype == InodeType::Free {
            return Err(FsError::NotFound(format!("inode {inum} is free")));
        }
        let end = offset as usize + data.len();
        if end > MAXFILE_BYTES {
            return Err(FsError::TooLarge(format!(
                "write to {end} bytes exceeds xv6fs limit of {MAXFILE_BYTES}"
            )));
        }
        let is_dir = ino.itype == InodeType::Dir;
        let (ino_lba, ino_n) = self.inode_lbas(inum);
        let mut touched_blocks: Vec<u32> = Vec::new();
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset as usize + done;
            let fb = pos / BSIZE;
            let in_block = pos % BSIZE;
            let chunk = (BSIZE - in_block).min(data.len() - done);
            let disk_block = self.bmap(dev, bc, &mut ino, inum, fb, true)?;
            let mut block = Self::read_fs_block(dev, bc, disk_block)?;
            block[in_block..in_block + chunk].copy_from_slice(&data[done..done + chunk]);
            if is_dir {
                // Directory contents are dirents — metadata to the ordered
                // drain.
                Self::write_meta_fs_block(dev, bc, disk_block, &block)?;
            } else {
                Self::write_fs_block(dev, bc, disk_block, &block)?;
            }
            touched_blocks.push(disk_block);
            done += chunk;
        }
        // The inode (size, addrs) must not land before the contents it
        // points at. Register the edges once, with adjacent blocks merged
        // into runs, so a large write records a handful of dependencies
        // instead of one per kilobyte.
        touched_blocks.sort_unstable();
        touched_blocks.dedup();
        let mut run_start: Option<(u32, u32)> = None;
        for &b in &touched_blocks {
            match run_start {
                Some((first, len)) if first + len == b => run_start = Some((first, len + 1)),
                Some((first, len)) => {
                    let (lba, n) = Self::block_lbas(first);
                    bc.add_dependency(ino_lba, ino_n, lba, len as u64 * n);
                    run_start = Some((b, 1));
                }
                None => run_start = Some((b, 1)),
            }
        }
        if let Some((first, len)) = run_start {
            let (lba, n) = Self::block_lbas(first);
            bc.add_dependency(ino_lba, ino_n, lba, len as u64 * n);
        }
        if end as u32 > ino.size {
            ino.size = end as u32;
        }
        self.write_inode(dev, bc, inum, &ino)?;
        Ok(done)
    }

    /// Returns metadata for inode `inum`.
    pub fn stat(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, inum: u32) -> FsResult<Stat> {
        let ino = self.read_inode(dev, bc, inum)?;
        Ok(Stat {
            inum,
            itype: ino.itype,
            nlink: ino.nlink,
            size: ino.size,
        })
    }

    // ---- directories -----------------------------------------------------------------------

    fn dir_entries(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_inum: u32,
    ) -> FsResult<Vec<DirEntry>> {
        let ino = self.read_inode(dev, bc, dir_inum)?;
        if ino.itype != InodeType::Dir {
            return Err(FsError::NotADirectory(format!("inode {dir_inum}")));
        }
        if ino.size as usize > MAXFILE_BYTES {
            // A corrupt inode must not drive a multi-gigabyte allocation
            // while walking a remounted tree.
            return Err(FsError::Corrupt(format!(
                "directory inode {dir_inum} claims impossible size {}",
                ino.size
            )));
        }
        let mut raw = vec![0u8; ino.size as usize];
        self.read(dev, bc, dir_inum, 0, &mut raw)?;
        let mut out = Vec::new();
        for chunk in raw.chunks_exact(DIRENT_SIZE) {
            let inum = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            if inum == 0 {
                continue;
            }
            let name_bytes: Vec<u8> = chunk[4..4 + DIRSIZ]
                .iter()
                .copied()
                .take_while(|b| *b != 0)
                .collect();
            out.push(DirEntry {
                inum,
                name: String::from_utf8_lossy(&name_bytes).into_owned(),
            });
        }
        Ok(out)
    }

    fn dir_add(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_inum: u32,
        name: &str,
        child_inum: u32,
    ) -> FsResult<()> {
        if !path::valid_name(name) || name.len() > DIRSIZ {
            return Err(FsError::Invalid(format!("bad file name '{name}'")));
        }
        let ino = self.read_inode(dev, bc, dir_inum)?;
        // Find a free slot (inum == 0) or append.
        let mut raw = vec![0u8; ino.size as usize];
        self.read(dev, bc, dir_inum, 0, &mut raw)?;
        let mut slot_offset = ino.size;
        for (i, chunk) in raw.chunks_exact(DIRENT_SIZE).enumerate() {
            let inum = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            if inum == 0 {
                slot_offset = (i * DIRENT_SIZE) as u32;
                break;
            }
        }
        let mut ent = [0u8; DIRENT_SIZE];
        ent[0..4].copy_from_slice(&child_inum.to_le_bytes());
        ent[4..4 + name.len()].copy_from_slice(name.as_bytes());
        self.write(dev, bc, dir_inum, slot_offset, &ent)?;
        // Journal off: no dirent → child-inode ordering edge is recorded.
        // The parent directory's inode shares its on-disk block with most
        // child inodes (16 inodes per block), and the parent inode must
        // follow the dirent content it sizes — a same-block cycle no drain
        // order can satisfy. Unjournaled xv6fs therefore tolerates the one
        // benign torn state a cut can leave: a dirent naming a still-free
        // inode, which every reader reports as a clean `NotFound`.
        //
        // Journal on: the whole op replays atomically from the log, so the
        // cycle is harmless — `clear_dependencies` severs it at commit, and
        // until then the transaction pin keeps both blocks cached. Recording
        // the edge keeps a pre-commit writeback from publishing the dirent
        // ahead of the child inode it names.
        if self.txn.enabled() && bc.meta_txn_active() {
            let mut dino = self.read_inode(dev, bc, dir_inum)?;
            let slot_block = self.bmap(
                dev,
                bc,
                &mut dino,
                dir_inum,
                slot_offset as usize / BSIZE,
                false,
            )?;
            if slot_block != 0 {
                let (slot_lba, slot_n) = Self::block_lbas(slot_block);
                let (ino_lba, ino_n) = self.inode_lbas(child_inum);
                TxnLog::note_order(bc, slot_lba, slot_n, ino_lba, ino_n);
            }
        }
        Ok(())
    }

    fn dir_lookup(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_inum: u32,
        name: &str,
    ) -> FsResult<u32> {
        let entries = self.dir_entries(dev, bc, dir_inum)?;
        entries
            .into_iter()
            .find(|e| e.name == name)
            .map(|e| e.inum)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Clears the dirent for `name`, returning the removed entry's inode
    /// number and the disk block holding the cleared slot (so the caller can
    /// order the frees after the tombstone).
    fn dir_remove(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        dir_inum: u32,
        name: &str,
    ) -> FsResult<(u32, u32)> {
        let mut ino = self.read_inode(dev, bc, dir_inum)?;
        let mut raw = vec![0u8; ino.size as usize];
        self.read(dev, bc, dir_inum, 0, &mut raw)?;
        for (i, chunk) in raw.chunks_exact(DIRENT_SIZE).enumerate() {
            let inum = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            if inum == 0 {
                continue;
            }
            let ent_name: Vec<u8> = chunk[4..4 + DIRSIZ]
                .iter()
                .copied()
                .take_while(|b| *b != 0)
                .collect();
            if ent_name == name.as_bytes() {
                let offset = (i * DIRENT_SIZE) as u32;
                let zero = [0u8; DIRENT_SIZE];
                self.write(dev, bc, dir_inum, offset, &zero)?;
                let slot_block =
                    self.bmap(dev, bc, &mut ino, dir_inum, offset as usize / BSIZE, false)?;
                return Ok((inum, slot_block));
            }
        }
        Err(FsError::NotFound(name.to_string()))
    }

    // ---- path-level API ----------------------------------------------------------------------

    /// Resolves a path to an inode number.
    pub fn lookup(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, p: &str) -> FsResult<u32> {
        let mut cur = ROOT_INUM;
        for comp in path::components(p) {
            cur = self.dir_lookup(dev, bc, cur, &comp)?;
        }
        Ok(cur)
    }

    /// Creates a file or directory at `p`, returning its inode number.
    pub fn create(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        itype: InodeType,
    ) -> FsResult<u32> {
        self.txn.with_txn(dev, bc, |dev, bc| {
            let (parent, name) = path::split_parent(p)
                .ok_or_else(|| FsError::Invalid("cannot create root".into()))?;
            let parent_inum = self.lookup(dev, bc, &parent)?;
            let parent_ino = self.read_inode(dev, bc, parent_inum)?;
            if parent_ino.itype != InodeType::Dir {
                return Err(FsError::NotADirectory(parent));
            }
            if self.dir_lookup(dev, bc, parent_inum, &name).is_ok() {
                return Err(FsError::AlreadyExists(p.to_string()));
            }
            let inum = self.ialloc(dev, bc, itype)?;
            self.dir_add(dev, bc, parent_inum, &name, inum)?;
            Ok(inum)
        })
    }

    /// Lists the entries of the directory at `p`.
    pub fn list_dir(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<DirEntry>> {
        let inum = self.lookup(dev, bc, p)?;
        self.dir_entries(dev, bc, inum)
    }

    /// Removes the file at `p`, freeing its data blocks. Directories must be
    /// empty.
    pub fn unlink(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, p: &str) -> FsResult<()> {
        self.txn.with_txn(dev, bc, |dev, bc| {
            let (parent, name) = path::split_parent(p)
                .ok_or_else(|| FsError::Invalid("cannot unlink root".into()))?;
            let parent_inum = self.lookup(dev, bc, &parent)?;
            let inum = self.dir_lookup(dev, bc, parent_inum, &name)?;
            let mut ino = self.read_inode(dev, bc, inum)?;
            if ino.itype == InodeType::Dir && !self.dir_entries(dev, bc, inum)?.is_empty() {
                return Err(FsError::NotEmpty(p.to_string()));
            }
            let (_, slot_block) = self.dir_remove(dev, bc, parent_inum, &name)?;
            // The tombstone must land before the frees: a cut mid-unlink may
            // leak blocks, but must not leave a live dirent pointing at a
            // freed inode or at blocks the bitmap already re-offers. (With
            // the journal on these edges are belt-and-braces — replay makes
            // the whole unlink atomic — but they keep the unjournaled
            // fallback safe.)
            let order_after_tombstone = |bc: &mut BufCache, lba: u64, n: u64| {
                if slot_block != 0 {
                    let (d_lba, d_n) = Self::block_lbas(slot_block);
                    bc.add_dependency(lba, n, d_lba, d_n);
                }
            };
            // Free data blocks.
            for i in 0..NDIRECT {
                if ino.addrs[i] != 0 {
                    self.bfree(dev, bc, ino.addrs[i])?;
                    let (bm_lba, bm_n) = self.bitmap_lbas(ino.addrs[i]);
                    order_after_tombstone(bc, bm_lba, bm_n);
                }
            }
            if ino.addrs[NDIRECT] != 0 {
                let ind = Self::read_fs_block(dev, bc, ino.addrs[NDIRECT])?;
                for chunk in ind.chunks_exact(4) {
                    let ptr = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                    if ptr != 0 {
                        self.bfree(dev, bc, ptr)?;
                        let (bm_lba, bm_n) = self.bitmap_lbas(ptr);
                        order_after_tombstone(bc, bm_lba, bm_n);
                    }
                }
                self.bfree(dev, bc, ino.addrs[NDIRECT])?;
                let (bm_lba, bm_n) = self.bitmap_lbas(ino.addrs[NDIRECT]);
                order_after_tombstone(bc, bm_lba, bm_n);
            }
            ino = DiskInode::empty();
            self.write_inode(dev, bc, inum, &ino)?;
            let (ino_lba, ino_n) = self.inode_lbas(inum);
            order_after_tombstone(bc, ino_lba, ino_n);
            Ok(())
        })
    }

    /// Frees every data block of inode `inum` and resets its size to zero
    /// (the inode stays allocated). The truncation `write_file` relies on —
    /// without it an overwrite with shorter contents would keep the old tail
    /// and the old size.
    pub fn truncate(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
    ) -> FsResult<()> {
        self.txn.with_txn(dev, bc, |dev, bc| {
            let mut ino = self.read_inode(dev, bc, inum)?;
            if ino.itype == InodeType::Free {
                return Err(FsError::NotFound(format!("inode {inum} is free")));
            }
            for i in 0..NDIRECT {
                if ino.addrs[i] != 0 {
                    self.bfree(dev, bc, ino.addrs[i])?;
                    ino.addrs[i] = 0;
                }
            }
            if ino.addrs[NDIRECT] != 0 {
                let ind = Self::read_fs_block(dev, bc, ino.addrs[NDIRECT])?;
                for chunk in ind.chunks_exact(4) {
                    let ptr = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                    if ptr != 0 {
                        self.bfree(dev, bc, ptr)?;
                    }
                }
                self.bfree(dev, bc, ino.addrs[NDIRECT])?;
                ino.addrs[NDIRECT] = 0;
            }
            ino.size = 0;
            self.write_inode(dev, bc, inum, &ino)
        })
    }

    /// Convenience: creates (or truncates) a file at `p` and writes `data`.
    pub fn write_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
        data: &[u8],
    ) -> FsResult<u32> {
        // One transaction end to end: the nested `truncate`/`create` calls
        // join it (see [`TxnLog::with_txn`]), so a cut never exposes the
        // truncated-but-not-rewritten middle state — the overwrite is atomic.
        self.txn.with_txn(dev, bc, |dev, bc| {
            let inum = match self.lookup(dev, bc, p) {
                Ok(i) => {
                    self.truncate(dev, bc, i)?;
                    i
                }
                Err(FsError::NotFound(_)) => self.create(dev, bc, p, InodeType::File)?,
                Err(e) => return Err(e),
            };
            self.write(dev, bc, inum, 0, data)?;
            Ok(inum)
        })
    }

    /// Convenience: reads the whole file at `p`.
    pub fn read_file(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        p: &str,
    ) -> FsResult<Vec<u8>> {
        let inum = self.lookup(dev, bc, p)?;
        let st = self.stat(dev, bc, inum)?;
        if st.itype == InodeType::Dir {
            return Err(FsError::IsADirectory(p.to_string()));
        }
        let mut buf = vec![0u8; st.size as usize];
        self.read(dev, bc, inum, 0, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;

    fn fresh_fs() -> (MemDisk, BufCache, Xv6Fs) {
        // 2 MB ramdisk: 4096 sectors -> 2048 fs blocks.
        let mut dev = MemDisk::new(4096);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 2048, 256).unwrap();
        (dev, bc, fs)
    }

    #[test]
    fn inode_lbas_saturate_on_corrupt_inode_numbers() {
        // A corrupt inum near u32::MAX must not overflow the inode-block
        // arithmetic; the sector computation saturates.
        let (_dev, _bc, fs) = fresh_fs();
        let (lba, count) = fs.inode_lbas(u32::MAX);
        assert!(count > 0);
        assert!(lba >= fs.sb.inodestart as u64);
    }

    #[test]
    fn sequential_reads_coalesce_runs_and_prefetch_ahead() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let data: Vec<u8> = (0..96 * 1024).map(|i| (i % 239) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/media.bin", &data)
            .unwrap();
        bc.flush(&mut dev).unwrap();
        let inum = fs.lookup(&mut dev, &mut bc, "/media.bin").unwrap();
        // Cold cache + prefetch on: stream 16 KB chunks sequentially.
        let mut cold = BufCache::default();
        cold.set_prefetch(true);
        let mut out = vec![0u8; 16 * 1024];
        let mut off = 0u32;
        while (off as usize) < data.len() {
            let n = fs.read(&mut dev, &mut cold, inum, off, &mut out).unwrap();
            assert!(n > 0);
            assert_eq!(
                &out[..n],
                &data[off as usize..off as usize + n],
                "content intact at offset {off}"
            );
            off += n as u32;
        }
        let s = cold.stats();
        assert!(
            s.prefetch_cmds > 0,
            "sequential xv6fs stream issued read-ahead ({s:?})"
        );
        assert!(s.prefetched_blocks > 0);
        assert!(
            s.hits >= s.prefetched_blocks,
            "prefetched blocks were consumed as hits"
        );
        // With prefetch off nothing speculative is issued.
        let mut plain = BufCache::default();
        let first = fs.read(&mut dev, &mut plain, inum, 0, &mut out).unwrap();
        assert_eq!(first, 16 * 1024);
        assert_eq!(plain.stats().prefetch_cmds, 0);
    }

    #[test]
    fn mkfs_then_mount_round_trips_the_superblock() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let mounted = Xv6Fs::mount(&mut dev, &mut bc).unwrap();
        assert_eq!(mounted.superblock(), fs.superblock());
        assert_eq!(mounted.superblock().magic, FSMAGIC);
    }

    #[test]
    fn create_write_read_round_trips() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let data = b"hello from prototype 4".to_vec();
        fs.write_file(&mut dev, &mut bc, "/hello.txt", &data)
            .unwrap();
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/hello.txt").unwrap(), data);
    }

    #[test]
    fn nested_directories_work() {
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.create(&mut dev, &mut bc, "/etc", InodeType::Dir)
            .unwrap();
        fs.create(&mut dev, &mut bc, "/etc/conf", InodeType::Dir)
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/etc/conf/rc", b"init")
            .unwrap();
        let listing = fs.list_dir(&mut dev, &mut bc, "/etc/conf").unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "rc");
        assert_eq!(
            fs.read_file(&mut dev, &mut bc, "/etc/conf/rc").unwrap(),
            b"init"
        );
    }

    #[test]
    fn large_file_uses_indirect_blocks_and_reads_back() {
        let (mut dev, mut bc, fs) = fresh_fs();
        // 100 KB crosses the 12 KB direct limit into the indirect block.
        let data: Vec<u8> = (0..100 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/big.bin", &data).unwrap();
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/big.bin").unwrap(), data);
    }

    #[test]
    fn file_size_limit_is_enforced_at_268kb() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let inum = fs
            .create(&mut dev, &mut bc, "/huge", InodeType::File)
            .unwrap();
        let ok = vec![0u8; MAXFILE_BYTES];
        assert!(fs.write(&mut dev, &mut bc, inum, 0, &ok).is_ok());
        assert!(matches!(
            fs.write(&mut dev, &mut bc, inum, MAXFILE_BYTES as u32, &[0u8]),
            Err(FsError::TooLarge(_))
        ));
        assert_eq!(MAXFILE_BYTES, 274_432, "the paper's ~270 KB limit");
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let (mut dev, mut bc, fs) = fresh_fs();
        // Touch the root directory first so its own data block is already
        // allocated and does not perturb the free-block accounting below.
        fs.write_file(&mut dev, &mut bc, "/anchor", b"x").unwrap();
        let free_before = fs.free_blocks(&mut dev, &mut bc).unwrap();
        fs.write_file(&mut dev, &mut bc, "/tmp.bin", &vec![1u8; 50 * 1024])
            .unwrap();
        let free_mid = fs.free_blocks(&mut dev, &mut bc).unwrap();
        assert!(free_mid < free_before);
        fs.unlink(&mut dev, &mut bc, "/tmp.bin").unwrap();
        let free_after = fs.free_blocks(&mut dev, &mut bc).unwrap();
        assert_eq!(free_after, free_before);
        assert!(matches!(
            fs.read_file(&mut dev, &mut bc, "/tmp.bin"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn creating_a_duplicate_fails() {
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/a", b"1").unwrap();
        assert!(matches!(
            fs.create(&mut dev, &mut bc, "/a", InodeType::File),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn lookups_of_missing_paths_fail_cleanly() {
        let (mut dev, mut bc, fs) = fresh_fs();
        assert!(matches!(
            fs.lookup(&mut dev, &mut bc, "/no/such/file"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn filesystem_fills_up_and_reports_no_space() {
        // Tiny filesystem: 128 fs blocks (64 data-ish blocks after metadata).
        let mut dev = MemDisk::new(256);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 128, 32).unwrap();
        let contents = |i: u8| vec![i; 8 * 1024];
        let mut i = 0;
        let result = loop {
            let r = fs.write_file(&mut dev, &mut bc, &format!("/f{i}"), &contents(i));
            if r.is_err() {
                break r;
            }
            i += 1;
            if i > 100 {
                panic!("filesystem never filled up");
            }
        };
        assert!(matches!(result, Err(FsError::NoSpace)));
        // Drop the cache unflushed and remount: every file written before
        // the NoSpace was committed and reads back.
        drop(bc);
        let mut cold = BufCache::default();
        let fs = Xv6Fs::mount(&mut dev, &mut cold).unwrap();
        for j in 0..i {
            assert_eq!(
                fs.read_file(&mut dev, &mut cold, &format!("/f{j}"))
                    .unwrap(),
                contents(j),
                "/f{j}"
            );
        }
    }

    #[test]
    fn a_create_costs_a_bounded_number_of_cache_lookups() {
        let (mut dev, mut bc, fs) = fresh_fs();
        for i in 0..64 {
            fs.write_file(&mut dev, &mut bc, &format!("/old{i}"), &[1u8; 4096])
                .unwrap();
        }
        let lookups = |bc: &BufCache| bc.stats().hits + bc.stats().misses;
        let before = lookups(&bc);
        let creates = 32;
        for i in 0..creates {
            fs.write_file(&mut dev, &mut bc, &format!("/new{i}"), &[2u8; 2560])
                .unwrap();
        }
        // Path walks and directory reads dominate; balloc and ialloc read
        // each bitmap and inode block once per scan. Scans re-reading a
        // block per bit and per inode would cost about 2,000 per create.
        let cost = lookups(&bc) - before;
        assert!(
            cost <= 100 * creates,
            "{cost} lookups for {creates} creates"
        );
    }

    #[test]
    fn data_persists_across_remount() {
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/persist.txt", b"survive remount")
            .unwrap();
        // The unified cache is write-back: flush before abandoning it, as an
        // unmount would.
        bc.flush(&mut dev).unwrap();
        let mut bc2 = BufCache::default();
        let fs2 = Xv6Fs::mount(&mut dev, &mut bc2).unwrap();
        assert_eq!(
            fs2.read_file(&mut dev, &mut bc2, "/persist.txt").unwrap(),
            b"survive remount"
        );
    }

    #[test]
    fn corrupt_superblocks_and_inodes_fail_remount_paths_cleanly() {
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/ok", b"fine").unwrap();
        bc.flush(&mut dev).unwrap();
        // Superblock claiming more blocks than the device holds.
        let mut block = Xv6Fs::read_fs_block(&mut dev, &mut bc, 0).unwrap();
        block[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        Xv6Fs::write_fs_block(&mut dev, &mut bc, 0, &block).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Xv6Fs::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Overlapping layout regions.
        let good = fs.superblock();
        let mut sb = good;
        sb.bmapstart = sb.inodestart; // inode area squashed to nothing
        let mut block = vec![0u8; BSIZE];
        block[..32].copy_from_slice(&sb.encode());
        Xv6Fs::write_fs_block(&mut dev, &mut bc, 0, &block).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Xv6Fs::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
        // Restore and corrupt a directory inode's size: traversal reports
        // Corrupt instead of attempting a 4 GB allocation.
        let mut block = vec![0u8; BSIZE];
        block[..32].copy_from_slice(&good.encode());
        Xv6Fs::write_fs_block(&mut dev, &mut bc, 0, &block).unwrap();
        let mut root = fs.read_inode(&mut dev, &mut bc, ROOT_INUM).unwrap();
        root.size = u32::MAX;
        fs.write_inode(&mut dev, &mut bc, ROOT_INUM, &root).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let mounted = Xv6Fs::mount(&mut dev, &mut cold).unwrap();
        assert!(matches!(
            mounted.list_dir(&mut dev, &mut cold, "/"),
            Err(FsError::Corrupt(_))
        ));
    }

    #[test]
    fn overwrite_in_the_middle_of_a_file() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let inum = fs
            .write_file(&mut dev, &mut bc, "/f", &vec![b'a'; 3000])
            .unwrap();
        fs.write(&mut dev, &mut bc, inum, 1500, b"XYZ").unwrap();
        let back = fs.read_file(&mut dev, &mut bc, "/f").unwrap();
        assert_eq!(back.len(), 3000);
        assert_eq!(&back[1500..1503], b"XYZ");
        assert_eq!(back[1499], b'a');
        assert_eq!(back[1503], b'a');
    }
}
