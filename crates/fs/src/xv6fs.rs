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
//! excludes crash consistency as a non-goal (§5.4). This reproduction
//! brings it back in two layers. Metadata blocks (inodes, bitmap, indirect
//! blocks, directory contents) are tagged for the cache's
//! dependency-ordered write-back drain, with edges ordering an inode after
//! the data and bitmap blocks it references; that alone keeps the
//! inode-level [`Xv6Fs::write`], which runs in the cache's undo scope
//! without the log, from exposing unwritten or free blocks. Every volume
//! also holds a small log region ([`XV6_LOG_BLOCKS`], written by `mkfs`;
//! [`Xv6Fs::mount`] refuses a superblock without one), and the mutating
//! path-level operations (`create`, `unlink`, `truncate`, `write_file`) run
//! as transactions through the shared [`crate::txn::TxnLog`] layer, each
//! committed on return. That closes the torn states an ordered drain alone
//! cannot: a dirent never names a still-free inode (the dirent and the
//! child inode commit atomically, cycle-safe under the transaction's pins
//! even though they often share an on-disk block), and an overwrite is old
//! contents XOR new contents (truncate and rewrite are one transaction). Freed
//! blocks stay reserved ([`BufCache::note_pending_free`]) until their
//! transaction commits, so the rewrite cannot reuse them and a cut before
//! the commit point keeps the intact old file; an overwrite whose new
//! contents do not fit beside the old ones therefore fails. Like every
//! call that fails, it changes nothing: the undo scope puts back what it
//! wrote ([`crate::txn`], "Failed calls").

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
    /// First block of the transaction log region.
    pub logstart: u32,
    /// Blocks in the transaction log region ([`Xv6Fs::mount`] refuses 0).
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
    /// superblock's log region).
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
    /// or trigger absurd allocations. Every xv6fs volume holds a log, so a
    /// superblock without one is corrupt too.
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
        let log_end = match sb.logstart.checked_add(sb.nlog) {
            Some(end) if sb.logstart >= 1 && sb.nlog > 0 => end,
            _ => {
                return Err(FsError::Corrupt(
                    "superblock log region is empty, overflows or starts at 0".into(),
                ))
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
        // stale record.
        fs.txn.replay(dev, bc)?;
        Ok(fs)
    }

    /// The [`TxnLog`] handle over the superblock's log region, in device
    /// sectors (the transaction layer, like the cache, speaks 512-byte
    /// sectors — not 1 KB filesystem blocks).
    fn make_txn(sb: &SuperBlock) -> TxnLog {
        let spb = (BSIZE / SECTOR_SIZE) as u64;
        TxnLog::new(
            sb.logstart as u64 * spb,
            sb.nlog as u64 * spb,
            sb.size as u64 * spb,
        )
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
    /// reserves, found by a first-fit scan from `datastart`.
    fn balloc(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let b = self
            .next_allocatable(dev, bc, &mut HeldBlock::default(), self.sb.datastart)?
            .ok_or(FsError::NoSpace)?;
        self.bitmap_set(dev, bc, b, true)?;
        // Zero freshly allocated blocks, as xv6 does.
        Self::write_fs_block(dev, bc, b, &vec![0u8; BSIZE])?;
        Ok(b)
    }

    /// Whether `b` is free in the bitmap (read through `bits`) and no
    /// pending free reserves it. Blocks freed by a transaction that has not
    /// committed yet must not be recycled: a cut after the reuse but before
    /// the commit would leave the old file pointing at clobbered data.
    fn allocatable(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        bits: &mut HeldBlock,
        b: u32,
    ) -> FsResult<bool> {
        Ok(!bc.is_pending_free(b) && !self.bitmap_get(dev, bc, bits, b)?)
    }

    /// The first block from `from` on that an allocation can take, read
    /// through `bits`. The scan skips whole bitmap bytes of blocks in use,
    /// which hold nothing allocatable: a pending free has its bit clear.
    fn next_allocatable(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        bits: &mut HeldBlock,
        from: u32,
    ) -> FsResult<Option<u32>> {
        let mut b = from;
        while b < self.sb.size {
            let (bmap_block, byte, _) = self.bitmap_bit(b);
            if b.is_multiple_of(8) && bits.get(dev, bc, bmap_block)?[byte] == 0xFF {
                b += 8;
            } else if self.allocatable(dev, bc, bits, b)? {
                return Ok(Some(b));
            } else {
                b += 1;
            }
        }
        Ok(None)
    }

    fn bfree(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache, blockno: u32) -> FsResult<()> {
        self.bitmap_set(dev, bc, blockno, false)?;
        // Fence the block against reallocation until its transaction
        // commits.
        bc.note_pending_free(blockno);
        Ok(())
    }

    /// Number of data blocks an allocation can take: free in the bitmap and
    /// not reserved by a pending free. Between operations that is every
    /// free block, since each transaction commits on return.
    pub fn free_blocks(&self, dev: &mut dyn BlockDevice, bc: &mut BufCache) -> FsResult<u32> {
        let mut bits = HeldBlock::default();
        let (mut free, mut from) = (0, self.sb.datastart);
        while let Some(b) = self.next_allocatable(dev, bc, &mut bits, from)? {
            free += 1;
            from = b + 1;
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
            return self.data_block(ino.addrs[file_block]);
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
        let ind_block = self.data_block(ino.addrs[NDIRECT])?;
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
        self.data_block(ptr)
    }

    /// `b`, a block address read from an inode or an indirect block, if it
    /// is 0 (a hole) or lies in the data area. A corrupt address must not
    /// steer a read or a write at the metadata or past the volume's end.
    fn data_block(&self, b: u32) -> FsResult<u32> {
        if b != 0 && !(self.sb.datastart..self.sb.size).contains(&b) {
            return Err(FsError::Corrupt(format!(
                "block address {b} lies outside the data area"
            )));
        }
        Ok(b)
    }

    // ---- file read / write --------------------------------------------------------------

    /// Reads up to `buf.len()` bytes from inode `inum` starting at `offset`.
    /// Returns the number of bytes read (0 at or past end of file).
    ///
    /// Contiguous disk-block runs in the inode's block map are merged into
    /// single range reads before they reach the cache — the same coalescing
    /// FAT32's cluster runs get — which amortises per-command cost. There
    /// is no read-ahead: the ramdisk completes a fill inside its submit
    /// call, so a fill issued ahead of demand would overlap nothing.
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
        Ok(to_read)
    }

    /// Writes `data` to file `inum` starting at `offset`, growing the file
    /// as needed (up to [`MAXFILE_BYTES`]). Returns bytes written. Only the
    /// directory code writes a directory's entries, so a directory `inum`
    /// fails with [`FsError::IsADirectory`]. The write runs in the cache's
    /// undo scope without the log ([`TxnLog::with_scope`]): one that fails
    /// part-way, say out of blocks, changes nothing.
    pub fn write(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
        offset: u32,
        data: &[u8],
    ) -> FsResult<usize> {
        self.txn.with_scope(dev, bc, |dev, bc| {
            self.write_inode_data(dev, bc, inum, InodeType::File, offset, data)
        })
    }

    /// Writes `data` into inode `inum`, which must be of type `itype`.
    fn write_inode_data(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        inum: u32,
        itype: InodeType,
        offset: u32,
        data: &[u8],
    ) -> FsResult<usize> {
        let mut ino = self.read_inode(dev, bc, inum)?;
        match ino.itype {
            InodeType::Free => return Err(FsError::NotFound(format!("inode {inum} is free"))),
            t if t == itype => {}
            InodeType::Dir => return Err(FsError::IsADirectory(format!("inode {inum}"))),
            InodeType::File => return Err(FsError::NotADirectory(format!("inode {inum}"))),
        }
        let end = offset as usize + data.len();
        if end > MAXFILE_BYTES {
            return Err(FsError::TooLarge(format!(
                "write to {end} bytes exceeds xv6fs limit of {MAXFILE_BYTES}"
            )));
        }
        let is_dir = itype == InodeType::Dir;
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
        self.write_inode_data(dev, bc, dir_inum, InodeType::Dir, slot_offset, &ent)?;
        // The dirent must not land ahead of the child inode it names. The
        // parent directory's inode often shares its on-disk block with the
        // child's (16 inodes per block) and must follow the dirent content
        // it sizes, so the edge closes a cycle no drain order satisfies;
        // `create`'s transaction makes that harmless: its pins keep both
        // blocks cached until the commit, which replays the whole op
        // atomically and severs the cycle (`clear_dependencies`).
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
            bc.add_dependency(slot_lba, slot_n, ino_lba, ino_n);
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
                self.write_inode_data(dev, bc, dir_inum, InodeType::Dir, offset, &zero)?;
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
            let ino = self.read_inode(dev, bc, inum)?;
            if ino.itype == InodeType::Dir && !self.dir_entries(dev, bc, inum)?.is_empty() {
                return Err(FsError::NotEmpty(p.to_string()));
            }
            let blocks = self.owned_blocks(dev, bc, &ino)?;
            let (_, slot_block) = self.dir_remove(dev, bc, parent_inum, &name)?;
            // The tombstone must land before the frees, so a live dirent
            // never points at a freed inode or at blocks the bitmap already
            // re-offers. Replay makes the whole unlink atomic; the edges
            // keep that order on the fallback flush of a transaction too
            // large for the log.
            let order_after_tombstone = |bc: &mut BufCache, lba: u64, n: u64| {
                if slot_block != 0 {
                    let (d_lba, d_n) = Self::block_lbas(slot_block);
                    bc.add_dependency(lba, n, d_lba, d_n);
                }
            };
            for b in blocks {
                self.bfree(dev, bc, b)?;
                let (bm_lba, bm_n) = self.bitmap_lbas(b);
                order_after_tombstone(bc, bm_lba, bm_n);
            }
            self.write_inode(dev, bc, inum, &DiskInode::empty())?;
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
            for b in self.owned_blocks(dev, bc, &ino)? {
                self.bfree(dev, bc, b)?;
            }
            ino.addrs = [0; NDIRECT + 1];
            ino.size = 0;
            self.write_inode(dev, bc, inum, &ino)
        })
    }

    /// The blocks inode `ino` owns, in the order `unlink` and `truncate`
    /// free them: its direct blocks, the blocks its indirect block lists,
    /// then the indirect block itself. Only addresses [`Xv6Fs::data_block`]
    /// accepts are listed, and the indirect block is read only if it lies in
    /// the data area: a corrupt address must not free a metadata block (the
    /// next allocation would zero it).
    fn owned_blocks(
        &self,
        dev: &mut dyn BlockDevice,
        bc: &mut BufCache,
        ino: &DiskInode,
    ) -> FsResult<Vec<u32>> {
        let owned = |b: &u32| *b != 0 && self.data_block(*b).is_ok();
        let mut blocks: Vec<u32> = ino.addrs[..NDIRECT].iter().copied().filter(owned).collect();
        let ind = ino.addrs[NDIRECT];
        if owned(&ind) {
            let list = Self::read_fs_block(dev, bc, ind)?;
            let words = list
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            blocks.extend(words.filter(owned));
            blocks.push(ind);
        }
        Ok(blocks)
    }

    /// Convenience: creates (or truncates) a file at `p` and writes `data`.
    ///
    /// Fails with [`FsError::TooLarge`] or [`FsError::NoSpace`] when `data`
    /// exceeds the file size limit or the free blocks, and then changes
    /// nothing: the transaction is undone. An overwritten file's blocks stay
    /// reserved until the transaction commits, so the new contents cannot
    /// reuse them.
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
    fn block_addresses_outside_the_data_area_read_as_corrupt() {
        // The corrupt-image sweep's inode case: a first block of
        // `u32::MAX` overflowed the read's run merge.
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/f", &[7u8; 3000])
            .unwrap();
        let inum = fs.lookup(&mut dev, &mut bc, "/f").unwrap();
        for bad in [u32::MAX, fs.sb.size, fs.sb.inodestart] {
            let mut ino = fs.read_inode(&mut dev, &mut bc, inum).unwrap();
            ino.addrs[0] = bad;
            fs.write_inode(&mut dev, &mut bc, inum, &ino).unwrap();
            let mut buf = [0u8; 3000];
            let r = fs.read(&mut dev, &mut bc, inum, 0, &mut buf);
            assert!(matches!(r, Err(FsError::Corrupt(_))), "{bad}: {r:?}");
            let w = fs.write(&mut dev, &mut bc, inum, 10, b"x");
            assert!(matches!(w, Err(FsError::Corrupt(_))), "{bad}: {w:?}");
        }
    }

    #[test]
    fn a_write_to_a_directory_inode_is_refused_and_changes_nothing() {
        // Only the directory code writes a directory's entries. The kernel
        // refuses a write-open of a directory before any write arrives, so
        // this check is the filesystem's own line of defence.
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.create(&mut dev, &mut bc, "/dir", InodeType::Dir)
            .unwrap();
        fs.create(&mut dev, &mut bc, "/dir/a", InodeType::File)
            .unwrap();
        let before = fs.list_dir(&mut dev, &mut bc, "/").unwrap();
        for dir in ["/", "/dir"] {
            let inum = fs.lookup(&mut dev, &mut bc, dir).unwrap();
            let r = fs.write(&mut dev, &mut bc, inum, 0, &[0x5A; 4097]);
            assert!(matches!(r, Err(FsError::IsADirectory(_))), "{dir}: {r:?}");
        }
        assert_eq!(fs.list_dir(&mut dev, &mut bc, "/").unwrap(), before);
        let names: Vec<_> = fs
            .list_dir(&mut dev, &mut bc, "/dir")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["a"]);
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
    fn sequential_reads_coalesce_runs_without_read_ahead() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let data: Vec<u8> = (0..96 * 1024).map(|i| (i % 239) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/media.bin", &data)
            .unwrap();
        bc.flush(&mut dev).unwrap();
        let inum = fs.lookup(&mut dev, &mut bc, "/media.bin").unwrap();
        // Cold cache with prefetch on: stream 16 KB chunks sequentially.
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
            s.coalesced_ranges > 0,
            "contiguous blocks read as ranges ({s:?})"
        );
        // The ramdisk completes a fill inside its submit call, so xv6fs
        // issues nothing ahead of demand even with the policy on.
        assert_eq!(s.prefetch_cmds, 0, "xv6fs issued read-ahead ({s:?})");
        assert_eq!(s.prefetched_blocks, 0);
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
    fn freed_blocks_are_reallocated_first_once_their_free_commits() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let blocks_of = |dev: &mut MemDisk, bc: &mut BufCache, p: &str| {
            let inum = fs.lookup(dev, bc, p).unwrap();
            let ino = fs.read_inode(dev, bc, inum).unwrap();
            ino.addrs[..4].to_vec()
        };
        fs.write_file(&mut dev, &mut bc, "/low", &[1u8; 4 * BSIZE])
            .unwrap();
        fs.write_file(&mut dev, &mut bc, "/high", &[2u8; 4 * BSIZE])
            .unwrap();
        let low = blocks_of(&mut dev, &mut bc, "/low");
        assert!(low.iter().all(|&b| b >= fs.sb.datastart));
        assert!(low.iter().max() < blocks_of(&mut dev, &mut bc, "/high").iter().min());
        // The unlink commits on return: the next file takes the low blocks.
        fs.unlink(&mut dev, &mut bc, "/low").unwrap();
        fs.write_file(&mut dev, &mut bc, "/next", &[3u8; 4 * BSIZE])
            .unwrap();
        assert_eq!(blocks_of(&mut dev, &mut bc, "/next"), low);
        // A block freed inside a transaction that has not committed yet is
        // skipped, and reused once the transaction has committed.
        let spare = fs.balloc(&mut dev, &mut bc).unwrap();
        let taken = fs
            .txn
            .with_txn(&mut dev, &mut bc, |dev, bc| {
                fs.bfree(dev, bc, spare)?;
                fs.balloc(dev, bc)
            })
            .unwrap();
        assert_eq!(taken, spare + 1);
        assert_eq!(fs.balloc(&mut dev, &mut bc).unwrap(), spare);
    }

    #[test]
    fn a_corrupt_address_freed_by_an_unlink_is_never_allocated() {
        // The unlink must not free the inode block the corrupt inode names,
        // so allocation cannot hand that block out and zero it.
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/keep", b"kept").unwrap();
        let bad = fs
            .create(&mut dev, &mut bc, "/bad", InodeType::File)
            .unwrap();
        let mut ino = fs.read_inode(&mut dev, &mut bc, bad).unwrap();
        ino.addrs[0] = fs.sb.inodestart;
        fs.write_inode(&mut dev, &mut bc, bad, &ino).unwrap();
        fs.unlink(&mut dev, &mut bc, "/bad").unwrap();
        fs.write_file(&mut dev, &mut bc, "/next", &[7u8; 4 * BSIZE])
            .unwrap();
        let next = fs.lookup(&mut dev, &mut bc, "/next").unwrap();
        let ino = fs.read_inode(&mut dev, &mut bc, next).unwrap();
        assert!(ino.addrs[..4].iter().all(|&b| b >= fs.sb.datastart));
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/keep").unwrap(), b"kept");
        let names: Vec<_> = fs
            .list_dir(&mut dev, &mut bc, "/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["keep", "next"]);
    }

    #[test]
    fn unlink_and_overwrite_free_only_the_data_blocks_a_file_names() {
        // Each file holds two direct blocks, then gets a corrupt address:
        // an indirect block in the inode area, or a first block of
        // u32::MAX. Freeing the inode block's words as an indirect list
        // used to free the root directory's block (the root inode's first
        // address) and let the next write zero it.
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/a", b"kept").unwrap();
        // Per file: the corrupted address, whether the call is an
        // overwrite (else an unlink), and the blocks it may free net of
        // what the overwrite takes.
        let steps = [
            ("/i1", NDIRECT, fs.sb.inodestart, false, 2),
            ("/i2", NDIRECT, fs.sb.inodestart, true, 1),
            ("/d1", 0, u32::MAX, false, 1),
            ("/d2", 0, u32::MAX, true, 0),
        ];
        for (p, slot, bad, overwrite, freed) in steps {
            fs.write_file(&mut dev, &mut bc, p, &[9u8; 2 * BSIZE])
                .unwrap();
            let inum = fs.lookup(&mut dev, &mut bc, p).unwrap();
            let mut ino = fs.read_inode(&mut dev, &mut bc, inum).unwrap();
            ino.addrs[slot] = bad;
            fs.write_inode(&mut dev, &mut bc, inum, &ino).unwrap();
            let before = fs.free_blocks(&mut dev, &mut bc).unwrap();
            if overwrite {
                fs.write_file(&mut dev, &mut bc, p, b"new").unwrap();
                assert_eq!(fs.read_file(&mut dev, &mut bc, p).unwrap(), b"new");
            } else {
                fs.unlink(&mut dev, &mut bc, p).unwrap();
            }
            let after = fs.free_blocks(&mut dev, &mut bc).unwrap();
            assert_eq!(after, before + freed, "{p}");
        }
        fs.write_file(&mut dev, &mut bc, "/next", &[7u8; 4 * BSIZE])
            .unwrap();
        let mut names: Vec<_> = fs
            .list_dir(&mut dev, &mut bc, "/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        names.sort();
        assert_eq!(names, ["a", "d2", "i2", "next"]);
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/a").unwrap(), b"kept");
    }

    #[test]
    fn a_failed_unlink_or_overwrite_changes_nothing() {
        // A flushed 20-block file under a cold cache, with a fault on its
        // indirect block or on the bitmap block that holds its first data
        // block: each call fails, and must change nothing. Unlink used to
        // leave the root without `big` and free its direct blocks, or, with
        // the bitmap faulted, leak its inode and all 21 blocks; the
        // overwrite freed them too while `/big` still mapped them, so the
        // next file's data showed through it.
        let (mut dev, mut bc, fs) = fresh_fs();
        fs.write_file(&mut dev, &mut bc, "/a", b"kept").unwrap();
        let big: Vec<u8> = (0..20 * BSIZE).map(|i| (i % 251) as u8).collect();
        fs.write_file(&mut dev, &mut bc, "/big", &big).unwrap();
        let inum = fs.lookup(&mut dev, &mut bc, "/big").unwrap();
        let addrs = fs.read_inode(&mut dev, &mut bc, inum).unwrap().addrs;
        let targets = [
            Xv6Fs::block_lbas(addrs[NDIRECT]).0,
            fs.bitmap_lbas(addrs[0]).0,
        ];
        bc.flush(&mut dev).unwrap();
        let free = fs.free_blocks(&mut dev, &mut bc).unwrap();
        let names = |dev: &mut MemDisk, bc: &mut BufCache| -> Vec<String> {
            let mut names: Vec<_> = fs
                .list_dir(dev, bc, "/")
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            names.sort();
            names
        };
        for (target, overwrite) in targets.into_iter().flat_map(|t| [(t, false), (t, true)]) {
            bc.invalidate_all();
            dev.inject_fault(target);
            let failed = if overwrite {
                fs.write_file(&mut dev, &mut bc, "/big", &[0xCC; 4 * BSIZE])
                    .map(|_| ())
            } else {
                fs.unlink(&mut dev, &mut bc, "/big")
            };
            assert!(matches!(failed, Err(FsError::Io(_))), "{failed:?}");
            dev.clear_faults();
            let call = if overwrite { "overwrite" } else { "unlink" };
            let what = format!("{call} with block {target} faulted");
            assert_eq!(names(&mut dev, &mut bc), ["a", "big"], "{what}");
            assert_eq!(fs.free_blocks(&mut dev, &mut bc).unwrap(), free, "{what}");
            let ino = fs.read_inode(&mut dev, &mut bc, inum).unwrap();
            assert_eq!(ino.itype, InodeType::File, "{what}");
            assert_eq!(
                fs.read_file(&mut dev, &mut bc, "/big").unwrap(),
                big,
                "{what}"
            );
        }
        fs.write_file(&mut dev, &mut bc, "/next", &[0xCC; 4 * BSIZE])
            .unwrap();
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/big").unwrap(), big);
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

    /// A 256-block volume holding two empty files, `/fill` and `/f`, as
    /// `(dev, cache, fs, fill, f)`.
    fn small_volume() -> (MemDisk, BufCache, Xv6Fs, u32, u32) {
        let mut dev = MemDisk::new(512);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 256, 32).unwrap();
        let fill = fs
            .create(&mut dev, &mut bc, "/fill", InodeType::File)
            .unwrap();
        let f = fs.create(&mut dev, &mut bc, "/f", InodeType::File).unwrap();
        (dev, bc, fs, fill, f)
    }

    #[test]
    fn a_direct_block_write_that_cannot_fit_allocates_nothing() {
        let (mut dev, mut bc, fs, fill, f) = small_volume();
        // Leave 4 free blocks: /fill's blocks past the direct ones also
        // take its indirect block.
        let free = fs.free_blocks(&mut dev, &mut bc).unwrap() as usize;
        fs.write(&mut dev, &mut bc, fill, 0, &vec![1u8; (free - 5) * BSIZE])
            .unwrap();
        assert_eq!(fs.free_blocks(&mut dev, &mut bc).unwrap(), 4);
        let r = fs.write(&mut dev, &mut bc, f, 0, &vec![2u8; 8 * BSIZE]);
        assert!(matches!(r, Err(FsError::NoSpace)), "{r:?}");
        assert_eq!(fs.stat(&mut dev, &mut bc, f).unwrap().size, 0);
        assert_eq!(fs.free_blocks(&mut dev, &mut bc).unwrap(), 4);
    }

    #[test]
    fn an_append_through_the_indirect_block_that_cannot_fit_allocates_nothing() {
        let (mut dev, mut bc, fs, _, f) = small_volume();
        let size = 200 * BSIZE as u32;
        fs.write(&mut dev, &mut bc, f, 0, &vec![3u8; size as usize])
            .unwrap();
        let free = fs.free_blocks(&mut dev, &mut bc).unwrap();
        assert!(free < 40, "{free} free blocks would fit the append");
        let r = fs.write(&mut dev, &mut bc, f, size, &vec![4u8; 40 * BSIZE]);
        assert!(matches!(r, Err(FsError::NoSpace)), "{r:?}");
        assert_eq!(fs.stat(&mut dev, &mut bc, f).unwrap().size, size);
        assert_eq!(fs.free_blocks(&mut dev, &mut bc).unwrap(), free);
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
    fn a_superblock_without_a_log_is_corrupt() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let mut sb = fs.superblock();
        sb.nlog = 0;
        let mut block = vec![0u8; BSIZE];
        block[..32].copy_from_slice(&sb.encode());
        Xv6Fs::write_fs_block(&mut dev, &mut bc, 0, &block).unwrap();
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        assert!(matches!(
            Xv6Fs::mount(&mut dev, &mut cold),
            Err(FsError::Corrupt(_))
        ));
    }

    #[test]
    fn an_oversized_overwrite_fails_and_keeps_the_old_file() {
        let (mut dev, mut bc, fs) = fresh_fs();
        let old = vec![b'o'; 10 * BSIZE];
        fs.write_file(&mut dev, &mut bc, "/f", &old).unwrap();
        let free = fs.free_blocks(&mut dev, &mut bc).unwrap();
        let huge = vec![b'n'; MAXFILE_BYTES + 1];
        assert!(matches!(
            fs.write_file(&mut dev, &mut bc, "/f", &huge),
            Err(FsError::TooLarge(_))
        ));
        assert_eq!(fs.read_file(&mut dev, &mut bc, "/f").unwrap(), old);
        assert_eq!(fs.free_blocks(&mut dev, &mut bc).unwrap(), free);
        bc.flush(&mut dev).unwrap();
        let mut cold = BufCache::default();
        let remounted = Xv6Fs::mount(&mut dev, &mut cold).unwrap();
        assert_eq!(remounted.read_file(&mut dev, &mut cold, "/f").unwrap(), old);
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
