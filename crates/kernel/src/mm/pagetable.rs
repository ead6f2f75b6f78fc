//! ARMv8-style page tables.
//!
//! Prototype 3 enables the MMU shortly after boot: the kernel's own mapping
//! uses a small page table with coarse blocks covering 1 GB of DRAM and the
//! I/O registers, while each user task gets a 4 KB-granule table for its
//! code/data and stack (§4.3). User space starts at virtual address 0 and
//! kernel addresses carry the `0xffff...` prefix.
//!
//! The tables here are *real* in the sense that descriptors are 64-bit words
//! stored in simulated physical frames and translation is performed by
//! walking them — only the TLB and the hardware walker are elided. Three
//! levels are used (a 39-bit VA space, 4 KB granule): L1 indexes 1 GB
//! regions, L2 2 MB regions (block mappings live here — the coarse "section"
//! maps the paper describes), and L3 4 KB pages.

use hal::mem::{PhysAddr, PhysMem, FRAME_SIZE};

use crate::error::{KResult, KernelError};
use crate::mm::frames::FrameAllocator;

/// A virtual address.
pub type VirtAddr = u64;

/// The kernel virtual address prefix ("kernel space uses addresses prefixed
/// with 0xffff").
pub const KERNEL_VA_BASE: u64 = 0xFFFF_0000_0000_0000;

/// Size of an L2 block mapping (2 MB with the 4 KB granule).
pub const BLOCK_SIZE_L2: u64 = 2 * 1024 * 1024;

/// Mapping permissions and attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapFlags {
    /// Accessible from EL0.
    pub user: bool,
    /// Writable.
    pub writable: bool,
    /// Cacheable (normal memory) vs device/non-cacheable.
    pub cached: bool,
}

impl MapFlags {
    /// Kernel RW normal memory.
    pub fn kernel_data() -> Self {
        MapFlags {
            user: false,
            writable: true,
            cached: true,
        }
    }
    /// Kernel RW device memory.
    pub fn device() -> Self {
        MapFlags {
            user: false,
            writable: true,
            cached: false,
        }
    }
    /// User RW normal memory.
    pub fn user_data() -> Self {
        MapFlags {
            user: true,
            writable: true,
            cached: true,
        }
    }
    /// User RX (read-only here) code.
    pub fn user_code() -> Self {
        MapFlags {
            user: true,
            writable: false,
            cached: true,
        }
    }
    /// User-mapped framebuffer, cacheable (the §4.3 choice that then forces
    /// explicit cache cleans every frame).
    pub fn user_framebuffer() -> Self {
        MapFlags {
            user: true,
            writable: true,
            cached: true,
        }
    }
}

// Descriptor encoding (a simplified ARMv8 stage-1 format):
//  bit 0: valid
//  bit 1: 1 = table (at L1/L2) or page (at L3); 0 at L2 = block
//  bit 6: EL0 accessible (AP[1])
//  bit 7: read-only (AP[2])
//  bit 8: non-cacheable attribute (simplified MAIR index)
//  bits 12..48: output address (frame-aligned)
const D_VALID: u64 = 1 << 0;
const D_TABLE_OR_PAGE: u64 = 1 << 1;
const D_USER: u64 = 1 << 6;
const D_RDONLY: u64 = 1 << 7;
const D_NONCACHE: u64 = 1 << 8;
const ADDR_MASK: u64 = 0x0000_FFFF_FFFF_F000;

fn encode(pa: PhysAddr, flags: MapFlags, leaf_is_page: bool) -> u64 {
    let mut d = D_VALID | (pa & ADDR_MASK);
    if leaf_is_page {
        d |= D_TABLE_OR_PAGE;
    }
    if flags.user {
        d |= D_USER;
    }
    if !flags.writable {
        d |= D_RDONLY;
    }
    if !flags.cached {
        d |= D_NONCACHE;
    }
    d
}

fn decode_flags(d: u64) -> MapFlags {
    MapFlags {
        user: d & D_USER != 0,
        writable: d & D_RDONLY == 0,
        cached: d & D_NONCACHE == 0,
    }
}

/// A translation-table level, as the shift of the VA bits that index it
/// (4 KB granule: nine index bits per level).
#[derive(Debug, Clone, Copy)]
enum Level {
    L1 = 30,
    L2 = 21,
    L3 = 12,
}

fn level_index(va: VirtAddr, level: Level) -> u64 {
    // Strip the kernel prefix so kernel and user VAs index identically.
    let va = va & 0x0000_007F_FFFF_FFFF;
    (va >> level as u32) & 0x1FF
}

/// Descriptors in one table: a frame of 64-bit words.
const TABLE_ENTRIES: usize = FRAME_SIZE / 8;
const PAGE: u64 = FRAME_SIZE as u64;

/// Reads the `descs.len()` descriptors stored from `addr` with one read.
fn read_descriptors(mem: &PhysMem, addr: PhysAddr, descs: &mut [u64]) -> KResult<()> {
    let mut bytes = [0; FRAME_SIZE];
    let bytes = &mut bytes[..descs.len() * 8];
    mem.read(addr, bytes)?;
    for (d, word) in descs.iter_mut().zip(bytes.as_chunks::<8>().0) {
        *d = u64::from_le_bytes(*word);
    }
    Ok(())
}

/// Writes `descs` from `addr` with one write.
fn write_descriptors(mem: &mut PhysMem, addr: PhysAddr, descs: &[u64]) -> KResult<()> {
    let mut bytes = [0; FRAME_SIZE];
    for (word, d) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(descs) {
        *word = d.to_le_bytes();
    }
    mem.write(addr, &bytes[..descs.len() * 8])?;
    Ok(())
}

/// A whole table's descriptors, read with one read.
fn read_table(mem: &PhysMem, table: PhysAddr) -> KResult<[u64; TABLE_ENTRIES]> {
    let mut descs = [0; TABLE_ENTRIES];
    read_descriptors(mem, table, &mut descs)?;
    Ok(descs)
}

/// The result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub phys: PhysAddr,
    /// The mapping's flags.
    pub flags: MapFlags,
    /// True if the mapping came from an L2 block rather than an L3 page.
    pub from_block: bool,
}

/// A three-level page table rooted in a physical frame.
#[derive(Debug, Clone, Copy)]
pub struct PageTable {
    root: PhysAddr,
}

impl PageTable {
    /// Allocates an empty root table.
    pub fn new(frames: &mut FrameAllocator, mem: &mut PhysMem) -> KResult<Self> {
        let root = frames.alloc()?;
        mem.fill(root, FRAME_SIZE, 0)?;
        Ok(PageTable { root })
    }

    /// Physical address of the root table (what TTBR0/TTBR1 would hold).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    fn descriptor_addr(table: PhysAddr, idx: u64) -> PhysAddr {
        table + idx * 8
    }

    /// The table the `level` descriptor of `table` covering `va` points at,
    /// allocated (zeroed) and linked in if there is none yet.
    fn next_table(
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        table: PhysAddr,
        va: VirtAddr,
        level: Level,
    ) -> KResult<PhysAddr> {
        let daddr = Self::descriptor_addr(table, level_index(va, level));
        let d = mem.read_u64(daddr)?;
        if d & D_VALID == 0 {
            let new_table = frames.alloc()?;
            mem.fill(new_table, FRAME_SIZE, 0)?;
            mem.write_u64(daddr, encode(new_table, MapFlags::kernel_data(), true))?;
            return Ok(new_table);
        }
        if d & D_TABLE_OR_PAGE == 0 {
            // A block mapping already covers this range.
            return Err(KernelError::Invalid(format!(
                "va {va:#x} already covered by a block mapping"
            )));
        }
        Ok(d & ADDR_MASK)
    }

    /// The L2 descriptor covering `va`: an L3 table, a 2 MB block, or 0
    /// where nothing is mapped.
    fn l2_descriptor(&self, mem: &PhysMem, va: VirtAddr) -> KResult<u64> {
        let d1 = mem.read_u64(Self::descriptor_addr(self.root, level_index(va, Level::L1)))?;
        if d1 & D_VALID == 0 {
            return Ok(0);
        }
        Ok(mem.read_u64(Self::descriptor_addr(
            d1 & ADDR_MASK,
            level_index(va, Level::L2),
        ))?)
    }

    /// Maps the 4 KB page containing `va` to the frame at `pa`: the
    /// one-page case of [`PageTable::map_run`].
    pub fn map_page(
        &self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        flags: MapFlags,
    ) -> KResult<()> {
        self.map_run(mem, frames, va, 1, flags, |_, _, _| Ok(Some(pa)))
            .1
    }

    /// Maps the `pages` pages from `va` a 2 MB table at a time: one L1/L2
    /// walk per L3 table, which allocates the tables the first mapped page
    /// under it needs, and one write of that table's new descriptors. Page
    /// `i` maps to the frame `frame_of(frames, mem, i)` returns, and stays
    /// unmapped if that is `None`. `frame_of` runs before its page's tables
    /// are allocated, so a caller that allocates the frame there takes
    /// frames in the order that mapping page by page would.
    ///
    /// Returns how many pages it mapped, and the error that stopped it, if
    /// any. Pages mapped before an error stay mapped, as page by page; a
    /// frame `frame_of` gave for the page that failed is not mapped, and it
    /// is still the caller's.
    pub fn map_run(
        &self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pages: u64,
        flags: MapFlags,
        mut frame_of: impl FnMut(&mut FrameAllocator, &mut PhysMem, u64) -> KResult<Option<PhysAddr>>,
    ) -> (u64, KResult<()>) {
        let mut mapped = 0;
        let mut first = 0;
        while first < pages {
            let start = va + first * PAGE;
            let at = level_index(start, Level::L3) as usize;
            let n = (TABLE_ENTRIES - at).min((pages - first) as usize);
            // The L3 table once walked, and its `n` descriptors from `at`.
            let mut l3 = None;
            let mut descs = [0; TABLE_ENTRIES];
            let result = (|| {
                for i in 0..n {
                    let Some(pa) = frame_of(frames, mem, first + i as u64)? else {
                        continue;
                    };
                    let page_va = start + i as u64 * PAGE;
                    if !page_va.is_multiple_of(PAGE) || !pa.is_multiple_of(PAGE) {
                        return Err(KernelError::Invalid(format!(
                            "unaligned mapping {page_va:#x} -> {pa:#x}"
                        )));
                    }
                    if l3.is_none() {
                        let l2 = Self::next_table(mem, frames, self.root, page_va, Level::L1)?;
                        let table = Self::next_table(mem, frames, l2, page_va, Level::L2)?;
                        let addr = Self::descriptor_addr(table, at as u64);
                        read_descriptors(mem, addr, &mut descs[..n])?;
                        l3 = Some(table);
                    }
                    if descs[i] & D_VALID != 0 {
                        return Err(KernelError::AlreadyExists(format!(
                            "va {page_va:#x} already mapped"
                        )));
                    }
                    descs[i] = encode(pa, flags, true);
                    mapped += 1;
                }
                Ok(())
            })();
            // The descriptors past a failed page are written back as read.
            let flushed = match l3 {
                Some(table) => {
                    write_descriptors(mem, Self::descriptor_addr(table, at as u64), &descs[..n])
                }
                None => Ok(()),
            };
            if let Err(e) = result.and(flushed) {
                return (mapped, Err(e));
            }
            first += n as u64;
        }
        (mapped, Ok(()))
    }

    /// Reads the frames of the `out.len()` pages from `va` a 2 MB table at
    /// a time: one L1/L2 walk and one read of the L3 table per 2 MB. Page
    /// `i`'s frame goes to `out[i]`, `None` where it is unmapped; a page
    /// under a 2 MB block reads as the frame of the block that holds it.
    pub fn read_run(
        &self,
        mem: &PhysMem,
        va: VirtAddr,
        out: &mut [Option<PhysAddr>],
    ) -> KResult<()> {
        let mut descs = [0; TABLE_ENTRIES];
        let mut first = 0;
        while first < out.len() {
            let start = va + first as u64 * PAGE;
            let at = level_index(start, Level::L3);
            let n = (TABLE_ENTRIES - at as usize).min(out.len() - first);
            let out = &mut out[first..first + n];
            let d2 = self.l2_descriptor(mem, start)?;
            if d2 & D_VALID == 0 {
                out.fill(None);
            } else if d2 & D_TABLE_OR_PAGE == 0 {
                let base = (d2 & ADDR_MASK) + at * PAGE;
                for (i, frame) in out.iter_mut().enumerate() {
                    *frame = Some(base + i as u64 * PAGE);
                }
            } else {
                let addr = Self::descriptor_addr(d2 & ADDR_MASK, at);
                read_descriptors(mem, addr, &mut descs[..n])?;
                for (frame, d) in out.iter_mut().zip(&descs) {
                    *frame = (d & D_VALID != 0).then_some(d & ADDR_MASK);
                }
            }
            first += n;
        }
        Ok(())
    }

    /// Maps a 2 MB block at `va` (both addresses must be 2 MB aligned). Used
    /// for the kernel's coarse linear map of DRAM and I/O.
    pub fn map_block(
        &self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        flags: MapFlags,
    ) -> KResult<()> {
        if !va.is_multiple_of(BLOCK_SIZE_L2) || !pa.is_multiple_of(BLOCK_SIZE_L2) {
            return Err(KernelError::Invalid(format!(
                "unaligned block mapping {va:#x} -> {pa:#x}"
            )));
        }
        // Walk only to L2.
        let l2 = Self::next_table(mem, frames, self.root, va, Level::L1)?;
        let d2addr = Self::descriptor_addr(l2, level_index(va, Level::L2));
        let d2 = mem.read_u64(d2addr)?;
        if d2 & D_VALID != 0 {
            return Err(KernelError::AlreadyExists(format!(
                "block at {va:#x} already mapped"
            )));
        }
        mem.write_u64(d2addr, encode(pa, flags, false))?;
        Ok(())
    }

    /// Removes the 4 KB mapping covering `va`, returning the physical frame
    /// it pointed to.
    pub fn unmap_page(&self, mem: &mut PhysMem, va: VirtAddr) -> KResult<PhysAddr> {
        let d2 = self.l2_descriptor(mem, va)?;
        if d2 & D_VALID == 0 || d2 & D_TABLE_OR_PAGE == 0 {
            return Err(KernelError::NotFound(format!("va {va:#x} not mapped")));
        }
        let daddr = Self::descriptor_addr(d2 & ADDR_MASK, level_index(va, Level::L3));
        let d = mem.read_u64(daddr)?;
        if d & D_VALID == 0 {
            return Err(KernelError::NotFound(format!("va {va:#x} not mapped")));
        }
        mem.write_u64(daddr, 0)?;
        Ok(d & ADDR_MASK)
    }

    /// Translates `va`, returning the physical address and flags, or `None`
    /// if unmapped (which at EL0 would raise a page fault).
    pub fn translate(&self, mem: &PhysMem, va: VirtAddr) -> KResult<Option<Translation>> {
        let d2 = self.l2_descriptor(mem, va)?;
        if d2 & D_VALID == 0 {
            return Ok(None);
        }
        if d2 & D_TABLE_OR_PAGE == 0 {
            // Block mapping at L2.
            return Ok(Some(Translation {
                phys: (d2 & ADDR_MASK) + (va & (BLOCK_SIZE_L2 - 1)),
                flags: decode_flags(d2),
                from_block: true,
            }));
        }
        let d = mem.read_u64(Self::descriptor_addr(
            d2 & ADDR_MASK,
            level_index(va, Level::L3),
        ))?;
        if d & D_VALID == 0 {
            return Ok(None);
        }
        Ok(Some(Translation {
            phys: (d & ADDR_MASK) + (va & (PAGE - 1)),
            flags: decode_flags(d),
            from_block: false,
        }))
    }

    /// Frees the root table and every L2 and L3 table under it, returning
    /// how many table frames went back to the allocator. It reads each
    /// table frame once, the root and each L2 table whole. The frames the
    /// tables map are left alone: they belong to whoever mapped them.
    pub fn free_tables(self, mem: &PhysMem, frames: &mut FrameAllocator) -> KResult<usize> {
        let mut freed = 0;
        for d1 in read_table(mem, self.root)? {
            if d1 & D_VALID == 0 || d1 & D_TABLE_OR_PAGE == 0 {
                continue;
            }
            let l2 = d1 & ADDR_MASK;
            for d2 in read_table(mem, l2)? {
                if d2 & D_VALID != 0 && d2 & D_TABLE_OR_PAGE != 0 {
                    frames.free(d2 & ADDR_MASK)?;
                    freed += 1;
                }
            }
            frames.free(l2)?;
            freed += 1;
        }
        frames.free(self.root)?;
        Ok(freed + 1)
    }

    /// Counts mapped 4 KB pages under this table (blocks count as 512 pages).
    pub fn mapped_pages(&self, mem: &PhysMem) -> KResult<usize> {
        let mut count = 0usize;
        for d1 in read_table(mem, self.root)? {
            if d1 & D_VALID == 0 {
                continue;
            }
            for d2 in read_table(mem, d1 & ADDR_MASK)? {
                if d2 & D_VALID == 0 {
                    continue;
                }
                if d2 & D_TABLE_OR_PAGE == 0 {
                    count += TABLE_ENTRIES;
                    continue;
                }
                let l3 = read_table(mem, d2 & ADDR_MASK)?;
                count += l3.iter().filter(|&&d3| d3 & D_VALID != 0).count();
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod walk_equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAllocator, PageTable) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x0100_0000, 2048);
        let pt = PageTable::new(&mut frames, &mut mem).unwrap();
        (mem, frames, pt)
    }

    #[test]
    fn map_then_translate_round_trips() {
        let (mut mem, mut frames, pt) = setup();
        let frame = frames.alloc().unwrap();
        pt.map_page(
            &mut mem,
            &mut frames,
            0x40_0000,
            frame,
            MapFlags::user_data(),
        )
        .unwrap();
        let t = pt.translate(&mem, 0x40_0123).unwrap().unwrap();
        assert_eq!(t.phys, frame + 0x123);
        assert!(t.flags.user && t.flags.writable && t.flags.cached);
        assert!(!t.from_block);
    }

    #[test]
    fn unmapped_addresses_translate_to_none() {
        let (mem, _frames, pt) = {
            let (m, f, p) = setup();
            (m, f, p)
        };
        assert_eq!(pt.translate(&mem, 0xdead_b000).unwrap(), None);
    }

    #[test]
    fn double_mapping_is_rejected() {
        let (mut mem, mut frames, pt) = setup();
        let f1 = frames.alloc().unwrap();
        let f2 = frames.alloc().unwrap();
        pt.map_page(&mut mem, &mut frames, 0x1000, f1, MapFlags::user_data())
            .unwrap();
        assert!(matches!(
            pt.map_page(&mut mem, &mut frames, 0x1000, f2, MapFlags::user_data()),
            Err(KernelError::AlreadyExists(_))
        ));
    }

    #[test]
    fn unmap_returns_the_frame_and_clears_the_mapping() {
        let (mut mem, mut frames, pt) = setup();
        let frame = frames.alloc().unwrap();
        pt.map_page(&mut mem, &mut frames, 0x8000, frame, MapFlags::user_code())
            .unwrap();
        assert_eq!(pt.unmap_page(&mut mem, 0x8000).unwrap(), frame);
        assert_eq!(pt.translate(&mem, 0x8000).unwrap(), None);
        assert!(pt.unmap_page(&mut mem, 0x8000).is_err());
    }

    #[test]
    fn kernel_block_maps_cover_2mb_linearly() {
        let (mut mem, mut frames, pt) = setup();
        pt.map_block(
            &mut mem,
            &mut frames,
            KERNEL_VA_BASE,
            0x0,
            MapFlags::kernel_data(),
        )
        .unwrap();
        let t = pt
            .translate(&mem, KERNEL_VA_BASE + 0x12_3456)
            .unwrap()
            .unwrap();
        assert_eq!(t.phys, 0x12_3456);
        assert!(t.from_block);
        assert!(!t.flags.user);
    }

    #[test]
    fn code_mappings_are_read_only_and_device_uncached() {
        let (mut mem, mut frames, pt) = setup();
        let f = frames.alloc().unwrap();
        pt.map_page(&mut mem, &mut frames, 0x2000, f, MapFlags::user_code())
            .unwrap();
        let t = pt.translate(&mem, 0x2000).unwrap().unwrap();
        assert!(!t.flags.writable);
        pt.map_block(
            &mut mem,
            &mut frames,
            KERNEL_VA_BASE + 0x3F00_0000 - (0x3F00_0000 % BLOCK_SIZE_L2),
            0x3F00_0000 - (0x3F00_0000 % BLOCK_SIZE_L2),
            MapFlags::device(),
        )
        .unwrap();
        let t = pt
            .translate(&mem, KERNEL_VA_BASE + 0x3F00_0000)
            .unwrap()
            .unwrap();
        assert!(!t.flags.cached, "MMIO must be mapped non-cacheable");
    }

    #[test]
    fn unaligned_mappings_are_rejected() {
        let (mut mem, mut frames, pt) = setup();
        let f = frames.alloc().unwrap();
        assert!(pt
            .map_page(&mut mem, &mut frames, 0x1234, f, MapFlags::user_data())
            .is_err());
        assert!(pt
            .map_block(&mut mem, &mut frames, 0x1000, 0x0, MapFlags::kernel_data())
            .is_err());
    }

    #[test]
    fn mapped_page_count_reflects_pages_and_blocks() {
        let (mut mem, mut frames, pt) = setup();
        let f = frames.alloc().unwrap();
        pt.map_page(&mut mem, &mut frames, 0x5000, f, MapFlags::user_data())
            .unwrap();
        // Use the second 1 GB region for the block so it does not collide
        // with the L2 table already created for the 4 KB page above.
        pt.map_block(
            &mut mem,
            &mut frames,
            KERNEL_VA_BASE + 0x4000_0000,
            0,
            MapFlags::kernel_data(),
        )
        .unwrap();
        assert_eq!(pt.mapped_pages(&mem).unwrap(), 1 + 512);
    }

    #[test]
    fn free_tables_returns_every_table_frame_but_no_mapped_frame() {
        let (mut mem, mut frames, pt) = setup();
        let before = frames.free_frames() + 1; // the root from `setup`
        let f = frames.alloc().unwrap();
        // Two pages in different 2 MB and 1 GB regions: root + 2 L2 + 2 L3.
        for va in [0x5000, 0x40_0000_0000] {
            pt.map_page(&mut mem, &mut frames, va, f, MapFlags::user_data())
                .unwrap();
        }
        assert_eq!(pt.free_tables(&mem, &mut frames).unwrap(), 5);
        assert!(
            frames.is_allocated(f),
            "the mapped frame stays with its owner"
        );
        assert_eq!(frames.free_frames(), before - 1);
    }
}
