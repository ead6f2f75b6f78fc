//! Per-task address spaces.
//!
//! Each user app gets its own address space (§3): code/data and stack mapped
//! at 4 KB granularity starting at virtual address 0, with only the user
//! stack demand-paged — initially a single stack page is mapped, further
//! pages appear on fault, and "tasks with repeated page faults at the same
//! address are terminated by the kernel" (§4.3). `exec()` also appends a 4 KB
//! mapping of the whole framebuffer, identity-mapped to its physical address
//! for debugging ease, which is how apps render directly (DRI-style).

use hal::mem::{PhysAddr, PhysMem, FRAME_SIZE};

use crate::error::{KResult, KernelError};
use crate::mm::frames::FrameAllocator;
use crate::mm::pagetable::{MapFlags, PageTable, Translation, VirtAddr};

/// Classification of a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Program code (read-only, eagerly mapped by exec).
    Code,
    /// Program data + bss (eagerly mapped by exec).
    Data,
    /// The heap grown by `sbrk`.
    Heap,
    /// The user stack (demand paged).
    Stack,
    /// The framebuffer mapping appended at the end of exec.
    Framebuffer,
}

/// One contiguous virtual region of an address space.
#[derive(Debug, Clone)]
pub struct Region {
    /// Kind of region.
    pub kind: RegionKind,
    /// Start virtual address (page aligned).
    pub start: VirtAddr,
    /// Length in bytes (page multiple).
    pub len: u64,
    /// Mapping flags.
    pub flags: MapFlags,
    /// Whether pages are mapped lazily on first fault.
    pub lazy: bool,
}

impl Region {
    /// Whether `va` falls inside this region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.start + self.len
    }
}

/// Where the user stack top lives (grows downward from here).
pub const USER_STACK_TOP: VirtAddr = 0x0000_0040_0000_0000;
/// Maximum user stack size.
pub const USER_STACK_MAX: u64 = 1024 * 1024;
/// Default virtual base where exec maps the framebuffer. Identity mapping to
/// the physical framebuffer address is preferred (§4.3); this constant is the
/// fallback when that range is already taken.
pub const USER_FB_FALLBACK_BASE: VirtAddr = 0x0000_0020_0000_0000;
/// How many faults at the same address before the kernel kills the task.
pub const REPEATED_FAULT_LIMIT: u32 = 3;

/// Outcome of a page-fault handling attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A page was mapped; the access should be retried.
    Mapped,
    /// The fault was at an unmapped address outside any region, or the task
    /// faulted repeatedly at the same address: the task must be killed.
    Fatal,
}

/// Statistics for one address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddrSpaceStats {
    /// Pages currently mapped.
    pub mapped_pages: usize,
    /// Page faults handled successfully.
    pub faults_handled: u64,
    /// Faults deemed fatal.
    pub faults_fatal: u64,
    /// Pages copied by fork.
    pub pages_copied: u64,
}

/// A user (or kernel-thread) address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    table: PageTable,
    regions: Vec<Region>,
    /// Frames owned by this address space (freed on drop/exit).
    owned_frames: Vec<PhysAddr>,
    /// Current heap break.
    heap_top: VirtAddr,
    heap_base: VirtAddr,
    /// Fault bookkeeping for the repeated-fault kill rule.
    last_fault_addr: VirtAddr,
    same_fault_count: u32,
    stats: AddrSpaceStats,
}

impl AddressSpace {
    /// Creates an empty address space with a fresh root table.
    pub fn new(frames: &mut FrameAllocator, mem: &mut PhysMem) -> KResult<Self> {
        let table = PageTable::new(frames, mem)?;
        Ok(AddressSpace {
            table,
            regions: Vec::new(),
            owned_frames: Vec::new(),
            heap_top: 0,
            heap_base: 0,
            last_fault_addr: u64::MAX,
            same_fault_count: 0,
            stats: AddrSpaceStats::default(),
        })
    }

    /// The underlying page table.
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }

    /// The regions of this address space.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Statistics.
    pub fn stats(&self) -> AddrSpaceStats {
        self.stats
    }

    /// Resident memory in bytes (frames owned by this space).
    pub fn resident_bytes(&self) -> u64 {
        self.owned_frames.len() as u64 * FRAME_SIZE as u64
    }

    /// Maps the `pages` pages from `start` to fresh zeroed frames, a 2 MB
    /// table at a time. Pages mapped before an error stay mapped and owned;
    /// the frame taken for the page that failed goes back to the allocator.
    fn map_zeroed(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        start: VirtAddr,
        pages: u64,
        flags: MapFlags,
    ) -> KResult<()> {
        let owned = &mut self.owned_frames;
        let before = owned.len();
        let (mapped, result) =
            self.table
                .map_run(mem, frames, start, pages, flags, |frames, mem, _| {
                    let frame = frames.alloc()?;
                    owned.push(frame);
                    mem.fill(frame, FRAME_SIZE, 0)?;
                    Ok(Some(frame))
                });
        self.stats.mapped_pages += mapped as usize;
        // The frame of the page that failed, if one did, was never mapped.
        for frame in owned.split_off(before + mapped as usize) {
            frames.free(frame)?;
        }
        result
    }

    /// Adds a region. Non-lazy regions are mapped eagerly (one fresh zeroed
    /// frame per page); lazy regions map nothing until faulted.
    #[allow(clippy::too_many_arguments)]
    pub fn add_region(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        kind: RegionKind,
        start: VirtAddr,
        len: u64,
        flags: MapFlags,
        lazy: bool,
    ) -> KResult<()> {
        if !start.is_multiple_of(FRAME_SIZE as u64) || len == 0 {
            return Err(KernelError::Invalid(format!(
                "bad region {start:#x}+{len:#x}"
            )));
        }
        let len = len.div_ceil(FRAME_SIZE as u64) * FRAME_SIZE as u64;
        if self
            .regions
            .iter()
            .any(|r| start < r.start + r.len && r.start < start + len)
        {
            return Err(KernelError::AlreadyExists(format!(
                "region overlap at {start:#x}"
            )));
        }
        if !lazy {
            self.map_zeroed(frames, mem, start, len / FRAME_SIZE as u64, flags)?;
        }
        if kind == RegionKind::Heap {
            self.heap_base = start;
            self.heap_top = start + len;
        }
        self.regions.push(Region {
            kind,
            start,
            len,
            flags,
            lazy,
        });
        Ok(())
    }

    /// Maps an existing physical range (the framebuffer) into the address
    /// space at `va` without taking ownership of the frames.
    #[allow(clippy::too_many_arguments)]
    pub fn map_physical_range(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        kind: RegionKind,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        flags: MapFlags,
    ) -> KResult<()> {
        let len = len.div_ceil(FRAME_SIZE as u64) * FRAME_SIZE as u64;
        let (mapped, result) = self.table.map_run(
            mem,
            frames,
            va,
            len / FRAME_SIZE as u64,
            flags,
            |_, _, i| Ok(Some(pa + i * FRAME_SIZE as u64)),
        );
        self.stats.mapped_pages += mapped as usize;
        result?;
        self.regions.push(Region {
            kind,
            start: va,
            len,
            flags,
            lazy: false,
        });
        Ok(())
    }

    /// Sets up the demand-paged user stack: the region spans
    /// [`USER_STACK_MAX`] below [`USER_STACK_TOP`] but only the top page is
    /// mapped initially (§4.3).
    pub fn add_stack(&mut self, frames: &mut FrameAllocator, mem: &mut PhysMem) -> KResult<()> {
        let start = USER_STACK_TOP - USER_STACK_MAX;
        self.add_region(
            frames,
            mem,
            RegionKind::Stack,
            start,
            USER_STACK_MAX,
            MapFlags::user_data(),
            true,
        )?;
        // Map the first (topmost) stack page eagerly.
        self.map_zeroed(
            frames,
            mem,
            USER_STACK_TOP - FRAME_SIZE as u64,
            1,
            MapFlags::user_data(),
        )
    }

    /// Grows (or shrinks, with a negative delta) the heap; returns the old
    /// break, like `sbrk`. A growth maps all its pages or none: one the free
    /// frames cannot back fails before it maps anything, and one whose page
    /// tables run out part-way unmaps and frees the pages it mapped. A
    /// shrink unmaps and frees the whole pages above the new break, so the
    /// heap maps exactly the pages below it and can grow back over them.
    pub fn sbrk(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        delta: i64,
    ) -> KResult<VirtAddr> {
        let old = self.heap_top;
        if delta == 0 {
            return Ok(old);
        }
        if delta > 0 {
            let new_top = old
                .checked_add(delta.unsigned_abs())
                .ok_or(KernelError::NoMemory)?;
            let first = old.div_ceil(FRAME_SIZE as u64) * FRAME_SIZE as u64;
            let pages = new_top.saturating_sub(first).div_ceil(FRAME_SIZE as u64);
            if pages > frames.free_frames() as u64 {
                return Err(KernelError::NoMemory);
            }
            let owned_before = self.owned_frames.len();
            if let Err(e) = self.map_zeroed(frames, mem, first, pages, MapFlags::user_data()) {
                let mut undo = first;
                for frame in self.owned_frames.split_off(owned_before) {
                    self.table.unmap_page(mem, undo)?;
                    frames.free(frame)?;
                    self.stats.mapped_pages -= 1;
                    undo += FRAME_SIZE as u64;
                }
                return Err(e);
            }
            self.heap_top = new_top;
        } else {
            let new_top = old.saturating_sub(delta.unsigned_abs()).max(self.heap_base);
            let page = FRAME_SIZE as u64;
            let (kept, end) = (new_top.div_ceil(page) * page, old.div_ceil(page) * page);
            for va in (kept..end).step_by(FRAME_SIZE) {
                let frame = self.table.unmap_page(mem, va)?;
                self.owned_frames.retain(|&f| f != frame);
                frames.free(frame)?;
                self.stats.mapped_pages -= 1;
            }
            self.heap_top = new_top;
        }
        // Keep the heap region record in sync.
        if let Some(r) = self.regions.iter_mut().find(|r| r.kind == RegionKind::Heap) {
            r.len = self.heap_top.saturating_sub(r.start);
        }
        Ok(old)
    }

    /// Current heap break.
    pub fn heap_top(&self) -> VirtAddr {
        self.heap_top
    }

    /// Translates a user virtual address.
    pub fn translate(&self, mem: &PhysMem, va: VirtAddr) -> KResult<Option<Translation>> {
        self.table.translate(mem, va)
    }

    /// Handles a page fault at `va`. Returns how many pages were mapped (for
    /// cost accounting) together with the outcome.
    pub fn handle_fault(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        va: VirtAddr,
    ) -> KResult<FaultOutcome> {
        // Repeated faults at the same address mean the mapping we create is
        // not fixing anything (or the access is simply wild): kill the task.
        if va == self.last_fault_addr {
            self.same_fault_count += 1;
            if self.same_fault_count >= REPEATED_FAULT_LIMIT {
                self.stats.faults_fatal += 1;
                return Ok(FaultOutcome::Fatal);
            }
        } else {
            self.last_fault_addr = va;
            self.same_fault_count = 1;
        }
        let page_va = va & !(FRAME_SIZE as u64 - 1);
        let region = self.regions.iter().find(|r| r.contains(va)).cloned();
        match region {
            Some(r) if r.lazy => {
                if self.translate(mem, page_va)?.is_some() {
                    // Already mapped: this fault is a permission problem, not
                    // a missing page. Treat as fatal.
                    self.stats.faults_fatal += 1;
                    return Ok(FaultOutcome::Fatal);
                }
                self.map_zeroed(frames, mem, page_va, 1, r.flags)?;
                self.stats.faults_handled += 1;
                Ok(FaultOutcome::Mapped)
            }
            _ => {
                self.stats.faults_fatal += 1;
                Ok(FaultOutcome::Fatal)
            }
        }
    }

    /// Duplicates this address space for `fork()`: every mapped page of every
    /// owned region is copied eagerly into fresh frames (Proto has no
    /// copy-on-write, which is why its fork is ~17x slower than Linux's in
    /// Figure 9). Returns the new space and the number of pages copied.
    ///
    /// The simulated cost and the frames are those of an eager copy: each
    /// page takes a fresh frame and a mapping, and `sys_fork` charges
    /// `fork_copy_per_page` for it. On the host, each region's parent pages
    /// are read a 2 MB table at a time ([`PageTable::read_run`]) and the
    /// child's mapped the same way ([`PageTable::map_run`]), taking frames
    /// in the order a page-by-page copy would; [`PhysMem::copy_frame`]
    /// shares a frame's bytes until either side writes. None of this changes
    /// a frame, descriptor or charge. A fork that fails (out of frames)
    /// gives back every frame and table it took before it returns the error.
    pub fn fork_copy(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
    ) -> KResult<(AddressSpace, u64)> {
        let mut child = AddressSpace::new(frames, mem)?;
        if let Err(e) = child.copy_regions(&self.regions, &self.table, frames, mem) {
            child.release(frames, mem)?;
            return Err(e);
        }
        let copied = child.stats.mapped_pages as u64;
        child.heap_base = self.heap_base;
        child.heap_top = self.heap_top;
        self.stats.pages_copied += copied;
        Ok((child, copied))
    }

    /// Copies every page `parent` maps in `regions`, bar the framebuffer's,
    /// into this (empty) space, and takes on the regions.
    fn copy_regions(
        &mut self,
        regions: &[Region],
        parent: &PageTable,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
    ) -> KResult<()> {
        let mut from = Vec::new();
        for region in regions {
            if region.kind == RegionKind::Framebuffer {
                // Shared device mapping: re-map, do not copy.
                continue;
            }
            // `sbrk` can leave the heap region's length short of a page.
            let pages = region.len.div_ceil(FRAME_SIZE as u64);
            from.clear();
            from.resize(pages as usize, None);
            parent.read_run(mem, region.start, &mut from)?;
            let owned = &mut self.owned_frames;
            let (mapped, result) = self.table.map_run(
                mem,
                frames,
                region.start,
                pages,
                region.flags,
                |frames, mem, i| {
                    let Some(src) = from[i as usize] else {
                        return Ok(None);
                    };
                    let frame = frames.alloc()?;
                    owned.push(frame);
                    mem.copy_frame(src, frame)?;
                    Ok(Some(frame))
                },
            );
            self.stats.mapped_pages += mapped as usize;
            result?;
            self.regions.push(region.clone());
        }
        Ok(())
    }

    /// Releases every owned frame and the page-table frames themselves back
    /// to the allocator (called on exit). Returns how many owned (data)
    /// frames were released.
    pub fn release(self, frames: &mut FrameAllocator, mem: &PhysMem) -> KResult<usize> {
        for &f in &self.owned_frames {
            frames.free(f)?;
        }
        self.table.free_tables(mem, frames)?;
        Ok(self.owned_frames.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, FrameAllocator) {
        (PhysMem::new(), FrameAllocator::new(0x0100_0000, 4096))
    }

    #[test]
    fn exec_style_regions_map_and_translate() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Code,
            0x0,
            8192,
            MapFlags::user_code(),
            false,
        )
        .unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Data,
            0x4000,
            4096,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        assert!(asp.translate(&mem, 0x1000).unwrap().is_some());
        assert!(asp.translate(&mem, 0x4000).unwrap().is_some());
        assert!(asp.translate(&mem, 0x9000).unwrap().is_none());
        assert_eq!(asp.stats().mapped_pages, 3);
    }

    #[test]
    fn stack_is_demand_paged() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_stack(&mut frames, &mut mem).unwrap();
        // Top page mapped, deeper pages not.
        assert!(asp.translate(&mem, USER_STACK_TOP - 8).unwrap().is_some());
        let deep = USER_STACK_TOP - 5 * FRAME_SIZE as u64;
        assert!(asp.translate(&mem, deep).unwrap().is_none());
        // Fault it in.
        assert_eq!(
            asp.handle_fault(&mut frames, &mut mem, deep).unwrap(),
            FaultOutcome::Mapped
        );
        assert!(asp.translate(&mem, deep).unwrap().is_some());
        assert_eq!(asp.stats().faults_handled, 1);
    }

    #[test]
    fn wild_accesses_are_fatal() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_stack(&mut frames, &mut mem).unwrap();
        assert_eq!(
            asp.handle_fault(&mut frames, &mut mem, 0xdead_0000)
                .unwrap(),
            FaultOutcome::Fatal
        );
    }

    #[test]
    fn repeated_faults_at_one_address_kill_the_task() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_stack(&mut frames, &mut mem).unwrap();
        // A kernel-space address inside no region faults fatally immediately,
        // so use an address in the stack region that keeps faulting because
        // the test re-reports it as faulting even after mapping (simulating a
        // permission issue): first fault maps it, second and third faults on
        // the *same* address are treated as repeated.
        let va = USER_STACK_TOP - 10 * FRAME_SIZE as u64;
        assert_eq!(
            asp.handle_fault(&mut frames, &mut mem, va).unwrap(),
            FaultOutcome::Mapped
        );
        assert_eq!(
            asp.handle_fault(&mut frames, &mut mem, va).unwrap(),
            FaultOutcome::Fatal
        );
    }

    #[test]
    fn sbrk_grows_the_heap_like_marios_pixel_buffer() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Heap,
            0x10_0000,
            4096,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        let old = asp.sbrk(&mut frames, &mut mem, 64 * 1024).unwrap();
        assert_eq!(old, 0x10_0000 + 4096);
        assert!(asp.translate(&mem, old + 60 * 1024).unwrap().is_some());
        assert_eq!(asp.heap_top(), old + 64 * 1024);
        // sbrk(0) just reports the break.
        assert_eq!(asp.sbrk(&mut frames, &mut mem, 0).unwrap(), asp.heap_top());
    }

    #[test]
    fn a_growth_whose_page_tables_run_out_maps_nothing() {
        // 64 frames: the root table, then the heap's first page with its L2
        // and L3 tables, leave 60 free. Growing by 60 pages passes the
        // free-frame check, but the pages past the 2 MB boundary need a new
        // L3 table, so the 60th page finds no frame.
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x0100_0000, 64);
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Heap,
            0x1F_F000,
            4096,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        assert_eq!(frames.free_frames(), 60);
        let top = asp.heap_top();
        assert_eq!(
            asp.sbrk(&mut frames, &mut mem, 60 * 4096),
            Err(KernelError::NoMemory)
        );
        assert_eq!(asp.heap_top(), top);
        assert_eq!(asp.stats().mapped_pages, 1);
        assert!(asp.translate(&mem, top).unwrap().is_none());
        // Only the new L3 table stays, owned by the page table.
        assert_eq!(frames.free_frames(), 59);
        assert_eq!(asp.sbrk(&mut frames, &mut mem, 4096).unwrap(), top);
        assert_eq!(asp.release(&mut frames, &mem).unwrap(), 2);
        assert_eq!(frames.free_frames(), 64);
    }

    #[test]
    fn fork_copies_pages_and_isolates_the_child() {
        let (mut mem, mut frames) = setup();
        let mut parent = AddressSpace::new(&mut frames, &mut mem).unwrap();
        parent
            .add_region(
                &mut frames,
                &mut mem,
                RegionKind::Data,
                0x4000,
                8192,
                MapFlags::user_data(),
                false,
            )
            .unwrap();
        // Scribble into the parent's data page.
        let t = parent.translate(&mem, 0x4000).unwrap().unwrap();
        mem.write_u32(t.phys, 0xAABBCCDD).unwrap();
        let (child, copied) = parent.fork_copy(&mut frames, &mut mem).unwrap();
        assert_eq!(copied, 2);
        let ct = child.translate(&mem, 0x4000).unwrap().unwrap();
        assert_ne!(ct.phys, t.phys, "child has its own frame");
        assert_eq!(
            mem.read_u32(ct.phys).unwrap(),
            0xAABBCCDD,
            "contents copied"
        );
        // Writing in the child does not affect the parent.
        mem.write_u32(ct.phys, 0x11111111).unwrap();
        assert_eq!(mem.read_u32(t.phys).unwrap(), 0xAABBCCDD);
    }

    #[test]
    fn a_failed_fork_gives_back_every_frame_it_took() {
        // 64 frames: the root table and a 40-page heap with its L2 and L3
        // tables leave 21 free, and the child needs 43.
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x0100_0000, 64);
        let mut parent = AddressSpace::new(&mut frames, &mut mem).unwrap();
        parent
            .add_region(
                &mut frames,
                &mut mem,
                RegionKind::Heap,
                0x10_0000,
                40 * 4096,
                MapFlags::user_data(),
                false,
            )
            .unwrap();
        assert_eq!(frames.free_frames(), 21);
        let allocated = frames.stats().allocated;
        assert!(matches!(
            parent.fork_copy(&mut frames, &mut mem),
            Err(KernelError::NoMemory)
        ));
        assert_eq!(frames.free_frames(), 21);
        assert_eq!(frames.stats().allocated, allocated);
        assert_eq!(parent.stats().pages_copied, 0);
        assert_eq!(parent.release(&mut frames, &mem).unwrap(), 40);
        assert_eq!(frames.free_frames(), 64);
    }

    #[test]
    fn framebuffer_mapping_is_shared_not_copied() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.map_physical_range(
            &mut frames,
            &mut mem,
            RegionKind::Framebuffer,
            0x3C10_0000,
            0x3C10_0000,
            1 << 20,
            MapFlags::user_framebuffer(),
        )
        .unwrap();
        let (child, copied) = asp.fork_copy(&mut frames, &mut mem).unwrap();
        assert_eq!(copied, 0);
        assert_eq!(
            child.regions().len(),
            0,
            "fb region not duplicated into the child"
        );
    }

    #[test]
    fn release_returns_all_frames() {
        let (mut mem, mut frames) = setup();
        let before = frames.free_frames();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Data,
            0x0,
            16 * 4096,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        let freed = asp.release(&mut frames, &mem).unwrap();
        assert_eq!(freed, 16);
        // The page-table frames went back too.
        assert_eq!(frames.free_frames(), before);
    }

    #[test]
    fn overlapping_regions_are_rejected() {
        let (mut mem, mut frames) = setup();
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Data,
            0x1000,
            8192,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        assert!(asp
            .add_region(
                &mut frames,
                &mut mem,
                RegionKind::Heap,
                0x2000,
                4096,
                MapFlags::user_data(),
                false
            )
            .is_err());
    }
}
