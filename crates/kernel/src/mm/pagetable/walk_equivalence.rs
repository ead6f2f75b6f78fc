//! [`AddressSpace`] walks its page tables a 2 MB table at a time
//! ([`PageTable::map_run`], [`PageTable::read_run`]). This test runs seeded
//! operations through it and through a page-by-page reference kept here,
//! which reads and writes one descriptor at a time as each page is mapped,
//! translated, copied or freed. Both must leave the same bytes in every
//! frame, the same allocator (free list and statistics), the same
//! statistics and the same results and errors.
//!
//! [`PageTable::map_run`]: super::PageTable::map_run
//! [`PageTable::read_run`]: super::PageTable::read_run

use hal::mem::{PhysAddr, PhysMem, FRAME_SIZE};

use super::{encode, level_index, Level, MapFlags, VirtAddr, ADDR_MASK, D_VALID};
use crate::error::{KResult, KernelError};
use crate::mm::addrspace::{
    AddrSpaceStats, AddressSpace, FaultOutcome, RegionKind, REPEATED_FAULT_LIMIT, USER_STACK_MAX,
    USER_STACK_TOP,
};
use crate::mm::frames::FrameAllocator;

const PAGE: u64 = FRAME_SIZE as u64;
const MB2: u64 = 2 << 20;
const BASE: PhysAddr = 0x0100_0000;
const FRAMES: usize = 3072;

/// A page table walked one page and one descriptor at a time.
struct Table {
    root: PhysAddr,
}

impl Table {
    fn new(frames: &mut FrameAllocator, mem: &mut PhysMem) -> KResult<Table> {
        let root = frames.alloc()?;
        mem.fill(root, FRAME_SIZE, 0)?;
        Ok(Table { root })
    }

    /// The address of `va`'s L3 descriptor, allocating the tables above it.
    fn walk(&self, mem: &mut PhysMem, frames: &mut FrameAllocator, va: VirtAddr) -> KResult<u64> {
        let mut table = self.root;
        for level in [Level::L1, Level::L2] {
            let daddr = table + level_index(va, level) * 8;
            let d = mem.read_u64(daddr)?;
            table = if d & D_VALID == 0 {
                let new_table = frames.alloc()?;
                mem.fill(new_table, FRAME_SIZE, 0)?;
                mem.write_u64(daddr, encode(new_table, MapFlags::kernel_data(), true))?;
                new_table
            } else {
                d & ADDR_MASK
            };
        }
        Ok(table + level_index(va, Level::L3) * 8)
    }

    /// The address of `va`'s L3 descriptor, if its tables exist.
    fn lookup(&self, mem: &PhysMem, va: VirtAddr) -> KResult<Option<u64>> {
        let mut table = self.root;
        for level in [Level::L1, Level::L2] {
            let d = mem.read_u64(table + level_index(va, level) * 8)?;
            if d & D_VALID == 0 {
                return Ok(None);
            }
            table = d & ADDR_MASK;
        }
        Ok(Some(table + level_index(va, Level::L3) * 8))
    }

    fn map(
        &self,
        mem: &mut PhysMem,
        frames: &mut FrameAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        flags: MapFlags,
    ) -> KResult<()> {
        let daddr = self.walk(mem, frames, va)?;
        if mem.read_u64(daddr)? & D_VALID != 0 {
            return Err(KernelError::AlreadyExists(format!(
                "va {va:#x} already mapped"
            )));
        }
        mem.write_u64(daddr, encode(pa, flags, true))?;
        Ok(())
    }

    fn translate(&self, mem: &PhysMem, va: VirtAddr) -> KResult<Option<PhysAddr>> {
        let Some(daddr) = self.lookup(mem, va)? else {
            return Ok(None);
        };
        let d = mem.read_u64(daddr)?;
        Ok((d & D_VALID != 0).then_some(d & ADDR_MASK))
    }

    fn unmap(&self, mem: &mut PhysMem, va: VirtAddr) -> KResult<()> {
        let daddr = self
            .lookup(mem, va)?
            .ok_or_else(|| KernelError::NotFound(format!("va {va:#x} not mapped")))?;
        Ok(mem.write_u64(daddr, 0)?)
    }

    fn free(self, mem: &PhysMem, frames: &mut FrameAllocator) -> KResult<()> {
        for i1 in 0..512 {
            let d1 = mem.read_u64(self.root + i1 * 8)?;
            if d1 & D_VALID == 0 {
                continue;
            }
            let l2 = d1 & ADDR_MASK;
            for i2 in 0..512 {
                let d2 = mem.read_u64(l2 + i2 * 8)?;
                if d2 & D_VALID != 0 {
                    frames.free(d2 & ADDR_MASK)?;
                }
            }
            frames.free(l2)?;
        }
        frames.free(self.root)
    }
}

/// An address space on [`Table`]: regions, owned frames, heap and fault
/// bookkeeping as [`AddressSpace`] keeps them.
struct Reference {
    table: Table,
    regions: Vec<(RegionKind, VirtAddr, u64, MapFlags, bool)>,
    owned: Vec<PhysAddr>,
    heap_base: VirtAddr,
    heap_top: VirtAddr,
    last_fault: VirtAddr,
    same_faults: u32,
    stats: AddrSpaceStats,
}

impl Reference {
    fn new(frames: &mut FrameAllocator, mem: &mut PhysMem) -> KResult<Reference> {
        Ok(Reference {
            table: Table::new(frames, mem)?,
            regions: Vec::new(),
            owned: Vec::new(),
            heap_base: 0,
            heap_top: 0,
            last_fault: u64::MAX,
            same_faults: 0,
            stats: AddrSpaceStats::default(),
        })
    }

    fn map_zeroed(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        va: VirtAddr,
        flags: MapFlags,
    ) -> KResult<()> {
        let frame = frames.alloc()?;
        if let Err(e) = mem
            .fill(frame, FRAME_SIZE, 0)
            .map_err(KernelError::from)
            .and_then(|()| self.table.map(mem, frames, va, frame, flags))
        {
            frames.free(frame)?;
            return Err(e);
        }
        self.owned.push(frame);
        self.stats.mapped_pages += 1;
        Ok(())
    }

    fn add_region(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        (kind, start, len, flags, lazy): (RegionKind, VirtAddr, u64, MapFlags, bool),
    ) -> KResult<()> {
        if !lazy {
            for va in (start..start + len).step_by(FRAME_SIZE) {
                self.map_zeroed(frames, mem, va, flags)?;
            }
        }
        if kind == RegionKind::Heap {
            self.heap_base = start;
            self.heap_top = start + len;
        }
        self.regions.push((kind, start, len, flags, lazy));
        Ok(())
    }

    fn map_physical_range(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        va: VirtAddr,
        len: u64,
        flags: MapFlags,
    ) -> KResult<()> {
        for off in (0..len).step_by(FRAME_SIZE) {
            self.table.map(mem, frames, va + off, va + off, flags)?;
            self.stats.mapped_pages += 1;
        }
        self.regions
            .push((RegionKind::Framebuffer, va, len, flags, false));
        Ok(())
    }

    fn sbrk(&mut self, frames: &mut FrameAllocator, mem: &mut PhysMem, delta: i64) -> KResult<u64> {
        let old = self.heap_top;
        if delta < 0 {
            self.heap_top = old.saturating_sub(delta.unsigned_abs()).max(self.heap_base);
            // The whole pages above the new break go, one at a time.
            for va in
                (self.heap_top.div_ceil(PAGE) * PAGE..old.div_ceil(PAGE) * PAGE).step_by(FRAME_SIZE)
            {
                let frame = self.table.translate(mem, va)?;
                self.table.unmap(mem, va)?;
                let frame = frame.expect("the page unmap found is mapped");
                self.owned.retain(|&f| f != frame);
                frames.free(frame)?;
                self.stats.mapped_pages -= 1;
            }
        } else {
            let new_top = old + delta as u64;
            let first = old.div_ceil(PAGE) * PAGE;
            if new_top.saturating_sub(first).div_ceil(PAGE) > frames.free_frames() as u64 {
                return Err(KernelError::NoMemory);
            }
            let before = self.owned.len();
            for va in (first..new_top).step_by(FRAME_SIZE) {
                if let Err(e) = self.map_zeroed(frames, mem, va, MapFlags::user_data()) {
                    for (i, frame) in self.owned.split_off(before).into_iter().enumerate() {
                        self.table.unmap(mem, first + i as u64 * PAGE)?;
                        frames.free(frame)?;
                        self.stats.mapped_pages -= 1;
                    }
                    return Err(e);
                }
            }
            self.heap_top = new_top;
        }
        for region in self.regions.iter_mut() {
            if region.0 == RegionKind::Heap {
                region.2 = self.heap_top.saturating_sub(region.1);
            }
        }
        Ok(old)
    }

    fn handle_fault(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
        va: VirtAddr,
    ) -> KResult<FaultOutcome> {
        if va == self.last_fault {
            self.same_faults += 1;
            if self.same_faults >= REPEATED_FAULT_LIMIT {
                self.stats.faults_fatal += 1;
                return Ok(FaultOutcome::Fatal);
            }
        } else {
            self.last_fault = va;
            self.same_faults = 1;
        }
        let page_va = va & !(PAGE - 1);
        let region = self
            .regions
            .iter()
            .find(|r| va >= r.1 && va < r.1 + r.2)
            .copied();
        match region {
            Some((_, _, _, flags, true)) if self.table.translate(mem, page_va)?.is_none() => {
                self.map_zeroed(frames, mem, page_va, flags)?;
                self.stats.faults_handled += 1;
                Ok(FaultOutcome::Mapped)
            }
            _ => {
                self.stats.faults_fatal += 1;
                Ok(FaultOutcome::Fatal)
            }
        }
    }

    fn fork(
        &mut self,
        frames: &mut FrameAllocator,
        mem: &mut PhysMem,
    ) -> KResult<(Reference, u64)> {
        let mut child = Reference::new(frames, mem)?;
        let copied = (|| {
            for &region in &self.regions {
                let (kind, start, len, flags, _) = region;
                if kind == RegionKind::Framebuffer {
                    continue;
                }
                for va in (start..start + len).step_by(FRAME_SIZE) {
                    if let Some(src) = self.table.translate(mem, va)? {
                        let frame = frames.alloc()?;
                        child.owned.push(frame);
                        mem.copy_within(src, frame, FRAME_SIZE)?;
                        child.table.map(mem, frames, va, frame, flags)?;
                        child.stats.mapped_pages += 1;
                    }
                }
                child.regions.push(region);
            }
            Ok(child.owned.len() as u64)
        })();
        let copied = match copied {
            Ok(copied) => copied,
            Err(e) => {
                child.release(frames, mem)?;
                return Err(e);
            }
        };
        child.heap_base = self.heap_base;
        child.heap_top = self.heap_top;
        self.stats.pages_copied += copied;
        Ok((child, copied))
    }

    fn release(self, frames: &mut FrameAllocator, mem: &PhysMem) -> KResult<usize> {
        for &frame in &self.owned {
            frames.free(frame)?;
        }
        self.table.free(mem, frames)?;
        Ok(self.owned.len())
    }
}

/// One side of the comparison: its memory and allocator.
struct Machine {
    mem: PhysMem,
    frames: FrameAllocator,
}

impl Machine {
    fn new() -> Machine {
        Machine {
            mem: PhysMem::new(),
            frames: FrameAllocator::new(BASE, FRAMES),
        }
    }

    fn pool(&self) -> Vec<u8> {
        let mut bytes = vec![0; FRAMES * FRAME_SIZE];
        self.mem.read(BASE, &mut bytes).unwrap();
        bytes
    }
}

/// Asserts that both machines hold the same frames and allocator.
fn same_machines(new: &Machine, reference: &Machine, what: &str) {
    assert_eq!(new.frames, reference.frames, "allocator after {what}");
    assert_eq!(
        new.mem.resident_frames(),
        reference.mem.resident_frames(),
        "resident frames after {what}"
    );
    assert!(new.pool() == reference.pool(), "frame bytes after {what}");
}

/// splitmix64: the seeded stream of operations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Takes frames from both allocators, the same ones in the same order,
/// until `free` are left.
fn hold_back(new: &mut Machine, reference: &mut Machine, free: usize) -> Vec<PhysAddr> {
    let n = new.frames.free_frames().saturating_sub(free);
    let held = new.frames.alloc_many(n).unwrap();
    assert_eq!(reference.frames.alloc_many(n).unwrap(), held);
    held
}

fn give_back(new: &mut Machine, reference: &mut Machine, held: Vec<PhysAddr>) {
    for frame in held {
        new.frames.free(frame).unwrap();
        reference.frames.free(frame).unwrap();
    }
}

/// Writes the same random bytes into a few mapped pages of both spaces.
fn scribble(
    rng: &mut Rng,
    new: (&AddressSpace, &mut Machine),
    reference: (&Reference, &mut Machine),
) {
    let (space, m) = new;
    let (rspace, r) = reference;
    for &(_, start, len, _, _) in &rspace.regions {
        for _ in 0..4 {
            let va = start + rng.below(len / PAGE) * PAGE;
            let Some(pa) = rspace.table.translate(&r.mem, va).unwrap() else {
                continue;
            };
            let t = space.translate(&m.mem, va).unwrap().unwrap();
            assert_eq!(t.phys, pa, "both map {va:#x} to one frame");
            let data: Vec<u8> = (0..1 + rng.below(PAGE)).map(|_| rng.next() as u8).collect();
            m.mem.write(pa, &data).unwrap();
            r.mem.write(pa, &data).unwrap();
        }
    }
}

#[test]
fn table_at_a_time_walks_match_a_page_by_page_reference() {
    for seed in 1..=4u64 {
        let mut rng = Rng(seed);
        let (mut m, mut r) = (Machine::new(), Machine::new());
        let mut space = AddressSpace::new(&mut m.frames, &mut m.mem).unwrap();
        let mut rspace = Reference::new(&mut r.frames, &mut r.mem).unwrap();

        // Eager regions, each crossing a 2 MB boundary; the last crosses
        // the first 1 GB boundary too, so its run allocates an L2 table.
        let code = MapFlags::user_code();
        for (i, boundary) in [MB2, 5 * MB2, 1 << 30].into_iter().enumerate() {
            let below = 1 + rng.below(100);
            let start = boundary - below * PAGE;
            let len = (below + 1 + rng.below(150)) * PAGE;
            let kind = [RegionKind::Code, RegionKind::Data, RegionKind::Data][i];
            let flags = [code, MapFlags::user_data(), MapFlags::user_data()][i];
            let got = space.add_region(&mut m.frames, &mut m.mem, kind, start, len, flags, false);
            let want =
                rspace.add_region(&mut r.frames, &mut r.mem, (kind, start, len, flags, false));
            assert_eq!(got, want, "seed {seed} region {i}");
        }
        // An identity-mapped framebuffer, which no fork copies.
        let (fb, fb_len) = (0x3C10_0000, (1 + rng.below(600)) * PAGE);
        let fb_flags = MapFlags::user_framebuffer();
        let kind = RegionKind::Framebuffer;
        let got =
            space.map_physical_range(&mut m.frames, &mut m.mem, kind, fb, fb, fb_len, fb_flags);
        let want = rspace.map_physical_range(&mut r.frames, &mut r.mem, fb, fb_len, fb_flags);
        assert_eq!(got, want, "seed {seed}: framebuffer");
        // The demand-paged stack, faulted at random depths, some twice or
        // three times over, and a wild fault.
        space.add_stack(&mut m.frames, &mut m.mem).unwrap();
        let stack = USER_STACK_TOP - USER_STACK_MAX;
        rspace
            .add_region(
                &mut r.frames,
                &mut r.mem,
                (
                    RegionKind::Stack,
                    stack,
                    USER_STACK_MAX,
                    MapFlags::user_data(),
                    true,
                ),
            )
            .unwrap();
        rspace
            .map_zeroed(
                &mut r.frames,
                &mut r.mem,
                USER_STACK_TOP - PAGE,
                MapFlags::user_data(),
            )
            .unwrap();
        for fault in 0..24 {
            let va = match rng.below(8) {
                0 => rng.below(1 << 40),
                1 => rspace.last_fault,
                _ => stack + rng.below(USER_STACK_MAX),
            };
            let got = space.handle_fault(&mut m.frames, &mut m.mem, va);
            let want = rspace.handle_fault(&mut r.frames, &mut r.mem, va);
            assert_eq!(got, want, "seed {seed} fault {fault} at {va:#x}");
        }
        scribble(&mut rng, (&space, &mut m), (&rspace, &mut r));
        same_machines(&m, &r, &format!("seed {seed}: regions and faults"));

        // A one-page heap just below a 2 MB boundary, grown by whole and
        // partial pages.
        let heap = 9 * MB2 - (1 + rng.below(64)) * PAGE;
        let user = MapFlags::user_data();
        let got = space.add_region(
            &mut m.frames,
            &mut m.mem,
            RegionKind::Heap,
            heap,
            PAGE,
            user,
            false,
        );
        let want = rspace.add_region(
            &mut r.frames,
            &mut r.mem,
            (RegionKind::Heap, heap, PAGE, user, false),
        );
        assert_eq!(got, want, "seed {seed}: heap");
        for step in 0..4 {
            let delta = 1 + rng.below(160_000) as i64;
            let got = space.sbrk(&mut m.frames, &mut m.mem, delta);
            let want = rspace.sbrk(&mut r.frames, &mut r.mem, delta);
            assert_eq!(got, want, "seed {seed} sbrk {step} by {delta}");
        }
        // A growth that passes the free-frame check but runs out: with no
        // spare frame (odd seeds), at the first page past the next 2 MB
        // boundary, whose L3 table finds no frame; with spares, at the last
        // page's frame.
        let top = space.heap_top().div_ceil(PAGE) * PAGE;
        let to_boundary = ((top / MB2 + 1) * MB2 - top) / PAGE;
        let spare = (seed % 2 == 0) as u64 * (1 + rng.below(100));
        let held = hold_back(&mut m, &mut r, (to_boundary + 1 + spare) as usize);
        let delta = m.frames.free_frames() as i64 * PAGE as i64;
        let got = space.sbrk(&mut m.frames, &mut m.mem, delta);
        assert_eq!(
            got,
            Err(KernelError::NoMemory),
            "seed {seed}: the growth runs out"
        );
        assert_eq!(got, rspace.sbrk(&mut r.frames, &mut r.mem, delta));
        same_machines(&m, &r, &format!("seed {seed}: a growth that ran out"));
        give_back(&mut m, &mut r, held);
        // A shrink unmaps and frees the whole pages above the new break, so
        // the heap grows back over them.
        for delta in [
            3 * PAGE as i64,
            -((1 + rng.below(3 * PAGE)) as i64),
            PAGE as i64,
        ] {
            let got = space.sbrk(&mut m.frames, &mut m.mem, delta);
            assert!(got.is_ok(), "seed {seed}: sbrk by {delta}: {got:?}");
            assert_eq!(
                got,
                rspace.sbrk(&mut r.frames, &mut r.mem, delta),
                "seed {seed}: sbrk by {delta}"
            );
            same_machines(&m, &r, &format!("seed {seed}: sbrk by {delta}"));
        }
        scribble(&mut rng, (&space, &mut m), (&rspace, &mut r));
        assert_eq!(
            space.stats(),
            rspace.stats,
            "seed {seed}: parent statistics"
        );

        // Fork; then fork the child with too few frames left.
        let (child, copied) = space.fork_copy(&mut m.frames, &mut m.mem).unwrap();
        let (mut rchild, rcopied) = rspace.fork(&mut r.frames, &mut r.mem).unwrap();
        assert_eq!(copied, rcopied, "seed {seed}: pages copied");
        assert_eq!(space.stats(), rspace.stats, "seed {seed}: pages_copied");
        assert_eq!(child.stats(), rchild.stats, "seed {seed}: child statistics");
        same_machines(&m, &r, &format!("seed {seed}: fork"));
        let mut child = child;
        let held = hold_back(&mut m, &mut r, rng.below(copied) as usize);
        let got = child.fork_copy(&mut m.frames, &mut m.mem).map(|(_, n)| n);
        let want = rchild.fork(&mut r.frames, &mut r.mem).map(|(_, n)| n);
        assert_eq!(
            got,
            Err(KernelError::NoMemory),
            "seed {seed}: the second fork runs out"
        );
        assert_eq!(got, want);
        assert_eq!(child.stats(), rchild.stats);
        same_machines(&m, &r, &format!("seed {seed}: a fork that ran out"));
        give_back(&mut m, &mut r, held);

        // Exit: the child first, then the parent.
        let got = child.release(&mut m.frames, &m.mem);
        assert_eq!(got, rchild.release(&mut r.frames, &r.mem));
        let got = space.release(&mut m.frames, &m.mem);
        assert_eq!(got, rspace.release(&mut r.frames, &r.mem));
        same_machines(&m, &r, &format!("seed {seed}: exit"));
        assert_eq!(
            m.frames.free_frames(),
            FRAMES,
            "seed {seed}: every frame back"
        );
    }
}
