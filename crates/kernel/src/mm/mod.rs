//! Memory management: frame allocation, page tables, address spaces and the
//! kernel heap.
//!
//! Prototype 2 introduces page-based allocation; Prototype 3 adds virtual
//! memory and per-task address spaces; Prototype 4 upgrades the kernel-side
//! allocator to `kmalloc` (Table 1, footnotes 5–6). The [`MemoryManager`]
//! bundles all of it plus the accounting that backs `/proc/meminfo` and the
//! paper's §7.3 memory-consumption measurements (21–42 MB while running a
//! single target app).

pub mod addrspace;
pub mod frames;
pub mod pagetable;

pub use addrspace::{AddressSpace, FaultOutcome, Region, RegionKind};
pub use frames::{FrameAllocator, FrameStats};
pub use pagetable::{MapFlags, PageTable, Translation, VirtAddr, KERNEL_VA_BASE};

use hal::mem::{PhysMem, FRAME_SIZE};

use crate::error::{KResult, KernelError};

/// Where frame allocation starts: above the kernel image + ramdisk carve-out.
pub const FRAME_POOL_BASE: u64 = 16 * 1024 * 1024;
/// Default size of the allocatable frame pool (half the board's DRAM: plenty
/// for every workload while keeping the simulation light).
pub const FRAME_POOL_FRAMES: usize = 128 * 1024; // 512 MB

/// Kernel heap (kmalloc) statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KmallocStats {
    /// Bytes currently allocated.
    pub used_bytes: u64,
    /// Peak bytes allocated.
    pub peak_bytes: u64,
    /// Live allocations.
    pub live: usize,
    /// Total allocations ever.
    pub total_allocs: u64,
}

/// A tiny accounting kmalloc: it does not hand out simulated addresses (the
/// kernel's Rust data structures are the real storage); it models the size
/// accounting and failure behaviour so `/proc/meminfo` and the memory figures
/// have something honest to report.
#[derive(Debug, Clone)]
pub struct Kmalloc {
    limit_bytes: u64,
    stats: KmallocStats,
    allocations: std::collections::HashMap<u64, u64>,
    next_id: u64,
}

impl Kmalloc {
    /// Creates a kernel heap with the given byte limit.
    pub fn new(limit_bytes: u64) -> Self {
        Kmalloc {
            limit_bytes,
            stats: KmallocStats::default(),
            allocations: std::collections::HashMap::new(),
            next_id: 1,
        }
    }

    /// Allocates `size` bytes, returning an allocation id.
    pub fn alloc(&mut self, size: u64) -> KResult<u64> {
        if size == 0 {
            return Err(KernelError::Invalid("kmalloc of zero bytes".into()));
        }
        if self.stats.used_bytes + size > self.limit_bytes {
            return Err(KernelError::NoMemory);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.allocations.insert(id, size);
        self.stats.used_bytes += size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.used_bytes);
        self.stats.live += 1;
        self.stats.total_allocs += 1;
        Ok(id)
    }

    /// Frees a previous allocation.
    pub fn free(&mut self, id: u64) -> KResult<()> {
        let size = self
            .allocations
            .remove(&id)
            .ok_or_else(|| KernelError::Invalid(format!("kfree of unknown id {id}")))?;
        self.stats.used_bytes -= size;
        self.stats.live -= 1;
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> KmallocStats {
        self.stats
    }
}

/// Overall kernel memory-usage snapshot (what `/proc/meminfo` prints and the
/// §7.3 measurement reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSnapshot {
    /// Total DRAM bytes on the board.
    pub total_bytes: u64,
    /// Bytes used by allocated frames (page tables, user pages, buffers).
    pub frames_bytes: u64,
    /// Bytes used by the kernel heap.
    pub kmalloc_bytes: u64,
    /// Bytes of the kernel image + ramdisk carve-out.
    pub kernel_image_bytes: u64,
}

impl MemSnapshot {
    /// Total OS memory usage in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.frames_bytes + self.kmalloc_bytes + self.kernel_image_bytes
    }

    /// Usage in MB (the unit the paper reports).
    pub fn used_mb(&self) -> f64 {
        self.used_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// The kernel's memory manager.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    /// Frame allocator over the usable DRAM pool.
    pub frames: FrameAllocator,
    /// The kernel heap.
    pub kmalloc: Kmalloc,
    /// The kernel's own address space (coarse block maps).
    kernel_space: Option<AddressSpace>,
    /// Size of the kernel image + packed ramdisk, for accounting.
    kernel_image_bytes: u64,
}

impl MemoryManager {
    /// Creates the memory manager. `kernel_image_bytes` is the size of the
    /// loaded kernel image (code + data + packed ramdisk dump).
    pub fn new(kernel_image_bytes: u64) -> Self {
        MemoryManager {
            frames: FrameAllocator::new(FRAME_POOL_BASE, FRAME_POOL_FRAMES),
            kmalloc: Kmalloc::new(64 * 1024 * 1024),
            kernel_space: None,
            kernel_image_bytes,
        }
    }

    /// Builds the kernel's own address space: block maps covering DRAM and
    /// the peripheral window, as Prototype 3's boot path does.
    pub fn init_kernel_space(&mut self, mem: &mut PhysMem) -> KResult<()> {
        let space = AddressSpace::new(&mut self.frames, mem)?;
        // Linearly map the first 1 GB of DRAM with 2 MB blocks.
        let mut va = KERNEL_VA_BASE;
        let mut pa = 0u64;
        while pa < hal::DRAM_SIZE {
            space
                .page_table()
                .map_block(mem, &mut self.frames, va, pa, MapFlags::kernel_data())?;
            va += pagetable::BLOCK_SIZE_L2;
            pa += pagetable::BLOCK_SIZE_L2;
        }
        // Map the peripheral window as device memory. It lives inside the
        // 1 GB already mapped, so translate-only checks distinguish it by the
        // device attribute of a dedicated high alias instead.
        let periph_va = KERNEL_VA_BASE + 0x40_0000_0000;
        space.page_table().map_block(
            mem,
            &mut self.frames,
            periph_va,
            hal::PERIPHERAL_BASE & !(pagetable::BLOCK_SIZE_L2 - 1),
            MapFlags::device(),
        )?;
        self.kernel_space = Some(space);
        Ok(())
    }

    /// The kernel address space, if initialised.
    pub fn kernel_space(&self) -> Option<&AddressSpace> {
        self.kernel_space.as_ref()
    }

    /// A memory-usage snapshot.
    pub fn snapshot(&self, _mem: &PhysMem) -> MemSnapshot {
        MemSnapshot {
            total_bytes: hal::DRAM_SIZE,
            frames_bytes: self.frames.allocated_bytes(),
            kmalloc_bytes: self.kmalloc.stats().used_bytes,
            kernel_image_bytes: self.kernel_image_bytes,
        }
    }

    /// Frame-pool statistics.
    pub fn frame_stats(&self) -> FrameStats {
        self.frames.stats()
    }
}

/// Number of 4 KB pages needed to hold `bytes`.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(FRAME_SIZE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmalloc_tracks_usage_and_enforces_its_limit() {
        let mut k = Kmalloc::new(1000);
        let a = k.alloc(400).unwrap();
        let _b = k.alloc(400).unwrap();
        assert!(matches!(k.alloc(400), Err(KernelError::NoMemory)));
        k.free(a).unwrap();
        assert!(k.alloc(400).is_ok());
        assert_eq!(k.stats().peak_bytes, 800);
        assert!(k.free(a).is_err(), "double free rejected");
        assert!(k.alloc(0).is_err());
    }

    #[test]
    fn kernel_space_maps_dram_and_peripherals() {
        let mut mem = PhysMem::new();
        let mut mm = MemoryManager::new(2 * 1024 * 1024);
        mm.init_kernel_space(&mut mem).unwrap();
        let ks = mm.kernel_space().unwrap();
        let t = ks
            .translate(&mem, KERNEL_VA_BASE + 0x1234_5678)
            .unwrap()
            .unwrap();
        assert_eq!(t.phys, 0x1234_5678);
        assert!(t.flags.cached);
        let p = ks
            .translate(&mem, KERNEL_VA_BASE + 0x40_0000_0000)
            .unwrap()
            .unwrap();
        assert!(!p.flags.cached, "peripheral alias is device memory");
    }

    #[test]
    fn snapshot_reports_memory_in_the_papers_range() {
        let mut mem = PhysMem::new();
        let mut mm = MemoryManager::new(6 * 1024 * 1024);
        mm.init_kernel_space(&mut mem).unwrap();
        // Simulate one running app: ~2 MB of user pages + some kernel heap.
        let frames = mm.frames.alloc_many(512).unwrap();
        let _ = mm.kmalloc.alloc(512 * 1024).unwrap();
        let snap = mm.snapshot(&mem);
        assert!(snap.used_mb() > 5.0);
        assert!(snap.used_mb() < 64.0);
        assert_eq!(snap.total_bytes, hal::DRAM_SIZE);
        for f in frames {
            mm.frames.free(f).unwrap();
        }
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
    }
}
