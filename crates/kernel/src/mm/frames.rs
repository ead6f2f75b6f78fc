//! Physical frame allocator.
//!
//! Prototype 2 introduces a page-based allocator (Table 1, footnote 5) that
//! hands out 4 KB frames from the DRAM range left over after the kernel
//! image and the GPU carve-out; Prototype 4 adds `kmalloc` on top. The
//! allocator here is a free-list over a contiguous frame range, with
//! double-free and range checks that the property tests lean on.

use hal::mem::{PhysAddr, FRAME_SIZE};

use crate::error::{KResult, KernelError};

/// Statistics reported through `/proc/meminfo` and used for the paper's
/// §7.3 memory-consumption numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Total frames managed.
    pub total: usize,
    /// Frames currently allocated.
    pub allocated: usize,
    /// High-water mark of allocated frames.
    pub peak: usize,
    /// Total allocation operations.
    pub alloc_ops: u64,
    /// Total free operations.
    pub free_ops: u64,
}

/// A free-list frame allocator over `[base, base + count * FRAME_SIZE)`.
/// Two allocators are equal when they hand out the same frames in the same
/// order from here on and report the same statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameAllocator {
    base: PhysAddr,
    count: usize,
    free: Vec<u32>,
    allocated: Vec<bool>,
    stats: FrameStats,
}

impl FrameAllocator {
    /// Creates an allocator managing `count` frames starting at `base`
    /// (which must be frame-aligned).
    pub fn new(base: PhysAddr, count: usize) -> Self {
        assert_eq!(base % FRAME_SIZE as u64, 0, "base must be frame-aligned");
        // Free list is kept so that lower addresses are handed out first,
        // matching the ascending allocation pattern of the real allocator.
        let free: Vec<u32> = (0..count as u32).rev().collect();
        FrameAllocator {
            base,
            count,
            free,
            allocated: vec![false; count],
            stats: FrameStats {
                total: count,
                ..FrameStats::default()
            },
        }
    }

    /// Number of frames still free.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocation statistics.
    pub fn stats(&self) -> FrameStats {
        self.stats
    }

    /// Allocated bytes right now.
    pub fn allocated_bytes(&self) -> u64 {
        self.stats.allocated as u64 * FRAME_SIZE as u64
    }

    /// Allocates one frame, returning its physical address.
    pub fn alloc(&mut self) -> KResult<PhysAddr> {
        let idx = self.free.pop().ok_or(KernelError::NoMemory)?;
        self.allocated[idx as usize] = true;
        self.stats.allocated += 1;
        self.stats.alloc_ops += 1;
        self.stats.peak = self.stats.peak.max(self.stats.allocated);
        Ok(self.base + idx as u64 * FRAME_SIZE as u64)
    }

    /// Allocates `n` frames (not necessarily contiguous).
    pub fn alloc_many(&mut self, n: usize) -> KResult<Vec<PhysAddr>> {
        if self.free.len() < n {
            return Err(KernelError::NoMemory);
        }
        (0..n).map(|_| self.alloc()).collect()
    }

    fn index_of(&self, addr: PhysAddr) -> KResult<usize> {
        if addr < self.base || !addr.is_multiple_of(FRAME_SIZE as u64) {
            return Err(KernelError::Invalid(format!("bad frame address {addr:#x}")));
        }
        let idx = ((addr - self.base) / FRAME_SIZE as u64) as usize;
        if idx >= self.count {
            return Err(KernelError::Invalid(format!(
                "frame {addr:#x} out of range"
            )));
        }
        Ok(idx)
    }

    /// Frees a previously allocated frame.
    pub fn free(&mut self, addr: PhysAddr) -> KResult<()> {
        let idx = self.index_of(addr)?;
        if !self.allocated[idx] {
            return Err(KernelError::Invalid(format!(
                "double free of frame {addr:#x}"
            )));
        }
        self.allocated[idx] = false;
        self.free.push(idx as u32);
        self.stats.allocated -= 1;
        self.stats.free_ops += 1;
        Ok(())
    }

    /// Whether `addr` is currently allocated.
    pub fn is_allocated(&self, addr: PhysAddr) -> bool {
        self.index_of(addr)
            .map(|idx| self.allocated[idx])
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_aligned_frames() {
        let mut fa = FrameAllocator::new(0x100000, 16);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(a % FRAME_SIZE as u64, 0);
        assert!(a >= 0x100000);
        assert_eq!(fa.free_frames(), 14);
    }

    #[test]
    fn exhaustion_reports_no_memory() {
        let mut fa = FrameAllocator::new(0, 2);
        fa.alloc().unwrap();
        fa.alloc().unwrap();
        assert!(matches!(fa.alloc(), Err(KernelError::NoMemory)));
    }

    #[test]
    fn free_makes_frames_reusable_and_double_free_fails() {
        let mut fa = FrameAllocator::new(0, 2);
        let a = fa.alloc().unwrap();
        fa.free(a).unwrap();
        assert!(matches!(fa.free(a), Err(KernelError::Invalid(_))));
        // The freed frame can be allocated again.
        let again = fa.alloc().unwrap();
        let other = fa.alloc().unwrap();
        assert!(again == a || other == a);
    }

    #[test]
    fn stats_track_peak_and_ops() {
        let mut fa = FrameAllocator::new(0, 8);
        let frames = fa.alloc_many(5).unwrap();
        assert_eq!(fa.stats().peak, 5);
        for f in frames {
            fa.free(f).unwrap();
        }
        assert_eq!(fa.stats().allocated, 0);
        assert_eq!(fa.stats().peak, 5);
        assert_eq!(fa.stats().alloc_ops, 5);
        assert_eq!(fa.stats().free_ops, 5);
    }

    #[test]
    fn foreign_addresses_are_rejected() {
        let mut fa = FrameAllocator::new(0x10000, 4);
        assert!(fa.free(0x3).is_err());
        assert!(fa.free(0x10000 + 4 * FRAME_SIZE as u64).is_err());
        assert!(!fa.is_allocated(0x123));
    }

    #[test]
    fn alloc_many_is_all_or_nothing() {
        let mut fa = FrameAllocator::new(0, 4);
        assert!(fa.alloc_many(5).is_err());
        assert_eq!(
            fa.free_frames(),
            4,
            "failed bulk alloc leaves nothing allocated"
        );
        assert_eq!(fa.alloc_many(4).unwrap().len(), 4);
    }
}
