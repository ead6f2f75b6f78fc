//! Simulated physical memory.
//!
//! The Pi 3 exposes 1 GB of DRAM starting at physical address 0, with
//! memory-mapped peripherals at [`crate::PERIPHERAL_BASE`]. Allocating a real
//! gigabyte per simulated board would make the test suite unusable, so DRAM
//! is stored sparsely at 4 KB frame granularity: frames materialise on first
//! write and read back as zero until then. (Note this intentionally differs
//! from real hardware, where uninitialised DRAM holds arbitrary values — one
//! of the paper's motivations for debugging on hardware. The
//! [`PhysMem::poison_fresh_frames`] switch restores that behaviour for tests
//! that want it.)
//!
//! The model is ordinary DRAM, where a copy is a copy: after
//! [`PhysMem::copy_within`] both ranges hold the same bytes, and a later
//! write to either shows in that range alone. The kernel's eager `fork()`
//! allocates, maps and pays for a fresh frame per page, as Proto's does
//! (§3, Figure 9), whatever the host does underneath.
//!
//! Underneath, the host shares bytes until one side writes. Frames live in
//! a table indexed by frame number, each an `Arc` of its 4 KB. A whole-frame
//! copy clones the pointer, a whole-frame zero fill points at one shared
//! zero frame, and every write goes through [`Arc::make_mut`], which copies
//! a shared frame before changing it. A fork whose child exits before
//! writing its pages, and a heap that `sbrk` zeroes and nobody touches,
//! then cost the host a reference count per page instead of 4 KB of
//! copying, and no simulated figure can tell the difference.

use std::fmt;
use std::sync::Arc;

use crate::{HalError, HalResult, DRAM_SIZE};

/// Size of a physical frame / smallest page, in bytes.
pub const FRAME_SIZE: usize = 4096;

/// A physical address on the simulated board.
pub type PhysAddr = u64;

/// Byte pattern used to fill freshly materialised frames when poisoning is
/// enabled, mimicking the arbitrary contents of real DRAM after power-on.
pub const POISON_BYTE: u8 = 0xC5;

/// One frame's bytes, shared by every frame number that holds the same
/// contents until one of them is written.
type Frame = Arc<[u8; FRAME_SIZE]>;

/// The smallest frame table, 64 KB of entries covering the first 32 MB,
/// where the kernel's page tables and the first user frames live. The
/// table grows to the next power of two in one step: growing it an entry at
/// a time leaves the host allocator's heap fragmented behind it.
const MIN_TABLE_FRAMES: usize = 8192;

/// Frame number and offset within the frame of `addr`.
fn split(addr: PhysAddr) -> (usize, usize) {
    let frame = FRAME_SIZE as u64;
    ((addr / frame) as usize, (addr % frame) as usize)
}

/// Sparse simulated DRAM. A clone shares every frame with its source until
/// one of them writes it.
#[derive(Clone)]
pub struct PhysMem {
    /// Entry `i` holds frame `i`'s bytes; `None` has never been written.
    frames: Vec<Option<Frame>>,
    /// The all-zero frame that whole-frame zero fills point at.
    zero: Frame,
    poison: bool,
    dram_size: u64,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("dram_size", &self.dram_size)
            .field("resident_frames", &self.resident_frames())
            .field("poison", &self.poison)
            .finish()
    }
}

impl PhysMem {
    /// Creates an empty (all-zero) physical memory of [`DRAM_SIZE`] bytes.
    pub fn new() -> Self {
        Self::with_size(DRAM_SIZE)
    }

    /// Creates a physical memory with a custom DRAM size (tests use small
    /// memories to exercise out-of-memory paths cheaply).
    pub fn with_size(dram_size: u64) -> Self {
        PhysMem {
            frames: Vec::new(),
            zero: Arc::new([0; FRAME_SIZE]),
            poison: false,
            dram_size,
        }
    }

    /// Total DRAM size in bytes.
    pub fn dram_size(&self) -> u64 {
        self.dram_size
    }

    /// When enabled, frames that have never been written read back as
    /// [`POISON_BYTE`] instead of zero, mimicking real uninitialised DRAM.
    pub fn poison_fresh_frames(&mut self, enable: bool) {
        self.poison = enable;
    }

    /// Number of frames that have been materialised so far (resident set).
    /// A frame whose bytes are shared counts once for each frame number
    /// that holds it.
    pub fn resident_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    /// Resident memory in bytes (used for the paper's §7.3 memory numbers).
    pub fn resident_bytes(&self) -> u64 {
        (self.resident_frames() * FRAME_SIZE) as u64
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> HalResult<()> {
        let end = addr
            .checked_add(len as u64)
            .ok_or(HalError::BadAddress(addr))?;
        if end > self.dram_size {
            return Err(HalError::BadAddress(addr));
        }
        Ok(())
    }

    /// What a byte of a never-written frame reads as.
    fn fresh_byte(&self) -> u8 {
        if self.poison {
            POISON_BYTE
        } else {
            0
        }
    }

    /// A frame of `value` bytes: the shared zero frame for zero.
    fn filled(&self, value: u8) -> Frame {
        match value {
            0 => Arc::clone(&self.zero),
            _ => Arc::new([value; FRAME_SIZE]),
        }
    }

    /// Frame `idx`'s bytes, or `None` if it has never been written.
    fn frame(&self, idx: usize) -> Option<&Frame> {
        self.frames.get(idx)?.as_ref()
    }

    /// The table entry of frame `idx`, which must lie in DRAM; the table
    /// grows to hold it.
    fn slot(&mut self, idx: usize) -> &mut Option<Frame> {
        if idx >= self.frames.len() {
            let dram_frames = self.dram_size.div_ceil(FRAME_SIZE as u64) as usize;
            let len = (idx + 1)
                .next_power_of_two()
                .max(MIN_TABLE_FRAMES)
                .min(dram_frames);
            self.frames.reserve_exact(len - self.frames.len());
            self.frames.resize(len, None);
        }
        &mut self.frames[idx]
    }

    /// Frame `idx`'s bytes for writing: materialised if it has never been
    /// written, and copied first if another frame number shares them.
    fn frame_mut(&mut self, idx: usize) -> &mut [u8; FRAME_SIZE] {
        let fresh = self.fresh_byte();
        Arc::make_mut(
            self.slot(idx)
                .get_or_insert_with(|| Arc::new([fresh; FRAME_SIZE])),
        )
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> HalResult<()> {
        self.check_range(addr, buf.len())?;
        let (mut idx, mut off) = split(addr);
        let mut rest = buf;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at_mut(rest.len().min(FRAME_SIZE - off));
            match self.frame(idx) {
                Some(frame) => chunk.copy_from_slice(&frame[off..off + chunk.len()]),
                None => chunk.fill(self.fresh_byte()),
            }
            (rest, idx, off) = (tail, idx + 1, 0);
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> HalResult<()> {
        self.check_range(addr, buf.len())?;
        let (mut idx, mut off) = split(addr);
        let mut rest = buf;
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rest.len().min(FRAME_SIZE - off));
            self.frame_mut(idx)[off..off + chunk.len()].copy_from_slice(chunk);
            (rest, idx, off) = (tail, idx + 1, 0);
        }
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    pub fn fill(&mut self, addr: PhysAddr, len: usize, value: u8) -> HalResult<()> {
        self.check_range(addr, len)?;
        let (mut idx, mut off) = split(addr);
        let mut left = len;
        while left > 0 {
            let n = left.min(FRAME_SIZE - off);
            if n == FRAME_SIZE {
                // A whole frame gets new bytes rather than a copy of shared
                // ones about to be overwritten.
                *self.slot(idx) = Some(self.filled(value));
            } else {
                self.frame_mut(idx)[off..off + n].fill(value);
            }
            (left, idx, off) = (left - n, idx + 1, 0);
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory. The
    /// ranges may overlap; the copy behaves as if through a buffer.
    pub fn copy_within(&mut self, src: PhysAddr, dst: PhysAddr, len: usize) -> HalResult<()> {
        self.check_range(src, len)?;
        self.check_range(dst, len)?;
        // Each step moves bytes that lie in one source frame and one
        // destination frame: front to back when the destination starts at
        // or below the source, back to front otherwise, so an overlapping
        // copy reads every byte before it overwrites it.
        let backward = dst > src;
        let mut left = len;
        while left > 0 {
            let (s, d, n) = if backward {
                let (s_end, d_end) = (src + left as u64, dst + left as u64);
                let n = left.min(split(s_end - 1).1 + 1).min(split(d_end - 1).1 + 1);
                (s_end - n as u64, d_end - n as u64, n)
            } else {
                let done = (len - left) as u64;
                let (s, d) = (src + done, dst + done);
                let n = left
                    .min(FRAME_SIZE - split(s).1)
                    .min(FRAME_SIZE - split(d).1);
                (s, d, n)
            };
            self.copy_in_frames(s, d, n);
            left -= n;
        }
        Ok(())
    }

    /// Copies the frame at `src` to the frame at `dst`, both frame-aligned:
    /// what `copy_within(src, dst, FRAME_SIZE)` does, with one bounds check
    /// and one table write, for `fork()`'s per-page copy.
    pub fn copy_frame(&mut self, src: PhysAddr, dst: PhysAddr) -> HalResult<()> {
        for addr in [src, dst] {
            if split(addr).1 != 0 {
                return Err(HalError::BadAddress(addr));
            }
        }
        // Both are aligned, so the higher one's frame ends last.
        self.check_range(src.max(dst), FRAME_SIZE)?;
        self.share_frame(split(src).0, split(dst).0);
        Ok(())
    }

    /// Points frame `di` at frame `si`'s bytes.
    fn share_frame(&mut self, si: usize, di: usize) {
        let frame = match self.frame(si) {
            Some(frame) => Arc::clone(frame),
            None => self.filled(self.fresh_byte()),
        };
        *self.slot(di) = Some(frame);
    }

    /// Copies `n` bytes from `src` to `dst`, each range inside one frame.
    fn copy_in_frames(&mut self, src: PhysAddr, dst: PhysAddr, n: usize) {
        let ((si, so), (di, doff)) = (split(src), split(dst));
        if n == FRAME_SIZE {
            // A whole frame: share the source's bytes.
            self.share_frame(si, di);
        } else if si == di {
            self.frame_mut(di).copy_within(so..so + n, doff);
        } else {
            // Holding the source pointer makes `frame_mut` copy the
            // destination first if the two share bytes.
            match self.frame(si).cloned() {
                Some(frame) => {
                    self.frame_mut(di)[doff..doff + n].copy_from_slice(&frame[so..so + n])
                }
                None => {
                    let fresh = self.fresh_byte();
                    self.frame_mut(di)[doff..doff + n].fill(fresh);
                }
            }
        }
    }

    /// Reads `N` bytes at `addr`, with one table lookup when they lie in
    /// one frame.
    fn read_word<const N: usize>(&self, addr: PhysAddr) -> HalResult<[u8; N]> {
        let mut word = [0; N];
        let (idx, off) = split(addr);
        if off + N > FRAME_SIZE {
            self.read(addr, &mut word)?;
            return Ok(word);
        }
        self.check_range(addr, N)?;
        match self.frame(idx) {
            Some(frame) => word.copy_from_slice(&frame[off..off + N]),
            None => word.fill(self.fresh_byte()),
        }
        Ok(word)
    }

    /// Writes `word` at `addr`, with one table lookup when it lies in one
    /// frame.
    fn write_word<const N: usize>(&mut self, addr: PhysAddr, word: [u8; N]) -> HalResult<()> {
        let (idx, off) = split(addr);
        if off + N > FRAME_SIZE {
            return self.write(addr, &word);
        }
        self.check_range(addr, N)?;
        self.frame_mut(idx)[off..off + N].copy_from_slice(&word);
        Ok(())
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: PhysAddr) -> HalResult<u32> {
        self.read_word(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) -> HalResult<()> {
        self.write_word(addr, value.to_le_bytes())
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> HalResult<u64> {
        self.read_word(addr).map(u64::from_le_bytes)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> HalResult<()> {
        self.write_word(addr, value.to_le_bytes())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PhysAddr) -> HalResult<u8> {
        self.read_word(addr).map(u8::from_le_bytes)
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) -> HalResult<()> {
        self.write_word(addr, [value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: u64 = FRAME_SIZE as u64;

    /// Whether the frames holding `a` and `b` share one host buffer.
    fn shared(mem: &PhysMem, a: PhysAddr, b: PhysAddr) -> bool {
        match (mem.frame(split(a).0), mem.frame(split(b).0)) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    fn bytes(mem: &PhysMem, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        mem.read(addr, &mut buf).unwrap();
        buf
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = PhysMem::new();
        let mut buf = [0xFFu8; 16];
        mem.read(0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn poisoned_memory_reads_pattern() {
        let mut mem = PhysMem::new();
        mem.poison_fresh_frames(true);
        assert_eq!(mem.read_u8(0x2000).unwrap(), POISON_BYTE);
    }

    #[test]
    fn write_then_read_round_trips_across_frame_boundary() {
        let mut mem = PhysMem::new();
        let data: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        // Straddles the boundary between frame 0 and frame 1.
        mem.write(FRAME_SIZE as u64 - 100, &data).unwrap();
        let mut back = vec![0u8; 200];
        mem.read(FRAME_SIZE as u64 - 100, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn word_accessors_round_trip() {
        let mut mem = PhysMem::new();
        mem.write_u32(0x100, 0xDEAD_BEEF).unwrap();
        mem.write_u64(0x200, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(mem.read_u32(0x100).unwrap(), 0xDEAD_BEEF);
        assert_eq!(mem.read_u64(0x200).unwrap(), 0x0123_4567_89AB_CDEF);
        // A word that straddles two frames.
        mem.write_u64(F - 3, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(F - 3).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u8(F).unwrap(), 0x55);
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let mut mem = PhysMem::with_size(1 << 20);
        assert!(matches!(
            mem.write_u8(1 << 20, 0),
            Err(HalError::BadAddress(_))
        ));
        let mut buf = [0u8; 8];
        assert!(mem.read((1 << 20) - 4, &mut buf).is_err());
        assert!(mem.read_u64((1 << 20) - 4).is_err());
        assert!(mem.write_u64(u64::MAX - 3, 0).is_err());
    }

    #[test]
    fn fill_and_copy_within() {
        let mut mem = PhysMem::new();
        mem.fill(0x3000, 8192, 0xAB).unwrap();
        assert_eq!(mem.read_u8(0x3000 + 8191).unwrap(), 0xAB);
        mem.copy_within(0x3000, 0x10000, 4096).unwrap();
        assert_eq!(mem.read_u8(0x10000 + 4095).unwrap(), 0xAB);
    }

    #[test]
    fn a_whole_frame_copy_is_shared_until_either_side_writes() {
        let mut mem = PhysMem::new();
        let data = pattern(FRAME_SIZE, 0);
        mem.write(0x1000, &data).unwrap();
        mem.copy_within(0x1000, 0x5000, FRAME_SIZE).unwrap();
        assert!(shared(&mem, 0x1000, 0x5000));
        // A write to the copy leaves the source as it was.
        mem.write_u64(0x5008, u64::MAX).unwrap();
        assert!(!shared(&mem, 0x1000, 0x5000));
        assert_eq!(bytes(&mem, 0x1000, FRAME_SIZE), data);
        assert_eq!(mem.read_u64(0x5008).unwrap(), u64::MAX);
        // A write to the source leaves a copy as it was.
        mem.copy_within(0x1000, 0x6000, FRAME_SIZE).unwrap();
        mem.write(0x1000 + 100, &[0xEE; 300]).unwrap();
        assert!(!shared(&mem, 0x1000, 0x6000));
        assert_eq!(bytes(&mem, 0x6000, FRAME_SIZE), data);
        assert_eq!(bytes(&mem, 0x1000 + 100, 300), vec![0xEE; 300]);
    }

    #[test]
    fn a_write_to_one_zero_filled_frame_leaves_the_others_zero() {
        let mut mem = PhysMem::new();
        mem.fill(0x10000, 4 * FRAME_SIZE, 0).unwrap();
        for i in 0..4 {
            assert!(shared(&mem, 0x10000, 0x10000 + i * F));
        }
        mem.write_u64(0x11008, u64::MAX).unwrap();
        for i in [0, 2, 3] {
            assert_eq!(
                bytes(&mem, 0x10000 + i * F, FRAME_SIZE),
                vec![0; FRAME_SIZE]
            );
        }
        let mut one = vec![0; FRAME_SIZE];
        one[8..16].fill(0xFF);
        assert_eq!(bytes(&mem, 0x11000, FRAME_SIZE), one);
        assert_eq!(
            *mem.zero, [0; FRAME_SIZE],
            "the shared zero frame stays zero"
        );
    }

    #[test]
    fn a_fill_over_a_shared_frame_changes_only_its_own_range() {
        let mut mem = PhysMem::new();
        let data = pattern(FRAME_SIZE, 0x3C);
        mem.write(0x2000, &data).unwrap();
        // A whole-frame fill replaces the shared bytes.
        mem.copy_within(0x2000, 0x3000, FRAME_SIZE).unwrap();
        mem.fill(0x3000, FRAME_SIZE, 0x5A).unwrap();
        assert_eq!(bytes(&mem, 0x2000, FRAME_SIZE), data);
        assert_eq!(bytes(&mem, 0x3000, FRAME_SIZE), vec![0x5A; FRAME_SIZE]);
        // A whole-frame zero fill of the source leaves a copy intact.
        mem.copy_within(0x2000, 0x4000, FRAME_SIZE).unwrap();
        mem.fill(0x2000, FRAME_SIZE, 0).unwrap();
        assert_eq!(bytes(&mem, 0x4000, FRAME_SIZE), data);
        // A partial fill copies the shared bytes first.
        mem.copy_within(0x4000, 0x5000, FRAME_SIZE).unwrap();
        mem.fill(0x5000 + 100, 200, 0).unwrap();
        let mut filled = data.clone();
        filled[100..300].fill(0);
        assert_eq!(bytes(&mem, 0x4000, FRAME_SIZE), data);
        assert_eq!(bytes(&mem, 0x5000, FRAME_SIZE), filled);
    }

    #[test]
    fn poisoning_covers_fresh_frames_only() {
        let mut mem = PhysMem::new();
        mem.poison_fresh_frames(true);
        // A never-written frame.
        assert_eq!(
            bytes(&mem, 0x1000, FRAME_SIZE),
            vec![POISON_BYTE; FRAME_SIZE]
        );
        // A zero-filled frame, whole and in part.
        mem.fill(0x2000, FRAME_SIZE, 0).unwrap();
        assert_eq!(bytes(&mem, 0x2000, FRAME_SIZE), vec![0; FRAME_SIZE]);
        mem.fill(0x3000 + 10, 5, 0).unwrap();
        let mut part = vec![POISON_BYTE; FRAME_SIZE];
        part[10..15].fill(0);
        assert_eq!(bytes(&mem, 0x3000, FRAME_SIZE), part);
        // A copy from a never-written frame, whole and in part, holds
        // poison from then on.
        mem.copy_within(0x8000, 0x9000, FRAME_SIZE).unwrap();
        mem.copy_within(0x8000 + 1, 0xA000 + 7, 100).unwrap();
        mem.poison_fresh_frames(false);
        assert_eq!(
            bytes(&mem, 0x9000, FRAME_SIZE),
            vec![POISON_BYTE; FRAME_SIZE]
        );
        assert_eq!(
            bytes(&mem, 0xA000, FRAME_SIZE),
            vec![POISON_BYTE; FRAME_SIZE]
        );
        assert_eq!(bytes(&mem, 0x8000, FRAME_SIZE), vec![0; FRAME_SIZE]);
    }

    #[test]
    fn resident_frames_count_each_materialised_frame_number() {
        let mut mem = PhysMem::new();
        assert_eq!(mem.read_u64(0x1000).unwrap(), 0);
        assert_eq!(mem.resident_frames(), 0, "a read materialises nothing");
        mem.write_u8(0x1000, 1).unwrap();
        assert_eq!(mem.resident_frames(), 1);
        mem.fill(0x2000, 2 * FRAME_SIZE, 0).unwrap();
        assert_eq!(mem.resident_frames(), 3, "zero-filled frames count");
        mem.copy_within(0x1000, 0x10000, FRAME_SIZE).unwrap();
        assert_eq!(
            mem.resident_frames(),
            4,
            "a shared frame counts per address"
        );
        mem.copy_within(0x40000, 0x50000, FRAME_SIZE).unwrap();
        assert_eq!(mem.resident_frames(), 5, "a copy into an untouched frame");
        mem.write(0x60000, &[]).unwrap();
        mem.fill(0x60000, 0, 1).unwrap();
        mem.copy_within(0x1000, 0x60000, 0).unwrap();
        assert_eq!(mem.resident_frames(), 5, "empty ranges touch nothing");
        assert_eq!(mem.resident_bytes(), 5 * F);
    }

    #[test]
    fn out_of_range_fills_and_copies_fail_and_change_nothing() {
        let mut mem = PhysMem::with_size(16 * F);
        mem.write(0, &pattern(2 * FRAME_SIZE, 1)).unwrap();
        let before = bytes(&mem, 0, 16 * FRAME_SIZE);
        let resident = mem.resident_frames();
        let bad = |r: HalResult<()>| assert!(matches!(r, Err(HalError::BadAddress(_))));
        bad(mem.fill(15 * F + 1, FRAME_SIZE, 7));
        bad(mem.fill(u64::MAX, 2, 7));
        bad(mem.copy_within(0, 15 * F + 1, FRAME_SIZE));
        bad(mem.copy_within(15 * F + 1, 0, FRAME_SIZE));
        bad(mem.copy_within(0, u64::MAX - 10, 100));
        bad(mem.copy_within(u64::MAX - 10, 0, 100));
        assert_eq!(bytes(&mem, 0, 16 * FRAME_SIZE), before);
        assert_eq!(mem.resident_frames(), resident);
    }

    /// splitmix64: a seeded stream for the differential test.
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

    /// The reference: flat bytes, and which frames have materialised.
    struct Model {
        bytes: Vec<u8>,
        touched: Vec<bool>,
        poison: bool,
    }

    impl Model {
        fn new(size: usize) -> Model {
            Model {
                bytes: vec![0; size],
                touched: vec![false; size / FRAME_SIZE],
                poison: false,
            }
        }

        fn fresh(&self) -> u8 {
            if self.poison {
                POISON_BYTE
            } else {
                0
            }
        }

        fn in_range(&self, addr: u64, len: usize) -> bool {
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.bytes.len() as u64)
        }

        fn read(&self, addr: u64, len: usize) -> Vec<u8> {
            let a = addr as usize;
            (a..a + len)
                .map(|i| match self.touched[i / FRAME_SIZE] {
                    true => self.bytes[i],
                    false => self.fresh(),
                })
                .collect()
        }

        /// Materialises the frames of `[addr, addr + len)` with the bytes
        /// a never-written frame reads as now.
        fn touch(&mut self, addr: u64, len: usize) {
            let a = addr as usize;
            if len == 0 {
                return;
            }
            for f in a / FRAME_SIZE..=(a + len - 1) / FRAME_SIZE {
                if !self.touched[f] {
                    let fresh = self.fresh();
                    self.bytes[f * FRAME_SIZE..(f + 1) * FRAME_SIZE].fill(fresh);
                    self.touched[f] = true;
                }
            }
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            self.touch(addr, data.len());
            let a = addr as usize;
            self.bytes[a..a + data.len()].copy_from_slice(data);
        }

        fn resident(&self) -> usize {
            self.touched.iter().filter(|&&t| t).count()
        }
    }

    /// An address and a length: frame-aligned, unaligned, near a frame
    /// boundary or past the end, and empty, word-sized, a whole frame,
    /// several frames or any length up to three frames.
    fn range(rng: &mut Rng, size: u64) -> (u64, usize) {
        let len = match rng.below(6) {
            0 => 0,
            1 => 1 + rng.below(8) as usize,
            2 => FRAME_SIZE,
            3 => FRAME_SIZE * (2 + rng.below(2) as usize),
            _ => rng.below(3 * F) as usize,
        };
        let addr = match rng.below(8) {
            0..=2 => rng.below(size / F) * F,
            3 | 4 => (rng.below(size / F) * F + F).saturating_sub(rng.below(16)),
            5 => size - rng.below(F).min(size),
            _ => rng.below(size),
        };
        (addr, len)
    }

    #[test]
    fn seeded_operations_match_a_flat_byte_model() {
        const SIZE: u64 = 32 * F;
        for (seed, poison) in [(1u64, false), (2, true), (3, false), (4, true)] {
            let mut rng = Rng(seed);
            let mut mem = PhysMem::with_size(SIZE);
            let mut model = Model::new(SIZE as usize);
            mem.poison_fresh_frames(poison);
            model.poison = poison;
            for op in 0..3000 {
                let (addr, len) = range(&mut rng, SIZE);
                let ok = model.in_range(addr, len);
                let what = format!("seed {seed} op {op} at {addr:#x}+{len}");
                match rng.below(16) {
                    0..=2 => {
                        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                        assert_eq!(mem.write(addr, &data).is_ok(), ok, "write {what}");
                        if ok {
                            model.write(addr, &data);
                        }
                    }
                    3..=5 => {
                        let value = [0, 0, POISON_BYTE, rng.next() as u8][rng.below(4) as usize];
                        assert_eq!(mem.fill(addr, len, value).is_ok(), ok, "fill {what}");
                        if ok {
                            model.write(addr, &vec![value; len]);
                        }
                    }
                    9 => {
                        let dst = range(&mut rng, SIZE).0;
                        let whole = |a: u64| a.is_multiple_of(F) && model.in_range(a, FRAME_SIZE);
                        let both = whole(addr) && whole(dst);
                        let copied = mem.copy_frame(addr, dst);
                        assert_eq!(copied.is_ok(), both, "copy_frame {what} to {dst:#x}");
                        if both {
                            let data = model.read(addr, FRAME_SIZE);
                            model.write(dst, &data);
                        }
                    }
                    6..=8 => {
                        // Half the destinations overlap the source.
                        let dst = match rng.below(2) {
                            0 => range(&mut rng, SIZE).0,
                            _ => (addr + rng.below(2 * F)).saturating_sub(F),
                        };
                        let both = ok && model.in_range(dst, len);
                        let copied = mem.copy_within(addr, dst, len);
                        assert_eq!(copied.is_ok(), both, "copy {what} to {dst:#x}");
                        if both {
                            let data = model.read(addr, len);
                            model.write(dst, &data);
                        }
                    }
                    10 => {
                        let value = rng.next();
                        let written = mem.write_u64(addr, value);
                        assert_eq!(written.is_ok(), model.in_range(addr, 8), "write_u64 {what}");
                        if model.in_range(addr, 8) {
                            model.write(addr, &value.to_le_bytes());
                        }
                    }
                    11 | 12 => match mem.read_u64(addr) {
                        Ok(v) => {
                            assert_eq!(v.to_le_bytes().to_vec(), model.read(addr, 8), "{what}")
                        }
                        Err(_) => assert!(!model.in_range(addr, 8), "read_u64 {what}"),
                    },
                    13 => {
                        mem.poison_fresh_frames(!model.poison);
                        model.poison = !model.poison;
                    }
                    _ => {
                        let mut buf = vec![0; len];
                        assert_eq!(mem.read(addr, &mut buf).is_ok(), ok, "read {what}");
                        if ok {
                            assert_eq!(buf, model.read(addr, len), "read {what}");
                        }
                    }
                }
                assert_eq!(
                    mem.resident_frames(),
                    model.resident(),
                    "resident after {what}"
                );
                if op % 256 == 255 {
                    assert_eq!(bytes(&mem, 0, SIZE as usize), model.read(0, SIZE as usize));
                }
            }
            assert_eq!(bytes(&mem, 0, SIZE as usize), model.read(0, SIZE as usize));
        }
    }
}
