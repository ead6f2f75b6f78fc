//! CPU data-cache model for device-backed memory.
//!
//! §4.3 of the paper describes a subtle lesson Prototype 3 teaches: the
//! framebuffer must be mapped *cacheable* for acceptable FPS, but then the
//! CPU cache must be cleaned for the framebuffer region on every frame —
//! otherwise stale lines linger and produce non-deterministic visual
//! artifacts that only fade as lines are evicted naturally. Emulators hide
//! this entirely; the real board does not. This module models exactly enough
//! of a write-back data cache to make that behaviour observable: writes to a
//! cacheable device region land in a staging copy and only reach the device
//! ("memory") when the corresponding lines are cleaned, or when capacity
//! pressure evicts them.
//!
//! The model is a bitmap with one bit per 64-byte line of the region. When
//! more lines are dirty than the cache holds, the lowest-numbered dirty lines
//! are written back first, so the result is deterministic and the oldest rows
//! of a frame reach memory first. Every call that writes lines back returns
//! them as runs of consecutive line numbers, lowest first, so the caller can
//! copy each run to the device at once.

use std::ops::Range;

/// Cache line size in bytes (Cortex-A53 L1D uses 64-byte lines).
pub const CACHE_LINE_SIZE: usize = 64;

/// Lines per bitmap word.
const WORD_LINES: usize = u64::BITS as usize;

/// Tracks which cache lines of a device-backed region are dirty and models
/// capacity evictions.
///
/// Line `l` (bytes `l * 64 .. l * 64 + 64` of the region) is dirty while bit
/// `l % 64` of word `l / 64` is set. Beside the bitmap the tracker keeps the
/// number of dirty lines and a low-water word index below which every word
/// is clear, which is where an eviction starts looking for the lowest dirty
/// line. A call touches one word per 64 lines of its byte range; an eviction
/// also scans the words from the low-water index up to the last line it
/// evicts. No call allocates except for the runs it returns.
#[derive(Debug, Clone)]
pub struct DirtyLineTracker {
    /// One bit per line of the region, lowest line in bit 0 of word 0.
    bits: Vec<u64>,
    /// Lines in the region; byte ranges are clipped to them.
    lines: usize,
    /// Set bits in `bits`.
    dirty: usize,
    /// Every word of `bits` below this index is clear.
    low: usize,
    /// Maximum number of dirty lines held before the oldest are evicted
    /// (written back) implicitly — this is what makes artifacts "gradually
    /// disappear as cache lines hit the memory".
    capacity_lines: usize,
    /// Lines written back by explicit clean operations.
    cleaned_lines: u64,
    /// Lines written back by capacity evictions.
    evicted_lines: u64,
}

impl DirtyLineTracker {
    /// Creates a tracker for a region of `region_bytes` bytes whose cache
    /// holds at most `capacity_lines` of its lines dirty (at least one).
    ///
    /// A dirty line reaches memory once it leaves the last cache level, the
    /// Pi 3's 512 KB shared L2, which the region shares with other data. The
    /// framebuffer therefore passes `FB_CACHE_LINES`, 2,048 lines (128 KB):
    /// a quarter of the L2, and four times the 512 lines of the A53's 32 KB
    /// L1D.
    pub fn new(region_bytes: usize, capacity_lines: usize) -> Self {
        let lines = region_bytes.div_ceil(CACHE_LINE_SIZE);
        DirtyLineTracker {
            bits: vec![0; lines.div_ceil(WORD_LINES)],
            lines,
            dirty: 0,
            low: 0,
            capacity_lines: capacity_lines.max(1),
            cleaned_lines: 0,
            evicted_lines: 0,
        }
    }

    /// The lines that bytes `[offset, offset+len)` touch, clipped to the
    /// region. Empty when `len` is 0.
    fn lines_of(&self, offset: usize, len: usize) -> Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / CACHE_LINE_SIZE;
        let last = offset.saturating_add(len - 1) / CACHE_LINE_SIZE;
        first.min(self.lines)..(last + 1).min(self.lines)
    }

    /// Marks the byte range `[offset, offset+len)` dirty. Returns the lines
    /// that were evicted (written back) to make room, as runs of consecutive
    /// lines, lowest first. Bytes past the end of the region are ignored.
    pub fn mark_dirty(&mut self, offset: usize, len: usize) -> Vec<Range<usize>> {
        for (w, mask) in words(self.lines_of(offset, len)) {
            self.dirty += (mask & !self.bits[w]).count_ones() as usize;
            self.bits[w] |= mask;
            self.low = self.low.min(w);
        }
        let mut evicted = Vec::new();
        // Evict the lowest-numbered lines: deterministic and roughly
        // corresponds to the oldest rows of a frame being flushed first.
        while self.dirty > self.capacity_lines {
            let excess = self.dirty - self.capacity_lines;
            let taken = take_runs(&mut evicted, self.low, self.bits[self.low], excess);
            self.bits[self.low] &= !taken;
            self.dirty -= taken.count_ones() as usize;
            self.evicted_lines += u64::from(taken.count_ones());
            if self.bits[self.low] == 0 {
                self.low += 1;
            }
        }
        evicted
    }

    /// Cleans (writes back) every dirty line intersecting `[offset,
    /// offset+len)`, returning the cleaned lines as runs of consecutive
    /// lines, lowest first.
    pub fn clean_range(&mut self, offset: usize, len: usize) -> Vec<Range<usize>> {
        self.clean_lines(self.lines_of(offset, len))
    }

    /// Cleans every dirty line, returning them as runs, lowest first.
    pub fn clean_all(&mut self) -> Vec<Range<usize>> {
        self.clean_lines(0..self.lines)
    }

    fn clean_lines(&mut self, lines: Range<usize>) -> Vec<Range<usize>> {
        let mut cleaned = Vec::new();
        for (w, mask) in words(lines) {
            let taken = take_runs(&mut cleaned, w, self.bits[w] & mask, usize::MAX);
            self.bits[w] &= !taken;
            self.dirty -= taken.count_ones() as usize;
            self.cleaned_lines += u64::from(taken.count_ones());
        }
        cleaned
    }

    /// Whether any line in `[offset, offset+len)` is dirty (i.e. the device
    /// would still see stale data there).
    pub fn is_dirty(&self, offset: usize, len: usize) -> bool {
        words(self.lines_of(offset, len)).any(|(w, mask)| self.bits[w] & mask != 0)
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.dirty
    }

    /// Lines written back by explicit cleans since creation.
    pub fn cleaned_lines(&self) -> u64 {
        self.cleaned_lines
    }

    /// Lines written back by capacity evictions since creation.
    pub fn evicted_lines(&self) -> u64 {
        self.evicted_lines
    }
}

/// Each bitmap word that `lines` touches, with the mask of its bits that lie
/// inside `lines`.
fn words(lines: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let span = if lines.is_empty() {
        0..0
    } else {
        lines.start / WORD_LINES..lines.end.div_ceil(WORD_LINES)
    };
    span.map(move |w| {
        let base = w * WORD_LINES;
        let lo = lines.start.max(base) - base;
        let hi = lines.end.min(base + WORD_LINES) - base;
        (w, (u64::MAX >> (WORD_LINES - (hi - lo))) << lo)
    })
}

/// Appends the lines of word `w` whose bits are set in `word` to `runs`,
/// lowest first, extending the last run where it ends at the first of them,
/// and stops after `limit` lines. Returns the bits it took.
fn take_runs(runs: &mut Vec<Range<usize>>, w: usize, mut word: u64, mut limit: usize) -> u64 {
    let mut taken = 0;
    while word != 0 && limit > 0 {
        let start = word.trailing_zeros();
        let len = ((!(word >> start)).trailing_zeros() as usize).min(limit);
        let run_bits = (u64::MAX >> (WORD_LINES - len)) << start;
        word &= !run_bits;
        taken |= run_bits;
        limit -= len;
        let line = w * WORD_LINES + start as usize;
        match runs.last_mut() {
            Some(run) if run.end == line => run.end += len,
            _ => runs.push(line..line + len),
        }
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Bytes of a 640x480 framebuffer of 4-byte pixels.
    const FRAME_BYTES: usize = 640 * 480 * 4;

    /// The lines of `runs`, in order.
    fn lines(runs: Vec<Range<usize>>) -> Vec<usize> {
        runs.into_iter().flatten().collect()
    }

    #[test]
    fn marking_and_cleaning_round_trip() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 1024);
        t.mark_dirty(0, 256);
        assert_eq!(t.dirty_lines(), 4);
        assert!(t.is_dirty(100, 4));
        let cleaned = t.clean_range(0, 256);
        assert_eq!(lines(cleaned), vec![0, 1, 2, 3]);
        assert!(!t.is_dirty(0, 256));
    }

    #[test]
    fn partial_clean_leaves_other_lines_dirty() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 1024);
        t.mark_dirty(0, 512);
        t.clean_range(0, 128);
        assert!(!t.is_dirty(0, 128));
        assert!(t.is_dirty(128, 384));
    }

    #[test]
    fn capacity_pressure_evicts_oldest_lines() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 4);
        let evicted = t.mark_dirty(0, 6 * CACHE_LINE_SIZE);
        assert_eq!(t.dirty_lines(), 4);
        assert_eq!(lines(evicted), vec![0, 1]);
        assert_eq!(t.evicted_lines(), 2);
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 8);
        assert!(t.mark_dirty(10, 0).is_empty());
        assert!(t.clean_range(10, 0).is_empty());
        assert!(!t.is_dirty(10, 0));
    }

    #[test]
    fn clean_all_flushes_everything() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 128);
        t.mark_dirty(1000, 300);
        let lines = lines(t.clean_all());
        assert!(!lines.is_empty());
        assert_eq!(t.dirty_lines(), 0);
        assert_eq!(t.cleaned_lines(), lines.len() as u64);
    }

    #[test]
    fn ranges_past_the_region_are_clipped_without_overflow() {
        let mut t = DirtyLineTracker::new(FRAME_BYTES, 8);
        assert!(t.mark_dirty(usize::MAX - 1, 2).is_empty());
        assert_eq!(t.dirty_lines(), 0);
        t.mark_dirty(FRAME_BYTES - 4, usize::MAX);
        assert_eq!(t.dirty_lines(), 1);
        assert!(t.is_dirty(FRAME_BYTES - 1, usize::MAX));
        assert_eq!(
            lines(t.clean_range(0, usize::MAX)),
            vec![FRAME_BYTES / 64 - 1]
        );
    }

    /// The tracker this module used before the bitmap: a sorted set of dirty
    /// line indices. It is the reference the bitmap must match call for call.
    struct Reference {
        dirty: BTreeSet<usize>,
        capacity_lines: usize,
        cleaned_lines: u64,
        evicted_lines: u64,
    }

    impl Reference {
        fn new(capacity_lines: usize) -> Self {
            Reference {
                dirty: BTreeSet::new(),
                capacity_lines: capacity_lines.max(1),
                cleaned_lines: 0,
                evicted_lines: 0,
            }
        }

        fn mark_dirty(&mut self, offset: usize, len: usize) -> Vec<usize> {
            if len == 0 {
                return Vec::new();
            }
            let first = offset / CACHE_LINE_SIZE;
            let last = (offset + len - 1) / CACHE_LINE_SIZE;
            for line in first..=last {
                self.dirty.insert(line);
            }
            let mut evicted = Vec::new();
            while self.dirty.len() > self.capacity_lines {
                if let Some(&line) = self.dirty.iter().next() {
                    self.dirty.remove(&line);
                    self.evicted_lines += 1;
                    evicted.push(line);
                }
            }
            evicted
        }

        fn clean_range(&mut self, offset: usize, len: usize) -> Vec<usize> {
            if len == 0 {
                return Vec::new();
            }
            let first = offset / CACHE_LINE_SIZE;
            let last = (offset + len - 1) / CACHE_LINE_SIZE;
            let lines: Vec<usize> = self.dirty.range(first..=last).copied().collect();
            for line in &lines {
                self.dirty.remove(line);
            }
            self.cleaned_lines += lines.len() as u64;
            lines
        }

        fn clean_all(&mut self) -> Vec<usize> {
            let lines: Vec<usize> = self.dirty.iter().copied().collect();
            self.dirty.clear();
            self.cleaned_lines += lines.len() as u64;
            lines
        }

        fn is_dirty(&self, offset: usize, len: usize) -> bool {
            if len == 0 {
                return false;
            }
            let first = offset / CACHE_LINE_SIZE;
            let last = (offset + len - 1) / CACHE_LINE_SIZE;
            self.dirty.range(first..=last).next().is_some()
        }
    }

    /// Lines from runs, checking that the runs are ascending and maximal:
    /// each starts past the end of the one before, so no two could be one
    /// copy.
    fn checked_lines(runs: Vec<Range<usize>>) -> Vec<usize> {
        for pair in runs.windows(2) {
            assert!(
                pair[0].end < pair[1].start,
                "runs {runs:?} touch or overlap"
            );
        }
        assert!(runs.iter().all(|r| !r.is_empty()), "empty run in {runs:?}");
        lines(runs)
    }

    #[test]
    fn bitmap_matches_the_sorted_set_reference_call_for_call() {
        for (seed, capacity) in [(1u64, 2048), (29, 2048), (7, 300), (11, 1)] {
            let mut rng = seed;
            let mut next = move |bound: usize| {
                // xorshift64: a fixed sequence per seed.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % bound as u64) as usize
            };
            let mut bitmap = DirtyLineTracker::new(FRAME_BYTES, capacity);
            let mut reference = Reference::new(capacity);
            for step in 0..2000 {
                let offset = next(FRAME_BYTES);
                // Mostly up to three rows; now and then up to an eighth of
                // the frame, which overflows the 2,048-line cache.
                let max_len = if next(16) == 0 {
                    FRAME_BYTES / 8
                } else {
                    640 * 4 * 3
                };
                let len = next(max_len + 1).min(FRAME_BYTES - offset);
                let what = next(20);
                let (got, want) = match what {
                    0..=13 => (
                        bitmap.mark_dirty(offset, len),
                        reference.mark_dirty(offset, len),
                    ),
                    14..=18 => (
                        bitmap.clean_range(offset, len),
                        reference.clean_range(offset, len),
                    ),
                    _ => (bitmap.clean_all(), reference.clean_all()),
                };
                assert_eq!(
                    checked_lines(got),
                    want,
                    "seed {seed} step {step} op {what}"
                );
                assert_eq!(bitmap.dirty_lines(), reference.dirty.len());
                assert_eq!(bitmap.cleaned_lines(), reference.cleaned_lines);
                assert_eq!(bitmap.evicted_lines(), reference.evicted_lines);
                let (probe, probe_len) = (next(FRAME_BYTES), next(4096));
                assert_eq!(
                    bitmap.is_dirty(probe, probe_len),
                    reference.is_dirty(probe, probe_len),
                    "seed {seed} step {step} probe {probe}+{probe_len}"
                );
            }
            assert!(reference.evicted_lines > 0, "seed {seed} never evicted");
            assert!(reference.cleaned_lines > 0, "seed {seed} never cleaned");
        }
    }
}
