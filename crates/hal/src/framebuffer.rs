//! Framebuffer device.
//!
//! Proto treats the framebuffer as a *first-class* peripheral from Prototype
//! 1 onward (principle P1: appealing apps need pixels, not just a UART). On
//! the Pi 3 the framebuffer is requested from the VideoCore firmware through
//! the mailbox property interface, which returns the geometry, pitch and the
//! bus address of the allocation. This model reproduces that flow:
//! [`crate::mailbox::Mailbox`] performs the allocation and hands back a
//! [`FramebufferInfo`]; the pixels live in this device.
//!
//! The device keeps two pixel planes: a *staged* plane that cacheable CPU
//! writes land in, and the *scanout* plane the display engine reads. Cache
//! cleans (or capacity evictions) move lines from staged to scanout — exactly
//! the behaviour that produces the stale-pixel artifacts of §4.3 when the
//! per-frame flush is forgotten.

use std::ops::Range;

use crate::cache::{DirtyLineTracker, CACHE_LINE_SIZE};
use crate::{HalError, HalResult};

/// Default display width used by the paper's demos (the Game HAT panel and
/// HDMI mode are both driven at 640x480).
pub const DEFAULT_WIDTH: u32 = 640;
/// Default display height.
pub const DEFAULT_HEIGHT: u32 = 480;
/// Bytes per pixel (32-bit ARGB).
pub const BYTES_PER_PIXEL: u32 = 4;
/// Framebuffer lines the CPU cache holds dirty before it evicts the
/// lowest-numbered one to scanout: 128 KB of the Pi 3's 512 KB L2. A
/// 640x480 frame spans 19,200 lines, so a frame drawn without a clean
/// leaves its last 2,048 lines stale.
const FB_CACHE_LINES: usize = 2048;
/// Pixels per cache line.
const LINE_PX: usize = CACHE_LINE_SIZE / BYTES_PER_PIXEL as usize;

/// Geometry and placement of an allocated framebuffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramebufferInfo {
    /// Visible width in pixels.
    pub width: u32,
    /// Visible height in pixels.
    pub height: u32,
    /// Bytes per scanline.
    pub pitch: u32,
    /// Bus/physical address the GPU placed the framebuffer at. On real
    /// hardware this is an arbitrary high address — one of the reasons the
    /// paper insists on testing on hardware rather than QEMU.
    pub phys_addr: u64,
    /// Size of the allocation in bytes.
    pub size: u32,
}

impl FramebufferInfo {
    /// Total number of pixels.
    pub fn pixel_count(&self) -> usize {
        (self.width * self.height) as usize
    }
}

/// The framebuffer device (GPU memory + scanout).
#[derive(Debug)]
pub struct Framebuffer {
    info: Option<FramebufferInfo>,
    /// What cacheable CPU writes have produced (may be ahead of scanout).
    staged: Vec<u32>,
    /// What the display engine scans out.
    scanout: Vec<u32>,
    dirty: DirtyLineTracker,
    /// Count of pixels written by the CPU since allocation.
    pixels_written: u64,
    /// Count of explicit cache-clean operations covering this framebuffer.
    flushes: u64,
}

impl Default for Framebuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl Framebuffer {
    /// Creates an unallocated framebuffer device.
    pub fn new() -> Self {
        Framebuffer {
            info: None,
            staged: Vec::new(),
            scanout: Vec::new(),
            dirty: DirtyLineTracker::new(0, FB_CACHE_LINES),
            pixels_written: 0,
            flushes: 0,
        }
    }

    /// Performs the allocation the mailbox property call requests. Normally
    /// reached through [`crate::mailbox::Mailbox::allocate_framebuffer`];
    /// exposed for tests that need a framebuffer without a firmware model.
    pub fn allocate(&mut self, width: u32, height: u32, phys_addr: u64) -> FramebufferInfo {
        let pitch = width * BYTES_PER_PIXEL;
        let size = pitch * height;
        let info = FramebufferInfo {
            width,
            height,
            pitch,
            phys_addr,
            size,
        };
        self.info = Some(info);
        self.staged = vec![0u32; (width * height) as usize];
        self.scanout = vec![0u32; (width * height) as usize];
        self.dirty = DirtyLineTracker::new(size as usize, FB_CACHE_LINES);
        self.pixels_written = 0;
        self.flushes = 0;
        info
    }

    /// The allocation info, if the framebuffer has been set up.
    pub fn info(&self) -> Option<FramebufferInfo> {
        self.info
    }

    /// True once the mailbox call has allocated the framebuffer.
    pub fn is_allocated(&self) -> bool {
        self.info.is_some()
    }

    fn require_info(&self) -> HalResult<FramebufferInfo> {
        self.info
            .ok_or_else(|| HalError::InvalidState("framebuffer not allocated".into()))
    }

    /// Writes `pixels` starting at pixel index `offset_px`.
    ///
    /// With `cached == true` the write lands in the staged plane and will not
    /// be visible on the display until the covering lines are cleaned. When
    /// the cache holds more dirty lines than it can, the lowest-numbered ones
    /// are written back to scanout at once (modelling capacity write-back),
    /// one copy per run of consecutive lines. With `cached == false` (a
    /// device/non-cacheable mapping) the write goes straight to scanout.
    ///
    /// A write that does not fit in the framebuffer, including one whose end
    /// overflows `usize`, fails with [`HalError::OutOfRange`].
    pub fn write_pixels(
        &mut self,
        offset_px: usize,
        pixels: &[u32],
        cached: bool,
    ) -> HalResult<()> {
        let info = self.require_info()?;
        let end = offset_px
            .checked_add(pixels.len())
            .filter(|&end| end <= info.pixel_count())
            .ok_or_else(|| {
                HalError::OutOfRange(format!(
                    "framebuffer write of {} px at {} exceeds {} px",
                    pixels.len(),
                    offset_px,
                    info.pixel_count()
                ))
            })?;
        self.staged[offset_px..end].copy_from_slice(pixels);
        self.pixels_written += pixels.len() as u64;
        if cached {
            let byte_off = offset_px * BYTES_PER_PIXEL as usize;
            let byte_len = pixels.len() * BYTES_PER_PIXEL as usize;
            let evicted = self.dirty.mark_dirty(byte_off, byte_len);
            self.write_back(evicted);
        } else {
            self.scanout[offset_px..end].copy_from_slice(pixels);
        }
        Ok(())
    }

    /// Fills the whole framebuffer with one colour (used by clears and the
    /// boot logo background).
    pub fn clear(&mut self, colour: u32, cached: bool) -> HalResult<()> {
        let info = self.require_info()?;
        let row = vec![colour; info.width as usize];
        for y in 0..info.height as usize {
            self.write_pixels(y * info.width as usize, &row, cached)?;
        }
        Ok(())
    }

    /// Copies each run of lines from the staged plane to scanout, one copy
    /// per run, and returns the number of lines written back.
    fn write_back(&mut self, runs: Vec<Range<usize>>) -> usize {
        let mut lines = 0;
        for run in runs {
            lines += run.len();
            // The tracker covers the allocation, so a run starts inside it;
            // only the last line of an allocation that is not a whole number
            // of lines extends past the planes.
            let px = run.start * LINE_PX..(run.end * LINE_PX).min(self.staged.len());
            self.scanout[px.clone()].copy_from_slice(&self.staged[px]);
        }
        lines
    }

    /// Cleans the CPU cache for the byte range `[offset, offset+len)` of the
    /// framebuffer (the `dc civac` loop a Proto syscall performs each frame),
    /// writing the dirty lines back to scanout one run of consecutive lines
    /// at a time. Returns the number of lines written back, so callers can
    /// charge the per-line maintenance cost.
    pub fn flush_range(&mut self, offset: usize, len: usize) -> usize {
        let cleaned = self.dirty.clean_range(offset, len);
        self.flushes += 1;
        self.write_back(cleaned)
    }

    /// Cleans the entire framebuffer, writing the dirty lines back to scanout
    /// one run of consecutive lines at a time. Returns the number of lines
    /// written back.
    pub fn flush_all(&mut self) -> usize {
        let cleaned = self.dirty.clean_all();
        self.flushes += 1;
        self.write_back(cleaned)
    }

    /// Reads back what the display is scanning out (what a camera pointed at
    /// the screen — or a grading TA watching a demo video — would see).
    pub fn scanout_pixels(&self) -> &[u32] {
        &self.scanout
    }

    /// Reads back what the CPU believes it wrote (staged plane).
    pub fn staged_pixels(&self) -> &[u32] {
        &self.staged
    }

    /// Reads a single scanout pixel by coordinates.
    pub fn scanout_at(&self, x: u32, y: u32) -> HalResult<u32> {
        let info = self.require_info()?;
        if x >= info.width || y >= info.height {
            return Err(HalError::OutOfRange(format!("pixel ({x},{y})")));
        }
        Ok(self.scanout[(y * info.width + x) as usize])
    }

    /// Number of pixels the display currently shows that differ from what the
    /// CPU wrote — i.e. visible staleness caused by missing cache cleans.
    pub fn stale_pixels(&self) -> usize {
        self.staged
            .iter()
            .zip(self.scanout.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Total pixels written by the CPU since allocation.
    pub fn pixels_written(&self) -> u64 {
        self.pixels_written
    }

    /// Number of explicit flush operations performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocated_fb() -> Framebuffer {
        let mut fb = Framebuffer::new();
        fb.allocate(64, 32, 0x3C10_0000);
        fb
    }

    #[test]
    fn unallocated_framebuffer_rejects_writes() {
        let mut fb = Framebuffer::new();
        assert!(matches!(
            fb.write_pixels(0, &[1, 2, 3], true),
            Err(HalError::InvalidState(_))
        ));
    }

    #[test]
    fn uncached_writes_are_immediately_visible() {
        let mut fb = allocated_fb();
        fb.write_pixels(10, &[0xFF00FF], false).unwrap();
        assert_eq!(fb.scanout_at(10, 0).unwrap(), 0xFF00FF);
        assert_eq!(fb.stale_pixels(), 0);
    }

    #[test]
    fn cached_writes_are_stale_until_flushed() {
        let mut fb = allocated_fb();
        fb.write_pixels(0, &[0xAAAAAA; 16], true).unwrap();
        assert_eq!(fb.scanout_at(0, 0).unwrap(), 0, "not flushed yet");
        assert_eq!(fb.stale_pixels(), 16);
        let flushed = fb.flush_all();
        assert!(flushed > 0);
        assert_eq!(fb.scanout_at(0, 0).unwrap(), 0xAAAAAA);
        assert_eq!(fb.stale_pixels(), 0);
    }

    #[test]
    fn partial_flush_commits_only_the_requested_range() {
        let mut fb = allocated_fb();
        // Two cache lines worth of pixels (16 px per 64-byte line).
        fb.write_pixels(0, &[0x111111; 32], true).unwrap();
        fb.flush_range(0, 64);
        assert_eq!(fb.scanout_at(0, 0).unwrap(), 0x111111);
        assert_eq!(fb.scanout_at(16, 0).unwrap(), 0, "second line still stale");
        assert!(fb.stale_pixels() > 0);
    }

    #[test]
    fn out_of_bounds_write_is_rejected() {
        let mut fb = allocated_fb();
        let too_many = vec![0u32; 64 * 32 + 1];
        assert!(fb.write_pixels(0, &too_many, false).is_err());
        assert!(fb.write_pixels(64 * 32 - 1, &[0, 0], false).is_err());
        // The end of this one overflows `usize`.
        assert!(fb.write_pixels(usize::MAX - 1, &[0, 0], true).is_err());
    }

    #[test]
    fn an_unflushed_frame_leaves_exactly_its_last_cache_lines_stale() {
        // One 640x480 frame drawn a row at a time, as DOOM draws it: 19,200
        // lines against the 2,048 the cache holds, evicted lowest first.
        let mut fb = Framebuffer::new();
        fb.allocate(DEFAULT_WIDTH, DEFAULT_HEIGHT, 0x3C10_0000);
        let (w, h) = (DEFAULT_WIDTH as usize, DEFAULT_HEIGHT as usize);
        let frame: Vec<u32> = (0..w * h).map(|i| 0xFF00_0000 | i as u32).collect();
        for y in 0..h {
            fb.write_pixels(y * w, &frame[y * w..(y + 1) * w], true)
                .unwrap();
        }
        let written_back = w * h - FB_CACHE_LINES * LINE_PX;
        assert_eq!(fb.stale_pixels(), FB_CACHE_LINES * LINE_PX);
        assert_eq!(&fb.scanout_pixels()[..written_back], &frame[..written_back]);
        assert!(fb.scanout_pixels()[written_back..].iter().all(|&p| p == 0));
        assert_eq!(fb.flush_all(), FB_CACHE_LINES);
        assert_eq!(fb.stale_pixels(), 0);
        assert_eq!(fb.scanout_pixels(), &frame[..]);
    }

    #[test]
    fn geometry_reported_matches_allocation() {
        let mut fb = Framebuffer::new();
        let info = fb.allocate(DEFAULT_WIDTH, DEFAULT_HEIGHT, 0x3C10_0000);
        assert_eq!(info.pitch, DEFAULT_WIDTH * BYTES_PER_PIXEL);
        assert_eq!(info.size, DEFAULT_WIDTH * BYTES_PER_PIXEL * DEFAULT_HEIGHT);
        assert_eq!(
            info.pixel_count(),
            (DEFAULT_WIDTH * DEFAULT_HEIGHT) as usize
        );
    }
}
