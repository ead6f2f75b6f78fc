//! The window manager.
//!
//! Prototype 5's window manager is ~800 SLoC running as a *kernel thread*
//! (§4.5): running it in the kernel avoids shared-memory IPC and a
//! client/server protocol, a simplicity-over-purity trade-off the paper makes
//! explicitly. Apps render *indirectly* into surfaces obtained by opening
//! `/dev/surface`; the WM keeps the surface list, composites them onto the
//! hardware framebuffer respecting z-order, tracks dirty regions so only
//! changed pixels are redrawn, forwards input only to the focused window, and
//! intercepts Ctrl+Tab to switch focus. Floating, semi-transparent windows
//! (sysmon) stay on top.

use protousb::{KeyCode, KeyEvent};

use crate::error::{KResult, KernelError};
use crate::task::TaskId;

/// A rectangle in screen coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width.
    pub w: u32,
    /// Height.
    pub h: u32,
}

impl Rect {
    /// The union of two rectangles (smallest rect covering both).
    pub fn union(&self, other: &Rect) -> Rect {
        let x1 = self.x.min(other.x);
        let y1 = self.y.min(other.y);
        let x2 = (self.x + self.w).max(other.x + other.w);
        let y2 = (self.y + self.h).max(other.y + other.h);
        Rect {
            x: x1,
            y: y1,
            w: x2 - x1,
            h: y2 - y1,
        }
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }
}

/// One application surface.
#[derive(Debug, Clone)]
pub struct Surface {
    /// Surface id (also the value stored in the task's fd).
    pub id: u64,
    /// Task that owns the surface.
    pub owner: TaskId,
    /// Position and size on screen.
    pub rect: Rect,
    /// Pixel contents (ARGB), row-major, `rect.w * rect.h` long.
    pub pixels: Vec<u32>,
    /// Region updated since the last composition, if any.
    pub dirty: Option<Rect>,
    /// Semi-transparent floating window (sysmon): always composited on top,
    /// blended at 50%.
    pub floating: bool,
    /// Window title (for the launcher/demo listing).
    pub title: String,
}

impl Surface {
    fn new(id: u64, owner: TaskId, title: String) -> Self {
        Surface {
            id,
            owner,
            rect: Rect {
                x: 0,
                y: 0,
                w: 0,
                h: 0,
            },
            pixels: Vec::new(),
            dirty: None,
            floating: false,
            title,
        }
    }
}

/// Composition statistics (used by the ablation and latency benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComposeStats {
    /// Composition rounds performed.
    pub rounds: u64,
    /// Pixels actually written to the framebuffer.
    pub pixels_composited: u64,
    /// Rounds skipped entirely because nothing was dirty.
    pub skipped_rounds: u64,
    /// Input events dispatched to focused apps.
    pub events_dispatched: u64,
    /// Focus switches performed (Ctrl+Tab).
    pub focus_switches: u64,
}

/// The window manager state.
#[derive(Debug, Clone, Default)]
pub struct WindowManager {
    surfaces: Vec<Surface>,
    /// Z-order: surface ids, bottom first. Floating surfaces are composited
    /// after (above) everything in this list.
    z_order: Vec<u64>,
    focused: Option<u64>,
    next_id: u64,
    stats: ComposeStats,
}

impl WindowManager {
    /// Creates an empty window manager.
    pub fn new() -> Self {
        WindowManager {
            surfaces: Vec::new(),
            z_order: Vec::new(),
            focused: None,
            next_id: 1,
            stats: ComposeStats::default(),
        }
    }

    /// Number of live surfaces.
    pub fn surface_count(&self) -> usize {
        self.surfaces.len()
    }

    /// Composition statistics.
    pub fn stats(&self) -> ComposeStats {
        self.stats
    }

    /// The owner of the focused surface, if any.
    pub fn focused_owner(&self) -> Option<TaskId> {
        let id = self.focused?;
        self.surfaces.iter().find(|s| s.id == id).map(|s| s.owner)
    }

    /// The focused surface id.
    pub fn focused_surface(&self) -> Option<u64> {
        self.focused
    }

    /// Creates a surface owned by `owner` (an open of `/dev/surface`).
    pub fn create_surface(&mut self, owner: TaskId, title: impl Into<String>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.surfaces.push(Surface::new(id, owner, title.into()));
        self.z_order.push(id);
        if self.focused.is_none() {
            self.focused = Some(id);
        }
        id
    }

    /// Destroys a surface (close of its fd or owner exit).
    pub fn destroy_surface(&mut self, id: u64) {
        self.surfaces.retain(|s| s.id != id);
        self.z_order.retain(|z| *z != id);
        if self.focused == Some(id) {
            self.focused = self.z_order.last().copied();
        }
    }

    /// Destroys every surface owned by `task`.
    pub fn destroy_owned_by(&mut self, task: TaskId) {
        let ids: Vec<u64> = self
            .surfaces
            .iter()
            .filter(|s| s.owner == task)
            .map(|s| s.id)
            .collect();
        for id in ids {
            self.destroy_surface(id);
        }
    }

    fn surface_mut(&mut self, id: u64) -> KResult<&mut Surface> {
        self.surfaces
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or_else(|| KernelError::NotFound(format!("surface {id}")))
    }

    /// Looks up a surface.
    pub fn surface(&self, id: u64) -> KResult<&Surface> {
        self.surfaces
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| KernelError::NotFound(format!("surface {id}")))
    }

    /// Configures a surface's geometry and flags.
    pub fn configure(&mut self, id: u64, rect: Rect, floating: bool) -> KResult<()> {
        if rect.w == 0 || rect.h == 0 || rect.w > 4096 || rect.h > 4096 {
            return Err(KernelError::Invalid(format!(
                "bad surface geometry {rect:?}"
            )));
        }
        let s = self.surface_mut(id)?;
        s.rect = rect;
        s.floating = floating;
        s.pixels = vec![0u32; (rect.w * rect.h) as usize];
        s.dirty = Some(Rect {
            x: 0,
            y: 0,
            w: rect.w,
            h: rect.h,
        });
        Ok(())
    }

    /// Writes a full frame of pixels into the surface (what a `/dev/surface`
    /// write carries) and marks it dirty.
    pub fn submit_frame(&mut self, id: u64, pixels: &[u32]) -> KResult<()> {
        let s = self.surface_mut(id)?;
        if pixels.len() != s.pixels.len() {
            return Err(KernelError::Invalid(format!(
                "frame has {} px but surface holds {}",
                pixels.len(),
                s.pixels.len()
            )));
        }
        s.pixels.copy_from_slice(pixels);
        s.dirty = Some(s.rect);
        Ok(())
    }

    /// Marks a sub-rectangle of the surface dirty (partial update).
    pub fn mark_dirty(&mut self, id: u64, rect: Rect) -> KResult<()> {
        let s = self.surface_mut(id)?;
        s.dirty = Some(match s.dirty {
            Some(d) => d.union(&rect),
            None => rect,
        });
        Ok(())
    }

    /// Raises a surface to the top of the z-order and focuses it.
    pub fn focus(&mut self, id: u64) -> KResult<()> {
        if !self.surfaces.iter().any(|s| s.id == id) {
            return Err(KernelError::NotFound(format!("surface {id}")));
        }
        self.raise(id);
        Ok(())
    }

    /// Raises the existing surface `id` and focuses it.
    fn raise(&mut self, id: u64) {
        self.z_order.retain(|z| *z != id);
        self.z_order.push(id);
        if self.focused != Some(id) {
            self.focused = Some(id);
            self.stats.focus_switches += 1;
        }
    }

    /// Cycles focus to the next surface (Ctrl+Tab).
    pub fn focus_next(&mut self) {
        if self.z_order.is_empty() {
            return;
        }
        // The next surface in creation order after the focused one.
        let ids: Vec<u64> = self.surfaces.iter().map(|s| s.id).collect();
        let next = match self.focused.and_then(|f| ids.iter().position(|i| *i == f)) {
            Some(pos) => ids[(pos + 1) % ids.len()],
            None => ids[0],
        };
        self.raise(next);
    }

    /// Handles a raw input event: Ctrl+Tab switches focus (consumed);
    /// anything else is returned for dispatch to the focused app.
    pub fn filter_input(&mut self, event: KeyEvent) -> Option<KeyEvent> {
        if event.pressed && event.modifiers.ctrl && event.code == KeyCode::Tab {
            self.focus_next();
            return None;
        }
        self.stats.events_dispatched += 1;
        Some(event)
    }

    /// Composites every dirty surface onto the framebuffer. Returns the
    /// number of pixels written (so the caller can charge composition cost).
    /// Only dirty regions are redrawn, matching the paper's optimisation.
    pub fn compose(&mut self, fb: &mut hal::framebuffer::Framebuffer) -> KResult<u64> {
        let info = match fb.info() {
            Some(i) => i,
            None => return Err(KernelError::Device("framebuffer not allocated".into())),
        };
        let any_dirty = self.surfaces.iter().any(|s| s.dirty.is_some());
        self.stats.rounds += 1;
        if !any_dirty {
            self.stats.skipped_rounds += 1;
            return Ok(0);
        }
        let mut written = 0u64;
        // Bottom-up: regular surfaces in z-order, then floating ones.
        let order: Vec<u64> = self
            .z_order
            .iter()
            .copied()
            .filter(|id| !self.surface(*id).map(|s| s.floating).unwrap_or(false))
            .chain(
                self.z_order
                    .iter()
                    .copied()
                    .filter(|id| self.surface(*id).map(|s| s.floating).unwrap_or(false)),
            )
            .collect();
        for id in order {
            let (rect, pixels, floating) = {
                let s = self.surface(id)?;
                if s.pixels.is_empty() {
                    continue;
                }
                (s.rect, s.pixels.clone(), s.floating)
            };
            for row in 0..rect.h {
                let fy = rect.y + row;
                if fy >= info.height {
                    break;
                }
                let visible_w = rect.w.min(info.width.saturating_sub(rect.x));
                if visible_w == 0 {
                    continue;
                }
                let src_start = (row * rect.w) as usize;
                let src = &pixels[src_start..src_start + visible_w as usize];
                let dst_off = (fy * info.width + rect.x) as usize;
                if floating {
                    // 50% blend against what is already on screen.
                    let mut blended = Vec::with_capacity(src.len());
                    for (i, &p) in src.iter().enumerate() {
                        let under = fb.scanout_pixels()[dst_off + i];
                        blended.push(blend_half(under, p));
                    }
                    fb.write_pixels(dst_off, &blended, true)?;
                } else {
                    fb.write_pixels(dst_off, src, true)?;
                }
                written += visible_w as u64;
            }
            if let Ok(s) = self.surface_mut(id) {
                s.dirty = None;
            }
        }
        // The WM, being kernel code, cleans the cache for the whole screen
        // after composition — apps rendering indirectly never need to.
        fb.flush_all();
        self.stats.pixels_composited += written;
        Ok(written)
    }
}

/// 50% alpha blend of two ARGB pixels.
fn blend_half(under: u32, over: u32) -> u32 {
    let mut out = 0u32;
    for shift in [0, 8, 16] {
        let u = (under >> shift) & 0xFF;
        let o = (over >> shift) & 0xFF;
        out |= ((u + o) / 2) << shift;
    }
    out | 0xFF00_0000
}

#[cfg(test)]
mod tests {
    use super::*;
    use protousb::Modifiers;

    fn fb_640x480() -> hal::framebuffer::Framebuffer {
        let mut fb = hal::framebuffer::Framebuffer::new();
        fb.allocate(640, 480, 0x3C10_0000);
        fb
    }

    fn key(code: KeyCode, ctrl: bool) -> KeyEvent {
        KeyEvent {
            code,
            modifiers: Modifiers {
                ctrl,
                shift: false,
                alt: false,
            },
            pressed: true,
            timestamp_us: 0,
        }
    }

    #[test]
    fn surfaces_composite_into_the_framebuffer() {
        let mut wm = WindowManager::new();
        let mut fb = fb_640x480();
        let s = wm.create_surface(10, "mario");
        wm.configure(
            s,
            Rect {
                x: 100,
                y: 50,
                w: 4,
                h: 2,
            },
            false,
        )
        .unwrap();
        wm.submit_frame(s, &[0xFF0000; 8]).unwrap();
        let written = wm.compose(&mut fb).unwrap();
        assert_eq!(written, 8);
        assert_eq!(fb.scanout_at(100, 50).unwrap(), 0xFF0000);
        assert_eq!(fb.scanout_at(103, 51).unwrap(), 0xFF0000);
        assert_eq!(
            fb.scanout_at(104, 50).unwrap(),
            0,
            "outside the window untouched"
        );
    }

    #[test]
    fn clean_rounds_are_skipped() {
        let mut wm = WindowManager::new();
        let mut fb = fb_640x480();
        let s = wm.create_surface(1, "donut");
        wm.configure(
            s,
            Rect {
                x: 0,
                y: 0,
                w: 2,
                h: 2,
            },
            false,
        )
        .unwrap();
        wm.submit_frame(s, &[1, 2, 3, 4]).unwrap();
        assert!(wm.compose(&mut fb).unwrap() > 0);
        assert_eq!(wm.compose(&mut fb).unwrap(), 0, "nothing dirty second time");
        assert_eq!(wm.stats().skipped_rounds, 1);
    }

    #[test]
    fn z_order_puts_later_focused_windows_on_top() {
        let mut wm = WindowManager::new();
        let mut fb = fb_640x480();
        let a = wm.create_surface(1, "a");
        let b = wm.create_surface(2, "b");
        for (s, colour) in [(a, 0x00FF00u32), (b, 0x0000FFu32)] {
            wm.configure(
                s,
                Rect {
                    x: 0,
                    y: 0,
                    w: 2,
                    h: 2,
                },
                false,
            )
            .unwrap();
            wm.submit_frame(s, &[colour; 4]).unwrap();
        }
        wm.compose(&mut fb).unwrap();
        assert_eq!(
            fb.scanout_at(0, 0).unwrap(),
            0x0000FF,
            "b created later, drawn above"
        );
        // Refocusing a raises it.
        wm.focus(a).unwrap();
        wm.submit_frame(a, &[0x00FF00; 4]).unwrap();
        wm.submit_frame(b, &[0x0000FF; 4]).unwrap();
        wm.compose(&mut fb).unwrap();
        assert_eq!(fb.scanout_at(0, 0).unwrap(), 0x00FF00);
    }

    #[test]
    fn floating_sysmon_blends_on_top() {
        let mut wm = WindowManager::new();
        let mut fb = fb_640x480();
        let game = wm.create_surface(1, "doom");
        wm.configure(
            game,
            Rect {
                x: 0,
                y: 0,
                w: 2,
                h: 1,
            },
            false,
        )
        .unwrap();
        wm.submit_frame(game, &[0xFF000000; 2]).unwrap();
        let sysmon = wm.create_surface(2, "sysmon");
        wm.configure(
            sysmon,
            Rect {
                x: 0,
                y: 0,
                w: 1,
                h: 1,
            },
            true,
        )
        .unwrap();
        wm.submit_frame(sysmon, &[0xFFFFFFFF; 1]).unwrap();
        wm.compose(&mut fb).unwrap();
        let blended = fb.scanout_at(0, 0).unwrap();
        assert_eq!(blended & 0xFF, 0x7F, "50% blend of white over black");
        assert_eq!(fb.scanout_at(1, 0).unwrap() & 0x00FF_FFFF, 0);
    }

    #[test]
    fn ctrl_tab_switches_focus_and_is_consumed() {
        let mut wm = WindowManager::new();
        let a = wm.create_surface(10, "a");
        let b = wm.create_surface(20, "b");
        assert_eq!(wm.focused_surface(), Some(a));
        assert!(wm.filter_input(key(KeyCode::Tab, true)).is_none());
        assert_eq!(wm.focused_surface(), Some(b));
        // A plain key goes through to the (new) focused app.
        let passed = wm.filter_input(key(KeyCode::Char('W'), false)).unwrap();
        assert_eq!(passed.code, KeyCode::Char('W'));
        assert_eq!(wm.focused_owner(), Some(20));
        assert_eq!(wm.stats().focus_switches, 1);
    }

    #[test]
    fn destroying_the_focused_surface_moves_focus() {
        let mut wm = WindowManager::new();
        let a = wm.create_surface(1, "a");
        let b = wm.create_surface(2, "b");
        wm.focus(b).unwrap();
        wm.destroy_surface(b);
        assert_eq!(wm.focused_surface(), Some(a));
        wm.destroy_owned_by(1);
        assert_eq!(wm.surface_count(), 0);
        assert_eq!(wm.focused_surface(), None);
    }

    #[test]
    fn frame_size_must_match_surface_geometry() {
        let mut wm = WindowManager::new();
        let s = wm.create_surface(1, "x");
        wm.configure(
            s,
            Rect {
                x: 0,
                y: 0,
                w: 4,
                h: 4,
            },
            false,
        )
        .unwrap();
        assert!(wm.submit_frame(s, &[0; 15]).is_err());
        assert!(wm
            .configure(
                s,
                Rect {
                    x: 0,
                    y: 0,
                    w: 0,
                    h: 4
                },
                false
            )
            .is_err());
    }
}
