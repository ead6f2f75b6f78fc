//! The spinning donut (Prototypes 1–2).
//!
//! Prototype 1's target app is "a donut spinning on display" — a1k0n's
//! obfuscated-C torus, rendered either as ASCII over the UART or as pixels
//! into the framebuffer. Prototype 2 runs N of them concurrently, each as a
//! task with its own spin rate, its `speed` argument (§4.1–§4.2). The
//! math here is the genuine torus projection with a painter's depth buffer,
//! so each frame does real work that the cost model then prices.

use kernel::usercall::{FramePhases, StepResult, UserCtx, UserProgram};

/// Text-mode donut columns.
pub const TEXT_COLS: usize = 64;
/// Text-mode donut rows.
pub const TEXT_ROWS: usize = 24;
/// Luminance ramp used for the ASCII rendering.
const LUMA: &[u8] = b".,-~:;=!*#$@";

/// Renders one torus frame into a luminance grid of `cols` x `rows`.
/// Returns the character grid (text mode) — pixel mode maps it to colours.
pub fn render_torus(a: f64, b: f64, cols: usize, rows: usize) -> Vec<u8> {
    let mut output = vec![b' '; cols * rows];
    let mut zbuf = vec![0.0f64; cols * rows];
    let (sin_a, cos_a) = a.sin_cos();
    let (sin_b, cos_b) = b.sin_cos();
    let mut theta = 0.0f64;
    while theta < std::f64::consts::TAU {
        let (sin_t, cos_t) = theta.sin_cos();
        let mut phi = 0.0f64;
        while phi < std::f64::consts::TAU {
            let (sin_p, cos_p) = phi.sin_cos();
            let circle_x = cos_t + 2.0;
            let circle_y = sin_t;
            let x = circle_x * (cos_b * cos_p + sin_a * sin_b * sin_p) - circle_y * cos_a * sin_b;
            let y = circle_x * (sin_b * cos_p - sin_a * cos_b * sin_p) + circle_y * cos_a * cos_b;
            let z = 5.0 + cos_a * circle_x * sin_p + circle_y * sin_a;
            let ooz = 1.0 / z;
            let xp = (cols as f64 / 2.0 + cols as f64 * 0.45 * ooz * x) as isize;
            let yp = (rows as f64 / 2.0 - rows as f64 * 0.45 * ooz * y) as isize;
            let lum = cos_p * cos_t * sin_b - cos_a * cos_t * sin_p - sin_a * sin_t
                + cos_b * (cos_a * sin_t - cos_t * sin_a * sin_p);
            if xp >= 0 && (xp as usize) < cols && yp >= 0 && (yp as usize) < rows {
                let idx = yp as usize * cols + xp as usize;
                if ooz > zbuf[idx] {
                    zbuf[idx] = ooz;
                    let li = ((lum * 8.0).max(0.0) as usize).min(LUMA.len() - 1);
                    output[idx] = LUMA[li];
                }
            }
            phi += 0.07;
        }
        theta += 0.02;
    }
    output
}

/// The textual donut of Prototype 1: renders over the UART console.
#[derive(Debug)]
pub struct TextDonut {
    a: f64,
    b: f64,
    frames: u64,
    /// Stop after this many frames (0 = run forever).
    pub max_frames: u64,
}

impl TextDonut {
    /// Creates a text donut that runs until killed.
    pub fn new() -> Self {
        TextDonut {
            a: 0.0,
            b: 0.0,
            frames: 0,
            max_frames: 0,
        }
    }

    /// Creates a text donut that exits after `frames` frames (tests).
    pub fn bounded(frames: u64) -> Self {
        TextDonut {
            max_frames: frames,
            ..Self::new()
        }
    }
}

impl Default for TextDonut {
    fn default() -> Self {
        Self::new()
    }
}

impl UserProgram for TextDonut {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let t0 = ctx.now_us();
        let grid = render_torus(self.a, self.b, TEXT_COLS, TEXT_ROWS);
        self.a += 0.08;
        self.b += 0.03;
        self.frames += 1;
        let cost = ctx.cost();
        // The torus math is the app logic; printing is the "draw".
        let logic = cost.per_byte(
            cost.memset_per_byte_milli,
            (TEXT_COLS * TEXT_ROWS * 40) as u64,
        );
        ctx.charge_user(logic);
        // Print one line every 30 frames so the console log stays readable.
        if self.frames % 30 == 1 {
            let row = &grid[(TEXT_ROWS / 2) * TEXT_COLS..(TEXT_ROWS / 2) * TEXT_COLS + TEXT_COLS];
            ctx.print(&String::from_utf8_lossy(row));
        }
        ctx.record_frame(FramePhases {
            app_logic_cycles: logic,
            draw_cycles: 0,
            present_cycles: 0,
        });
        if self.max_frames > 0 && self.frames >= self.max_frames {
            return StepResult::Exited(0);
        }
        // Timed animation: sleep until the next frame (about 30 FPS).
        let _ = ctx.sleep_ms(33);
        let _ = t0;
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "donut-text"
    }
}

/// The pixel donut: renders the torus into the framebuffer. Its `speed`
/// (radians per frame) is what tells Prototype 2's donuts apart on screen.
#[derive(Debug)]
pub struct PixelDonut {
    a: f64,
    b: f64,
    frames: u64,
    mapped: bool,
    /// Spin rate in radians per frame.
    pub speed: f64,
    /// Screen-region column (donuts tile the screen when several run).
    pub slot: u32,
    /// Stop after this many frames (0 = run forever).
    pub max_frames: u64,
}

impl PixelDonut {
    /// Creates a pixel donut in slot 0 at the default speed.
    pub fn new() -> Self {
        PixelDonut {
            a: 0.0,
            b: 0.0,
            frames: 0,
            mapped: false,
            speed: 0.08,
            slot: 0,
            max_frames: 0,
        }
    }

    /// Creates a donut from exec-style arguments: `[slot] [speed] [frames]`.
    pub fn from_args(args: &[String]) -> Self {
        let mut d = Self::new();
        if let Some(slot) = args.first().and_then(|a| a.parse().ok()) {
            d.slot = slot;
        }
        if let Some(speed) = args.get(1).and_then(|a| a.parse().ok()) {
            d.speed = speed;
        }
        if let Some(frames) = args.get(2).and_then(|a| a.parse().ok()) {
            d.max_frames = frames;
        }
        d
    }

    /// Frames rendered so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

impl Default for PixelDonut {
    fn default() -> Self {
        Self::new()
    }
}

impl UserProgram for PixelDonut {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let cost = ctx.cost();
        if !self.mapped {
            if ctx.fb_map().is_err() {
                return StepResult::Exited(1);
            }
            self.mapped = true;
        }
        let cols = 96usize;
        let rows = 72usize;
        let grid = render_torus(self.a, self.b, cols, rows);
        self.a += self.speed;
        self.b += self.speed * 0.45;
        self.frames += 1;
        let logic = cost.per_byte(cost.memset_per_byte_milli, (cols * rows * 40) as u64);
        ctx.charge_user(logic);

        // Map luminance characters to pixels, 2x2 per cell, in this donut's
        // screen slot (donuts tile across the display).
        let (fb_w, fb_h) = match ctx.fb_info() {
            Ok(geom) => geom,
            Err(_) => return StepResult::Exited(1),
        };
        let cell = 2u32;
        let tile_w = cols as u32 * cell;
        let tiles_per_row = (fb_w / tile_w).max(1);
        let origin_x = (self.slot % tiles_per_row) * tile_w;
        let origin_y = (self.slot / tiles_per_row) * (rows as u32 * cell);
        let mut pixels = vec![0xFF101020u32; (tile_w * cell) as usize];
        let draw_start = ctx.now_us();
        for row in 0..rows {
            for (i, px) in pixels.iter_mut().enumerate() {
                let col = (i as u32 % tile_w) / cell;
                let ch = grid[row * cols + col as usize];
                let lum = LUMA.iter().position(|l| *l == ch).unwrap_or(0) as u32;
                *px = 0xFF00_0000 | (lum * 20) << 16 | (lum * 18) << 8 | 0x30;
            }
            let y = origin_y + row as u32 * cell;
            if y + cell > fb_h {
                break;
            }
            for dy in 0..cell {
                let offset = ((y + dy) * fb_w + origin_x) as usize;
                if ctx.fb_write(offset, &pixels).is_err() {
                    return StepResult::Exited(1);
                }
            }
        }
        let _ = ctx.fb_flush();
        let present = (ctx.now_us() - draw_start) * 1_000;
        ctx.record_frame(FramePhases {
            app_logic_cycles: logic,
            draw_cycles: present / 2,
            present_cycles: present / 2,
        });
        if self.max_frames > 0 && self.frames >= self.max_frames {
            return StepResult::Exited(0);
        }
        // Donuts are timed animations: they sleep between frames, which is
        // what lets the Prototype 2 kernel demonstrate WFI idling.
        let _ = ctx.sleep_ms((16.0 / self.speed.max(0.01) * 0.08) as u64);
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "donut"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_renders_something_nonempty_and_rotates() {
        let f1 = render_torus(0.0, 0.0, 64, 24);
        let f2 = render_torus(1.0, 0.5, 64, 24);
        assert!(f1.iter().any(|c| *c != b' '));
        assert!(f2.iter().any(|c| *c != b' '));
        assert_ne!(f1, f2, "rotation changes the frame");
    }

    #[test]
    fn donut_args_parse() {
        let d = PixelDonut::from_args(&["3".into(), "0.2".into(), "10".into()]);
        assert_eq!(d.slot, 3);
        assert!((d.speed - 0.2).abs() < 1e-9);
        assert_eq!(d.max_frames, 10);
        let default = PixelDonut::from_args(&[]);
        assert_eq!(default.slot, 0);
    }
}
