//! DOOM — the software raycaster.
//!
//! The paper ports doomgeneric, "a famous 3D game ported to virtually
//! anything with a screen", and reports ~60 FPS on the Pi 3 with direct
//! rendering and non-blocking key polling (§4.5, §7.3). Shipping id's engine
//! and WAD assets is not possible here, so the substitute is a classic
//! grid-map raycaster with the same interaction profile: load multi-megabyte
//! assets from the FAT volume at startup (the large-file path that motivated
//! FAT32), render a full 640x480 frame per iteration of a busy main loop,
//! and poll `/dev/events` with the non-blocking flag each frame. Sound is
//! deliberately absent, as in the paper ("we chose not to implement sound
//! mixing due to its complexity").
//!
//! A frame is defined by a ray march: each column's ray advances in samples
//! 0.02 map units apart and stops at the first sample on a wall cell, and
//! the column is ceiling, then a wall span sized by that distance, then
//! floor. The host work is two exact shortcuts of that definition.
//! [`cast_ray`] evaluates only the first sample in each grid cell the ray
//! enters, and the draw builds each row from the one above it, changing only
//! the columns whose wall span starts or ends on that row. The tests check
//! both, bit for bit, against the march and the column-by-column renderer
//! they replace. The simulated cost of a frame is a fixed per-column charge
//! and never depended on this host work.

use std::task::Poll;

use kernel::usercall::{FramePhases, StepResult, UserCtx, UserProgram};
use kernel::vfs::OpenFlags;
use protousb::KeyCode;

use crate::WholeFile;

/// Map edge length (cells).
pub const MAP_SIZE: usize = 24;

/// A simple grid map: 0 = empty, >0 = wall texture id.
#[derive(Debug, Clone)]
pub struct WorldMap {
    cells: Vec<u8>,
}

impl WorldMap {
    /// Builds the map from asset bytes (the "WAD"): walls are derived from
    /// the asset contents so a different file is a different level.
    pub fn from_assets(assets: &[u8]) -> Self {
        let mut cells = vec![0u8; MAP_SIZE * MAP_SIZE];
        for y in 0..MAP_SIZE {
            for x in 0..MAP_SIZE {
                let border = x == 0 || y == 0 || x == MAP_SIZE - 1 || y == MAP_SIZE - 1;
                let seed = assets
                    .get((y * MAP_SIZE + x) % assets.len().max(1))
                    .copied()
                    .unwrap_or(0);
                cells[y * MAP_SIZE + x] = if border {
                    1
                } else if seed != 0 && seed % 11 == 0 && (x > 4 || y > 4) {
                    1 + seed % 4
                } else {
                    0
                };
            }
        }
        WorldMap { cells }
    }

    /// Returns the wall id at a cell (out of range counts as wall).
    pub fn at(&self, x: i64, y: i64) -> u8 {
        if x < 0 || y < 0 || x >= MAP_SIZE as i64 || y >= MAP_SIZE as i64 {
            return 1;
        }
        self.cells[y as usize * MAP_SIZE + x as usize]
    }
}

/// Player state.
#[derive(Debug, Clone, Copy)]
pub struct Player {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// View direction in radians.
    pub angle: f64,
}

/// The march's spacing between samples.
const STEP: f64 = 0.02;
/// The march takes no sample after the first one at or past this distance.
const MAX_DIST: f64 = 30.0;

/// The number of samples a ray that meets no wall takes.
const SAMPLES: usize = {
    let mut dist = 0.0;
    let mut n = 0;
    while dist < MAX_DIST {
        dist += STEP;
        n += 1;
    }
    n
};

/// The distance of each sample: the march's running sum of `STEP`, added
/// exactly as the march adds it (the k-th distance is not `k * STEP`).
static MARCH: [f64; SAMPLES] = {
    let mut dists = [0.0; SAMPLES];
    let mut dist = 0.0;
    let mut k = 0;
    while k < SAMPLES {
        dist += STEP;
        dists[k] = dist;
        k += 1;
    }
    dists
};

/// One coordinate of a ray, `origin + dir * dist`, and its cell index.
struct Axis {
    origin: f64,
    dir: f64,
    /// Samples per unit moved along this axis: `1 / (dir * STEP)`.
    samples_per_unit: f64,
}

impl Axis {
    fn new(origin: f64, dir: f64) -> Self {
        Axis {
            origin,
            dir,
            samples_per_unit: 1.0 / (dir * STEP),
        }
    }

    /// The cell index at `dist`, computed exactly as the march computes it.
    fn cell(&self, dist: f64) -> i64 {
        (self.origin + self.dir * dist) as i64
    }

    /// The first sample after `from` whose cell is not `cell`, the cell of
    /// sample `from`, or `SAMPLES` when no sample leaves it.
    ///
    /// The cell index never moves backwards along the ray, so the samples
    /// that left `cell` are a suffix. The guess is the sample at the cell's
    /// edge; rounding, and an edge that falls exactly on a sample, can put
    /// it a sample off, so it is moved down while the sample before it has
    /// left and up while it has not. Callers ask only from an empty cell,
    /// index 1 to 22, where truncation is the floor and the edge is `cell`
    /// or `cell + 1`.
    fn leaves(&self, from: usize, cell: i64) -> usize {
        if self.dir == 0.0 {
            return SAMPLES;
        }
        let edge = if self.dir > 0.0 { cell + 1 } else { cell };
        // Sample `k` lies about (k + 1) * STEP along the ray.
        let guess = ((edge as f64 - self.origin) * self.samples_per_unit) as usize;
        let mut k = guess.clamp(from + 1, SAMPLES);
        while k > from + 1 && self.cell(MARCH[k - 1]) != cell {
            k -= 1;
        }
        while k < SAMPLES && self.cell(MARCH[k]) == cell {
            k += 1;
        }
        k
    }
}

/// Casts one ray and returns (distance, wall id): the first sample of the
/// 0.02-unit march that lands on a wall cell, or `(30.0, 1)` if none does.
///
/// Each axis's cell index never moves backwards along a ray, because the
/// products, sums and truncation in `player + dir * dist` are monotone in
/// `dist`. So every sample between two samples on one cell is on that cell
/// too, and the cast evaluates only the first sample of each cell the ray
/// enters (Amanatides and Woo's grid traversal, over the march's own
/// samples).
pub fn cast_ray(map: &WorldMap, player: &Player, angle: f64) -> (f64, u8) {
    let (sin, cos) = angle.sin_cos();
    let (x, y) = (Axis::new(player.x, cos), Axis::new(player.y, sin));
    // The sample each axis next changes cell at; each is found only once
    // the cell it leaves is known to be empty.
    let (mut next_x, mut next_y) = (0, 0);
    let mut k = 0;
    loop {
        let dist = MARCH[k];
        let (cx, cy) = (x.cell(dist), y.cell(dist));
        let wall = map.at(cx, cy);
        if wall != 0 {
            return (dist, wall);
        }
        if next_x == k {
            next_x = x.leaves(k, cx);
        }
        if next_y == k {
            next_y = y.leaves(k, cy);
        }
        k = next_x.min(next_y);
        if k == SAMPLES {
            return (MAX_DIST, 1);
        }
    }
}

const CEILING: u32 = 0xFF30_3038;
const FLOOR: u32 = 0xFF50_483C;

/// One column of a frame: its wall span's height and colour.
#[derive(Debug, Clone, Copy)]
struct Column {
    wall_h: usize,
    colour: u32,
}

impl Column {
    /// The span's first row, at most `h / 2`.
    fn top(&self, h: usize) -> usize {
        (h - self.wall_h) / 2
    }

    /// The row past the span, at least `h / 2`.
    fn bottom(&self, h: usize) -> usize {
        self.top(h) + self.wall_h
    }
}

/// A frame in the making, kept from frame to frame so drawing one
/// allocates nothing.
#[derive(Debug, Default)]
struct Canvas {
    height: usize,
    columns: Vec<Column>,
    /// Column indices by descending wall height: ascending tops, and read
    /// backwards, ascending bottoms.
    order: Vec<usize>,
    /// The counting sort's buckets, one per wall height.
    buckets: Vec<usize>,
    /// The row being drawn.
    row: Vec<u32>,
}

impl Canvas {
    /// Casts one ray per column of a `w` x `h` frame.
    fn cast(&mut self, map: &WorldMap, player: &Player, w: usize, h: usize) {
        let fov = 1.05f64;
        self.height = h;
        self.columns.clear();
        self.columns.extend((0..w).map(|col| {
            let ray_angle = player.angle + fov * (col as f64 / w as f64 - 0.5);
            let (dist, wall) = cast_ray(map, player, ray_angle);
            let corrected = dist * (ray_angle - player.angle).cos();
            let wall_h = ((h as f64 / corrected.max(0.05)) as usize).min(h);
            let shade = (255.0 / (1.0 + corrected * corrected * 0.08)) as u32;
            let base = match wall {
                1 => (shade, shade / 2, shade / 3),
                2 => (shade / 3, shade, shade / 2),
                3 => (shade / 2, shade / 3, shade),
                _ => (shade, shade, shade / 4),
            };
            let colour = 0xFF00_0000 | (base.0 << 16) | (base.1 << 8) | base.2;
            Column { wall_h, colour }
        }));
        self.order_by_height();
    }

    /// Fills `order` with a counting sort over the heights `0..=h`.
    fn order_by_height(&mut self) {
        let h = self.height;
        let Canvas {
            columns,
            order,
            buckets,
            ..
        } = self;
        buckets.clear();
        buckets.resize(h + 1, 0);
        for col in columns.iter() {
            buckets[h - col.wall_h] += 1;
        }
        let mut start = 0;
        for bucket in buckets.iter_mut() {
            (*bucket, start) = (start, start + *bucket);
        }
        order.resize(columns.len(), 0);
        for (c, col) in columns.iter().enumerate() {
            let next = &mut buckets[h - col.wall_h];
            order[*next] = c;
            *next += 1;
        }
    }

    /// Draws the cast frame, handing each row to `put` in order.
    ///
    /// A pixel is its column's wall colour from the span's top to its
    /// bottom, ceiling above and floor below. Because a top is at most the
    /// horizon `h / 2` and a bottom at least it, above the horizon a column
    /// turns to wall at its top and stays wall, and from the horizon down it
    /// starts as wall and turns to floor at its bottom. So each row is the
    /// one above it with only the columns whose span starts or ends there
    /// changed, and the horizon row starts again from all wall.
    fn draw<E>(&mut self, mut put: impl FnMut(usize, &[u32]) -> Result<(), E>) -> Result<(), E> {
        let (h, horizon) = (self.height, self.height / 2);
        let Canvas {
            columns,
            order,
            row,
            ..
        } = self;
        row.clear();
        row.resize(columns.len(), CEILING);
        let mut tops = order.iter().peekable();
        for y in 0..horizon {
            while let Some(&c) = tops.next_if(|&&c| columns[c].top(h) <= y) {
                row[c] = columns[c].colour;
            }
            put(y, row)?;
        }
        for (px, col) in row.iter_mut().zip(columns.iter()) {
            *px = col.colour;
        }
        let mut bottoms = order.iter().rev().peekable();
        for y in horizon..h {
            while let Some(&c) = bottoms.next_if(|&&c| columns[c].bottom(h) <= y) {
                row[c] = FLOOR;
            }
            put(y, row)?;
        }
        Ok(())
    }
}

/// The level played when no WAD can be read.
fn builtin_level() -> Vec<u8> {
    (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) % 251) as u8)
        .collect()
}

/// The DOOM-like game.
#[derive(Debug)]
pub struct Doom {
    map: Option<WorldMap>,
    wad: WholeFile,
    player: Player,
    asset_path: String,
    asset_bytes: usize,
    event_fd: Option<i32>,
    mapped: bool,
    frames: u64,
    turning: f64,
    moving: f64,
    /// Stop after this many frames (0 = run forever).
    pub max_frames: u64,
    /// Render width (defaults to the framebuffer width).
    width: usize,
    /// Render height.
    height: usize,
    canvas: Canvas,
}

impl Doom {
    /// Creates the game from exec arguments: `[wad-path] [frames]`.
    pub fn from_args(args: &[String]) -> Self {
        Doom {
            map: None,
            wad: WholeFile::default(),
            player: Player {
                x: 3.5,
                y: 3.5,
                angle: 0.3,
            },
            asset_path: args
                .first()
                .cloned()
                .unwrap_or_else(|| "/d/doom.wad".into()),
            asset_bytes: 0,
            event_fd: None,
            mapped: false,
            frames: 0,
            turning: 0.02,
            moving: 0.0,
            max_frames: args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0),
            width: 640,
            height: 480,
            canvas: Canvas::default(),
        }
    }

    /// Bytes of game assets loaded at startup.
    pub fn asset_bytes(&self) -> usize {
        self.asset_bytes
    }

    fn load_assets(&mut self, mut assets: Vec<u8>) {
        if assets.is_empty() {
            // No WAD on the card: fall back to a built-in level (shareware!).
            assets = builtin_level();
        }
        self.asset_bytes = assets.len();
        self.map = Some(WorldMap::from_assets(&assets));
    }

    fn poll_input(&mut self, ctx: &mut UserCtx<'_>) {
        if self.event_fd.is_none() {
            self.event_fd = ctx.open("/dev/events", OpenFlags::rdonly_nonblock()).ok();
        }
        let Some(fd) = self.event_fd else { return };
        // Non-blocking poll: DOOM's main loop peeks for keys every frame.
        while let Ok(Some(ev)) = ctx.read_key_event(fd) {
            match (ev.code, ev.pressed) {
                (KeyCode::Left, p) | (KeyCode::Char('A'), p) => {
                    self.turning = if p { -0.05 } else { 0.02 }
                }
                (KeyCode::Right, p) | (KeyCode::Char('D'), p) => {
                    self.turning = if p { 0.05 } else { 0.02 }
                }
                (KeyCode::Up, p) | (KeyCode::Char('W'), p) => {
                    self.moving = if p { 0.08 } else { 0.0 }
                }
                (KeyCode::Down, p) | (KeyCode::Char('S'), p) => {
                    self.moving = if p { -0.08 } else { 0.0 }
                }
                _ => {}
            }
        }
    }

    /// Moves the player one frame's worth, colliding against the map.
    fn advance(&mut self) {
        let map = self.map.as_ref().expect("assets loaded");
        self.player.angle += self.turning;
        let (sin, cos) = self.player.angle.sin_cos();
        let nx = self.player.x + cos * self.moving;
        let ny = self.player.y + sin * self.moving;
        if map.at(nx as i64, ny as i64) == 0 {
            self.player.x = nx;
            self.player.y = ny;
        }
        self.canvas.cast(map, &self.player, self.width, self.height);
    }
}

impl UserProgram for Doom {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let cost = ctx.cost();
        if !self.mapped {
            if ctx.fb_map().is_err() {
                return StepResult::Exited(1);
            }
            if let Ok((w, h)) = ctx.fb_info() {
                self.width = w as usize;
                self.height = h as usize;
            }
            self.mapped = true;
        }
        if self.map.is_none() {
            // A parked read resumes on the next step, once the task wakes.
            let Poll::Ready(assets) = self.wad.poll(ctx, &self.asset_path) else {
                return StepResult::Continue;
            };
            self.load_assets(assets.unwrap_or_default());
            return StepResult::Continue;
        }
        let logic_start = ctx.now_us();
        self.poll_input(ctx);
        // Game logic (movement, collision against the map) and the raycast.
        self.advance();
        let logic = cost.per_byte(cost.doom_logic_per_unit_milli, 400)
            + cost.per_byte(cost.doom_ray_per_column_milli, self.width as u64);
        ctx.charge_user(logic);
        let logic_elapsed = (ctx.now_us() - logic_start) * 1_000;
        let draw_start = ctx.now_us();
        let w = self.width;
        let drawn = self.canvas.draw(|y, row| ctx.fb_write(y * w, row));
        if drawn.is_err() {
            return StepResult::Exited(1);
        }
        let _ = ctx.fb_flush();
        let present = (ctx.now_us() - draw_start) * 1_000;
        self.frames += 1;
        ctx.record_frame(FramePhases {
            app_logic_cycles: logic_elapsed.max(logic),
            draw_cycles: present / 3,
            present_cycles: present - present / 3,
        });
        if self.max_frames > 0 && self.frames >= self.max_frames {
            return StepResult::Exited(0);
        }
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "doom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The march `cast_ray` shortcuts: every 0.02-unit sample up to 30.
    fn march(map: &WorldMap, player: &Player, angle: f64) -> (f64, u8) {
        let (sin, cos) = angle.sin_cos();
        let step = 0.02f64;
        let mut dist = 0.0;
        while dist < 30.0 {
            dist += step;
            let x = player.x + cos * dist;
            let y = player.y + sin * dist;
            let wall = map.at(x as i64, y as i64);
            if wall != 0 {
                return (dist, wall);
            }
        }
        (30.0, 1)
    }

    /// The column-by-column renderer the row draw shortcuts, over the
    /// march.
    fn reference_frame(map: &WorldMap, player: &Player, w: usize, h: usize) -> Vec<u32> {
        let mut fb = vec![0u32; w * h];
        for y in 0..h / 2 {
            fb[y * w..(y + 1) * w].fill(0xFF303038);
        }
        for y in h / 2..h {
            fb[y * w..(y + 1) * w].fill(0xFF50483C);
        }
        let fov = 1.05f64;
        for col in 0..w {
            let ray_angle = player.angle + fov * (col as f64 / w as f64 - 0.5);
            let (dist, wall) = march(map, player, ray_angle);
            let corrected = dist * (ray_angle - player.angle).cos();
            let wall_h = ((h as f64 / corrected.max(0.05)) as usize).min(h);
            let top = (h - wall_h) / 2;
            let shade = (255.0 / (1.0 + corrected * corrected * 0.08)) as u32;
            let base = match wall {
                1 => (shade, shade / 2, shade / 3),
                2 => (shade / 3, shade, shade / 2),
                3 => (shade / 2, shade / 3, shade),
                _ => (shade, shade, shade / 4),
            };
            let colour = 0xFF00_0000 | (base.0 << 16) | (base.1 << 8) | base.2;
            for y in top..top + wall_h {
                fb[y * w + col] = colour;
            }
        }
        fb
    }

    /// splitmix64: a seeded stream for the sweeps.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Seeded maps: the border-only map, the built-in level and asset
    /// bytes dense with walls.
    fn maps(rng: &mut Rng) -> Vec<WorldMap> {
        let mut maps = vec![
            WorldMap::from_assets(&[0u8; 64]),
            WorldMap::from_assets(&builtin_level()),
        ];
        for density in [4u64, 8, 16] {
            let bytes: Vec<u8> = (0..MAP_SIZE * MAP_SIZE)
                .map(|_| {
                    if rng.below(density) == 0 {
                        11 * (1 + rng.below(20) as u8)
                    } else {
                        rng.below(256) as u8
                    }
                })
                .collect();
            maps.push(WorldMap::from_assets(&bytes));
        }
        maps
    }

    /// Seeded player positions: cell corners and edges, cell interiors,
    /// points inside border and inner walls, and points off the map.
    fn position(rng: &mut Rng) -> f64 {
        let cell = rng.below(MAP_SIZE as u64) as f64;
        match rng.below(6) {
            0 => cell,
            1 => cell + 0.5,
            2 => cell + 1.0 - f64::EPSILON * 16.0,
            3 => -1.0 + 2.0 * rng.unit(),
            _ => 1.0 + (MAP_SIZE as f64 - 2.0) * rng.unit(),
        }
    }

    /// Seeded ray angles: exact axis angles (including -0.0, whose sine is
    /// -0.0), angles a few ulps or a hair off an axis, and uniform ones.
    fn angle(rng: &mut Rng) -> f64 {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        let axis = [0.0, -0.0, FRAC_PI_2, PI, -FRAC_PI_2, FRAC_PI_4][rng.below(6) as usize];
        match rng.below(4) {
            0 => axis,
            1 => axis + (rng.unit() - 0.5) * 1e-12,
            2 => axis + (rng.unit() - 0.5) * 1e-3,
            _ => (rng.unit() - 0.5) * 4.0 * PI,
        }
    }

    #[test]
    fn the_cast_returns_the_marchs_first_wall_sample_bit_for_bit() {
        let mut rng = Rng(0x5EED_D00D);
        let mut cases = 0usize;
        let mut open = 0usize;
        for map in maps(&mut rng) {
            for _ in 0..2_000 {
                let player = Player {
                    x: position(&mut rng),
                    y: position(&mut rng),
                    angle: 0.0,
                };
                let a = angle(&mut rng);
                let (want_d, want_wall) = march(&map, &player, a);
                let (got_d, got_wall) = cast_ray(&map, &player, a);
                assert_eq!(
                    (got_d.to_bits(), got_wall),
                    (want_d.to_bits(), want_wall),
                    "player ({}, {}) angle {a}: cast {got_d} vs march {want_d}",
                    player.x,
                    player.y
                );
                cases += 1;
                open += usize::from(want_d == 30.0);
            }
        }
        // Rays that meet no wall within 30: the diagonal of the border-only
        // map from near (1, 1) runs about 31 units.
        let map = WorldMap::from_assets(&[0u8; 64]);
        for k in 0..200 {
            let player = Player {
                x: 1.0 + k as f64 * 1e-4,
                y: 1.0 + k as f64 * 7e-5,
                angle: 0.0,
            };
            let a = std::f64::consts::FRAC_PI_4 + (k as f64 - 100.0) * 1e-4;
            let want = march(&map, &player, a);
            let got = cast_ray(&map, &player, a);
            assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
            open += usize::from(want.0 == 30.0);
        }
        assert!(
            cases >= 10_000 && open >= 50,
            "{cases} cases, {open} open rays"
        );
    }

    #[test]
    fn row_drawn_frames_match_the_column_renderer_pixel_for_pixel() {
        let mut rng = Rng(29);
        let maps = maps(&mut rng);
        for (w, h) in [(640, 480), (33, 17), (5, 2), (1, 1), (7, 0), (0, 3)] {
            let mut doom = Doom::from_args(&[]);
            doom.width = w;
            doom.height = h;
            for (i, map) in maps.iter().enumerate() {
                doom.map = Some(map.clone());
                doom.player = Player {
                    x: 1.5 + rng.unit() * 20.0,
                    y: 1.5 + rng.unit() * 20.0,
                    angle: angle(&mut rng),
                };
                // Consecutive frames reuse the canvas; the player turns and
                // walks, bumping into walls.
                for frame in 0..12 {
                    doom.turning = [0.02, -0.05, 0.05][(frame + i) % 3];
                    doom.moving = [0.08, -0.08, 0.0, 0.8][frame % 4];
                    doom.advance();
                    let want = reference_frame(map, &doom.player, w, h);
                    let mut got = Vec::with_capacity(w * h);
                    let mut rows = 0;
                    doom.canvas
                        .draw(|y, row| {
                            assert_eq!((y, row.len()), (rows, w));
                            rows += 1;
                            got.extend_from_slice(row);
                            Ok::<(), ()>(())
                        })
                        .unwrap();
                    assert_eq!(rows, h);
                    assert!(
                        got == want,
                        "{w}x{h}, map {i}, frame {frame}: pixels differ"
                    );
                }
            }
        }
    }

    #[test]
    fn rays_hit_the_border_walls() {
        let map = WorldMap::from_assets(&[0u8; 64]);
        let player = Player {
            x: 12.0,
            y: 12.0,
            angle: 0.0,
        };
        let (dist, wall) = cast_ray(&map, &player, 0.0);
        assert!(dist > 1.0 && dist < 13.0, "hit the east border at {dist}");
        assert_eq!(wall, 1);
    }

    #[test]
    fn different_assets_give_different_maps() {
        let a = WorldMap::from_assets(&(0..255u8).collect::<Vec<_>>());
        let b = WorldMap::from_assets(&[7u8; 255]);
        assert_ne!(a.cells, b.cells);
        // The border is always solid in both.
        for i in 0..MAP_SIZE as i64 {
            assert_ne!(a.at(i, 0), 0);
            assert_ne!(b.at(0, i), 0);
        }
    }

    #[test]
    fn out_of_range_cells_are_solid() {
        let map = WorldMap::from_assets(&[0u8; 16]);
        assert_eq!(map.at(-1, 5), 1);
        assert_eq!(map.at(5, MAP_SIZE as i64), 1);
    }
}
