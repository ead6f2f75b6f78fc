//! A corrupt image must end in an error, never a panic.
//!
//! The sweep builds a populated image with each filesystem's own `mkfs` and
//! calls, then damages one region per case: it sets one on-disk field to an
//! edge value (0, 1, the field's maximum, one past the volume's end, and a
//! few values that make a cycle or a cross-link), writes a transaction
//! record whose checksum holds, or flips seeded random bytes. It mounts the
//! damaged image under a fresh cache and walks the tree: it lists every
//! directory to a bounded depth, stats and reads every file, writes a new
//! file, overwrites one at an offset and removes one. Every call must
//! return `Ok` or an `Err`, and the walk stops at a fixed step budget. On
//! damaged xv6fs inodes, the walk's writes must also keep every other
//! entry of the root directory.
//!
//! A few cases per FAT32 region also boot a kernel on the damaged card and
//! drive `/d` through the `UserCtx` stubs. The kernel formats its ramdisk at
//! every boot, so a damaged root image reaches only the filesystem API.

pub mod harness;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hal::sdhost::SdHost;
use harness::Rng;
use kernel::kernel::{Kernel, FAT_PARTITION_START};
use kernel::{KernelError, OpenFlags};
use protofs::block::SdBlockDevice;
use protofs::bufcache::BufCache;
use protofs::fat32::{Fat32, FIRST_CLUSTER, INTENT_LOG_SECTORS, INTENT_LOG_START};
use protofs::fat32::{DIRENT_SIZE as FAT_DIRENT, SECTORS_PER_CLUSTER};
use protofs::txn::TxnLog;
use protofs::xv6fs::{InodeType, Xv6Fs, BSIZE, INODE_SIZE, IPB, MAXFILE_BYTES, NDIRECT};
use protofs::{BlockDevice, MemDisk, BLOCK_SIZE};

/// Directory levels a walk descends.
const MAX_DEPTH: usize = 4;
/// Filesystem calls one walk may make before it stops.
const STEP_BUDGET: usize = 200;
/// Random-flip cases per region.
const FLIP_SEEDS: u64 = 12;
/// Device sectors of each image (4 MB).
const IMAGE_SECTORS: u64 = 8192;

/// One field of an on-disk structure: where it sits and how wide it is.
#[derive(Clone, Copy)]
struct Field {
    name: &'static str,
    sector: u64,
    offset: usize,
    width: usize,
}

/// What one case does to the image.
#[derive(Clone)]
enum Damage {
    /// Sets a field to a value, truncated to its width.
    Set(Field, u64),
    /// XORs `count` seeded random bytes of sectors `[first, first + n)`
    /// with random nonzero masks.
    Flips {
        first: u64,
        n: u64,
        count: u64,
        seed: u64,
    },
    /// Writes whole sectors from `first` on: a transaction record.
    Write(u64, Vec<u8>),
}

/// A field, the value one past the volume's end in the field's unit, and
/// further values worth a case.
type Edges = (Field, u64, Vec<u64>);

/// A region of one filesystem's image and the cases that damage it; a
/// case applies its damages in order.
struct Region {
    name: &'static str,
    cases: Vec<Vec<Damage>>,
    /// Whether a case fails when the walk's writes lose a root entry
    /// ([`Walked::lost`]).
    keeps_root: bool,
}

impl Region {
    /// A region whose `fields` each take 0, 1, their maximum, the value
    /// one past the volume's end and their further values, and whose
    /// sectors `[first, first + n)` take [`FLIP_SEEDS`] rounds of random
    /// flips.
    fn new(name: &'static str, fields: Vec<Edges>, first: u64, n: u64) -> Region {
        let mut cases = Vec::new();
        for (field, past_end, extra) in fields {
            let max = u64::MAX >> (64 - 8 * field.width);
            for value in [0, 1, max, past_end].into_iter().chain(extra) {
                cases.push(vec![Damage::Set(field, value)]);
            }
        }
        for seed in 0..FLIP_SEEDS {
            let count = 1 + seed % 8;
            cases.push(vec![Damage::Flips {
                first,
                n,
                count,
                seed,
            }]);
        }
        Region {
            name,
            cases,
            keeps_root: false,
        }
    }
}

impl std::fmt::Display for Damage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Damage::Set(field, value) => write!(
                f,
                "{} = {value:#x} (sector {}, byte {})",
                field.name, field.sector, field.offset
            ),
            Damage::Flips {
                first,
                n,
                count,
                seed,
            } => write!(
                f,
                "{count} flips in sectors {first}..{} (seed {seed})",
                first + n
            ),
            Damage::Write(first, sectors) => write!(
                f,
                "a record of {} sectors at {first}",
                sectors.len() / BLOCK_SIZE
            ),
        }
    }
}

/// A case's damages, for a failure line.
fn describe(case: &[Damage]) -> String {
    case.iter()
        .map(Damage::to_string)
        .collect::<Vec<_>>()
        .join(", then ")
}

/// What a walk got done: whether the image mounted, the files it read
/// back, and the root entries listed before its writes that are gone after
/// them, other than a file it removed (an unlink that fails must leave its
/// file listed).
#[derive(Default)]
struct Walked {
    mounted: bool,
    files_read: usize,
    lost: Vec<String>,
}

fn read_sector(dev: &mut dyn BlockDevice, lba: u64) -> Vec<u8> {
    let mut s = vec![0u8; BLOCK_SIZE];
    dev.read_block(lba, &mut s).unwrap();
    s
}

fn apply(dev: &mut dyn BlockDevice, damage: &Damage) {
    match damage {
        Damage::Set(f, value) => {
            let mut s = read_sector(dev, f.sector);
            s[f.offset..f.offset + f.width].copy_from_slice(&value.to_le_bytes()[..f.width]);
            dev.write_block(f.sector, &s).unwrap();
        }
        Damage::Flips {
            first,
            n,
            count,
            seed,
        } => {
            let mut rng = Rng::new(*seed);
            for _ in 0..*count {
                let lba = first + rng.below(*n);
                let mut s = read_sector(dev, lba);
                s[rng.below(BLOCK_SIZE as u64) as usize] ^= 1 + rng.below(255) as u8;
                dev.write_block(lba, &s).unwrap();
            }
        }
        Damage::Write(first, sectors) => {
            for (lba, s) in (*first..).zip(sectors.chunks_exact(BLOCK_SIZE)) {
                dev.write_block(lba, s).unwrap();
            }
        }
    }
}

/// A transaction record whose checksum holds: the header naming `targets`,
/// then one seeded random payload per target.
fn record(targets: &[u64], seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let payloads: Vec<u8> = (0..targets.len() * BLOCK_SIZE)
        .map(|_| rng.below(256) as u8)
        .collect();
    let mut out = TxnLog::header(targets, &payloads);
    out.extend_from_slice(&payloads);
    out
}

/// Cases for a transaction log at `[log_start, log_start + log_sectors)`
/// on a volume of `total` sectors: header fields, records whose checksum
/// holds and that name edge targets or the volume's own metadata sectors,
/// and flips over the header and over the payloads.
fn log_regions(log_start: u64, log_sectors: u64, total: u64, metadata: &[u64]) -> [Region; 2] {
    let field = |name, offset, width| Field {
        name,
        sector: log_start,
        offset,
        width,
    };
    let capacity = log_sectors - 1;
    let mut header = Region::new(
        "transaction log header",
        vec![
            (field("record count", 8, 4), capacity + 1, vec![capacity]),
            (
                field("first target", 16, 8),
                total,
                vec![log_start + log_sectors],
            ),
        ],
        log_start,
        1,
    );
    // Every header case starts from a committed record.
    let valid = Damage::Write(log_start, record(&[total - 1], 7));
    for case in &mut header.cases {
        case.insert(0, valid.clone());
    }
    for target in [0, 1, log_start + log_sectors, total - 1, total, u64::MAX] {
        let forged = record(&[target], target);
        header.cases.push(vec![Damage::Write(log_start, forged)]);
    }
    // Records whose checksum holds carry random payloads home to the
    // volume's metadata sectors, one at a time and all at once.
    let mut payloads = Region::new("transaction log payloads", vec![], log_start + 1, 8);
    for (seed, &target) in (0u64..).zip(metadata) {
        for targets in [&[target][..], metadata] {
            let forged = record(targets, seed);
            payloads.cases.push(vec![Damage::Write(log_start, forged)]);
        }
    }
    [header, payloads]
}

/// Joins a directory path and an entry name.
fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// Counts a walk's calls against [`STEP_BUDGET`].
struct Budget(usize);

impl Budget {
    fn take(&mut self) -> bool {
        self.0 += 1;
        self.0 <= STEP_BUDGET
    }
}

/// Runs every case of `regions` on a copy of `image`, walking it with
/// `walk`. Returns a line for each case that panicked or, in a region that
/// keeps the root, lost a root entry, and per region the cases that
/// mounted and the files they read back.
fn sweep(
    image: &MemDisk,
    regions: &[Region],
    walk: fn(&mut MemDisk) -> Walked,
) -> (Vec<String>, Vec<(&'static str, usize, usize)>) {
    let mut failures = Vec::new();
    let mut tally = Vec::new();
    for region in regions {
        let (mut mounted, mut files_read) = (0, 0);
        for (i, case) in region.cases.iter().enumerate() {
            let mut disk = image.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for d in case {
                    apply(&mut disk, d);
                }
                walk(&mut disk)
            }));
            match outcome {
                Ok(walked) => {
                    mounted += usize::from(walked.mounted);
                    files_read += walked.files_read;
                    if region.keeps_root && !walked.lost.is_empty() {
                        let case = describe(case);
                        let lost = walked.lost.join(", ");
                        failures.push(format!("{} case {i} ({case}): lost {lost}", region.name));
                    }
                }
                Err(panic) => {
                    let why = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("?");
                    let case = describe(case);
                    failures.push(format!("{} case {i} ({case}): {why}", region.name));
                }
            }
        }
        tally.push((region.name, mounted, files_read));
    }
    (failures, tally)
}

/// Fails on any failed case, and on a region whose cases never mounted and
/// read a file: such a sweep would show nothing.
fn check(fs: &str, (failures, tally): (Vec<String>, Vec<(&'static str, usize, usize)>)) {
    assert!(
        failures.is_empty(),
        "{} {fs} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    for (region, mounted, files_read) in tally {
        assert!(
            mounted > 0 && files_read > 0,
            "{fs} {region}: {mounted} cases mounted, {files_read} files read"
        );
    }
}

// ---- FAT32 ------------------------------------------------------------------------------

/// Fills a fresh FAT32 volume: two directory levels, files of one and of
/// several clusters, and an overwrite that leaves a committed intent-log
/// record's payloads behind.
fn populate_fat(dev: &mut dyn BlockDevice) {
    let mut bc = BufCache::default();
    let fs = Fat32::mkfs(dev, &mut bc).unwrap();
    fs.create(dev, &mut bc, "/SUB", true).unwrap();
    fs.create(dev, &mut bc, "/SUB/DEEP", true).unwrap();
    let bytes = |n: usize, k: u8| {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(k))
            .collect::<Vec<_>>()
    };
    fs.write_file(dev, &mut bc, "/A.TXT", b"a small file")
        .unwrap();
    fs.write_file(dev, &mut bc, "/B.BIN", &bytes(9000, 3))
        .unwrap();
    fs.write_file(dev, &mut bc, "/SUB/C.BIN", &bytes(5000, 5))
        .unwrap();
    fs.write_file(dev, &mut bc, "/SUB/DEEP/D.TXT", b"deep")
        .unwrap();
    fs.write_file(dev, &mut bc, "/B.BIN", &bytes(13000, 7))
        .unwrap();
    bc.flush(dev).unwrap();
}

/// The sector holding the dirent slot of `name` in the directory whose
/// first cluster is `dir`, and the slot's byte offset.
fn fat_dirent(dev: &mut dyn BlockDevice, fs: &Fat32, dir: u32, name: &str) -> (u64, usize) {
    let first = fat_cluster_sector(fs, dir);
    let short = {
        let (base, ext) = name.split_once('.').unwrap_or((name, ""));
        format!("{base:<8}{ext:<3}")
    };
    for lba in first..first + u64::from(SECTORS_PER_CLUSTER) {
        let s = read_sector(dev, lba);
        for off in (0..BLOCK_SIZE).step_by(FAT_DIRENT) {
            if s[off..off + 11] == *short.as_bytes() {
                return (lba, off);
            }
        }
    }
    panic!("no dirent for {name}");
}

fn fat_cluster_sector(fs: &Fat32, cluster: u32) -> u64 {
    let bpb = fs.bpb();
    u64::from(bpb.data_start) + u64::from(cluster - FIRST_CLUSTER) * u64::from(SECTORS_PER_CLUSTER)
}

/// The dirent fields of `names` in the directory whose first cluster is
/// `dir`: a zero, deleted or renamed name, a directory or long-name
/// attribute, an edge first cluster (the low half also the root's) and an
/// edge size.
fn fat_dirent_fields(
    dev: &mut dyn BlockDevice,
    fs: &Fat32,
    dir: u32,
    names: &[&str],
) -> Vec<Edges> {
    let bpb = fs.bpb();
    let past_cluster = u64::from(bpb.cluster_count + FIRST_CLUSTER);
    let volume_bytes = u64::from(bpb.total_sectors) * BLOCK_SIZE as u64;
    let mut fields = Vec::new();
    for name in names {
        let (sector, slot) = fat_dirent(dev, fs, dir, name);
        let field = |name, offset, width| Field {
            name,
            sector,
            offset: slot + offset,
            width,
        };
        fields.push((field("name", 0, 1), 0xE5, vec![u64::from(b'A')]));
        fields.push((field("attributes", 11, 1), 0x10, vec![0x0F]));
        fields.push((
            field("first cluster high", 20, 2),
            past_cluster >> 16,
            vec![],
        ));
        fields.push((
            field("first cluster low", 26, 2),
            past_cluster & 0xFFFF,
            vec![2],
        ));
        fields.push((field("size", 28, 4), volume_bytes + 1, vec![]));
    }
    fields
}

/// The FAT32 regions of the populated volume on `dev`.
fn fat_regions(dev: &mut dyn BlockDevice) -> Vec<Region> {
    let mut bc = BufCache::default();
    let fs = Fat32::mount(dev, &mut bc).unwrap();
    let bpb = fs.bpb();
    let total = u64::from(bpb.total_sectors);
    let past_cluster = u64::from(bpb.cluster_count + FIRST_CLUSTER);
    let sub = fs.lookup(dev, &mut bc, "/SUB").unwrap().first_cluster;
    let b_bin = fs.lookup(dev, &mut bc, "/B.BIN").unwrap().first_cluster;
    let root = bpb.root_cluster;

    let boot = |name, offset, width| Field {
        name,
        sector: 0,
        offset,
        width,
    };
    let mut regions = vec![Region::new(
        "boot sector and BPB",
        vec![
            (boot("bytes per sector", 11, 2), 0, vec![]),
            (boot("sectors per cluster", 13, 1), 0, vec![3]),
            (boot("reserved sectors", 14, 2), total, vec![]),
            (boot("FAT count", 16, 1), 0, vec![]),
            (boot("total sectors", 32, 4), dev.num_blocks() + 1, vec![]),
            (boot("sectors per FAT", 36, 4), total, vec![]),
            (boot("root cluster", 44, 4), past_cluster, vec![]),
            (boot("signature", 510, 2), 0, vec![]),
        ],
        0,
        1,
    )];

    // Each entry also points at itself (a cycle) and at the root's cluster
    // (a cross-link), and 0x0FFFFFF7 marks it bad.
    let fat_entries = [root, sub, b_bin, b_bin + 1]
        .into_iter()
        .map(|c| {
            let field = Field {
                name: "FAT entry",
                sector: u64::from(bpb.fat_start) + u64::from(c) * 4 / BLOCK_SIZE as u64,
                offset: (c as usize * 4) % BLOCK_SIZE,
                width: 4,
            };
            let extra = vec![u64::from(c), u64::from(root), 0x0FFF_FFF7];
            (field, past_cluster, extra)
        })
        .collect();
    regions.push(Region::new(
        "FAT sectors",
        fat_entries,
        u64::from(bpb.fat_start),
        2,
    ));
    regions.push(Region::new(
        "root directory entries",
        fat_dirent_fields(dev, &fs, root, &["SUB", "A.TXT", "B.BIN"]),
        fat_cluster_sector(&fs, root),
        1,
    ));
    regions.push(Region::new(
        "subdirectory entries",
        fat_dirent_fields(dev, &fs, sub, &["DEEP", "C.BIN"]),
        fat_cluster_sector(&fs, sub),
        1,
    ));

    let metadata = [
        u64::from(bpb.fat_start),
        fat_cluster_sector(&fs, root),
        fat_cluster_sector(&fs, sub),
    ];
    regions.extend(log_regions(
        INTENT_LOG_START,
        INTENT_LOG_SECTORS,
        total,
        &metadata,
    ));
    regions
}

/// Mounts the FAT32 image on `dev` and walks it.
fn walk_fat(dev: &mut dyn BlockDevice) -> Walked {
    let mut bc = BufCache::default();
    let mut walked = Walked::default();
    let Ok(fs) = Fat32::mount(dev, &mut bc) else {
        return walked;
    };
    walked.mounted = true;
    let mut budget = Budget(0);
    let mut files = Vec::new();
    let mut pending = vec![(String::from("/"), 0)];
    while let Some((dir, depth)) = pending.pop() {
        if !budget.take() {
            return walked;
        }
        let Ok(entries) = fs.list_dir(dev, &mut bc, &dir) else {
            continue;
        };
        for e in entries {
            let path = join(&dir, &e.name);
            if !e.is_dir {
                files.push(path);
            } else if depth < MAX_DEPTH {
                pending.push((path, depth + 1));
            }
        }
    }
    for f in &files {
        if !budget.take() {
            return walked;
        }
        let _ = fs.lookup(dev, &mut bc, f);
        walked.files_read += usize::from(fs.read_file(dev, &mut bc, f).is_ok());
    }
    let _ = fs.write_file(dev, &mut bc, "/NEW.TXT", b"written after the damage");
    if let Some(f) = files.first() {
        let _ = fs.write_at(dev, &mut bc, f, 100, b"patched");
        let _ = fs.remove(dev, &mut bc, f);
    }
    let _ = fs.create(dev, &mut bc, "/NEWDIR", true);
    let _ = bc.flush(dev);
    walked
}

#[test]
fn damaged_fat32_images_mount_and_walk_without_panicking() {
    let mut image = MemDisk::new(IMAGE_SECTORS);
    populate_fat(&mut image);
    let regions = fat_regions(&mut image);
    check("FAT32", sweep(&image, &regions, |disk| walk_fat(disk)));
}

// ---- FAT32 through a booted kernel ------------------------------------------------------

/// A card whose FAT32 partition holds the populated volume.
fn fat_card() -> SdHost {
    let mut card = SdHost::default();
    card.init().unwrap();
    let blocks = card.total_blocks() - FAT_PARTITION_START;
    populate_fat(&mut SdBlockDevice::new(
        &mut card,
        FAT_PARTITION_START,
        blocks,
    ));
    card
}

fn partition(card: &mut SdHost) -> SdBlockDevice<'_> {
    let blocks = card.total_blocks() - FAT_PARTITION_START;
    SdBlockDevice::new(card, FAT_PARTITION_START, blocks)
}

/// Boots a kernel on `card` and, if it boots, walks `/d` through the
/// syscall stubs.
fn boot_and_walk(card: SdHost) -> Walked {
    let mut k = Kernel::desktop_pi3();
    k.board.sdhost = card;
    let mut walked = Walked::default();
    if k.boot().is_err() {
        return walked;
    }
    walked.mounted = true;
    let tid = k.spawn_bench_task("walker").unwrap();
    k.with_task_ctx(tid, |ctx| {
        let mut budget = Budget(0);
        let mut files = Vec::new();
        let mut pending = vec![(String::from("/d"), 0)];
        while let Some((dir, depth)) = pending.pop() {
            if !budget.take() {
                return;
            }
            let Ok(names) = ctx.list_dir(&dir) else {
                continue;
            };
            for name in names {
                let path = join(&dir, &name);
                match ctx.stat(&path) {
                    Ok(st) if st.is_dir && depth < MAX_DEPTH => pending.push((path, depth + 1)),
                    Ok(st) if !st.is_dir => files.push(path),
                    _ => {}
                }
            }
        }
        for f in &files {
            if !budget.take() {
                return;
            }
            if let Ok(fd) = ctx.open(f, OpenFlags::rdonly()) {
                while matches!(ctx.read(fd, 4096), Ok(d) if !d.is_empty()) && budget.take() {}
                walked.files_read += 1;
                let _ = ctx.close(fd);
            }
        }
        let new = ctx.open("/d/NEW.TXT", OpenFlags::wronly_create());
        if let Ok(fd) = new {
            let _ = ctx.write(fd, b"written after the damage");
            let _ = ctx.close(fd);
        }
        if let Some(f) = files.first() {
            if let Ok(fd) = ctx.open(f, OpenFlags::rdwr()) {
                let _ = ctx.lseek(fd, 100);
                let _ = ctx.write(fd, b"patched");
                let _ = ctx.fsync(fd);
                let _ = ctx.close(fd);
            }
            let _ = ctx.unlink(f);
        }
        let _ = ctx.mkdir("/d/NEWDIR");
    });
    let _ = k.sync_all();
    walked
}

#[test]
fn kernels_boot_on_damaged_cards_and_walk_d_without_panicking() {
    let mut card = fat_card();
    let regions = fat_regions(&mut partition(&mut card));
    let mut failures = Vec::new();
    let mut tally = Vec::new();
    for region in &regions {
        let (mut booted, mut files_read) = (0, 0);
        // The first field's edges, a case from the middle, and the last
        // flips.
        let n = region.cases.len();
        for i in [0, 3, n / 2, n - 1] {
            let case = &region.cases[i];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut card = fat_card();
                for d in case {
                    apply(&mut partition(&mut card), d);
                }
                boot_and_walk(card)
            }));
            match outcome {
                Ok(walked) => {
                    booted += usize::from(walked.mounted);
                    files_read += walked.files_read;
                }
                Err(_) => failures.push(format!("{} case {i} ({})", region.name, describe(case))),
            }
        }
        tally.push((region.name, booted, files_read));
    }
    check("kernel", (failures, tally));
}

/// Boot formats a blank card, and only a blank one: a card that holds a
/// volume it cannot mount fails the boot with the mount's error, and the
/// card is left as it was.
#[test]
fn boot_formats_only_a_blank_card() {
    let mut k = Kernel::desktop_pi3();
    k.boot().unwrap();
    k.install_fat_file("/keep.txt", b"kept").unwrap();
    k.sync_all().unwrap();
    let mut card = std::mem::take(&mut k.board.sdhost);
    // Sectors per cluster 3: a volume this FAT32 cannot mount.
    let bpb = Field {
        name: "sectors per cluster",
        sector: 0,
        offset: 13,
        width: 1,
    };
    apply(&mut partition(&mut card), &Damage::Set(bpb, 3));
    let image = |card: &mut SdHost| -> Vec<u8> {
        let mut out = vec![0u8; 256 * BLOCK_SIZE];
        card.read_range(FAT_PARTITION_START, 256, &mut out).unwrap();
        out
    };
    let before = image(&mut card);

    let mut k = Kernel::desktop_pi3();
    k.board.sdhost = card;
    let err = k.boot().unwrap_err();
    assert!(
        matches!(&err, KernelError::Fs(protofs::FsError::Corrupt(m)) if m.contains("sectors-per-cluster")),
        "boot failed with {err:?}"
    );
    assert!(
        image(&mut k.board.sdhost) == before,
        "the card was rewritten"
    );

    // Mended, the card mounts with its file.
    let mut card = std::mem::take(&mut k.board.sdhost);
    apply(&mut partition(&mut card), &Damage::Set(bpb, 8));
    let mut k = Kernel::desktop_pi3();
    k.board.sdhost = card;
    k.boot().unwrap();
    let tid = k.spawn_bench_task("reader").unwrap();
    let kept = k.with_task_ctx(tid, |ctx| {
        let fd = ctx.open("/d/keep.txt", OpenFlags::rdonly())?;
        ctx.read(fd, 64)
    });
    assert_eq!(kept.unwrap(), b"kept");
}

// ---- xv6fs ------------------------------------------------------------------------------

/// Fills a fresh xv6fs volume: a directory, files of one block, of several
/// blocks and one past the direct blocks, and an overwrite whose journal
/// record's payloads stay behind.
fn populate_xv6(dev: &mut dyn BlockDevice) {
    let mut bc = BufCache::default();
    let fs = Xv6Fs::mkfs(dev, &mut bc, (IMAGE_SECTORS / 2) as u32, 128).unwrap();
    fs.create(dev, &mut bc, "/etc", InodeType::Dir).unwrap();
    let bytes = |n: usize, k: u8| {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(k))
            .collect::<Vec<_>>()
    };
    fs.write_file(dev, &mut bc, "/a", b"a small file").unwrap();
    fs.write_file(dev, &mut bc, "/etc/b", &bytes(5000, 3))
        .unwrap();
    fs.write_file(dev, &mut bc, "/big", &bytes(20 * BSIZE, 5))
        .unwrap();
    fs.write_file(dev, &mut bc, "/etc/b", &bytes(7000, 7))
        .unwrap();
    bc.flush(dev).unwrap();
}

/// The xv6fs regions of the populated volume on `dev`.
fn xv6_regions(dev: &mut dyn BlockDevice) -> Vec<Region> {
    let mut bc = BufCache::default();
    let fs = Xv6Fs::mount(dev, &mut bc).unwrap();
    let sb = fs.superblock();
    let spb = (BSIZE / BLOCK_SIZE) as u64;
    let end = u64::from(sb.size);
    let sector = |block: u32| u64::from(block) * spb;

    let sbf = |name, offset| Field {
        name,
        sector: 0,
        offset,
        width: 4,
    };
    let mut regions = vec![Region::new(
        "superblock",
        vec![
            (sbf("magic", 0), 0, vec![]),
            (sbf("size", 4), dev.num_blocks() / spb + 1, vec![]),
            (sbf("inode count", 8), end, vec![]),
            (sbf("log start", 12), end, vec![]),
            (sbf("log blocks", 16), end, vec![]),
            (sbf("inode start", 20), end, vec![]),
            (sbf("bitmap start", 24), end, vec![]),
            (sbf("data start", 28), end, vec![]),
        ],
        0,
        1,
    )];

    let mut inums = vec![1];
    for path in ["/etc", "/a", "/big"] {
        inums.push(fs.lookup(dev, &mut bc, path).unwrap());
    }
    let mut inode_fields = Vec::new();
    for inum in inums {
        let byte = (inum as usize % IPB) * INODE_SIZE;
        let field = |name, offset, width| Field {
            name,
            sector: sector(sb.inodestart + inum / IPB as u32) + (byte / BLOCK_SIZE) as u64,
            offset: byte % BLOCK_SIZE + offset,
            width,
        };
        // A type of 1 or 2 turns a file into a directory or back; a first
        // block in the inode area points the inode at metadata.
        inode_fields.push((field("type", 0, 2), 3, vec![1, 2]));
        inode_fields.push((field("link count", 2, 2), 0, vec![]));
        inode_fields.push((field("size", 4, 4), MAXFILE_BYTES as u64 + 1, vec![]));
        inode_fields.push((
            field("first block", 8, 4),
            end,
            vec![u64::from(sb.inodestart)],
        ));
        inode_fields.push((
            field("indirect block", 8 + 4 * NDIRECT, 4),
            end,
            vec![u64::from(sb.inodestart)],
        ));
    }
    let inode_sectors = u64::from(sb.bmapstart - sb.inodestart) * spb;
    let mut inodes = Region::new(
        "inode blocks",
        inode_fields,
        sector(sb.inodestart),
        inode_sectors,
    );
    // A corrupt address must not steer a free or a write at another
    // file's metadata. Damage to the bitmap or a forged log record still
    // can (xv6fs trusts both), so only this region is held to it.
    inodes.keeps_root = true;
    regions.push(inodes);

    let bitmap = Field {
        name: "bitmap byte of the first data blocks",
        sector: sector(sb.bmapstart),
        offset: sb.datastart as usize / 8,
        width: 1,
    };
    regions.push(Region::new(
        "bitmap",
        vec![(bitmap, 0x0F, vec![])],
        sector(sb.bmapstart),
        spb,
    ));

    // The root directory's first data block: the first address of inode
    // 1, the second inode of the inode area's first sector.
    let root_block = {
        let s = read_sector(dev, sector(sb.inodestart));
        u32::from_le_bytes(s[INODE_SIZE + 8..INODE_SIZE + 12].try_into().unwrap())
    };
    let mut dirent_fields = Vec::new();
    for slot in 0..4usize {
        let field = |name, offset: usize, width| Field {
            name,
            sector: sector(root_block),
            offset: slot * 32 + offset,
            width,
        };
        // An entry may also name the root itself: a directory cycle.
        dirent_fields.push((field("entry inode", 0, 4), u64::from(sb.ninodes), vec![1]));
        let odd_names = vec![u64::from(b'.')];
        dirent_fields.push((field("entry name", 4, 1), u64::from(b'/'), odd_names));
    }
    regions.push(Region::new(
        "directory block",
        dirent_fields,
        sector(root_block),
        spb,
    ));

    let metadata = [
        sector(sb.inodestart),
        sector(sb.bmapstart),
        sector(root_block),
    ];
    regions.extend(log_regions(
        sector(sb.logstart),
        u64::from(sb.nlog) * spb,
        end * spb,
        &metadata,
    ));
    regions
}

/// Mounts the xv6fs image on `dev` and walks it.
fn walk_xv6(dev: &mut dyn BlockDevice) -> Walked {
    let mut bc = BufCache::default();
    let mut walked = Walked::default();
    let Ok(fs) = Xv6Fs::mount(dev, &mut bc) else {
        return walked;
    };
    walked.mounted = true;
    let mut budget = Budget(0);
    let mut files = Vec::new();
    let mut root = Vec::new();
    let mut pending = vec![(String::from("/"), 0)];
    while let Some((dir, depth)) = pending.pop() {
        if !budget.take() {
            return walked;
        }
        let Ok(entries) = fs.list_dir(dev, &mut bc, &dir) else {
            continue;
        };
        if dir == "/" {
            root = entries.iter().map(|e| e.name.clone()).collect();
        }
        for e in entries {
            let path = join(&dir, &e.name);
            match fs.stat(dev, &mut bc, e.inum) {
                Ok(st) if st.itype == InodeType::Dir && depth < MAX_DEPTH => {
                    pending.push((path, depth + 1))
                }
                Ok(st) if st.itype == InodeType::File => files.push((path, e.inum)),
                _ => {}
            }
        }
    }
    for (f, _) in &files {
        if !budget.take() {
            return walked;
        }
        walked.files_read += usize::from(fs.read_file(dev, &mut bc, f).is_ok());
    }
    let _ = fs.write_file(dev, &mut bc, "/new", b"written after the damage");
    let mut unlinked = String::new();
    if let Some((f, inum)) = files.first() {
        let _ = fs.write(dev, &mut bc, *inum, 100, b"patched");
        if fs.unlink(dev, &mut bc, f).is_ok() {
            unlinked = f.clone();
        }
    }
    let _ = fs.create(dev, &mut bc, "/newdir", InodeType::Dir);
    let _ = fs.write_file(dev, &mut bc, "/four", &[0x4B; 4 * BSIZE]);
    let after: Vec<String> = match fs.list_dir(dev, &mut bc, "/") {
        Ok(entries) => entries.into_iter().map(|e| e.name).collect(),
        Err(_) => Vec::new(),
    };
    walked.lost = root
        .into_iter()
        .filter(|n| join("/", n) != unlinked && !after.contains(n))
        .collect();
    let _ = bc.flush(dev);
    walked
}

#[test]
fn damaged_xv6fs_images_mount_and_walk_without_panicking() {
    let mut image = MemDisk::new(IMAGE_SECTORS);
    populate_xv6(&mut image);
    let regions = xv6_regions(&mut image);
    check("xv6fs", sweep(&image, &regions, |disk| walk_xv6(disk)));
}
