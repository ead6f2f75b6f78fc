//! System builders for the five prototypes.
//!
//! §5.5 describes the development flow: implement the complete OS, then
//! decompose it into five self-contained snapshots. [`ProtoSystem::build`]
//! assembles a bootable simulated system for any stage: the kernel with that
//! stage's feature set, the registered applications, the filesystem assets
//! the stage's target apps need, and a USB keyboard on the port. Tests,
//! examples and every benchmark start from here.
//!
//! # Build once, fork many
//!
//! Each snapshot boots from one prebuilt image, and so does a build here.
//! Every thread holds a fork ([`ProtoSystem::fork`]) of the last system it
//! built, with the options it was built from. A build with the same options
//! returns a fork of that image instead of booting and installing again; a
//! build with other options drops the held image, builds from scratch and
//! holds a fork of the new system. So a thread holds at most one image
//! beside the systems it runs, and a thread's first build (a fresh thread
//! has no image) is always a scratch build. A fork is the system in the
//! exact state its scratch build left: same disk images, clocks, cache
//! statistics and trace ring, and the same run from then on.

use std::cell::RefCell;

use hal::cost::Platform;
use kernel::kernel::{Kernel, SharedKeyboard};
use kernel::{Feature, KResult, KernelConfig, KernelVariant, PrototypeStage, TaskId};

use crate::assets;

/// Options controlling how a system is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemOptions {
    /// Which prototype to build.
    pub stage: PrototypeStage,
    /// Which platform cost model to use.
    pub platform: Platform,
    /// Use small synthetic assets (fast tests) instead of full-size media.
    pub small_assets: bool,
    /// Attach a USB keyboard to port 0.
    pub keyboard: bool,
    /// Run the window-manager kernel thread (Prototype 5 only; benches that
    /// measure direct rendering turn it off, as the paper's DOOM and
    /// VideoPlayer configurations do).
    pub window_manager: bool,
    /// Number of CPU cores to enable (clamped by the stage).
    pub cores: usize,
    /// Kernel variant (Proto or the xv6 baseline used in Figure 9).
    pub variant: KernelVariant,
}

impl Default for SystemOptions {
    fn default() -> Self {
        SystemOptions {
            stage: PrototypeStage::Desktop,
            platform: Platform::Pi3,
            small_assets: true,
            keyboard: true,
            window_manager: true,
            cores: 4,
            variant: KernelVariant::Proto,
        }
    }
}

impl SystemOptions {
    /// Options for a given stage with everything else default.
    pub fn stage(stage: PrototypeStage) -> Self {
        SystemOptions {
            stage,
            ..Default::default()
        }
    }

    /// The benchmark configuration of §7.3: Prototype 5, direct rendering
    /// (no window manager), full-size assets.
    pub fn benchmark(platform: Platform) -> Self {
        SystemOptions {
            stage: PrototypeStage::Desktop,
            platform,
            small_assets: false,
            keyboard: true,
            window_manager: false,
            cores: 4,
            variant: KernelVariant::Proto,
        }
    }
}

/// A booted Proto system: the kernel plus the handles tests and benches need.
pub struct ProtoSystem {
    /// The booted kernel.
    pub kernel: Kernel,
    /// The injectable keyboard, if one was attached.
    pub keyboard: Option<SharedKeyboard>,
    /// The options the system was built with.
    pub options: SystemOptions,
}

impl std::fmt::Debug for ProtoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtoSystem")
            .field("stage", &self.options.stage)
            .field("platform", &self.options.platform)
            .finish()
    }
}

thread_local! {
    /// A fork of the last system this thread built, with its options.
    static HELD_IMAGE: RefCell<Option<(SystemOptions, ProtoSystem)>> = const { RefCell::new(None) };
}

impl ProtoSystem {
    /// Builds and boots a system according to `options`: a fork of this
    /// thread's held image when it was built from the same options, a
    /// scratch build otherwise (see the module doc).
    pub fn build(options: SystemOptions) -> KResult<ProtoSystem> {
        HELD_IMAGE.with(|held| {
            let mut held = held.borrow_mut();
            if let Some((_, image)) = held.as_ref().filter(|(o, _)| *o == options) {
                return image.fork();
            }
            *held = None;
            let sys = Self::build_from_scratch(options)?;
            *held = Some((options, sys.fork()?));
            Ok(sys)
        })
    }

    /// Forks the system ([`Kernel::fork`]): the copy has its own keyboard
    /// if this one has one. Fails with [`kernel::KernelError::NotSupported`]
    /// once a task runs a program that keeps state, as every app does.
    pub fn fork(&self) -> KResult<ProtoSystem> {
        let kernel = self.kernel.fork()?;
        Ok(ProtoSystem {
            keyboard: self.keyboard.as_ref().and(kernel.keyboard()),
            options: self.options,
            kernel,
        })
    }

    /// Boots a kernel for `options` and installs its assets.
    fn build_from_scratch(options: SystemOptions) -> KResult<ProtoSystem> {
        let mut config = KernelConfig::for_stage(options.stage).with_variant(options.variant);
        if !options.window_manager {
            config.window_manager = false;
        }
        config.cores = config.cores.min(options.cores.max(1));
        let mut kernel = Kernel::new(config, options.platform);
        apps::register_all(&mut kernel);
        let keyboard = if options.keyboard && config.has(Feature::UsbKeyboard) {
            Some(kernel.attach_keyboard()?)
        } else {
            None
        };
        kernel.boot()?;
        if config.has(Feature::Xv6fs) {
            assets::install_root_assets(&mut kernel)?;
        }
        if config.has(Feature::Fat32) {
            assets::install_fat_assets(&mut kernel, options.small_assets)?;
        }
        Ok(ProtoSystem {
            kernel,
            keyboard,
            options,
        })
    }

    /// Builds the default desktop system (Prototype 5 on the Pi 3).
    pub fn desktop() -> KResult<ProtoSystem> {
        Self::build(SystemOptions::default())
    }

    /// Builds a specific prototype with defaults.
    pub fn prototype(stage: PrototypeStage) -> KResult<ProtoSystem> {
        Self::build(SystemOptions::stage(stage))
    }

    /// Spawns a registered program by name (without going through the
    /// filesystem), returning its task id.
    pub fn spawn(&mut self, name: &str, args: &[String]) -> KResult<TaskId> {
        self.kernel.spawn_registered(name, args)
    }

    /// Runs the system for `us` microseconds of board time.
    pub fn run_us(&mut self, us: u64) {
        self.kernel.run_for_us(us);
    }

    /// Runs for `ms` milliseconds of board time.
    pub fn run_ms(&mut self, ms: u64) {
        self.kernel.run_for_us(ms * 1000);
    }

    /// Measured frames-per-second of a task over its recorded window.
    pub fn fps_of(&self, task: TaskId) -> f64 {
        self.kernel
            .task_metrics(task)
            .map(|m| m.fps())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel::kernel::FAT_PARTITION_START;

    #[test]
    fn every_prototype_builds_and_boots() {
        for stage in PrototypeStage::ALL {
            let sys = ProtoSystem::prototype(stage).expect("build");
            assert!(sys.kernel.is_booted(), "stage {stage:?} boots");
            assert_eq!(sys.kernel.config.stage, stage);
        }
    }

    #[test]
    fn desktop_system_has_fat_and_rootfs_assets() {
        let mut sys = ProtoSystem::desktop().unwrap();
        let tid = sys.spawn("ls", &["/d".to_string()]).unwrap();
        sys.kernel.run_until(
            |k| k.task(tid).map(|t| t.is_zombie()).unwrap_or(true),
            2_000_000,
        );
        let log = sys.kernel.console_lines().join("\n");
        assert!(log.contains("DOOM.WAD"), "FAT assets installed: {log}");
    }

    #[test]
    fn booted_io_pipeline_follows_the_variant() {
        use hal::sdhost::SdDataMode;
        use kernel::kernel::FAT_GROUP_COMMIT_OPS;
        use kernel::OpenFlags;
        for variant in [KernelVariant::Proto, KernelVariant::Xv6Baseline] {
            let mut sys = ProtoSystem::build(SystemOptions {
                variant,
                ..SystemOptions::default()
            })
            .unwrap();
            let k = &sys.kernel;
            let proto = variant == KernelVariant::Proto;
            // Both variants are crash safe.
            let fat = k.fat_volume().unwrap();
            assert!(fat.intent_log_enabled(), "{variant:?} intent log");
            assert_eq!(fat.group_commit_ops(), FAT_GROUP_COMMIT_OPS);
            let root = k.root_volume().unwrap();
            assert!(root.superblock().nlog > 0, "{variant:?} journal");
            // The baseline keeps only the pipeline Fig. 9 measures.
            let cache = k.fat_cache().unwrap();
            assert_eq!(cache.coalescing(), proto, "{variant:?} range coalescing");
            assert_eq!(cache.prefetch_enabled(), proto, "{variant:?} read-ahead");
            let mode = k.board.sdhost.data_mode();
            assert_eq!(mode == SdDataMode::Dma, proto, "{variant:?} SD mode");
            assert_eq!(k.kbio_task() != 0, proto, "{variant:?} kbio");
            assert_eq!(k.config.variant, variant);

            // The ordered drain: cut the card's power once a new file's
            // data blocks have landed, and its FAT sectors (below the data
            // area, so an LBA-order drain writes them first) must not have.
            let bpb = fat.bpb();
            let fat_sectors = FAT_PARTITION_START + u64::from(bpb.fat_start)
                ..FAT_PARTITION_START + u64::from(bpb.data_start);
            let data = vec![0x5Au8; 16 * 1024];
            let writer = sys.kernel.spawn_bench_task("writer").unwrap();
            sys.kernel
                .with_task_ctx(writer, |ctx| {
                    let fd = ctx.open("/d/ordered.bin", OpenFlags::wronly_create())?;
                    ctx.write(fd, &data)
                })
                .unwrap();
            let card = &mut sys.kernel.board.sdhost.card;
            let read = |card: &mut hal::disk::Disk, lba| {
                let mut out = vec![0u8; 512];
                card.read_block(lba, &mut out).unwrap();
                out
            };
            let before: Vec<Vec<u8>> = fat_sectors.clone().map(|l| read(card, l)).collect();
            card.power_cut_after(data.len() as u64 / 512);
            assert!(
                sys.kernel.sync_all().is_err(),
                "{variant:?}: the cut fails sync"
            );
            let card = &mut sys.kernel.board.sdhost.card;
            card.power_restored();
            for (lba, old) in fat_sectors.clone().zip(&before) {
                assert_eq!(
                    &read(card, lba),
                    old,
                    "{variant:?}: FAT sector {lba} preceded its data"
                );
            }
            // A sync with power on does write the chain.
            sys.kernel.sync_all().unwrap();
            let card = &mut sys.kernel.board.sdhost.card;
            let after: Vec<Vec<u8>> = fat_sectors.map(|l| read(card, l)).collect();
            assert_ne!(after, before, "{variant:?}: the new file has a FAT chain");
        }
    }

    /// Builds `options` on a fresh thread, which holds no image: a scratch
    /// build.
    fn scratch_build(options: SystemOptions) -> ProtoSystem {
        std::thread::spawn(move || ProtoSystem::build(options).unwrap())
            .join()
            .unwrap()
    }

    /// The options of this thread's held image, if it holds one.
    fn held_options() -> Option<SystemOptions> {
        HELD_IMAGE.with(|held| held.borrow().as_ref().map(|(o, _)| *o))
    }

    /// Asserts that two SD cards hold the same blocks, a megabyte at a time:
    /// the card's image is 256 MB.
    fn assert_same_card(a: &mut hal::disk::Disk, b: &mut hal::disk::Disk, what: &str) {
        let blocks = a.num_blocks();
        assert_eq!(blocks, b.num_blocks(), "{what}: card sizes");
        let (mut wa, mut wb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
        for lba in (0..blocks).step_by(2048) {
            let n = 2048.min(blocks - lba);
            let len = n as usize * 512;
            a.read_range(lba, n, &mut wa[..len]).unwrap();
            b.read_range(lba, n, &mut wb[..len]).unwrap();
            assert!(wa[..len] == wb[..len], "{what}: SD card blocks from {lba}");
        }
    }

    /// Asserts that two systems are in the same state: disk images, per-core
    /// clocks, both caches' statistics, the trace ring and every task's
    /// metrics.
    fn assert_same_system(a: &mut ProtoSystem, b: &mut ProtoSystem, what: &str) {
        let (ka, kb) = (&mut a.kernel, &mut b.kernel);
        assert_eq!(
            ka.ramdisk_image(),
            kb.ramdisk_image(),
            "{what}: ramdisk images"
        );
        assert_same_card(&mut ka.board.sdhost.card, &mut kb.board.sdhost.card, what);
        let clocks = |k: &Kernel| {
            (0..k.board.clock.num_cores())
                .map(|c| k.board.clock.cycles(c))
                .collect::<Vec<_>>()
        };
        assert_eq!(clocks(ka), clocks(kb), "{what}: per-core clocks");
        assert_eq!(
            ka.fat_cache_stats(),
            kb.fat_cache_stats(),
            "{what}: FAT cache"
        );
        assert_eq!(
            ka.root_cache_stats(),
            kb.root_cache_stats(),
            "{what}: root cache"
        );
        assert_eq!(ka.trace.dump(), kb.trace.dump(), "{what}: trace rings");
        assert_eq!(ka.task_ids(), kb.task_ids(), "{what}: tasks");
        for tid in ka.task_ids() {
            assert_eq!(
                ka.task_metrics(tid),
                kb.task_metrics(tid),
                "{what}: task {tid}"
            );
        }
    }

    #[test]
    fn two_desktop_builds_in_one_process_leave_identical_systems() {
        // Other tests in this binary may have generated the assets already,
        // so this checks that two builds in one process agree, not a
        // generating build against a cached one: the assets' own test
        // compares the cache with the generators. Each build runs on its own
        // fresh thread, so both are scratch builds.
        let options = SystemOptions::default();
        let [mut a, mut b] = [(); 2].map(|()| scratch_build(options));
        assert_same_system(&mut a, &mut b, "two scratch builds");
    }

    #[test]
    fn a_fork_runs_exactly_as_the_scratch_build_it_was_forked_from() {
        let options = SystemOptions::default();
        let mut scratch = scratch_build(options);
        // This thread's second build of the same options is a fork of the
        // image its first one left.
        drop(ProtoSystem::build(options).unwrap());
        assert_eq!(held_options(), Some(options));
        let mut fork = ProtoSystem::build(options).unwrap();
        assert_same_system(&mut scratch, &mut fork, "right after build");

        // DOOM with the same key taps on each: the same run.
        for sys in [&mut scratch, &mut fork] {
            let doom = sys.spawn("doom", &["/d/doom.wad".into()]).unwrap();
            let keyboard = sys.keyboard.clone().unwrap();
            for (i, key) in ["w", "w", "d", "a", "s"].into_iter().enumerate() {
                sys.run_ms(40 + 10 * i as u64);
                keyboard.type_str(key);
            }
            sys.run_ms(60);
            assert!(
                sys.kernel.task_metrics(doom).unwrap().frames > 0,
                "DOOM ran"
            );
            assert!(sys.kernel.kbd_events_received() > 0, "the taps arrived");
        }
        assert_same_system(&mut scratch, &mut fork, "after DOOM ran");
        assert_eq!(
            scratch.kernel.board.framebuffer.scanout_pixels(),
            fork.kernel.board.framebuffer.scanout_pixels(),
            "the screens"
        );
    }

    #[test]
    fn forks_share_nothing_with_their_source_the_held_image_or_each_other() {
        let options = SystemOptions::default();
        let mut source = ProtoSystem::build(options).unwrap();
        let [mut a, mut b] = [(); 2].map(|()| ProtoSystem::build(options).unwrap());
        // A key tap on one fork reaches only that fork's keyboard driver.
        a.keyboard.as_ref().unwrap().type_str("x");
        for sys in [&mut source, &mut a, &mut b] {
            sys.run_ms(20);
        }
        assert!(a.kernel.kbd_events_received() > 0, "the tapped fork");
        assert_eq!(source.kernel.kbd_events_received(), 0, "the source");
        assert_eq!(b.kernel.kbd_events_received(), 0, "the sibling");
        // A fault and a power cut on one fork's card, and a write to its
        // ramdisk.
        let lba = FAT_PARTITION_START;
        let card = &mut a.kernel.board.sdhost.card;
        card.inject_fault(lba);
        card.power_cut();
        let ramdisk = a.kernel.ramdisk().unwrap();
        let mut block = vec![0u8; 512];
        ramdisk.read_block(0, &mut block).unwrap();
        let pristine = block.clone();
        block.fill(0xA5);
        ramdisk.write_block(0, &block).unwrap();
        // A fresh fork of the held image comes out as the others did.
        let mut c = ProtoSystem::build(options).unwrap();
        c.run_ms(20);
        assert_eq!(
            c.kernel.kbd_events_received(),
            0,
            "the held image's keyboard"
        );
        for (sys, what) in [
            (&mut source, "source"),
            (&mut b, "sibling"),
            (&mut c, "held image"),
        ] {
            let card = &mut sys.kernel.board.sdhost.card;
            assert!(!card.power_lost(), "{what}: card power");
            card.read_block(lba, &mut block).unwrap();
            sys.kernel
                .ramdisk()
                .unwrap()
                .read_block(0, &mut block)
                .unwrap();
            assert_eq!(block, pristine, "{what}: ramdisk block 0");
        }
    }

    #[test]
    fn a_system_running_an_app_cannot_be_forked() {
        let mut sys = ProtoSystem::desktop().unwrap();
        assert!(sys.fork().is_ok(), "the stateless kernel threads fork");
        sys.kernel.spawn_bench_task("bench").unwrap();
        assert!(sys.fork().is_ok(), "so does a bench task");
        sys.spawn("donut", &[]).unwrap();
        assert!(matches!(
            sys.fork(),
            Err(kernel::KernelError::NotSupported(_))
        ));
    }

    #[test]
    fn building_other_options_drops_the_held_image() {
        let a = SystemOptions::stage(PrototypeStage::Files);
        let b = SystemOptions {
            window_manager: false,
            ..SystemOptions::default()
        };
        assert_eq!(held_options(), None, "a fresh thread holds no image");
        drop(ProtoSystem::build(a).unwrap());
        assert_eq!(held_options(), Some(a));
        drop(ProtoSystem::build(b).unwrap());
        assert_eq!(held_options(), Some(b), "only the last options' image");
    }
}
