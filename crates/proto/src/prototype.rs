//! System builders for the five prototypes.
//!
//! §5.5 describes the development flow: implement the complete OS, then
//! decompose it into five self-contained snapshots. [`ProtoSystem::build`]
//! assembles a bootable simulated system for any stage: the kernel with that
//! stage's feature set, the registered applications, the filesystem assets
//! the stage's target apps need, and a USB keyboard on the port. Tests,
//! examples and every benchmark start from here.

use hal::cost::Platform;
use kernel::kernel::{Kernel, SharedKeyboard};
use kernel::{KResult, KernelConfig, KernelVariant, PrototypeStage, TaskId};

use crate::assets;

/// Options controlling how a system is assembled.
#[derive(Debug, Clone, Copy)]
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

impl ProtoSystem {
    /// Builds and boots a system according to `options`.
    pub fn build(options: SystemOptions) -> KResult<ProtoSystem> {
        let mut config = KernelConfig::for_stage(options.stage).with_variant(options.variant);
        if !options.window_manager {
            config.window_manager = false;
        }
        config.cores = config.cores.min(options.cores.max(1));
        let mut kernel = Kernel::new(config, options.platform);
        kernel.board.set_active_cores(config.cores);
        apps::register_all(&mut kernel);
        let keyboard = if options.keyboard && config.usb_keyboard {
            Some(kernel.attach_keyboard()?)
        } else {
            None
        };
        kernel.boot()?;
        if config.xv6fs {
            assets::install_root_assets(&mut kernel)?;
        }
        if config.fat32 {
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

    /// Spawns a program from its `/bin` image through the real exec path.
    pub fn exec(&mut self, name: &str, args: &[String]) -> KResult<TaskId> {
        let parent = 0;
        let _ = parent;
        // Use a transient init-style task context: spawn the shell-less way
        // by reading the image directly.
        self.kernel.spawn_registered(name, args).or_else(|_| {
            let image = kernel::ProgramImage::small(name);
            let program = self.kernel.registry.instantiate(name, args)?;
            self.kernel.spawn_user_program(&image, program, 0)
        })
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
        use kernel::kernel::{FAT_GROUP_COMMIT_OPS, FAT_PARTITION_START};
        use kernel::OpenFlags;
        for variant in [KernelVariant::Proto, KernelVariant::Xv6Baseline] {
            let mut sys = ProtoSystem::build(SystemOptions {
                variant,
                ..SystemOptions::default()
            })
            .unwrap();
            let k = &sys.kernel;
            let proto = variant == KernelVariant::Proto;
            // Both variants are crash safe and place FAT extents by core.
            let cache = k.fat_cache().unwrap();
            assert_eq!(cache.core_affinity(), 4, "{variant:?} shard affinity");
            let fat = k.fat_volume().unwrap();
            assert!(fat.intent_log_enabled(), "{variant:?} intent log");
            assert_eq!(fat.group_commit_ops(), FAT_GROUP_COMMIT_OPS);
            let root = k.root_volume().unwrap();
            assert!(root.superblock().nlog > 0, "{variant:?} journal");
            // The baseline keeps only the pipeline Fig. 9 measures.
            assert_eq!(cache.coalescing(), proto, "{variant:?} range coalescing");
            assert_eq!(cache.prefetch_enabled(), proto, "{variant:?} read-ahead");
            let mode = k.board.sdhost.data_mode();
            assert_eq!(mode == SdDataMode::Dma, proto, "{variant:?} SD mode");
            assert_eq!(k.kbio_task() != 0, proto, "{variant:?} kbio");
            // The configuration describes the system that booted.
            let c = &k.config;
            assert_eq!(c.variant, variant);
            assert_eq!(c.prefetch, cache.prefetch_enabled());
            assert_eq!(c.sd_dma, mode == SdDataMode::Dma);
            assert_eq!(c.background_flush, k.kbio_task() != 0);

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
}
