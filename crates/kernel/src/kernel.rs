//! The Proto kernel object: boot, scheduling loop, interrupt handling.
//!
//! This is the monolithic kernel of §3: it owns the simulated board, the
//! memory manager, the scheduler, the VFS and every driver, and runs user
//! programs in cooperative steps. The file-level split mirrors the paper's
//! own structure — this module covers boot and the core loop, `syscalls.rs`
//! the user/kernel interface.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use hal::board::SimBoard;
use hal::cost::{CostModel, Platform};
use hal::intc::Interrupt;
use hal::mem::FRAME_SIZE;
use hal::usb_hw::{UsbHwDevice, UsbSetupPacket};
use protofs::bufcache::BufCache;
use protofs::fat32::Fat32;
use protofs::xv6fs::Xv6Fs;
use protofs::{FsError, FsResult, MemDisk};
use protousb::{KeyCode, KeyEvent, Modifiers, SimUsbKeyboard, UsbStack};

use crate::config::{KernelConfig, KernelVariant};
use crate::debug::DebugMonitor;
use crate::error::{KResult, KernelError};
use crate::exec::{ProgramImage, ProgramRegistry};
use crate::kbd::KeyboardDriver;
use crate::mm::addrspace::{AddressSpace, RegionKind};
use crate::mm::pagetable::MapFlags;
use crate::mm::MemoryManager;
use crate::pipe::PipeTable;
use crate::sched::Scheduler;
use crate::sound::SoundDriver;
use crate::sync::SemTable;
use crate::task::{MmRef, Task, TaskId, TaskState, WaitChannel};
use crate::trace::{TraceBuffer, TraceKind};
use crate::usercall::{FramePhases, StepResult, UserCtx, UserProgram};
use crate::vfs::{
    FdTable, FileKind, FileSystem, Medium, Mount, MountTarget, OpenFile, PseudoInodes, Volume,
    VolumeIo,
};
use crate::wm::WindowManager;

/// Size of the ramdisk baked into the kernel image (8 MB, plenty for the
/// program images and `/etc` files).
pub const RAMDISK_BYTES: u64 = 8 * 1024 * 1024;
/// Where the FAT32 partition (partition 2) starts on the SD card, in blocks.
pub const FAT_PARTITION_START: u64 = 8192;
/// Scheduler tick period in microseconds.
pub const TICK_US: u64 = 10_000;
/// Dirty-ratio high-water mark: past this, the adaptive flusher wakes early
/// and writers kick a sleeping `kbio` immediately.
pub const KBIO_HIGH_WATER: f64 = 0.5;
/// The `kbio` flusher's midpoint wakeup interval, in ms: a cache past
/// [`KBIO_HIGH_WATER`] quarters it, a pair of clean caches sleeps four times
/// as long.
pub const KBIO_INTERVAL_MS: u64 = 20;
/// Maximum blocks one `kbio` pass writes back per cache (bounds how long the
/// background thread holds the SD bus per wakeup).
pub const KBIO_BUDGET_BLOCKS: u64 = 256;
/// How many FAT32 logged metadata transactions one intent-log commit record
/// may cover (group commit).
pub const FAT_GROUP_COMMIT_OPS: u32 = 8;
/// Upper bound on how long a pending commit group may sit open before the
/// `kbio` flusher force-commits it, in ms.
pub const FAT_GROUP_COMMIT_TIMEOUT_MS: u64 = 20;
/// Nominal size of the kernel image + packed ramdisk, for memory accounting
/// (the paper's Prototype 5 kernel is ~33 kSLoC plus an 8 MB ramdisk dump).
pub const KERNEL_IMAGE_BYTES: u64 = 2 * 1024 * 1024 + RAMDISK_BYTES;
/// Serial input bytes the kernel holds for `/dev/console` (xv6's console
/// input buffer is 128 bytes too); further bytes are dropped.
const CONSOLE_INPUT_BYTES: usize = 128;

/// A point-in-time snapshot of SD traffic counters plus the FAT cache's
/// prefetch-command counter; syscalls diff two snapshots to charge the right
/// cycle cost for exactly the commands they caused (prefetch-issued commands
/// get their setup latency discounted — it overlaps the previous transfer;
/// DMA read chains charge command issue + control-block setup + per-block
/// completion bookkeeping, while their data phase runs on the device
/// timeline and shows up as wait time, not as a CPU charge; DMA write
/// chains were charged the same work by the adapter at submit and are only
/// attributed; cache FLUSH commands, served only with the posted write
/// cache on, charge their own latency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SdSnapshot {
    pub(crate) single_cmds: u64,
    pub(crate) range_cmds: u64,
    pub(crate) blocks: u64,
    pub(crate) prefetch_cmds: u64,
    pub(crate) dma_reads: hal::sdhost::DmaTraffic,
    pub(crate) dma_writes: hal::sdhost::DmaTraffic,
    pub(crate) flush_cmds: u64,
}

/// Boot-time measurements (Figure 8's right-hand table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootStats {
    /// Time the firmware spent loading the kernel image, in ms.
    pub firmware_load_ms: u64,
    /// Time from power-on to the shell prompt (kernel fully booted), in ms.
    pub to_prompt_ms: u64,
}

/// Per-task runtime metrics (frames, phase breakdown) used by Table 5 and
/// Figure 11.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskMetrics {
    /// Frames presented.
    pub frames: u64,
    /// Board time of the first recorded frame (µs).
    pub first_frame_us: u64,
    /// Board time of the latest recorded frame (µs).
    pub last_frame_us: u64,
    /// Accumulated app-logic cycles across frames.
    pub app_logic_cycles: u64,
    /// Accumulated draw cycles across frames.
    pub draw_cycles: u64,
    /// Accumulated present cycles across frames.
    pub present_cycles: u64,
}

impl TaskMetrics {
    /// Frames per second over the recorded window, optionally skipping a
    /// warm-up period (the paper uses 20 s of warm-up).
    pub fn fps(&self) -> f64 {
        if self.frames < 2 || self.last_frame_us <= self.first_frame_us {
            return 0.0;
        }
        let secs = (self.last_frame_us - self.first_frame_us) as f64 / 1e6;
        (self.frames - 1) as f64 / secs
    }

    /// Mean per-frame latency contribution of each phase, in milliseconds:
    /// (app logic, draw, present).
    pub fn mean_phase_ms(&self) -> (f64, f64, f64) {
        if self.frames == 0 {
            return (0.0, 0.0, 0.0);
        }
        let f = self.frames as f64 * 1e6; // cycles -> ms at 1 GHz
        (
            self.app_logic_cycles as f64 / f,
            self.draw_cycles as f64 / f,
            self.present_cycles as f64 / f,
        )
    }
}

/// A keyboard device shared between the USB port and the kernel's
/// key-injection helper (tests and benches press keys through this).
/// Lock poisoning is recovered with `into_inner`: the keyboard state is
/// plain data, so the worst a panicked presser leaves behind is a missed
/// key event — never a reason to cascade the panic into the kernel.
#[derive(Clone)]
pub struct SharedKeyboard(Arc<Mutex<SimUsbKeyboard>>);

impl SharedKeyboard {
    /// Creates a new shared keyboard.
    pub fn new() -> Self {
        SharedKeyboard(Arc::new(Mutex::new(SimUsbKeyboard::new())))
    }

    /// Presses and releases a key.
    pub fn tap(&self, code: KeyCode, modifiers: Modifiers) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tap(code, modifiers);
    }

    /// Presses a key.
    pub fn press(&self, code: KeyCode, modifiers: Modifiers) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .press(code, modifiers);
    }

    /// Releases a key.
    pub fn release(&self, code: KeyCode) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .release(code);
    }

    /// Types a string of printable characters.
    pub fn type_str(&self, s: &str) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).type_str(s);
    }
}

impl Default for SharedKeyboard {
    fn default() -> Self {
        Self::new()
    }
}

impl UsbHwDevice for SharedKeyboard {
    fn control(&mut self, setup: &UsbSetupPacket, data_out: &[u8]) -> hal::HalResult<Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .control(setup, data_out)
    }
    fn interrupt_in(&mut self, endpoint: u8) -> Option<Vec<u8>> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .interrupt_in(endpoint)
    }
    fn has_pending_input(&self) -> bool {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .has_pending_input()
    }
    fn name(&self) -> &str {
        "shared-hid-keyboard"
    }
}

/// The window-manager kernel thread body: services input dispatch and
/// composition at ~60 Hz.
struct WmThread;

impl UserProgram for WmThread {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core;
        ctx.kernel.wm_service(core);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a sleep cannot fail, and a kernel thread has no caller to report to"
        )]
        let _ = ctx.sleep_ms(16);
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "kwm"
    }
}

/// The background write-back flusher kernel thread (modeled on `kwm`): wakes
/// on a timer and drains a bounded budget of dirty extents from the
/// write-back caches, so the SD cycles of deferred write-back are charged to
/// `kbio` instead of spiking whichever task closes last.
struct KbioThread;

impl UserProgram for KbioThread {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let core = ctx.core;
        ctx.kernel.kbio_service(core);
        // Adaptive cadence: the post-drain dirty ratio decides how soon the
        // flusher needs to look again.
        let interval = ctx.kernel.kbio_next_interval_ms();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a sleep cannot fail, and a kernel thread has no caller to report to"
        )]
        let _ = ctx.sleep_ms(interval);
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "kbio"
    }
}

/// The Proto kernel.
pub struct Kernel {
    /// The simulated board.
    pub board: SimBoard,
    /// Kernel configuration (prototype stage + variant).
    pub config: KernelConfig,
    /// Memory manager.
    pub mm: MemoryManager,
    /// Scheduler.
    pub sched: Scheduler,
    /// Trace ring buffer.
    pub trace: TraceBuffer,
    /// Debug monitor.
    pub debugmon: DebugMonitor,
    /// Window manager.
    pub wm: WindowManager,
    /// Program registry consulted by exec/spawn.
    pub registry: ProgramRegistry,

    tasks: BTreeMap<TaskId, Task>,
    programs: BTreeMap<TaskId, Box<dyn UserProgram>>,
    address_spaces: BTreeMap<u64, AddressSpace>,
    next_asid: u64,
    next_task_id: TaskId,

    pipes: PipeTable,
    sems: SemTable,
    /// One value per mounted disk, indexed by [`Mount`]: FAT32 on the SD
    /// card and the root xv6fs on the ramdisk.
    pub(crate) volumes: [Option<Volume>; 2],

    // Drivers.
    pub(crate) kbd: KeyboardDriver,
    pub(crate) sound: SoundDriver,
    /// Serial input the `UartRx` handler drained, waiting for a
    /// `/dev/console` reader; at most [`CONSOLE_INPUT_BYTES`].
    pub(crate) console_input: VecDeque<u8>,
    usb_stack: UsbStack,
    shared_keyboard: Option<SharedKeyboard>,

    // Per-task framebuffer mapping (user VA of the mapping).
    pub(crate) fb_mappings: BTreeMap<TaskId, u64>,
    metrics: BTreeMap<TaskId, TaskMetrics>,

    boot_stats: BootStats,
    booted: bool,
    /// Tracks the last task run per core, to charge context switches only on
    /// actual switches.
    last_on_core: Vec<Option<TaskId>>,
    /// Console output accumulated through `print` (mirrors the UART log).
    console_lines: Vec<String>,
    /// Init task id (parent of orphans).
    init_task: TaskId,
    /// The `kbio` background flusher thread (0 when not running).
    kbio_task: TaskId,
    /// The cache's `completions_applied` counter as of the last scheduler
    /// pass; any growth wakes the block-I/O wait channel, no matter which
    /// path reaped the completions.
    sd_comps_seen: u64,
    /// True while a task's program step is running under `run_slice` — the
    /// only context where blocking I/O may actually park the caller
    /// (`with_task_ctx` drives steps synchronously and must stay
    /// spin-based).
    pub(crate) in_scheduled_step: bool,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("stage", &self.config.stage)
            .field("platform", &self.board.platform())
            .field("tasks", &self.tasks.len())
            .field("booted", &self.booted)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel for `config` on `platform`. Call [`Kernel::boot`]
    /// before running anything.
    pub fn new(config: KernelConfig, platform: Platform) -> Self {
        let mut board = SimBoard::new(platform);
        board.set_active_cores(config.cores);
        Kernel {
            board,
            config,
            mm: MemoryManager::new(KERNEL_IMAGE_BYTES),
            sched: Scheduler::new(config.cores),
            trace: TraceBuffer::default(),
            debugmon: DebugMonitor::new(),
            wm: WindowManager::new(),
            registry: ProgramRegistry::new(),
            tasks: BTreeMap::new(),
            programs: BTreeMap::new(),
            address_spaces: BTreeMap::new(),
            next_asid: 1,
            next_task_id: 1,
            pipes: PipeTable::new(),
            sems: SemTable::new(),
            volumes: [None, None],
            kbd: KeyboardDriver::new(),
            sound: SoundDriver::new(),
            console_input: VecDeque::new(),
            usb_stack: UsbStack::new(),
            shared_keyboard: None,
            fb_mappings: BTreeMap::new(),
            metrics: BTreeMap::new(),
            boot_stats: BootStats::default(),
            booted: false,
            last_on_core: vec![None; hal::NUM_CORES],
            console_lines: Vec::new(),
            init_task: 0,
            kbio_task: 0,
            sd_comps_seen: 0,
            in_scheduled_step: false,
        }
    }

    /// Convenience: a fully featured Prototype 5 kernel on the Pi 3.
    pub fn desktop_pi3() -> Self {
        Self::new(KernelConfig::desktop(), Platform::Pi3)
    }

    // ---- accessors ----------------------------------------------------------------------

    /// Current board time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.board.now_us()
    }

    /// The platform cost model.
    pub fn cost_model(&self) -> CostModel {
        self.board.cost.clone()
    }

    /// Whether [`Kernel::boot`] has completed.
    pub fn is_booted(&self) -> bool {
        self.booted
    }

    /// Boot-time measurements.
    pub fn boot_stats(&self) -> BootStats {
        self.boot_stats
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// Number of live (non-reaped) tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All live task ids.
    pub fn task_ids(&self) -> Vec<TaskId> {
        let mut v: Vec<_> = self.tasks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Runtime metrics for a task.
    pub fn task_metrics(&self, id: TaskId) -> Option<TaskMetrics> {
        self.metrics.get(&id).copied()
    }

    /// The UART console log so far.
    pub fn console_log(&self) -> String {
        self.board.uart.tx_log_string()
    }

    /// Lines printed through the in-kernel console helper.
    pub fn console_lines(&self) -> &[String] {
        &self.console_lines
    }

    /// The keyboard injection handle, if a keyboard is attached.
    pub fn keyboard(&self) -> Option<SharedKeyboard> {
        self.shared_keyboard.clone()
    }

    /// Registers a program factory under `name` (delegates to the registry).
    pub fn register_program<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&[String]) -> Box<dyn UserProgram> + Send + Sync + 'static,
    {
        self.registry.register(name, factory);
    }

    // ---- boot -----------------------------------------------------------------------------

    /// Attaches a USB keyboard to port 0 (before or after boot; enumeration
    /// happens at boot or on the next re-enumeration).
    pub fn attach_keyboard(&mut self) -> KResult<SharedKeyboard> {
        let kb = SharedKeyboard::new();
        self.board.usb.attach(0, Box::new(kb.clone()))?;
        self.shared_keyboard = Some(kb.clone());
        if self.booted && self.config.usb_keyboard {
            self.usb_stack.enumerate(&mut self.board.usb)?;
        }
        Ok(kb)
    }

    /// Boots the kernel: firmware load, device bring-up, filesystem mounts,
    /// and (in Prototype 5) the window-manager kernel thread. Returns the
    /// boot statistics.
    pub fn boot(&mut self) -> KResult<BootStats> {
        if self.booted {
            return Ok(self.boot_stats);
        }
        let cost = self.board.cost.clone();
        // Firmware loads the kernel image from the SD card before the ARM
        // cores even start.
        self.board.charge(0, cost.boot_firmware_load);
        let firmware_ms = self.board.clock.cycles_to_ms(self.board.clock.cycles(0));

        self.printk("proto: booting");
        // UART mode per stage (Table 1 footnotes 7-9).
        let mode = match self.config.stage.number() {
            1 => hal::uart::UartMode::PollingTxOnly,
            2 | 3 => hal::uart::UartMode::IrqRx,
            _ => hal::uart::UartMode::IrqRxTx,
        };
        self.board.uart.set_mode(mode);
        self.board.intc.enable(Interrupt::UartRx);

        // Framebuffer via the mailbox property interface.
        if self.config.framebuffer {
            let mut fb = std::mem::take(&mut self.board.framebuffer);
            self.board.mailbox.allocate_framebuffer(
                &mut fb,
                hal::framebuffer::DEFAULT_WIDTH,
                hal::framebuffer::DEFAULT_HEIGHT,
            )?;
            self.board.framebuffer = fb;
        }

        // Virtual memory: kernel block maps.
        if self.config.virtual_memory {
            self.mm.init_kernel_space(&mut self.board.mem)?;
        }

        // Timers and interrupts.
        self.board.intc.enable(Interrupt::SystemTimer1);
        self.board.intc.enable(Interrupt::SystemTimer3);
        for core in 0..self.config.cores {
            self.board.intc.set_core_masked(core, false);
        }
        let now = self.board.now_us();
        if self.config.multicore {
            for core in 0..self.config.cores {
                self.board.intc.enable(Interrupt::GenericTimer(core));
                self.board
                    .generic_timers
                    .enable_periodic(core, now, TICK_US);
            }
        } else {
            self.board.systimer.arm(1, now, TICK_US);
        }
        self.board.charge(0, cost.boot_kernel_misc);

        // Root filesystem on the ramdisk. Both volumes format and mount
        // under the cache defaults; the configured policies govern the
        // running system from then on.
        if self.config.xv6fs {
            let mut ramdisk = MemDisk::new(RAMDISK_BYTES / protofs::BLOCK_SIZE as u64);
            let mut bc = BufCache::default();
            let fs = Xv6Fs::mkfs(
                &mut ramdisk,
                &mut bc,
                (RAMDISK_BYTES / protofs::xv6fs::BSIZE as u64) as u32,
                512,
            )?;
            self.volumes[Mount::Root as usize] = Some(Volume {
                fs: FileSystem::Xv6(fs),
                cache: self.with_cache_policies(bc),
                medium: Medium::Ramdisk(ramdisk),
                group_seen: None,
            });
        }

        // USB: power the controller, enumerate whatever is plugged in.
        if self.config.usb_keyboard {
            self.board.mailbox.set_power_state(3, true);
            self.board.usb.power_on();
            self.board.intc.enable(Interrupt::UsbHc);
            self.board.charge(0, cost.boot_usb_init);
            self.usb_stack.enumerate(&mut self.board.usb)?;
        }

        // Sound path.
        if self.config.sound {
            self.board.intc.enable(Interrupt::Dma0);
            self.board.intc.enable(Interrupt::GpioBank0);
        }

        // SD card + FAT32 on partition 2, mounted at /d.
        if self.config.sd_card && self.config.fat32 {
            self.board.sdhost.init()?;
            self.board.charge(0, cost.boot_sd_init);
            let blocks = self.board.sdhost.total_blocks() - FAT_PARTITION_START;
            let mut bc = BufCache::default();
            let fat = {
                let mut dev = protofs::block::SdBlockDevice::new(
                    &mut self.board.sdhost,
                    FAT_PARTITION_START,
                    blocks,
                );
                // Only a blank card is formatted: a card that holds
                // anything else and fails to mount fails the boot.
                let mut fat = Fat32::mount_or_mkfs(&mut dev, &mut bc)?;
                // Group commit is safe at syscall level because close/fsync
                // are the kernel's durability points, and both force the
                // pending group out (as does the flusher's timeout pass).
                fat.set_group_commit_ops(FAT_GROUP_COMMIT_OPS);
                // A fresh format leaves the superblock and FAT dirty in the
                // write-back cache; put the card in a mountable state now.
                bc.flush(&mut dev)?;
                fat
            };
            self.volumes[Mount::Fat as usize] = Some(Volume {
                fs: FileSystem::Fat(fat, PseudoInodes::default()),
                cache: self.with_fat_cache_policies(bc),
                medium: Medium::Sd {
                    start: FAT_PARTITION_START,
                    blocks,
                },
                group_seen: None,
            });
        }

        // The DMA data path: scatter-gather chains on channel 0 with the
        // async command queue. The polled mode stays the fallback (and the
        // xv6-baseline behaviour).
        if self.config.sd_card && self.config.fat32 && self.config.sd_dma {
            self.board
                .sdhost
                .set_data_mode(hal::sdhost::SdDataMode::Dma);
            self.board.intc.enable(Interrupt::Dma0);
        }

        // The window-manager kernel thread.
        if self.config.window_manager {
            let wm_tid = self.spawn_kernel_thread("kwm", Box::new(WmThread))?;
            // The WM runs frequently but briefly; give it a modest priority.
            if let Some(t) = self.tasks.get_mut(&wm_tid) {
                t.priority = 5;
            }
        }

        // The background write-back flusher kernel thread.
        if self.config.background_flush && (self.config.xv6fs || self.config.fat32) {
            let kbio_tid = self.spawn_kernel_thread("kbio", Box::new(KbioThread))?;
            // Write-back is deferrable work; run it below interactive tasks.
            if let Some(t) = self.tasks.get_mut(&kbio_tid) {
                t.priority = 3;
            }
            self.kbio_task = kbio_tid;
        }

        self.printk("proto: boot complete, starting shell");
        let to_prompt_ms = self
            .board
            .clock
            .cycles_to_ms(self.board.clock.global_cycles());
        self.boot_stats = BootStats {
            firmware_load_ms: firmware_ms,
            to_prompt_ms,
        };
        self.booted = true;
        Ok(self.boot_stats)
    }

    /// Writes a kernel log line over the UART (synchronous, as in all five
    /// prototypes).
    pub fn printk(&mut self, msg: &str) {
        let cost = self.board.cost.uart_tx_per_byte * (msg.len() as u64 + 1);
        self.board.charge(0, cost);
        self.board.uart.write_bytes(msg.as_bytes());
        self.board.uart.write_byte(b'\n');
    }

    // ---- filesystem population helpers (used by the image builder) -------------------------

    /// Writes a file into the root (xv6fs) filesystem.
    pub fn install_root_file(&mut self, path: &str, data: &[u8]) -> KResult<()> {
        self.install(Mount::Root, |io| io.write_file(path, data))
    }

    /// Creates a directory on the root filesystem.
    pub fn install_root_dir(&mut self, path: &str) -> KResult<()> {
        self.install_dir(Mount::Root, path)
    }

    /// Writes a file onto the FAT32 volume (path relative to the volume, e.g.
    /// `/doom.wad` which apps see as `/d/doom.wad`).
    pub fn install_fat_file(&mut self, volume_path: &str, data: &[u8]) -> KResult<()> {
        self.install(Mount::Fat, |io| io.write_file(volume_path, data))
    }

    /// Creates a directory on the FAT32 volume.
    pub fn install_fat_dir(&mut self, volume_path: &str) -> KResult<()> {
        self.install_dir(Mount::Fat, volume_path)
    }

    /// Creates the directory `path` on `mount` for an image; one that
    /// already exists will do.
    fn install_dir(&mut self, mount: Mount, path: &str) -> KResult<()> {
        self.install(mount, |io| match io.create(path, true) {
            Ok(_) | Err(FsError::AlreadyExists(_)) => Ok(()),
            Err(e) => Err(e),
        })
    }

    /// Runs an image-building write on `mount`, on core 0, charging no
    /// one: it happens outside any task. The SD card is the image another
    /// machine mounts, so on it the write is committed and pushed to the
    /// card at once, and the installed image is always mountable; the
    /// ramdisk is part of the kernel image, and its dirty blocks wait for
    /// write-back like any other.
    fn install(
        &mut self,
        mount: Mount,
        f: impl FnOnce(&mut VolumeIo<'_>) -> FsResult<()>,
    ) -> KResult<()> {
        let vol = self.volumes[mount as usize]
            .as_mut()
            .ok_or_else(|| mount.not_mounted())?;
        let to_card = matches!(vol.medium, Medium::Sd { .. });
        vol.io(&mut self.board, self.config.sd_dma, 0, |io| {
            let written = f(io);
            if to_card {
                io.commit_pending()?;
                io.cache.flush(io.dev)?;
            }
            written
        })?;
        Ok(())
    }

    /// Installs a program image on the root filesystem under `/bin/<name>`.
    pub fn install_program_image(&mut self, image: &ProgramImage) -> KResult<()> {
        self.install_root_dir("/bin")?;
        let path = format!("/bin/{}", image.name);
        self.install_root_file(&path, &image.encode())
    }

    // ---- task creation ----------------------------------------------------------------------

    fn alloc_task_id(&mut self) -> TaskId {
        let id = self.next_task_id;
        self.next_task_id += 1;
        id
    }

    pub(crate) fn alloc_asid(&mut self) -> u64 {
        let id = self.next_asid;
        self.next_asid += 1;
        id
    }

    /// Spawns a kernel thread running `program`.
    pub fn spawn_kernel_thread(
        &mut self,
        name: &str,
        program: Box<dyn UserProgram>,
    ) -> KResult<TaskId> {
        let id = self.alloc_task_id();
        let mut task = Task::new(id, 0, name, true);
        task.mm = MmRef::KernelOnly;
        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        Ok(id)
    }

    /// Spawns a user task from an in-memory program image and an already
    /// instantiated program (the file-less exec of Prototype 3; also the
    /// entry point benches use to avoid filesystem dependence).
    pub fn spawn_user_program(
        &mut self,
        image: &ProgramImage,
        program: Box<dyn UserProgram>,
        parent: TaskId,
    ) -> KResult<TaskId> {
        // Prototype 1 is "a baremetal appliance for a single application":
        // without multitasking exactly one user task may exist.
        if !self.config.multitasking {
            let user_tasks = self.tasks.values().filter(|t| !t.kernel_thread).count();
            self.config
                .require(user_tasks == 0, "multitasking (a second task)")?;
        }
        let id = self.alloc_task_id();
        let mut task = Task::new(id, parent, image.name.clone(), false);

        if self.config.virtual_memory {
            let cost = self.board.cost.clone();
            let mut space = AddressSpace::new(&mut self.mm.frames, &mut self.board.mem)?;
            // Code at 0, data after it, heap after that, stack demand-paged.
            let code_len = image.code_size.max(1) as u64;
            let data_start = (code_len.div_ceil(FRAME_SIZE as u64) + 1) * FRAME_SIZE as u64;
            let data_len = image.data_size.max(1) as u64;
            let heap_start =
                data_start + (data_len.div_ceil(FRAME_SIZE as u64) + 1) * FRAME_SIZE as u64;
            let heap_len = image.heap_size.max(FRAME_SIZE as u32) as u64;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Code,
                0,
                code_len,
                MapFlags::user_code(),
                false,
            )?;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Data,
                data_start,
                data_len,
                MapFlags::user_data(),
                false,
            )?;
            space.add_region(
                &mut self.mm.frames,
                &mut self.board.mem,
                RegionKind::Heap,
                heap_start,
                heap_len,
                MapFlags::user_data(),
                false,
            )?;
            space.add_stack(&mut self.mm.frames, &mut self.board.mem)?;
            // Charge the exec work: one PTE write per mapped page plus the
            // copy of the code/data payload.
            let pages = space.stats().mapped_pages as u64;
            let exec_cycles = pages * (cost.pte_write + cost.frame_alloc)
                + cost.per_byte(cost.memmove_fast_per_byte_milli, code_len + data_len);
            self.board.charge_kernel(0, exec_cycles);
            let asid = self.alloc_asid();
            self.address_spaces.insert(asid, space);
            task.mm = MmRef::Owns(asid);
        }

        // Standard descriptors 0/1/2 -> console.
        if self.config.file_abstraction {
            let mut fds = FdTable::new();
            for _ in 0..3 {
                fds.install(OpenFile::new(
                    crate::vfs::FileKind::Device(crate::vfs::DeviceFile::Console),
                    crate::vfs::OpenFlags::rdwr(),
                ))?;
            }
            task.fds = fds;
        }

        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        if self.init_task == 0 {
            self.init_task = id;
        }
        Ok(id)
    }

    /// Spawns a registered program by name using a default image (no
    /// filesystem access). Convenient for tests and benches.
    pub fn spawn_registered(&mut self, name: &str, args: &[String]) -> KResult<TaskId> {
        let program = self.registry.instantiate(name, args)?;
        let image = ProgramImage::small(name);
        self.spawn_user_program(&image, program, 0)
    }

    // ---- exit/kill --------------------------------------------------------------------------

    pub(crate) fn handle_exit(&mut self, id: TaskId, code: i32) {
        let now = self.now_us();
        self.trace.record(
            now,
            0,
            TraceKind::Marker,
            Some(id),
            format_args!("exit {code}"),
        );
        // Close every fd (dropping pipe references). Without the background
        // flusher, descriptors that wrote to a disk filesystem get the same
        // write-back flush sys_close performs, so an exiting (or killed)
        // task still pays for its own dirty blocks and the device is left
        // consistent; with `kbio` running, the dirty extents drain in the
        // background instead. Exit cannot propagate a flush error, so a
        // failure is logged (and the blocks stay dirty for a retry) rather
        // than silently discarded.
        let (open_files, core) = match self.tasks.get_mut(&id) {
            Some(t) => (t.fds.drain_all(), t.core),
            None => return,
        };
        if !self.config.background_flush {
            for mount in Mount::ALL {
                let wrote = open_files.iter().any(|f| {
                    f.written && matches!(f.kind, FileKind::File { mount: m, .. } if m == mount)
                });
                if wrote {
                    if let Err(e) = self.flush_volume(mount, core, id) {
                        let name = mount.name();
                        self.printk(&format!("exit({id}): {name} write-back failed: {e}"));
                    }
                }
            }
        }
        for f in open_files {
            self.drop_open_file(f);
        }
        // Destroy WM surfaces and release the address space.
        self.wm.destroy_owned_by(id);
        self.fb_mappings.remove(&id);
        for waiter in self.sems.forget_task(id) {
            self.wake_task(waiter);
        }
        if let Some(task) = self.tasks.get(&id) {
            if let MmRef::Owns(asid) = task.mm {
                // Only release when no thread still shares it.
                let shared = self
                    .tasks
                    .iter()
                    .any(|(tid, t)| *tid != id && t.mm == MmRef::Shares(asid));
                if !shared {
                    if let Some(space) = self.address_spaces.remove(&asid) {
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "exit has no caller to report to, and the teardown must go on to free the task's other resources"
                        )]
                        let _ = space.release(&mut self.mm.frames, &self.board.mem);
                    }
                }
            }
        }
        self.programs.remove(&id);
        self.dequeue_task(id);
        let parent = if let Some(task) = self.tasks.get_mut(&id) {
            task.state = TaskState::Zombie(code);
            task.exit_code = Some(code);
            task.parent
        } else {
            return;
        };
        // Notify the parent.
        if let Some(p) = self.tasks.get_mut(&parent) {
            p.pending_children.push((id, code));
            if p.wake_if_waiting_on(WaitChannel::ChildExit) {
                let core = p.core;
                self.enqueue_task(parent, core);
            }
        }
    }

    pub(crate) fn drop_open_file(&mut self, f: OpenFile) {
        match f.kind {
            FileKind::Pipe { id, write_end } => {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "closing an end fails only for a pipe that is already gone, which leaves nothing to close"
                )]
                let _ = self.pipes.close_end(id, write_end);
                // Whoever is blocked on the other side should re-evaluate.
                self.wake_all(WaitChannel::PipeRead(id));
                self.wake_all(WaitChannel::PipeWrite(id));
            }
            FileKind::SurfaceHandle { surface_id } => {
                self.wm.destroy_surface(surface_id);
            }
            _ => {}
        }
    }

    // ---- runqueue wrappers ----------------------------------------------------------------------

    /// Enqueues `id` on `core`'s runqueue, maintaining the task's
    /// `queued_on` tag. This is the only path that may put a task on a
    /// runqueue: the tag replaces the scheduler's old O(n) duplicate scan
    /// (and its silent inactive-core clamp — the placed core is recorded,
    /// so wakeup charging follows the task). A task already queued, or
    /// currently running on its core, is left alone.
    pub(crate) fn enqueue_task(&mut self, id: TaskId, core: usize) {
        let Some(t) = self.tasks.get(&id) else {
            return;
        };
        if t.queued_on.is_some() || self.sched.current(t.core) == Some(id) {
            return;
        }
        let placed = self.sched.enqueue(id, core);
        if let Some(t) = self.tasks.get_mut(&id) {
            t.queued_on = Some(placed);
            t.core = placed;
        }
    }

    /// Removes `id` from the runqueues: one-queue fast path when its
    /// `queued_on` tag knows where it sits, full sweep otherwise (running
    /// or already-dequeued tasks, which must also vacate `current` slots).
    pub(crate) fn dequeue_task(&mut self, id: TaskId) {
        match self.tasks.get_mut(&id).and_then(|t| t.queued_on.take()) {
            Some(core) => self.sched.remove_from(id, core),
            None => self.sched.remove(id),
        }
    }

    // ---- wait queues ----------------------------------------------------------------------------

    /// Parks `task` on `channel`. A park only marks the task and takes it
    /// off the runqueue; the switch happens after the syscall returns. And
    /// since this takes `&mut Kernel`, no caller can hold a `&mut` borrow of
    /// a cache (or anything else in the kernel) across it: the compiler
    /// rejects parking under a borrow.
    pub(crate) fn block_current(&mut self, task: TaskId, channel: WaitChannel) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.block_on(channel);
        }
        self.dequeue_task(task);
    }

    pub(crate) fn wake_all(&mut self, channel: WaitChannel) -> usize {
        let mut woken = 0;
        let ids: Vec<TaskId> = self.tasks.keys().copied().collect();
        for id in ids {
            let mut wake_core = None;
            if let Some(t) = self.tasks.get_mut(&id) {
                if t.wake_if_waiting_on(channel) {
                    wake_core = Some(t.core);
                }
            }
            if let Some(core) = wake_core {
                let cost = self.board.cost.wait_wakeup;
                self.board.charge_kernel(core, cost);
                self.enqueue_task(id, core);
                self.trace
                    .record(self.board.now_us(), core, TraceKind::Wakeup, Some(id), "");
                woken += 1;
            }
        }
        woken
    }

    pub(crate) fn wake_task(&mut self, id: TaskId) {
        if let Some(t) = self.tasks.get_mut(&id) {
            if !matches!(t.state, TaskState::Zombie(_)) {
                t.state = TaskState::Ready;
                let core = t.core;
                self.enqueue_task(id, core);
            }
        }
    }

    // ---- interrupts -------------------------------------------------------------------------------

    fn handle_irq(&mut self, core: usize, irq: Interrupt) {
        let now = self.now_us();
        let cost = self.board.cost.irq_entry + self.board.cost.irq_delivery;
        self.board.charge_kernel(core, cost);
        self.trace
            .record(now, core, TraceKind::Irq, None, format_args!("{irq:?}"));
        match irq {
            Interrupt::SystemTimer1 => {
                self.sched.account_tick(core);
                self.board.systimer.clear_match(1);
                self.board.systimer.rearm_periodic(1, now);
            }
            Interrupt::GenericTimer(c) => {
                self.sched.account_tick(c);
            }
            Interrupt::UsbHc => {
                let events = self
                    .usb_stack
                    .poll_keyboards(&mut self.board.usb, now)
                    .unwrap_or_default();
                if !events.is_empty() {
                    let parse_cost = self.board.cost.hid_report_parse * events.len() as u64;
                    self.board.charge_kernel(core, parse_cost);
                    for e in &events {
                        self.trace.record(
                            now,
                            core,
                            TraceKind::KeyEventDriver,
                            None,
                            e.timestamp_us,
                        );
                    }
                    self.kbd.push_events(events);
                    self.wake_all(WaitChannel::KeyEvent);
                }
            }
            Interrupt::Dma0 => {
                // Channel-0 completions carry either audio refills or SD
                // scatter-gather chains. The SD ones flow back through the
                // driver (`finish_dma` applies the data phase; the adapter
                // kicks the next queued chain) and into the FAT cache's
                // in-flight state — this handler used to silently drop
                // them, which is why no storage byte ever moved by DMA.
                //
                // The interrupt controller routes Dma0 to core 0 only, but
                // each chain's completion bookkeeping is applied by the core
                // that *submitted* it: the cache's router applies this
                // core's chains inline and queues the rest for their owners
                // (reaped later in the same scheduler pass; queues of
                // since-deactivated cores are adopted by `kbio`).
                if let Some(vol) = self.volumes[Mount::Fat as usize].as_mut() {
                    if self.config.sd_dma {
                        vol.io(&mut self.board, true, core, |io| {
                            io.cache.route_completions(io.dev)
                        });
                    }
                }
                // Anything left (audio transfers) drains as before.
                let _ = self.board.dma.take_completions();
                self.sound.refill(&mut self.board.pwm);
                self.wake_all(WaitChannel::SoundSpace);
            }
            Interrupt::UartRx => {
                // Console input: drain into the console's input buffer for
                // `/dev/console` readers, and into the raw key queue as
                // synthetic key events so shells work over serial too.
                while let Some(b) = self.board.uart.read_byte() {
                    if self.console_input.len() < CONSOLE_INPUT_BYTES {
                        self.console_input.push_back(b);
                    }
                    let code = match b {
                        b'\r' | b'\n' => KeyCode::Enter,
                        b' ' => KeyCode::Space,
                        c if c.is_ascii_alphabetic() => {
                            KeyCode::Char((c as char).to_ascii_uppercase())
                        }
                        c if c.is_ascii_digit() => KeyCode::Digit(c as char),
                        other => KeyCode::Unknown(other),
                    };
                    self.kbd.push_events([KeyEvent {
                        code,
                        modifiers: Modifiers::default(),
                        pressed: true,
                        timestamp_us: now,
                    }]);
                }
                self.wake_all(WaitChannel::KeyEvent);
            }
            Interrupt::GpioBank0 => {
                let _ = self.board.gpio.take_pending_events();
            }
            Interrupt::SdHost | Interrupt::UartTx | Interrupt::SystemTimer3 => {}
            Interrupt::PanicButtonFiq => {
                self.debugmon.panic_button(core, now);
                self.printk("proto: panic button pressed, dumping all cores");
            }
        }
    }

    fn wake_sleepers(&mut self) {
        let now = self.now_us();
        let due: Vec<TaskId> = self
            .tasks
            .iter()
            .filter_map(|(id, t)| match t.state {
                TaskState::Sleeping(when) if when <= now => Some(*id),
                _ => None,
            })
            .collect();
        for id in due {
            self.wake_task(id);
        }
    }

    // ---- window-manager service (called from the WM kernel thread) ----------------------------------

    pub(crate) fn wm_service(&mut self, core: usize) {
        let now = self.now_us();
        // Dispatch raw input to the focused app.
        while let Some(event) = self.kbd.raw_queue.pop() {
            if let Some(passed) = self.wm.filter_input(event) {
                self.trace.record(
                    now,
                    core,
                    TraceKind::KeyEventDispatch,
                    self.wm.focused_owner(),
                    passed.timestamp_us,
                );
                self.kbd.dispatched_queue.push(passed);
            }
        }
        if !self.kbd.dispatched_queue.is_empty() {
            self.wake_all(WaitChannel::KeyEvent);
        }
        // Composite dirty surfaces.
        let mut fb = std::mem::take(&mut self.board.framebuffer);
        let written = self.wm.compose(&mut fb).unwrap_or(0);
        self.board.framebuffer = fb;
        if written > 0 {
            let cost = self.board.cost.clone();
            let compose_cycles = cost.per_byte(cost.compose_per_px_milli, written)
                + cost.cache_flush_per_line * (written * 4 / 64);
            self.board.charge_kernel(core, compose_cycles);
            self.trace.record(
                now,
                core,
                TraceKind::Compose,
                None,
                format_args!("{written}px"),
            );
        }
    }

    // ---- background write-back service (called from the kbio kernel thread) -------------------------

    /// One bounded write-back pass: drains up to [`KBIO_BUDGET_BLOCKS`]
    /// dirty blocks from each write-back cache, charging the SD / ramdisk
    /// cycles to the `kbio` thread's core and task. Errors are logged and the
    /// affected blocks stay dirty for the next pass (a faulted card must not
    /// panic or lose data).
    pub(crate) fn kbio_service(&mut self, core: usize) {
        // Adopt orphaned completions: the Dma0 router can queue a chain for
        // a core that has since left the active set (the Figure 10 sweep
        // shrinks it between phases). Nobody reaps those queues in
        // `run_slice`, so the flusher applies them here — a completion must
        // never strand dirty/pending state.
        for owner in self.board.active_cores()..hal::NUM_CORES {
            self.reap_routed(owner, core);
        }
        let kbio = self.kbio_task;
        let now = self.now_us();
        for mount in Mount::ALL {
            let vol = self.volumes[mount as usize].as_mut();
            // The group-commit timeout: a pending group that has sat open
            // past `FAT_GROUP_COMMIT_TIMEOUT_MS` is force-committed here, so
            // a lone logged operation (no burst following it, no fsync)
            // still becomes durable within a bounded window. The commit is
            // charged to kbio like any other background write-back.
            if vol.is_some_and(|v| v.group_overdue(now, FAT_GROUP_COMMIT_TIMEOUT_MS * 1000)) {
                if let Err(e) = self.commit_group(mount, core, kbio) {
                    self.printk(&format!("kbio: group commit failed: {e}"));
                }
            }
            // In DMA mode `flush_some` first reaps any chains that
            // completed since the last pass (surfacing their errors), then
            // *submits* up to the budget and returns. The adapter charges
            // each chain's command issue and bookkeeping to this core as it
            // submits the chain, and kbio is billed for them; the data
            // phase runs on the device timeline, so that CPU work is all
            // kbio pays on the card. On the ramdisk it pays the copies.
            let dirty = self
                .volume(mount)
                .is_some_and(|v| v.cache.dirty_blocks() > 0);
            if dirty {
                if let Err(e) = self.write_back(mount, core, kbio, Some(KBIO_BUDGET_BLOCKS)) {
                    let name = mount.name();
                    self.printk(&format!("kbio: {name} write-back failed: {e}"));
                }
            }
        }
    }

    /// Applies the SD completions the `Dma0` router queued for `owner`,
    /// charging their bookkeeping to `core`.
    fn reap_routed(&mut self, owner: usize, core: usize) {
        let fat = self.volumes[Mount::Fat as usize].as_mut();
        let applied = fat.map_or(0, |v| v.cache.reap_routed(owner)) as u64;
        if applied > 0 {
            let cost = self.board.cost.bufcache_op * applied;
            self.board.charge_kernel(core, cost);
        }
    }

    // ---- metrics ------------------------------------------------------------------------------------

    pub(crate) fn record_frame(&mut self, task: TaskId, phases: FramePhases) {
        let now = self.now_us();
        let m = self.metrics.entry(task).or_default();
        if m.frames == 0 {
            m.first_frame_us = now;
        }
        m.frames += 1;
        m.last_frame_us = now;
        m.app_logic_cycles += phases.app_logic_cycles;
        m.draw_cycles += phases.draw_cycles;
        m.present_cycles += phases.present_cycles;
        self.trace
            .record(now, 0, TraceKind::FramePresent, Some(task), "");
    }

    pub(crate) fn trace_marker(&mut self, task: TaskId, core: usize, detail: &str) {
        self.trace.record(
            self.board.now_us(),
            core,
            TraceKind::Marker,
            Some(task),
            detail,
        );
    }

    pub(crate) fn console_print(&mut self, core: usize, text: &str) {
        let cost = self.board.cost.uart_tx_per_byte * (text.len() as u64 + 1);
        self.board.charge(core, cost);
        self.board.uart.write_bytes(text.as_bytes());
        self.board.uart.write_byte(b'\n');
        self.console_lines.push(text.to_string());
    }

    pub(crate) fn charge_user_cycles(&mut self, task: TaskId, core: usize, cycles: u64) {
        let scaled = self.board.cost.user_cost(cycles);
        self.board.charge(core, scaled);
        if let Some(t) = self.tasks.get_mut(&task) {
            t.cpu_cycles += scaled;
        }
    }

    // ---- the scheduling loop ---------------------------------------------------------------------------

    /// Runs one scheduling iteration on the least-advanced active core.
    /// Returns `true` if a task was stepped (false means the core idled).
    pub fn run_slice(&mut self) -> bool {
        if let Err(e) = self.board.tick_devices() {
            self.printk(&format!("dma: transfer failed: {e}"));
        }
        // Deliver pending interrupts on every active core, then let each
        // core apply the SD completions the Dma0 router queued for it —
        // core 0 runs first, so chains another core submitted are reaped
        // by that core within the same pass (no completion ever waits for
        // a later slice).
        for core in 0..self.board.active_cores() {
            while let Some(irq) = self.board.intc.take_pending(core) {
                self.handle_irq(core, irq);
            }
            self.reap_routed(core, core);
        }
        // Any reaped completion — whichever core or path applied it — may
        // unblock a parked demand reader or back-pressured writer.
        let applied = self
            .volume(Mount::Fat)
            .map_or(0, |v| v.cache.completions_applied());
        if applied != self.sd_comps_seen {
            self.sd_comps_seen = applied;
            self.wake_all(WaitChannel::BlockIo);
        }
        self.wake_sleepers();

        // Pick the laggard active core so the cores advance together.
        let core = (0..self.board.active_cores())
            .min_by_key(|c| self.board.clock.cycles(*c))
            .unwrap_or(0);

        // `pick_next` requeues the previously-running task and pops the
        // next one; mirror both moves into the tasks' `queued_on` tags.
        let prev = self.sched.current(core);
        let next = self.sched.pick_next(core);
        if let Some(p) = prev {
            if next != Some(p) {
                if let Some(t) = self.tasks.get_mut(&p) {
                    t.queued_on = Some(core);
                }
            }
        }
        if let Some(n) = next {
            if let Some(t) = self.tasks.get_mut(&n) {
                t.queued_on = None;
            }
        }
        let tid = match next {
            Some(t) => t,
            None => {
                let before = self.board.clock.cycles(core);
                self.board.wait_for_interrupt(core);
                let after = self.board.clock.cycles(core);
                self.sched.account_idle(core, after - before);
                return false;
            }
        };
        if !self.tasks.contains_key(&tid) {
            self.sched.clear_current(core);
            return false;
        }
        // Charge scheduling overhead; a full context switch only when the
        // core is actually switching tasks.
        let cost = self.board.cost.clone();
        self.board.charge_kernel(core, cost.sched_pick);
        if self.last_on_core[core] != Some(tid) {
            self.board.charge_kernel(core, cost.context_switch);
            self.trace.record(
                self.board.now_us(),
                core,
                TraceKind::ContextSwitch,
                Some(tid),
                "",
            );
        }
        self.last_on_core[core] = Some(tid);
        if let Some(t) = self.tasks.get_mut(&tid) {
            t.state = TaskState::Running;
            t.core = core;
            t.schedules += 1;
        }

        let before = self.board.clock.cycles(core);
        let mut program = match self.programs.remove(&tid) {
            Some(p) => p,
            None => {
                // Task without a program (already exiting).
                self.sched.clear_current(core);
                return false;
            }
        };
        self.in_scheduled_step = true;
        let result = {
            let mut ctx = UserCtx::new(self, tid, core);
            program.step(&mut ctx)
        };
        self.in_scheduled_step = false;
        let after = self.board.clock.cycles(core);
        self.sched.account_busy(core, after - before);
        if let Some(t) = self.tasks.get_mut(&tid) {
            t.cpu_cycles += after - before;
        }

        match result {
            StepResult::Exited(code) => {
                self.programs.insert(tid, program);
                self.programs.remove(&tid);
                self.handle_exit(tid, code);
                self.sched.clear_current(core);
            }
            StepResult::Continue => {
                self.programs.insert(tid, program);
                // If the step blocked or slept, take it off the runqueue.
                let state = self.tasks.get(&tid).map(|t| t.state);
                match state {
                    Some(TaskState::Running) => {
                        if let Some(t) = self.tasks.get_mut(&tid) {
                            t.state = TaskState::Ready;
                        }
                    }
                    Some(TaskState::Sleeping(_)) | Some(TaskState::Blocked(_)) => {
                        self.sched.clear_current(core);
                    }
                    _ => {
                        self.sched.clear_current(core);
                    }
                }
            }
        }
        true
    }

    /// Runs the kernel until the board clock has advanced by `us`
    /// microseconds (across all cores).
    #[expect(
        clippy::panic,
        reason = "every slice charges its pick or idles to the next deadline, so the guard fires only on a simulator bug, and a panic there beats a hang"
    )]
    pub fn run_for_us(&mut self, us: u64) {
        let start = self.now_us();
        let mut guard = 0u64;
        while self.now_us() < start + us {
            self.run_slice();
            guard += 1;
            if guard > 50_000_000 {
                panic!("run_for_us: too many iterations without time advancing");
            }
        }
    }

    /// Runs until `pred` returns true or `max_us` of board time has elapsed.
    /// Returns whether the predicate was satisfied.
    pub fn run_until<F: FnMut(&Kernel) -> bool>(&mut self, mut pred: F, max_us: u64) -> bool {
        let start = self.now_us();
        while self.now_us() < start + max_us {
            if pred(self) {
                return true;
            }
            self.run_slice();
        }
        pred(self)
    }

    /// Advances every core's clock to the most-advanced core — a barrier.
    /// Device models run on the *global* (furthest-ahead) clock, so heavy
    /// single-core work such as asset installation leaves the other cores
    /// with virtual time the device has already lived through: a chain they
    /// submit would look instantaneous. Benches call this between setup and
    /// measurement so every core starts at the device's present.
    pub fn sync_core_clocks(&mut self) {
        let target = self.board.clock.global_cycles();
        for c in 0..hal::NUM_CORES {
            self.board.clock.advance_to(c, target);
        }
    }

    /// CPU utilisation per core over the run so far.
    pub fn core_utilisations(&self) -> Vec<f64> {
        (0..self.board.active_cores())
            .map(|c| self.sched.core_stats(c).utilisation())
            .collect()
    }

    /// A memory-usage snapshot (the §7.3 measurement).
    pub fn memory_snapshot(&self) -> crate::mm::MemSnapshot {
        self.mm.snapshot(&self.board.mem)
    }
}

// ---- internal helpers shared with the syscall layer ------------------------------------------

impl Kernel {
    pub(crate) fn tasks_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks.get_mut(&id)
    }

    pub(crate) fn task_asid(&self, task: TaskId) -> KResult<u64> {
        match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => Ok(asid),
            _ => Err(KernelError::NotSupported(
                "task has no user address space".into(),
            )),
        }
    }

    pub(crate) fn address_space_mut(&mut self, asid: u64) -> Option<&mut AddressSpace> {
        self.address_spaces.get_mut(&asid)
    }

    /// Read access to a task's address space (tests and benches use this to
    /// check translations).
    pub fn address_space_of(&self, task: TaskId) -> Option<&AddressSpace> {
        match self.task(task).map(|t| t.mm) {
            Some(MmRef::Owns(asid)) | Some(MmRef::Shares(asid)) => self.address_spaces.get(&asid),
            _ => None,
        }
    }

    pub(crate) fn take_address_space(&mut self, asid: u64) -> Option<AddressSpace> {
        self.address_spaces.remove(&asid)
    }

    pub(crate) fn put_address_space(&mut self, asid: u64, space: AddressSpace) {
        self.address_spaces.insert(asid, space);
    }

    pub(crate) fn spawn_forked_child(
        &mut self,
        parent: TaskId,
        name: &str,
        program: Box<dyn UserProgram>,
        mm: MmRef,
    ) -> KResult<TaskId> {
        let id = self.alloc_task_id();
        let mut task = Task::new(id, parent, name, false);
        task.mm = mm;
        if let Some(p) = self.task(parent) {
            task.priority = p.priority;
            task.cwd = p.cwd.clone();
        }
        let core = self.sched.choose_core();
        task.core = core;
        self.tasks.insert(id, task);
        self.programs.insert(id, program);
        self.metrics.insert(id, TaskMetrics::default());
        self.enqueue_task(id, core);
        Ok(id)
    }

    pub(crate) fn remove_task(&mut self, id: TaskId) {
        self.dequeue_task(id);
        self.tasks.remove(&id);
        self.programs.remove(&id);
    }

    pub(crate) fn any_child_of(&self, parent: TaskId) -> bool {
        self.tasks
            .values()
            .any(|t| t.parent == parent && t.id != parent)
    }

    pub(crate) fn pipes_create(&mut self) -> u64 {
        self.pipes.create()
    }

    pub(crate) fn pipes_read(
        &mut self,
        id: u64,
        max: usize,
    ) -> KResult<crate::pipe::PipeReadResult> {
        self.pipes.read(id, max)
    }

    pub(crate) fn pipes_write(
        &mut self,
        id: u64,
        data: &[u8],
    ) -> KResult<crate::pipe::PipeWriteResult> {
        self.pipes.write(id, data)
    }

    pub(crate) fn pipes_add_ref(&mut self, id: u64, write_end: bool) -> KResult<()> {
        self.pipes.add_ref(id, write_end)
    }

    pub(crate) fn sems_create(&mut self, value: i64) -> u64 {
        self.sems.create(value)
    }

    pub(crate) fn sems_wait(
        &mut self,
        id: u64,
        task: TaskId,
    ) -> KResult<crate::sync::SemWaitResult> {
        self.sems.wait(id, task)
    }

    pub(crate) fn sems_post(&mut self, id: u64) -> KResult<Option<TaskId>> {
        self.sems.post(id)
    }

    pub(crate) fn sd_snapshot(&self) -> SdSnapshot {
        SdSnapshot {
            single_cmds: self.board.sdhost.single_block_cmds(),
            range_cmds: self.board.sdhost.range_cmds(),
            blocks: self.board.sdhost.blocks_transferred(),
            prefetch_cmds: self.fat_cache_stats().prefetch_cmds,
            dma_reads: self.board.sdhost.dma_reads(),
            dma_writes: self.board.sdhost.dma_writes(),
            flush_cmds: self.board.sdhost.flush_cmds(),
        }
    }

    /// The volume mounted at `mount`, if any.
    pub(crate) fn volume(&self, mount: Mount) -> Option<&Volume> {
        self.volumes[mount as usize].as_ref()
    }

    /// Where `path` leads on this kernel's mounts, and the path within.
    pub(crate) fn resolve(&self, path: &str) -> (MountTarget, String) {
        crate::vfs::resolve(path, self.volume(Mount::Fat).is_some())
    }
}

impl Kernel {
    /// Runs `f` with a syscall context for `task`, as if that task had
    /// trapped into the kernel on core 0. Benchmarks and integration tests
    /// use this to drive individual syscalls and measure their cost without
    /// writing a full [`UserProgram`].
    pub fn with_task_ctx<R>(&mut self, task: TaskId, f: impl FnOnce(&mut UserCtx<'_>) -> R) -> R {
        let core = self.task(task).map(|t| t.core).unwrap_or(0);
        let mut ctx = UserCtx::new(self, task, core);
        f(&mut ctx)
    }

    /// Spawns an inert user task (it never runs on its own) that benches and
    /// tests can issue syscalls from via [`Kernel::with_task_ctx`].
    pub fn spawn_bench_task(&mut self, name: &str) -> KResult<TaskId> {
        struct Inert;
        impl UserProgram for Inert {
            fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a sleep cannot fail, and the inert task has no caller to report to"
                )]
                let _ = ctx.sleep_ms(1000);
                StepResult::Continue
            }
        }
        let image = ProgramImage::small(name);
        self.spawn_user_program(&image, Box::new(Inert), 0)
    }
}

impl Kernel {
    /// Enables or disables range-command coalescing in the FAT32 buffer
    /// cache (the §5.2 optimisation, now a cache policy rather than a cache
    /// bypass); used by the ablation benchmark.
    pub fn set_fat_range_coalescing(&mut self, coalesce: bool) {
        if let Some(vol) = self.volumes[Mount::Fat as usize].as_mut() {
            vol.cache.set_coalescing(coalesce);
        }
    }

    /// Enables or disables streaming read-ahead on the FAT32 cache (the
    /// prefetch half of the I/O-pipeline ablation).
    pub fn set_fat_prefetch(&mut self, prefetch: bool) {
        if let Some(vol) = self.volumes[Mount::Fat as usize].as_mut() {
            vol.cache.set_prefetch(prefetch);
        }
        self.config.prefetch = prefetch;
    }

    /// Enables or disables the SD DMA data path at runtime (the DMA half of
    /// the storage ablation). Disabling drains the async queue first —
    /// `close`-style semantics must never strand an in-flight chain — and
    /// drops the host back to polled transfers. If that barrier fails, its
    /// error is returned and the data path stays as it was.
    pub fn set_sd_dma(&mut self, enabled: bool) -> KResult<()> {
        if !enabled && self.config.sd_dma {
            // Barrier while the DMA context still exists.
            self.sync_all()?;
        }
        self.config.sd_dma = enabled && self.config.sd_card;
        self.board.sdhost.set_data_mode(if self.config.sd_dma {
            hal::sdhost::SdDataMode::Dma
        } else {
            hal::sdhost::SdDataMode::Pio
        });
        if self.config.sd_dma {
            self.board.intc.enable(Interrupt::Dma0);
        }
        Ok(())
    }

    /// Worst-case dirty ratio across the write-back caches (0.0 = both
    /// clean), the signal the adaptive flusher cadence runs on.
    pub fn cache_dirty_ratio(&self) -> f64 {
        self.volumes
            .iter()
            .flatten()
            .map(|v| v.cache.dirty_blocks() as f64 / v.cache.capacity_blocks().max(1) as f64)
            .fold(0.0, f64::max)
    }

    /// How long `kbio` should sleep before its next pass: a cache past the
    /// high-water mark quarters [`KBIO_INTERVAL_MS`], a completely clean
    /// pair of caches sleeps four intervals, anything in between keeps the
    /// midpoint cadence.
    pub fn kbio_next_interval_ms(&self) -> u64 {
        let ratio = self.cache_dirty_ratio();
        if ratio >= KBIO_HIGH_WATER {
            KBIO_INTERVAL_MS / 4
        } else if ratio > 0.0 {
            KBIO_INTERVAL_MS
        } else {
            KBIO_INTERVAL_MS * 4
        }
    }

    /// Called by the write paths after dirtying cache blocks: a cache past
    /// the high-water mark wakes a sleeping `kbio` immediately instead of
    /// letting dirty data pile up until the timer fires.
    pub(crate) fn maybe_kick_kbio(&mut self) {
        if self.kbio_task != 0 && self.cache_dirty_ratio() >= KBIO_HIGH_WATER {
            self.wake_task(self.kbio_task);
        }
    }

    /// Enables or disables blocking demand I/O: a scheduled task whose read
    /// hits an in-flight chain (or whose write finds the SD queue full)
    /// parks on [`WaitChannel::BlockIo`] and is woken by the completion
    /// router instead of spin-advancing its core's clock. Off by default —
    /// programs must treat `WouldBlock` as "retry later", which the stock
    /// demo apps' read loops do not.
    pub fn set_blocking_io(&mut self, on: bool) {
        self.config.blocking_io = on;
    }

    /// Replaces the FAT cache with a fresh one of `shards` ×
    /// `extents_per_shard` geometry under the configured FAT cache policies.
    /// The multicore scaling bench uses this to give N concurrent streams a
    /// resident working set. Synchronously drains both caches first so no
    /// dirty block or in-flight chain is stranded with the old instance.
    pub fn set_fat_cache_geometry(
        &mut self,
        shards: usize,
        extents_per_shard: usize,
    ) -> KResult<()> {
        self.sync_all()?;
        let cache =
            self.with_fat_cache_policies(BufCache::with_geometry(shards, extents_per_shard));
        if let Some(vol) = self.volumes[Mount::Fat as usize].as_mut() {
            vol.cache = cache;
        }
        Ok(())
    }

    /// `bc` under the configured cache policies: range coalescing (off only
    /// in the xv6 baseline, whose cache issues one SD command per block —
    /// the policy the §5.2 coalescing replaced) and read-ahead.
    fn with_cache_policies(&self, mut bc: BufCache) -> BufCache {
        bc.set_coalescing(self.config.variant == KernelVariant::Proto);
        bc.set_prefetch(self.config.prefetch);
        bc
    }

    /// `bc` under the FAT cache's policies: the shared ones plus soft
    /// shard-to-core affinity — the shards are partitioned across the
    /// active cores so each core's extents (and their write-back chains)
    /// live in its home shards. The root ramdisk cache has no device-queue
    /// contention to shelter from and keeps hashed placement.
    fn with_fat_cache_policies(&self, bc: BufCache) -> BufCache {
        let mut bc = self.with_cache_policies(bc);
        bc.set_core_affinity(self.board.active_cores());
        bc
    }

    /// Logged transactions sitting in the FAT intent log's open commit
    /// group.
    pub fn fat_group_txns(&self) -> u64 {
        self.fat_cache().map_or(0, BufCache::group_txns)
    }

    /// Occupancy histogram of the SD command queue as observed by the FAT
    /// cache's write path (index = in-flight commands after a submission).
    pub fn fat_queue_occupancy(&self) -> [u64; 9] {
        self.fat_cache().map_or([0; 9], BufCache::queue_occupancy)
    }

    /// The FAT32 volume's buffer cache (its policies and state, read-only),
    /// if the stage mounts the volume.
    pub fn fat_cache(&self) -> Option<&BufCache> {
        self.volume(Mount::Fat).map(|v| &v.cache)
    }

    /// The mounted FAT32 volume, if the stage has one.
    pub fn fat_volume(&self) -> Option<&Fat32> {
        match &self.volume(Mount::Fat)?.fs {
            FileSystem::Fat(fs, _) => Some(fs),
            FileSystem::Xv6(_) => None,
        }
    }

    /// The mounted root xv6fs volume, if the stage has one.
    pub fn root_volume(&self) -> Option<&Xv6Fs> {
        match &self.volume(Mount::Root)?.fs {
            FileSystem::Xv6(fs) => Some(fs),
            FileSystem::Fat(..) => None,
        }
    }

    /// Statistics of the FAT32 volume's buffer cache.
    pub fn fat_cache_stats(&self) -> protofs::bufcache::BufCacheStats {
        self.fat_cache().map(BufCache::stats).unwrap_or_default()
    }

    /// Per-shard statistics of the FAT32 cache — the scaling bench derives
    /// its load-imbalance figure (max over mean of per-shard lookups) from
    /// these.
    pub fn fat_shard_stats(&self) -> Vec<protofs::bufcache::ShardStats> {
        self.fat_cache()
            .map(BufCache::shard_stats)
            .unwrap_or_default()
    }

    /// Statistics of the root (xv6fs) buffer cache.
    pub fn root_cache_stats(&self) -> protofs::bufcache::BufCacheStats {
        let root = self.volume(Mount::Root);
        root.map(|v| v.cache.stats()).unwrap_or_default()
    }

    /// Dirty blocks awaiting write-back in the FAT32 cache.
    pub fn fat_dirty_blocks(&self) -> usize {
        self.fat_cache().map_or(0, BufCache::dirty_blocks)
    }

    /// Dirty blocks awaiting write-back in the root cache.
    pub fn root_dirty_blocks(&self) -> usize {
        self.volume(Mount::Root)
            .map_or(0, |v| v.cache.dirty_blocks())
    }

    /// The `kbio` background flusher's task id (0 when it is not running).
    pub fn kbio_task(&self) -> TaskId {
        self.kbio_task
    }

    /// Storage-stack cycles charged to a task so far (SD commands/transfers
    /// and ramdisk write-back it caused, including background write-back
    /// accumulated by `kbio`).
    pub fn task_sd_cycles(&self, id: TaskId) -> u64 {
        self.tasks.get(&id).map(|t| t.sd_cycles).unwrap_or(0)
    }

    /// Unmount-style barrier: synchronously drains *both* write-back caches
    /// to their devices, propagating the first error. `fsync` covers one
    /// filesystem for one task; this is the whole-system "safe to power off"
    /// point (and what a shutdown path would call).
    pub fn sync_all(&mut self) -> KResult<()> {
        for mount in Mount::ALL {
            self.flush_volume(mount, 0, self.kbio_task)?;
        }
        Ok(())
    }

    /// Drains both write-back caches, then drops every clean cached block —
    /// the `drop_caches` facility. Benchmarks call it between a write and a
    /// read so the read measures cold-cache device throughput instead of the
    /// cache's copy speed.
    pub fn drop_fs_caches(&mut self) -> KResult<()> {
        self.sync_all()?;
        for vol in self.volumes.iter_mut().flatten() {
            vol.cache.invalidate_all();
        }
        Ok(())
    }

    /// A copy of the root ramdisk's raw image — what would actually be on the
    /// "card" after a power cut (dirty cache contents excluded). Crash-
    /// consistency tests remount this under a fresh cache.
    pub fn ramdisk_image(&self) -> Option<Vec<u8>> {
        match &self.volume(Mount::Root)?.medium {
            Medium::Ramdisk(disk) => Some(disk.image()),
            Medium::Sd { .. } => None,
        }
    }

    /// The root volume's ramdisk, if one is mounted: tests inject its faults
    /// and power cuts here, as they do the SD card's through
    /// `board.sdhost.card`.
    pub fn ramdisk(&mut self) -> Option<&mut MemDisk> {
        match &mut self.volumes[Mount::Root as usize].as_mut()?.medium {
            Medium::Ramdisk(disk) => Some(disk),
            Medium::Sd { .. } => None,
        }
    }
}

impl Kernel {
    /// Total key events the keyboard driver has received from the USB stack.
    pub fn kbd_events_received(&self) -> u64 {
        self.kbd.events_received
    }
}
