//! Platform cost models.
//!
//! The paper evaluates Proto on three platforms (Table 3): the Raspberry Pi 3
//! itself, QEMU on Ubuntu under WSL2, and QEMU on Ubuntu inside VMware
//! Player. We cannot measure the physical platforms, so every operation in
//! the simulation charges virtual cycles according to a [`CostModel`]. The
//! Pi 3 model is calibrated against the absolute numbers the paper reports
//! (3.4 µs `getpid`, 21 µs one-byte pipe IPC, several-hundred-KB/s FAT32
//! throughput, ~60 FPS DOOM, ~27 FPS 480p video, ...); the QEMU models apply
//! the relative factors implied by Table 5. The goal is to preserve the
//! *shape* of every figure — who wins, by roughly what factor, and where the
//! crossovers are — not to re-measure silicon.

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;
use crate::sdhost::DmaTraffic;

/// The evaluation platforms of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Raspberry Pi 3 model B+ with a Samsung EVO MicroSD card.
    Pi3,
    /// QEMU on Ubuntu in WSL2 on Windows 11 (Intel Ultra 7 155H host).
    QemuWsl,
    /// QEMU on Ubuntu in VMware Player on Windows 11 (same host).
    QemuVm,
}

impl Platform {
    /// All platforms, in the order the paper's tables list them.
    pub const ALL: [Platform; 3] = [Platform::Pi3, Platform::QemuWsl, Platform::QemuVm];

    /// Human-readable name matching Table 3.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Pi3 => "Pi3",
            Platform::QemuWsl => "qemu-wsl",
            Platform::QemuVm => "qemu-vm",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycle costs for every class of operation the kernel, drivers, user library
/// and applications perform.
///
/// Costs are expressed at the Pi 3's 1 GHz core clock, so one cycle equals
/// one nanosecond on that platform. The `user_compute_factor` and
/// `kernel_factor` fields scale application-level compute and kernel-path
/// costs respectively for the emulated platforms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// Which platform this model describes.
    pub platform: Platform,
    /// Core clock frequency in Hz.
    pub cpu_freq_hz: u64,
    /// Multiplier applied to user/application compute costs
    /// (1.0 on the Pi 3; < 1.0 on the faster emulated hosts).
    pub user_compute_factor: f64,
    /// Multiplier applied to kernel-path costs (syscall entry, context
    /// switch, IPC, page-table manipulation).
    pub kernel_factor: f64,

    // ---- trap / scheduling paths -------------------------------------------------
    /// Fixed cost of entering and leaving the kernel for a syscall
    /// (exception entry, register save/restore, dispatch). Calibrated so a
    /// trivial syscall such as `getpid` costs about 3.4 µs on the Pi 3.
    pub syscall_entry_exit: Cycles,
    /// Per-syscall dispatch/bookkeeping cost on top of entry/exit.
    pub syscall_dispatch: Cycles,
    /// Cost of a full context switch (save/restore callee registers, switch
    /// stacks and TTBR0, TLB maintenance).
    pub context_switch: Cycles,
    /// Cost of one scheduler decision (runqueue scan + pick).
    pub sched_pick: Cycles,
    /// Cost of taking an IRQ (vector entry, acknowledging the controller).
    pub irq_entry: Cycles,
    /// Cost of waking a task blocked on a wait queue.
    pub wait_wakeup: Cycles,
    /// Extra cost on each side of a pipe transfer (locking, buffer indexing).
    pub pipe_op: Cycles,
    /// Cost per byte copied through a pipe.
    pub pipe_copy_per_byte_milli: u64,

    // ---- memory management -------------------------------------------------------
    /// Cost of allocating a physical frame.
    pub frame_alloc: Cycles,
    /// Cost of writing one page-table descriptor (including table walks to
    /// reach it).
    pub pte_write: Cycles,
    /// Cost of a software page-table walk (used when the kernel translates
    /// addresses on behalf of a user task).
    pub pt_walk: Cycles,
    /// Cost of handling a page fault (exception entry, VMA lookup, map,
    /// return).
    pub page_fault: Cycles,
    /// Cost per 4 KB page copied during `fork()` — Proto copies eagerly,
    /// which is why its fork is ~17x slower than Linux's lazy copy.
    pub fork_copy_per_page: Cycles,
    /// Fixed overhead of `fork()` beyond per-page copying.
    pub fork_base: Cycles,
    /// Cost of a kernel heap allocation (kmalloc).
    pub kmalloc_op: Cycles,
    /// Cost of a user-level malloc/free pair in the bundled allocator.
    pub umalloc_op: Cycles,

    // ---- bulk memory and compute --------------------------------------------------
    /// Milli-cycles per byte for the optimised ARMv8-assembly `memmove`
    /// described in §5.2 (value 250 = 0.25 cycles/byte).
    pub memmove_fast_per_byte_milli: u64,
    /// Milli-cycles per byte for the naive byte-loop `memmove`.
    pub memmove_slow_per_byte_milli: u64,
    /// Milli-cycles per byte for `memset`.
    pub memset_per_byte_milli: u64,
    /// Milli-cycles per byte hashed by the md5sum benchmark with our libc.
    pub md5_per_byte_milli: u64,
    /// Milli-cycles per element-comparison in the qsort benchmark.
    pub qsort_per_cmp_milli: u64,
    /// Relative penalty of the musl-based xv6 userspace on compute
    /// benchmarks (the paper attributes its win over xv6-armv8 on md5sum and
    /// qsort to newlib vs musl).
    pub musl_compute_penalty: f64,

    // ---- graphics ------------------------------------------------------------------
    /// Milli-cycles per pixel written to a surface or the framebuffer.
    pub pixel_draw_per_px_milli: u64,
    /// Milli-cycles per pixel converted YUV→RGB with the SIMD path of §5.2.
    pub pixel_convert_simd_per_px_milli: u64,
    /// Milli-cycles per pixel converted YUV→RGB with the scalar path.
    pub pixel_convert_scalar_per_px_milli: u64,
    /// Milli-cycles per pixel composited by the window manager.
    pub compose_per_px_milli: u64,
    /// Cost per 64-byte cache line cleaned/invalidated by `dc civac`-style
    /// maintenance (the per-frame framebuffer flush of §4.3).
    pub cache_flush_per_line: Cycles,

    // ---- storage --------------------------------------------------------------------
    /// Latency of issuing one command to the SD host and polling it to
    /// completion (no data phase).
    pub sd_cmd_latency: Cycles,
    /// Per-512-byte-block data-phase cost when the driver polls the FIFO
    /// (the paper's driver does not use DMA).
    pub sd_block_poll_transfer: Cycles,
    /// Per-block incremental cost inside a multi-block range transfer
    /// (amortises the command latency; used by the buffer cache's coalesced
    /// range fills and write-backs, §5.2).
    pub sd_range_block_transfer: Cycles,
    /// Per-block cost of the SD data phase when the controller streams it by
    /// scatter-gather DMA instead of the CPU polling the FIFO. Charged to the
    /// *device* timeline (the completion deadline of the programmed control
    /// block chain), not the CPU — the whole point of the DMA data path is
    /// that the CPU overlaps it. Calibrated well below the polled rates: a
    /// UHS-class card freed from the byte-at-a-time FIFO streams a 512-byte
    /// block in single-digit microseconds, which is what makes transfer
    /// overlap (read-ahead) visible at all.
    pub sd_dma_block_transfer: Cycles,
    /// Latency of the card's cache FLUSH command: programming the posted
    /// write cache's contents to flash and waiting for the busy line. The
    /// barrier cost every fsync / commit record pays when the posted cache
    /// is enabled; calibrated so a per-fsync barrier stays well under 5% of
    /// a megabyte-scale batched write-back.
    pub sd_flush_latency: Cycles,
    /// Cost of a buffer-cache lookup/insert.
    pub bufcache_op: Cycles,
    /// Per-byte cost of copying between the buffer cache and user memory.
    pub bufcache_copy_per_byte_milli: u64,
    /// Per-byte cost of ramdisk block access (memory to memory).
    pub ramdisk_per_byte_milli: u64,

    // ---- asynchronous IO ---------------------------------------------------------------
    /// Latency from a device raising an interrupt to the first instruction of
    /// the kernel handler.
    pub irq_delivery: Cycles,
    /// Cost of parsing one HID report in the USB keyboard driver.
    pub hid_report_parse: Cycles,
    /// Cost of setting up one DMA control block.
    pub dma_setup: Cycles,
    /// Milli-cycles per byte moved by the DMA engine (charged to the device
    /// timeline, not the CPU).
    pub dma_per_byte_milli: u64,
    /// UART cost per byte written synchronously (polling for FIFO space at
    /// 115200 baud dominates this).
    pub uart_tx_per_byte: Cycles,

    // ---- app workload knobs ---------------------------------------------------------
    /// Milli-cycles per "game-logic unit" executed by the DOOM-like engine.
    pub doom_logic_per_unit_milli: u64,
    /// Milli-cycles per ray cast by the DOOM-like renderer.
    pub doom_ray_per_column_milli: u64,
    /// Milli-cycles per NES-engine logic unit (sprite updates, physics).
    pub nes_logic_per_unit_milli: u64,
    /// Milli-cycles per video-codec block decoded (8x8 block IDCT-like work).
    pub video_block_decode_milli: u64,
    /// Milli-cycles per audio sample decoded by the PCM codec.
    pub audio_sample_decode_milli: u64,
    /// Milli-cycles per hash evaluated by the blockchain miner.
    pub hash_per_round_milli: u64,
    /// Extra per-frame cost of routing the app's rendering through the full
    /// newlib-like C library and minisdl layers (the paper observes that
    /// mario-sdl's app logic is slower than the leaner variants for this
    /// reason).
    pub sdl_layer_per_frame: Cycles,

    // ---- boot -----------------------------------------------------------------------
    /// Time (in cycles) the GPU firmware spends loading the kernel image from
    /// the SD card before the ARM cores start. The paper measures 2753 ms.
    pub boot_firmware_load: Cycles,
    /// Kernel-side USB controller + device enumeration time during boot.
    pub boot_usb_init: Cycles,
    /// Kernel-side SD card initialisation time during boot.
    pub boot_sd_init: Cycles,
    /// Remaining kernel initialisation (page tables, ramdisk mount, spawning
    /// init/shell).
    pub boot_kernel_misc: Cycles,
}

impl CostModel {
    /// Cost model calibrated for the Raspberry Pi 3 at 1 GHz.
    pub fn pi3() -> Self {
        CostModel {
            platform: Platform::Pi3,
            cpu_freq_hz: 1_000_000_000,
            user_compute_factor: 1.0,
            kernel_factor: 1.0,

            syscall_entry_exit: 2_900,
            syscall_dispatch: 500,
            context_switch: 3_800,
            sched_pick: 600,
            irq_entry: 900,
            wait_wakeup: 1_100,
            pipe_op: 2_400,
            pipe_copy_per_byte_milli: 2_000,

            frame_alloc: 350,
            pte_write: 180,
            pt_walk: 60,
            page_fault: 3_200,
            fork_copy_per_page: 1_450,
            fork_base: 9_000,
            kmalloc_op: 300,
            umalloc_op: 420,

            memmove_fast_per_byte_milli: 250,
            memmove_slow_per_byte_milli: 1_050,
            memset_per_byte_milli: 220,
            md5_per_byte_milli: 5_800,
            qsort_per_cmp_milli: 22_000,
            musl_compute_penalty: 1.55,

            // YUV→RGB conversion dominates the §5.2 video frame: at 480p the
            // SIMD path costs ~29 ms/frame (≈27 FPS with decode + present on
            // top, matching Table 5) and the scalar path 3x that (~10 FPS),
            // reproducing the paper's ~3x ablation gap. The earlier split
            // (10_000/30_000 with an 8_500_000-milli block decode) buried
            // conversion under decode and flattened the ablation to ~1.1x.
            pixel_draw_per_px_milli: 8_000,
            pixel_convert_simd_per_px_milli: 95_000,
            pixel_convert_scalar_per_px_milli: 285_000,
            compose_per_px_milli: 3_000,
            cache_flush_per_line: 9,

            sd_cmd_latency: 110_000,
            sd_block_poll_transfer: 1_250_000,
            sd_range_block_transfer: 470_000,
            sd_dma_block_transfer: 6_000,
            sd_flush_latency: 180_000,
            bufcache_op: 800,
            bufcache_copy_per_byte_milli: 600,
            ramdisk_per_byte_milli: 400,

            irq_delivery: 1_400,
            hid_report_parse: 2_600,
            dma_setup: 2_200,
            dma_per_byte_milli: 120,
            uart_tx_per_byte: 87_000 / 10, // ~8.7 µs/char at 115200 baud

            doom_logic_per_unit_milli: 12_000_000,
            doom_ray_per_column_milli: 12_000_000,
            nes_logic_per_unit_milli: 21_500_000,
            video_block_decode_milli: 1_200_000,
            audio_sample_decode_milli: 2_000,
            hash_per_round_milli: 1_000_000,
            sdl_layer_per_frame: 5_000_000,

            boot_firmware_load: 2_753_000_000,
            boot_usb_init: 290_000_000,
            boot_sd_init: 58_000_000,
            boot_kernel_misc: 85_000_000,
        }
    }

    /// Cost model for QEMU on Ubuntu in WSL2 (Table 3's `qemu-wsl`).
    ///
    /// The Intel Ultra 7 host executes the (emulated) app compute roughly
    /// 1.6x faster than the A53, while emulated kernel traps remain
    /// comparatively expensive.
    pub fn qemu_wsl() -> Self {
        let mut m = Self::pi3();
        m.platform = Platform::QemuWsl;
        m.user_compute_factor = 0.62;
        m.kernel_factor = 0.80;
        // QEMU's SD card is backed by a host file: block access is far
        // cheaper than the real polled EMMC.
        m.sd_cmd_latency = 18_000;
        m.sd_block_poll_transfer = 90_000;
        m.sd_range_block_transfer = 42_000;
        m.sd_dma_block_transfer = 2_000;
        m.sd_flush_latency = 30_000;
        m.boot_firmware_load = 400_000_000;
        m.boot_usb_init = 120_000_000;
        m
    }

    /// Cost model for QEMU on Ubuntu in VMware Player (Table 3's `qemu-vm`).
    ///
    /// Slightly slower raw compute than WSL2 (an extra virtualisation layer)
    /// but noticeably cheaper trap handling, which is why `mario-proc` and
    /// `mario-sdl` — syscall- and IPC-heavy — run fastest there in Table 5.
    pub fn qemu_vm() -> Self {
        let mut m = Self::pi3();
        m.platform = Platform::QemuVm;
        m.user_compute_factor = 0.67;
        m.kernel_factor = 0.42;
        m.sd_cmd_latency = 20_000;
        m.sd_block_poll_transfer = 100_000;
        m.sd_range_block_transfer = 46_000;
        m.sd_dma_block_transfer = 2_200;
        m.sd_flush_latency = 34_000;
        m.boot_firmware_load = 420_000_000;
        m.boot_usb_init = 130_000_000;
        m
    }

    /// Returns the model for a [`Platform`].
    pub fn for_platform(platform: Platform) -> Self {
        match platform {
            Platform::Pi3 => Self::pi3(),
            Platform::QemuWsl => Self::qemu_wsl(),
            Platform::QemuVm => Self::qemu_vm(),
        }
    }

    /// Scales a kernel-path cost by the platform's kernel factor.
    pub fn kernel_cost(&self, cycles: Cycles) -> Cycles {
        ((cycles as f64) * self.kernel_factor).round() as Cycles
    }

    /// Scales a user-compute cost by the platform's user factor.
    pub fn user_cost(&self, cycles: Cycles) -> Cycles {
        ((cycles as f64) * self.user_compute_factor).round() as Cycles
    }

    /// Converts a per-byte milli-cycle rate into cycles for `bytes` bytes.
    pub fn per_byte(&self, milli_per_byte: u64, bytes: u64) -> Cycles {
        milli_per_byte.saturating_mul(bytes) / 1000
    }

    /// Cost of a trivial syscall (entry + dispatch + exit), kernel-scaled.
    pub fn trivial_syscall(&self) -> Cycles {
        self.kernel_cost(self.syscall_entry_exit + self.syscall_dispatch)
    }

    /// Cost of the optimised memmove for `bytes` bytes, user-scaled.
    pub fn memmove_fast(&self, bytes: u64) -> Cycles {
        self.user_cost(self.per_byte(self.memmove_fast_per_byte_milli, bytes))
    }

    /// Cost of the naive memmove for `bytes` bytes, user-scaled.
    pub fn memmove_slow(&self, bytes: u64) -> Cycles {
        self.user_cost(self.per_byte(self.memmove_slow_per_byte_milli, bytes))
    }

    /// Device-timeline duration of one scatter-gather control block moving
    /// `blocks` 512-byte SD blocks: the engine's setup cost, the card's
    /// DMA-mode data phase, and the engine's streaming rate for the payload.
    pub fn sd_dma_run(&self, blocks: u64) -> Cycles {
        let bytes = blocks.saturating_mul(512);
        self.dma_setup
            .saturating_add(blocks.saturating_mul(self.sd_dma_block_transfer))
            .saturating_add(self.per_byte(self.dma_per_byte_milli, bytes))
    }

    /// CPU work the SD driver spends on scatter-gather DMA chains: one
    /// command issue per chain, one control block per contiguous run, and
    /// per block the completion bookkeeping plus the bounce copy between the
    /// DMA region and the cache. The data phase is not included; it runs on
    /// the device timeline ([`Self::sd_dma_run`]). The price is linear in
    /// each count, so chains priced one at a time sum to their total's price.
    pub fn sd_dma_cpu(&self, chains: DmaTraffic) -> Cycles {
        let per_block = self
            .bufcache_op
            .saturating_add(self.per_byte(self.memmove_fast_per_byte_milli, 512));
        chains
            .cmds
            .saturating_mul(self.sd_cmd_latency)
            .saturating_add(chains.control_blocks.saturating_mul(self.dma_setup))
            .saturating_add(chains.blocks.saturating_mul(per_block))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::pi3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi3_trivial_syscall_is_about_3_4_us() {
        let m = CostModel::pi3();
        let c = m.trivial_syscall();
        // 1 cycle == 1 ns at 1 GHz; the paper reports 3.4 +/- 0.04 us.
        assert!(
            c > 3_000 && c < 3_800,
            "syscall cost {c} outside 3.0-3.8 us"
        );
    }

    #[test]
    fn emulated_platforms_run_user_code_faster() {
        let pi = CostModel::pi3();
        let wsl = CostModel::qemu_wsl();
        let vm = CostModel::qemu_vm();
        let work = 1_000_000;
        assert!(wsl.user_cost(work) < pi.user_cost(work));
        assert!(vm.user_cost(work) < pi.user_cost(work));
    }

    #[test]
    fn qemu_vm_has_cheapest_kernel_paths() {
        let wsl = CostModel::qemu_wsl();
        let vm = CostModel::qemu_vm();
        assert!(vm.trivial_syscall() < wsl.trivial_syscall());
    }

    #[test]
    fn per_byte_costs_scale_linearly() {
        let m = CostModel::pi3();
        assert_eq!(m.per_byte(1_000, 64), 64);
        assert_eq!(m.per_byte(250, 4096), 1024);
    }

    #[test]
    fn fast_memmove_beats_slow_by_3x_or_more() {
        let m = CostModel::pi3();
        let fast = m.memmove_fast(1 << 20);
        let slow = m.memmove_slow(1 << 20);
        assert!(slow >= 3 * fast, "slow {slow} should be >= 3x fast {fast}");
    }

    #[test]
    fn for_platform_round_trips() {
        for p in Platform::ALL {
            assert_eq!(CostModel::for_platform(p).platform, p);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn dma_data_phase_is_far_below_the_polled_floor() {
        let m = CostModel::pi3();
        // One block by DMA (setup amortised over a long run) vs the polled
        // FIFO: the driver evolution the §5.2 follow-on models. The per-block
        // DMA cost must sit well under even the amortised range rate.
        let per_block_dma = m.sd_dma_run(256) / 256;
        assert!(
            per_block_dma * 10 < m.sd_range_block_transfer,
            "dma {per_block_dma} cycles/block should be >=10x below the \
             {} range rate",
            m.sd_range_block_transfer
        );
        assert!(per_block_dma * 100 < m.sd_block_poll_transfer);
    }

    #[test]
    fn dma_chain_cpu_prices_chains_one_at_a_time_or_summed_alike() {
        let m = CostModel::pi3();
        let chain = |control_blocks, blocks| DmaTraffic {
            cmds: 1,
            control_blocks,
            blocks,
        };
        let (a, b) = (chain(1, 128), chain(3, 7));
        let both = DmaTraffic {
            cmds: 2,
            control_blocks: 4,
            blocks: 135,
        };
        assert_eq!(m.sd_dma_cpu(a) + m.sd_dma_cpu(b), m.sd_dma_cpu(both));
        // Command issue, one control block, and 0.25 cycles/byte of bounce
        // copy plus the cache's bookkeeping for each block.
        assert_eq!(
            m.sd_dma_cpu(a),
            m.sd_cmd_latency + m.dma_setup + 128 * (m.bufcache_op + 128)
        );
    }

    #[test]
    fn scalar_pixel_conversion_is_about_3x_simd() {
        let m = CostModel::pi3();
        let ratio =
            m.pixel_convert_scalar_per_px_milli as f64 / m.pixel_convert_simd_per_px_milli as f64;
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }
}
