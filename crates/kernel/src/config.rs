//! Prototype stages and the kernel feature matrix (Table 1).
//!
//! Proto is developed as one complete OS and then decomposed into five
//! incremental, self-contained prototypes (§1.2, §5.5). Each prototype is a
//! configuration of the same code base: a set of kernel capabilities, user
//! libraries and target applications. [`KernelConfig`] encodes exactly the
//! feature matrix of Table 1; the kernel consults it at boot and at syscall
//! entry, so asking Prototype 2 for virtual memory or Prototype 4 for
//! threads fails the same way it would in the course.

use serde::{Deserialize, Serialize};

/// The five incremental prototypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PrototypeStage {
    /// Prototype 1: "Baremetal IO" — a single bare-metal app, framebuffer,
    /// polled UART, timers, IRQs.
    Baremetal = 1,
    /// Prototype 2: "Multitasking" — preemptive scheduler, sleep, WFI idle,
    /// page-based allocator; everything still in one privilege level.
    Multitasking = 2,
    /// Prototype 3: "User vs. Kernel" — EL0/EL1 split, virtual memory, demand
    /// paging, file-less exec, first syscalls.
    UserKernel = 3,
    /// Prototype 4: "Files" — file abstraction, xv6fs on ramdisk,
    /// devfs/procfs, USB keyboard, PWM+DMA sound, pipes.
    Files = 4,
    /// Prototype 5: "Desktop" — threads, semaphores, multicore, FAT32 on SD,
    /// non-blocking IO, window manager.
    Desktop = 5,
}

impl PrototypeStage {
    /// All stages in order.
    pub const ALL: [PrototypeStage; 5] = [
        PrototypeStage::Baremetal,
        PrototypeStage::Multitasking,
        PrototypeStage::UserKernel,
        PrototypeStage::Files,
        PrototypeStage::Desktop,
    ];

    /// The stage number (1–5).
    pub fn number(&self) -> u8 {
        *self as u8
    }

    /// The name the paper uses for this prototype.
    pub fn name(&self) -> &'static str {
        match self {
            PrototypeStage::Baremetal => "Baremetal IO",
            PrototypeStage::Multitasking => "Multitasking",
            PrototypeStage::UserKernel => "User vs. Kernel",
            PrototypeStage::Files => "Files",
            PrototypeStage::Desktop => "Desktop",
        }
    }
}

/// Which kernel is being benchmarked: Proto itself or the xv6-armv8 baseline
/// configuration used for the Figure 9 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelVariant {
    /// The Proto kernel as described in the paper.
    Proto,
    /// An xv6-armv8-like configuration: same mechanisms, but with the
    /// single-block filesystem path everywhere (the buffer cache issues one
    /// SD command per block instead of coalescing ranges), the slower
    /// memmove, and a musl-like user library penalty on compute.
    /// [`KernelConfig::with_variant`] sets its storage-pipeline values.
    Xv6Baseline,
}

/// The per-prototype kernel feature matrix (the "Kernel core", "Files" and
/// "IO" sections of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Which prototype this configuration corresponds to.
    pub stage: PrototypeStage,
    /// Which kernel variant (Proto or the xv6 baseline).
    pub variant: KernelVariant,

    // ---- kernel core ----
    /// Debug messages over the UART.
    pub debug_msg: bool,
    /// Timers and timekeeping.
    pub timers: bool,
    /// IRQ handling.
    pub irq: bool,
    /// Multitasking (scheduler).
    pub multitasking: bool,
    /// Memory allocator (page-based in Prototypes 2–3, kmalloc from 4 on).
    pub memory_allocator: bool,
    /// Kernel heap allocator (kmalloc) rather than page-only allocation.
    pub kmalloc: bool,
    /// EL0/EL1 privilege separation.
    pub privileges: bool,
    /// Virtual memory with per-task address spaces.
    pub virtual_memory: bool,
    /// Task and time syscalls (fork, exit, sleep, sbrk, write).
    pub syscalls_tasks: bool,
    /// File syscalls (open, close, read, write, lseek).
    pub syscalls_files: bool,
    /// Threading and synchronisation syscalls (clone, semaphores).
    pub syscalls_threading: bool,
    /// Multicore scheduling.
    pub multicore: bool,
    /// The kernel-thread window manager.
    pub window_manager: bool,

    // ---- files ----
    /// The file abstraction / VFS.
    pub file_abstraction: bool,
    /// procfs and devfs.
    pub procfs_devfs: bool,
    /// Ramdisk block device.
    pub ramdisk: bool,
    /// The xv6 filesystem.
    pub xv6fs: bool,
    /// FAT32 on the SD card.
    pub fat32: bool,

    // ---- IO ----
    /// UART (always present; mode differs per stage).
    pub uart: bool,
    /// Framebuffer output.
    pub framebuffer: bool,
    /// USB keyboard input.
    pub usb_keyboard: bool,
    /// PWM + DMA sound output.
    pub sound: bool,
    /// SD card driver.
    pub sd_card: bool,
    /// Number of CPU cores the kernel will bring up.
    pub cores: usize,

    // ---- I/O pipeline (the layer above the unified block cache) ----
    /// Run the `kbio` kernel flusher thread: dirty extents drain in the
    /// background on an adaptive timer instead of synchronously on `close`,
    /// so write-back SD cycles are charged to `kbio` rather than to whichever
    /// task closes last. `fsync` and unmount still force a full synchronous
    /// flush. The cadence, per-pass budget and group-commit timeout are the
    /// `KBIO_*` and `FAT_GROUP_COMMIT_*` constants in `kernel.rs`.
    pub background_flush: bool,
    /// Streaming read-ahead: FAT32 sequential reads prefetch the next
    /// cluster run so the SD command-setup latency overlaps the previous
    /// transfer.
    pub prefetch: bool,
    /// Dependency-ordered write-back: the caches drain dirty data blocks
    /// before the metadata (FAT sectors, dirents, inodes, bitmaps) that
    /// references them, so a power cut mid-drain never exposes a file
    /// pointing at unwritten clusters. Off only in the xv6 baseline, which
    /// drains in pure LBA order.
    pub ordered_writeback: bool,
    /// FAT32 multi-sector metadata updates (mkdir, rename, remove, file
    /// overwrite) commit through the on-volume intent log, replayed at
    /// mount — making them atomic across power cuts. With the log on, one
    /// commit record covers a group of up to `FAT_GROUP_COMMIT_OPS`
    /// transactions; `fsync`, `sync_all` and the flusher's timeout pass
    /// force a pending group out.
    pub fat_intent_log: bool,
    /// SD data phases move by scatter-gather DMA through the asynchronous
    /// command queue instead of the CPU polling the FIFO — the driver
    /// evolution that lifts the polled-transfer floor. Off in the xv6
    /// baseline, whose driver stays polled.
    pub sd_dma: bool,
    /// Interrupt-blocked demand I/O: a scheduled task whose FAT read hits
    /// an in-flight chain (or whose write finds the SD queue full) blocks
    /// on the block-I/O wait channel and is woken by the completion router,
    /// instead of spin-advancing its core's clock until the chain lands.
    /// Off by default even on Desktop — callers must treat `WouldBlock` as
    /// "retry later", which the stock demo apps' read loops do not; benches
    /// and tests that opt in use `Kernel::set_blocking_io`.
    pub blocking_io: bool,
    /// xv6fs metadata journaling: create/unlink/truncate/overwrite commit
    /// through the root volume's on-disk write-ahead log (replayed at
    /// mount), making each operation atomic across power cuts. Off in the
    /// xv6 baseline, which tolerates the classic torn states (a dirent
    /// naming a still-free inode, a half-applied overwrite).
    pub xv6fs_journal: bool,
}

impl KernelConfig {
    /// The configuration of a given prototype stage (Table 1's columns).
    pub fn for_stage(stage: PrototypeStage) -> Self {
        let n = stage.number();
        KernelConfig {
            stage,
            variant: KernelVariant::Proto,
            debug_msg: true,
            timers: true,
            irq: true,
            multitasking: n >= 2,
            memory_allocator: n >= 2,
            kmalloc: n >= 4,
            privileges: n >= 3,
            virtual_memory: n >= 3,
            syscalls_tasks: n >= 3,
            syscalls_files: n >= 4,
            syscalls_threading: n >= 5,
            multicore: n >= 5,
            window_manager: n >= 5,
            file_abstraction: n >= 4,
            procfs_devfs: n >= 4,
            ramdisk: n >= 4,
            xv6fs: n >= 4,
            fat32: n >= 5,
            uart: true,
            framebuffer: true,
            usb_keyboard: n >= 4,
            sound: n >= 4,
            sd_card: n >= 5,
            cores: if n >= 5 { 4 } else { 1 },
            background_flush: n >= 5,
            prefetch: n >= 5,
            ordered_writeback: true,
            fat_intent_log: true,
            sd_dma: n >= 5,
            blocking_io: false,
            xv6fs_journal: true,
        }
    }

    /// The full Prototype 5 configuration (the complete OS).
    pub fn desktop() -> Self {
        Self::for_stage(PrototypeStage::Desktop)
    }

    /// This configuration under `variant`. The xv6-armv8 baseline of
    /// Figure 9 keeps the stage's mechanisms but none of Proto's storage
    /// evolutions: no background flusher (close drains synchronously), no
    /// read-ahead, pure-LBA drain order, no intent log or xv6fs journal,
    /// and a polled SD driver. The kernel also turns off range coalescing
    /// and shard affinity for the variant, and the SD path charges the
    /// baseline driver's slowdown.
    pub fn with_variant(mut self, variant: KernelVariant) -> Self {
        self.variant = variant;
        if variant == KernelVariant::Xv6Baseline {
            self.background_flush = false;
            self.prefetch = false;
            self.ordered_writeback = false;
            self.fat_intent_log = false;
            self.xv6fs_journal = false;
            self.sd_dma = false;
        }
        self
    }

    /// Checks that a capability needed by a syscall or driver is present,
    /// returning a uniform error message otherwise.
    pub fn require(&self, present: bool, what: &str) -> crate::error::KResult<()> {
        if present {
            Ok(())
        } else {
            Err(crate::error::KernelError::NotSupported(format!(
                "{what} (prototype {} \"{}\")",
                self.stage.number(),
                self.stage.name()
            )))
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::desktop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_table1_milestones() {
        let p1 = KernelConfig::for_stage(PrototypeStage::Baremetal);
        assert!(p1.framebuffer && p1.irq && p1.timers);
        assert!(!p1.multitasking && !p1.virtual_memory && !p1.file_abstraction);

        let p2 = KernelConfig::for_stage(PrototypeStage::Multitasking);
        assert!(p2.multitasking && !p2.privileges);

        let p3 = KernelConfig::for_stage(PrototypeStage::UserKernel);
        assert!(p3.virtual_memory && p3.syscalls_tasks && !p3.syscalls_files);

        let p4 = KernelConfig::for_stage(PrototypeStage::Files);
        assert!(p4.syscalls_files && p4.xv6fs && p4.usb_keyboard && p4.sound);
        assert!(!p4.multicore && !p4.fat32 && !p4.syscalls_threading);

        let p5 = KernelConfig::for_stage(PrototypeStage::Desktop);
        assert!(p5.multicore && p5.fat32 && p5.window_manager && p5.syscalls_threading);
        assert_eq!(p5.cores, 4);
    }

    #[test]
    fn stages_are_ordered_and_named() {
        assert!(PrototypeStage::Baremetal < PrototypeStage::Desktop);
        assert_eq!(PrototypeStage::Files.number(), 4);
        assert_eq!(PrototypeStage::Desktop.name(), "Desktop");
        assert_eq!(PrototypeStage::ALL.len(), 5);
    }

    #[test]
    fn require_reports_the_stage_in_the_error() {
        let p2 = KernelConfig::for_stage(PrototypeStage::Multitasking);
        let err = p2.require(p2.virtual_memory, "virtual memory").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("virtual memory"));
        assert!(msg.contains("Multitasking"));
        assert!(p2.require(p2.multitasking, "multitasking").is_ok());
    }

    #[test]
    fn xv6_baseline_is_a_distinct_variant() {
        let b = KernelConfig::desktop().with_variant(KernelVariant::Xv6Baseline);
        assert_eq!(b.variant, KernelVariant::Xv6Baseline);
        assert_ne!(b.variant, KernelConfig::desktop().variant);
        assert_eq!(
            KernelConfig::desktop().with_variant(KernelVariant::Proto),
            KernelConfig::desktop(),
            "the Proto variant is the stage's own configuration"
        );
    }
}
