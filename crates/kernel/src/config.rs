//! Prototype stages and Table 1's kernel half.
//!
//! Proto is developed as one complete OS and then decomposed into five
//! incremental, self-contained prototypes (§1.2, §5.5). Each prototype is a
//! configuration of the same code base: a set of kernel features, user
//! libraries and target applications. [`Feature`] is Table 1's kernel half,
//! declared once: each kernel-core, file and IO row with the first prototype
//! that has it. A [`KernelConfig`] keeps only what a build chooses beside
//! its stage, and [`KernelConfig::has`] derives every feature from the
//! stage, so no build can mix features Table 1 does not allow. The kernel
//! asks it at boot and at syscall entry ([`crate::syscalls::Sysno`]'s gates),
//! so asking Prototype 2 for virtual memory or Prototype 4 for threads fails
//! the same way it would in the course.

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
    /// An xv6-armv8-like configuration: same mechanisms, crash safety
    /// included, but with the single-block filesystem path everywhere (the
    /// buffer cache issues one SD command per block instead of coalescing
    /// ranges), no read-ahead or background flusher, a polled SD driver,
    /// and a musl-like user library penalty on compute.
    /// [`KernelConfig::with_variant`] sets only the variant: the kernel
    /// reads it at boot ([`KernelConfig::storage_pipeline`]) and leaves the
    /// storage pipeline off.
    Xv6Baseline,
}

/// Declares [`Feature`] from Table 1's kernel half: per section, each row's
/// variant, first prototype and Table 1 name, in Table 1's order.
macro_rules! features {
    ($($section:literal {
        $($(#[$doc:meta])* $feature:ident = $first:ident $name:literal,)*
    })*) => {
        /// A row of Table 1's "Kernel core", "Files" and "IO" sections.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Feature {
            $($($(#[$doc])* $feature,)*)*
        }

        impl Feature {
            /// Every feature, in Table 1's order.
            pub const ALL: &'static [Feature] = &[$($(Feature::$feature),*),*];

            /// The first prototype that has the feature; every later one
            /// keeps it.
            pub fn first(self) -> PrototypeStage {
                match self {
                    $($(Feature::$feature => PrototypeStage::$first,)*)*
                }
            }

            /// Table 1's section: "Kernel core", "Files" or "IO".
            pub fn section(self) -> &'static str {
                match self {
                    $($(Feature::$feature)|* => $section,)*
                }
            }

            /// Table 1's name for the feature.
            pub fn name(self) -> &'static str {
                match self {
                    $($(Feature::$feature => $name,)*)*
                }
            }
        }
    };
}

features! {
    "Kernel core" {
        /// Debug messages over the UART. Nothing checks it.
        DebugMsg = Baremetal "debug msg",
        /// Timers and timekeeping. Nothing checks it.
        Timekeeping = Baremetal "timer, timekeeping",
        /// Interrupt handling. Nothing checks it.
        Irq = Baremetal "irq",
        /// More than one task: the scheduler.
        Multitasking = Multitasking "multitasking",
        /// The page-based allocator. Nothing checks it.
        MemoryAllocator = Multitasking "memory allocator",
        /// The EL0/EL1 split. Nothing checks it.
        Privileges = UserKernel "privileges (EL0/1)",
        /// Virtual memory with per-task address spaces.
        VirtualMemory = UserKernel "virtual memory",
        /// Task syscalls (the [`crate::syscalls::Sysno`] rows that need it).
        SyscallsTasks = UserKernel "syscalls: tasks & time",
        /// File syscalls (the `Sysno` rows that need it).
        SyscallsFiles = Files "syscalls: files",
        /// Threading and synchronisation syscalls (the `Sysno` rows that
        /// need it).
        SyscallsThreading = Desktop "syscalls: threading",
        /// Multicore scheduling, each core ticked by its own generic timer.
        Multicore = Desktop "multicore",
        /// The kernel-thread window manager, unless the build drops it
        /// ([`KernelConfig::window_manager`]).
        WindowManager = Desktop "window manager",
    }
    "Files" {
        /// The file abstraction: standard descriptors and the VFS.
        FileAbstraction = Files "file abstraction",
        /// `/proc` and `/dev`. Nothing checks it.
        ProcfsDevfs = Files "procfs/devfs",
        /// The root ramdisk. Nothing checks it.
        Ramdisk = Files "ramdisk",
        /// The xv6 filesystem on the ramdisk, mounted at `/`.
        Xv6fs = Files "xv6 filesystem",
        /// FAT32 on the SD card, mounted at `/d`.
        Fat32 = Desktop "FAT32",
    }
    "IO" {
        /// The UART console. Nothing checks it.
        Uart = Baremetal "UART",
        /// The system and generic timers. Nothing checks it.
        Timers = Baremetal "timers (sys, generic)",
        /// Framebuffer output.
        Framebuffer = Baremetal "framebuffer",
        /// USB keyboard input.
        UsbKeyboard = Files "USB keyboard",
        /// PWM + DMA sound output.
        Sound = Files "sound (PWM)",
        /// The SD card driver.
        SdCard = Desktop "SD card",
    }
}

/// A kernel build: its prototype stage, which [`Feature`]s that stage has
/// ([`KernelConfig::has`]), and what a build chooses beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Which prototype this configuration corresponds to.
    pub stage: PrototypeStage,
    /// Which kernel variant (Proto or the xv6 baseline).
    pub variant: KernelVariant,
    /// Whether the build keeps [`Feature::WindowManager`] once its stage
    /// has it. Benches that measure direct rendering drop it.
    pub window_manager: bool,
    /// Number of CPU cores the kernel will bring up.
    pub cores: usize,
    /// Interrupt-blocked demand I/O: a scheduled task whose FAT read hits
    /// an in-flight chain (or whose write finds the SD queue full) blocks
    /// on the block-I/O wait channel and is woken once a completion has
    /// been applied, instead of spin-advancing its core's clock until the
    /// chain lands.
    /// Off by default even on Desktop: a caller must treat `WouldBlock`
    /// as "retry later". DOOM and the media players load their assets
    /// through a resumable whole-file loader that does; coreutils'
    /// `read_file` still fails its command on the error, and the shell's,
    /// slider's, sysmon's and the NES ROM loader's read loops stop at it.
    /// Benches and tests that opt in use `Kernel::set_blocking_io`.
    pub blocking_io: bool,
}

impl KernelConfig {
    /// The configuration of a given prototype stage (Table 1's columns).
    pub fn for_stage(stage: PrototypeStage) -> Self {
        let multicore = stage >= Feature::Multicore.first();
        KernelConfig {
            stage,
            variant: KernelVariant::Proto,
            window_manager: stage >= Feature::WindowManager.first(),
            cores: if multicore { 4 } else { 1 },
            blocking_io: false,
        }
    }

    /// Whether this build has `feature`: its stage has reached the
    /// feature's first prototype, and the build has not dropped the window
    /// manager.
    pub fn has(&self, feature: Feature) -> bool {
        self.stage >= feature.first() && (feature != Feature::WindowManager || self.window_manager)
    }

    /// The full Prototype 5 configuration (the complete OS).
    pub fn desktop() -> Self {
        Self::for_stage(PrototypeStage::Desktop)
    }

    /// This configuration under `variant`. The xv6-armv8 baseline of
    /// Figure 9 keeps the stage's mechanisms, the crash-safe storage stack
    /// included (the ordered drain, the FAT intent log and the xv6fs
    /// journal are always on), but none of Proto's storage-pipeline
    /// evolutions ([`KernelConfig::storage_pipeline`]). The kernel also
    /// turns off range coalescing for the variant, and the SD path charges
    /// the baseline driver's slowdown.
    pub fn with_variant(mut self, variant: KernelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Whether the kernel boots Proto's storage pipeline over the SD card:
    /// the SD host's scatter-gather DMA data path with its asynchronous
    /// command queue, streaming read-ahead on the FAT cache, and the `kbio`
    /// flusher thread, which drains dirty extents in the background so
    /// `close` does not (its cadence and budget are the `KBIO_*` constants
    /// in `kernel.rs`). The xv6 baseline boots none of them: a polled
    /// driver, no read-ahead, and a `close` that drains synchronously.
    /// After boot each lives where it acts — the host's data mode, the
    /// cache's read-ahead flag and `Kernel::kbio_task` — and the ablation
    /// switches flip it there.
    pub fn storage_pipeline(&self) -> bool {
        self.has(Feature::SdCard) && self.variant == KernelVariant::Proto
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
        use Feature::*;
        let p1 = KernelConfig::for_stage(PrototypeStage::Baremetal);
        assert!(p1.has(Framebuffer));
        assert!(!p1.has(Multitasking) && !p1.has(VirtualMemory) && !p1.has(FileAbstraction));

        let p2 = KernelConfig::for_stage(PrototypeStage::Multitasking);
        assert!(p2.has(Multitasking) && !p2.has(VirtualMemory));

        let p3 = KernelConfig::for_stage(PrototypeStage::UserKernel);
        assert!(p3.has(VirtualMemory) && p3.has(SyscallsTasks) && !p3.has(SyscallsFiles));

        let p4 = KernelConfig::for_stage(PrototypeStage::Files);
        assert!(p4.has(SyscallsFiles) && p4.has(Xv6fs) && p4.has(UsbKeyboard) && p4.has(Sound));
        assert!(!p4.has(Multicore) && !p4.has(Fat32) && !p4.has(SyscallsThreading));

        let p5 = KernelConfig::for_stage(PrototypeStage::Desktop);
        assert!(p5.has(Multicore) && p5.has(Fat32) && p5.has(WindowManager));
        assert!(p5.has(SyscallsThreading));
        assert_eq!(p5.cores, 4);
        let direct = KernelConfig {
            window_manager: false,
            ..p5
        };
        assert!(!direct.has(WindowManager) && direct.has(Fat32));
        let forced = KernelConfig {
            window_manager: true,
            ..p4
        };
        assert!(!forced.has(WindowManager), "a build cannot add a feature");
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
        let err = p2
            .require(p2.has(Feature::VirtualMemory), "virtual memory")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("virtual memory"));
        assert!(msg.contains("Multitasking"));
        assert!(p2
            .require(p2.has(Feature::Multitasking), "multitasking")
            .is_ok());
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
