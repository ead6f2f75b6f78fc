//! Simulated Raspberry Pi 3 hardware for the Proto-RS reproduction.
//!
//! The paper's artifact runs bare-metal on a Raspberry Pi 3 (BCM2837: four
//! Cortex-A53 cores at 1 GHz, 1 GB of DRAM, a SoC system timer, per-core ARM
//! generic timers, a VideoCore mailbox + framebuffer, PL011/mini UART, GPIO,
//! PWM audio fed by a DMA engine, an EMMC SD host and a USB host controller).
//! This crate models that board as a deterministic, laptop-runnable
//! simulation:
//!
//! * [`clock`] — per-core virtual cycle counters; all "time" in the
//!   reproduction is virtual.
//! * [`cost`] — per-platform cost models (Pi3, QEMU-on-WSL, QEMU-on-VMware)
//!   mapping operations to cycles, so that benchmark *shapes* can be
//!   regenerated without the physical board.
//! * [`mem`] — sparse physical memory with frame granularity.
//! * [`intc`] — the interrupt controller (IRQ + FIQ routing).
//! * [`systimer`] / [`generic_timer`] — SoC timer and per-core generic timers.
//! * [`uart`], [`mailbox`], [`framebuffer`], [`gpio`], [`pwm`], [`dma`],
//!   [`sdhost`], [`usb_hw`] — device models with the same interface contracts
//!   the paper's drivers program against.
//! * [`disk`] — the simulated disk under both block devices: the SD host's
//!   card and the kernel's ramdisk, with their faults, power cuts and posted
//!   write cache.
//! * [`cache`] — a write-back cache model that reproduces the
//!   "stale framebuffer lines until flushed" behaviour discussed in §4.3 of
//!   the paper.
//! * [`power`] — activity-based power accounting used for Figure 12.
//! * [`board`] — the assembled [`board::SimBoard`].
//!
//! The kernel crate programs these devices the way the paper's C drivers do:
//! it polls status registers, enables interrupt lines, starts DMA transfers
//! and performs explicit cache maintenance. Only the instruction-level ISA is
//! replaced by native Rust execution plus cycle accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic freedom: a bad address, a faulting transfer or a full queue must
// surface as an error, never a panic. Production code may not unwrap,
// expect or panic; unit tests may. A deliberate panic carries an
// `#[expect(..., reason = "...")]` that says why no input reaches it.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Discarded results: production code handles or returns a fallible
// call's error, or drops it under an `#[expect]` whose reason says why.
#![cfg_attr(
    not(test),
    warn(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

pub mod board;
pub mod cache;
pub mod clock;
pub mod cost;
pub mod disk;
pub mod dma;
pub mod framebuffer;
pub mod generic_timer;
pub mod gpio;
pub mod intc;
pub mod mailbox;
pub mod mem;
pub mod power;
pub mod pwm;
pub mod sdhost;
pub mod systimer;
pub mod uart;
pub mod usb_hw;

pub use board::SimBoard;
pub use clock::{Clock, CoreId, Cycles};
pub use cost::{CostModel, Platform};
pub use intc::{Interrupt, IrqController};
pub use mem::{PhysAddr, PhysMem, FRAME_SIZE};

/// Number of CPU cores on the simulated board (the Pi 3 has four Cortex-A53).
pub const NUM_CORES: usize = 4;

/// Amount of simulated DRAM in bytes (the Pi 3 ships with 1 GB).
pub const DRAM_SIZE: u64 = 1 << 30;

/// Base physical address where memory-mapped peripherals live on the BCM2837.
pub const PERIPHERAL_BASE: u64 = 0x3F00_0000;

/// Result type used across the HAL for device-level failures.
pub type HalResult<T> = Result<T, HalError>;

/// Errors surfaced by the simulated devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HalError {
    /// An access touched a physical address outside DRAM and MMIO windows.
    BadAddress(u64),
    /// A device command referenced an out-of-range unit (block, channel, pin...).
    OutOfRange(String),
    /// The device was in the wrong state for the requested operation.
    InvalidState(String),
    /// The operation failed due to injected hardware error (used by tests).
    InjectedFault(String),
    /// A DMA or FIFO transfer underran or overran.
    Overrun(String),
}

impl std::fmt::Display for HalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HalError::BadAddress(a) => write!(f, "bad physical address {a:#x}"),
            HalError::OutOfRange(s) => write!(f, "out of range: {s}"),
            HalError::InvalidState(s) => write!(f, "invalid device state: {s}"),
            HalError::InjectedFault(s) => write!(f, "injected hardware fault: {s}"),
            HalError::Overrun(s) => write!(f, "overrun/underrun: {s}"),
        }
    }
}

impl std::error::Error for HalError {}
