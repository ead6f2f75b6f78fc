//! The Proto kernel.
//!
//! A Rust reproduction of the kernel described in *Proto: A Guided Journey
//! through Modern OS Construction* (SOSP '25): a monolithic, xv6-influenced
//! kernel for a (simulated) Raspberry Pi 3 that grows across five prototypes
//! from a bare-metal framebuffer appliance to a quad-core desktop with a
//! window manager. See the crate-level documentation of each module for the
//! paper sections it reproduces:
//!
//! * [`config`] — prototype stages and the Table 1 feature matrix.
//! * [`mm`] — frames, page tables, address spaces, demand paging (§4.3).
//! * [`sched`] / [`task`] — multitasking (§4.2) and multicore (§4.5).
//! * [`vfs`], [`pipe`], [`syscalls`] — the file abstraction and the 29
//!   UNIX-like syscalls (§3, §4.4).
//! * [`kbd`], [`sound`], [`wm`] — the device files behind `/dev/events`,
//!   `/dev/sb` and `/dev/surface`.
//! * [`exec`] — program images and the (file-less and file-backed) exec.
//! * [`trace`], [`debug`] — self-hosted debugging (§5.1).
//! * [`kernel`] — the assembled [`kernel::Kernel`]: boot and the scheduler
//!   loop.
//! * [`usercall`] — the [`usercall::UserProgram`] trait applications
//!   implement and the [`usercall::UserCtx`] syscall surface they call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom backstop (see clippy.toml for the method list and the
// rationale): production code may not unwrap/expect; unit tests may.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod config;
pub mod debug;
pub mod error;
pub mod exec;
pub mod kbd;
pub mod kernel;
pub mod mm;
pub mod pipe;
pub mod sched;
pub mod sound;
pub mod sync;
pub mod syscalls;
pub mod task;
pub mod trace;
pub mod usercall;
pub mod vfs;
pub mod wm;

pub use config::{KernelConfig, KernelVariant, PrototypeStage};
pub use error::{KResult, KernelError};
pub use exec::{ProgramImage, ProgramRegistry};
pub use kernel::{BootStats, Kernel, SharedKeyboard, TaskMetrics};
pub use task::{Task, TaskId, TaskState};
pub use usercall::{FileStat, FramePhases, StepResult, UserCtx, UserProgram};
pub use vfs::{DeviceFile, OpenFlags};
