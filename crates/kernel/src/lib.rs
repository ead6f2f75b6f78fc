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
//! * [`vfs`], [`pipe`], [`syscalls`] — the file abstraction and the
//!   UNIX-like syscalls, declared once in [`syscalls::Sysno`] (§3, §4.4).
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
// Panic freedom: a torn image, a hostile syscall argument or a full queue
// must surface as an error, never a panic. Production code may not unwrap,
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

pub use config::{Feature, KernelConfig, KernelVariant, PrototypeStage};
pub use error::{KResult, KernelError};
pub use exec::{ProgramImage, ProgramRegistry};
pub use kernel::{BootStats, Kernel, SharedKeyboard, TaskMetrics};
pub use syscalls::Sysno;
pub use task::{Task, TaskId, TaskState};
pub use usercall::{FileStat, FramePhases, StepResult, UserCtx, UserProgram};
pub use vfs::{DeviceFile, OpenFlags};
