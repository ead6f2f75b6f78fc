//! Proto-RS: a Rust reproduction of *Proto: A Guided Journey through Modern
//! OS Construction* (SOSP '25).
//!
//! This crate is a thin facade re-exporting the workspace's building blocks;
//! `CHANGES.md` at the repository root records how the design got here,
//! `ROADMAP.md` what is still open, and the `bench` crate reproduces the
//! paper's tables and figures.
//!
//! ```
//! use proto_repro::prelude::*;
//!
//! let mut sys = ProtoSystem::prototype(PrototypeStage::Baremetal).unwrap();
//! let donut = sys.spawn("donut", &[]).unwrap();
//! sys.run_ms(200);
//! assert!(sys.kernel.task_metrics(donut).unwrap().frames > 0);
//! ```

#![forbid(unsafe_code)]

pub use apps;
pub use hal;
pub use kernel;
pub use proto;
pub use protofs;
pub use protousb;
pub use ulib;

/// The most commonly used types, for examples and downstream users.
pub mod prelude {
    pub use hal::cost::Platform;
    pub use kernel::{
        KernelConfig, KernelVariant, PrototypeStage, StepResult, UserCtx, UserProgram,
    };
    pub use proto::prototype::{ProtoSystem, SystemOptions};
    pub use protousb::{KeyCode, Modifiers};
}
