//! Kernel error codes.
//!
//! Proto keeps UNIX-like kernel interfaces so existing apps and libraries
//! (DOOM, SDL) port with minimal changes (§3). Syscalls therefore fail with a
//! small errno-style set of codes; `WouldBlock` doubles as the signal that a
//! task has been put to sleep on a wait queue and should simply return from
//! its step and wait to be re-run.

use protofs::FsError;

/// Errors returned by syscalls and kernel-internal operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The operation would block; the calling task has been placed on the
    /// relevant wait queue (unless the file was opened non-blocking, in which
    /// case this is simply EAGAIN).
    WouldBlock,
    /// No such file, directory, task or object.
    NotFound(String),
    /// Object already exists.
    AlreadyExists(String),
    /// Bad file descriptor.
    BadFd(i32),
    /// Invalid argument.
    Invalid(String),
    /// Permission/privilege violation (e.g. EL0 attempting a kernel-only op).
    Permission(String),
    /// Out of memory (frames, kernel heap, or address-space limits).
    NoMemory,
    /// No space left on a filesystem.
    NoSpace,
    /// The feature is not available in the current prototype stage.
    NotSupported(String),
    /// Too many open files / tasks / semaphores.
    LimitExceeded(String),
    /// The other end of a pipe is closed.
    BrokenPipe,
    /// A fault the kernel chose to kill the task for (e.g. repeated page
    /// faults at the same address, as §4.3 describes).
    Fault(String),
    /// An error bubbled up from the filesystem layer.
    Fs(FsError),
    /// An error bubbled up from a device model.
    Device(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::WouldBlock => write!(f, "operation would block"),
            KernelError::NotFound(s) => write!(f, "not found: {s}"),
            KernelError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            KernelError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            KernelError::Invalid(s) => write!(f, "invalid argument: {s}"),
            KernelError::Permission(s) => write!(f, "permission denied: {s}"),
            KernelError::NoMemory => write!(f, "out of memory"),
            KernelError::NoSpace => write!(f, "no space left on device"),
            KernelError::NotSupported(s) => write!(f, "not supported in this prototype: {s}"),
            KernelError::LimitExceeded(s) => write!(f, "limit exceeded: {s}"),
            KernelError::BrokenPipe => write!(f, "broken pipe"),
            KernelError::Fault(s) => write!(f, "fault: {s}"),
            KernelError::Fs(e) => write!(f, "filesystem error: {e}"),
            KernelError::Device(s) => write!(f, "device error: {s}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<FsError> for KernelError {
    // Every `FsError` variant is mapped explicitly: rustc's exhaustiveness
    // check fails the build on a variant this match does not name, and the
    // denied clippy lint keeps a catch-all arm from coming back, so a new
    // filesystem error cannot silently lose its errno shape.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound(s) => KernelError::NotFound(s),
            FsError::AlreadyExists(s) => KernelError::AlreadyExists(s),
            FsError::NoSpace => KernelError::NoSpace,
            FsError::WouldBlock => KernelError::WouldBlock,
            // The storage-specific shapes keep their FsError payload: the
            // syscall layer reports them verbatim rather than flattening
            // them into a less precise kernel code.
            e @ (FsError::Io(_)
            | FsError::NotADirectory(_)
            | FsError::IsADirectory(_)
            | FsError::TooLarge(_)
            | FsError::NotEmpty(_)
            | FsError::Corrupt(_)
            | FsError::Invalid(_)) => KernelError::Fs(e),
        }
    }
}

impl From<hal::HalError> for KernelError {
    fn from(e: hal::HalError) -> Self {
        KernelError::Device(e.to_string())
    }
}

impl From<protousb::UsbError> for KernelError {
    fn from(e: protousb::UsbError) -> Self {
        KernelError::Device(e.to_string())
    }
}

/// Result alias for kernel operations.
pub type KResult<T> = Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_errors_map_to_kernel_errors() {
        assert_eq!(
            KernelError::from(FsError::NotFound("x".into())),
            KernelError::NotFound("x".into())
        );
        assert_eq!(KernelError::from(FsError::NoSpace), KernelError::NoSpace);
        assert_eq!(
            KernelError::from(FsError::WouldBlock),
            KernelError::WouldBlock
        );
        assert!(matches!(
            KernelError::from(FsError::Corrupt("bad".into())),
            KernelError::Fs(_)
        ));
    }

    #[test]
    fn errors_render_readable_messages() {
        let e = KernelError::BadFd(7);
        assert!(e.to_string().contains('7'));
        assert!(KernelError::WouldBlock.to_string().contains("block"));
    }
}
