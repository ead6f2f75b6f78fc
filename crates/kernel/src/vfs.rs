//! The VFS layer: file descriptors, open-file objects, mounts and volumes.
//!
//! Prototype 4 introduces the file abstraction and immediately stretches it
//! across disk files (xv6fs on the ramdisk), device files (`/dev/fb`,
//! `/dev/events`, `/dev/sb`) and proc files (`/proc/cpuinfo`,
//! `/proc/meminfo`). Prototype 5 adds the FAT32 volume mounted under `/d`,
//! pseudo-inodes bridging FatFS's inode-less API into the file table, the
//! window-manager surface device (`/dev/surface`, `/dev/event1`) and the
//! non-blocking flag DOOM's polling loop needs (§4.5).
//!
//! Each mounted disk is one `Volume`: its filesystem, the buffer cache in
//! front of its medium, and the medium (the ramdisk, or a partition of the
//! SD card, whose device the volume builds from the board's fields for
//! each call). A call opens its volume as a `VolumeIo`, whose methods are
//! the one interface the file syscalls call: each answers for xv6fs and
//! FAT32 alike, and no syscall names either. A disk file in the file table
//! is [`FileKind::File`]: its volume and its number. On xv6fs the number is
//! the inode; FAT has no inodes, so the FAT volume numbers the paths it
//! opens in its own pseudo-inode table (`PseudoInodes`), and every FAT
//! data call still addresses its file by path.
//!
//! The dispatching read/write logic lives on the kernel object (it touches
//! filesystems, drivers and the scheduler); this module defines the data
//! model: open flags, file kinds, the per-task descriptor table, where a
//! path leads, and the volumes.

use std::collections::BTreeMap;

use hal::board::SimBoard;
use hal::cost::CostModel;
use hal::sdhost::SdDataMode;
use protofs::block::{SdBlockDevice, SdDmaCtx};
use protofs::bufcache::BufCache;
use protofs::fat32::Fat32;
use protofs::xv6fs::{InodeType, Xv6Fs, MAXFILE_BYTES};
use protofs::{BlockDevice, FsError, FsResult, MemDisk};

use crate::error::{KResult, KernelError};
use crate::usercall::FileStat;

/// Open flags, a small subset of POSIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate on open.
    pub truncate: bool,
    /// Non-blocking reads (Prototype 5, for key-polling games).
    pub nonblock: bool,
}

impl OpenFlags {
    /// Read-only.
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }
    /// Write-only, creating if needed.
    pub fn wronly_create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }
    /// Read/write.
    pub fn rdwr() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }
    /// Read-only and non-blocking (DOOM's event polling).
    pub fn rdonly_nonblock() -> Self {
        OpenFlags {
            read: true,
            nonblock: true,
            ..Default::default()
        }
    }
}

/// Device files exported by the kernel (§3: "the kernel exports device
/// files... and proc files").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFile {
    /// `/dev/fb` — the hardware framebuffer (direct rendering).
    Framebuffer,
    /// `/dev/events` — raw keyboard events from the USB driver.
    Events,
    /// `/dev/event1` — events dispatched by the window manager to the focused
    /// app.
    WmEvents,
    /// `/dev/sb` — the sound buffer (PWM/DMA pipeline).
    SoundBuffer,
    /// `/dev/surface` — a window-manager surface for indirect rendering.
    Surface,
    /// `/dev/null`.
    Null,
    /// `/dev/console` — the UART console.
    Console,
}

impl DeviceFile {
    /// Resolves a `/dev` path to a device, if it exists.
    pub fn from_path(path: &str) -> Option<DeviceFile> {
        match path {
            "/dev/fb" => Some(DeviceFile::Framebuffer),
            "/dev/events" => Some(DeviceFile::Events),
            "/dev/event1" => Some(DeviceFile::WmEvents),
            "/dev/sb" => Some(DeviceFile::SoundBuffer),
            "/dev/surface" => Some(DeviceFile::Surface),
            "/dev/null" => Some(DeviceFile::Null),
            "/dev/console" => Some(DeviceFile::Console),
            _ => None,
        }
    }

    /// The canonical path of this device file.
    pub fn path(&self) -> &'static str {
        match self {
            DeviceFile::Framebuffer => "/dev/fb",
            DeviceFile::Events => "/dev/events",
            DeviceFile::WmEvents => "/dev/event1",
            DeviceFile::SoundBuffer => "/dev/sb",
            DeviceFile::Surface => "/dev/surface",
            DeviceFile::Null => "/dev/null",
            DeviceFile::Console => "/dev/console",
        }
    }

    /// All device files, for `ls /dev`.
    pub const ALL: [DeviceFile; 7] = [
        DeviceFile::Framebuffer,
        DeviceFile::Events,
        DeviceFile::WmEvents,
        DeviceFile::SoundBuffer,
        DeviceFile::Surface,
        DeviceFile::Null,
        DeviceFile::Console,
    ];
}

/// What an open file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileKind {
    /// A file (or directory) on a disk volume.
    File {
        /// The volume it lives on.
        mount: Mount,
        /// Its number on that volume: the inode on xv6fs, the pseudo-inode
        /// on FAT32.
        inum: u32,
    },
    /// A device file.
    Device(DeviceFile),
    /// A proc file; contents are generated at read time and snapshotted into
    /// the open file so repeated reads see a consistent view.
    Proc {
        /// The `/proc` entry name.
        name: String,
    },
    /// One end of a pipe.
    Pipe {
        /// Pipe id in the kernel's pipe table.
        id: u64,
        /// True if this is the write end.
        write_end: bool,
    },
    /// A surface handle created by opening `/dev/surface` (each open creates
    /// a new window surface owned by the opening task).
    SurfaceHandle {
        /// Surface id in the window manager.
        surface_id: u64,
    },
}

/// An open file: kind + cursor + flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenFile {
    /// What this descriptor refers to.
    pub kind: FileKind,
    /// Byte offset for seekable files.
    pub offset: u64,
    /// Flags it was opened with.
    pub flags: OpenFlags,
    /// Cached proc-file contents (generated on first read).
    pub proc_snapshot: Option<Vec<u8>>,
    /// True once the descriptor has written to a disk filesystem. The block
    /// layer's buffer cache is write-back, so `close` (and `fsync`) use this
    /// to know whether dirty blocks may need draining to the device — and to
    /// attribute those SD cycles to the task that wrote them.
    pub written: bool,
}

impl OpenFile {
    /// Creates an open file at offset zero.
    pub fn new(kind: FileKind, flags: OpenFlags) -> Self {
        OpenFile {
            kind,
            offset: 0,
            flags,
            proc_snapshot: None,
            written: false,
        }
    }
}

/// Maximum open descriptors per task (xv6's NOFILE is 16; Proto keeps it
/// small too).
pub const MAX_FDS: usize = 16;

/// A per-task file-descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    files: Vec<Option<OpenFile>>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FdTable {
            files: vec![None; MAX_FDS],
        }
    }

    /// Installs an open file in the lowest free slot, returning the fd.
    pub fn install(&mut self, file: OpenFile) -> KResult<i32> {
        for (i, slot) in self.files.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(file);
                return Ok(i as i32);
            }
        }
        Err(KernelError::LimitExceeded(format!(
            "more than {MAX_FDS} open files"
        )))
    }

    /// Returns a reference to the open file behind `fd`.
    pub fn get(&self, fd: i32) -> KResult<&OpenFile> {
        self.files
            .get(fd as usize)
            .and_then(|f| f.as_ref())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Returns a mutable reference to the open file behind `fd`.
    pub fn get_mut(&mut self, fd: i32) -> KResult<&mut OpenFile> {
        self.files
            .get_mut(fd as usize)
            .and_then(|f| f.as_mut())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Removes and returns the open file behind `fd`.
    pub fn remove(&mut self, fd: i32) -> KResult<OpenFile> {
        self.files
            .get_mut(fd as usize)
            .and_then(|f| f.take())
            .ok_or(KernelError::BadFd(fd))
    }

    /// Duplicates `fd` into the lowest free slot (a simplified `dup`: the new
    /// descriptor has its own offset).
    pub fn dup(&mut self, fd: i32) -> KResult<i32> {
        let copy = self.get(fd)?.clone();
        self.install(copy)
    }

    /// Every currently open file (used when a task exits to close them all).
    pub fn drain_all(&mut self) -> Vec<OpenFile> {
        self.files.iter_mut().filter_map(|f| f.take()).collect()
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count()
    }

    /// Clones the table for `fork()` (the child inherits copies of every
    /// descriptor).
    pub fn clone_for_fork(&self) -> FdTable {
        FdTable {
            files: self.files.clone(),
        }
    }
}

/// A mounted disk volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mount {
    /// The FAT32 volume on the SD card, mounted at `/d`.
    Fat,
    /// The root xv6fs on the ramdisk, mounted at `/`.
    Root,
}

impl Mount {
    /// Every volume, in the order barriers and the flusher visit them.
    pub const ALL: [Mount; 2] = [Mount::Fat, Mount::Root];

    /// The volume's name in kernel log lines.
    pub fn name(self) -> &'static str {
        match self {
            Mount::Fat => "FAT",
            Mount::Root => "root",
        }
    }

    /// The error a call on this volume gets while nothing is mounted there.
    pub(crate) fn not_mounted(self) -> KernelError {
        KernelError::NotSupported(format!("{} volume not mounted", self.name()))
    }
}

/// Where a path leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountTarget {
    /// A disk volume.
    Volume(Mount),
    /// The `/dev` namespace.
    Dev,
    /// The `/proc` namespace.
    Proc,
}

/// Classifies `path` into where it leads and the path within that place.
/// "The OS mounts its root filesystem (in xv6fs) under `/` and mounts the
/// FAT32 partition under `/d`" (§4.5) once Prototype 5 has brought up the
/// SD card (`fat_mounted`).
pub(crate) fn resolve(path: &str, fat_mounted: bool) -> (MountTarget, String) {
    let norm = protofs::path::normalize(path);
    if norm == "/dev" || protofs::path::is_under(&norm, "/dev") {
        return (MountTarget::Dev, norm);
    }
    if norm == "/proc" || protofs::path::is_under(&norm, "/proc") {
        return (MountTarget::Proc, norm);
    }
    if fat_mounted {
        if let Some(stripped) = protofs::path::strip_prefix(&norm, "/d") {
            return (MountTarget::Volume(Mount::Fat), stripped);
        }
    }
    (MountTarget::Volume(Mount::Root), norm)
}

/// One mounted disk: its filesystem, the buffer cache in front of its
/// medium, and the medium.
#[derive(Debug, Clone)]
pub(crate) struct Volume {
    /// The filesystem, which calls reach through [`VolumeIo`].
    pub(crate) fs: FileSystem,
    /// The write-back buffer cache every call on the volume goes through.
    pub(crate) cache: BufCache,
    /// What the blocks live on.
    pub(crate) medium: Medium,
    /// `(log_commits, board time µs)` when `kbio` first saw the current
    /// commit group open (`None` while no group is open). Drives
    /// [`crate::kernel::FAT_GROUP_COMMIT_TIMEOUT_MS`]: a group that sits
    /// open past it is force-committed by the flusher's next pass. Keyed
    /// on the commit counter so a group that filled up and committed
    /// itself between passes leaves no stale stamp to cut its successor
    /// short. The root journal commits every transaction on its own, so
    /// its stamp never ages.
    pub(crate) group_seen: Option<(u64, u64)>,
}

impl Volume {
    /// Whether the transaction log's open commit group has been open for
    /// `timeout_us` at board time `now`; a group seen for the first time is
    /// stamped with `now`.
    pub(crate) fn group_overdue(&mut self, now: u64, timeout_us: u64) -> bool {
        if self.cache.group_txns() == 0 {
            self.group_seen = None;
            return false;
        }
        let commits = self.cache.stats().log_commits;
        let since = match self.group_seen {
            // Same commit generation: the group we stamped is still open.
            Some((c, t)) if c == commits => t,
            _ => {
                self.group_seen = Some((commits, now));
                now
            }
        };
        now.saturating_sub(since) >= timeout_us
    }

    /// Runs `f` on the volume opened for a call on `core`. The ramdisk is
    /// its own device. The SD card's is built from the board's fields, with
    /// the DMA context attached exactly when the host is in DMA mode, so
    /// every call drives the same asynchronous queue and the driver charges
    /// its chains to `core`.
    pub(crate) fn io<R>(
        &mut self,
        board: &mut SimBoard,
        core: usize,
        f: impl FnOnce(&mut VolumeIo<'_>) -> R,
    ) -> R {
        let (fs, cache) = (&mut self.fs, &mut self.cache);
        match &mut self.medium {
            Medium::Ramdisk(dev) => f(&mut VolumeIo { fs, dev, cache }),
            Medium::Sd { start, blocks } => {
                let dma = board.sdhost.data_mode() == SdDataMode::Dma;
                let ctx = dma.then_some(SdDmaCtx {
                    engine: &mut board.dma,
                    clock: &mut board.clock,
                    cost: &board.cost,
                    core,
                });
                let dev = &mut SdBlockDevice::with_dma(&mut board.sdhost, *start, *blocks, ctx);
                f(&mut VolumeIo { fs, dev, cache })
            }
        }
    }
}

/// What a volume's blocks live on.
#[derive(Debug, Clone)]
pub(crate) enum Medium {
    /// The ramdisk baked into the kernel image.
    Ramdisk(MemDisk),
    /// A partition of the SD card. The board owns the card, so the volume
    /// keeps only where the partition lies.
    Sd {
        /// First card block of the partition.
        start: u64,
        /// Blocks in the partition.
        blocks: u64,
    },
}

impl Medium {
    /// The CPU cost of moving `n` bytes between a file call and the cache,
    /// beyond the SD commands the call issued: on the ramdisk a memory copy
    /// plus a cache operation per block each way; on the card the copy out
    /// of the cache on a read (a write's copy in is not charged).
    pub(crate) fn copy_cycles(&self, cost: &CostModel, n: u64, write: bool) -> u64 {
        match self {
            Medium::Ramdisk(_) => {
                cost.per_byte(cost.ramdisk_per_byte_milli, n) + cost.bufcache_op * (n / 512 + 1)
            }
            Medium::Sd { .. } if write => 0,
            Medium::Sd { .. } => cost.per_byte(cost.bufcache_copy_per_byte_milli, n),
        }
    }

    /// The CPU cost of writing `blocks` cached blocks back, beyond the SD
    /// commands that did it: a cache operation and a 512-byte memory copy
    /// per block on the ramdisk, nothing more on the card.
    pub(crate) fn writeback_cycles(&self, cost: &CostModel, blocks: u64) -> u64 {
        match self {
            Medium::Ramdisk(_) => {
                cost.bufcache_op * blocks + cost.per_byte(cost.ramdisk_per_byte_milli, blocks * 512)
            }
            Medium::Sd { .. } => 0,
        }
    }
}

/// A volume's filesystem.
#[derive(Debug, Clone)]
pub(crate) enum FileSystem {
    /// xv6fs: a file's number is its inode.
    Xv6(Xv6Fs),
    /// FAT32, with the volume's pseudo-inode table.
    Fat(Fat32, PseudoInodes),
}

/// A volume opened for one call: its filesystem, its medium's device and
/// its cache. The methods are the one interface the file syscalls call, and
/// each answers for xv6fs and FAT32 alike; a file is named by the number
/// [`VolumeIo::lookup`] or [`VolumeIo::create`] gave it.
pub(crate) struct VolumeIo<'a> {
    fs: &'a mut FileSystem,
    /// The medium's block device.
    pub(crate) dev: &'a mut dyn BlockDevice,
    /// The volume's buffer cache.
    pub(crate) cache: &'a mut BufCache,
}

impl VolumeIo<'_> {
    /// Resolves `path` to its file's number. Opening a directory for
    /// writing fails with [`FsError::IsADirectory`], since only the
    /// filesystem writes a directory's entries: FAT's lookup returns the
    /// entry anyway, and xv6fs reads the inode for it only when `write` is
    /// set.
    pub(crate) fn lookup(&mut self, path: &str, write: bool) -> FsResult<u32> {
        let (inum, is_dir) = match &mut *self.fs {
            FileSystem::Xv6(fs) => {
                let inum = fs.lookup(self.dev, self.cache, path)?;
                let is_dir = write && fs.stat(self.dev, self.cache, inum)?.itype == InodeType::Dir;
                (inum, is_dir)
            }
            FileSystem::Fat(fs, files) => {
                let is_dir = fs.lookup(self.dev, self.cache, path)?.is_dir;
                (files.number(path), is_dir)
            }
        };
        if write && is_dir {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        Ok(inum)
    }

    /// Creates an empty file, or a directory, at `path` and returns its
    /// number.
    pub(crate) fn create(&mut self, path: &str, dir: bool) -> FsResult<u32> {
        match &mut *self.fs {
            FileSystem::Xv6(fs) => {
                let itype = if dir { InodeType::Dir } else { InodeType::File };
                fs.create(self.dev, self.cache, path, itype)
            }
            FileSystem::Fat(fs, files) => {
                fs.create(self.dev, self.cache, path, dir)?;
                Ok(files.number(path))
            }
        }
    }

    /// The size of what `path` names, and whether it is a directory.
    pub(crate) fn stat(&mut self, path: &str) -> FsResult<FileStat> {
        let (size, is_dir) = match &*self.fs {
            FileSystem::Xv6(fs) => {
                let inum = fs.lookup(self.dev, self.cache, path)?;
                let st = fs.stat(self.dev, self.cache, inum)?;
                (st.size, st.itype == InodeType::Dir)
            }
            FileSystem::Fat(fs, _) => {
                let entry = fs.lookup(self.dev, self.cache, path)?;
                (entry.size, entry.is_dir)
            }
        };
        let size = size.into();
        Ok(FileStat { size, is_dir })
    }

    /// Reads up to `max` bytes of file `inum` from `offset`.
    pub(crate) fn read(&mut self, inum: u32, offset: u32, max: usize) -> FsResult<Vec<u8>> {
        match &*self.fs {
            FileSystem::Xv6(fs) => {
                // No xv6 file exceeds MAXFILE_BYTES, so a huge `max` must
                // not drive a huge allocation.
                let mut buf = vec![0u8; max.min(MAXFILE_BYTES)];
                let n = fs.read(self.dev, self.cache, inum, offset, &mut buf)?;
                buf.truncate(n);
                Ok(buf)
            }
            FileSystem::Fat(fs, files) => {
                fs.read_at(self.dev, self.cache, files.path(inum)?, offset, max)
            }
        }
    }

    /// Writes all of `data` at `offset` of file `inum`.
    pub(crate) fn write(&mut self, inum: u32, offset: u32, data: &[u8]) -> FsResult<()> {
        match &*self.fs {
            FileSystem::Xv6(fs) => fs.write(self.dev, self.cache, inum, offset, data).map(drop),
            FileSystem::Fat(fs, files) => {
                fs.write_at(self.dev, self.cache, files.path(inum)?, offset, data)
            }
        }
    }

    /// Makes `data` the whole contents of the file at `path`, creating it
    /// if needed, as one operation (image building).
    pub(crate) fn write_file(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        match &*self.fs {
            FileSystem::Xv6(fs) => fs.write_file(self.dev, self.cache, path, data).map(drop),
            FileSystem::Fat(fs, _) => fs.write_file(self.dev, self.cache, path, data),
        }
    }

    /// Removes the file, or empty directory, at `path`.
    pub(crate) fn unlink(&mut self, path: &str) -> FsResult<()> {
        match &*self.fs {
            FileSystem::Xv6(fs) => fs.unlink(self.dev, self.cache, path),
            FileSystem::Fat(fs, _) => fs.remove(self.dev, self.cache, path),
        }
    }

    /// The names in the directory at `path`.
    pub(crate) fn list_dir(&mut self, path: &str) -> FsResult<Vec<String>> {
        Ok(match &*self.fs {
            FileSystem::Xv6(fs) => {
                let entries = fs.list_dir(self.dev, self.cache, path)?;
                entries.into_iter().map(|e| e.name).collect()
            }
            FileSystem::Fat(fs, _) => {
                let entries = fs.list_dir(self.dev, self.cache, path)?;
                entries.into_iter().map(|e| e.name).collect()
            }
        })
    }

    /// Forces the transaction log's open commit group to the device (a
    /// no-op when none is open).
    pub(crate) fn commit_pending(&mut self) -> FsResult<()> {
        match &*self.fs {
            FileSystem::Xv6(fs) => fs.commit_pending(self.dev, self.cache),
            FileSystem::Fat(fs, _) => fs.commit_pending(self.dev, self.cache),
        }
    }
}

/// The FAT volume's pseudo-inodes: the numbers it gives the paths it opens,
/// so a FAT file sits in the file table like an xv6 inode (§4.5). A number
/// stays bound to its path for the life of the mount.
#[derive(Debug, Clone, Default)]
pub(crate) struct PseudoInodes {
    numbers: BTreeMap<String, u32>,
    /// The path behind each number, at that index.
    paths: Vec<String>,
}

impl PseudoInodes {
    /// `path`'s number, given on first use.
    fn number(&mut self, path: &str) -> u32 {
        let next = self.paths.len() as u32;
        let n = *self.numbers.entry(path.to_string()).or_insert(next);
        if n == next {
            self.paths.push(path.to_string());
        }
        n
    }

    /// The path behind number `n`.
    fn path(&self, n: u32) -> FsResult<&str> {
        let path = self.paths.get(n as usize).map(String::as_str);
        path.ok_or_else(|| FsError::NotFound(format!("pseudo-inode {n}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_table_installs_in_lowest_slot_and_enforces_the_limit() {
        let mut t = FdTable::new();
        let f = || OpenFile::new(FileKind::Device(DeviceFile::Null), OpenFlags::rdonly());
        let a = t.install(f()).unwrap();
        let b = t.install(f()).unwrap();
        assert_eq!((a, b), (0, 1));
        t.remove(0).unwrap();
        assert_eq!(t.install(f()).unwrap(), 0, "lowest free slot reused");
        while t.open_count() < MAX_FDS {
            t.install(f()).unwrap();
        }
        assert!(matches!(t.install(f()), Err(KernelError::LimitExceeded(_))));
    }

    #[test]
    fn bad_fds_are_rejected() {
        let mut t = FdTable::new();
        assert!(matches!(t.get(0), Err(KernelError::BadFd(0))));
        assert!(t.get_mut(99).is_err());
        assert!(t.remove(-1).is_err());
    }

    #[test]
    fn dup_copies_the_descriptor() {
        let mut t = FdTable::new();
        let fd = t
            .install(OpenFile::new(
                FileKind::File {
                    mount: Mount::Root,
                    inum: 7,
                },
                OpenFlags::rdonly(),
            ))
            .unwrap();
        let dup = t.dup(fd).unwrap();
        assert_ne!(fd, dup);
        assert_eq!(
            t.get(dup).unwrap().kind,
            FileKind::File {
                mount: Mount::Root,
                inum: 7
            }
        );
    }

    #[test]
    fn mount_table_routes_paths_like_the_paper() {
        assert_eq!(resolve("/etc/rc", true).0, MountTarget::Volume(Mount::Root));
        assert_eq!(
            resolve("/d/doom.wad", true),
            (MountTarget::Volume(Mount::Fat), "/doom.wad".into())
        );
        assert_eq!(resolve("/dev/fb", true).0, MountTarget::Dev);
        assert_eq!(resolve("/proc/meminfo", true).0, MountTarget::Proc);
        // Without the FAT mount, /d is just a root directory.
        assert_eq!(
            resolve("/d/doom.wad", false).0,
            MountTarget::Volume(Mount::Root)
        );
    }

    #[test]
    fn device_paths_resolve_and_round_trip() {
        for dev in DeviceFile::ALL {
            assert_eq!(DeviceFile::from_path(dev.path()), Some(dev));
        }
        assert_eq!(DeviceFile::from_path("/dev/nope"), None);
    }
}
