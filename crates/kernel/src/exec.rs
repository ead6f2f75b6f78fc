//! Program images and `exec()`.
//!
//! Prototype 3 cannot rely on files yet, so its build scripts bundle mario's
//! ELF executable as an opaque binary inside the kernel image; a special
//! file-less `exec()` parses that in-memory ELF region and loads the
//! code/data segments into the fresh user address space, hard-coding the
//! arguments (framebuffer address and geometry) the app expects (§4.3).
//! Prototype 4 replaces this with a proper `exec(path)` that reads the image
//! out of the ramdisk filesystem.
//!
//! The real artifact parses AArch64 ELF. The programs in this reproduction
//! are Rust types rather than machine code, so the image format is a compact
//! "PELF" header carrying exactly what the loader needs — the program name
//! (used to instantiate the implementation from the program registry), the
//! segment sizes that drive address-space construction, and default
//! arguments. Everything downstream of the parse (segment mapping, stack and
//! heap setup, argument passing) matches the paper's loader.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{KResult, KernelError};
use crate::usercall::UserProgram;

/// Magic bytes identifying a Proto program image.
pub const PELF_MAGIC: &[u8; 4] = b"PELF";
/// Current image format version.
pub const PELF_VERSION: u16 = 1;

/// A parsed (or to-be-encoded) program image header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    /// The registered program name this image launches.
    pub name: String,
    /// Size of the code segment in bytes.
    pub code_size: u32,
    /// Size of the data/bss segment in bytes.
    pub data_size: u32,
    /// Initial heap reservation in bytes.
    pub heap_size: u32,
    /// Default arguments baked into the image.
    pub args: Vec<String>,
}

impl ProgramImage {
    /// A small default image for console utilities.
    pub fn small(name: &str) -> Self {
        ProgramImage {
            name: name.to_string(),
            code_size: 16 * 1024,
            data_size: 8 * 1024,
            heap_size: 16 * 1024,
            args: Vec::new(),
        }
    }

    /// An image sized like a media-rich app (games, players).
    pub fn large(name: &str) -> Self {
        ProgramImage {
            name: name.to_string(),
            code_size: 256 * 1024,
            data_size: 128 * 1024,
            heap_size: 512 * 1024,
            args: Vec::new(),
        }
    }

    /// Serialises the image to bytes (what gets stored in the ramdisk or the
    /// FAT volume as the "executable").
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(PELF_MAGIC);
        out.extend_from_slice(&PELF_VERSION.to_le_bytes());
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.code_size.to_le_bytes());
        out.extend_from_slice(&self.data_size.to_le_bytes());
        out.extend_from_slice(&self.heap_size.to_le_bytes());
        out.extend_from_slice(&(self.args.len() as u16).to_le_bytes());
        for a in &self.args {
            let b = a.as_bytes();
            out.extend_from_slice(&(b.len() as u16).to_le_bytes());
            out.extend_from_slice(b);
        }
        // Pad with a synthetic "text section" so the file size resembles the
        // declared code+data size, exercising multi-block filesystem reads
        // the way real ELF loading does.
        let payload = (self.code_size as usize + self.data_size as usize).min(1 << 20);
        out.extend(std::iter::repeat_n(0xD4, payload.min(65_536)));
        out
    }

    /// Parses an image from bytes.
    pub fn parse(bytes: &[u8]) -> KResult<Self> {
        if bytes.len() < 8 || &bytes[..4] != PELF_MAGIC {
            return Err(KernelError::Invalid(
                "not a Proto executable (bad magic)".into(),
            ));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != PELF_VERSION {
            return Err(KernelError::Invalid(format!(
                "unsupported PELF version {version}"
            )));
        }
        let mut pos = 6usize;
        let rd_u16 = |b: &[u8], p: usize| -> KResult<u16> {
            b.get(p..p + 2)
                .map(|s| u16::from_le_bytes([s[0], s[1]]))
                .ok_or_else(|| KernelError::Invalid("truncated PELF".into()))
        };
        let rd_u32 = |b: &[u8], p: usize| -> KResult<u32> {
            b.get(p..p + 4)
                .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
                .ok_or_else(|| KernelError::Invalid("truncated PELF".into()))
        };
        let name_len = rd_u16(bytes, pos)? as usize;
        pos += 2;
        let name = bytes
            .get(pos..pos + name_len)
            .map(|s| String::from_utf8_lossy(s).into_owned())
            .ok_or_else(|| KernelError::Invalid("truncated PELF name".into()))?;
        pos += name_len;
        let code_size = rd_u32(bytes, pos)?;
        let data_size = rd_u32(bytes, pos + 4)?;
        let heap_size = rd_u32(bytes, pos + 8)?;
        pos += 12;
        let argc = rd_u16(bytes, pos)? as usize;
        pos += 2;
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            let len = rd_u16(bytes, pos)? as usize;
            pos += 2;
            let a = bytes
                .get(pos..pos + len)
                .map(|s| String::from_utf8_lossy(s).into_owned())
                .ok_or_else(|| KernelError::Invalid("truncated PELF arg".into()))?;
            pos += len;
            args.push(a);
        }
        Ok(ProgramImage {
            name,
            code_size,
            data_size,
            heap_size,
            args,
        })
    }
}

/// Factory signature for instantiating a registered program. A factory is
/// shared, so a forked kernel's registry is a copy of the name table only.
pub type ProgramFactory = Arc<dyn Fn(&[String]) -> Box<dyn UserProgram> + Send + Sync>;

/// The program registry: maps image names to factories. The apps crate
/// registers every target application here; `exec()` consults it after
/// parsing the image.
#[derive(Default, Clone)]
pub struct ProgramRegistry {
    factories: HashMap<String, ProgramFactory>,
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.factories.keys().collect();
        names.sort();
        f.debug_struct("ProgramRegistry")
            .field("programs", &names)
            .finish()
    }
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a program under `name`.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&[String]) -> Box<dyn UserProgram> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Arc::new(factory));
    }

    /// Instantiates the program registered under `name`.
    pub fn instantiate(&self, name: &str, args: &[String]) -> KResult<Box<dyn UserProgram>> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| KernelError::NotFound(format!("program '{name}' not registered")))?;
        Ok(factory(args))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.factories.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usercall::{StepResult, UserCtx};

    struct Nop;
    impl UserProgram for Nop {
        fn step(&mut self, _ctx: &mut UserCtx<'_>) -> StepResult {
            StepResult::Exited(0)
        }
    }

    #[test]
    fn images_round_trip_through_encode_parse() {
        let img = ProgramImage {
            name: "mario".into(),
            code_size: 120_000,
            data_size: 40_000,
            heap_size: 256 * 1024,
            args: vec!["/d/mario.nes".into(), "--fb".into()],
        };
        let parsed = ProgramImage::parse(&img.encode()).unwrap();
        assert_eq!(parsed, img);
    }

    #[test]
    fn junk_and_truncated_images_are_rejected() {
        assert!(ProgramImage::parse(b"ELF\x7f").is_err());
        assert!(ProgramImage::parse(b"").is_err());
        let good = ProgramImage::small("sh").encode();
        assert!(ProgramImage::parse(&good[..10]).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(ProgramImage::parse(&bad_version).is_err());
    }

    #[test]
    fn registry_instantiates_registered_programs_only() {
        let mut reg = ProgramRegistry::new();
        reg.register("nop", |_args| Box::new(Nop));
        assert!(reg.contains("nop"));
        assert!(reg.instantiate("nop", &[]).is_ok());
        assert!(matches!(
            reg.instantiate("doom", &[]),
            Err(KernelError::NotFound(_))
        ));
        assert_eq!(reg.names(), vec!["nop".to_string()]);
    }

    #[test]
    fn preset_sizes_differ_for_console_vs_media_apps() {
        let small = ProgramImage::small("ls");
        let large = ProgramImage::large("doom");
        assert!(large.code_size > small.code_size);
        assert!(large.heap_size > small.heap_size);
    }
}
