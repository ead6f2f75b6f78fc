//! Proto's target applications.
//!
//! These are the apps that motivate each prototype (§3, Table 1): spinning
//! donuts, the LiteNES-style `mario` in its three benchmark variants, DOOM
//! (a software raycaster standing in for doomgeneric), a MusicPlayer and
//! VideoPlayer, the floating `sysmon` overlay, the `slider` slide viewer,
//! the GUI `launcher`, a multithreaded blockchain miner, and the shell plus
//! the xv6 console utilities. Each app implements
//! [`kernel::UserProgram`] and talks to the OS exclusively through the
//! syscall surface ([`kernel::UserCtx`]), so every frame it renders exercises
//! the same kernel paths the paper's C apps exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockchain;
pub mod donut;
pub mod doomlike;
pub mod launcher;
pub mod media_apps;
pub mod nes;
pub mod shell;
pub mod slider;
pub mod sysmon;

use std::task::Poll;

use kernel::kernel::Kernel;
use kernel::usercall::{StepResult, UserCtx, UserProgram};
use kernel::vfs::OpenFlags;
use kernel::{KernelError, ProgramImage};

/// A whole-file load that survives the task parking part-way.
///
/// It reads in 256 KB reads, stops at the first empty read (or at an error
/// other than `WouldBlock`, which ends the file early), then closes the
/// file. With blocking I/O on, a cold FAT lookup or read parks the task and
/// returns `KernelError::WouldBlock`. The load then keeps its descriptor
/// and the bytes read so far, the step returns `StepResult::Continue`, and
/// the next step, once the task is woken, retries the call that parked.
#[derive(Debug, Default)]
pub(crate) struct WholeFile {
    fd: Option<i32>,
    data: Vec<u8>,
}

impl WholeFile {
    /// Advances the load of `path`: `Pending` while the task is parked,
    /// then the file's bytes, or `None` if it cannot be opened.
    pub(crate) fn poll(&mut self, ctx: &mut UserCtx<'_>, path: &str) -> Poll<Option<Vec<u8>>> {
        let fd = match self.fd {
            Some(fd) => fd,
            None => match ctx.open(path, OpenFlags::rdonly()) {
                Ok(fd) => *self.fd.insert(fd),
                Err(KernelError::WouldBlock) => return Poll::Pending,
                Err(_) => return Poll::Ready(None),
            },
        };
        loop {
            match ctx.read(fd, 256 * 1024) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => self.data.extend_from_slice(&chunk),
                Err(KernelError::WouldBlock) => return Poll::Pending,
                Err(_) => break,
            }
        }
        let _ = ctx.close(fd);
        self.fd = None;
        Poll::Ready(Some(std::mem::take(&mut self.data)))
    }
}

/// The simplest program: prints a greeting and exits. It is the first app of
/// every prototype (Table 1's `helloworld` row).
#[derive(Debug, Default)]
pub struct HelloWorld {
    printed: bool,
}

impl UserProgram for HelloWorld {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        if !self.printed {
            let pid = ctx.getpid();
            ctx.print(&format!("hello from proto (pid {pid})"));
            self.printed = true;
        }
        StepResult::Exited(0)
    }
    fn program_name(&self) -> &str {
        "helloworld"
    }
}

/// The `buzzer` app of Prototype 4: plays a short square-wave beep through
/// `/dev/sb`, proving out the PWM/DMA path before MusicPlayer arrives.
#[derive(Debug, Default)]
pub struct Buzzer {
    fd: Option<i32>,
    bursts_sent: u32,
}

impl UserProgram for Buzzer {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        use kernel::vfs::OpenFlags;
        if self.fd.is_none() {
            match ctx.open("/dev/sb", OpenFlags::wronly_create()) {
                Ok(fd) => self.fd = Some(fd),
                Err(_) => return StepResult::Exited(1),
            }
        }
        if self.bursts_sent >= 4 {
            return StepResult::Exited(0);
        }
        // One burst: 1/8 s of a 440 Hz square wave.
        let samples: Vec<i16> = (0..44_100 / 8)
            .map(|i| if (i / 50) % 2 == 0 { 12_000 } else { -12_000 })
            .collect();
        let bytes = ulib::samples_to_bytes(&samples);
        match ctx.write(self.fd.expect("opened above"), &bytes) {
            Ok(_) => {
                self.bursts_sent += 1;
                let cost = ctx.cost();
                ctx.charge_user(
                    cost.per_byte(cost.audio_sample_decode_milli, samples.len() as u64),
                );
                StepResult::Continue
            }
            Err(kernel::KernelError::WouldBlock) => StepResult::Continue,
            Err(_) => StepResult::Exited(1),
        }
    }
    fn program_name(&self) -> &str {
        "buzzer"
    }
}

/// Registers every application with the kernel's program registry so that
/// `exec`/`spawn` can instantiate them by name, mirroring the ELF executables
/// packed into the paper's ramdisk.
pub fn register_all(kernel: &mut Kernel) {
    kernel.register_program("helloworld", |_| Box::new(HelloWorld::default()));
    kernel.register_program("buzzer", |_| Box::new(Buzzer::default()));
    kernel.register_program("donut", |args| Box::new(donut::PixelDonut::from_args(args)));
    kernel.register_program("donut-text", |_| Box::new(donut::TextDonut::new()));
    kernel.register_program("mario", |args| Box::new(nes::MarioNoInput::from_args(args)));
    kernel.register_program("mario-proc", |args| {
        Box::new(nes::MarioProc::from_args(args))
    });
    kernel.register_program("mario-sdl", |args| Box::new(nes::MarioSdl::from_args(args)));
    kernel.register_program("doom", |args| Box::new(doomlike::Doom::from_args(args)));
    kernel.register_program("musicplayer", |args| {
        Box::new(media_apps::MusicPlayer::from_args(args))
    });
    kernel.register_program("videoplayer", |args| {
        Box::new(media_apps::VideoPlayer::from_args(args))
    });
    kernel.register_program("sysmon", |_| Box::new(sysmon::Sysmon::new()));
    kernel.register_program("slider", |args| Box::new(slider::Slider::from_args(args)));
    kernel.register_program("launcher", |_| Box::new(launcher::Launcher::new()));
    kernel.register_program("blockchain", |args| {
        Box::new(blockchain::Blockchain::from_args(args))
    });
    kernel.register_program("sh", |args| Box::new(shell::Shell::from_args(args)));
    for utility in shell::COREUTILS {
        let name = utility.to_string();
        kernel.register_program(utility, move |args| {
            Box::new(shell::Coreutil::new(&name, args))
        });
    }
}

/// Program images for every registered app, sized like the paper's binaries
/// (console utilities are tens of KB; DOOM and the players are much larger).
pub fn default_images() -> Vec<ProgramImage> {
    let mut images = vec![
        ProgramImage::small("helloworld"),
        ProgramImage::small("buzzer"),
        ProgramImage::small("donut"),
        ProgramImage::small("donut-text"),
        ProgramImage::large("mario"),
        ProgramImage::large("mario-proc"),
        ProgramImage::large("mario-sdl"),
        ProgramImage::large("doom"),
        ProgramImage::large("musicplayer"),
        ProgramImage::large("videoplayer"),
        ProgramImage::small("sysmon"),
        ProgramImage::small("slider"),
        ProgramImage::small("launcher"),
        ProgramImage::large("blockchain"),
        ProgramImage::small("sh"),
    ];
    for utility in shell::COREUTILS {
        images.push(ProgramImage::small(utility));
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal::cost::Platform;
    use kernel::KernelConfig;

    #[test]
    fn all_programs_register_and_instantiate() {
        let mut k = Kernel::new(KernelConfig::desktop(), Platform::Pi3);
        register_all(&mut k);
        for name in [
            "helloworld",
            "donut",
            "mario",
            "mario-proc",
            "mario-sdl",
            "doom",
            "musicplayer",
            "videoplayer",
            "sysmon",
            "slider",
            "launcher",
            "blockchain",
            "sh",
            "ls",
            "cat",
            "echo",
            "wc",
            "buzzer",
        ] {
            assert!(k.registry.contains(name), "{name} not registered");
            assert!(
                k.registry.instantiate(name, &[]).is_ok(),
                "{name} fails to build"
            );
        }
    }

    #[test]
    fn default_images_cover_all_main_apps() {
        let images = default_images();
        assert!(images.len() >= 15);
        assert!(images
            .iter()
            .any(|i| i.name == "doom" && i.code_size > 100_000));
    }
}
