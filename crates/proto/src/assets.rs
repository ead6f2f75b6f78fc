//! Synthetic media assets.
//!
//! The paper's OS image carries NES ROMs, DOOM's WAD, OGG tracks, MPEG-1
//! clips and BMP/PNG slides on the SD card's FAT32 partition (§3, §4.5). We
//! cannot redistribute those, so the image builder generates synthetic
//! stand-ins with the same sizes, formats (for the codecs this repository
//! implements) and placement: small files on the xv6fs ramdisk, multi-
//! megabyte media on the FAT volume — which is exactly the split that makes
//! FAT32 necessary in Prototype 5.
//!
//! The bytes are deterministic, so each set (the ROMs, the small media and
//! the full-size media) is generated once per process, on first use, and
//! every later build installs the same bytes from memory. A test that needs
//! fresh bytes calls the generators directly: [`synthetic_wad`] and those
//! of `ulib::media` and `ulib::image`.

use std::sync::OnceLock;

use kernel::kernel::Kernel;
use kernel::KResult;
use ulib::image::{encode_bmp, Image};
use ulib::media::{encode_audio, encode_video, generate_test_video, synthesize_tone};

/// Generates the synthetic "WAD": pseudo-random texture/level data of the
/// requested size (DOOM1.WAD is ~4 MB; the default mirrors that).
pub fn synthetic_wad(bytes: usize) -> Vec<u8> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (0..bytes)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The NES "ROMs" on the root filesystem, mario's and kungfu's, generated
/// once.
fn roms() -> &'static [Box<[u8]>; 2] {
    static ROMS: OnceLock<[Box<[u8]>; 2]> = OnceLock::new();
    ROMS.get_or_init(|| [40 * 1024, 48 * 1024].map(|len| synthetic_wad(len).into_boxed_slice()))
}

/// Installs the small files every prototype-4+ system expects on the root
/// (ramdisk) filesystem: `/etc/rc`, the NES "ROMs" and the program images.
pub fn install_root_assets(kernel: &mut Kernel) -> KResult<()> {
    kernel.install_root_dir("/etc")?;
    kernel.install_root_file("/etc/rc", b"# proto rc script\necho boot complete\nls /\n")?;
    kernel.install_root_file("/etc/motd", b"welcome to proto\n")?;
    // The mario ROM lives on the ramdisk so Prototype 4 can load it as a file
    // ("the NES game engine can load additional ROMs as files").
    let [mario, kungfu] = roms();
    kernel.install_root_file("/mario.nes", mario)?;
    kernel.install_root_file("/kungfu.nes", kungfu)?;
    for image in apps::default_images() {
        kernel.install_program_image(&image)?;
    }
    Ok(())
}

/// One size of the media on the FAT32 partition.
struct FatAssets {
    wad: Box<[u8]>,
    video480: Box<[u8]>,
    video720: Box<[u8]>,
    track: Box<[u8]>,
    /// The one slide that each of `/slides/s0.bmp`..`s3.bmp` holds.
    slide: Box<[u8]>,
}

/// `bytes` copied into an exact-size allocation. The copy frees the
/// generator's buffer, growth room and all: what a process frees moves
/// glibc's mmap and trim thresholds, and with them the host time of later
/// allocations (ROADMAP open item 6).
fn exact(bytes: Vec<u8>) -> Box<[u8]> {
    Box::from(bytes.as_slice())
}

impl FatAssets {
    /// The set of the given size, generated on first use.
    fn get(small: bool) -> &'static FatAssets {
        static SMALL: OnceLock<FatAssets> = OnceLock::new();
        static FULL: OnceLock<FatAssets> = OnceLock::new();
        let cell = if small { &SMALL } else { &FULL };
        cell.get_or_init(|| FatAssets::generate(small))
    }

    /// Generates the set; `small` scales everything down for fast tests.
    fn generate(small: bool) -> FatAssets {
        // DOOM assets: a multi-megabyte file, far beyond xv6fs's 268 KB
        // limit.
        let wad_bytes = if small { 512 * 1024 } else { 4 * 1024 * 1024 };
        // Full 480p/720p streams are large; tests use small geometry.
        let (w480, h480, frames) = if small {
            (160, 120, 24)
        } else {
            (640, 480, 60)
        };
        let (w720, h720) = if small { (320, 240) } else { (1280, 720) };
        let secs = if small { 2.0 } else { 30.0 };
        let (slide_w, slide_h) = if small { (160, 120) } else { (640, 480) };
        FatAssets {
            wad: exact(synthetic_wad(wad_bytes)),
            video480: exact(encode_video(&generate_test_video(w480, h480, frames))),
            video720: exact(encode_video(&generate_test_video(w720, h720, 24))),
            track: exact(encode_audio(&synthesize_tone(440.0, secs, 44_100), 44_100)),
            slide: exact(encode_bmp(&Image::gradient(slide_w, slide_h))),
        }
    }
}

/// Installs the media assets on the FAT32 partition (`/d/...` as apps see
/// them). `small` scales everything down for fast tests.
pub fn install_fat_assets(kernel: &mut Kernel, small: bool) -> KResult<()> {
    let assets = FatAssets::get(small);
    kernel.install_fat_file("/doom.wad", &assets.wad)?;
    kernel.install_fat_file("/video480.mpg", &assets.video480)?;
    kernel.install_fat_file("/video720.mpg", &assets.video720)?;
    kernel.install_fat_file("/track1.ogg", &assets.track)?;
    kernel.install_fat_dir("/slides")?;
    for i in 0..4u32 {
        kernel.install_fat_file(&format!("/slides/s{i}.bmp"), &assets.slide)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_wad_is_deterministic_and_sized() {
        let a = synthetic_wad(1000);
        let b = synthetic_wad(1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn cached_small_set_and_roms_are_what_the_generators_return() {
        let small = FatAssets::get(true);
        assert!(std::ptr::eq(small, FatAssets::get(true)), "generated once");
        assert_eq!(*small.wad, synthetic_wad(512 * 1024));
        assert_eq!(
            *small.video480,
            encode_video(&generate_test_video(160, 120, 24))
        );
        assert_eq!(
            *small.video720,
            encode_video(&generate_test_video(320, 240, 24))
        );
        assert_eq!(
            *small.track,
            encode_audio(&synthesize_tone(440.0, 2.0, 44_100), 44_100)
        );
        assert_eq!(*small.slide, encode_bmp(&Image::gradient(160, 120)));
        let [mario, kungfu] = roms();
        assert_eq!(**mario, *synthetic_wad(40 * 1024));
        assert_eq!(**kungfu, *synthetic_wad(48 * 1024));
    }
}
