//! Randomised (but deterministic) tests over the core data structures and OS
//! invariants. A small seeded PRNG stands in for a property-testing crate —
//! the build environment is offline, so each "property" below is exercised
//! over a spread of generated cases with fixed seeds.

use proto_repro::kernel::mm::{AddressSpace, FrameAllocator, MapFlags, PageTable, RegionKind};
use proto_repro::protofs::bufcache::BufCache;
use proto_repro::protofs::fat32::Fat32;
use proto_repro::protofs::xv6fs::{InodeType, Xv6Fs};
use proto_repro::protofs::MemDisk;
use proto_repro::protousb::KeyEventQueue;

use hal::mem::PhysMem;

/// A tiny SplitMix64-style generator: deterministic, seedable, good enough
/// to shake out structural bugs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn frame_allocator_never_hands_out_the_same_frame_twice() {
    for seed in 0..8 {
        let mut rng = Rng::new(seed);
        let mut fa = FrameAllocator::new(0x10_0000, 64);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..120 {
            if rng.below(3) < 2 {
                if let Ok(f) = fa.alloc() {
                    assert!(!live.contains(&f), "frame {f:#x} double-allocated");
                    live.push(f);
                }
            } else if let Some(f) = live.pop() {
                fa.free(f).unwrap();
            }
        }
        assert_eq!(fa.stats().allocated, live.len());
    }
}

#[test]
fn page_table_translations_match_what_was_mapped() {
    for seed in 0..4 {
        let mut rng = Rng::new(100 + seed);
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x100_0000, 2048);
        let pt = PageTable::new(&mut frames, &mut mem).unwrap();
        let mut pages: Vec<u64> = (0..40).map(|_| rng.below(512)).collect();
        pages.sort_unstable();
        pages.dedup();
        let mut expected = Vec::new();
        for (i, page) in pages.iter().enumerate() {
            let va = page * 4096;
            let pa = 0x200_0000 + (i as u64) * 4096;
            pt.map_page(&mut mem, &mut frames, va, pa, MapFlags::user_data())
                .unwrap();
            expected.push((va, pa));
        }
        for (va, pa) in expected {
            let t = pt.translate(&mem, va + 123).unwrap().unwrap();
            assert_eq!(t.phys, pa + 123);
        }
        // Unmapped neighbours stay unmapped.
        assert!(pt.translate(&mem, 600 * 4096).unwrap().is_none());
    }
}

#[test]
fn sbrk_grows_monotonically_and_stays_mapped() {
    for seed in 0..6 {
        let mut rng = Rng::new(200 + seed);
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x100_0000, 4096);
        let mut asp = AddressSpace::new(&mut frames, &mut mem).unwrap();
        asp.add_region(
            &mut frames,
            &mut mem,
            RegionKind::Heap,
            0x10_0000,
            4096,
            MapFlags::user_data(),
            false,
        )
        .unwrap();
        let mut prev_top = asp.heap_top();
        for _ in 0..12 {
            let d = 1 + rng.below(20_000) as i64;
            let old = asp.sbrk(&mut frames, &mut mem, d).unwrap();
            assert_eq!(old, prev_top);
            prev_top = asp.heap_top();
            assert!(asp.translate(&mem, prev_top - 1).unwrap().is_some());
        }
    }
}

#[test]
fn xv6fs_files_read_back_exactly() {
    for seed in 0..4 {
        let mut rng = Rng::new(300 + seed);
        let mut dev = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 4096, 128).unwrap();
        let contents: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                let len = rng.below(20_000) as usize;
                rng.bytes(len)
            })
            .collect();
        for (i, data) in contents.iter().enumerate() {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}"), data)
                .unwrap();
        }
        for (i, data) in contents.iter().enumerate() {
            assert_eq!(
                &fs.read_file(&mut dev, &mut bc, &format!("/f{i}")).unwrap(),
                data
            );
        }
    }
}

#[test]
fn fat32_files_read_back_exactly_and_free_space_is_restored() {
    for seed in 0..4 {
        let mut rng = Rng::new(400 + seed);
        let mut dev = MemDisk::new(64 * 1024);
        let mut bc = BufCache::default();
        let fs = Fat32::mkfs(&mut dev, &mut bc).unwrap();
        let free0 = fs.free_clusters(&mut dev, &mut bc).unwrap();
        let contents: Vec<Vec<u8>> = (0..4)
            .map(|_| {
                let len = 1 + rng.below(60_000) as usize;
                rng.bytes(len)
            })
            .collect();
        for (i, data) in contents.iter().enumerate() {
            fs.write_file(&mut dev, &mut bc, &format!("/f{i}.bin"), data)
                .unwrap();
        }
        for (i, data) in contents.iter().enumerate() {
            assert_eq!(
                &fs.read_file(&mut dev, &mut bc, &format!("/f{i}.bin"))
                    .unwrap(),
                data
            );
        }
        for i in 0..contents.len() {
            fs.remove(&mut dev, &mut bc, &format!("/f{i}.bin")).unwrap();
        }
        assert_eq!(fs.free_clusters(&mut dev, &mut bc).unwrap(), free0);
    }
}

#[test]
fn xv6fs_directory_entries_survive_churn() {
    for seed in 0..4 {
        let mut rng = Rng::new(500 + seed);
        let mut dev = MemDisk::new(8192);
        let mut bc = BufCache::default();
        let fs = Xv6Fs::mkfs(&mut dev, &mut bc, 4096, 128).unwrap();
        let names: std::collections::BTreeSet<String> = (0..20)
            .map(|_| {
                let len = 1 + rng.below(8) as usize;
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect::<String>()
            })
            .collect();
        for n in &names {
            fs.create(&mut dev, &mut bc, &format!("/{n}"), InodeType::File)
                .unwrap();
        }
        let listed: std::collections::BTreeSet<String> = fs
            .list_dir(&mut dev, &mut bc, "/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(listed, names);
    }
}

#[test]
fn key_event_queue_preserves_fifo_order_up_to_capacity() {
    for n in [1usize, 2, 64, 128, 129, 250, 299] {
        let mut q = KeyEventQueue::new(128);
        for i in 0..n {
            q.push(proto_repro::protousb::KeyEvent {
                code: proto_repro::protousb::KeyCode::Unknown((i % 200) as u8),
                modifiers: Default::default(),
                pressed: true,
                timestamp_us: i as u64,
            });
        }
        let mut last = None;
        while let Some(e) = q.pop() {
            if let Some(prev) = last {
                assert!(e.timestamp_us > prev);
            }
            last = Some(e.timestamp_us);
        }
        assert_eq!(last, Some(n as u64 - 1), "newest event is never dropped");
    }
}

#[test]
fn media_codecs_round_trip() {
    for (seed, frames) in [(1u64, 1usize), (42, 3), (999, 5)] {
        let video = proto_repro::ulib::media::generate_test_video(32, 16, frames);
        let encoded = proto_repro::ulib::media::encode_video(&video);
        let mut dec = proto_repro::ulib::media::VideoDecoder::new(encoded).unwrap();
        let mut count = 0;
        while let Some((f, _)) = dec.next_frame() {
            assert_eq!(&f, &video[count]);
            count += 1;
        }
        assert_eq!(count, frames);
        let samples: Vec<i16> = (0..2000)
            .map(|i| ((i as u64 * seed) % 65536) as i16)
            .collect();
        let enc = proto_repro::ulib::media::encode_audio(&samples, 44_100);
        let mut adec = proto_repro::ulib::media::AudioDecoder::new(enc).unwrap();
        let mut back = Vec::new();
        while let Some(fr) = adec.next_frame() {
            back.extend(fr);
        }
        assert_eq!(back, samples);
    }
}

#[test]
fn bmp_round_trips_arbitrary_small_images() {
    let mut rng = Rng::new(77);
    for _ in 0..6 {
        let w = 1 + rng.below(40) as u32;
        let h = 1 + rng.below(40) as u32;
        let seed = rng.next() as u32;
        let mut img = proto_repro::ulib::image::Image::solid(w, h, 0xFF000000);
        for (i, px) in img.pixels.iter_mut().enumerate() {
            *px = 0xFF00_0000 | (seed.wrapping_mul(i as u32 + 1) & 0x00FF_FFFF);
        }
        let encoded = proto_repro::ulib::image::encode_bmp(&img);
        let back = proto_repro::ulib::image::decode_bmp(&encoded).unwrap();
        assert_eq!(back, img);
    }
}

#[test]
fn block_device_stats_account_every_transfer() {
    let mut d = MemDisk::new(64);
    let block = [0u8; 512];
    for lba in 0..10 {
        d.write_block(lba, &block).unwrap();
    }
    let mut big = vec![0u8; 512 * 16];
    d.read_range(0, 16, &mut big).unwrap();
    let s = d.stats();
    assert_eq!(s.single_cmds, 10);
    assert_eq!(s.range_cmds, 1);
    assert_eq!(s.blocks, 26);
}
