//! Regression tests for taint-pass findings: adversarial syscall arguments
//! (huge lengths, extreme offsets, forever sleeps) must be clamped or
//! rejected, never overflow an addition or drive an unbounded allocation.
//! Each test pins a site `protolint --pass taint` flagged before the fix,
//! unless its comment says the pass missed it.

use kernel::OpenFlags;
use proto_repro::prelude::*;

fn desktop() -> (ProtoSystem, kernel::TaskId) {
    let mut sys = ProtoSystem::desktop().unwrap();
    let tid = sys.kernel.spawn_bench_task("hard").unwrap();
    (sys, tid)
}

#[test]
fn sleeping_forever_saturates_instead_of_overflowing() {
    // now_us() + u64::MAX used to overflow the wake deadline in debug
    // builds; it must saturate and leave the task soundly asleep.
    let (mut sys, tid) = desktop();
    sys.kernel
        .with_task_ctx(tid, |ctx| ctx.sleep_us(u64::MAX))
        .unwrap();
    assert!(matches!(
        sys.kernel.task(tid).unwrap().state,
        kernel::TaskState::Sleeping(_)
    ));
    // The sleeper never wakes on its own.
    sys.run_ms(50);
    assert!(matches!(
        sys.kernel.task(tid).unwrap().state,
        kernel::TaskState::Sleeping(_)
    ));
}

#[test]
fn huge_read_requests_are_clamped_to_the_fs_size_limit() {
    // read(fd, usize::MAX) used to allocate the caller's `max` verbatim;
    // the scratch buffer is now clamped to the filesystem's file-size cap.
    let (mut sys, tid) = desktop();
    let data = b"short file".to_vec();
    let back = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/clamp.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, &data)?;
            ctx.close(fd)?;
            let fd = ctx.open("/clamp.txt", OpenFlags::rdonly())?;
            let back = ctx.read(fd, usize::MAX)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>(back)
        })
        .unwrap();
    assert_eq!(back, data);
}

#[test]
fn proc_reads_at_an_offset_do_not_overflow() {
    // The second read starts at a nonzero snapshot offset; adding
    // usize::MAX to it used to overflow in debug builds.
    let (mut sys, tid) = desktop();
    let (first, rest) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/proc/cpuinfo", OpenFlags::rdonly())?;
            let first = ctx.read(fd, 8)?;
            let rest = ctx.read(fd, usize::MAX)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>((first, rest))
        })
        .unwrap();
    assert_eq!(first.len(), 8);
    assert!(!rest.is_empty(), "remainder of the snapshot after offset 8");
}

#[test]
fn fat_writes_past_the_file_size_limit_are_rejected() {
    // An offset write whose end exceeds the FAT32 4 GiB file cap (or
    // overflows entirely) must fail cleanly instead of resizing a
    // multi-gigabyte RMW buffer or panicking on the offset addition.
    let (mut sys, tid) = desktop();
    for offset in [u64::MAX - 2, u64::from(u32::MAX) + 10] {
        let r = sys.kernel.with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/d/limits.bin", OpenFlags::wronly_create())?;
            ctx.write(fd, b"seed")?;
            ctx.lseek(fd, offset)?;
            let r = ctx.write(fd, b"tail");
            ctx.close(fd)?;
            r
        });
        assert!(
            matches!(r, Err(kernel::KernelError::Invalid(_))),
            "offset {offset}: {r:?}"
        );
    }
}

#[test]
fn reads_past_4_gib_are_past_end_of_file() {
    // The filesystems take 32-bit file offsets. A read at 4 GiB used to
    // truncate the descriptor's offset to 0 and return the file's first
    // bytes; it now reads nothing, as at end of file, on both filesystems.
    let (mut sys, tid) = desktop();
    for path in ["/far.txt", "/d/far.txt"] {
        let (far, near) = sys
            .kernel
            .with_task_ctx(tid, |ctx| {
                let fd = ctx.open(path, OpenFlags::wronly_create())?;
                ctx.write(fd, b"HEADER-BYTES")?;
                ctx.close(fd)?;
                let fd = ctx.open(path, OpenFlags::rdonly())?;
                ctx.lseek(fd, 1 << 32)?;
                let far = ctx.read(fd, 64)?;
                ctx.lseek(fd, 0)?;
                let near = ctx.read(fd, 64)?;
                ctx.close(fd)?;
                Ok::<_, kernel::KernelError>((far, near))
            })
            .unwrap();
        assert!(far.is_empty(), "{path}: read at 4 GiB returned {far:?}");
        assert_eq!(near, b"HEADER-BYTES", "{path}");
    }
}

#[test]
fn root_writes_past_4_gib_are_rejected() {
    // A write at 4 GiB used to land on the file's first bytes ("XXADER-
    // BYTES"). Like FAT writes past the file size limit, it now fails and
    // leaves the file alone.
    let (mut sys, tid) = desktop();
    let (r, back) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let fd = ctx.open("/far.txt", OpenFlags::wronly_create())?;
            ctx.write(fd, b"HEADER-BYTES")?;
            ctx.lseek(fd, 1 << 32)?;
            let r = ctx.write(fd, b"XX");
            ctx.close(fd)?;
            let fd = ctx.open("/far.txt", OpenFlags::rdonly())?;
            let back = ctx.read(fd, 64)?;
            ctx.close(fd)?;
            Ok::<_, kernel::KernelError>((r, back))
        })
        .unwrap();
    assert!(
        matches!(r, Err(kernel::KernelError::Invalid(_))),
        "write at 4 GiB: {r:?}"
    );
    assert_eq!(back, b"HEADER-BYTES");
}

#[test]
fn framebuffer_writes_whose_end_overflows_are_rejected() {
    // The bounds check itself overflowed: `offset_px + pixels.len()` at an
    // offset of usize::MAX - 1 panicked the kernel, on the addition in debug
    // builds and on the slice index in release builds. `protolint --pass
    // taint` never flagged this site, because it counts an identifier used
    // in a comparison as sanitized, and here the comparison was the
    // overflowing addition. A write one pixel past the end must fail the
    // same way, and a write that ends at the last pixel must still land.
    let (mut sys, tid) = desktop();
    let (huge, past_end, last, end) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            ctx.fb_map()?;
            let (w, h) = ctx.fb_info()?;
            let end = (w * h) as usize;
            let huge = ctx.fb_write(usize::MAX - 1, &[0, 0]);
            let past_end = ctx.fb_write(end - 1, &[0, 0]);
            let last = ctx.fb_write(end - 2, &[0xFF12_3456, 0xFF65_4321]);
            Ok::<_, kernel::KernelError>((huge, past_end, last, end))
        })
        .unwrap();
    for (what, r) in [("usize::MAX - 1", huge), ("one past the end", past_end)] {
        assert!(
            matches!(r, Err(kernel::KernelError::Device(_))),
            "write at {what}: {r:?}"
        );
    }
    last.unwrap();
    let fb = &sys.kernel.board.framebuffer;
    assert_eq!(fb.staged_pixels()[end - 2..], [0xFF12_3456, 0xFF65_4321]);
}

/// The heap base and the free frames of the bench task `tid`.
fn heap_base_and_free_frames(sys: &ProtoSystem, tid: kernel::TaskId) -> (u64, usize) {
    let heap = sys
        .kernel
        .address_space_of(tid)
        .and_then(|space| {
            space
                .regions()
                .iter()
                .find(|r| r.kind == kernel::mm::RegionKind::Heap)
                .map(|r| r.start)
        })
        .expect("the bench task has a heap");
    (heap, sys.kernel.mm.frames.free_frames())
}

#[test]
fn shrinking_the_heap_by_i64_min_stops_at_the_heap_base() {
    // `sbrk` negated the delta, which overflows for i64::MIN: a debug build
    // panicked with "attempt to negate with overflow". `protolint --pass
    // taint` missed this site, because negation is not one of its sinks.
    let (mut sys, tid) = desktop();
    let (base, _) = heap_base_and_free_frames(&sys, tid);
    let (old, after) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let old = ctx.sbrk(0)?;
            let r = ctx.sbrk(i64::MIN)?;
            assert_eq!(r, old, "sbrk returns the old break");
            Ok::<_, kernel::KernelError>((old, ctx.sbrk(0)?))
        })
        .unwrap();
    assert!(old >= base);
    assert_eq!(after, base, "the break stops at the heap base");
}

#[test]
fn a_heap_growth_past_free_memory_maps_nothing() {
    // A growth larger than the free frames used to map every free frame
    // before it failed, and kept them: the machine stayed out of memory
    // until the task exited, and the next small growth failed too. The
    // taint pass missed this site as well: it takes the `delta > 0` test
    // for a bounds check, and the delta then only bounds a mapping loop.
    let (mut sys, tid) = desktop();
    let (_, free_before) = heap_base_and_free_frames(&sys, tid);
    let (old, huge, after) = sys
        .kernel
        .with_task_ctx(tid, |ctx| {
            let old = ctx.sbrk(0)?;
            let huge = ctx.sbrk(64 << 30);
            Ok::<_, kernel::KernelError>((old, huge, ctx.sbrk(0)?))
        })
        .unwrap();
    assert!(
        matches!(huge, Err(kernel::KernelError::NoMemory)),
        "sbrk(64 GiB): {huge:?}"
    );
    assert_eq!(after, old, "the break did not move");
    assert_eq!(heap_base_and_free_frames(&sys, tid).1, free_before);
    let small = sys.kernel.with_task_ctx(tid, |ctx| ctx.sbrk(4096)).unwrap();
    assert_eq!(small, old, "a small growth still succeeds");
}
