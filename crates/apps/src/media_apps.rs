//! MusicPlayer and VideoPlayer.
//!
//! MusicPlayer (Prototype 4/5) decodes audio and streams samples to
//! `/dev/sb` while showing album art; in Prototype 5 the streaming moves to
//! a dedicated thread created with `clone(CLONE_VM)` (§4.5), turning the
//! app/driver/DMA chain into the producer/consumer pipeline of §4.4.
//! VideoPlayer decodes the MPEG-1-substitute stream, converts YUV→RGB with
//! the SIMD path of §5.2 and renders directly to the framebuffer, targeting
//! the video's native frame rate.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::task::Poll;

use kernel::usercall::{FramePhases, StepResult, UserCtx, UserProgram};
use kernel::vfs::OpenFlags;
use kernel::KernelError;
use ulib::image::Image;
use ulib::media::{yuv_to_rgb_scalar, yuv_to_rgb_simd, AudioDecoder, VideoDecoder};

use crate::WholeFile;

// =====================================================================================
// MusicPlayer
// =====================================================================================

/// The audio-streaming thread: pops decoded sample buffers from the shared
/// queue and writes them to `/dev/sb`, blocking when the driver's ring is
/// full.
#[derive(Debug)]
pub struct AudioStreamThread {
    shared: Arc<Mutex<VecDeque<Vec<i16>>>>,
    sb_fd: Option<i32>,
    carried: Option<Vec<i16>>,
    started: bool,
    /// Set once the decoder is finished so the thread can exit when drained.
    pub finished: Arc<Mutex<bool>>,
}

impl UserProgram for AudioStreamThread {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        if self.sb_fd.is_none() {
            match ctx.open("/dev/sb", OpenFlags::wronly_create()) {
                Ok(fd) => self.sb_fd = Some(fd),
                Err(_) => return StepResult::Exited(1),
            }
        }
        // Pre-buffer: wait for a few decoded frames before the first write so
        // playback does not start with an immediately starving FIFO.
        if !self.started {
            let depth = self.shared.lock().expect("audio queue lock").len();
            if depth < 4 && !*self.finished.lock().expect("finished flag") {
                let _ = ctx.sleep_ms(2);
                return StepResult::Continue;
            }
            self.started = true;
        }
        let buffer = match self.carried.take() {
            Some(b) => Some(b),
            None => self.shared.lock().expect("audio queue lock").pop_front(),
        };
        let Some(buffer) = buffer else {
            if *self.finished.lock().expect("finished flag") {
                return StepResult::Exited(0);
            }
            let _ = ctx.sleep_ms(5);
            return StepResult::Continue;
        };
        match ctx.write(
            self.sb_fd.expect("opened above"),
            &ulib::samples_to_bytes(&buffer),
        ) {
            Ok(_) => StepResult::Continue,
            Err(KernelError::WouldBlock) => {
                // Ring full: keep the buffer and retry once the DMA drains.
                self.carried = Some(buffer);
                StepResult::Continue
            }
            Err(_) => StepResult::Exited(1),
        }
    }
    fn program_name(&self) -> &str {
        "musicplayer-audio"
    }
}

/// The MusicPlayer app.
#[derive(Debug)]
pub struct MusicPlayer {
    track_path: String,
    track: WholeFile,
    decoder: Option<AudioDecoder>,
    shared: Arc<Mutex<VecDeque<Vec<i16>>>>,
    finished: Arc<Mutex<bool>>,
    thread_started: bool,
    cover_drawn: bool,
    mapped: bool,
    frames_decoded: u64,
    /// Stop after decoding this many frames (0 = whole track).
    pub max_frames: u64,
}

impl MusicPlayer {
    /// Creates the player from exec arguments: `[track-path] [frames]`.
    pub fn from_args(args: &[String]) -> Self {
        MusicPlayer {
            track_path: args
                .first()
                .cloned()
                .unwrap_or_else(|| "/d/track1.ogg".into()),
            track: WholeFile::default(),
            decoder: None,
            shared: Arc::new(Mutex::new(VecDeque::new())),
            finished: Arc::new(Mutex::new(false)),
            thread_started: false,
            cover_drawn: false,
            mapped: false,
            frames_decoded: 0,
            max_frames: args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0),
        }
    }

    /// Audio frames decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }
}

impl UserProgram for MusicPlayer {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let cost = ctx.cost();
        if self.decoder.is_none() {
            let Poll::Ready(data) = self.track.poll(ctx, &self.track_path) else {
                return StepResult::Continue;
            };
            let Some(data) = data else {
                ctx.print("musicplayer: no track found");
                return StepResult::Exited(1);
            };
            match AudioDecoder::new(data) {
                Ok(d) => self.decoder = Some(d),
                Err(_) => {
                    ctx.print("musicplayer: not a POGG stream");
                    return StepResult::Exited(1);
                }
            }
        }
        if !self.mapped {
            self.mapped = ctx.fb_map().is_ok();
        }
        if !self.cover_drawn && self.mapped {
            // Draw the album cover: a gradient test card in the corner.
            let cover = Image::gradient(128, 128);
            for y in 0..cover.height {
                let row: Vec<u32> = (0..cover.width).map(|x| cover.at(x, y)).collect();
                if let Ok((fb_w, _)) = ctx.fb_info() {
                    let _ = ctx.fb_write((y * fb_w + 16) as usize, &row);
                }
            }
            let _ = ctx.fb_flush();
            self.cover_drawn = true;
        }
        if !self.thread_started {
            let thread = AudioStreamThread {
                shared: Arc::clone(&self.shared),
                sb_fd: None,
                carried: None,
                started: false,
                finished: Arc::clone(&self.finished),
            };
            // Prototype 5 uses a thread; if threading is unavailable the app
            // streams inline from this task instead (Prototype 4 behaviour).
            let _ = ctx.clone_thread(Box::new(thread));
            self.thread_started = true;
        }
        // Decode the next frame unless the queue is already deep.
        let queue_depth = self.shared.lock().expect("audio queue lock").len();
        if queue_depth < 8 {
            let decoder = self.decoder.as_mut().expect("decoder initialised");
            match decoder.next_frame() {
                Some(samples) => {
                    self.frames_decoded += 1;
                    ctx.charge_user(
                        cost.per_byte(cost.audio_sample_decode_milli, samples.len() as u64),
                    );
                    ctx.record_frame(FramePhases {
                        app_logic_cycles: cost
                            .per_byte(cost.audio_sample_decode_milli, samples.len() as u64),
                        draw_cycles: 0,
                        present_cycles: 0,
                    });
                    self.shared
                        .lock()
                        .expect("audio queue lock")
                        .push_back(samples);
                }
                None => {
                    *self.finished.lock().expect("finished flag") = true;
                    return StepResult::Exited(0);
                }
            }
            if self.max_frames > 0 && self.frames_decoded >= self.max_frames {
                *self.finished.lock().expect("finished flag") = true;
                return StepResult::Exited(0);
            }
        } else {
            let _ = ctx.sleep_ms(10);
        }
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "musicplayer"
    }
}

// =====================================================================================
// VideoPlayer
// =====================================================================================

/// The VideoPlayer app.
#[derive(Debug)]
pub struct VideoPlayer {
    video_path: String,
    video: WholeFile,
    decoder: Option<VideoDecoder>,
    mapped: bool,
    frames_shown: u64,
    /// Use the scalar YUV→RGB path instead of the SIMD one (the §5.2
    /// ablation; roughly 3x slower playback).
    pub force_scalar_convert: bool,
    /// Native frame period in microseconds (1/30 s by default).
    pub frame_period_us: u64,
    next_deadline_us: u64,
    /// Stop after this many frames (0 = whole stream, then loop).
    pub max_frames: u64,
}

impl VideoPlayer {
    /// Creates the player from exec arguments: `[video-path] [frames] [scalar]`.
    pub fn from_args(args: &[String]) -> Self {
        VideoPlayer {
            video_path: args
                .first()
                .cloned()
                .unwrap_or_else(|| "/d/video480.mpg".into()),
            video: WholeFile::default(),
            decoder: None,
            mapped: false,
            frames_shown: 0,
            force_scalar_convert: args.iter().any(|a| a == "scalar"),
            frame_period_us: 1_000_000 / 30,
            next_deadline_us: 0,
            max_frames: args.get(1).and_then(|a| a.parse().ok()).unwrap_or(0),
        }
    }

    /// Frames presented so far.
    pub fn frames_shown(&self) -> u64 {
        self.frames_shown
    }
}

impl UserProgram for VideoPlayer {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let cost = ctx.cost();
        if self.decoder.is_none() {
            let Poll::Ready(data) = self.video.poll(ctx, &self.video_path) else {
                return StepResult::Continue;
            };
            let Some(data) = data else {
                ctx.print("videoplayer: no video found");
                return StepResult::Exited(1);
            };
            match VideoDecoder::new(data) {
                Ok(d) => self.decoder = Some(d),
                Err(_) => {
                    ctx.print("videoplayer: not a PMPG stream");
                    return StepResult::Exited(1);
                }
            }
        }
        if !self.mapped {
            if ctx.fb_map().is_err() {
                return StepResult::Exited(1);
            }
            self.mapped = true;
        }
        let decoder = self.decoder.as_mut().expect("decoder initialised");
        let Some((frame, raw_blocks)) = decoder.next_frame() else {
            return StepResult::Exited(0);
        };
        // Decode cost scales with the number of non-skip blocks.
        let decode_cycles = cost.per_byte(cost.video_block_decode_milli, raw_blocks.max(1));
        ctx.charge_user(decode_cycles);
        // YUV -> RGB conversion (the §5.2 optimisation target).
        let rgb = if self.force_scalar_convert {
            let c = cost.per_byte(
                cost.pixel_convert_scalar_per_px_milli,
                (frame.width * frame.height) as u64,
            );
            ctx.charge_user(c);
            yuv_to_rgb_scalar(&frame)
        } else {
            let c = cost.per_byte(
                cost.pixel_convert_simd_per_px_milli,
                (frame.width * frame.height) as u64,
            );
            ctx.charge_user(c);
            yuv_to_rgb_simd(&frame)
        };
        // Present: blit centred into the framebuffer. A frame larger than
        // the screen (720p on the 640x480 panel) is centre-cropped to it;
        // the conversion above was still charged for the full frame.
        let (fb_w, fb_h) = match ctx.fb_info() {
            Ok(g) => g,
            Err(_) => return StepResult::Exited(1),
        };
        let (fb_w, fb_h) = (fb_w as usize, fb_h as usize);
        let draw_start = ctx.now_us();
        let (w, h) = (frame.width.min(fb_w), frame.height.min(fb_h));
        let (x0, y0) = ((fb_w - w) / 2, (fb_h - h) / 2);
        let (sx, sy) = ((frame.width - w) / 2, (frame.height - h) / 2);
        for y in 0..h {
            let src = (sy + y) * frame.width + sx;
            if ctx
                .fb_write((y0 + y) * fb_w + x0, &rgb[src..src + w])
                .is_err()
            {
                return StepResult::Exited(1);
            }
        }
        let _ = ctx.fb_flush();
        let present_cycles = (ctx.now_us() - draw_start) * 1_000;
        self.frames_shown += 1;
        ctx.record_frame(FramePhases {
            app_logic_cycles: decode_cycles,
            draw_cycles: present_cycles / 2,
            present_cycles: present_cycles / 2,
        });
        if self.max_frames > 0 && self.frames_shown >= self.max_frames {
            return StepResult::Exited(0);
        }
        // Pace playback to the native frame rate: only sleep if we are ahead.
        let now = ctx.now_us();
        if self.next_deadline_us == 0 {
            self.next_deadline_us = now;
        }
        self.next_deadline_us += self.frame_period_us;
        if self.next_deadline_us > now {
            let _ = ctx.sleep_us(self.next_deadline_us - now);
        } else {
            self.next_deadline_us = now;
        }
        StepResult::Continue
    }
    fn program_name(&self) -> &str {
        "videoplayer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn players_build_from_args() {
        let m = MusicPlayer::from_args(&["/d/song.ogg".into(), "5".into()]);
        assert_eq!(m.track_path, "/d/song.ogg");
        assert_eq!(m.max_frames, 5);
        let v = VideoPlayer::from_args(&["/d/clip.mpg".into(), "10".into(), "scalar".into()]);
        assert!(v.force_scalar_convert);
        assert_eq!(v.max_frames, 10);
        assert_eq!(v.frame_period_us, 33_333);
    }
}
