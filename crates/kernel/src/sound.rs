//! Sound driver: the `/dev/sb` producer/consumer pipeline.
//!
//! MusicPlayer writes decoded samples to `/dev/sb`; the driver copies them
//! into a kernel ring buffer and keeps the PWM device fed by submitting
//! buffer-sized chunks; DMA-completion interrupts ask for more (§4.4). When
//! the ring is full the writer blocks — the condition-variable-and-ring
//! pattern the paper calls "a classic OS design pattern", whose failure mode
//! (stutter) is immediately audible.

use std::collections::VecDeque;

use hal::pwm::PwmAudio;

use crate::error::{KResult, KernelError};

/// Capacity of the kernel-side sample ring (in samples).
pub const RING_CAPACITY: usize = 32_768;
/// Size of the buffers handed to the PWM/DMA path (in samples).
pub const DMA_BUFFER_SAMPLES: usize = 4_096;

/// Result of a write attempt to `/dev/sb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoundWriteOutcome {
    /// `n` samples were accepted.
    Accepted(usize),
    /// The ring is full; the writer should block until the DMA drains it.
    WouldBlock,
}

/// The sound driver state.
#[derive(Debug, Clone)]
pub struct SoundDriver {
    ring: VecDeque<i16>,
    /// Total samples accepted from userspace.
    pub samples_written: u64,
    /// Total samples submitted to the PWM device.
    pub samples_submitted: u64,
    enabled: bool,
}

impl Default for SoundDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl SoundDriver {
    /// Creates the driver (output disabled until the first write).
    pub fn new() -> Self {
        SoundDriver {
            ring: VecDeque::new(),
            samples_written: 0,
            samples_submitted: 0,
            enabled: false,
        }
    }

    /// Samples currently buffered in the kernel ring.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }

    /// Free space in the ring, in samples.
    pub fn space(&self) -> usize {
        RING_CAPACITY - self.ring.len()
    }

    /// Whether playback has been started.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Accepts raw little-endian i16 samples from a `/dev/sb` write. Starts
    /// the PWM device on first use.
    pub fn write_samples(
        &mut self,
        pwm: &mut PwmAudio,
        now_us: u64,
        bytes: &[u8],
    ) -> KResult<SoundWriteOutcome> {
        if !bytes.len().is_multiple_of(2) {
            return Err(KernelError::Invalid("odd-length sample write".into()));
        }
        if !self.enabled {
            pwm.enable(hal::pwm::DEFAULT_SAMPLE_RATE, now_us);
            self.enabled = true;
        }
        if self.space() == 0 {
            return Ok(SoundWriteOutcome::WouldBlock);
        }
        let nsamples = (bytes.len() / 2).min(self.space());
        for i in 0..nsamples {
            let s = i16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
            self.ring.push_back(s);
        }
        self.samples_written += nsamples as u64;
        // Keep the device fed opportunistically.
        self.refill(pwm);
        Ok(SoundWriteOutcome::Accepted(nsamples * 2))
    }

    /// Moves ring contents into the PWM device's buffer queue; called on
    /// writes and from the DMA-completion interrupt handler. Returns how many
    /// buffers were submitted.
    pub fn refill(&mut self, pwm: &mut PwmAudio) -> usize {
        let mut submitted = 0;
        while pwm.has_space() && !self.ring.is_empty() {
            let n = self.ring.len().min(DMA_BUFFER_SAMPLES);
            let buf: Vec<i16> = self.ring.drain(..n).collect();
            self.samples_submitted += buf.len() as u64;
            if pwm.submit_buffer(buf).is_err() {
                break;
            }
            submitted += 1;
        }
        submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal::intc::IrqController;

    fn bytes_for(samples: usize) -> Vec<u8> {
        (0..samples)
            .flat_map(|i| ((i % 1000) as i16).to_le_bytes())
            .collect()
    }

    #[test]
    fn writes_enable_playback_and_feed_the_device() {
        let mut drv = SoundDriver::new();
        let mut pwm = PwmAudio::new();
        let out = drv.write_samples(&mut pwm, 0, &bytes_for(1000)).unwrap();
        assert_eq!(out, SoundWriteOutcome::Accepted(2000));
        assert!(drv.is_enabled());
        assert!(pwm.is_enabled());
        assert_eq!(pwm.queued_buffers(), 1);
        assert_eq!(drv.samples_written, 1000);
    }

    #[test]
    fn a_full_ring_asks_the_writer_to_block() {
        let mut drv = SoundDriver::new();
        let mut pwm = PwmAudio::new();
        // Fill the device (2 buffers) and the ring completely.
        let total = RING_CAPACITY + 2 * DMA_BUFFER_SAMPLES;
        let mut written = 0usize;
        while let SoundWriteOutcome::Accepted(n) =
            drv.write_samples(&mut pwm, 0, &bytes_for(8192)).unwrap()
        {
            written += n / 2;
            assert!(written <= total + 8192, "ring never reported full");
        }
        assert!(drv.space() == 0);
    }

    #[test]
    fn dma_completion_refill_keeps_audio_flowing() {
        let mut drv = SoundDriver::new();
        let mut pwm = PwmAudio::new();
        let mut ic = IrqController::new(1);
        ic.enable(hal::intc::Interrupt::Dma0);
        ic.set_core_masked(0, false);
        drv.write_samples(&mut pwm, 0, &bytes_for(3 * DMA_BUFFER_SAMPLES))
            .unwrap();
        assert_eq!(pwm.queued_buffers(), 2, "device holds its two buffers");
        assert!(drv.buffered() > 0, "excess stays in the kernel ring");
        // Let the device consume one buffer's worth of samples.
        pwm.tick(
            (DMA_BUFFER_SAMPLES as u64 * 1_000_000) / hal::pwm::DEFAULT_SAMPLE_RATE as u64 + 1_000,
            &mut ic,
        );
        assert!(ic.has_pending(0), "DMA interrupt fired");
        let submitted = drv.refill(&mut pwm);
        assert!(submitted >= 1, "the handler tops the device back up");
        assert_eq!(pwm.underruns(), 0);
    }

    #[test]
    fn odd_length_writes_are_rejected() {
        let mut drv = SoundDriver::new();
        let mut pwm = PwmAudio::new();
        assert!(drv.write_samples(&mut pwm, 0, &[1, 2, 3]).is_err());
    }
}
