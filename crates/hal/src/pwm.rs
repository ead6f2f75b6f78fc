//! PWM audio output (the 3.5 mm jack path).
//!
//! MusicPlayer's audio pipeline (§4.4) is a classic producer/consumer chain:
//! the app writes decoded samples to `/dev/sb`; the sound driver copies them
//! into kernel sample buffers and programs DMA channel 0 to feed the PWM
//! FIFO; the FIFO drains at the audio sample rate; when a buffer has been
//! consumed the DMA completion interrupt asks the driver for more. If the
//! producer falls behind, the FIFO underruns and playback stutters — the
//! immediate, audible debugging feedback the paper prizes.
//!
//! This model folds the PWM FIFO and its pacing together: the kernel driver
//! submits whole sample buffers (as the DMA engine would deliver them) and
//! the device consumes them at `sample_rate` as virtual time advances.

use std::collections::VecDeque;

use crate::intc::{Interrupt, IrqController};
use crate::{HalError, HalResult};

/// Maximum number of sample buffers queued in the device at once (the driver
/// double-buffers, so two).
pub const MAX_QUEUED_BUFFERS: usize = 2;

/// Default audio sample rate used by the MusicPlayer pipeline.
pub const DEFAULT_SAMPLE_RATE: u32 = 44_100;

/// The PWM audio device.
#[derive(Debug, Clone)]
pub struct PwmAudio {
    enabled: bool,
    sample_rate: u32,
    /// Queued sample buffers; the front one is being consumed.
    buffers: VecDeque<Vec<i16>>,
    /// Samples already consumed from the front buffer.
    consumed_in_front: usize,
    /// Last virtual time (microseconds) the device was advanced to.
    last_us: u64,
    /// Total samples played out.
    samples_played: u64,
    /// Number of underrun events (device wanted a sample, none queued).
    underruns: u64,
    /// Completed buffers since the last interrupt acknowledgement.
    completed_buffers: u64,
}

impl Default for PwmAudio {
    fn default() -> Self {
        Self::new()
    }
}

impl PwmAudio {
    /// Creates a disabled PWM audio device at the default sample rate.
    pub fn new() -> Self {
        PwmAudio {
            enabled: false,
            sample_rate: DEFAULT_SAMPLE_RATE,
            buffers: VecDeque::new(),
            consumed_in_front: 0,
            last_us: 0,
            samples_played: 0,
            underruns: 0,
            completed_buffers: 0,
        }
    }

    /// Enables output at `sample_rate` Hz from virtual time `now_us`.
    pub fn enable(&mut self, sample_rate: u32, now_us: u64) {
        self.enabled = true;
        self.sample_rate = sample_rate.max(1);
        self.last_us = now_us;
    }

    /// Disables output.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether the device is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Configured sample rate.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Whether there is room for another sample buffer.
    pub fn has_space(&self) -> bool {
        self.buffers.len() < MAX_QUEUED_BUFFERS
    }

    /// Number of buffers currently queued.
    pub fn queued_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Submits a sample buffer (what a DMA channel-0 completion delivers).
    pub fn submit_buffer(&mut self, samples: Vec<i16>) -> HalResult<()> {
        if samples.is_empty() {
            return Err(HalError::OutOfRange("empty audio buffer".into()));
        }
        if !self.has_space() {
            return Err(HalError::Overrun("PWM buffer queue full".into()));
        }
        self.buffers.push_back(samples);
        Ok(())
    }

    /// Advances the device to `now_us`, consuming samples at the configured
    /// rate. Raises [`Interrupt::Dma0`] whenever a whole buffer finishes
    /// (the "give me more data" signal the driver waits for).
    pub fn tick(&mut self, now_us: u64, intc: &mut IrqController) {
        if !self.enabled || now_us <= self.last_us {
            self.last_us = self.last_us.max(now_us);
            return;
        }
        let elapsed_us = now_us - self.last_us;
        self.last_us = now_us;
        let mut want = (elapsed_us as u128 * self.sample_rate as u128 / 1_000_000) as u64;
        while want > 0 {
            match self.buffers.front() {
                Some(front) => {
                    let remaining = front.len() - self.consumed_in_front;
                    let take = remaining.min(want as usize);
                    self.consumed_in_front += take;
                    self.samples_played += take as u64;
                    want -= take as u64;
                    if self.consumed_in_front >= front.len() {
                        self.buffers.pop_front();
                        self.consumed_in_front = 0;
                        self.completed_buffers += 1;
                        intc.raise(Interrupt::Dma0);
                    }
                }
                None => {
                    // Nothing queued: every missing sample is an underrun.
                    self.underruns += want;
                    break;
                }
            }
        }
    }

    /// Total samples played out since boot.
    pub fn samples_played(&self) -> u64 {
        self.samples_played
    }

    /// Number of samples the device wanted but could not get (stutter).
    pub fn underruns(&self) -> u64 {
        self.underruns
    }

    /// Buffers fully consumed since boot.
    pub fn completed_buffers(&self) -> u64 {
        self.completed_buffers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intc0() -> IrqController {
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::Dma0);
        ic.set_core_masked(0, false);
        ic
    }

    #[test]
    fn samples_drain_at_the_configured_rate() {
        let mut pwm = PwmAudio::new();
        let mut ic = intc0();
        pwm.enable(44_100, 0);
        pwm.submit_buffer(vec![0i16; 44_100]).unwrap();
        pwm.tick(500_000, &mut ic); // half a second
        assert_eq!(pwm.samples_played(), 22_050);
        assert_eq!(pwm.underruns(), 0);
    }

    #[test]
    fn completed_buffer_raises_dma_irq() {
        let mut pwm = PwmAudio::new();
        let mut ic = intc0();
        pwm.enable(1_000, 0);
        pwm.submit_buffer(vec![1i16; 100]).unwrap();
        pwm.tick(100_000, &mut ic); // exactly one buffer at 1 kHz
        assert_eq!(pwm.completed_buffers(), 1);
        assert_eq!(ic.take_pending(0), Some(Interrupt::Dma0));
    }

    #[test]
    fn starving_the_device_counts_underruns() {
        let mut pwm = PwmAudio::new();
        let mut ic = intc0();
        pwm.enable(1_000, 0);
        pwm.submit_buffer(vec![1i16; 50]).unwrap();
        pwm.tick(200_000, &mut ic); // wants 200 samples, only 50 exist
        assert_eq!(pwm.samples_played(), 50);
        assert_eq!(pwm.underruns(), 150);
    }

    #[test]
    fn queue_depth_is_bounded() {
        let mut pwm = PwmAudio::new();
        pwm.enable(1_000, 0);
        pwm.submit_buffer(vec![0; 10]).unwrap();
        pwm.submit_buffer(vec![0; 10]).unwrap();
        assert!(!pwm.has_space());
        assert!(matches!(
            pwm.submit_buffer(vec![0; 10]),
            Err(HalError::Overrun(_))
        ));
    }

    #[test]
    fn disabled_device_does_not_consume() {
        let mut pwm = PwmAudio::new();
        let mut ic = intc0();
        pwm.submit_buffer(vec![0; 10]).unwrap();
        pwm.tick(1_000_000, &mut ic);
        assert_eq!(pwm.samples_played(), 0);
        assert_eq!(pwm.underruns(), 0);
    }

    #[test]
    fn empty_buffers_are_rejected() {
        let mut pwm = PwmAudio::new();
        assert!(pwm.submit_buffer(vec![]).is_err());
    }
}
