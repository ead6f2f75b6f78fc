//! DMA controller.
//!
//! The BCM2837 has 16 DMA channels; Proto uses channel 0 to stream audio
//! samples from a memory ring buffer into the PWM FIFO, paced by the PWM
//! data-request signal (§4.4), and — since the SD driver grew its DMA data
//! path — to run the scatter-gather control-block chains of CMD18/CMD25 data
//! phases ([`DmaDest::SdChain`]). The model provides timed transfers: a
//! transfer programmed now completes after a duration derived from the cost
//! model, at which point the channel raises [`Interrupt::Dma0`]. Drivers
//! that wait synchronously instead poll the channel status with
//! [`DmaEngine::poll_channel`] after advancing their core clock to
//! [`DmaEngine::busy_until`], exactly as a real driver spins on the CS
//! register instead of taking the interrupt.

use crate::clock::Cycles;
use crate::intc::{Interrupt, IrqController};
use crate::mem::{PhysAddr, PhysMem};
use crate::{HalError, HalResult};

/// Number of DMA channels modelled (the audio path only needs one, but the
/// engine supports several so tests can exercise contention).
pub const NUM_CHANNELS: usize = 4;

/// Where a DMA transfer delivers its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDest {
    /// Copy into physical memory at the given address.
    Memory(PhysAddr),
    /// Deliver to a peripheral FIFO (the PWM audio FIFO); the data is handed
    /// to the caller on completion so the board can push it into the device.
    PeripheralFifo,
    /// A scatter-gather control-block chain carrying the data phase of one
    /// queued SD command. The engine only models the chain's *timing*; the SD
    /// host applies the data movement when its driver reaps the completion
    /// (`SdHost::finish_dma`), keyed by this command id. No simulated DRAM
    /// traffic occurs — the filesystem buffers live outside [`PhysMem`].
    SdChain {
        /// Id of the queued SD command whose data phase this chain carries.
        cmd_id: u64,
    },
}

/// A programmed DMA control block.
#[derive(Debug, Clone)]
pub struct DmaTransfer {
    /// Source address in physical memory.
    pub src: PhysAddr,
    /// Destination.
    pub dest: DmaDest,
    /// Length in bytes.
    pub len: usize,
}

/// A completed transfer, reported when the completion interrupt fires.
#[derive(Debug, Clone)]
pub struct DmaCompletion {
    /// Which channel completed.
    pub channel: usize,
    /// The transfer that completed.
    pub transfer: DmaTransfer,
    /// Data read from the source (only populated for peripheral-FIFO
    /// destinations, where the board must forward it to the device).
    pub fifo_data: Option<Vec<u8>>,
    /// Why the transfer's memory access failed, if it did. A failed
    /// transfer still ends: its channel goes idle and its completion is
    /// reported like any other.
    pub error: Option<HalError>,
}

#[derive(Debug, Clone)]
struct Channel {
    active: Option<(DmaTransfer, u64)>, // (transfer, completion time in cycles)
    completions: u64,
}

/// The DMA engine model.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    channels: Vec<Channel>,
    finished: Vec<DmaCompletion>,
}

impl Default for DmaEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DmaEngine {
    /// Creates the engine with all channels idle.
    pub fn new() -> Self {
        DmaEngine {
            channels: (0..NUM_CHANNELS)
                .map(|_| Channel {
                    active: None,
                    completions: 0,
                })
                .collect(),
            finished: Vec::new(),
        }
    }

    /// Whether `channel` is currently busy.
    pub fn is_busy(&self, channel: usize) -> bool {
        self.channels
            .get(channel)
            .map(|c| c.active.is_some())
            .unwrap_or(false)
    }

    /// Number of completed transfers on `channel`.
    pub fn completions(&self, channel: usize) -> u64 {
        self.channels
            .get(channel)
            .map(|c| c.completions)
            .unwrap_or(0)
    }

    /// Programs `channel` with `transfer`, starting at global time `now`
    /// (cycles) and taking `duration` cycles of device time.
    pub fn start(
        &mut self,
        channel: usize,
        transfer: DmaTransfer,
        now: Cycles,
        duration: Cycles,
    ) -> HalResult<()> {
        let ch = self
            .channels
            .get_mut(channel)
            .ok_or_else(|| HalError::OutOfRange(format!("dma channel {channel}")))?;
        if ch.active.is_some() {
            return Err(HalError::InvalidState(format!(
                "dma channel {channel} already active"
            )));
        }
        if transfer.len == 0 {
            return Err(HalError::OutOfRange("zero-length DMA transfer".into()));
        }
        ch.active = Some((transfer, now.saturating_add(duration)));
        Ok(())
    }

    /// Advances the engine to global time `now`, performing any transfers
    /// whose completion time has passed and raising [`Interrupt::Dma0`] for
    /// channel 0 completions (the only channel Proto enables interrupts for).
    /// Every due transfer completes in this call, one whose memory access
    /// fails included; the first such failure is returned afterwards.
    pub fn tick(
        &mut self,
        now: Cycles,
        mem: &mut PhysMem,
        intc: &mut IrqController,
    ) -> HalResult<()> {
        let mut first_error = None;
        for (idx, ch) in self.channels.iter_mut().enumerate() {
            let Some((transfer, _)) = ch.active.take_if(|(_, done_at)| *done_at <= now) else {
                continue;
            };
            let (fifo_data, moved) = match &transfer.dest {
                DmaDest::Memory(dst) => (None, mem.copy_within(transfer.src, *dst, transfer.len)),
                DmaDest::PeripheralFifo => {
                    let mut data = vec![0u8; transfer.len];
                    let read = mem.read(transfer.src, &mut data);
                    (read.is_ok().then_some(data), read)
                }
                // SD chains carry no simulated-DRAM payload; the SD host
                // applies the data phase when the driver reaps `cmd_id`.
                DmaDest::SdChain { .. } => (None, Ok(())),
            };
            let error = moved.err();
            if first_error.is_none() {
                first_error.clone_from(&error);
            }
            ch.completions += 1;
            self.finished.push(DmaCompletion {
                channel: idx,
                transfer,
                fifo_data,
                error,
            });
            if idx == 0 {
                intc.raise(Interrupt::Dma0);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Drains the completion queue (the driver reads this in its IRQ handler).
    pub fn take_completions(&mut self) -> Vec<DmaCompletion> {
        std::mem::take(&mut self.finished)
    }

    /// When the transfer active on `channel` will complete, if one is active.
    pub fn busy_until(&self, channel: usize) -> Option<Cycles> {
        self.channels
            .get(channel)?
            .active
            .as_ref()
            .map(|(_, done_at)| *done_at)
    }

    /// The earliest completion time (cycles) among the active SD-chain
    /// transfers on any channel, if one is in flight. The board's idle (WFI)
    /// path folds this into its wake-up deadline so a core whose tasks are
    /// all parked on the block-I/O channel sleeps exactly until the chain's
    /// completion interrupt instead of a full timer period.
    pub fn earliest_sd_deadline(&self) -> Option<Cycles> {
        self.channels
            .iter()
            .filter_map(|c| match &c.active {
                Some((t, done_at)) if matches!(t.dest, DmaDest::SdChain { .. }) => Some(*done_at),
                _ => None,
            })
            .min()
    }

    /// Polled reap: if the transfer active on `channel` is an SD chain whose
    /// deadline has passed, completes it *without* raising the interrupt —
    /// the synchronous-wait path where the driver spins on the channel status
    /// register instead of sleeping until the IRQ. Returns the completed
    /// chain's command id. Non-SD transfers are left for [`DmaEngine::tick`].
    pub fn poll_channel(&mut self, channel: usize, now: Cycles) -> Option<u64> {
        let ch = self.channels.get_mut(channel)?;
        match &ch.active {
            Some((t, done_at)) if *done_at <= now => {
                if let DmaDest::SdChain { cmd_id } = t.dest {
                    ch.active = None;
                    ch.completions += 1;
                    Some(cmd_id)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Extracts the SD-chain command ids already moved to the finished list
    /// by [`DmaEngine::tick`] (their [`Interrupt::Dma0`] may or may not have
    /// been serviced yet), leaving non-SD completions in place.
    pub fn take_finished_sd(&mut self) -> Vec<u64> {
        let mut ids = Vec::new();
        self.finished.retain(|c| match c.transfer.dest {
            DmaDest::SdChain { cmd_id } => {
                ids.push(cmd_id);
                false
            }
            _ => true,
        });
        ids
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
    fn mem_to_mem_transfer_copies_after_duration() {
        let mut dma = DmaEngine::new();
        let mut mem = PhysMem::new();
        let mut ic = intc0();
        mem.write(0x1000, b"audio samples").unwrap();
        dma.start(
            0,
            DmaTransfer {
                src: 0x1000,
                dest: DmaDest::Memory(0x2000),
                len: 13,
            },
            0,
            500,
        )
        .unwrap();
        dma.tick(499, &mut mem, &mut ic).unwrap();
        assert!(dma.is_busy(0));
        dma.tick(500, &mut mem, &mut ic).unwrap();
        assert!(!dma.is_busy(0));
        let mut back = [0u8; 13];
        mem.read(0x2000, &mut back).unwrap();
        assert_eq!(&back, b"audio samples");
        assert_eq!(ic.take_pending(0), Some(Interrupt::Dma0));
    }

    #[test]
    fn fifo_transfers_hand_data_back_on_completion() {
        let mut dma = DmaEngine::new();
        let mut mem = PhysMem::new();
        let mut ic = intc0();
        mem.write(0x4000, &[1, 2, 3, 4]).unwrap();
        dma.start(
            0,
            DmaTransfer {
                src: 0x4000,
                dest: DmaDest::PeripheralFifo,
                len: 4,
            },
            0,
            10,
        )
        .unwrap();
        dma.tick(10, &mut mem, &mut ic).unwrap();
        let done = dma.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].fifo_data.as_deref(), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(dma.completions(0), 1);
    }

    #[test]
    fn a_faulting_transfer_completes_with_its_error_in_the_same_tick_as_the_others() {
        let mut dma = DmaEngine::new();
        let mut mem = PhysMem::with_size(1 << 20);
        let mut ic = intc0();
        mem.write(0x1000, b"ok").unwrap();
        let past_dram = (1 << 20) - 2;
        // Channels 0 and 1 read past the end of DRAM; channel 2 is due in
        // the same tick.
        for (ch, src, dest, len) in [
            (0, past_dram, DmaDest::Memory(0x100), 4),
            (1, past_dram, DmaDest::PeripheralFifo, 4),
            (2, 0x1000, DmaDest::Memory(0x2000), 2),
        ] {
            dma.start(ch, DmaTransfer { src, dest, len }, 0, 5).unwrap();
        }
        assert_eq!(
            dma.tick(5, &mut mem, &mut ic),
            Err(HalError::BadAddress(past_dram)),
            "the first failure is returned"
        );
        for ch in 0..3 {
            assert!(!dma.is_busy(ch), "channel {ch} is idle again");
            assert_eq!(dma.completions(ch), 1, "channel {ch}");
        }
        assert_eq!(ic.take_pending(0), Some(Interrupt::Dma0));
        let done = dma.take_completions();
        let errors: Vec<_> = done.iter().map(|c| (c.channel, c.error.clone())).collect();
        assert_eq!(
            errors,
            [
                (0, Some(HalError::BadAddress(past_dram))),
                (1, Some(HalError::BadAddress(past_dram))),
                (2, None),
            ]
        );
        assert_eq!(done[1].fifo_data, None);
        assert_eq!(
            mem.read_u32(0x100).unwrap(),
            0,
            "the failed copy wrote nothing"
        );
        let mut back = [0u8; 2];
        mem.read(0x2000, &mut back).unwrap();
        assert_eq!(&back, b"ok");
        dma.tick(10, &mut mem, &mut ic).unwrap();
        assert!(dma.take_completions().is_empty());
    }

    #[test]
    fn busy_channel_rejects_new_programs() {
        let mut dma = DmaEngine::new();
        let t = DmaTransfer {
            src: 0,
            dest: DmaDest::PeripheralFifo,
            len: 8,
        };
        dma.start(1, t.clone(), 0, 100).unwrap();
        assert!(matches!(
            dma.start(1, t, 0, 100),
            Err(HalError::InvalidState(_))
        ));
    }

    #[test]
    fn zero_length_and_bad_channel_are_rejected() {
        let mut dma = DmaEngine::new();
        let t = DmaTransfer {
            src: 0,
            dest: DmaDest::PeripheralFifo,
            len: 0,
        };
        assert!(dma.start(0, t.clone(), 0, 10).is_err());
        let t2 = DmaTransfer { len: 4, ..t };
        assert!(dma.start(99, t2, 0, 10).is_err());
    }

    #[test]
    fn only_channel0_raises_interrupts() {
        let mut dma = DmaEngine::new();
        let mut mem = PhysMem::new();
        let mut ic = intc0();
        dma.start(
            2,
            DmaTransfer {
                src: 0,
                dest: DmaDest::Memory(0x100),
                len: 4,
            },
            0,
            1,
        )
        .unwrap();
        dma.tick(10, &mut mem, &mut ic).unwrap();
        assert!(!ic.has_pending(0));
        assert_eq!(dma.take_completions().len(), 1);
    }
}
