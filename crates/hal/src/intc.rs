//! Interrupt controller model.
//!
//! The BCM2837 routes SoC peripheral interrupts through a legacy interrupt
//! controller and per-core mailboxes/timers through a small "local"
//! controller. Proto keeps the routing policy simple (§4.5): per-core ARM
//! generic timer interrupts are delivered to their own core, while *all
//! other* peripheral interrupts go to core 0. The panic-button FIQ (§5.1) is
//! the exception: it stays unmasked at all times and is rotated round-robin
//! across cores so that a wedged core cannot swallow every dump request.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::clock::CoreId;
use crate::NUM_CORES;

/// Interrupt sources on the simulated board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interrupt {
    /// SoC system timer compare channel 1 (the scheduler tick source in
    /// Prototypes 1–4).
    SystemTimer1,
    /// SoC system timer compare channel 3 (used for virtual timers).
    SystemTimer3,
    /// ARM generic timer (CNTP) of a particular core; drives per-core
    /// scheduler ticks once the kernel goes multicore.
    GenericTimer(CoreId),
    /// UART receive interrupt.
    UartRx,
    /// UART transmit-FIFO-drained interrupt.
    UartTx,
    /// USB host controller interrupt (transfer completion / port change).
    UsbHc,
    /// DMA channel 0 completion (audio sample buffer drained).
    Dma0,
    /// GPIO bank 0 edge event (Game HAT buttons).
    GpioBank0,
    /// SD host command/data done.
    SdHost,
    /// The reserved FIQ "panic button" wired to a GPIO pin.
    PanicButtonFiq,
}

impl Interrupt {
    /// True if this source is delivered as FIQ rather than IRQ.
    pub fn is_fiq(&self) -> bool {
        matches!(self, Interrupt::PanicButtonFiq)
    }
}

/// A pending interrupt bound for a specific core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingIrq {
    /// The interrupt source.
    pub source: Interrupt,
    /// The core it is routed to.
    pub core: CoreId,
}

/// The simulated interrupt controller.
#[derive(Debug)]
pub struct IrqController {
    enabled: Vec<Interrupt>,
    pending: VecDeque<PendingIrq>,
    /// Per-core IRQ mask (DAIF.I equivalent): `true` means IRQs masked.
    irq_masked: [bool; NUM_CORES],
    /// FIQ round-robin cursor for the panic button.
    fiq_next_core: CoreId,
    num_cores: usize,
    /// Count of interrupts raised, per source kind, for tracing/tests.
    raised_count: u64,
}

impl Default for IrqController {
    fn default() -> Self {
        Self::new(NUM_CORES)
    }
}

impl IrqController {
    /// Creates a controller for `num_cores` cores with all sources disabled
    /// and all cores' IRQs masked (the boot state).
    pub fn new(num_cores: usize) -> Self {
        IrqController {
            enabled: Vec::new(),
            pending: VecDeque::new(),
            irq_masked: [true; NUM_CORES],
            fiq_next_core: 0,
            num_cores: num_cores.min(NUM_CORES),
            raised_count: 0,
        }
    }

    /// Enables delivery of `source`.
    pub fn enable(&mut self, source: Interrupt) {
        if !self.enabled.contains(&source) {
            self.enabled.push(source);
        }
    }

    /// Disables delivery of `source` and drops any pending instance of it.
    pub fn disable(&mut self, source: Interrupt) {
        self.enabled.retain(|s| *s != source);
        self.pending.retain(|p| p.source != source);
    }

    /// True if `source` is enabled.
    pub fn is_enabled(&self, source: Interrupt) -> bool {
        self.enabled.contains(&source)
    }

    /// Masks (true) or unmasks (false) IRQ delivery on `core`, the software
    /// equivalent of `msr daifset/daifclr, #2`.
    pub fn set_core_masked(&mut self, core: CoreId, masked: bool) {
        self.irq_masked[core] = masked;
    }

    /// Routing policy: which core receives `source`.
    pub fn route(&mut self, source: Interrupt) -> CoreId {
        match source {
            Interrupt::GenericTimer(core) => core.min(self.num_cores - 1),
            Interrupt::PanicButtonFiq => {
                let core = self.fiq_next_core;
                self.fiq_next_core = (self.fiq_next_core + 1) % self.num_cores;
                core
            }
            // "Interrupts from all other IO are routed to core 0 for
            // simplicity" (§4.5).
            _ => 0,
        }
    }

    /// A device raises `source`. If the source is enabled (or is the FIQ,
    /// which is always deliverable), it becomes pending on the routed core.
    pub fn raise(&mut self, source: Interrupt) {
        if !source.is_fiq() && !self.is_enabled(source) {
            return;
        }
        self.raised_count += 1;
        let core = self.route(source);
        // Collapse duplicates: a level-style interrupt pending twice delivers once.
        if !self
            .pending
            .iter()
            .any(|p| p.source == source && p.core == core)
        {
            self.pending.push_back(PendingIrq { source, core });
        }
    }

    /// Takes the next deliverable interrupt for `core`, honouring the IRQ
    /// mask (FIQs ignore the mask — that is the whole point of the panic
    /// button).
    pub fn take_pending(&mut self, core: CoreId) -> Option<Interrupt> {
        let masked = self.irq_masked[core];
        let idx = self
            .pending
            .iter()
            .position(|p| p.core == core && (p.source.is_fiq() || !masked))?;
        self.pending.remove(idx).map(|p| p.source)
    }

    /// Peeks whether `core` has any deliverable interrupt.
    pub fn has_pending(&self, core: CoreId) -> bool {
        let masked = self.irq_masked[core];
        self.pending
            .iter()
            .any(|p| p.core == core && (p.source.is_fiq() || !masked))
    }

    /// Total number of interrupts raised since boot.
    pub fn raised_count(&self) -> u64 {
        self.raised_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sources_are_not_delivered() {
        let mut ic = IrqController::new(4);
        ic.set_core_masked(0, false);
        ic.raise(Interrupt::UartRx);
        assert!(!ic.has_pending(0));
        ic.enable(Interrupt::UartRx);
        ic.raise(Interrupt::UartRx);
        assert_eq!(ic.take_pending(0), Some(Interrupt::UartRx));
    }

    #[test]
    fn peripheral_irqs_route_to_core0_and_timers_to_their_core() {
        let mut ic = IrqController::new(4);
        assert_eq!(ic.route(Interrupt::UsbHc), 0);
        assert_eq!(ic.route(Interrupt::SdHost), 0);
        assert_eq!(ic.route(Interrupt::GenericTimer(2)), 2);
        assert_eq!(ic.route(Interrupt::GenericTimer(3)), 3);
    }

    #[test]
    fn masked_core_holds_irqs_until_unmasked() {
        let mut ic = IrqController::new(4);
        ic.enable(Interrupt::SystemTimer1);
        ic.raise(Interrupt::SystemTimer1);
        assert!(!ic.has_pending(0), "IRQs are masked at boot");
        ic.set_core_masked(0, false);
        assert!(ic.has_pending(0));
        assert_eq!(ic.take_pending(0), Some(Interrupt::SystemTimer1));
        assert!(!ic.has_pending(0));
    }

    #[test]
    fn fiq_ignores_irq_mask_and_rotates_across_cores() {
        let mut ic = IrqController::new(4);
        // All cores masked: the panic button must still get through.
        ic.raise(Interrupt::PanicButtonFiq);
        assert_eq!(ic.take_pending(0), Some(Interrupt::PanicButtonFiq));
        ic.raise(Interrupt::PanicButtonFiq);
        assert_eq!(ic.take_pending(1), Some(Interrupt::PanicButtonFiq));
        ic.raise(Interrupt::PanicButtonFiq);
        assert_eq!(ic.take_pending(2), Some(Interrupt::PanicButtonFiq));
    }

    #[test]
    fn duplicate_level_interrupts_collapse() {
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::UartRx);
        ic.set_core_masked(0, false);
        ic.raise(Interrupt::UartRx);
        ic.raise(Interrupt::UartRx);
        assert_eq!(ic.take_pending(0), Some(Interrupt::UartRx));
        assert_eq!(ic.take_pending(0), None);
    }

    #[test]
    fn disable_drops_pending_instances() {
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::Dma0);
        ic.set_core_masked(0, false);
        ic.raise(Interrupt::Dma0);
        ic.disable(Interrupt::Dma0);
        assert_eq!(ic.take_pending(0), None);
    }
}
