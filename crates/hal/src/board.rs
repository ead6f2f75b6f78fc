//! The assembled simulated board.
//!
//! [`SimBoard`] owns one instance of every device model plus the virtual
//! clock and the platform cost model. The kernel crate drives it the same
//! way Proto's drivers drive the real BCM2837: program timers, unmask
//! interrupt lines, poll FIFOs, start DMA, and periodically let the devices
//! advance to the current virtual time via [`SimBoard::tick_devices`].

use crate::clock::{Clock, CoreId, Cycles};
use crate::cost::{CostModel, Platform};
use crate::dma::DmaEngine;
use crate::framebuffer::Framebuffer;
use crate::generic_timer::GenericTimers;
use crate::gpio::Gpio;
use crate::intc::IrqController;
use crate::mailbox::Mailbox;
use crate::mem::PhysMem;
use crate::pwm::PwmAudio;
use crate::sdhost::SdHost;
use crate::systimer::SystemTimer;
use crate::uart::{Uart, UartMode};
use crate::usb_hw::UsbHostController;
use crate::{HalResult, NUM_CORES};

/// The complete simulated Raspberry Pi 3 board.
#[derive(Debug)]
pub struct SimBoard {
    /// Virtual per-core cycle clock.
    pub clock: Clock,
    /// Platform cost model used to charge cycles for operations.
    pub cost: CostModel,
    /// Simulated DRAM.
    pub mem: PhysMem,
    /// Interrupt controller.
    pub intc: IrqController,
    /// SoC system timer.
    pub systimer: SystemTimer,
    /// Per-core ARM generic timers.
    pub generic_timers: GenericTimers,
    /// Console UART.
    pub uart: Uart,
    /// VideoCore mailbox / firmware.
    pub mailbox: Mailbox,
    /// Framebuffer device.
    pub framebuffer: Framebuffer,
    /// GPIO controller.
    pub gpio: Gpio,
    /// PWM audio output.
    pub pwm: PwmAudio,
    /// DMA engine.
    pub dma: DmaEngine,
    /// SD host controller.
    pub sdhost: SdHost,
    /// USB host controller.
    pub usb: UsbHostController,
    /// How many cores the kernel is allowed to use (1 for Prototypes 1–4,
    /// up to 4 for Prototype 5; Figure 10 sweeps this).
    active_cores: usize,
}

impl SimBoard {
    /// Builds a board for `platform` with all four cores available.
    pub fn new(platform: Platform) -> Self {
        let cost = CostModel::for_platform(platform);
        SimBoard {
            clock: Clock::new(NUM_CORES, cost.cpu_freq_hz),
            cost,
            mem: PhysMem::new(),
            intc: IrqController::new(NUM_CORES),
            systimer: SystemTimer::new(),
            generic_timers: GenericTimers::new(NUM_CORES),
            uart: Uart::new(UartMode::PollingTxOnly),
            mailbox: Mailbox::new(),
            framebuffer: Framebuffer::new(),
            gpio: Gpio::new(),
            pwm: PwmAudio::new(),
            dma: DmaEngine::new(),
            sdhost: SdHost::default(),
            usb: UsbHostController::new(),
            active_cores: NUM_CORES,
        }
    }

    /// Builds the default Pi 3 board.
    pub fn pi3() -> Self {
        Self::new(Platform::Pi3)
    }

    /// A copy of the board in its current state, with `usb` as its USB
    /// controller (see [`UsbHostController::fork`]). The copy shares its
    /// DRAM frames, SD card chunks and framebuffer planes with this board
    /// until either side writes them.
    pub fn fork(&self, usb: UsbHostController) -> Self {
        SimBoard {
            clock: self.clock.clone(),
            cost: self.cost.clone(),
            mem: self.mem.clone(),
            intc: self.intc.clone(),
            systimer: self.systimer.clone(),
            generic_timers: self.generic_timers.clone(),
            uart: self.uart.clone(),
            mailbox: self.mailbox.clone(),
            framebuffer: self.framebuffer.clone(),
            gpio: self.gpio.clone(),
            pwm: self.pwm.clone(),
            dma: self.dma.clone(),
            sdhost: self.sdhost.clone(),
            usb,
            active_cores: self.active_cores,
        }
    }

    /// Restricts the board to `cores` usable cores (Figure 10's sweep).
    pub fn set_active_cores(&mut self, cores: usize) {
        self.active_cores = cores.clamp(1, NUM_CORES);
    }

    /// Number of cores the kernel may schedule on.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Which platform this board models.
    pub fn platform(&self) -> Platform {
        self.cost.platform
    }

    /// Charges `cycles` of work to `core` and advances the clock.
    pub fn charge(&mut self, core: CoreId, cycles: Cycles) -> Cycles {
        self.clock.advance(core, cycles)
    }

    /// Charges a kernel-path cost (scaled by the platform's kernel factor).
    pub fn charge_kernel(&mut self, core: CoreId, cycles: Cycles) -> Cycles {
        let scaled = self.cost.kernel_cost(cycles);
        self.clock.advance(core, scaled)
    }

    /// Charges a user-compute cost (scaled by the platform's user factor).
    pub fn charge_user(&mut self, core: CoreId, cycles: Cycles) -> Cycles {
        let scaled = self.cost.user_cost(cycles);
        self.clock.advance(core, scaled)
    }

    /// Current board time in microseconds (what the system timer counter
    /// register would read).
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Advances every time-driven device model to the current virtual time,
    /// raising whatever interrupts become due. The kernel calls this at the
    /// top of its scheduling loop and after long charges.
    pub fn tick_devices(&mut self) -> HalResult<()> {
        let now_us = self.clock.now_us();
        let now_cycles = self.clock.global_cycles();
        self.systimer.tick(now_us, &mut self.intc);
        self.generic_timers.tick(now_us, &mut self.intc);
        self.pwm.tick(now_us, &mut self.intc);
        let dma = self.dma.tick(now_cycles, &mut self.mem, &mut self.intc);
        self.usb.tick(&mut self.intc);
        dma
    }

    /// The next point in virtual time (microseconds) at which a timer will
    /// fire, if any. The idle (WFI) path uses this to jump time forward
    /// instead of spinning.
    pub fn next_timer_deadline_us(&self) -> Option<u64> {
        let a = self.systimer.next_deadline_us();
        let b = self.generic_timers.next_deadline_us();
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        }
    }

    /// Models WFI on `core`: advances that core's clock to the earliest
    /// timer deadline — or the completion of an in-flight SD DMA chain,
    /// whichever is sooner, so a core whose tasks are parked on block I/O
    /// wakes with the completion interrupt — without charging busy work.
    /// Returns the new core time in cycles.
    pub fn wait_for_interrupt(&mut self, core: CoreId) -> Cycles {
        let timer_cycles = self
            .next_timer_deadline_us()
            .map(|us| self.clock.us_to_cycles(us));
        let sd_cycles = self.dma.earliest_sd_deadline();
        let target = match (timer_cycles, sd_cycles) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        if let Some(target_cycles) = target {
            self.clock.advance_to(core, target_cycles);
        } else {
            // Nothing armed: advance a scheduler-tick's worth so the
            // simulation cannot wedge.
            let step = self.clock.ms_to_cycles(1);
            self.clock.advance(core, step);
        }
        self.clock.cycles(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intc::Interrupt;

    #[test]
    fn board_builds_for_every_platform() {
        for p in Platform::ALL {
            let b = SimBoard::new(p);
            assert_eq!(b.platform(), p);
            assert_eq!(b.clock.num_cores(), NUM_CORES);
        }
    }

    #[test]
    fn charges_advance_the_right_core() {
        let mut b = SimBoard::pi3();
        b.charge(2, 1000);
        assert_eq!(b.clock.cycles(2), 1000);
        assert_eq!(b.clock.cycles(0), 0);
    }

    #[test]
    fn tick_devices_fires_armed_timers() {
        let mut b = SimBoard::pi3();
        b.intc.enable(Interrupt::SystemTimer1);
        b.intc.set_core_masked(0, false);
        b.systimer.arm(1, b.now_us(), 100);
        b.charge(0, b.clock.us_to_cycles(150));
        b.tick_devices().unwrap();
        assert_eq!(b.intc.take_pending(0), Some(Interrupt::SystemTimer1));
    }

    #[test]
    fn wfi_jumps_to_the_next_deadline() {
        let mut b = SimBoard::pi3();
        b.systimer.arm(1, 0, 5_000);
        let cycles = b.wait_for_interrupt(0);
        assert_eq!(b.clock.cycles_to_us(cycles), 5_000);
    }

    #[test]
    fn wfi_with_no_timer_still_advances() {
        let mut b = SimBoard::pi3();
        let before = b.clock.cycles(0);
        let after = b.wait_for_interrupt(0);
        assert!(after > before);
    }

    #[test]
    fn active_core_count_is_clamped() {
        let mut b = SimBoard::pi3();
        b.set_active_cores(0);
        assert_eq!(b.active_cores(), 1);
        b.set_active_cores(99);
        assert_eq!(b.active_cores(), NUM_CORES);
        b.set_active_cores(3);
        assert_eq!(b.active_cores(), 3);
    }

    #[test]
    fn kernel_and_user_charges_scale_by_platform() {
        let mut pi = SimBoard::new(Platform::Pi3);
        let mut vm = SimBoard::new(Platform::QemuVm);
        pi.charge_kernel(0, 10_000);
        vm.charge_kernel(0, 10_000);
        assert!(vm.clock.cycles(0) < pi.clock.cycles(0));
    }
}
