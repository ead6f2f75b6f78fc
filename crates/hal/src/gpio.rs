//! GPIO controller.
//!
//! Proto uses GPIO for three things: the Game HAT's buttons (which surface as
//! key events through `/dev/events`), the physical "panic button" wired to a
//! pin whose edge event is delivered as FIQ (§5.1), and pin function
//! selection for the PWM audio output and JTAG. The model tracks per-pin
//! function, level, and rising-edge detection.

use crate::intc::{Interrupt, IrqController};

/// Number of GPIO pins on the BCM2837 header we model.
pub const NUM_PINS: usize = 54;

/// Pin multiplexer function selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinFunction {
    /// Input (reset default).
    #[default]
    Input,
    /// Output.
    Output,
    /// Alternate function 0 (PWM on pins 40/41 routes audio to the jack).
    Alt0,
    /// Alternate function 5 (mini-UART TX/RX on pins 14/15).
    Alt5,
}

/// One pin's state.
#[derive(Debug, Clone, Copy, Default)]
struct Pin {
    function: PinFunction,
    level: bool,
    rising_edge_detect: bool,
    event_pending: bool,
    /// Deliver this pin's edge event as the panic-button FIQ instead of the
    /// ordinary GPIO bank IRQ.
    fiq_routed: bool,
}

/// The GPIO controller model.
#[derive(Debug, Clone)]
pub struct Gpio {
    pins: Vec<Pin>,
}

impl Default for Gpio {
    fn default() -> Self {
        Self::new()
    }
}

impl Gpio {
    /// Creates the controller with every pin as an input at level 0.
    pub fn new() -> Self {
        Gpio {
            pins: vec![Pin::default(); NUM_PINS],
        }
    }

    fn check_pin(&self, pin: usize) -> Result<(), crate::HalError> {
        if pin >= NUM_PINS {
            return Err(crate::HalError::OutOfRange(format!("gpio pin {pin}")));
        }
        Ok(())
    }

    /// Selects the function of `pin`.
    pub fn set_function(&mut self, pin: usize, function: PinFunction) -> crate::HalResult<()> {
        self.check_pin(pin)?;
        self.pins[pin].function = function;
        Ok(())
    }

    /// Returns the function of `pin`.
    pub fn function(&self, pin: usize) -> crate::HalResult<PinFunction> {
        self.check_pin(pin)?;
        Ok(self.pins[pin].function)
    }

    /// Enables rising-edge detection on `pin`; events raise the GPIO bank IRQ.
    pub fn enable_rising_edge_irq(&mut self, pin: usize) -> crate::HalResult<()> {
        self.check_pin(pin)?;
        self.pins[pin].rising_edge_detect = true;
        self.pins[pin].fiq_routed = false;
        Ok(())
    }

    /// Enables rising-edge detection on `pin` routed to the panic-button FIQ.
    pub fn enable_panic_button(&mut self, pin: usize) -> crate::HalResult<()> {
        self.check_pin(pin)?;
        self.pins[pin].rising_edge_detect = true;
        self.pins[pin].fiq_routed = true;
        Ok(())
    }

    /// Reads the level of `pin`.
    pub fn read_level(&self, pin: usize) -> crate::HalResult<bool> {
        self.check_pin(pin)?;
        Ok(self.pins[pin].level)
    }

    /// Kernel-side output drive of `pin` (only meaningful for Output pins).
    pub fn write_level(&mut self, pin: usize, level: bool) -> crate::HalResult<()> {
        self.check_pin(pin)?;
        if self.pins[pin].function != PinFunction::Output {
            return Err(crate::HalError::InvalidState(format!(
                "gpio pin {pin} is not an output"
            )));
        }
        self.pins[pin].level = level;
        Ok(())
    }

    /// Host-side: an external signal (button press) drives `pin` to `level`.
    /// Rising edges on detection-enabled pins latch an event and raise the
    /// configured interrupt.
    pub fn external_drive(
        &mut self,
        pin: usize,
        level: bool,
        intc: &mut IrqController,
    ) -> crate::HalResult<()> {
        self.check_pin(pin)?;
        let rising = level && !self.pins[pin].level;
        self.pins[pin].level = level;
        if rising && self.pins[pin].rising_edge_detect {
            self.pins[pin].event_pending = true;
            if self.pins[pin].fiq_routed {
                intc.raise(Interrupt::PanicButtonFiq);
            } else {
                intc.raise(Interrupt::GpioBank0);
            }
        }
        Ok(())
    }

    /// Returns and clears the set of pins with pending edge events (the
    /// GPEDS register read + write-to-clear a driver performs in its IRQ
    /// handler).
    pub fn take_pending_events(&mut self) -> Vec<usize> {
        let mut pending = Vec::new();
        for (i, pin) in self.pins.iter_mut().enumerate() {
            if pin.event_pending {
                pin.event_pending = false;
                pending.push(i);
            }
        }
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unmasked_intc() -> IrqController {
        let mut ic = IrqController::new(4);
        ic.enable(Interrupt::GpioBank0);
        for c in 0..4 {
            ic.set_core_masked(c, false);
        }
        ic
    }

    #[test]
    fn rising_edge_on_enabled_pin_raises_bank_irq() {
        let mut g = Gpio::new();
        let mut ic = unmasked_intc();
        g.enable_rising_edge_irq(17).unwrap();
        g.external_drive(17, true, &mut ic).unwrap();
        assert_eq!(ic.take_pending(0), Some(Interrupt::GpioBank0));
        assert_eq!(g.take_pending_events(), vec![17]);
        assert!(g.take_pending_events().is_empty(), "events clear on read");
    }

    #[test]
    fn falling_edge_and_undetected_pins_do_not_interrupt() {
        let mut g = Gpio::new();
        let mut ic = unmasked_intc();
        g.enable_rising_edge_irq(5).unwrap();
        g.external_drive(5, true, &mut ic).unwrap();
        ic.take_pending(0);
        g.external_drive(5, false, &mut ic).unwrap();
        assert!(!ic.has_pending(0));
        g.external_drive(6, true, &mut ic).unwrap();
        assert!(!ic.has_pending(0));
    }

    #[test]
    fn panic_button_pin_raises_fiq_even_when_masked() {
        let mut g = Gpio::new();
        let mut ic = IrqController::new(4); // everything masked
        g.enable_panic_button(21).unwrap();
        g.external_drive(21, true, &mut ic).unwrap();
        assert_eq!(ic.take_pending(0), Some(Interrupt::PanicButtonFiq));
    }

    #[test]
    fn output_writes_require_output_function() {
        let mut g = Gpio::new();
        assert!(g.write_level(2, true).is_err());
        g.set_function(2, PinFunction::Output).unwrap();
        g.write_level(2, true).unwrap();
        assert!(g.read_level(2).unwrap());
    }

    #[test]
    fn out_of_range_pins_are_rejected() {
        let mut g = Gpio::new();
        assert!(g.set_function(NUM_PINS, PinFunction::Output).is_err());
        assert!(g.read_level(200).is_err());
    }
}
