//! UART model (the Pi 3 mini-UART used for the kernel console).
//!
//! Proto keeps UART *writes* synchronous and polling-based throughout all
//! five prototypes (§4.1): interrupt-driven writes would need a ring buffer
//! protected by locks, and the lock code itself prints over the UART — a
//! circular dependency the paper deliberately avoids. Receive starts as
//! polling-only (Prototype 1 has no input at all), becomes interrupt-driven
//! RX in Prototypes 2–3, and interrupt-driven RX/TX in Prototypes 4–5
//! (Table 1, footnotes 7–9).

use std::collections::VecDeque;

use crate::intc::{Interrupt, IrqController};

/// Receive/transmit modes corresponding to Table 1's UART footnotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UartMode {
    /// Polling, TX only (Prototype 1, footnote 7).
    PollingTxOnly,
    /// IRQ-driven RX, polled TX (Prototypes 2–3, footnote 8).
    IrqRx,
    /// IRQ-driven RX and TX-drain notification (Prototypes 4–5, footnote 9).
    IrqRxTx,
}

/// Depth of the receive FIFO (mini-UART has an 8-byte FIFO; we model 16 to
/// match the PL011 configuration Proto uses for the console).
pub const RX_FIFO_DEPTH: usize = 16;

/// The UART device model.
#[derive(Debug, Clone)]
pub struct Uart {
    mode: UartMode,
    /// Everything the kernel has ever written (the "serial console log").
    tx_log: Vec<u8>,
    /// Characters waiting to be read by the kernel.
    rx_fifo: VecDeque<u8>,
    /// Bytes dropped because the RX FIFO was full (overrun errors).
    rx_overruns: u64,
    /// Total bytes transmitted.
    tx_count: u64,
}

impl Default for Uart {
    fn default() -> Self {
        Self::new(UartMode::PollingTxOnly)
    }
}

impl Uart {
    /// Creates a UART in the given mode.
    pub fn new(mode: UartMode) -> Self {
        Uart {
            mode,
            tx_log: Vec::new(),
            rx_fifo: VecDeque::new(),
            rx_overruns: 0,
            tx_count: 0,
        }
    }

    /// Reconfigures the RX/TX mode (done when a later prototype boots).
    pub fn set_mode(&mut self, mode: UartMode) {
        self.mode = mode;
    }

    /// Current mode.
    pub fn mode(&self) -> UartMode {
        self.mode
    }

    /// Kernel-side synchronous write of one byte (always available).
    pub fn write_byte(&mut self, byte: u8) {
        self.tx_log.push(byte);
        self.tx_count += 1;
    }

    /// Kernel-side synchronous write of a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.tx_log.extend_from_slice(bytes);
        self.tx_count = self.tx_count.saturating_add(bytes.len() as u64);
    }

    /// Kernel-side read of one byte from the RX FIFO, if available.
    pub fn read_byte(&mut self) -> Option<u8> {
        self.rx_fifo.pop_front()
    }

    /// Whether the RX FIFO has data (the polled LSR data-ready bit).
    pub fn rx_ready(&self) -> bool {
        !self.rx_fifo.is_empty()
    }

    /// Host-side injection of received characters (what a person typing on
    /// the attached serial terminal produces). Raises an RX interrupt when
    /// the mode calls for one.
    pub fn inject_rx(&mut self, bytes: &[u8], intc: &mut IrqController) {
        for &b in bytes {
            if self.rx_fifo.len() >= RX_FIFO_DEPTH {
                self.rx_overruns += 1;
                continue;
            }
            self.rx_fifo.push_back(b);
        }
        if !bytes.is_empty() && matches!(self.mode, UartMode::IrqRx | UartMode::IrqRxTx) {
            intc.raise(Interrupt::UartRx);
        }
    }

    /// Number of RX bytes dropped due to FIFO overruns.
    pub fn rx_overruns(&self) -> u64 {
        self.rx_overruns
    }

    /// Total bytes transmitted since boot.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// The full transmit log as bytes.
    pub fn tx_log(&self) -> &[u8] {
        &self.tx_log
    }

    /// The transmit log rendered as a lossy string, convenient in tests.
    pub fn tx_log_string(&self) -> String {
        String::from_utf8_lossy(&self.tx_log).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_accumulate_in_the_console_log() {
        let mut u = Uart::new(UartMode::PollingTxOnly);
        u.write_bytes(b"proto: ");
        u.write_bytes(b"hello\n");
        assert_eq!(u.tx_log_string(), "proto: hello\n");
        assert_eq!(u.tx_count(), 13);
    }

    #[test]
    fn polling_mode_does_not_raise_rx_interrupts() {
        let mut u = Uart::new(UartMode::PollingTxOnly);
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::UartRx);
        ic.set_core_masked(0, false);
        u.inject_rx(b"x", &mut ic);
        assert!(!ic.has_pending(0));
        assert_eq!(u.read_byte(), Some(b'x'));
    }

    #[test]
    fn irq_mode_raises_rx_interrupt() {
        let mut u = Uart::new(UartMode::IrqRx);
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::UartRx);
        ic.set_core_masked(0, false);
        u.inject_rx(b"ls\n", &mut ic);
        assert_eq!(ic.take_pending(0), Some(Interrupt::UartRx));
        assert!(u.rx_ready());
        assert_eq!(u.read_byte(), Some(b'l'));
        assert_eq!(u.read_byte(), Some(b's'));
        assert_eq!(u.read_byte(), Some(b'\n'));
        assert_eq!(u.read_byte(), None);
    }

    #[test]
    fn rx_fifo_overruns_are_counted() {
        let mut u = Uart::new(UartMode::IrqRxTx);
        let mut ic = IrqController::new(1);
        let long = vec![b'a'; RX_FIFO_DEPTH + 5];
        u.inject_rx(&long, &mut ic);
        assert_eq!(u.rx_overruns(), 5);
        let mut read = 0;
        while u.read_byte().is_some() {
            read += 1;
        }
        assert_eq!(read, RX_FIFO_DEPTH);
    }
}
