//! USB host controller hardware model.
//!
//! The Pi 3's DWC2 OTG controller sits between the SoC and an on-board hub
//! that also carries the Ethernet adapter. Proto ports the USPi bare-metal
//! stack on top of it (§4.4); the stack itself (enumeration, hub and HID
//! drivers) lives in the `protousb` crate — this module models only the
//! hardware: root ports, device attachment, control/interrupt transfers and
//! the controller interrupt.

use crate::intc::{Interrupt, IrqController};
use crate::{HalError, HalResult};

/// Number of root/hub ports the model exposes (the Pi 3's hub has four
/// downstream ports, one eaten by Ethernet).
pub const NUM_PORTS: usize = 4;

/// A USB SETUP packet (the 8-byte header of every control transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsbSetupPacket {
    /// bmRequestType.
    pub request_type: u8,
    /// bRequest.
    pub request: u8,
    /// wValue.
    pub value: u16,
    /// wIndex.
    pub index: u16,
    /// wLength.
    pub length: u16,
}

/// Behaviour a plugged-in USB device must implement.
///
/// Device *models* (e.g. the HID keyboard in `protousb`) implement this; the
/// host-side driver stack talks to them exclusively through the controller.
pub trait UsbHwDevice: Send {
    /// Handles a control transfer and returns the IN data stage (possibly
    /// empty for OUT/status-only requests).
    fn control(&mut self, setup: &UsbSetupPacket, data_out: &[u8]) -> HalResult<Vec<u8>>;

    /// Polls an interrupt IN endpoint; returns a report if one is pending.
    fn interrupt_in(&mut self, endpoint: u8) -> Option<Vec<u8>>;

    /// Whether the device currently has input waiting (lets the controller
    /// raise its interrupt without the stack polling in a tight loop).
    fn has_pending_input(&self) -> bool;

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// The host controller model.
pub struct UsbHostController {
    powered: bool,
    ports: Vec<Option<Box<dyn UsbHwDevice>>>,
    /// Device address assigned per port during enumeration (0 = default).
    addresses: Vec<u8>,
    /// Statistics: control transfers completed.
    control_transfers: u64,
}

impl std::fmt::Debug for UsbHostController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UsbHostController")
            .field("powered", &self.powered)
            .field(
                "ports",
                &self
                    .ports
                    .iter()
                    .map(|p| p.as_ref().map(|d| d.name().to_string()))
                    .collect::<Vec<_>>(),
            )
            .field("addresses", &self.addresses)
            .finish()
    }
}

impl Default for UsbHostController {
    fn default() -> Self {
        Self::new()
    }
}

impl UsbHostController {
    /// Creates an unpowered controller with empty ports.
    pub fn new() -> Self {
        UsbHostController {
            powered: false,
            ports: (0..NUM_PORTS).map(|_| None).collect(),
            addresses: vec![0; NUM_PORTS],
            control_transfers: 0,
        }
    }

    /// Powers the controller on (the mailbox SetPowerState + core init the
    /// boot path performs; it is the dominant part of Proto's boot time).
    pub fn power_on(&mut self) {
        self.powered = true;
    }

    /// Whether the controller has been powered on.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Plugs a device into `port`.
    pub fn attach(&mut self, port: usize, device: Box<dyn UsbHwDevice>) -> HalResult<()> {
        if port >= NUM_PORTS {
            return Err(HalError::OutOfRange(format!("usb port {port}")));
        }
        self.ports[port] = Some(device);
        self.addresses[port] = 0;
        Ok(())
    }

    /// Unplugs whatever is in `port`.
    pub fn detach(&mut self, port: usize) -> HalResult<()> {
        if port >= NUM_PORTS {
            return Err(HalError::OutOfRange(format!("usb port {port}")));
        }
        self.ports[port] = None;
        self.addresses[port] = 0;
        Ok(())
    }

    /// Whether a device is present on `port`.
    pub fn port_connected(&self, port: usize) -> bool {
        self.ports.get(port).map(|p| p.is_some()).unwrap_or(false)
    }

    /// Records the address assigned to the device on `port` (SET_ADDRESS).
    pub fn set_address(&mut self, port: usize, address: u8) -> HalResult<()> {
        if port >= NUM_PORTS {
            return Err(HalError::OutOfRange(format!("usb port {port}")));
        }
        self.addresses[port] = address;
        Ok(())
    }

    /// The address assigned to the device on `port`.
    pub fn address(&self, port: usize) -> u8 {
        self.addresses.get(port).copied().unwrap_or(0)
    }

    fn device_mut(&mut self, port: usize) -> HalResult<&mut Box<dyn UsbHwDevice>> {
        if !self.powered {
            return Err(HalError::InvalidState("usb controller not powered".into()));
        }
        self.ports
            .get_mut(port)
            .and_then(|p| p.as_mut())
            .ok_or_else(|| HalError::InvalidState(format!("no device on usb port {port}")))
    }

    /// Submits a control transfer to the device on `port`.
    pub fn control_transfer(
        &mut self,
        port: usize,
        setup: &UsbSetupPacket,
        data_out: &[u8],
    ) -> HalResult<Vec<u8>> {
        let dev = self.device_mut(port)?;
        let resp = dev.control(setup, data_out)?;
        self.control_transfers += 1;
        Ok(resp)
    }

    /// Polls an interrupt IN endpoint on the device on `port`.
    pub fn interrupt_transfer(&mut self, port: usize, endpoint: u8) -> HalResult<Option<Vec<u8>>> {
        Ok(self.device_mut(port)?.interrupt_in(endpoint))
    }

    /// Raises the controller interrupt if any attached device has pending
    /// input (called as part of the board tick).
    pub fn tick(&mut self, intc: &mut IrqController) {
        if !self.powered {
            return;
        }
        let pending = self.ports.iter().flatten().any(|d| d.has_pending_input());
        if pending {
            intc.raise(Interrupt::UsbHc);
        }
    }

    /// Control transfers completed since boot.
    pub fn control_transfer_count(&self) -> u64 {
        self.control_transfers
    }

    /// A copy of this controller, its power, addresses and counters, with
    /// `device(port)` plugged into each port that holds a device here: the
    /// controller cannot copy a device model, so the caller supplies each
    /// copy. Fails if `device` has none for a connected port.
    pub fn fork(
        &self,
        mut device: impl FnMut(usize) -> Option<Box<dyn UsbHwDevice>>,
    ) -> HalResult<Self> {
        let mut ports = Vec::with_capacity(self.ports.len());
        for (port, plugged) in self.ports.iter().enumerate() {
            ports.push(match plugged {
                None => None,
                Some(d) => Some(device(port).ok_or_else(|| {
                    HalError::InvalidState(format!("no copy of {} on usb port {port}", d.name()))
                })?),
            });
        }
        Ok(UsbHostController {
            powered: self.powered,
            ports,
            addresses: self.addresses.clone(),
            control_transfers: self.control_transfers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial loopback device used only by these hardware-level tests.
    struct EchoDevice {
        queued: Vec<Vec<u8>>,
    }

    impl UsbHwDevice for EchoDevice {
        fn control(&mut self, setup: &UsbSetupPacket, data_out: &[u8]) -> HalResult<Vec<u8>> {
            let mut v = vec![setup.request];
            v.extend_from_slice(data_out);
            Ok(v)
        }
        fn interrupt_in(&mut self, _endpoint: u8) -> Option<Vec<u8>> {
            self.queued.pop()
        }
        fn has_pending_input(&self) -> bool {
            !self.queued.is_empty()
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn transfers_require_power_and_a_device() {
        let mut hc = UsbHostController::new();
        let setup = UsbSetupPacket {
            request_type: 0x80,
            request: 6,
            value: 0x0100,
            index: 0,
            length: 18,
        };
        assert!(hc.control_transfer(0, &setup, &[]).is_err());
        hc.power_on();
        assert!(hc.control_transfer(0, &setup, &[]).is_err());
        hc.attach(0, Box::new(EchoDevice { queued: vec![] }))
            .unwrap();
        assert_eq!(
            hc.control_transfer(0, &setup, &[1, 2]).unwrap(),
            vec![6, 1, 2]
        );
        assert_eq!(hc.control_transfer_count(), 1);
    }

    #[test]
    fn pending_input_raises_controller_irq() {
        let mut hc = UsbHostController::new();
        hc.power_on();
        hc.attach(
            1,
            Box::new(EchoDevice {
                queued: vec![vec![9]],
            }),
        )
        .unwrap();
        let mut ic = IrqController::new(1);
        ic.enable(Interrupt::UsbHc);
        ic.set_core_masked(0, false);
        hc.tick(&mut ic);
        assert_eq!(ic.take_pending(0), Some(Interrupt::UsbHc));
        assert_eq!(hc.interrupt_transfer(1, 1).unwrap(), Some(vec![9]));
        assert_eq!(hc.interrupt_transfer(1, 1).unwrap(), None);
    }

    #[test]
    fn detach_disconnects_the_port() {
        let mut hc = UsbHostController::new();
        hc.power_on();
        hc.attach(0, Box::new(EchoDevice { queued: vec![] }))
            .unwrap();
        assert!(hc.port_connected(0));
        hc.detach(0).unwrap();
        assert!(!hc.port_connected(0));
        assert!(hc.interrupt_transfer(0, 1).is_err());
    }

    #[test]
    fn addresses_are_tracked_per_port() {
        let mut hc = UsbHostController::new();
        hc.set_address(2, 5).unwrap();
        assert_eq!(hc.address(2), 5);
        assert_eq!(hc.address(0), 0);
        assert!(hc.set_address(99, 1).is_err());
    }
}
