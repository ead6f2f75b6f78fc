//! Host-side USB stack: enumeration and keyboard driving.
//!
//! The USPi stack Proto ports needs "only a few kernel APIs for virtual
//! timers" (§4.4) and in return gives the OS a path to USB keyboards (and,
//! in the future, Ethernet and mass storage). The reproduction's stack does
//! the same job against the simulated controller: walk the root ports, fetch
//! and parse descriptors, assign addresses, configure devices, put HID
//! keyboards into boot protocol, and then poll their interrupt endpoints and
//! convert reports into [`KeyEvent`]s.

use hal::usb_hw::{UsbHostController, UsbSetupPacket};

use crate::descriptor::{
    class, desc_type, hid_protocol, ConfigurationDescriptor, DeviceDescriptor, REQ_GET_DESCRIPTOR,
    REQ_HID_SET_IDLE, REQ_HID_SET_PROTOCOL, REQ_SET_ADDRESS, REQ_SET_CONFIGURATION,
};
use crate::events::KeyEvent;
use crate::hid::BootReportParser;
use crate::{UsbError, UsbResult};

/// Information gathered about one enumerated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsbDeviceInfo {
    /// Root port the device is attached to.
    pub port: usize,
    /// Assigned address.
    pub address: u8,
    /// Vendor ID.
    pub vendor_id: u16,
    /// Product ID.
    pub product_id: u16,
    /// True if this device exposes a HID boot keyboard interface.
    pub is_keyboard: bool,
    /// Interrupt IN endpoint of the keyboard interface, if any.
    pub keyboard_endpoint: u8,
    /// Polling interval requested by the keyboard interface, in ms.
    pub poll_interval_ms: u8,
}

/// The host-side stack state.
#[derive(Debug, Clone, Default)]
pub struct UsbStack {
    devices: Vec<UsbDeviceInfo>,
    parsers: Vec<BootReportParser>,
    next_address: u8,
}

impl UsbStack {
    /// Creates an empty (not yet enumerated) stack.
    pub fn new() -> Self {
        UsbStack {
            devices: Vec::new(),
            parsers: Vec::new(),
            next_address: 1,
        }
    }

    /// Enumerated devices.
    pub fn devices(&self) -> &[UsbDeviceInfo] {
        &self.devices
    }

    /// The first enumerated keyboard, if any.
    pub fn keyboard(&self) -> Option<&UsbDeviceInfo> {
        self.devices.iter().find(|d| d.is_keyboard)
    }

    fn get_descriptor(
        hc: &mut UsbHostController,
        port: usize,
        kind: u8,
        length: u16,
    ) -> UsbResult<Vec<u8>> {
        let setup = UsbSetupPacket {
            request_type: 0x80,
            request: REQ_GET_DESCRIPTOR,
            value: (kind as u16) << 8,
            index: 0,
            length,
        };
        Ok(hc.control_transfer(port, &setup, &[])?)
    }

    fn zero_data_request(
        hc: &mut UsbHostController,
        port: usize,
        request_type: u8,
        request: u8,
        value: u16,
    ) -> UsbResult<()> {
        let setup = UsbSetupPacket {
            request_type,
            request,
            value,
            index: 0,
            length: 0,
        };
        hc.control_transfer(port, &setup, &[])?;
        Ok(())
    }

    /// Enumerates every connected root port: the reproduction of USPi's
    /// device discovery pass that runs once during boot (and dominates boot
    /// time on the real board).
    pub fn enumerate(&mut self, hc: &mut UsbHostController) -> UsbResult<usize> {
        if !hc.is_powered() {
            return Err(UsbError::InvalidState("controller not powered".into()));
        }
        self.devices.clear();
        self.parsers.clear();
        let mut found = 0;
        for port in 0..hal::usb_hw::NUM_PORTS {
            if !hc.port_connected(port) {
                continue;
            }
            // Device descriptor.
            let dev_desc_raw = Self::get_descriptor(hc, port, desc_type::DEVICE, 18)?;
            let dev_desc = DeviceDescriptor::decode(&dev_desc_raw)?;
            // Assign an address.
            let address = self.next_address;
            self.next_address += 1;
            Self::zero_data_request(hc, port, 0x00, REQ_SET_ADDRESS, address as u16)?;
            hc.set_address(port, address)?;
            // Configuration descriptor.
            let cfg_raw = Self::get_descriptor(hc, port, desc_type::CONFIGURATION, 256)?;
            let cfg = ConfigurationDescriptor::decode(&cfg_raw)?;
            Self::zero_data_request(
                hc,
                port,
                0x00,
                REQ_SET_CONFIGURATION,
                cfg.configuration_value as u16,
            )?;
            // Look for a HID boot keyboard interface.
            let kb_itf = cfg.interfaces.iter().find(|i| {
                i.interface_class == class::HID && i.interface_protocol == hid_protocol::KEYBOARD
            });
            let (is_keyboard, endpoint, poll) = match kb_itf {
                Some(itf) => {
                    // Select boot protocol and a zero idle rate, as USPi does.
                    Self::zero_data_request(hc, port, 0x21, REQ_HID_SET_PROTOCOL, 0)?;
                    Self::zero_data_request(hc, port, 0x21, REQ_HID_SET_IDLE, 0)?;
                    (true, itf.endpoint_address, itf.poll_interval_ms)
                }
                None => (false, 0, 0),
            };
            self.devices.push(UsbDeviceInfo {
                port,
                address,
                vendor_id: dev_desc.vendor_id,
                product_id: dev_desc.product_id,
                is_keyboard,
                keyboard_endpoint: endpoint,
                poll_interval_ms: poll,
            });
            self.parsers.push(BootReportParser::new());
            found += 1;
        }
        Ok(found)
    }

    /// Polls every enumerated keyboard's interrupt endpoint once and returns
    /// the key events produced since the last poll. The kernel's keyboard
    /// driver calls this from its USB interrupt handler.
    pub fn poll_keyboards(
        &mut self,
        hc: &mut UsbHostController,
        now_us: u64,
    ) -> UsbResult<Vec<KeyEvent>> {
        let mut events = Vec::new();
        for (idx, dev) in self.devices.iter().enumerate() {
            if !dev.is_keyboard {
                continue;
            }
            // Drain all pending reports so a burst of reports cannot back up.
            while let Some(report) = hc.interrupt_transfer(dev.port, dev.keyboard_endpoint)? {
                events.extend(self.parsers[idx].parse(&report, now_us));
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{KeyCode, Modifiers};
    use crate::keyboard::SimUsbKeyboard;
    use hal::usb_hw::{UsbHostController, UsbHwDevice};

    fn controller_with_keyboard() -> UsbHostController {
        let mut hc = UsbHostController::new();
        hc.power_on();
        hc.attach(0, Box::new(SimUsbKeyboard::new())).unwrap();
        hc
    }

    #[test]
    fn enumeration_requires_power() {
        let mut hc = UsbHostController::new();
        let mut stack = UsbStack::new();
        assert!(matches!(
            stack.enumerate(&mut hc),
            Err(UsbError::InvalidState(_))
        ));
    }

    #[test]
    fn enumeration_finds_and_configures_the_keyboard() {
        let mut hc = controller_with_keyboard();
        let mut stack = UsbStack::new();
        let n = stack.enumerate(&mut hc).unwrap();
        assert_eq!(n, 1);
        let kb = stack.keyboard().expect("keyboard enumerated");
        assert_eq!(kb.address, 1);
        assert!(kb.is_keyboard);
        assert_eq!(kb.keyboard_endpoint, crate::keyboard::KEYBOARD_ENDPOINT);
        assert_eq!(hc.address(0), 1);
    }

    #[test]
    fn empty_ports_enumerate_to_nothing() {
        let mut hc = UsbHostController::new();
        hc.power_on();
        let mut stack = UsbStack::new();
        assert_eq!(stack.enumerate(&mut hc).unwrap(), 0);
        assert!(stack.keyboard().is_none());
    }

    #[test]
    fn key_presses_travel_through_the_stack_as_events() {
        let mut hc = controller_with_keyboard();
        let mut stack = UsbStack::new();
        stack.enumerate(&mut hc).unwrap();
        // Inject a press + release on the device model. We need mutable
        // access to the attached keyboard, so re-attach a keyboard we keep
        // driving through a fresh controller instead.
        let mut kb = SimUsbKeyboard::new();
        kb.control(
            &UsbSetupPacket {
                request_type: 0,
                request: crate::descriptor::REQ_SET_CONFIGURATION,
                value: 1,
                index: 0,
                length: 0,
            },
            &[],
        )
        .unwrap();
        kb.tap(KeyCode::Char('W'), Modifiers::default());
        let mut hc2 = UsbHostController::new();
        hc2.power_on();
        hc2.attach(0, Box::new(kb)).unwrap();
        let mut stack2 = UsbStack::new();
        stack2.enumerate(&mut hc2).unwrap();
        let events = stack2.poll_keyboards(&mut hc2, 1234).unwrap();
        // The tap happened before enumeration reset nothing — the reports are
        // still queued, so we see a press followed by a release.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].code, KeyCode::Char('W'));
        assert!(events[0].pressed);
        assert!(!events[1].pressed);
        assert_eq!(events[0].timestamp_us, 1234);
    }

    #[test]
    fn polling_with_no_reports_returns_nothing() {
        let mut hc = controller_with_keyboard();
        let mut stack = UsbStack::new();
        stack.enumerate(&mut hc).unwrap();
        assert!(stack.poll_keyboards(&mut hc, 0).unwrap().is_empty());
    }
}
