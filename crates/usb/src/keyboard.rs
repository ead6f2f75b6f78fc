//! Device-side model of a USB HID boot keyboard.
//!
//! This is what gets plugged into a port of the simulated host controller —
//! the stand-in for the $10 keyboard (or the Game HAT buttons, which Proto
//! also surfaces as key events). Tests and benchmarks inject key presses and
//! releases; the device turns them into boot reports that the host-side
//! stack fetches over the interrupt endpoint.

use std::collections::VecDeque;

use hal::usb_hw::{UsbHwDevice, UsbSetupPacket};
use hal::{HalError, HalResult};

use crate::descriptor::{
    class, desc_type, hid_protocol, ConfigurationDescriptor, DeviceDescriptor, InterfaceDescriptor,
    REQ_GET_DESCRIPTOR, REQ_HID_SET_IDLE, REQ_HID_SET_PROTOCOL, REQ_SET_ADDRESS,
    REQ_SET_CONFIGURATION,
};
use crate::events::{KeyCode, Modifiers};
use crate::hid::{build_report, keycode_to_usage};

/// The interrupt IN endpoint the keyboard reports on.
pub const KEYBOARD_ENDPOINT: u8 = 0x81;

/// A simulated HID boot keyboard.
#[derive(Debug, Clone)]
pub struct SimUsbKeyboard {
    address: u8,
    configured: bool,
    boot_protocol: bool,
    /// Currently held usage IDs (max six, per the boot protocol).
    held: Vec<u8>,
    modifiers: Modifiers,
    /// Reports waiting to be fetched over the interrupt endpoint.
    pending_reports: VecDeque<[u8; 8]>,
}

impl Default for SimUsbKeyboard {
    fn default() -> Self {
        Self::new()
    }
}

impl SimUsbKeyboard {
    /// Creates a keyboard with no keys held.
    pub fn new() -> Self {
        SimUsbKeyboard {
            address: 0,
            configured: false,
            boot_protocol: false,
            held: Vec::new(),
            modifiers: Modifiers::default(),
            pending_reports: VecDeque::new(),
        }
    }

    /// Whether SET_CONFIGURATION has been received.
    pub fn is_configured(&self) -> bool {
        self.configured
    }

    /// Whether the host selected the boot protocol.
    pub fn boot_protocol_selected(&self) -> bool {
        self.boot_protocol
    }

    /// The address assigned by SET_ADDRESS.
    pub fn address(&self) -> u8 {
        self.address
    }

    fn queue_current_state(&mut self) {
        let report = build_report(self.modifiers, &self.held);
        self.pending_reports.push_back(report);
    }

    /// Host-side test helper: press a key (optionally updating modifiers).
    pub fn press(&mut self, code: KeyCode, modifiers: Modifiers) {
        let usage = keycode_to_usage(code);
        self.modifiers = modifiers;
        if !self.held.contains(&usage) && self.held.len() < 6 {
            self.held.push(usage);
        }
        self.queue_current_state();
    }

    /// Host-side test helper: release a key.
    pub fn release(&mut self, code: KeyCode) {
        let usage = keycode_to_usage(code);
        self.held.retain(|&k| k != usage);
        self.queue_current_state();
    }

    /// Convenience: press and immediately release (produces two reports).
    pub fn tap(&mut self, code: KeyCode, modifiers: Modifiers) {
        self.press(code, modifiers);
        self.release(code);
    }

    /// Convenience: type a whole string of printable characters.
    pub fn type_str(&mut self, s: &str) {
        for ch in s.chars() {
            let (code, mods) = match ch {
                'a'..='z' => (KeyCode::Char(ch.to_ascii_uppercase()), Modifiers::default()),
                'A'..='Z' => (
                    KeyCode::Char(ch),
                    Modifiers {
                        shift: true,
                        ..Modifiers::default()
                    },
                ),
                '0'..='9' => (KeyCode::Digit(ch), Modifiers::default()),
                ' ' => (KeyCode::Space, Modifiers::default()),
                '\n' => (KeyCode::Enter, Modifiers::default()),
                _ => continue,
            };
            self.tap(code, mods);
        }
    }

    /// Device descriptor this keyboard reports.
    pub fn device_descriptor() -> DeviceDescriptor {
        DeviceDescriptor {
            usb_version: 0x0200,
            device_class: 0, // class defined per interface
            vendor_id: 0x046D,
            product_id: 0xC31C,
            num_configurations: 1,
        }
    }

    /// Configuration descriptor this keyboard reports.
    pub fn configuration_descriptor() -> ConfigurationDescriptor {
        ConfigurationDescriptor {
            configuration_value: 1,
            interfaces: vec![InterfaceDescriptor {
                interface_number: 0,
                interface_class: class::HID,
                interface_subclass: 1,
                interface_protocol: hid_protocol::KEYBOARD,
                endpoint_address: KEYBOARD_ENDPOINT,
                poll_interval_ms: 8,
            }],
        }
    }
}

impl UsbHwDevice for SimUsbKeyboard {
    fn control(&mut self, setup: &UsbSetupPacket, _data_out: &[u8]) -> HalResult<Vec<u8>> {
        match setup.request {
            REQ_GET_DESCRIPTOR => {
                let desc_kind = (setup.value >> 8) as u8;
                match desc_kind {
                    t if t == desc_type::DEVICE => Ok(Self::device_descriptor().encode()),
                    t if t == desc_type::CONFIGURATION => {
                        Ok(Self::configuration_descriptor().encode())
                    }
                    other => Err(HalError::InvalidState(format!(
                        "keyboard has no descriptor type {other}"
                    ))),
                }
            }
            REQ_SET_ADDRESS => {
                self.address = setup.value as u8;
                Ok(Vec::new())
            }
            REQ_SET_CONFIGURATION => {
                self.configured = setup.value == 1;
                Ok(Vec::new())
            }
            REQ_HID_SET_PROTOCOL => {
                self.boot_protocol = setup.value == 0;
                Ok(Vec::new())
            }
            REQ_HID_SET_IDLE => Ok(Vec::new()),
            other => Err(HalError::InvalidState(format!(
                "keyboard does not handle request {other}"
            ))),
        }
    }

    fn interrupt_in(&mut self, endpoint: u8) -> Option<Vec<u8>> {
        if endpoint != KEYBOARD_ENDPOINT || !self.configured {
            return None;
        }
        self.pending_reports.pop_front().map(|r| r.to_vec())
    }

    fn has_pending_input(&self) -> bool {
        self.configured && !self.pending_reports.is_empty()
    }

    fn name(&self) -> &str {
        "hid-boot-keyboard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(request: u8, value: u16) -> UsbSetupPacket {
        UsbSetupPacket {
            request_type: 0,
            request,
            value,
            index: 0,
            length: 0,
        }
    }

    #[test]
    fn descriptors_identify_a_boot_keyboard() {
        let cfg = SimUsbKeyboard::configuration_descriptor();
        assert_eq!(cfg.interfaces.len(), 1);
        assert_eq!(cfg.interfaces[0].interface_class, class::HID);
        assert_eq!(cfg.interfaces[0].interface_protocol, hid_protocol::KEYBOARD);
    }

    #[test]
    fn reports_are_withheld_until_configured() {
        let mut kb = SimUsbKeyboard::new();
        kb.press(KeyCode::Char('A'), Modifiers::default());
        assert_eq!(kb.interrupt_in(KEYBOARD_ENDPOINT), None);
        kb.control(&setup(REQ_SET_CONFIGURATION, 1), &[]).unwrap();
        assert!(kb.is_configured());
        let report = kb.interrupt_in(KEYBOARD_ENDPOINT).unwrap();
        assert_eq!(report.len(), 8);
        assert_eq!(report[2], keycode_to_usage(KeyCode::Char('A')));
    }

    #[test]
    fn tap_produces_press_then_release_reports() {
        let mut kb = SimUsbKeyboard::new();
        kb.control(&setup(REQ_SET_CONFIGURATION, 1), &[]).unwrap();
        kb.tap(KeyCode::Space, Modifiers::default());
        let press = kb.interrupt_in(KEYBOARD_ENDPOINT).unwrap();
        let release = kb.interrupt_in(KEYBOARD_ENDPOINT).unwrap();
        assert_eq!(press[2], keycode_to_usage(KeyCode::Space));
        assert_eq!(release[2], 0);
    }

    #[test]
    fn set_address_and_protocol_are_recorded() {
        let mut kb = SimUsbKeyboard::new();
        kb.control(&setup(REQ_SET_ADDRESS, 7), &[]).unwrap();
        assert_eq!(kb.address(), 7);
        kb.control(&setup(REQ_HID_SET_PROTOCOL, 0), &[]).unwrap();
        assert!(kb.boot_protocol_selected());
    }

    #[test]
    fn type_str_queues_two_reports_per_character() {
        let mut kb = SimUsbKeyboard::new();
        kb.control(&setup(REQ_SET_CONFIGURATION, 1), &[]).unwrap();
        kb.type_str("ls\n");
        let mut count = 0;
        while kb.interrupt_in(KEYBOARD_ENDPOINT).is_some() {
            count += 1;
        }
        assert_eq!(count, 6);
    }

    #[test]
    fn unknown_requests_and_endpoints_are_rejected_or_empty() {
        let mut kb = SimUsbKeyboard::new();
        assert!(kb.control(&setup(0x99, 0), &[]).is_err());
        kb.control(&setup(REQ_SET_CONFIGURATION, 1), &[]).unwrap();
        kb.press(KeyCode::Char('Q'), Modifiers::default());
        assert_eq!(kb.interrupt_in(0x02), None, "wrong endpoint yields nothing");
    }
}
