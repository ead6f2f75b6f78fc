//! HID boot-protocol keyboard reports.
//!
//! A boot keyboard produces 8-byte reports: one modifier byte, one reserved
//! byte and up to six concurrently pressed key usage codes. The driver keeps
//! the previous report and diffs it against the new one to synthesise press
//! and release events — which is exactly what gives games the key-release
//! detection the UART cannot provide.

use crate::events::{KeyCode, KeyEvent, Modifiers};

/// Length of a boot keyboard report.
pub const BOOT_REPORT_LEN: usize = 8;

/// Maps a HID usage ID to a [`KeyCode`].
pub fn usage_to_keycode(usage: u8) -> KeyCode {
    match usage {
        0x04..=0x1D => KeyCode::Char((b'A' + (usage - 0x04)) as char),
        0x1E..=0x26 => KeyCode::Digit((b'1' + (usage - 0x1E)) as char),
        0x27 => KeyCode::Digit('0'),
        0x28 => KeyCode::Enter,
        0x29 => KeyCode::Escape,
        0x2A => KeyCode::Backspace,
        0x2B => KeyCode::Tab,
        0x2C => KeyCode::Space,
        0x4F => KeyCode::Right,
        0x50 => KeyCode::Left,
        0x51 => KeyCode::Down,
        0x52 => KeyCode::Up,
        other => KeyCode::Unknown(other),
    }
}

/// Maps a [`KeyCode`] back to its HID usage ID (used by the simulated
/// keyboard device to build reports).
pub fn keycode_to_usage(code: KeyCode) -> u8 {
    match code {
        KeyCode::Char(c) => 0x04 + (c.to_ascii_uppercase() as u8 - b'A'),
        KeyCode::Digit('0') => 0x27,
        KeyCode::Digit(c) => 0x1E + (c as u8 - b'1'),
        KeyCode::Enter => 0x28,
        KeyCode::Escape => 0x29,
        KeyCode::Backspace => 0x2A,
        KeyCode::Tab => 0x2B,
        KeyCode::Space => 0x2C,
        KeyCode::Right => 0x4F,
        KeyCode::Left => 0x50,
        KeyCode::Down => 0x51,
        KeyCode::Up => 0x52,
        KeyCode::Unknown(u) => u,
    }
}

/// Stateful report parser: diffs successive boot reports into key events.
#[derive(Debug, Clone, Default)]
pub struct BootReportParser {
    previous_keys: Vec<u8>,
    previous_modifiers: Modifiers,
}

impl BootReportParser {
    /// Creates a parser with an empty previous state (no keys held).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a report observed at `timestamp_us`, returning the press and
    /// release events it implies relative to the previous report.
    pub fn parse(&mut self, report: &[u8], timestamp_us: u64) -> Vec<KeyEvent> {
        if report.len() < BOOT_REPORT_LEN {
            return Vec::new();
        }
        let modifiers = Modifiers::from_hid_byte(report[0]);
        let keys: Vec<u8> = report[2..8].iter().copied().filter(|k| *k != 0).collect();
        let mut events = Vec::new();
        // Presses: in the new report but not the old one.
        for &k in &keys {
            if !self.previous_keys.contains(&k) {
                events.push(KeyEvent {
                    code: usage_to_keycode(k),
                    modifiers,
                    pressed: true,
                    timestamp_us,
                });
            }
        }
        // Releases: in the old report but not the new one.
        for &k in &self.previous_keys {
            if !keys.contains(&k) {
                events.push(KeyEvent {
                    code: usage_to_keycode(k),
                    modifiers,
                    pressed: false,
                    timestamp_us,
                });
            }
        }
        self.previous_keys = keys;
        self.previous_modifiers = modifiers;
        events
    }

    /// The modifier state of the most recent report.
    pub fn current_modifiers(&self) -> Modifiers {
        self.previous_modifiers
    }

    /// Usage IDs currently held down.
    pub fn held_keys(&self) -> &[u8] {
        &self.previous_keys
    }
}

/// Builds a boot report from a modifier state and a set of held usage IDs
/// (device-side helper).
pub fn build_report(modifiers: Modifiers, held: &[u8]) -> [u8; BOOT_REPORT_LEN] {
    let mut report = [0u8; BOOT_REPORT_LEN];
    report[0] = modifiers.to_hid_byte();
    for (slot, &k) in report[2..8].iter_mut().zip(held.iter()) {
        *slot = k;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn press_and_release_are_diffed_from_reports() {
        let mut p = BootReportParser::new();
        // Press 'W'.
        let r1 = build_report(
            Modifiers::default(),
            &[keycode_to_usage(KeyCode::Char('W'))],
        );
        let ev1 = p.parse(&r1, 100);
        assert_eq!(ev1.len(), 1);
        assert_eq!(ev1[0].code, KeyCode::Char('W'));
        assert!(ev1[0].pressed);
        // Hold 'W', add Space.
        let r2 = build_report(
            Modifiers::default(),
            &[
                keycode_to_usage(KeyCode::Char('W')),
                keycode_to_usage(KeyCode::Space),
            ],
        );
        let ev2 = p.parse(&r2, 200);
        assert_eq!(ev2.len(), 1);
        assert_eq!(ev2[0].code, KeyCode::Space);
        // Release everything.
        let r3 = build_report(Modifiers::default(), &[]);
        let ev3 = p.parse(&r3, 300);
        assert_eq!(ev3.len(), 2);
        assert!(ev3.iter().all(|e| !e.pressed));
    }

    #[test]
    fn repeated_identical_reports_produce_no_events() {
        let mut p = BootReportParser::new();
        let r = build_report(Modifiers::default(), &[0x04]);
        assert_eq!(p.parse(&r, 0).len(), 1);
        assert!(p.parse(&r, 10).is_empty());
        assert!(p.parse(&r, 20).is_empty());
    }

    #[test]
    fn modifiers_are_attached_to_events() {
        let mut p = BootReportParser::new();
        let mods = Modifiers {
            ctrl: true,
            shift: false,
            alt: false,
        };
        let r = build_report(mods, &[keycode_to_usage(KeyCode::Tab)]);
        let ev = p.parse(&r, 0);
        assert_eq!(ev[0].code, KeyCode::Tab);
        assert!(ev[0].modifiers.ctrl, "ctrl+tab drives window switching");
    }

    #[test]
    fn usage_mapping_round_trips_for_all_known_keys() {
        let keys = [
            KeyCode::Char('A'),
            KeyCode::Char('Z'),
            KeyCode::Digit('1'),
            KeyCode::Digit('0'),
            KeyCode::Enter,
            KeyCode::Escape,
            KeyCode::Backspace,
            KeyCode::Tab,
            KeyCode::Space,
            KeyCode::Up,
            KeyCode::Down,
            KeyCode::Left,
            KeyCode::Right,
        ];
        for k in keys {
            assert_eq!(usage_to_keycode(keycode_to_usage(k)), k, "{k:?}");
        }
    }

    #[test]
    fn short_reports_are_ignored() {
        let mut p = BootReportParser::new();
        assert!(p.parse(&[0, 0, 4], 0).is_empty());
    }
}
