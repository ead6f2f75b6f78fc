//! Keyboard driver: USB HID reports in, `/dev/events` records out.
//!
//! The driver sits between the USB stack and the VFS: the USB controller's
//! interrupt hands it fresh boot reports, it converts them to key events and
//! queues them; reads of `/dev/events` drain the queue (blocking or, from
//! Prototype 5, non-blocking for key-polling games). When the window manager
//! is running it takes over the raw queue and re-dispatches events to the
//! focused app's `/dev/event1` queue instead.

use protousb::{KeyCode, KeyEvent, KeyEventQueue, Modifiers};

/// Size of one encoded key event as read from `/dev/events` / `/dev/event1`.
pub const EVENT_RECORD_SIZE: usize = 8;

/// Encodes a key event into the fixed 8-byte record format apps read.
pub fn encode_event(e: &KeyEvent) -> [u8; EVENT_RECORD_SIZE] {
    let (class, value) = match e.code {
        KeyCode::Char(c) => (1u8, c as u8),
        KeyCode::Digit(c) => (2, c as u8),
        KeyCode::Space => (3, b' '),
        KeyCode::Enter => (3, b'\n'),
        KeyCode::Escape => (3, 27),
        KeyCode::Backspace => (3, 8),
        KeyCode::Tab => (3, b'\t'),
        KeyCode::Up => (4, 0),
        KeyCode::Down => (4, 1),
        KeyCode::Left => (4, 2),
        KeyCode::Right => (4, 3),
        KeyCode::Unknown(u) => (0xFF, u),
    };
    let mut out = [0u8; EVENT_RECORD_SIZE];
    out[0] = e.pressed as u8;
    out[1] = class;
    out[2] = value;
    out[3] = e.modifiers.to_hid_byte();
    out[4..8].copy_from_slice(&((e.timestamp_us & 0xFFFF_FFFF) as u32).to_le_bytes());
    out
}

/// Decodes an 8-byte record back into a key event.
pub fn decode_event(raw: &[u8]) -> Option<KeyEvent> {
    if raw.len() < EVENT_RECORD_SIZE {
        return None;
    }
    let code = match raw[1] {
        1 => KeyCode::Char(raw[2] as char),
        2 => KeyCode::Digit(raw[2] as char),
        3 => match raw[2] {
            b' ' => KeyCode::Space,
            b'\n' => KeyCode::Enter,
            27 => KeyCode::Escape,
            8 => KeyCode::Backspace,
            b'\t' => KeyCode::Tab,
            _ => KeyCode::Unknown(raw[2]),
        },
        4 => match raw[2] {
            0 => KeyCode::Up,
            1 => KeyCode::Down,
            2 => KeyCode::Left,
            _ => KeyCode::Right,
        },
        _ => KeyCode::Unknown(raw[2]),
    };
    Some(KeyEvent {
        code,
        modifiers: Modifiers::from_hid_byte(raw[3]),
        pressed: raw[0] != 0,
        timestamp_us: u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]) as u64,
    })
}

/// The keyboard driver state.
#[derive(Debug, Clone, Default)]
pub struct KeyboardDriver {
    /// Raw events straight from the USB stack (backs `/dev/events`).
    pub raw_queue: KeyEventQueue,
    /// Events the window manager has dispatched to the focused app
    /// (backs `/dev/event1`).
    pub dispatched_queue: KeyEventQueue,
    /// Total events received from the USB stack.
    pub events_received: u64,
}

impl KeyboardDriver {
    /// Creates the driver with empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds events from the USB stack into the raw queue.
    pub fn push_events(&mut self, events: impl IntoIterator<Item = KeyEvent>) {
        for e in events {
            self.events_received += 1;
            self.raw_queue.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(code: KeyCode, pressed: bool) -> KeyEvent {
        KeyEvent {
            code,
            modifiers: Modifiers {
                ctrl: true,
                shift: false,
                alt: false,
            },
            pressed,
            timestamp_us: 123_456,
        }
    }

    #[test]
    fn every_key_class_round_trips_through_the_record_format() {
        let codes = [
            KeyCode::Char('W'),
            KeyCode::Digit('3'),
            KeyCode::Space,
            KeyCode::Enter,
            KeyCode::Escape,
            KeyCode::Backspace,
            KeyCode::Tab,
            KeyCode::Up,
            KeyCode::Down,
            KeyCode::Left,
            KeyCode::Right,
            KeyCode::Unknown(0x65),
        ];
        for code in codes {
            let e = sample(code, true);
            let back = decode_event(&encode_event(&e)).unwrap();
            assert_eq!(back.code, e.code, "{code:?}");
            assert_eq!(back.pressed, e.pressed);
            assert_eq!(back.modifiers, e.modifiers);
            assert_eq!(back.timestamp_us, e.timestamp_us);
        }
    }

    #[test]
    fn releases_round_trip_too() {
        let e = sample(KeyCode::Char('A'), false);
        assert!(!decode_event(&encode_event(&e)).unwrap().pressed);
    }

    #[test]
    fn short_records_decode_to_none() {
        assert!(decode_event(&[1, 2, 3]).is_none());
    }

    #[test]
    fn driver_queues_and_counts_events() {
        let mut d = KeyboardDriver::new();
        d.push_events(vec![
            sample(KeyCode::Char('A'), true),
            sample(KeyCode::Char('A'), false),
        ]);
        assert_eq!(d.events_received, 2);
        assert_eq!(d.raw_queue.len(), 2);
        assert!(d.dispatched_queue.is_empty());
    }
}
