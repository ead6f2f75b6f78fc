//! Key events and the ring buffer behind `/dev/events`.
//!
//! The paper contrasts the USB keyboard with the UART precisely on event
//! richness: the UART "lacks key modifiers, multi-key support, and key
//! release detection" (§4.3), all three of which games need. A key event
//! therefore carries the key code, the modifier state and whether it is a
//! press or a release. The kernel's keyboard driver pushes events into a
//! bounded ring buffer; `/dev/events` reads drain it (blocking or
//! non-blocking, the latter added for DOOM's polling loop in Prototype 5).

use std::collections::VecDeque;

/// Modifier key state, as carried in byte 0 of a HID boot report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Modifiers {
    /// Either Ctrl key.
    pub ctrl: bool,
    /// Either Shift key.
    pub shift: bool,
    /// Either Alt key.
    pub alt: bool,
}

impl Modifiers {
    /// Decodes the HID modifier byte.
    pub fn from_hid_byte(b: u8) -> Self {
        Modifiers {
            ctrl: b & 0x11 != 0,
            shift: b & 0x22 != 0,
            alt: b & 0x44 != 0,
        }
    }

    /// Encodes to the HID modifier byte (left-hand variants).
    pub fn to_hid_byte(self) -> u8 {
        (self.ctrl as u8) | ((self.shift as u8) << 1) | ((self.alt as u8) << 2)
    }
}

/// Keys Proto's apps care about (a subset of the HID usage table: letters,
/// digits, arrows and the control keys the window manager and games bind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyCode {
    /// A letter key, stored upper-case ('A'..='Z').
    Char(char),
    /// A digit key ('0'..='9').
    Digit(char),
    /// Space bar.
    Space,
    /// Enter / Return.
    Enter,
    /// Escape.
    Escape,
    /// Backspace.
    Backspace,
    /// Tab (Ctrl+Tab switches window focus in the window manager).
    Tab,
    /// Arrow up.
    Up,
    /// Arrow down.
    Down,
    /// Arrow left.
    Left,
    /// Arrow right.
    Right,
    /// Any key the stack does not map.
    Unknown(u8),
}

/// A single key press or release event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyEvent {
    /// The key.
    pub code: KeyCode,
    /// Modifier state at the time of the event.
    pub modifiers: Modifiers,
    /// True for press, false for release.
    pub pressed: bool,
    /// Time the driver observed the event, in board microseconds. Input
    /// latency (Figure 11b) is measured from this timestamp.
    pub timestamp_us: u64,
}

impl KeyEvent {
    /// The character this event would type, if it is a printable press.
    pub fn to_char(&self) -> Option<char> {
        if !self.pressed {
            return None;
        }
        match self.code {
            KeyCode::Char(c) => {
                if self.modifiers.shift {
                    Some(c.to_ascii_uppercase())
                } else {
                    Some(c.to_ascii_lowercase())
                }
            }
            KeyCode::Digit(c) => Some(c),
            KeyCode::Space => Some(' '),
            KeyCode::Enter => Some('\n'),
            _ => None,
        }
    }
}

/// Default capacity of the kernel's key-event ring buffer.
pub const DEFAULT_QUEUE_CAPACITY: usize = 128;

/// A bounded FIFO of key events.
#[derive(Debug, Clone)]
pub struct KeyEventQueue {
    events: VecDeque<KeyEvent>,
    capacity: usize,
    dropped: u64,
}

impl Default for KeyEventQueue {
    fn default() -> Self {
        Self::new(DEFAULT_QUEUE_CAPACITY)
    }
}

impl KeyEventQueue {
    /// Creates a queue holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        KeyEventQueue {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, dropping the oldest if the queue is full.
    pub fn push(&mut self, event: KeyEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Removes and returns the oldest event.
    pub fn pop(&mut self) -> Option<KeyEvent> {
        self.events.pop_front()
    }

    /// Peeks at the oldest event without removing it (the non-blocking
    /// `read()` path DOOM uses peeks before committing to a read).
    pub fn peek(&self) -> Option<&KeyEvent> {
        self.events.front()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(code: KeyCode, pressed: bool) -> KeyEvent {
        KeyEvent {
            code,
            modifiers: Modifiers::default(),
            pressed,
            timestamp_us: 0,
        }
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = KeyEventQueue::new(8);
        q.push(ev(KeyCode::Char('A'), true));
        q.push(ev(KeyCode::Char('B'), true));
        assert_eq!(q.pop().unwrap().code, KeyCode::Char('A'));
        assert_eq!(q.pop().unwrap().code, KeyCode::Char('B'));
        assert!(q.pop().is_none());
    }

    #[test]
    fn full_queue_drops_oldest() {
        let mut q = KeyEventQueue::new(2);
        q.push(ev(KeyCode::Char('A'), true));
        q.push(ev(KeyCode::Char('B'), true));
        q.push(ev(KeyCode::Char('C'), true));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop().unwrap().code, KeyCode::Char('B'));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = KeyEventQueue::default();
        q.push(ev(KeyCode::Escape, true));
        assert_eq!(q.peek().unwrap().code, KeyCode::Escape);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn modifiers_round_trip_through_the_hid_byte() {
        let m = Modifiers {
            ctrl: true,
            shift: false,
            alt: true,
        };
        let round = Modifiers::from_hid_byte(m.to_hid_byte());
        assert_eq!(round, m);
    }

    #[test]
    fn to_char_honours_shift_and_release() {
        let mut e = ev(KeyCode::Char('A'), true);
        assert_eq!(e.to_char(), Some('a'));
        e.modifiers.shift = true;
        assert_eq!(e.to_char(), Some('A'));
        let rel = ev(KeyCode::Char('A'), false);
        assert_eq!(rel.to_char(), None);
        assert_eq!(ev(KeyCode::Enter, true).to_char(), Some('\n'));
        assert_eq!(ev(KeyCode::Left, true).to_char(), None);
    }
}
