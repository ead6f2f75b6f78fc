//! VideoCore mailbox property interface.
//!
//! On the Pi 3, the ARM cores negotiate with the VideoCore GPU firmware
//! through a mailbox: the kernel writes a property buffer (a tag, request
//! words, space for response words) and the firmware fills in the response.
//! Proto's Prototype 1 uses this to discover memory split, set the display
//! geometry and obtain the framebuffer allocation. The model implements the
//! handful of property tags Proto's drivers use.

use crate::framebuffer::{Framebuffer, FramebufferInfo};
use crate::{HalError, HalResult};

/// Property tags supported by the simulated firmware (a subset of the real
/// mailbox protocol, matching what Proto's `fb` and board drivers issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyTag {
    /// Query the board revision word.
    GetBoardRevision,
    /// Query the ARM-visible memory base and size.
    GetArmMemory,
    /// Query a clock rate (the core clock).
    GetClockRate,
    /// Allocate (or re-allocate) the framebuffer with a given geometry.
    AllocateFramebuffer,
    /// Power a peripheral on or off (the USB controller at boot).
    SetPowerState,
}

/// Where the simulated firmware places the framebuffer. Real firmware picks
/// an address near the top of the GPU-reserved memory; the arbitrary value
/// here reproduces the "framebuffer may be mapped anywhere" lesson.
pub const FIRMWARE_FB_ADDR: u64 = 0x3C10_0000;

/// Board revision word for a Pi 3 Model B+ (1 GB, Sony UK).
pub const PI3B_PLUS_REVISION: u32 = 0x00A0_20D3;

/// The mailbox/firmware model.
#[derive(Debug)]
pub struct Mailbox {
    arm_mem_base: u32,
    arm_mem_size: u32,
    /// Peripherals powered on via SetPowerState (device id -> on).
    powered: Vec<(u32, bool)>,
    /// Number of property calls made (boot-time accounting).
    calls: u64,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// Creates the firmware model with the Pi 3's default memory split
    /// (GPU reserves the top 64 MB of the 1 GB).
    pub fn new() -> Self {
        Mailbox {
            arm_mem_base: 0,
            arm_mem_size: (1 << 30) - (64 << 20),
            powered: Vec::new(),
            calls: 0,
        }
    }

    /// Number of property calls serviced since boot.
    pub fn call_count(&self) -> u64 {
        self.calls
    }

    /// `GetBoardRevision`.
    pub fn get_board_revision(&mut self) -> u32 {
        self.calls += 1;
        PI3B_PLUS_REVISION
    }

    /// `GetArmMemory`: returns (base, size) visible to the ARM cores.
    pub fn get_arm_memory(&mut self) -> (u32, u32) {
        self.calls += 1;
        (self.arm_mem_base, self.arm_mem_size)
    }

    /// `SetPowerState`: powers a peripheral (3 = USB HCD) on or off.
    pub fn set_power_state(&mut self, device_id: u32, on: bool) -> bool {
        self.calls += 1;
        if let Some(entry) = self.powered.iter_mut().find(|(id, _)| *id == device_id) {
            entry.1 = on;
        } else {
            self.powered.push((device_id, on));
        }
        true
    }

    /// Whether `device_id` has been powered on.
    pub fn is_powered(&self, device_id: u32) -> bool {
        self.powered
            .iter()
            .find(|(id, _)| *id == device_id)
            .map(|(_, on)| *on)
            .unwrap_or(false)
    }

    /// `AllocateFramebuffer`: asks the firmware for a framebuffer of
    /// `width` x `height` pixels and returns its geometry and address.
    pub fn allocate_framebuffer(
        &mut self,
        fb: &mut Framebuffer,
        width: u32,
        height: u32,
    ) -> HalResult<FramebufferInfo> {
        self.calls += 1;
        if width == 0 || height == 0 || width > 4096 || height > 4096 {
            return Err(HalError::OutOfRange(format!(
                "framebuffer geometry {width}x{height}"
            )));
        }
        Ok(fb.allocate(width, height, FIRMWARE_FB_ADDR))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_revision_and_memory_report_pi3_values() {
        let mut mb = Mailbox::new();
        assert_eq!(mb.get_board_revision(), PI3B_PLUS_REVISION);
        let (base, size) = mb.get_arm_memory();
        assert_eq!(base, 0);
        assert_eq!(size, (1 << 30) - (64 << 20));
        assert_eq!(mb.call_count(), 2);
    }

    #[test]
    fn framebuffer_allocation_returns_geometry_and_address() {
        let mut mb = Mailbox::new();
        let mut fb = Framebuffer::new();
        let info = mb.allocate_framebuffer(&mut fb, 640, 480).unwrap();
        assert_eq!(info.width, 640);
        assert_eq!(info.height, 480);
        assert_eq!(info.phys_addr, FIRMWARE_FB_ADDR);
        assert!(fb.is_allocated());
    }

    #[test]
    fn absurd_geometry_is_rejected() {
        let mut mb = Mailbox::new();
        let mut fb = Framebuffer::new();
        assert!(mb.allocate_framebuffer(&mut fb, 0, 480).is_err());
        assert!(mb.allocate_framebuffer(&mut fb, 640, 10_000).is_err());
    }

    #[test]
    fn power_state_round_trips() {
        let mut mb = Mailbox::new();
        assert!(!mb.is_powered(3));
        mb.set_power_state(3, true);
        assert!(mb.is_powered(3));
        mb.set_power_state(3, false);
        assert!(!mb.is_powered(3));
    }
}
