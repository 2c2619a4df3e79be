//! Intel 8237 ISA DMA controller (channels 0–3).
//!
//! Register block (16 ports at `base`, classically `0x00`):
//!
//! * even offsets 0,2,4,6 — channel base/current address (16-bit via the
//!   byte flip-flop);
//! * odd offsets 1,3,5,7 — channel base/current word count;
//! * 8 — status (read) / command (write);
//! * 9 — request register;
//! * 10 — single-channel mask;
//! * 11 — mode register;
//! * 12 — clear byte flip-flop;
//! * 13 — master clear (read: temporary register);
//! * 14 — clear mask register;
//! * 15 — write-all-mask.
//!
//! The model tracks programming state; "transfers" complete instantly when a
//! channel is unmasked with a valid mode, setting the terminal-count bit in
//! the status register — enough for the DMA setup sequences drivers perform.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};
use std::any::Any;

/// 8237 DMA controller model.
#[derive(Debug, Clone)]
pub struct Dma8237 {
    address: [u16; 4],
    count: [u16; 4],
    mode: [u8; 4],
    mask: u8,
    status: u8,
    command: u8,
    request: u8,
    flipflop: bool,
    temp: u8,
}

impl Default for Dma8237 {
    fn default() -> Self {
        Self::new()
    }
}

impl Dma8237 {
    /// Power-on state: all channels masked, flip-flop cleared.
    pub fn new() -> Self {
        Dma8237 {
            address: [0; 4],
            count: [0; 4],
            mode: [0; 4],
            mask: 0x0F,
            status: 0,
            command: 0,
            request: 0,
            flipflop: false,
            temp: 0,
        }
    }

    /// Programmed start address for `channel`.
    pub fn channel_address(&self, channel: usize) -> u16 {
        self.address[channel]
    }

    /// Programmed transfer count for `channel`.
    pub fn channel_count(&self, channel: usize) -> u16 {
        self.count[channel]
    }

    /// Programmed mode byte for `channel`.
    pub fn channel_mode(&self, channel: usize) -> u8 {
        self.mode[channel]
    }

    /// Whether `channel` is masked off.
    pub fn is_masked(&self, channel: usize) -> bool {
        self.mask & (1 << channel) != 0
    }

    fn write_16(&mut self, slot: &mut u16, value: u8) {
        if self.flipflop {
            *slot = (*slot & 0x00FF) | ((value as u16) << 8);
        } else {
            *slot = (*slot & 0xFF00) | value as u16;
        }
        self.flipflop = !self.flipflop;
    }

    fn read_16(&mut self, slot: u16) -> u8 {
        let v = if self.flipflop { (slot >> 8) as u8 } else { (slot & 0xFF) as u8 };
        self.flipflop = !self.flipflop;
        v
    }

    fn maybe_complete(&mut self, channel: usize) {
        // Unmasked channel with a programmed mode "transfers" and reaches
        // terminal count immediately in this model.
        if self.mask & (1 << channel) == 0 && self.mode[channel] & 0xC0 != 0xC0 {
            self.status |= 1 << channel;
        }
    }
}

impl IoDevice for Dma8237 {
    fn name(&self) -> &str {
        "dma-8237"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = match offset {
            0 | 2 | 4 | 6 => {
                let ch = (offset / 2) as usize;
                let slot = self.address[ch];
                self.read_16(slot)
            }
            1 | 3 | 5 | 7 => {
                let ch = (offset / 2) as usize;
                let slot = self.count[ch];
                self.read_16(slot)
            }
            8 => {
                let st = self.status;
                self.status &= 0xF0; // reading clears TC bits
                st
            }
            13 => self.temp,
            _ => 0,
        };
        Ok(v as u32)
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = value as u8;
        match offset {
            0 | 2 | 4 | 6 => {
                let ch = (offset / 2) as usize;
                let mut slot = self.address[ch];
                self.write_16(&mut slot, v);
                self.address[ch] = slot;
            }
            1 | 3 | 5 | 7 => {
                let ch = (offset / 2) as usize;
                let mut slot = self.count[ch];
                self.write_16(&mut slot, v);
                self.count[ch] = slot;
            }
            8 => self.command = v,
            9 => self.request = v & 0x07,
            10 => {
                let ch = (v & 0x03) as usize;
                if v & 0x04 != 0 {
                    self.mask |= 1 << ch;
                } else {
                    self.mask &= !(1 << ch);
                    self.maybe_complete(ch);
                }
            }
            11 => {
                let ch = (v & 0x03) as usize;
                self.mode[ch] = v;
            }
            12 => self.flipflop = false,
            13 => *self = Dma8237::new(), // master clear
            14 => self.mask = 0,
            15 => self.mask = v & 0x0F,
            _ => {}
        }
        Ok(())
    }

    /// Address/count reads toggle the byte flip-flop and a status read
    /// clears the terminal-count bits; refused (wrong-width) reads and the
    /// other registers change nothing.
    fn read_is_pure(&self, offset: u16, size: AccessSize) -> bool {
        size != AccessSize::Byte || offset > 8
    }

    fn quiet_ticks(&self) -> u64 {
        u64::MAX
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        for ch in 0..4 {
            w.u16(self.address[ch]);
            w.u16(self.count[ch]);
            w.u8(self.mode[ch]);
        }
        w.u8(self.mask);
        w.u8(self.status);
        w.u8(self.command);
        w.u8(self.request);
        w.bool(self.flipflop);
        w.u8(self.temp);
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        for ch in 0..4 {
            self.address[ch] = r.u16();
            self.count[ch] = r.u16();
            self.mode[ch] = r.u8();
        }
        self.mask = r.u8();
        self.status = r.u8();
        self.command = r.u8();
        self.request = r.u8();
        self.flipflop = r.bool();
        self.temp = r.u8();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{IoBus, IoSpace};

    const BASE: u16 = 0x00;

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 16, Box::new(Dma8237::new())).unwrap();
        (io, id)
    }

    #[test]
    fn address_programs_via_flipflop() {
        let (mut io, id) = machine();
        io.outb(BASE + 12, 0).unwrap(); // clear flip-flop
        io.outb(BASE + 4, 0x34).unwrap(); // channel 2 addr low
        io.outb(BASE + 4, 0x12).unwrap(); // channel 2 addr high
        assert_eq!(io.device::<Dma8237>(id).unwrap().channel_address(2), 0x1234);
    }

    #[test]
    fn count_programs_via_flipflop() {
        let (mut io, id) = machine();
        io.outb(BASE + 12, 0).unwrap();
        io.outb(BASE + 5, 0xFF).unwrap();
        io.outb(BASE + 5, 0x01).unwrap();
        assert_eq!(io.device::<Dma8237>(id).unwrap().channel_count(2), 0x01FF);
    }

    #[test]
    fn flipflop_desync_scrambles_value() {
        let (mut io, id) = machine();
        io.outb(BASE + 12, 0).unwrap();
        io.outb(BASE, 0xAA).unwrap(); // low byte of ch 0 — flip-flop now high
        // Driver "forgets" to write the high byte, then programs ch 1:
        io.outb(BASE + 2, 0x55).unwrap(); // lands in ch1 HIGH byte!
        assert_eq!(io.device::<Dma8237>(id).unwrap().channel_address(1), 0x5500);
    }

    #[test]
    fn mask_and_unmask_single_channel() {
        let (mut io, id) = machine();
        assert!(io.device::<Dma8237>(id).unwrap().is_masked(1));
        io.outb(BASE + 11, 0x45).unwrap(); // mode: single, write, ch 1
        io.outb(BASE + 10, 0x01).unwrap(); // unmask ch 1
        assert!(!io.device::<Dma8237>(id).unwrap().is_masked(1));
        // Terminal count shows in status.
        assert_ne!(io.inb(BASE + 8).unwrap() & 0x02, 0);
        // And reading cleared it.
        assert_eq!(io.inb(BASE + 8).unwrap() & 0x02, 0);
    }

    #[test]
    fn master_clear_resets_everything() {
        let (mut io, id) = machine();
        io.outb(BASE + 11, 0x44).unwrap();
        io.outb(BASE + 10, 0x00).unwrap();
        io.outb(BASE + 13, 0).unwrap(); // master clear
        let d = io.device::<Dma8237>(id).unwrap();
        assert!(d.is_masked(0));
        assert_eq!(d.channel_mode(0), 0);
    }

    #[test]
    fn clear_flipflop_resynchronizes() {
        let (mut io, id) = machine();
        io.outb(BASE, 0x11).unwrap(); // ff -> high
        io.outb(BASE + 12, 0).unwrap(); // resync
        io.outb(BASE, 0x22).unwrap(); // low byte again
        io.outb(BASE, 0x33).unwrap();
        assert_eq!(io.device::<Dma8237>(id).unwrap().channel_address(0), 0x3322);
    }

    #[test]
    fn write_all_mask_register() {
        let (mut io, id) = machine();
        io.outb(BASE + 15, 0x05).unwrap();
        let d = io.device::<Dma8237>(id).unwrap();
        assert!(d.is_masked(0));
        assert!(!d.is_masked(1));
        assert!(d.is_masked(2));
        assert!(!d.is_masked(3));
    }
}
