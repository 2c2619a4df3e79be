//! Intel 8259A programmable interrupt controller (single chip).
//!
//! Two ports: `base + 0` (ICW1 / OCW2 / OCW3) and `base + 1`
//! (ICW2..4 / OCW1 mask). The model implements the standard initialisation
//! handshake (ICW1 with bit 4 set starts a sequence expecting ICW2 and, when
//! requested, ICW4), the interrupt mask, request/in-service registers
//! readable through OCW3, and specific/non-specific EOI through OCW2.
//!
//! Interrupts are raised by the harness with [`Pic8259::raise_irq`] and
//! fetched with [`Pic8259::ack`] (the INTA cycle).

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};
use std::any::Any;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitState {
    Ready,
    ExpectIcw2,
    ExpectIcw3,
    ExpectIcw4,
}

/// Single 8259A interrupt controller.
#[derive(Debug, Clone)]
pub struct Pic8259 {
    imr: u8,
    irr: u8,
    isr: u8,
    vector_base: u8,
    init: InitState,
    cascade_expected: bool,
    icw4_expected: bool,
    read_isr: bool,
}

impl Default for Pic8259 {
    fn default() -> Self {
        Self::new()
    }
}

impl Pic8259 {
    /// Power-on state: everything masked, vector base 8 (the PC default).
    pub fn new() -> Self {
        Pic8259 {
            imr: 0xFF,
            irr: 0,
            isr: 0,
            vector_base: 8,
            init: InitState::Ready,
            cascade_expected: false,
            icw4_expected: false,
            read_isr: false,
        }
    }

    /// Latch an interrupt request on `line` (0..8).
    pub fn raise_irq(&mut self, line: u8) {
        self.irr |= 1 << (line & 7);
    }

    /// Highest-priority pending unmasked interrupt, if any.
    pub fn pending(&self) -> Option<u8> {
        let active = self.irr & !self.imr;
        (0..8).find(|&l| active & (1 << l) != 0)
    }

    /// Acknowledge (INTA): moves the highest-priority request to in-service
    /// and returns its vector.
    pub fn ack(&mut self) -> Option<u8> {
        let line = self.pending()?;
        self.irr &= !(1 << line);
        self.isr |= 1 << line;
        Some(self.vector_base + line)
    }

    /// Current interrupt mask register.
    pub fn mask(&self) -> u8 {
        self.imr
    }

    /// Vector base programmed by ICW2.
    pub fn vector_base(&self) -> u8 {
        self.vector_base
    }

    /// Whether initialisation has completed.
    pub fn is_initialized(&self) -> bool {
        self.init == InitState::Ready
    }
}

impl IoDevice for Pic8259 {
    fn name(&self) -> &str {
        "pic-8259"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        match offset {
            0 => Ok(if self.read_isr { self.isr } else { self.irr } as u32),
            1 => Ok(self.imr as u32),
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = value as u8;
        match offset {
            0 => {
                if v & 0x10 != 0 {
                    // ICW1
                    self.init = InitState::ExpectIcw2;
                    self.cascade_expected = v & 0x02 == 0;
                    self.icw4_expected = v & 0x01 != 0;
                    self.imr = 0;
                    self.isr = 0;
                    self.irr = 0;
                } else if v & 0x08 != 0 {
                    // OCW3
                    match v & 0x03 {
                        0x02 => self.read_isr = false,
                        0x03 => self.read_isr = true,
                        _ => {}
                    }
                } else {
                    // OCW2
                    let cmd = (v >> 5) & 0x07;
                    match cmd {
                        0x01 => {
                            // non-specific EOI: clear highest in-service
                            for l in 0..8 {
                                if self.isr & (1 << l) != 0 {
                                    self.isr &= !(1 << l);
                                    break;
                                }
                            }
                        }
                        0x03 => {
                            // specific EOI
                            self.isr &= !(1 << (v & 0x07));
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            1 => {
                match self.init {
                    InitState::ExpectIcw2 => {
                        self.vector_base = v & 0xF8;
                        self.init = if self.cascade_expected {
                            InitState::ExpectIcw3
                        } else if self.icw4_expected {
                            InitState::ExpectIcw4
                        } else {
                            InitState::Ready
                        };
                    }
                    InitState::ExpectIcw3 => {
                        self.init = if self.icw4_expected {
                            InitState::ExpectIcw4
                        } else {
                            InitState::Ready
                        };
                    }
                    InitState::ExpectIcw4 => {
                        self.init = InitState::Ready;
                    }
                    InitState::Ready => self.imr = v,
                }
                Ok(())
            }
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    /// IRR/ISR/IMR reads have no side effects.
    fn read_is_pure(&self, _offset: u16, _size: AccessSize) -> bool {
        true
    }

    fn quiet_ticks(&self) -> u64 {
        u64::MAX
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u8(self.imr);
        w.u8(self.irr);
        w.u8(self.isr);
        w.u8(self.vector_base);
        w.u8(match self.init {
            InitState::Ready => 0,
            InitState::ExpectIcw2 => 1,
            InitState::ExpectIcw3 => 2,
            InitState::ExpectIcw4 => 3,
        });
        w.bool(self.cascade_expected);
        w.bool(self.icw4_expected);
        w.bool(self.read_isr);
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        self.imr = r.u8();
        self.irr = r.u8();
        self.isr = r.u8();
        self.vector_base = r.u8();
        self.init = match r.u8() {
            0 => InitState::Ready,
            1 => InitState::ExpectIcw2,
            2 => InitState::ExpectIcw3,
            _ => InitState::ExpectIcw4,
        };
        self.cascade_expected = r.bool();
        self.icw4_expected = r.bool();
        self.read_isr = r.bool();
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

    const BASE: u16 = 0x20;

    fn init_pic(io: &mut IoSpace) {
        io.outb(BASE, 0x11).unwrap(); // ICW1: cascade, ICW4 needed
        io.outb(BASE + 1, 0x20).unwrap(); // ICW2: vector base 0x20
        io.outb(BASE + 1, 0x04).unwrap(); // ICW3
        io.outb(BASE + 1, 0x01).unwrap(); // ICW4: 8086 mode
    }

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 2, Box::new(Pic8259::new())).unwrap();
        (io, id)
    }

    #[test]
    fn init_sequence_programs_vector_base() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        let pic = io.device::<Pic8259>(id).unwrap();
        assert!(pic.is_initialized());
        assert_eq!(pic.vector_base(), 0x20);
    }

    #[test]
    fn mask_writes_after_init_are_ocw1() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.outb(BASE + 1, 0xFB).unwrap(); // unmask IRQ2 only
        assert_eq!(io.device::<Pic8259>(id).unwrap().mask(), 0xFB);
        assert_eq!(io.inb(BASE + 1).unwrap(), 0xFB);
    }

    #[test]
    fn irq_flow_raise_ack_eoi() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.outb(BASE + 1, 0x00).unwrap(); // unmask all
        io.device_mut::<Pic8259>(id).unwrap().raise_irq(3);
        assert_eq!(io.device::<Pic8259>(id).unwrap().pending(), Some(3));
        let vector = io.device_mut::<Pic8259>(id).unwrap().ack().unwrap();
        assert_eq!(vector, 0x23);
        // In-service readable through OCW3.
        io.outb(BASE, 0x0B).unwrap();
        assert_eq!(io.inb(BASE).unwrap(), 1 << 3);
        // Non-specific EOI clears it.
        io.outb(BASE, 0x20).unwrap();
        io.outb(BASE, 0x0B).unwrap();
        assert_eq!(io.inb(BASE).unwrap(), 0);
    }

    #[test]
    fn masked_irq_not_pending() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.outb(BASE + 1, 0xFF).unwrap();
        io.device_mut::<Pic8259>(id).unwrap().raise_irq(5);
        assert_eq!(io.device::<Pic8259>(id).unwrap().pending(), None);
        io.outb(BASE + 1, !(1 << 5)).unwrap();
        assert_eq!(io.device::<Pic8259>(id).unwrap().pending(), Some(5));
    }

    #[test]
    fn priority_order_lowest_line_first() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.outb(BASE + 1, 0x00).unwrap();
        let pic = io.device_mut::<Pic8259>(id).unwrap();
        pic.raise_irq(6);
        pic.raise_irq(1);
        assert_eq!(pic.ack().unwrap(), 0x21);
        assert_eq!(pic.ack().unwrap(), 0x26);
    }

    #[test]
    fn specific_eoi_clears_named_level() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.outb(BASE + 1, 0x00).unwrap();
        {
            let pic = io.device_mut::<Pic8259>(id).unwrap();
            pic.raise_irq(2);
            pic.raise_irq(4);
            pic.ack();
            pic.ack();
        }
        io.outb(BASE, 0x60 | 4).unwrap(); // specific EOI for 4
        io.outb(BASE, 0x0B).unwrap();
        assert_eq!(io.inb(BASE).unwrap(), 1 << 2);
    }

    #[test]
    fn irr_readable_via_ocw3() {
        let (mut io, id) = machine();
        init_pic(&mut io);
        io.device_mut::<Pic8259>(id).unwrap().raise_irq(7);
        io.outb(BASE, 0x0A).unwrap(); // read IRR
        assert_eq!(io.inb(BASE).unwrap(), 1 << 7);
    }
}
