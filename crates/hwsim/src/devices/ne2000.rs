//! NE2000 (National Semiconductor DP8390) Ethernet controller model.
//!
//! Register map (16 consecutive ports at `base`, plus the data port at
//! `base + 0x10` and the reset port at `base + 0x1F`):
//!
//! * offset 0 — command register (CR): `STP STA TXP RD0..2 PS0 PS1`.
//! * offsets 1..=15 — paged register file; page selected by `CR.PS`.
//! * offset 0x10 — remote-DMA data window.
//! * offset 0x1F — reset on read.
//!
//! Page 0 holds the DMA engine (`RSAR`, `RBCR`), the interrupt status
//! register (`ISR`), and configuration (`RCR`, `TCR`, `DCR`, `IMR`); page 1
//! holds the station address (`PAR0..5`) and the receive ring's `CURR`
//! pointer. The model implements 16 KiB of on-board packet RAM at
//! `0x4000..0x8000` and the station-address PROM at remote addresses
//! `0x0000..0x0020`, which is what the Linux probe routine reads.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};
use std::any::Any;

const RAM_START: usize = 0x4000;
const RAM_SIZE: usize = 0x4000;

/// ISR bits.
const ISR_PRX: u8 = 0x01;
const ISR_PTX: u8 = 0x02;
const ISR_RDC: u8 = 0x40;
const ISR_RST: u8 = 0x80;

/// NE2000 Ethernet controller with 16 KiB of packet RAM.
#[derive(Debug, Clone)]
pub struct Ne2000 {
    mac: [u8; 6],
    cr: u8,
    isr: u8,
    imr: u8,
    dcr: u8,
    rcr: u8,
    tcr: u8,
    pstart: u8,
    pstop: u8,
    bnry: u8,
    curr: u8,
    tpsr: u8,
    tbcr: u16,
    rsar: u16,
    rbcr: u16,
    par: [u8; 6],
    ram: Vec<u8>,
    prom: [u8; 32],
    tx_log: Vec<Vec<u8>>,
    stopped: bool,
}

impl Ne2000 {
    /// Create a stopped controller with the given station (MAC) address.
    pub fn new(mac: [u8; 6]) -> Self {
        let mut prom = [0u8; 32];
        // The PROM stores each MAC byte doubled in word-wide cards; the
        // classic probe reads 32 bytes and takes the even ones.
        for (i, b) in mac.iter().enumerate() {
            prom[2 * i] = *b;
            prom[2 * i + 1] = *b;
        }
        prom[28] = 0x57; // 'W' signature bytes checked by some probes
        prom[29] = 0x57;
        prom[30] = 0x57;
        prom[31] = 0x57;
        Ne2000 {
            mac,
            cr: 0x21, // stopped, page 0
            isr: ISR_RST,
            imr: 0,
            dcr: 0,
            rcr: 0,
            tcr: 0,
            pstart: 0x46,
            pstop: 0x80,
            bnry: 0x46,
            curr: 0x47,
            tpsr: 0x40,
            tbcr: 0,
            rsar: 0,
            rbcr: 0,
            par: mac,
            ram: vec![0; RAM_SIZE],
            prom,
            tx_log: Vec::new(),
            stopped: true,
        }
    }

    /// Station address configured at construction.
    pub fn mac(&self) -> [u8; 6] {
        self.mac
    }

    /// Frames transmitted via `CR.TXP` so far.
    pub fn tx_log(&self) -> &[Vec<u8>] {
        &self.tx_log
    }

    /// Station address programmed into PAR0..5 by the driver.
    pub fn programmed_mac(&self) -> [u8; 6] {
        self.par
    }

    /// Whether the NIC has been started (`CR.STA` with `STP` clear).
    pub fn is_running(&self) -> bool {
        !self.stopped
    }

    /// Deliver a frame into the receive ring and raise `ISR.PRX`.
    ///
    /// Returns `false` (dropping the frame) when the NIC is stopped.
    pub fn inject_frame(&mut self, frame: &[u8]) -> bool {
        if self.stopped {
            return false;
        }
        // 4-byte ring header: status, next page, length lo, length hi.
        let total = frame.len() + 4;
        let pages = total.div_ceil(256).max(1) as u8;
        let mut next = self.curr + pages;
        if next >= self.pstop {
            next = self.pstart + (next - self.pstop);
        }
        let start = (self.curr as usize) * 256;
        let hdr = [0x01u8, next, (total & 0xFF) as u8, (total >> 8) as u8];
        for (i, b) in hdr.iter().chain(frame.iter()).enumerate() {
            let ring_span = (self.pstop as usize - self.pstart as usize) * 256;
            let mut addr = start + i;
            let ring_base = self.pstart as usize * 256;
            if addr >= ring_base + ring_span {
                addr -= ring_span;
            }
            if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
                self.ram[addr - RAM_START] = *b;
            }
        }
        self.curr = next;
        self.isr |= ISR_PRX;
        true
    }

    fn page(&self) -> u8 {
        (self.cr >> 6) & 0x03
    }

    fn remote_read_byte(&mut self) -> u8 {
        let addr = self.rsar as usize;
        let v = if addr < 0x20 {
            self.prom[addr]
        } else if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
            self.ram[addr - RAM_START]
        } else {
            0xFF
        };
        self.rsar = self.rsar.wrapping_add(1);
        if self.rbcr > 0 {
            self.rbcr -= 1;
            if self.rbcr == 0 {
                self.isr |= ISR_RDC;
            }
        }
        v
    }

    fn remote_write_byte(&mut self, v: u8) {
        let addr = self.rsar as usize;
        if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
            self.ram[addr - RAM_START] = v;
        }
        self.rsar = self.rsar.wrapping_add(1);
        if self.rbcr > 0 {
            self.rbcr -= 1;
            if self.rbcr == 0 {
                self.isr |= ISR_RDC;
            }
        }
    }

    /// Advance the remote-DMA byte counter by a whole block's worth,
    /// raising `ISR.RDC` on completion — the batched equivalent of the
    /// per-byte bookkeeping in [`Ne2000::remote_read_byte`].
    fn advance_rbcr(&mut self, bytes: u16) {
        if self.rbcr > 0 {
            if bytes >= self.rbcr {
                self.rbcr = 0;
                self.isr |= ISR_RDC;
            } else {
                self.rbcr -= bytes;
            }
        }
    }

    /// Whether a `bytes`-long remote-DMA burst starting at `RSAR` lies
    /// wholly inside packet RAM (the chunk-copy fast-path precondition;
    /// PROM reads and out-of-RAM addresses take the per-byte loop).
    fn dma_span_in_ram(&self, bytes: usize) -> bool {
        let addr = self.rsar as usize;
        addr >= RAM_START && addr + bytes <= RAM_START + RAM_SIZE
    }

    fn transmit(&mut self) {
        let start = self.tpsr as usize * 256;
        let len = self.tbcr as usize;
        let mut frame = Vec::with_capacity(len);
        for i in 0..len {
            let addr = start + i;
            if (RAM_START..RAM_START + RAM_SIZE).contains(&addr) {
                frame.push(self.ram[addr - RAM_START]);
            } else {
                frame.push(0);
            }
        }
        self.tx_log.push(frame);
        self.isr |= ISR_PTX;
    }
}

impl IoDevice for Ne2000 {
    fn name(&self) -> &str {
        "ne2000"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        match offset {
            0x10 => {
                // Data port: byte or word per DCR word-transfer bit.
                let n = (size.bits() / 8) as usize;
                let mut v = 0u32;
                for i in 0..n {
                    v |= (self.remote_read_byte() as u32) << (8 * i);
                }
                return Ok(v);
            }
            0x1F => {
                self.isr |= ISR_RST;
                self.stopped = true;
                self.cr = 0x21;
                return Ok(0);
            }
            _ => {}
        }
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = match (self.page(), offset) {
            (_, 0) => self.cr,
            (0, 3) => self.bnry,
            (0, 4) => 0x01, // TSR: transmitted OK
            (0, 7) => self.isr,
            (0, 0x0A) => 0, // reserved reads as 0
            (0, 0x0C) => self.rcr,
            (0, 0x0D) => self.tcr,
            (0, 0x0E) => self.dcr,
            (0, 0x0F) => self.imr,
            (1, 1..=6) => self.par[(offset - 1) as usize],
            (1, 7) => self.curr,
            _ => 0,
        };
        Ok(v as u32)
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        if offset == 0x10 {
            let n = (size.bits() / 8) as usize;
            for i in 0..n {
                self.remote_write_byte((value >> (8 * i)) as u8);
            }
            return Ok(());
        }
        if offset == 0x1F {
            return Ok(()); // reset port write: ignored
        }
        if size != AccessSize::Byte {
            return Err(DeviceFault::Width { offset, size });
        }
        let v = value as u8;
        match (self.page(), offset) {
            (_, 0) => {
                self.cr = v;
                if v & 0x01 != 0 {
                    self.stopped = true;
                } else if v & 0x02 != 0 {
                    self.stopped = false;
                    self.isr &= !ISR_RST;
                }
                if v & 0x04 != 0 && !self.stopped {
                    self.transmit();
                }
            }
            (0, 1) => self.pstart = v,
            (0, 2) => self.pstop = v,
            (0, 3) => self.bnry = v,
            (0, 4) => self.tpsr = v,
            (0, 5) => self.tbcr = (self.tbcr & 0xFF00) | v as u16,
            (0, 6) => self.tbcr = (self.tbcr & 0x00FF) | ((v as u16) << 8),
            (0, 7) => self.isr &= !v, // write-1-to-clear
            (0, 8) => self.rsar = (self.rsar & 0xFF00) | v as u16,
            (0, 9) => self.rsar = (self.rsar & 0x00FF) | ((v as u16) << 8),
            (0, 0x0A) => self.rbcr = (self.rbcr & 0xFF00) | v as u16,
            (0, 0x0B) => self.rbcr = (self.rbcr & 0x00FF) | ((v as u16) << 8),
            (0, 0x0C) => self.rcr = v,
            (0, 0x0D) => self.tcr = v,
            (0, 0x0E) => self.dcr = v,
            (0, 0x0F) => self.imr = v,
            (1, 1..=6) => self.par[(offset - 1) as usize] = v,
            (1, 7) => self.curr = v,
            _ => {}
        }
        Ok(())
    }

    /// Bulk data-port reads — the `insb`/`insw` fast path for remote-DMA
    /// streams (ring traffic, PROM dumps). The NE2000 has no timers, so
    /// every data-port block is accepted: word streams wholly inside
    /// packet RAM chunk-copy, everything else replays the per-byte
    /// engine, which is still one dispatch for the whole block.
    fn read_block(&mut self, offset: u16, size: AccessSize, out: &mut [u32]) -> bool {
        if offset != 0x10 {
            return false;
        }
        let n = (size.bits() / 8) as usize;
        let bytes = n * out.len();
        if n == 2 && self.dma_span_in_ram(bytes) {
            let base = self.rsar as usize - RAM_START;
            for (i, v) in out.iter_mut().enumerate() {
                *v = u16::from_le_bytes([self.ram[base + 2 * i], self.ram[base + 2 * i + 1]])
                    as u32;
            }
            self.rsar = self.rsar.wrapping_add(bytes as u16);
            self.advance_rbcr(bytes as u16);
        } else {
            for v in out.iter_mut() {
                let mut w = 0u32;
                for b in 0..n {
                    w |= (self.remote_read_byte() as u32) << (8 * b);
                }
                *v = w;
            }
        }
        true
    }

    /// Bulk data-port writes — the `outsb`/`outsw` fast path for
    /// remote-DMA uploads (TX frames).
    fn write_block(&mut self, offset: u16, size: AccessSize, values: &[u32]) -> bool {
        if offset != 0x10 {
            return false;
        }
        let n = (size.bits() / 8) as usize;
        let bytes = n * values.len();
        if n == 2 && self.dma_span_in_ram(bytes) {
            let base = self.rsar as usize - RAM_START;
            for (i, v) in values.iter().enumerate() {
                let [lo, hi] = (*v as u16).to_le_bytes();
                self.ram[base + 2 * i] = lo;
                self.ram[base + 2 * i + 1] = hi;
            }
            self.rsar = self.rsar.wrapping_add(bytes as u16);
            self.advance_rbcr(bytes as u16);
        } else {
            for v in values {
                for b in 0..n {
                    self.remote_write_byte((*v >> (8 * b)) as u8);
                }
            }
        }
        true
    }

    /// Register reads are plain loads; the data port streams remote DMA
    /// and the reset port resets the chip.
    fn read_is_pure(&self, offset: u16, _size: AccessSize) -> bool {
        offset != 0x10 && offset != 0x1F
    }

    fn quiet_ticks(&self) -> u64 {
        u64::MAX
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u8(self.cr);
        w.u8(self.isr);
        w.u8(self.imr);
        w.u8(self.dcr);
        w.u8(self.rcr);
        w.u8(self.tcr);
        w.u8(self.pstart);
        w.u8(self.pstop);
        w.u8(self.bnry);
        w.u8(self.curr);
        w.u8(self.tpsr);
        w.u16(self.tbcr);
        w.u16(self.rsar);
        w.u16(self.rbcr);
        w.bytes(&self.par);
        w.bytes(&self.ram);
        w.u64(self.tx_log.len() as u64);
        for frame in &self.tx_log {
            w.len_bytes(frame);
        }
        w.bool(self.stopped);
        // mac and prom are construction-time constants: not saved.
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        self.cr = r.u8();
        self.isr = r.u8();
        self.imr = r.u8();
        self.dcr = r.u8();
        self.rcr = r.u8();
        self.tcr = r.u8();
        self.pstart = r.u8();
        self.pstop = r.u8();
        self.bnry = r.u8();
        self.curr = r.u8();
        self.tpsr = r.u8();
        self.tbcr = r.u16();
        self.rsar = r.u16();
        self.rbcr = r.u16();
        r.fill(&mut self.par);
        r.fill(&mut self.ram);
        let frames = r.u64() as usize;
        self.tx_log.truncate(frames);
        for i in 0..frames {
            let len = r.u64() as usize;
            let bytes = r.bytes(len);
            match self.tx_log.get_mut(i) {
                Some(slot) => {
                    slot.clear();
                    slot.extend_from_slice(bytes);
                }
                None => self.tx_log.push(bytes.to_vec()),
            }
        }
        self.stopped = r.bool();
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

    const BASE: u16 = 0x300;
    const MAC: [u8; 6] = [0x00, 0x0E, 0xA5, 0x01, 0x02, 0x03];

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 0x20, Box::new(Ne2000::new(MAC))).unwrap();
        (io, id)
    }

    fn remote_read(io: &mut IoSpace, addr: u16, len: u16) -> Vec<u8> {
        io.outb(BASE + 0x0A, (len & 0xFF) as u8).unwrap();
        io.outb(BASE + 0x0B, (len >> 8) as u8).unwrap();
        io.outb(BASE + 0x08, (addr & 0xFF) as u8).unwrap();
        io.outb(BASE + 0x09, (addr >> 8) as u8).unwrap();
        io.outb(BASE, 0x0A).unwrap(); // remote read + start-ish
        (0..len).map(|_| io.inb(BASE + 0x10).unwrap()).collect()
    }

    #[test]
    fn prom_read_yields_mac() {
        let (mut io, _) = machine();
        let prom = remote_read(&mut io, 0, 12);
        for i in 0..6 {
            assert_eq!(prom[2 * i], MAC[i]);
            assert_eq!(prom[2 * i + 1], MAC[i]);
        }
    }

    #[test]
    fn rdc_interrupt_after_dma_completes() {
        let (mut io, _) = machine();
        let _ = remote_read(&mut io, 0, 4);
        assert_ne!(io.inb(BASE + 7).unwrap() & ISR_RDC, 0);
        // Acknowledge clears it.
        io.outb(BASE + 7, ISR_RDC).unwrap();
        assert_eq!(io.inb(BASE + 7).unwrap() & ISR_RDC, 0);
    }

    #[test]
    fn remote_write_then_read_round_trips() {
        let (mut io, _) = machine();
        io.outb(BASE + 0x0A, 4).unwrap();
        io.outb(BASE + 0x0B, 0).unwrap();
        io.outb(BASE + 0x08, 0x00).unwrap();
        io.outb(BASE + 0x09, 0x40).unwrap(); // RAM start
        io.outb(BASE, 0x12).unwrap(); // remote write
        for b in [1u8, 2, 3, 4] {
            io.outb(BASE + 0x10, b).unwrap();
        }
        assert_eq!(remote_read(&mut io, 0x4000, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn word_wide_data_port_moves_two_bytes() {
        let (mut io, _) = machine();
        io.outb(BASE + 0x0A, 4).unwrap();
        io.outb(BASE + 0x0B, 0).unwrap();
        io.outb(BASE + 0x08, 0x00).unwrap();
        io.outb(BASE + 0x09, 0x40).unwrap();
        io.outb(BASE, 0x12).unwrap();
        io.outw(BASE + 0x10, 0x2211).unwrap();
        io.outw(BASE + 0x10, 0x4433).unwrap();
        assert_eq!(remote_read(&mut io, 0x4000, 4), vec![0x11, 0x22, 0x33, 0x44]);
    }

    /// The bulk data-port hooks must be bit-equivalent to the equivalent
    /// single-access loops — values, counters, `RSAR`/`RBCR` bookkeeping,
    /// the `RDC` interrupt — on both the RAM chunk-copy path and the
    /// per-byte fallback (PROM reads).
    #[test]
    fn block_transfers_match_single_accesses() {
        let setup_dma = |io: &mut IoSpace, addr: u16, len: u16, cmd: u8| {
            io.outb(BASE + 0x0A, (len & 0xFF) as u8).unwrap();
            io.outb(BASE + 0x0B, (len >> 8) as u8).unwrap();
            io.outb(BASE + 0x08, (addr & 0xFF) as u8).unwrap();
            io.outb(BASE + 0x09, (addr >> 8) as u8).unwrap();
            io.outb(BASE, cmd).unwrap();
        };
        let (mut a, _) = machine();
        let (mut b, _) = machine();
        // Word-wide block write into RAM vs single outw loop.
        let pattern: Vec<u32> = (0..40u32).map(|i| (i * 257 + 3) & 0xFFFF).collect();
        setup_dma(&mut a, 0x4000, 80, 0x12);
        setup_dma(&mut b, 0x4000, 80, 0x12);
        a.write_block(BASE + 0x10, AccessSize::Word, &pattern);
        for w in &pattern {
            b.outw(BASE + 0x10, *w as u16).unwrap();
        }
        assert_eq!(a.snapshot(), b.snapshot(), "state diverged after RAM write");
        // Word-wide block read back (chunk-copy path) + RDC raised.
        setup_dma(&mut a, 0x4000, 80, 0x0A);
        setup_dma(&mut b, 0x4000, 80, 0x0A);
        let mut block = [0u32; 40];
        a.read_block(BASE + 0x10, AccessSize::Word, &mut block);
        let singles: Vec<u32> =
            (0..40).map(|_| u32::from(b.inw(BASE + 0x10).unwrap())).collect();
        assert_eq!(&block[..], &singles[..], "RAM read values diverged");
        assert_ne!(a.inb(BASE + 7).unwrap() & ISR_RDC, 0, "RDC after the block DMA");
        assert_ne!(b.inb(BASE + 7).unwrap() & ISR_RDC, 0, "RDC after the single DMA");
        assert_eq!(a.snapshot(), b.snapshot(), "state diverged after RAM read");
        // Byte-wide PROM read: exercises the per-byte fallback inside the
        // accepted block.
        setup_dma(&mut a, 0, 32, 0x0A);
        setup_dma(&mut b, 0, 32, 0x0A);
        let mut prom = [0u32; 32];
        a.read_block(BASE + 0x10, AccessSize::Byte, &mut prom);
        let singles: Vec<u32> =
            (0..32).map(|_| u32::from(b.inb(BASE + 0x10).unwrap())).collect();
        assert_eq!(&prom[..], &singles[..], "PROM read values diverged");
        assert_eq!(prom[0], MAC[0] as u32);
        assert_eq!(a.snapshot(), b.snapshot(), "state diverged after PROM read");
    }

    #[test]
    fn transmit_captures_frame() {
        let (mut io, id) = machine();
        // Write a frame into RAM at the TX page.
        io.outb(BASE + 0x0A, 3).unwrap();
        io.outb(BASE + 0x0B, 0).unwrap();
        io.outb(BASE + 0x08, 0x00).unwrap();
        io.outb(BASE + 0x09, 0x40).unwrap();
        io.outb(BASE, 0x12).unwrap();
        for b in [0xAA, 0xBB, 0xCC] {
            io.outb(BASE + 0x10, b).unwrap();
        }
        io.outb(BASE + 4, 0x40).unwrap(); // TPSR = page 0x40
        io.outb(BASE + 5, 3).unwrap(); // TBCR = 3
        io.outb(BASE + 6, 0).unwrap();
        io.outb(BASE, 0x06).unwrap(); // start + TXP
        let dev = io.device::<Ne2000>(id).unwrap();
        assert_eq!(dev.tx_log(), &[vec![0xAA, 0xBB, 0xCC]]);
        assert_ne!(io.inb(BASE + 7).unwrap() & ISR_PTX, 0);
    }

    #[test]
    fn paged_registers_select_by_cr() {
        let (mut io, _) = machine();
        // Page 1: program PAR.
        io.outb(BASE, 0x61).unwrap(); // page 1, stopped
        for i in 0..6u16 {
            io.outb(BASE + 1 + i, 0x10 + i as u8).unwrap();
        }
        io.outb(BASE, 0x21).unwrap(); // back to page 0
        // Page 0 offset 1 is PSTART, not PAR0.
        io.outb(BASE + 1, 0x46).unwrap();
        io.outb(BASE, 0x61).unwrap();
        assert_eq!(io.inb(BASE + 1).unwrap(), 0x10);
    }

    #[test]
    fn inject_frame_advances_curr_and_raises_prx() {
        let (mut io, id) = machine();
        io.outb(BASE, 0x22).unwrap(); // start
        let before = {
            let d = io.device::<Ne2000>(id).unwrap();
            assert!(d.is_running());
            d.curr
        };
        assert!(io.device_mut::<Ne2000>(id).unwrap().inject_frame(&[0u8; 60]));
        let d = io.device::<Ne2000>(id).unwrap();
        assert_ne!(d.curr, before);
        assert_ne!(io.inb(BASE + 7).unwrap() & ISR_PRX, 0);
    }

    #[test]
    fn stopped_nic_drops_frames() {
        let (_, id) = machine();
        let mut io = IoSpace::new();
        let id2 = io.map(BASE, 0x20, Box::new(Ne2000::new(MAC))).unwrap();
        assert!(!io.device_mut::<Ne2000>(id2).unwrap().inject_frame(&[0u8; 60]));
        let _ = id;
    }

    #[test]
    fn reset_port_sets_rst_and_stops() {
        let (mut io, id) = machine();
        io.outb(BASE, 0x22).unwrap();
        assert!(io.device::<Ne2000>(id).unwrap().is_running());
        io.inb(BASE + 0x1F).unwrap();
        assert!(!io.device::<Ne2000>(id).unwrap().is_running());
        assert_ne!(io.inb(BASE + 7).unwrap() & ISR_RST, 0);
    }
}
