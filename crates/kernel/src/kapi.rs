//! The kernel's hardware environment for interpreted drivers.

use devil_hwsim::bus::AccessSize;
use devil_hwsim::{IoBus, IoMark, IoSpace};
use devil_minic::interp::{EffectMark, Host, NoMarks};

/// Elements staged per [`IoSpace::read_block`]/`write_block` call when
/// bridging the engines' `i64` buffers to the bus's `u32` ones — sized so
/// a whole 256-word IDE sector moves in one hop without heap allocation.
const BLOCK_CHUNK: usize = 256;

fn access_size(size: u8) -> AccessSize {
    match size {
        1 => AccessSize::Byte,
        2 => AccessSize::Word,
        _ => AccessSize::Dword,
    }
}

/// A [`Host`] over a simulated machine: what a scenario run needs of the
/// engine's host besides the [`Host`] calls. [`MachineHost`] is the one
/// campaigns use; a wrapper around it (say, one that withholds effect
/// marks, [`NoMarks`], to run the VM without fast-forward) implements
/// this by delegation.
pub trait MachineIo: Host {
    /// The machine's I/O space.
    fn io(&mut self) -> &mut IoSpace;
    /// Move the console output collected so far out.
    fn take_console(&mut self) -> Vec<String>;
}

/// Adapts an [`IoSpace`] to the interpreter's [`Host`] interface.
///
/// Faults from device models (e.g. a word access to a byte register) do not
/// stop the machine — exactly like ISA hardware, the read floats and the
/// write vanishes; the *consequences* surface later as misbehaviour, which
/// is the failure mode the experiments measure.
///
/// Effect marks are the space's own ([`IoSpace::effect_mark`]), with each
/// console line counted as an effect, so the bytecode VM fast-forwards a
/// polling loop exactly when the space allows it.
#[derive(Debug)]
pub struct MachineHost<'m> {
    io: &'m mut IoSpace,
    /// Captured `printk` output, in order.
    pub console: Vec<String>,
}

impl<'m> MachineHost<'m> {
    /// Wrap a machine's I/O space.
    pub fn new(io: &'m mut IoSpace) -> Self {
        MachineHost { io, console: Vec::new() }
    }

    /// The underlying I/O space.
    pub fn io(&mut self) -> &mut IoSpace {
        self.io
    }
}

impl MachineIo for MachineHost<'_> {
    fn io(&mut self) -> &mut IoSpace {
        self.io
    }

    fn take_console(&mut self) -> Vec<String> {
        std::mem::take(&mut self.console)
    }
}

impl<H: MachineIo> MachineIo for NoMarks<H> {
    fn io(&mut self) -> &mut IoSpace {
        self.0.io()
    }

    fn take_console(&mut self) -> Vec<String> {
        self.0.take_console()
    }
}

impl Host for MachineHost<'_> {
    fn io_read(&mut self, port: u16, size: u8) -> i64 {
        match size {
            1 => self.io.inb(port).map(i64::from).unwrap_or(0xFF),
            2 => self.io.inw(port).map(i64::from).unwrap_or(0xFFFF),
            _ => self.io.inl(port).map(i64::from).unwrap_or(0xFFFF_FFFF),
        }
    }

    fn io_write(&mut self, port: u16, size: u8, value: i64) {
        let _ = match size {
            1 => self.io.outb(port, value as u8),
            2 => self.io.outw(port, value as u16),
            _ => self.io.outl(port, value as u32),
        };
    }

    /// Block reads ride [`IoSpace::read_block`], so a whole `insw`
    /// repetition count reaches the device model as one bulk call (the
    /// bus guarantees it is observationally identical to the
    /// single-access loop this method's default would run).
    fn io_read_block(&mut self, port: u16, size: u8, out: &mut [i64]) {
        let size = access_size(size);
        let mut buf = [0u32; BLOCK_CHUNK];
        for chunk in out.chunks_mut(BLOCK_CHUNK) {
            let staged = &mut buf[..chunk.len()];
            self.io.read_block(port, size, staged);
            for (slot, v) in chunk.iter_mut().zip(staged.iter()) {
                *slot = *v as i64;
            }
        }
    }

    /// Block writes ride [`IoSpace::write_block`].
    fn io_write_block(&mut self, port: u16, size: u8, values: &[i64]) {
        let size = access_size(size);
        let mut buf = [0u32; BLOCK_CHUNK];
        for chunk in values.chunks(BLOCK_CHUNK) {
            let staged = &mut buf[..chunk.len()];
            for (slot, v) in staged.iter_mut().zip(chunk.iter()) {
                *slot = *v as u32;
            }
            self.io.write_block(port, size, staged);
        }
    }

    fn console(&mut self, message: &str) {
        self.console.push(message.to_string());
        self.io.note_effect();
    }

    fn effect_mark(&self) -> Option<EffectMark> {
        self.io.effect_mark().map(|m| EffectMark {
            epoch: m.epoch,
            clock: m.clock,
            reads: m.reads,
            writes: m.writes,
            quiet: m.horizon,
        })
    }

    fn fast_forward(&mut self, periods: u64, from: &EffectMark, to: &EffectMark) {
        let io_mark = |m: &EffectMark| IoMark {
            epoch: m.epoch,
            clock: m.clock,
            reads: m.reads,
            writes: m.writes,
            horizon: m.quiet,
        };
        self.io.fast_forward(periods, &io_mark(from), &io_mark(to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_hwsim::bus::ScratchRegisters;

    #[test]
    fn reads_and_writes_route_to_devices() {
        let mut io = IoSpace::new();
        io.map(0x100, 4, Box::new(ScratchRegisters::new(4))).unwrap();
        let mut host = MachineHost::new(&mut io);
        host.io_write(0x100, 1, 0x5A);
        assert_eq!(host.io_read(0x100, 1), 0x5A);
    }

    #[test]
    fn unmapped_reads_float() {
        let mut io = IoSpace::new();
        let mut host = MachineHost::new(&mut io);
        assert_eq!(host.io_read(0x999, 1), 0xFF);
        assert_eq!(host.io_read(0x999, 2), 0xFFFF);
        host.io_write(0x999, 4, 0xDEAD_BEEF); // silently dropped
    }

    #[test]
    fn device_refusals_float_instead_of_stopping() {
        let mut io = IoSpace::new();
        // 2-byte scratch window mapped over 4 ports: offsets 2..4 refuse.
        io.map(0x10, 4, Box::new(ScratchRegisters::new(2))).unwrap();
        let mut host = MachineHost::new(&mut io);
        assert_eq!(host.io_read(0x13, 1), 0xFF);
    }

    #[test]
    fn console_collects_printk() {
        let mut io = IoSpace::new();
        let mut host = MachineHost::new(&mut io);
        host.console("hda: DEVIL SIMULATED DISK");
        assert_eq!(host.console.len(), 1);
    }
}
