//! Intel PIIX4-style IDE (ATA) channel with an attached disk.
//!
//! This is the device under test in the paper's Table 3/4 experiments: the
//! Linux IDE driver (original C and Devil re-engineered) is mutated and then
//! booted against this controller.
//!
//! The model implements the classic ATA command block (`base + 0..=7`,
//! conventionally `0x1F0..=0x1F7`) plus the control block register
//! (`ctrl`, conventionally `0x3F6`, mapped here at offset 8 of a 9-port
//! window for convenience):
//!
//! | offset | read | write |
//! |---|---|---|
//! | 0 | data (16-bit) | data (16-bit) |
//! | 1 | error | features |
//! | 2 | sector count | sector count |
//! | 3 | sector number / LBA 7:0 | idem |
//! | 4 | cylinder low / LBA 15:8 | idem |
//! | 5 | cylinder high / LBA 23:16 | idem |
//! | 6 | drive/head (`1.1.....` fixed bits) | idem |
//! | 7 | status | command |
//! | 8 | alternate status | device control (`SRST`, `nIEN`) |
//!
//! Supported commands: `IDENTIFY` (0xEC), `READ SECTORS` (0x20/0x21),
//! `WRITE SECTORS` (0x30/0x31), `RECALIBRATE` (0x1x),
//! `INITIALIZE DEVICE PARAMETERS` (0x91), `FLUSH CACHE` (0xE7),
//! `SET FEATURES` (0xEF). Anything else aborts with `ERR|ABRT`, as real
//! drives do — which is exactly how command-byte typos become visible to the
//! mutation experiments.
//!
//! Timing: the controller stays `BSY` for a fixed number of bus ticks after
//! each command, so polling loops in the drivers execute a realistic number
//! of iterations. A driver that polls for the wrong status bit will spin
//! forever — the "infinite loop" outcome class of the paper.

use crate::bus::{AccessSize, DeviceFault, IoDevice};
use crate::snap::{StateReader, StateWriter};
use std::any::Any;

/// Bytes per ATA sector.
pub const SECTOR_SIZE: usize = 512;

/// Status register bits.
const ST_ERR: u8 = 0x01;
const ST_DRQ: u8 = 0x08;
const ST_DSC: u8 = 0x10;
const ST_DRDY: u8 = 0x40;
const ST_BSY: u8 = 0x80;

/// Error register bits.
const ER_ABRT: u8 = 0x04;
const ER_IDNF: u8 = 0x10;

/// How many bus ticks a command keeps the drive busy.
const BUSY_TICKS: u64 = 24;

/// Disk geometry in classic cylinder/head/sector terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdeGeometry {
    /// Cylinder count.
    pub cylinders: u16,
    /// Heads per cylinder (1..=16).
    pub heads: u8,
    /// Sectors per track (1-based sector numbering on the wire).
    pub sectors: u8,
}

impl IdeGeometry {
    /// Total addressable sectors.
    pub fn capacity(&self) -> u32 {
        self.cylinders as u32 * self.heads as u32 * self.sectors as u32
    }
}

/// The disk platter: geometry plus byte content, with a write log for the
/// damage analysis done by the simulated fsck.
///
/// The platter also keeps a **dirty-sector journal** — one bit per sector
/// (a 2 MiB disk journals in 512 bytes), set on every sector write since
/// the platter last matched a snapshot — so restoring that same snapshot
/// again copies only the damaged sectors instead of the whole multi-MiB
/// platter. Membership is exact: any write pattern, however repetitive,
/// costs one bit per distinct sector. The journal is validated against
/// the snapshot identity ([`StateReader::snapshot_id`]) — restoring a
/// *different* snapshot, or one of unknown provenance, always falls back
/// to a full copy, so the fast path can never resurrect stale bytes.
#[derive(Debug, Clone)]
pub struct IdeDisk {
    geometry: IdeGeometry,
    data: Vec<u8>,
    writes: Vec<u32>,
    /// Bit per sector: written since the platter last matched
    /// `journal_base` (`dirty[lba / 64] & (1 << (lba % 64))`).
    dirty: Vec<u64>,
    /// Number of set bits in `dirty`.
    dirty_count: u32,
    /// Identity of the snapshot the platter last diverged from (`None`
    /// before any restore, or after restoring an id-less payload).
    journal_base: Option<u64>,
}

impl IdeDisk {
    /// Create a blank (zeroed) disk with the given geometry.
    pub fn new(geometry: IdeGeometry) -> Self {
        let bytes = geometry.capacity() as usize * SECTOR_SIZE;
        IdeDisk {
            geometry,
            data: vec![0; bytes],
            writes: Vec::new(),
            dirty: vec![0; geometry.capacity().div_ceil(64) as usize],
            dirty_count: 0,
            journal_base: None,
        }
    }

    /// A small default disk: 64 cylinders × 4 heads × 16 sectors = 2 MiB.
    pub fn small() -> Self {
        Self::new(IdeGeometry { cylinders: 64, heads: 4, sectors: 16 })
    }

    /// Disk geometry.
    pub fn geometry(&self) -> IdeGeometry {
        self.geometry
    }

    /// Borrow a sector's bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the disk capacity.
    pub fn sector(&self, lba: u32) -> &[u8] {
        let start = lba as usize * SECTOR_SIZE;
        &self.data[start..start + SECTOR_SIZE]
    }

    /// Overwrite a sector's bytes (host-side, not via the wire).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range or `bytes` is not one sector long.
    pub fn write_sector(&mut self, lba: u32, bytes: &[u8]) {
        assert_eq!(bytes.len(), SECTOR_SIZE, "sector payload must be {SECTOR_SIZE} bytes");
        let start = lba as usize * SECTOR_SIZE;
        self.data[start..start + SECTOR_SIZE].copy_from_slice(bytes);
        let mask = 1u64 << (lba % 64);
        let word = &mut self.dirty[lba as usize / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.dirty_count += 1;
        }
    }

    /// Distinct sectors recorded in the dirty journal — what the next
    /// restore of the journal's base snapshot will copy.
    pub fn dirty_sector_count(&self) -> usize {
        self.dirty_count as usize
    }

    /// LBAs written through the ATA wire since the last [`IdeDisk::clear_write_log`].
    pub fn write_log(&self) -> &[u32] {
        &self.writes
    }

    /// Forget recorded wire writes.
    pub fn clear_write_log(&mut self) {
        self.writes.clear();
    }

    fn wire_write(&mut self, lba: u32, buf: &[u8]) {
        self.writes.push(lba);
        self.write_sector(lba, buf);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Busy { then: PendingOp },
    DataIn,  // device -> host (read / identify)
    DataOut, // host -> device (write)
}

impl Phase {
    /// Three-byte wire encoding for snapshots: discriminant + pending-op
    /// code + pending-op payload (zero except `Busy { Fail(bits) }`).
    fn encode(self) -> [u8; 3] {
        match self {
            Phase::Idle => [0, 0, 0],
            Phase::Busy { then } => {
                let [code, payload] = then.encode();
                [1, code, payload]
            }
            Phase::DataIn => [2, 0, 0],
            Phase::DataOut => [3, 0, 0],
        }
    }

    fn decode(bytes: [u8; 3]) -> Self {
        match bytes[0] {
            0 => Phase::Idle,
            1 => Phase::Busy { then: PendingOp::decode([bytes[1], bytes[2]]) },
            2 => Phase::DataIn,
            _ => Phase::DataOut,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingOp {
    StartDataIn,
    StartDataOut,
    Complete,
    Fail(u8),
}

impl PendingOp {
    /// Two-byte wire encoding: code + payload (the `Fail` error bits).
    fn encode(self) -> [u8; 2] {
        match self {
            PendingOp::StartDataIn => [0, 0],
            PendingOp::StartDataOut => [1, 0],
            PendingOp::Complete => [2, 0],
            PendingOp::Fail(bits) => [3, bits],
        }
    }

    fn decode(bytes: [u8; 2]) -> Self {
        match bytes[0] {
            0 => PendingOp::StartDataIn,
            1 => PendingOp::StartDataOut,
            2 => PendingOp::Complete,
            _ => PendingOp::Fail(bytes[1]),
        }
    }
}

/// One IDE channel with a master drive (and, optionally, nothing on the
/// slave position — selecting the missing slave reads status `0x00`, the
/// classic "no drive" signature Linux probes for).
#[derive(Debug)]
pub struct IdeController {
    disk: IdeDisk,
    // Task-file registers.
    feature: u8,
    sector_count: u8,
    sector_number: u8,
    cyl_low: u8,
    cyl_high: u8,
    drive_head: u8,
    status: u8,
    error: u8,
    control: u8,
    phase: Phase,
    busy_left: u64,
    // Data transfer engine.
    buffer: [u8; SECTOR_SIZE],
    buf_pos: usize,
    sectors_left: u32,
    current_lba: u32,
    /// Commands received (for trace assertions in tests).
    commands: Vec<u8>,
}

impl IdeController {
    /// Create a controller over the given disk; the drive powers up ready.
    pub fn new(disk: IdeDisk) -> Self {
        IdeController {
            disk,
            feature: 0,
            sector_count: 1,
            sector_number: 1,
            cyl_low: 0,
            cyl_high: 0,
            drive_head: 0xA0,
            status: ST_DRDY | ST_DSC,
            error: 0,
            control: 0,
            phase: Phase::Idle,
            busy_left: 0,
            buffer: [0; SECTOR_SIZE],
            buf_pos: 0,
            sectors_left: 0,
            current_lba: 0,
            commands: Vec::new(),
        }
    }

    /// Borrow the attached disk.
    pub fn disk(&self) -> &IdeDisk {
        &self.disk
    }

    /// Mutably borrow the attached disk (host-side setup, e.g. mkfs).
    pub fn disk_mut(&mut self) -> &mut IdeDisk {
        &mut self.disk
    }

    /// Command bytes received so far, in order.
    pub fn command_log(&self) -> &[u8] {
        &self.commands
    }

    fn slave_selected(&self) -> bool {
        self.drive_head & 0x10 != 0
    }

    fn lba_mode(&self) -> bool {
        self.drive_head & 0x40 != 0
    }

    /// Resolve the task-file address to an absolute LBA.
    fn resolve_lba(&self) -> Option<u32> {
        let g = self.disk.geometry();
        let lba = if self.lba_mode() {
            ((self.drive_head as u32 & 0x0F) << 24)
                | ((self.cyl_high as u32) << 16)
                | ((self.cyl_low as u32) << 8)
                | self.sector_number as u32
        } else {
            let cyl = ((self.cyl_high as u32) << 8) | self.cyl_low as u32;
            let head = self.drive_head as u32 & 0x0F;
            let sect = self.sector_number as u32;
            if sect == 0 || sect > g.sectors as u32 || head >= g.heads as u32 {
                return None;
            }
            (cyl * g.heads as u32 + head) * g.sectors as u32 + (sect - 1)
        };
        if lba < g.capacity() {
            Some(lba)
        } else {
            None
        }
    }

    fn requested_count(&self) -> u32 {
        if self.sector_count == 0 {
            256
        } else {
            self.sector_count as u32
        }
    }

    fn begin_busy(&mut self, then: PendingOp) {
        self.status = ST_BSY;
        self.phase = Phase::Busy { then };
        self.busy_left = BUSY_TICKS;
    }

    fn fail(&mut self, error_bits: u8) {
        self.error = error_bits;
        self.status = ST_DRDY | ST_ERR;
        self.phase = Phase::Idle;
    }

    fn identify_payload(&self) -> [u8; SECTOR_SIZE] {
        let g = self.disk.geometry();
        let mut words = [0u16; 256];
        words[0] = 0x0040; // fixed drive
        words[1] = g.cylinders;
        words[3] = g.heads as u16;
        words[6] = g.sectors as u16;
        put_ata_string(&mut words[10..20], b"DVL-0001            "); // serial
        put_ata_string(&mut words[23..27], b"1.0     "); // firmware
        put_ata_string(&mut words[27..47], b"DEVIL SIMULATED DISK                    ");
        words[49] = 1 << 9; // LBA supported
        let cap = g.capacity();
        words[60] = (cap & 0xFFFF) as u16;
        words[61] = (cap >> 16) as u16;
        let mut bytes = [0u8; SECTOR_SIZE];
        for (i, w) in words.iter().enumerate() {
            bytes[2 * i] = (*w & 0xFF) as u8;
            bytes[2 * i + 1] = (*w >> 8) as u8;
        }
        bytes
    }

    fn start_command(&mut self, cmd: u8) {
        self.commands.push(cmd);
        if self.slave_selected() {
            // No slave drive: the command vanishes. The master's own state
            // is untouched; status reads float at 0 while the slave is
            // selected (see `read_status`).
            return;
        }
        self.error = 0;
        match cmd {
            0xEC => {
                // IDENTIFY DEVICE
                self.buffer = self.identify_payload();
                self.buf_pos = 0;
                self.sectors_left = 1;
                self.current_lba = u32::MAX; // not a media transfer
                self.begin_busy(PendingOp::StartDataIn);
            }
            0x20 | 0x21 => match self.resolve_lba() {
                Some(lba) => {
                    self.current_lba = lba;
                    self.sectors_left = self.requested_count();
                    if lba + self.sectors_left > self.disk.geometry().capacity() {
                        self.begin_busy(PendingOp::Fail(ER_IDNF));
                    } else {
                        self.buffer.copy_from_slice(self.disk.sector(lba));
                        self.buf_pos = 0;
                        self.begin_busy(PendingOp::StartDataIn);
                    }
                }
                None => self.begin_busy(PendingOp::Fail(ER_IDNF)),
            },
            0x30 | 0x31 => match self.resolve_lba() {
                Some(lba) => {
                    self.current_lba = lba;
                    self.sectors_left = self.requested_count();
                    if lba + self.sectors_left > self.disk.geometry().capacity() {
                        self.begin_busy(PendingOp::Fail(ER_IDNF));
                    } else {
                        self.buf_pos = 0;
                        self.begin_busy(PendingOp::StartDataOut);
                    }
                }
                None => self.begin_busy(PendingOp::Fail(ER_IDNF)),
            },
            0x10..=0x1F => self.begin_busy(PendingOp::Complete), // RECALIBRATE
            0x91 => self.begin_busy(PendingOp::Complete),        // INIT DEV PARAMS
            0xE7 => self.begin_busy(PendingOp::Complete),        // FLUSH CACHE
            0xEF => self.begin_busy(PendingOp::Complete),        // SET FEATURES
            _ => self.fail(ER_ABRT),
        }
    }

    fn finish_busy(&mut self) {
        if let Phase::Busy { then } = self.phase {
            match then {
                PendingOp::StartDataIn => {
                    self.status = ST_DRDY | ST_DSC | ST_DRQ;
                    self.phase = Phase::DataIn;
                }
                PendingOp::StartDataOut => {
                    self.status = ST_DRDY | ST_DSC | ST_DRQ;
                    self.phase = Phase::DataOut;
                }
                PendingOp::Complete => {
                    self.status = ST_DRDY | ST_DSC;
                    self.phase = Phase::Idle;
                }
                PendingOp::Fail(bits) => self.fail(bits),
            }
        }
    }

    fn read_status(&self) -> u8 {
        if self.slave_selected() {
            0
        } else {
            self.status
        }
    }

    fn data_read(&mut self, size: AccessSize) -> u32 {
        if self.phase != Phase::DataIn {
            return size.mask(); // reading with no DRQ floats
        }
        let n = (size.bits() / 8) as usize;
        let mut v = 0u32;
        for i in 0..n {
            v |= (self.buffer[self.buf_pos.min(SECTOR_SIZE - 1)] as u32) << (8 * i);
            self.buf_pos += 1;
            if self.buf_pos >= SECTOR_SIZE {
                self.sector_drained();
                if self.phase != Phase::DataIn {
                    break;
                }
            }
        }
        v
    }

    fn sector_drained(&mut self) {
        self.sectors_left = self.sectors_left.saturating_sub(1);
        self.buf_pos = 0;
        if self.sectors_left == 0 {
            self.status = ST_DRDY | ST_DSC;
            self.phase = Phase::Idle;
        } else {
            self.current_lba += 1;
            let lba = self.current_lba;
            self.buffer.copy_from_slice(self.disk.sector(lba));
        }
    }

    fn data_write(&mut self, size: AccessSize, value: u32) {
        if self.phase != Phase::DataOut {
            return; // writes with no DRQ vanish
        }
        let n = (size.bits() / 8) as usize;
        for i in 0..n {
            self.buffer[self.buf_pos.min(SECTOR_SIZE - 1)] = (value >> (8 * i)) as u8;
            self.buf_pos += 1;
            if self.buf_pos >= SECTOR_SIZE {
                self.sector_filled();
                if self.phase != Phase::DataOut {
                    break;
                }
            }
        }
    }

    /// Commit a completely staged sector to the platter and advance the
    /// transfer — the write-side twin of [`IdeController::sector_drained`].
    fn sector_filled(&mut self) {
        let lba = self.current_lba;
        let buf = self.buffer;
        self.disk.wire_write(lba, &buf);
        self.sectors_left = self.sectors_left.saturating_sub(1);
        self.buf_pos = 0;
        if self.sectors_left == 0 {
            self.status = ST_DRDY | ST_DSC;
            self.phase = Phase::Idle;
        } else {
            self.current_lba += 1;
        }
    }

    /// Restore the platter from a snapshot payload. When the payload
    /// belongs to the same snapshot the dirty journal is relative to, only
    /// the journalled sectors are copied back (restore cost proportional
    /// to the damage the mutant actually did); any identity mismatch or
    /// unknown provenance falls back to the full-platter copy.
    /// Allocation-free either way: the journal is a fixed bitmap.
    fn load_platter(&mut self, r: &mut StateReader<'_>) {
        let platter = r.bytes(self.disk.data.len());
        let id = r.snapshot_id();
        let sparse = id != 0 && self.disk.journal_base == Some(id);
        if sparse {
            if self.disk.dirty_count > 0 {
                for (w, bits) in self.disk.dirty.iter_mut().enumerate() {
                    let mut b = *bits;
                    while b != 0 {
                        let lba = w * 64 + b.trailing_zeros() as usize;
                        let a = lba * SECTOR_SIZE;
                        self.disk.data[a..a + SECTOR_SIZE]
                            .copy_from_slice(&platter[a..a + SECTOR_SIZE]);
                        b &= b - 1;
                    }
                    *bits = 0;
                }
            }
        } else {
            self.disk.data.copy_from_slice(platter);
            self.disk.dirty.fill(0);
        }
        self.disk.dirty_count = 0;
        self.disk.journal_base = (id != 0).then_some(id);
    }

    fn soft_reset(&mut self) {
        self.status = ST_DRDY | ST_DSC;
        self.error = 1; // diagnostic code: device 0 passed
        self.phase = Phase::Idle;
        self.sector_count = 1;
        self.sector_number = 1;
        self.cyl_low = 0;
        self.cyl_high = 0;
        self.drive_head = 0xA0;
    }
}

fn put_ata_string(words: &mut [u16], text: &[u8]) {
    for (i, w) in words.iter_mut().enumerate() {
        let hi = text.get(2 * i).copied().unwrap_or(b' ');
        let lo = text.get(2 * i + 1).copied().unwrap_or(b' ');
        *w = ((hi as u16) << 8) | lo as u16;
    }
}

impl IoDevice for IdeController {
    fn name(&self) -> &str {
        "ide-piix4"
    }

    fn read(&mut self, offset: u16, size: AccessSize) -> Result<u32, DeviceFault> {
        match offset {
            0 => Ok(self.data_read(size)),
            1..=8 if size != AccessSize::Byte => {
                Err(DeviceFault::Width { offset, size })
            }
            1 => Ok(self.error as u32),
            2 => Ok(self.sector_count as u32),
            3 => Ok(self.sector_number as u32),
            4 => Ok(self.cyl_low as u32),
            5 => Ok(self.cyl_high as u32),
            6 => Ok((self.drive_head | 0xA0) as u32),
            7 | 8 => Ok(self.read_status() as u32),
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    fn write(&mut self, offset: u16, size: AccessSize, value: u32) -> Result<(), DeviceFault> {
        match offset {
            0 => {
                self.data_write(size, value);
                Ok(())
            }
            1..=8 if size != AccessSize::Byte => {
                Err(DeviceFault::Width { offset, size })
            }
            1 => {
                self.feature = value as u8;
                Ok(())
            }
            2 => {
                self.sector_count = value as u8;
                Ok(())
            }
            3 => {
                self.sector_number = value as u8;
                Ok(())
            }
            4 => {
                self.cyl_low = value as u8;
                Ok(())
            }
            5 => {
                self.cyl_high = value as u8;
                Ok(())
            }
            6 => {
                // Bits 7 and 5 are fixed to 1 on the wire (mask '1.1.....').
                self.drive_head = value as u8 | 0xA0;
                Ok(())
            }
            7 => {
                if self.status & ST_BSY == 0 || matches!(self.phase, Phase::Idle) {
                    self.start_command(value as u8);
                }
                Ok(())
            }
            8 => {
                let prev = self.control;
                self.control = value as u8;
                // SRST: falling edge completes the reset.
                if prev & 0x04 != 0 && value as u8 & 0x04 == 0 {
                    self.soft_reset();
                } else if value as u8 & 0x04 != 0 {
                    self.status = ST_BSY;
                }
                Ok(())
            }
            _ => Err(DeviceFault::OutOfWindow { offset }),
        }
    }

    /// Bulk word reads from the data register — the `insw` fast path for
    /// sector transfers. Accepts only the in-transfer, word-aligned case
    /// (`DataIn` implies no busy timer is pending, so tick batching is
    /// safe); everything else declines to the single-access loop.
    fn read_block(&mut self, offset: u16, size: AccessSize, out: &mut [u32]) -> bool {
        if offset != 0
            || size != AccessSize::Word
            || self.phase != Phase::DataIn
            || !self.buf_pos.is_multiple_of(2)
        {
            return false;
        }
        let mut i = 0;
        while i < out.len() {
            if self.phase != Phase::DataIn {
                // Transfer complete mid-block: the remaining reads float,
                // exactly as per-access `data_read` calls would.
                for v in &mut out[i..] {
                    *v = AccessSize::Word.mask();
                }
                break;
            }
            let take = ((SECTOR_SIZE - self.buf_pos) / 2).min(out.len() - i);
            for (k, v) in out[i..i + take].iter_mut().enumerate() {
                let p = self.buf_pos + 2 * k;
                *v = u16::from_le_bytes([self.buffer[p], self.buffer[p + 1]]) as u32;
            }
            self.buf_pos += 2 * take;
            i += take;
            if self.buf_pos >= SECTOR_SIZE {
                self.sector_drained();
            }
        }
        true
    }

    /// Bulk word writes to the data register — the `outsw` fast path.
    fn write_block(&mut self, offset: u16, size: AccessSize, values: &[u32]) -> bool {
        if offset != 0
            || size != AccessSize::Word
            || self.phase != Phase::DataOut
            || !self.buf_pos.is_multiple_of(2)
        {
            return false;
        }
        let mut i = 0;
        while i < values.len() {
            if self.phase != Phase::DataOut {
                break; // transfer complete: the remaining writes vanish
            }
            let take = ((SECTOR_SIZE - self.buf_pos) / 2).min(values.len() - i);
            for (k, v) in values[i..i + take].iter().enumerate() {
                let [lo, hi] = (*v as u16).to_le_bytes();
                self.buffer[self.buf_pos + 2 * k] = lo;
                self.buffer[self.buf_pos + 2 * k + 1] = hi;
            }
            self.buf_pos += 2 * take;
            i += take;
            if self.buf_pos >= SECTOR_SIZE {
                self.sector_filled();
            }
        }
        true
    }

    /// Task-file and status reads never change the controller; a data
    /// read does only while it streams a sector out (`DataIn`) — outside
    /// it the bus floats and nothing moves.
    fn read_is_pure(&self, offset: u16, _size: AccessSize) -> bool {
        offset != 0 || self.phase != Phase::DataIn
    }

    /// The busy timer is the only self-initiated change, and it counts
    /// down in the saved state on every tick: no quiet tick while `Busy`,
    /// none ever needed otherwise.
    fn quiet_ticks(&self) -> u64 {
        if matches!(self.phase, Phase::Busy { .. }) {
            0
        } else {
            u64::MAX
        }
    }

    fn tick(&mut self, ticks: u64) {
        if let Phase::Busy { .. } = self.phase {
            if self.busy_left <= ticks {
                self.busy_left = 0;
                self.finish_busy();
            } else {
                self.busy_left -= ticks;
            }
        }
    }

    fn save(&self, w: &mut StateWriter<'_>) {
        w.u8(self.feature);
        w.u8(self.sector_count);
        w.u8(self.sector_number);
        w.u8(self.cyl_low);
        w.u8(self.cyl_high);
        w.u8(self.drive_head);
        w.u8(self.status);
        w.u8(self.error);
        w.u8(self.control);
        w.bytes(&self.phase.encode());
        w.u64(self.busy_left);
        w.bytes(&self.buffer);
        w.u64(self.buf_pos as u64);
        w.u32(self.sectors_left);
        w.u32(self.current_lba);
        w.len_bytes(&self.commands);
        // The platter: geometry is construction-time, only the content and
        // the wire-write log are mutable.
        w.bytes(&self.disk.data);
        w.len_u32s(&self.disk.writes);
    }

    fn load(&mut self, r: &mut StateReader<'_>) {
        self.feature = r.u8();
        self.sector_count = r.u8();
        self.sector_number = r.u8();
        self.cyl_low = r.u8();
        self.cyl_high = r.u8();
        self.drive_head = r.u8();
        self.status = r.u8();
        self.error = r.u8();
        self.control = r.u8();
        self.phase = Phase::decode([r.u8(), r.u8(), r.u8()]);
        self.busy_left = r.u64();
        r.fill(&mut self.buffer);
        self.buf_pos = r.u64() as usize;
        self.sectors_left = r.u32();
        self.current_lba = r.u32();
        r.fill_len_bytes(&mut self.commands);
        self.load_platter(r);
        r.fill_len_u32s(&mut self.disk.writes);
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

    const BASE: u16 = 0x1F0;
    const STATUS: u16 = BASE + 7;
    const CMD: u16 = BASE + 7;

    fn machine() -> (IoSpace, crate::bus::DeviceId) {
        let mut io = IoSpace::new();
        let id = io.map(BASE, 9, Box::new(IdeController::new(IdeDisk::small()))).unwrap();
        (io, id)
    }

    fn wait_ready(io: &mut IoSpace) -> u8 {
        for _ in 0..10_000 {
            let st = io.inb(STATUS).unwrap();
            if st & ST_BSY == 0 {
                return st;
            }
        }
        panic!("drive stayed busy");
    }

    fn select_lba(io: &mut IoSpace, lba: u32, count: u8) {
        io.outb(BASE + 2, count).unwrap();
        io.outb(BASE + 3, (lba & 0xFF) as u8).unwrap();
        io.outb(BASE + 4, ((lba >> 8) & 0xFF) as u8).unwrap();
        io.outb(BASE + 5, ((lba >> 16) & 0xFF) as u8).unwrap();
        io.outb(BASE + 6, 0xE0 | ((lba >> 24) & 0x0F) as u8).unwrap();
    }

    #[test]
    fn powers_up_ready() {
        let (mut io, _) = machine();
        let st = io.inb(STATUS).unwrap();
        assert_ne!(st & ST_DRDY, 0);
        assert_eq!(st & ST_BSY, 0);
    }

    #[test]
    fn identify_returns_geometry_and_model() {
        let (mut io, _) = machine();
        io.outb(BASE + 6, 0xA0).unwrap();
        io.outb(CMD, 0xEC).unwrap();
        let st = wait_ready(&mut io);
        assert_ne!(st & ST_DRQ, 0, "IDENTIFY must raise DRQ");
        let mut words = [0u16; 256];
        for w in words.iter_mut() {
            *w = io.inw(BASE).unwrap();
        }
        assert_eq!(words[1], 64); // cylinders
        assert_eq!(words[3], 4); // heads
        assert_eq!(words[6], 16); // sectors
        let cap = words[60] as u32 | ((words[61] as u32) << 16);
        assert_eq!(cap, 64 * 4 * 16);
        // Model string is space-padded big-endian-in-word ASCII.
        let hi = (words[27] >> 8) as u8;
        let lo = (words[27] & 0xFF) as u8;
        assert_eq!(&[hi, lo], b"DE");
        // DRQ cleared after the full sector was drained.
        assert_eq!(io.inb(STATUS).unwrap() & ST_DRQ, 0);
    }

    #[test]
    fn lba_read_returns_sector_content() {
        let (mut io, id) = machine();
        {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            let mut sect = [0u8; SECTOR_SIZE];
            sect[0] = 0xCA;
            sect[1] = 0xFE;
            sect[511] = 0x77;
            ide.disk_mut().write_sector(5, &sect);
        }
        select_lba(&mut io, 5, 1);
        io.outb(CMD, 0x20).unwrap();
        let st = wait_ready(&mut io);
        assert_ne!(st & ST_DRQ, 0);
        let first = io.inw(BASE).unwrap();
        assert_eq!(first, 0xFECA); // little-endian word
        for _ in 1..255 {
            io.inw(BASE).unwrap();
        }
        let last = io.inw(BASE).unwrap();
        assert_eq!(last >> 8, 0x77);
        assert_eq!(io.inb(STATUS).unwrap() & ST_DRQ, 0);
    }

    #[test]
    fn multi_sector_read_crosses_boundaries() {
        let (mut io, id) = machine();
        {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            let mut s = [1u8; SECTOR_SIZE];
            ide.disk_mut().write_sector(9, &s);
            s = [2u8; SECTOR_SIZE];
            ide.disk_mut().write_sector(10, &s);
        }
        select_lba(&mut io, 9, 2);
        io.outb(CMD, 0x20).unwrap();
        wait_ready(&mut io);
        for _ in 0..256 {
            assert_eq!(io.inw(BASE).unwrap(), 0x0101);
        }
        // Second sector streams without an intervening command.
        for _ in 0..256 {
            assert_eq!(io.inw(BASE).unwrap(), 0x0202);
        }
        assert_eq!(io.inb(STATUS).unwrap() & ST_DRQ, 0);
    }

    /// The bulk data-port hooks must be bit-equivalent to the equivalent
    /// single-access loops — values, machine counters and the complete
    /// device snapshot — including a transfer that completes mid-block.
    #[test]
    fn block_transfers_match_single_accesses() {
        let drive = |io: &mut IoSpace, lba: u32, cmd: u8| {
            select_lba(io, lba, 2);
            io.outb(CMD, cmd).unwrap();
            wait_ready(io);
        };
        // Read path: drain 2 sectors plus 8 overshoot words (floats).
        let (mut a, id_a) = machine();
        let (mut b, id_b) = machine();
        for (io, id) in [(&mut a, id_a), (&mut b, id_b)] {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            let mut s = [3u8; SECTOR_SIZE];
            s[7] = 0x5A;
            ide.disk_mut().write_sector(4, &s);
            ide.disk_mut().write_sector(5, &[4u8; SECTOR_SIZE]);
        }
        drive(&mut a, 4, 0x20);
        drive(&mut b, 4, 0x20);
        let mut block = [0u32; 520];
        a.read_block(BASE, AccessSize::Word, &mut block);
        let singles: Vec<u32> = (0..block.len())
            .map(|_| u32::from(b.inw(BASE).unwrap()))
            .collect();
        assert_eq!(&block[..], &singles[..], "read values diverged");
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.read_count(), b.read_count());
        assert_eq!(a.snapshot(), b.snapshot(), "machine state diverged after reads");
        // Write path: 2 sectors plus overshoot words (vanish).
        drive(&mut a, 4, 0x30);
        drive(&mut b, 4, 0x30);
        let pattern: Vec<u32> = (0..520u32).map(|i| (i * 31 + 7) & 0xFFFF).collect();
        a.write_block(BASE, AccessSize::Word, &pattern);
        for w in &pattern {
            b.outw(BASE, *w as u16).unwrap();
        }
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.write_count(), b.write_count());
        assert_eq!(a.snapshot(), b.snapshot(), "machine state diverged after writes");
    }

    #[test]
    fn write_commits_to_disk_and_logs() {
        let (mut io, id) = machine();
        select_lba(&mut io, 3, 1);
        io.outb(CMD, 0x30).unwrap();
        let st = wait_ready(&mut io);
        assert_ne!(st & ST_DRQ, 0);
        for i in 0..256u32 {
            io.outw(BASE, (i & 0xFFFF) as u16).unwrap();
        }
        assert_eq!(io.inb(STATUS).unwrap() & ST_DRQ, 0);
        let ide = io.device::<IdeController>(id).unwrap();
        assert_eq!(ide.disk().write_log(), &[3]);
        assert_eq!(ide.disk().sector(3)[0], 0);
        assert_eq!(ide.disk().sector(3)[2], 1);
    }

    #[test]
    fn unknown_command_aborts() {
        let (mut io, _) = machine();
        io.outb(CMD, 0xFE).unwrap();
        let st = io.inb(STATUS).unwrap();
        assert_ne!(st & ST_ERR, 0);
        assert_ne!(io.inb(BASE + 1).unwrap() & ER_ABRT as u32 as u8, 0);
    }

    #[test]
    fn out_of_range_lba_fails_idnf() {
        let (mut io, _) = machine();
        select_lba(&mut io, 64 * 4 * 16, 1); // one past capacity
        io.outb(CMD, 0x20).unwrap();
        let st = wait_ready(&mut io);
        assert_ne!(st & ST_ERR, 0);
        assert_ne!(io.inb(BASE + 1).unwrap() & ER_IDNF, 0);
    }

    #[test]
    fn chs_addressing_resolves() {
        let (mut io, id) = machine();
        {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            let s = [0xABu8; SECTOR_SIZE];
            // CHS (1, 2, 5) => ((1*4)+2)*16 + 4 = 100
            ide.disk_mut().write_sector(100, &s);
        }
        io.outb(BASE + 2, 1).unwrap();
        io.outb(BASE + 3, 5).unwrap(); // sector 5 (1-based)
        io.outb(BASE + 4, 1).unwrap(); // cyl low
        io.outb(BASE + 5, 0).unwrap();
        io.outb(BASE + 6, 0xA0 | 2).unwrap(); // head 2, CHS mode
        io.outb(CMD, 0x20).unwrap();
        wait_ready(&mut io);
        assert_eq!(io.inw(BASE).unwrap(), 0xABAB);
    }

    #[test]
    fn chs_sector_zero_is_invalid() {
        let (mut io, _) = machine();
        io.outb(BASE + 3, 0).unwrap();
        io.outb(BASE + 6, 0xA0).unwrap();
        io.outb(CMD, 0x20).unwrap();
        let st = wait_ready(&mut io);
        assert_ne!(st & ST_ERR, 0);
    }

    #[test]
    fn slave_select_reads_zero_status() {
        let (mut io, _) = machine();
        io.outb(BASE + 6, 0xB0).unwrap(); // slave
        assert_eq!(io.inb(STATUS).unwrap(), 0);
        io.outb(CMD, 0xEC).unwrap();
        assert_eq!(io.inb(STATUS).unwrap(), 0);
        io.outb(BASE + 6, 0xA0).unwrap(); // back to master
        assert_ne!(io.inb(STATUS).unwrap() & ST_DRDY, 0);
    }

    #[test]
    fn soft_reset_restores_ready() {
        let (mut io, _) = machine();
        io.outb(CMD, 0xFE).unwrap(); // leave drive in error state
        io.outb(BASE + 8, 0x04).unwrap(); // SRST on
        assert_ne!(io.inb(STATUS).unwrap() & ST_BSY, 0);
        io.outb(BASE + 8, 0x00).unwrap(); // SRST off
        let st = io.inb(STATUS).unwrap();
        assert_ne!(st & ST_DRDY, 0);
        assert_eq!(st & ST_ERR, 0);
        assert_eq!(io.inb(BASE + 1).unwrap(), 1); // diagnostic code
    }

    #[test]
    fn busy_window_is_observable() {
        let (mut io, _) = machine();
        io.outb(CMD, 0xEC).unwrap();
        // Immediately after the command the drive must be BSY at least once.
        let st = io.inb(STATUS).unwrap();
        assert_ne!(st & ST_BSY, 0, "expected a busy window after command issue");
        wait_ready(&mut io);
    }

    #[test]
    fn sector_count_zero_means_256() {
        let (mut io, _) = machine();
        select_lba(&mut io, 0, 0);
        io.outb(CMD, 0x20).unwrap();
        wait_ready(&mut io);
        // 256 sectors * 256 words each stream out.
        for _ in 0..(256 * 256) {
            io.inw(BASE).unwrap();
        }
        assert_eq!(io.inb(STATUS).unwrap() & ST_DRQ, 0);
    }

    #[test]
    fn drive_head_fixed_bits_read_back_set() {
        let (mut io, _) = machine();
        io.outb(BASE + 6, 0x00).unwrap();
        assert_eq!(io.inb(BASE + 6).unwrap() & 0xA0, 0xA0);
    }

    #[test]
    fn word_access_to_byte_register_faults() {
        let (mut io, _) = machine();
        assert!(io.inw(STATUS).is_err());
        assert!(io.outw(BASE + 6, 0xA0A0).is_err());
    }

    /// Write one sector through the wire (DRQ handshake included).
    fn wire_write_sector(io: &mut IoSpace, lba: u32, word: u16) {
        select_lba(io, lba, 1);
        io.outb(CMD, 0x30).unwrap();
        wait_ready(io);
        for _ in 0..256 {
            io.outw(BASE, word).unwrap();
        }
    }

    #[test]
    fn dirty_journal_sparse_restore_matches_snapshot() {
        let (mut io, id) = machine();
        {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            ide.disk_mut().write_sector(7, &[0x11; SECTOR_SIZE]);
        }
        let snap = io.snapshot();
        // First restore is a full copy (journal base unknown) and arms
        // the journal; later restores of the same snapshot are sparse.
        io.restore(&snap).unwrap();
        for round in 0..3 {
            wire_write_sector(&mut io, 7, 0xBEEF);
            wire_write_sector(&mut io, 42, 0xBEEF);
            {
                let ide = io.device::<IdeController>(id).unwrap();
                assert_eq!(ide.disk().sector(42)[0], 0xEF);
                assert_eq!(ide.disk().dirty_sector_count(), 2);
            }
            io.restore(&snap).unwrap();
            let ide = io.device::<IdeController>(id).unwrap();
            assert_eq!(ide.disk().sector(7)[0], 0x11, "round {round}");
            assert_eq!(ide.disk().sector(42)[0], 0x00, "round {round}");
            assert_eq!(ide.disk().dirty_sector_count(), 0);
        }
        assert_eq!(io.snapshot(), snap, "sparse restores leave the machine snapshot-equal");
    }

    #[test]
    fn dirty_journal_rejects_a_different_snapshot() {
        let (mut io, id) = machine();
        let snap_a = io.snapshot();
        io.restore(&snap_a).unwrap(); // arm the journal on A
        wire_write_sector(&mut io, 5, 0x5555);
        let snap_b = io.snapshot(); // captures the dirtied sector 5
        // Restoring A must not trust B's journal state and vice versa:
        // alternate restores and verify full content each time.
        io.restore(&snap_a).unwrap();
        assert_eq!(io.device::<IdeController>(id).unwrap().disk().sector(5)[0], 0);
        io.restore(&snap_b).unwrap();
        assert_eq!(io.device::<IdeController>(id).unwrap().disk().sector(5)[0], 0x55);
        io.restore(&snap_a).unwrap();
        assert_eq!(io.snapshot(), snap_a);
    }

    #[test]
    fn dirty_journal_membership_is_exact_under_repeated_writes() {
        // A runaway loop alternating between two sectors must cost two
        // journal bits, not a slot per write — the bitmap keeps the sparse
        // restore path even for pathological mutants.
        let (mut io, id) = machine();
        let snap = io.snapshot();
        io.restore(&snap).unwrap(); // arm the journal
        for round in 0..2000u32 {
            let ide = io.device_mut::<IdeController>(id).unwrap();
            let fill = [(round & 0xFF) as u8; SECTOR_SIZE];
            ide.disk_mut().write_sector(9, &fill);
            ide.disk_mut().write_sector(40, &fill);
        }
        assert_eq!(
            io.device::<IdeController>(id).unwrap().disk().dirty_sector_count(),
            2,
            "distinct sectors, not writes"
        );
        io.restore(&snap).unwrap();
        assert_eq!(io.snapshot(), snap);
        let ide = io.device::<IdeController>(id).unwrap();
        assert_eq!(ide.disk().sector(9)[0], 0);
        assert_eq!(ide.disk().sector(40)[0], 0);
    }
}
