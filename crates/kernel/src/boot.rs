//! The simulated boot sequence and outcome classification (§4.2).
//!
//! A boot drives the interpreted disk driver exactly like the kernel's
//! block layer would:
//!
//! 1. `ide_probe()` — reset/identify the drive; a failure means the kernel
//!    cannot find its root disk and panics (*Halt*).
//! 2. Mount: read the MBR and the DevilFS superblock through
//!    `ide_read(lba, 1)`; invalid structures panic the mount (*Halt*).
//! 3. Integrity: read every file and verify its checksum; mismatches are
//!    *visible damage*.
//! 4. Write test: write a pattern to the log file via `ide_write(lba)` and
//!    read it back; a mismatch is damage.
//! 5. Ground truth: [`crate::fs::fsck`] inspects the platter directly — a
//!    driver that wrote where it should not (the paper lost a partition
//!    table this way) is caught even when the boot "looked" fine.
//!
//! The driver communicates through a global `u16 io_buf[256]` — one sector
//! — mirroring the request buffer of the original driver.
//!
//! Outcomes map onto the paper's cases 1–7: run-time check (a
//! `Devil assertion failed` panic), dead code, boot, crash, infinite loop,
//! halt, damaged boot, plus compile-time check for mutants that never
//! build.
//!
//! Since the scenario engine ([`crate::scenario`]) landed, the boot is
//! simply the first [`Scenario`](crate::scenario::Scenario) —
//! [`IdeBootScenario`] — and everything here is a thin IDE-flavoured
//! wrapper over it: [`boot_ide`] / [`boot_ide_compiled`] run the scenario
//! on a caller-built machine through the bytecode VM, [`boot_ide_interp`]
//! through the tree-walking oracle (pinned observationally identical by
//! `tests/vm_differential.rs`), and [`CampaignMachine`] is the IDE
//! specialisation of the generic
//! [`ScenarioMachine`](crate::scenario::ScenarioMachine).

use crate::fs::{self, FsFile};
use crate::scenario::{self, ScenarioMachine, ScenarioReport};
use crate::scenarios::IdeBootScenario;
use devil_hwsim::devices::{IdeController, IdeDisk};
use devil_hwsim::{DeviceId, IoSpace};
use devil_minic::{CompiledProgram, Program};

// The outcome taxonomy lives in the engine; the historical `boot::` paths
// keep working as re-exports (a boot is just the first scenario).
pub use crate::scenario::{classify_run_error, Detail, Outcome};

/// Everything observed during one boot — the boot-flavoured name of the
/// engine's [`ScenarioReport`].
pub type BootReport = ScenarioReport;

/// Default interpreter fuel for one boot. A clean boot of the C driver
/// uses under 1% of it and one of the CDevil driver about 17%, but
/// terminating *mutants* of the CDevil driver use up to 74% (p99 54%;
/// the `fuel_tail` headroom figures in `BENCH_dispatch.json`): the
/// budget is the infinite-loop verdict's threshold, not a speed knob.
pub const DEFAULT_FUEL: u64 = 1_500_000;

/// Base port of the simulated IDE channel (command block at
/// `0x1F0..=0x1F7`, device control at `0x1F8` — the classic `0x3F6`
/// register mapped contiguously on this machine).
pub const IDE_BASE: u16 = 0x1F0;

/// Build the standard experiment machine: an IDE controller at
/// [`IDE_BASE`] with a DevilFS image of `files` on its disk.
pub fn standard_ide_machine(files: &[FsFile]) -> (IoSpace, DeviceId) {
    let mut disk = IdeDisk::small();
    fs::mkfs(&mut disk, files);
    let mut io = IoSpace::new();
    let id = io
        .map(IDE_BASE, 9, Box::new(IdeController::new(disk)))
        .expect("fresh space has no conflicting mappings");
    (io, id)
}

/// Boot the machine with the given compiled driver, through the bytecode
/// VM (lowering the program on the spot — campaigns that boot one mutant
/// many times should lower once and use [`boot_ide_compiled`]).
///
/// The driver must export `int ide_probe(void)`, `int ide_read(int, int)`,
/// `int ide_write(int)` and a `u16 io_buf[256]` global; both the C and
/// CDevil corpus drivers do.
pub fn boot_ide(
    program: &Program,
    io: &mut IoSpace,
    ide: DeviceId,
    files: &[FsFile],
    fuel: u64,
) -> BootReport {
    boot_ide_compiled(&program.to_bytecode(), io, ide, files, fuel)
}

/// [`boot_ide`] over an already-lowered program — the campaign hot path.
pub fn boot_ide_compiled(
    compiled: &CompiledProgram,
    io: &mut IoSpace,
    ide: DeviceId,
    files: &[FsFile],
    fuel: u64,
) -> BootReport {
    scenario::run_compiled(&IdeBootScenario::attached(files, ide), compiled, io, fuel)
}

/// [`boot_ide`] through the tree-walking interpreter — the differential
/// oracle the VM boot path is validated against. Not used by campaigns.
pub fn boot_ide_interp(
    program: &Program,
    io: &mut IoSpace,
    ide: DeviceId,
    files: &[FsFile],
    fuel: u64,
) -> BootReport {
    scenario::run_interp(&IdeBootScenario::attached(files, ide), program, io, fuel)
}

/// Full mutant pipeline, rebuild-per-mutant flavour: compile, build a
/// fresh machine, boot, and refine `Boot` into `DeadCode` via line
/// coverage. `dead_site` is the line of the mutation.
///
/// Campaigns evaluating many mutants should use [`CampaignMachine`], which
/// builds the machine once and snapshot-restores it per mutant; this
/// function remains as the one-shot path (and as the reference the
/// differential campaign test compares the reset engine against).
pub fn run_mutant(
    file_name: &str,
    source: &str,
    includes: &[(&str, &str)],
    dead_site: Option<u32>,
    files: &[FsFile],
    fuel: u64,
) -> (Outcome, Detail) {
    scenario::run_mutant_in(
        IdeBootScenario::new(files),
        file_name,
        source,
        includes,
        dead_site,
        fuel,
    )
}

/// A reusable boot machine for mutation campaigns: the IDE specialisation
/// of the generic [`ScenarioMachine`], kept under its historical name.
///
/// Builds the standard experiment machine **once** ([`standard_ide_machine`]
/// plus `mkfs`), captures its pristine state as a snapshot, and then
/// evaluates each mutant as *compile → restore → boot → classify* — the
/// compile goes through the machine's stub-header prelude, and the
/// per-mutant reset is a journal-assisted memcpy instead of a machine
/// reconstruction. Use one `CampaignMachine` per worker thread, e.g. as
/// the workspace of a `devil_mutagen::Campaign`:
///
/// ```ignore
/// let files = fs::standard_files();
/// let outcomes = Campaign::new(
///     || CampaignMachine::new(&files, DEFAULT_FUEL),
///     |machine, mutant| machine.run(file, &mutant.source, &[], Some(mutant.line)).0,
/// )
/// .run(&mutants);
/// ```
pub type CampaignMachine = ScenarioMachine<IdeBootScenario<'static>>;

impl CampaignMachine {
    /// Build the standard IDE machine with a DevilFS image of `files` and
    /// capture its pristine snapshot.
    pub fn new(files: &[FsFile], fuel: u64) -> Self {
        ScenarioMachine::with_scenario(IdeBootScenario::new(files.to_vec()), fuel)
    }

    /// The boot image the machine was built with.
    pub fn files(&self) -> &[FsFile] {
        self.scenario().files()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devil_minic::interp::RunError;

    /// A deliberately small but correct PIO driver used to validate the
    /// harness itself; the experiment corpus lives in `devil-drivers`.
    const MINI_DRIVER: &str = r#"
typedef unsigned char u8;
typedef unsigned short u16;

#define IDE_BASE    0x1F0
#define IDE_DATA    0x1F0
#define IDE_NSECT   0x1F2
#define IDE_LBA0    0x1F3
#define IDE_LBA1    0x1F4
#define IDE_LBA2    0x1F5
#define IDE_SELECT  0x1F6
#define IDE_STATUS  0x1F7
#define IDE_CMD     0x1F7

#define STAT_ERR  0x01
#define STAT_DRQ  0x08
#define STAT_RDY  0x40
#define STAT_BUSY 0x80

#define CMD_READ     0x20
#define CMD_WRITE    0x30
#define CMD_IDENTIFY 0xec

unsigned short io_buf[256];

static int wait_ready(void)
{
    int t;
    for (t = 0; t < 20000; t++) {
        u8 s = inb(IDE_STATUS);
        if ((s & STAT_BUSY) == 0) return s;
    }
    return -1;
}

static void select_lba(int lba, int count)
{
    outb(count, IDE_NSECT);
    outb(lba & 0xff, IDE_LBA0);
    outb((lba >> 8) & 0xff, IDE_LBA1);
    outb((lba >> 16) & 0xff, IDE_LBA2);
    outb(0xe0 | ((lba >> 24) & 0x0f), IDE_SELECT);
}

int ide_probe(void)
{
    int s;
    outb(0xe0, IDE_SELECT);
    outb(CMD_IDENTIFY, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR) || !(s & STAT_DRQ)) {
        printk("hda: no drive found");
        return -1;
    }
    insw(IDE_DATA, io_buf, 256);
    printk("hda: drive identified, %d sectors", io_buf[60] | (io_buf[61] << 16));
    return io_buf[60] | (io_buf[61] << 16);
}

int ide_read(int lba, int count)
{
    int s;
    select_lba(lba, count);
    outb(CMD_READ, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR)) return -1;
    if (!(s & STAT_DRQ)) return -1;
    insw(IDE_DATA, io_buf, 256);
    return 0;
}

int ide_write(int lba)
{
    int s;
    select_lba(lba, 1);
    outb(CMD_WRITE, IDE_CMD);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR) || !(s & STAT_DRQ)) return -1;
    outsw(IDE_DATA, io_buf, 256);
    s = wait_ready();
    if (s < 0 || (s & STAT_ERR)) return -1;
    return 0;
}
"#;

    fn compiled() -> Program {
        devil_minic::compile("mini.c", MINI_DRIVER).expect("mini driver compiles")
    }

    #[test]
    fn clean_driver_boots() {
        let files = fs::standard_files();
        let (mut io, ide) = standard_ide_machine(&files);
        let program = compiled();
        let report = boot_ide(&program, &mut io, ide, &files, DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::Boot, "{}", report.detail);
        assert!(report.console.iter().any(|l| l.contains("drive identified")));
        assert!(!report.coverage.is_empty());
    }

    #[test]
    fn missing_disk_halts() {
        let files = fs::standard_files();
        // A machine with no IDE controller at all: reads float.
        let mut io = IoSpace::new();
        let id = {
            // Map the controller elsewhere so the probe misses it.
            let mut disk = IdeDisk::small();
            fs::mkfs(&mut disk, &files);
            io.map(0x9000, 9, Box::new(IdeController::new(disk))).unwrap()
        };
        let program = compiled();
        let report = boot_ide(&program, &mut io, id, &files, DEFAULT_FUEL);
        // Floating status reads look permanently busy -> probe timeout.
        assert_eq!(report.outcome, Outcome::Halt, "{}", report.detail);
        assert!(report.detail.contains("unable to mount root"), "{}", report.detail);
    }

    #[test]
    fn wrong_command_byte_is_detected_as_damage_or_halt() {
        // Mutate CMD_READ 0x20 -> 0x21 is still valid; use 0x2f (aborted).
        let bad = MINI_DRIVER.replace("#define CMD_READ     0x20", "#define CMD_READ     0x2f");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let files = fs::standard_files();
        let (mut io, ide) = standard_ide_machine(&files);
        let report = boot_ide(&program, &mut io, ide, &files, DEFAULT_FUEL);
        // The drive aborts the unknown command; the driver sees ERR and
        // returns an I/O error -> mount fails -> halt.
        assert_eq!(report.outcome, Outcome::Halt, "{}", report.detail);
    }

    #[test]
    fn unbounded_poll_on_wrong_bit_hangs() {
        // Replace the bounded wait with an unbounded wrong-polarity poll.
        let bad = MINI_DRIVER.replace(
            "if ((s & STAT_BUSY) == 0) return s;",
            "if ((s & STAT_BUSY) == STAT_BUSY) return s;",
        );
        // Status is BUSY right after the command, so this returns during
        // the busy window, sees no DRQ... make it truly hang instead:
        let bad = bad.replace("for (t = 0; t < 20000; t++) {", "for (t = 0; t >= 0; t++) {");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let files = fs::standard_files();
        let (mut io, ide) = standard_ide_machine(&files);
        let report = boot_ide(&program, &mut io, ide, &files, 200_000);
        assert!(
            matches!(report.outcome, Outcome::InfiniteLoop | Outcome::Halt),
            "{:?}: {}",
            report.outcome,
            report.detail
        );
    }

    #[test]
    fn wild_write_damages_the_disk() {
        // Write the log pattern to the WRONG sector (clobbers a file).
        let bad = MINI_DRIVER.replace(
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(lba, 1);",
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(3, 1);",
        );
        assert_ne!(bad, MINI_DRIVER, "replacement must hit");
        let program = devil_minic::compile("mini.c", &bad).unwrap();
        let files = fs::standard_files();
        let (mut io, ide) = standard_ide_machine(&files);
        let report = boot_ide(&program, &mut io, ide, &files, DEFAULT_FUEL);
        assert_eq!(report.outcome, Outcome::DamagedBoot, "{}", report.detail);
    }

    #[test]
    fn run_mutant_classifies_compile_errors() {
        let (outcome, _) = run_mutant(
            "mini.c",
            "int ide_probe(void) { return undeclared; }",
            &[],
            None,
            &fs::standard_files(),
            DEFAULT_FUEL,
        );
        assert_eq!(outcome, Outcome::CompileCheck);
    }

    #[test]
    fn run_mutant_full_pipeline_boots() {
        let (outcome, detail) = run_mutant(
            "mini.c",
            MINI_DRIVER,
            &[],
            None,
            &fs::standard_files(),
            DEFAULT_FUEL,
        );
        assert_eq!(outcome, Outcome::Boot, "{detail}");
    }

    #[test]
    fn dead_code_detected_by_coverage() {
        // Add a never-executed branch and point the site at it.
        let with_dead = MINI_DRIVER.replace(
            "int ide_probe(void)\n{",
            "static int never_used(void)\n{\n    return inb(0x9999);\n}\nint ide_probe(void)\n{",
        );
        let line_of_dead = with_dead
            .lines()
            .position(|l| l.contains("0x9999"))
            .unwrap() as u32
            + 1;
        let (outcome, _) = run_mutant(
            "mini.c",
            &with_dead,
            &[],
            Some(line_of_dead),
            &fs::standard_files(),
            DEFAULT_FUEL,
        );
        assert_eq!(outcome, Outcome::DeadCode);
    }

    #[test]
    fn campaign_machine_matches_rebuild_per_mutant() {
        let files = fs::standard_files();
        let mut machine = CampaignMachine::new(&files, DEFAULT_FUEL);
        // A clean run, a damaging run, then a clean run again — the reset
        // must erase the damage the middle mutant did to the disk.
        let wild = MINI_DRIVER.replace(
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(lba, 1);",
            "int ide_write(int lba)\n{\n    int s;\n    select_lba(3, 1);",
        );
        let broken = "int ide_probe(void) { return undeclared; }";
        for source in [MINI_DRIVER, &wild, MINI_DRIVER, broken, MINI_DRIVER] {
            let fresh = run_mutant("mini.c", source, &[], None, &files, DEFAULT_FUEL);
            let reset = machine.run("mini.c", source, &[], None);
            assert_eq!(fresh, reset, "reset and rebuild paths must agree");
        }
    }

    #[test]
    fn campaign_machine_refines_dead_code() {
        let with_dead = MINI_DRIVER.replace(
            "int ide_probe(void)\n{",
            "static int never_used(void)\n{\n    return inb(0x9999);\n}\nint ide_probe(void)\n{",
        );
        let line_of_dead = with_dead
            .lines()
            .position(|l| l.contains("0x9999"))
            .unwrap() as u32
            + 1;
        let files = fs::standard_files();
        let mut machine = CampaignMachine::new(&files, DEFAULT_FUEL);
        let (outcome, _) = machine.run("mini.c", &with_dead, &[], Some(line_of_dead));
        assert_eq!(outcome, Outcome::DeadCode);
    }

    #[test]
    fn outcome_display_and_order() {
        assert_eq!(Outcome::table_order().len(), 10);
        assert_eq!(Outcome::RuntimeCheck.to_string(), "Run-time check");
        assert_eq!(Outcome::EngineError.to_string(), "Engine error");
        assert_eq!(Outcome::Deadline.to_string(), "Deadline");
        assert!(Outcome::CompileCheck.is_detected());
        assert!(Outcome::RuntimeCheck.is_detected());
        assert!(!Outcome::Boot.is_detected());
        assert!(!Outcome::EngineError.is_detected());
        assert!(!Outcome::Deadline.is_detected());
    }

    #[test]
    fn outcome_table_order_is_complete_and_unique() {
        // Completeness gate: adding an `Outcome` variant without teaching
        // `table_order` about it fails this match (and therefore the
        // build), not just the table rendering.
        fn index_of(o: Outcome) -> usize {
            match o {
                Outcome::CompileCheck => 0,
                Outcome::RuntimeCheck => 1,
                Outcome::Crash => 2,
                Outcome::InfiniteLoop => 3,
                Outcome::Halt => 4,
                Outcome::DamagedBoot => 5,
                Outcome::Boot => 6,
                Outcome::DeadCode => 7,
                Outcome::EngineError => 8,
                Outcome::Deadline => 9,
            }
        }
        let mut seen = [0usize; 10];
        for o in Outcome::table_order() {
            seen[index_of(o)] += 1;
        }
        assert_eq!(seen, [1; 10], "every variant exactly once in table_order");
    }

    #[test]
    fn devil_assertion_panic_classifies_as_runtime_check() {
        let e = RunError::Panic {
            message: "Devil assertion failed in file drv.c line 12".into(),
            file: "drv.c".into(),
            line: 12,
        };
        assert_eq!(classify_run_error(&e).0, Outcome::RuntimeCheck);
        let e = RunError::Panic { message: "hd: controller stuck".into(), file: "d".into(), line: 1 };
        assert_eq!(classify_run_error(&e).0, Outcome::Halt);
    }

    #[test]
    fn fixed_verdicts_borrow_their_detail_strings() {
        // The common classifications must not allocate a detail per
        // mutant: a clean boot, a dead-code refinement and a fuel
        // exhaustion all return borrowed strings.
        let files = fs::standard_files();
        let (_, detail) = run_mutant("mini.c", MINI_DRIVER, &[], None, &files, DEFAULT_FUEL);
        assert!(matches!(detail, Detail::Borrowed(_)), "clean boot detail is borrowed");
        let (o, detail) = classify_run_error(&RunError::OutOfFuel);
        assert_eq!(o, Outcome::InfiniteLoop);
        assert!(matches!(detail, Detail::Borrowed(_)), "fuel detail is borrowed");
    }
}
