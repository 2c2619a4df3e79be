//! Fuel-tail differential: the bytecode VM's loop fast-forward (see the
//! `devil_minic::vm` module docs) must be invisible. Every mutant that
//! exhausts its fuel is run three ways on the same machine, each from the
//! pristine snapshot:
//!
//! * the VM over the kernel's `MachineHost`, which fast-forwards;
//! * the VM over the same host with its effect marks withheld
//!   (`NoMarks`), which runs every iteration;
//! * the tree-walking interpreter, the oracle.
//!
//! Outcome, detail, console, coverage, fuel left and the post-run machine
//! snapshot must be identical. The skip must fire on the C driver's pure
//! polling loops and never under a fault plan.
//!
//! Release builds cover every fuel-exhausting mutant of both IDE drivers
//! under `ide-boot`, and the same mutants under `ide-boot+faults`; debug
//! builds take a small sample of each driver's, so `cargo test` stays
//! quick.

use devil::drivers::corpus::{build_scenario, find_variant, DriverVariant};
use devil::hwsim::{IoSpace, Snapshot};
use devil::kernel::boot::DEFAULT_FUEL;
use devil::kernel::scenario::{run_compiled, run_compiled_on, run_interp, Scenario};
use devil::kernel::{MachineHost, Outcome, ScenarioMachine, ScenarioReport};
use devil::minic::interp::NoMarks;
use devil::mutagen::c::CMutationModel;
use devil::mutagen::{Campaign, Mutant};

const RELEASE: bool = !cfg!(debug_assertions);

/// Lines of `ide_c.c` holding the polling loops of `ide_read` and
/// `ide_write` — where the debug sample comes from.
const POLLING_LINES: [std::ops::RangeInclusive<u32>; 2] = [101..=104, 112..=115];

/// One built scenario machine and its pristine state.
struct Machine {
    scenario: Box<dyn Scenario + Send>,
    io: IoSpace,
    pristine: Snapshot,
}

impl Machine {
    fn new(name: &str) -> Machine {
        let mut scenario = build_scenario(name).expect("catalog scenario");
        let io = scenario.build();
        let pristine = io.snapshot();
        Machine { scenario, io, pristine }
    }

    /// Rewind, run `f` on the machine, and return its report with the
    /// machine's state afterwards.
    fn run(
        &mut self,
        f: impl FnOnce(&dyn Scenario, &mut IoSpace) -> ScenarioReport,
    ) -> (ScenarioReport, Snapshot) {
        self.io.restore(&self.pristine).expect("pristine snapshot restores");
        let report = f(self.scenario.as_ref(), &mut self.io);
        (report, self.io.snapshot())
    }
}

/// What the three runs of one mutant under one scenario observed.
struct Runs {
    outcome: Outcome,
    skipped: u64,
}

/// Run `m` three ways on `machine` and assert they are indistinguishable.
fn three_ways(machine: &mut Machine, v: &DriverVariant, m: &Mutant) -> Runs {
    let includes: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let program = devil::minic::compile_with_includes(v.file, &m.source, &includes)
        .expect("a fuel-exhausting mutant compiles");
    let compiled = program.to_bytecode();
    let (vm, vm_snap) = machine.run(|s, io| run_compiled(s, &compiled, io, DEFAULT_FUEL));
    let (plain, plain_snap) = machine.run(|s, io| {
        run_compiled_on(s, &compiled, &mut NoMarks(MachineHost::new(io)), DEFAULT_FUEL, None)
    });
    let (oracle, oracle_snap) = machine.run(|s, io| run_interp(s, &program, io, DEFAULT_FUEL));
    let what = format!("{} line {} ({})", v.label, m.line, m.description);
    assert_eq!(plain.fuel_skipped, 0, "{what}: the no-mark host skipped");
    assert_eq!(oracle.fuel_skipped, 0, "{what}: the interpreter skipped");
    for (name, got, snap) in [("fast-forward VM", &vm, &vm_snap), ("no-mark VM", &plain, &plain_snap)] {
        assert_eq!(got.outcome, oracle.outcome, "{what}: {name} outcome");
        assert_eq!(got.detail, oracle.detail, "{what}: {name} detail");
        assert_eq!(got.console, oracle.console, "{what}: {name} console");
        assert!(got.coverage == oracle.coverage, "{what}: {name} coverage");
        assert_eq!(got.fuel_left, oracle.fuel_left, "{what}: {name} fuel left");
        assert!(*snap == oracle_snap, "{what}: {name} leaves a different machine");
    }
    Runs { outcome: vm.outcome, skipped: vm.fuel_skipped }
}

/// The driver's mutants that exhaust their fuel under `ide-boot`, found
/// by classifying every candidate on campaign machines.
fn fuel_exhausting(v: &DriverVariant, candidates: Vec<Mutant>) -> Vec<Mutant> {
    let includes: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let outcomes = Campaign::new(
        || ScenarioMachine::with_scenario(build_scenario("ide-boot").unwrap(), DEFAULT_FUEL),
        |machine: &mut ScenarioMachine<Box<dyn Scenario + Send>>, m: &Mutant| {
            machine.run(v.file, &m.source, &includes, Some(m.line)).0
        },
    )
    .with_threads(2)
    .run(&candidates);
    candidates
        .into_iter()
        .zip(outcomes)
        .filter(|(_, o)| *o == Outcome::InfiniteLoop)
        .map(|(m, _)| m)
        .collect()
}

fn mutants(v: &DriverVariant) -> Vec<Mutant> {
    let texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
    CMutationModel::new(v.source, &texts, v.style).mutants()
}

/// Run every mutant three ways under `ide-boot` and `ide-boot+faults`;
/// returns how many skipped fuel under `ide-boot`.
fn differential(v: &DriverVariant, hung: &[Mutant]) -> usize {
    let runs = Campaign::new(
        || (Machine::new("ide-boot"), Machine::new("ide-boot+faults")),
        |(clean, faulted): &mut (Machine, Machine), m: &Mutant| {
            let c = three_ways(clean, v, m);
            assert_eq!(c.outcome, Outcome::InfiniteLoop, "{} line {}", v.label, m.line);
            let f = three_ways(faulted, v, m);
            assert_eq!(f.skipped, 0, "{} line {}: skipped under a fault plan", v.label, m.line);
            c.skipped > 0
        },
    )
    .with_threads(2)
    .run(hung);
    runs.into_iter().filter(|s| *s).count()
}

#[test]
fn c_ide_polling_loops_fast_forward_invisibly() {
    let v = find_variant("ide-boot", "ide_piix4_c").expect("catalog driver");
    let all = mutants(&v);
    let candidates = if RELEASE {
        all
    } else {
        all.into_iter()
            .filter(|m| POLLING_LINES.iter().any(|r| r.contains(&m.line)))
            .step_by(7)
            .collect()
    };
    let mut hung = fuel_exhausting(&v, candidates);
    if !RELEASE {
        hung.truncate(4);
    }
    assert!(!hung.is_empty(), "no fuel-exhausting mutant to compare");
    let skipped = differential(&v, &hung);
    println!("ide_piix4_c: {skipped} of {} fuel-exhausting mutants fast-forwarded", hung.len());
    if RELEASE {
        assert_eq!(hung.len(), 171, "the C driver's InfiniteLoop count moved");
        assert!(skipped >= 130, "only {skipped} C mutants fast-forwarded");
    } else {
        assert!(skipped > 0, "no sampled polling-loop mutant fast-forwarded");
    }
}

#[test]
fn cdevil_ide_fuel_exhaustion_is_unchanged() {
    let v = find_variant("ide-boot", "ide_piix4_cdevil").expect("catalog driver");
    // Debug builds scan every 31st mutant and compare at most one: each
    // CDevil loop burns all 1.5M fuel on two of the three engines.
    let stride = if RELEASE { 1 } else { 31 };
    let mut hung = fuel_exhausting(&v, mutants(&v).into_iter().step_by(stride).collect());
    if !RELEASE {
        hung.truncate(1);
    }
    let skipped = differential(&v, &hung);
    println!("ide_piix4_cdevil: {skipped} of {} fuel-exhausting mutants fast-forwarded", hung.len());
    if RELEASE {
        assert_eq!(hung.len(), 109, "the CDevil driver's InfiniteLoop count moved");
    }
}
