//! The fuel tail: what a fuel-exhausting mutant costs, and how much fuel
//! terminating mutants actually need.
//!
//! * **fuel_tail** — per-mutant drive cost (snapshot restore + full
//!   `ide-boot` on the bytecode VM) over a fixed sample of the C IDE
//!   driver's fuel-exhausting mutants: every 11th in generation order.
//!   `skip` is the campaign path, which fast-forwards provably periodic
//!   loops (see the `devil_minic::vm` docs); `no_skip` runs the same VM
//!   over the same host with its effect marks withheld
//!   (`devil_minic::interp::NoMarks`), so it burns every fuel point.
//! * **headroom** — the fuel used by every *terminating* mutant (any
//!   outcome but a compile error or fuel exhaustion) of both IDE golden
//!   sets, as max and p99 against `DEFAULT_FUEL`: fuel is a verdict
//!   threshold, not a performance knob, and this is how much room it
//!   leaves.
//!
//! A full (non `--test`) run records both under the `fuel_tail` key of
//! `BENCH_dispatch.json`; the headroom scan classifies all 12 904 mutants
//! and runs only then. Smoke mode times a two-mutant sample.

use criterion::Criterion;
use devil_drivers::corpus::{build_scenario, find_variant, DriverVariant};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{run_compiled_on, Scenario, ScenarioMachine};
use devil_kernel::{MachineHost, Outcome};
use devil_minic::interp::NoMarks;
use devil_minic::{compile_with_prelude, CompiledProgram, Prelude};
use devil_mutagen::c::CMutationModel;
use devil_mutagen::{Campaign, Mutant};

const SCENARIO: &str = "ide-boot";

/// Stride of the fixed sample over the fuel-exhausting C mutants.
const SAMPLE_STRIDE: usize = 11;

type Machine = ScenarioMachine<Box<dyn Scenario + Send>>;

fn machine() -> Machine {
    ScenarioMachine::with_scenario(build_scenario(SCENARIO).expect("catalog scenario"), DEFAULT_FUEL)
}

fn variant(label: &str) -> DriverVariant {
    find_variant(SCENARIO, label).expect("catalog driver")
}

/// Every mutant of `v` that `keep` selects, compiled (through the
/// driver's prelude when it has headers) and run once: its outcome and
/// the fuel its drive used, or `None` for a compile error.
fn fuel_used(
    v: &DriverVariant,
    keep: impl Fn(&Mutant) -> bool,
) -> Vec<(Mutant, Option<(Outcome, u64)>)> {
    let texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
    let mutants: Vec<Mutant> =
        CMutationModel::new(v.source, &texts, v.style).mutants().into_iter().filter(keep).collect();
    let includes: Vec<(&str, &str)> =
        v.headers.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let prelude = Prelude::new(v.file, v.source, &includes);
    let runs = Campaign::new(machine, |m: &mut Machine, mutant: &Mutant| {
        let compiled = compile(v, &prelude, &mutant.source)?;
        let report = m.run_compiled(&compiled);
        Some((report.outcome, DEFAULT_FUEL - report.fuel_left))
    })
    .run(&mutants);
    mutants.into_iter().zip(runs).collect()
}

fn compile(v: &DriverVariant, prelude: &Prelude, source: &str) -> Option<CompiledProgram> {
    if v.headers.is_empty() {
        devil_minic::compile(v.file, source).ok().map(|p| p.to_bytecode())
    } else {
        compile_with_prelude(prelude, source).ok()
    }
}

/// Max and p99 fuel used by the terminating mutants of a scan.
fn headroom(runs: &[(Mutant, Option<(Outcome, u64)>)]) -> (u64, u64, usize) {
    let mut used: Vec<u64> = runs
        .iter()
        .filter_map(|(_, r)| *r)
        .filter(|(o, _)| *o != Outcome::InfiniteLoop)
        .map(|(_, fuel)| fuel)
        .collect();
    used.sort_unstable();
    let p99 = used[(used.len() * 99 / 100).min(used.len() - 1)];
    (*used.last().expect("terminating mutants"), p99, used.len())
}

/// The fixed sample: every `SAMPLE_STRIDE`-th fuel-exhausting mutant.
fn sample(runs: &[(Mutant, Option<(Outcome, u64)>)], test_mode: bool) -> Vec<CompiledProgram> {
    let v = variant("ide_piix4_c");
    let hung = runs
        .iter()
        .filter(|(_, r)| matches!(r, Some((Outcome::InfiniteLoop, _))))
        .step_by(SAMPLE_STRIDE)
        .take(if test_mode { 2 } else { usize::MAX });
    hung.map(|(m, _)| devil_minic::compile(v.file, &m.source).expect("compiles").to_bytecode())
        .collect()
}

/// Headroom figures, filled by the scan in a full run.
#[derive(Default)]
struct Scan {
    c: Option<(u64, u64, usize)>,
    cdevil: Option<(u64, u64, usize)>,
    hung_c: usize,
    sample: usize,
}

fn bench_fuel_tail(c: &mut Criterion, scan: &mut Scan) {
    let test_mode = c.is_test_mode();
    // Smoke mode scans only the `ide_read` polling-loop lines, where hung
    // mutants sit.
    let runs_c = fuel_used(&variant("ide_piix4_c"), |m| !test_mode || (101..=104).contains(&m.line));
    if !test_mode {
        scan.c = Some(headroom(&runs_c));
        scan.cdevil = Some(headroom(&fuel_used(&variant("ide_piix4_cdevil"), |_| true)));
    }
    scan.hung_c = runs_c
        .iter()
        .filter(|(_, r)| matches!(r, Some((Outcome::InfiniteLoop, _))))
        .count();
    let programs = sample(&runs_c, test_mode);
    scan.sample = programs.len();
    assert!(!programs.is_empty(), "no fuel-exhausting mutant to time");

    let mut g = c.benchmark_group("fuel_tail");
    g.sample_size(10);
    let mut m = machine();
    g.bench_function("skip", |b| {
        b.iter(|| {
            for p in &programs {
                let report = m.run_compiled(p);
                assert_eq!(report.outcome, Outcome::InfiniteLoop);
            }
        });
    });
    let mut scenario = build_scenario(SCENARIO).expect("catalog scenario");
    let mut io = scenario.build();
    let pristine = io.snapshot();
    g.bench_function("no_skip", |b| {
        b.iter(|| {
            for p in &programs {
                io.restore(&pristine).expect("pristine snapshot restores");
                let mut host = NoMarks(MachineHost::new(&mut io));
                let report = run_compiled_on(&scenario, p, &mut host, DEFAULT_FUEL, None);
                assert_eq!(report.outcome, Outcome::InfiniteLoop);
                assert_eq!(report.fuel_skipped, 0);
            }
        });
    });
    g.finish();
}

fn emit_json(c: &Criterion, scan: &Scan) {
    if c.is_test_mode() {
        return;
    }
    let rs = c.results();
    let n = scan.sample as f64;
    let skip = criterion::ns_per_iter(rs, "fuel_tail/skip") / n;
    let no_skip = criterion::ns_per_iter(rs, "fuel_tail/no_skip") / n;
    let entries = criterion::results_json(rs);
    let head = |h: Option<(u64, u64, usize)>| {
        let (max, p99, n) = h.expect("full runs scan the golden sets");
        format!(
            "{{\"terminating\": {n}, \"max_fuel_used\": {max}, \"p99_fuel_used\": {p99}, \"max_share_of_default\": {:.4}}}",
            max as f64 / DEFAULT_FUEL as f64
        )
    };
    let section = format!(
        "{{\"workload\": {{\"fuel_tail\": \"per-mutant restore + ide-boot drive on the bytecode VM over a fixed sample of the C IDE driver's fuel-exhausting mutants ({} of {}: every {SAMPLE_STRIDE}th in generation order; results are per sample, not per mutant): loop fast-forward on (skip) vs effect marks withheld (no_skip)\", \"headroom\": \"fuel used by every terminating mutant (outcome not CompileCheck/InfiniteLoop) of the ide-boot golden sets, DEFAULT_FUEL = {DEFAULT_FUEL}\"}}, \"results\": {entries}, \"per_mutant_ns\": {{\"skip\": {skip:.0}, \"no_skip\": {no_skip:.0}}}, \"speedup\": {{\"skip_vs_no_skip\": {:.2}}}, \"headroom\": {{\"ide_piix4_c\": {}, \"ide_piix4_cdevil\": {}}}}}",
        scan.sample,
        scan.hung_c,
        no_skip / skip,
        head(scan.c),
        head(scan.cdevil),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    match criterion::update_json_section(path, "fuel_tail", &section) {
        Err(e) => eprintln!("could not update {path}: {e}"),
        Ok(()) => {
            println!("\nupdated `fuel_tail` in {path}");
            println!("{section}");
        }
    }
}

fn main() {
    let mut c = Criterion::from_args();
    let mut scan = Scan::default();
    bench_fuel_tail(&mut c, &mut scan);
    emit_json(&c, &scan);
}
