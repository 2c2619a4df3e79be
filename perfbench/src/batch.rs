//! The batch workloads: the Table 3/4 campaigns through
//! `devil_bench::tables::scenario_campaign*`.

use crate::golden::{expected_table, same_table, sampled_indices};
use crate::replay::{replay, traced_run, Pool, Shot};
use crate::trace::{Layer, Trace, TracedMachine};
use crate::util::{median, ms, outcome_digest, percentile, push_peak_rss, report, RunResult};
use devil_bench::tables::{
    open_campaign_ledger, scenario_campaign, scenario_campaign_ledgered, CampaignOptions,
    OutcomeTable,
};
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::Outcome;
use devil_mutagen::{effective_threads, source_fingerprint, LedgerKey, Mutant};
use devil_rng::XorShift64;
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every batch workload runs the IDE boot.
pub const SCENARIO: &str = "ide-boot";
/// Set-up probes per round. A round runs after each chunk of the
/// per-mutant pass and after each cycle through the workload's samples,
/// so the reported median samples the whole run:
/// the host's speed drifts over seconds, and probes taken in one burst
/// all see the same moment.
const SETUP_ROUND: usize = 8;
/// The per-mutant pass runs in this many chunks.
const PASS_CHUNKS: usize = 4;
/// Sampling seed of the set-up probe. Fixed, so every run's probe
/// classifies the same single mutant whatever the workload seed: the
/// probe times set-up, not the draw.
const PROBE_SEED: u64 = devil_bench::tables::DEFAULT_SEED;
/// Mutants re-run through the tree-walking oracle in a traced run.
const ORACLE_SAMPLE: usize = 24;

/// One batch workload: `samples` seeded samples of `fraction` of the
/// generated mutants, each one campaign through the entry point.
///
/// A run cycles through the samples until its budget is spent, after a
/// warm-up pass that keeps the first campaign's extra cost out of the
/// figure. Campaigns of a second or so let the run end close to its
/// budget and spread every sample over the whole run, while the host's
/// speed drifts by a fifth over seconds.
pub struct Batch {
    pub name: &'static str,
    /// Catalog label of the driver under test.
    pub driver: &'static str,
    /// Sampled fraction of the generated mutants in one campaign.
    pub fraction: f64,
    /// Distinct seeded samples a run cycles through.
    pub samples: usize,
    /// Run through a fresh crash-safe outcome ledger.
    pub ledgered: bool,
}

/// Table 4: the CDevil IDE driver, eight seeded 1/32 samples (8 × 219 =
/// the 1752 mutants of the paper's 25% sample, about a second of
/// campaign each), no ledger.
pub const CDEVIL_BOOT: Batch = Batch {
    name: "cdevil-boot",
    driver: "ide_piix4_cdevil",
    fraction: 1.0 / 32.0,
    samples: 8,
    ledgered: false,
};
/// Table 3 on every mutant: the plain-C IDE driver through a ledger.
pub const C_BOOT: Batch = Batch {
    name: "c-boot",
    driver: "ide_piix4_c",
    fraction: 1.0,
    samples: 1,
    ledgered: true,
};

/// Sampling seed of sample `k` of a run with workload seed `seed`: a
/// SplitMix64 finalizer of both, so neighbouring workload seeds share no
/// sample.
fn sample_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sample: its seed, where its mutants sit in the run's item list,
/// and the table its campaign must return.
struct Sample {
    seed: u64,
    items: Range<usize>,
    table: OutcomeTable,
}

/// The pool of generated mutants, the samples, and the outcomes they
/// must get. `picked` and `expected` run through the samples in order.
struct Inputs {
    pools: [Pool; 1],
    picked: Vec<usize>,
    expected: Vec<Outcome>,
    samples: Vec<Sample>,
}

impl Inputs {
    fn new(b: &Batch, seed: u64) -> Result<Inputs, String> {
        let pool = Pool::fault_free(SCENARIO, b.driver)?;
        let golden = pool.golden()?;
        let (mut picked, mut samples) = (Vec::new(), Vec::new());
        for k in 0..b.samples {
            let seed = sample_seed(seed, k);
            let start = picked.len();
            picked.extend(sampled_indices(pool.mutants.len(), b.fraction, seed));
            samples.push((seed, start..picked.len()));
        }
        let expected = golden.pick(&picked);
        let mut inp = Inputs {
            pools: [pool],
            picked,
            expected,
            samples: Vec::new(),
        };
        inp.samples = samples
            .into_iter()
            .map(|(seed, items)| Sample {
                seed,
                table: expected_table(
                    &inp.mutants()[items.clone()],
                    &inp.expected[items.clone()],
                    inp.pool().mutants.len(),
                ),
                items,
            })
            .collect();
        Ok(inp)
    }

    fn pool(&self) -> &Pool {
        &self.pools[0]
    }

    fn mutants(&self) -> Vec<&Mutant> {
        self.picked
            .iter()
            .map(|&i| &self.pool().mutants[i])
            .collect()
    }

    fn shots(&self) -> Vec<Shot> {
        self.picked
            .iter()
            .map(|&i| Shot {
                pool: 0,
                mutant: Some(i),
            })
            .collect()
    }
}

fn ledger_path(b: &Batch) -> std::path::PathBuf {
    Path::new(crate::OUT_DIR).join(format!("{}.ledger", b.name))
}

fn options(b: &Batch, seed: u64, threads: usize) -> CampaignOptions {
    CampaignOptions {
        fraction: b.fraction,
        seed,
        threads,
        ..Default::default()
    }
}

/// One call of the public campaign entry point, timed end to end
/// (mutant generation, sampling, machine builds, ledger open and every
/// classification).
fn entry_point(
    b: &Batch,
    inp: &Inputs,
    opts: &CampaignOptions,
) -> Result<(OutcomeTable, Option<devil_mutagen::Ledger>, Duration), String> {
    let v = &inp.pool().variant;
    let t = Instant::now();
    let (table, ledger) = if b.ledgered {
        let ledger = open_campaign_ledger(&ledger_path(b), false, v, opts)
            .map_err(|e| format!("cannot open the campaign ledger: {e}"))?;
        (
            scenario_campaign_ledgered(SCENARIO, v, opts, &ledger),
            Some(ledger),
        )
    } else {
        (scenario_campaign(SCENARIO, v, opts), None)
    };
    Ok((table, ledger, t.elapsed()))
}

/// Every mutant of `sample` must have its expected outcome recorded in
/// the ledger of its campaign.
fn check_ledger(
    inp: &Inputs,
    sample: &Sample,
    ledger: &devil_mutagen::Ledger,
) -> Result<(), String> {
    let recorded: HashMap<(u64, u32), u8> = ledger
        .outcomes()
        .into_iter()
        .map(|(k, code, _)| ((k.source, k.dead_line), code))
        .collect();
    let mutants = &inp.mutants()[sample.items.clone()];
    // Mutants that splice to the same source share one key.
    let keys: std::collections::HashSet<(u64, u32)> = mutants
        .iter()
        .map(|m| (source_fingerprint(&m.source), m.line))
        .collect();
    if recorded.len() != keys.len() {
        return Err(format!(
            "ledger holds {} outcomes for {} distinct mutants",
            recorded.len(),
            keys.len()
        ));
    }
    for (m, want) in mutants.iter().zip(&inp.expected[sample.items.clone()]) {
        let got = recorded.get(&(source_fingerprint(&m.source), m.line));
        if got != Some(&want.code()) {
            return Err(format!(
                "ledger outcome of mutant `{}` (line {}) is {got:?}, expected {want:?}",
                m.description, m.line
            ));
        }
    }
    Ok(())
}

fn check_vector(what: &str, got: &[Outcome], inp: &Inputs) -> Result<(), String> {
    if let Some(i) = (0..got.len()).find(|&i| got[i] != inp.expected[i]) {
        let m = &inp.pool().mutants[inp.picked[i]];
        return Err(format!(
            "{what}: mutant #{} `{}` (line {}) classified {:?}, expected {:?}",
            inp.picked[i], m.description, m.line, got[i], inp.expected[i]
        ));
    }
    Ok(())
}

fn failed_in(table: &OutcomeTable) -> u64 {
    [Outcome::EngineError, Outcome::Deadline]
        .iter()
        .filter_map(|o| table.rows.get(o))
        .map(|(_, n)| *n as u64)
        .sum()
}

/// One round of set-up probes: the entry point on a one-mutant sample,
/// so everything but the classification of the rest is timed (the first
/// mutant's compile also fills the include cache).
fn setup_round(
    b: &Batch,
    inp: &Inputs,
    probe: &CampaignOptions,
    setups: &mut Vec<f64>,
    out: &mut RunResult,
) -> Result<(), String> {
    for _ in 0..SETUP_ROUND {
        let (table, _, t) = entry_point(b, inp, probe)?;
        out.gate(table.total_mutants == 1, || {
            format!(
                "set-up probe classified {} mutants, not 1",
                table.total_mutants
            )
        });
        setups.push(t.as_secs_f64());
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(b: &Batch, seed: u64, seconds: u64, out: &mut RunResult) -> Result<(), String> {
    let threads = effective_threads(0);
    let inp = Inputs::new(b, seed)?;
    let n = inp.picked.len();
    let generated = inp.pool().mutants.len();
    let opts = options(b, seed, threads);
    println!(
        "workload {} — batch, {SCENARIO} / {}, {} of {generated} mutants in {} seeded sample(s), seed {seed:#x}, {threads} worker threads{}",
        b.name,
        b.driver,
        n,
        b.samples,
        if b.ledgered { ", fresh outcome ledger" } else { ", no ledger" }
    );
    println!(
        "  expected outcome digest {}",
        outcome_digest(&inp.expected)
    );

    let probe = CampaignOptions {
        fraction: 1.0 / generated as f64,
        seed: PROBE_SEED,
        ..opts.clone()
    };
    let mut setups = Vec::new();

    // First a pass mutant by mutant, in chunks, each followed by a round
    // of set-up probes: the per-mutant outcome gate and per-mutant
    // latency for the report. It is also the warm-up: the first
    // campaign of a process runs up to half again as long as later ones.
    let (mut codes, mut lat) = (Vec::new(), Vec::new());
    let shots = inp.shots();
    for chunk in shots.chunks(n.div_ceil(PASS_CHUNKS)) {
        let pass = replay(&inp.pools, chunk, threads);
        codes.extend(pass.codes());
        lat.extend(pass.times.iter().map(|d| ms(*d)));
        setup_round(b, &inp, &probe, &mut setups, out)?;
    }
    let res = check_vector("per-mutant pass", &codes, &inp);
    out.gate(res.is_ok(), || res.unwrap_err());

    // Campaigns through the entry point, one sample after another, until
    // the budget is spent; a round of set-up probes follows each cycle
    // through the samples. Every sample gets at least one campaign.
    let mut campaigns = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while campaigns.len() < inp.samples.len()
        || started.elapsed() + started.elapsed() / campaigns.len() as u32 <= budget
    {
        let sample = &inp.samples[campaigns.len() % inp.samples.len()];
        let opts = CampaignOptions {
            seed: sample.seed,
            ..opts.clone()
        };
        let (table, ledger, t) = entry_point(b, &inp, &opts)?;
        out.gate(same_table(&table, &sample.table), || {
            format!(
                "outcome table of sample seed {:#x} differs from the recorded one: {:?}",
                sample.seed, table.rows
            )
        });
        if let Some(ledger) = &ledger {
            let res = check_ledger(&inp, sample, ledger);
            out.gate(res.is_ok(), || res.unwrap_err());
        }
        out.attempted += sample.items.len() as u64;
        out.failed += failed_in(&table);
        campaigns.push((sample.items.len() as f64, t.as_secs_f64()));
        if campaigns.len() % inp.samples.len() == 0 {
            setup_round(b, &inp, &probe, &mut setups, out)?;
        }
    }
    push_peak_rss(out);

    // Classification time of a campaign: its wall minus the set-up it
    // shares with the probes.
    let setup_s = median(&setups);
    let classified: f64 = campaigns.iter().map(|&(n, _)| n).sum();
    let classify_s: f64 = campaigns.iter().map(|&(_, w)| w - setup_s).sum();
    let mutants_per_s = classified / classify_s;
    let rates: Vec<f64> = (campaigns.iter())
        .map(|&(n, w)| n / (w - setup_s))
        .collect();
    println!("  campaign rates in run order: {rates:.0?} /s");

    report(
        "setup_s",
        setup_s,
        "s",
        &format!(
            "median of {} set-ups in {} rounds; range {:.4}..{:.4}",
            setups.len(),
            setups.len() / SETUP_ROUND,
            percentile(&setups, 0.0),
            percentile(&setups, 1.0)
        ),
    );
    report(
        "mutants_per_s",
        mutants_per_s,
        "1/s",
        &format!(
            "{classified} mutants in {} campaigns; per campaign {:.1}..{:.1}, median {:.1}",
            rates.len(),
            percentile(&rates, 0.0),
            percentile(&rates, 1.0),
            median(&rates)
        ),
    );
    let note = format!("per-mutant classification in the warm-up pass, n={n}");
    report("latency_p50_ms", percentile(&lat, 0.5), "ms", &note);
    report("latency_p99_ms", percentile(&lat, 0.99), "ms", &note);
    report(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "share",
        "",
    );
    out.push("setup_s", setup_s, "s");
    out.push("mutants_per_s", mutants_per_s, "1/s");
    Ok(())
}

/// The traced run: per-layer metrics, tracing overhead, the oracle
/// sample, and the phase shares beside the ROADMAP probe.
pub fn run_traced(b: &Batch, seed: u64, out: &mut RunResult) -> Result<(), String> {
    let threads = effective_threads(0);
    let inp = Inputs::new(b, seed)?;
    let n = inp.picked.len();
    let pool = inp.pool();
    println!(
        "workload {} — traced, {SCENARIO} / {}, {n} of {} mutants, seed {seed:#x}, {threads} worker threads",
        b.name,
        b.driver,
        pool.mutants.len()
    );

    let ledger = if b.ledgered {
        Some(
            open_campaign_ledger(
                &ledger_path(b),
                false,
                &pool.variant,
                &options(b, seed, threads),
            )
            .map_err(|e| format!("cannot open the campaign ledger: {e}"))?,
        )
    } else {
        None
    };
    let keys: Vec<LedgerKey> = match &ledger {
        None => Vec::new(),
        Some(l) => inp
            .mutants()
            .iter()
            .map(|m| LedgerKey {
                file: pool.variant.file.to_string(),
                source: source_fingerprint(&m.source),
                scenario: SCENARIO.to_string(),
                plan: String::new(),
                plan_seed: 0,
                dead_line: m.line,
                spec_rev: l.spec_rev(),
            })
            .collect(),
    };
    let (untraced, traced) = traced_run(
        b.name,
        seed,
        &inp.pools,
        &inp.shots(),
        threads,
        ledger.as_ref().map(|l| (l, keys.as_slice())),
        out,
    )?;
    let res = check_vector("untraced pass", &untraced.codes(), &inp);
    out.gate(res.is_ok(), || res.unwrap_err());
    oracle(&inp, &traced.trace, seed, out);

    let lat: Vec<f64> = untraced.times.iter().map(|d| ms(*d)).collect();
    let note = format!("per-mutant classification in the untraced pass, n={n}");
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        report(name, percentile(&lat, q), "ms", &note);
        out.push(name, percentile(&lat, q), "ms");
    }
    if let Some(ledger) = &ledger {
        println!("  mutagen.ledger.records {}", ledger.len());
        for layer in [Layer::LedgerLookup, Layer::LedgerRecord] {
            let v = traced.trace.layer_us(layer);
            let name = format!("{}_us", layer.name());
            println!(
                "  {name:<36} p50 {:>8.2} us  p99 {:>8.2} us  (n={})",
                percentile(&v, 0.5),
                percentile(&v, 0.99),
                v.len()
            );
        }
    }
    phase_shares(b, &traced.trace);
    Ok(())
}

/// A seeded sample of the traced mutants, re-run through the
/// tree-walking interpreter — the oracle the bytecode VM is validated
/// against — must get the same outcome and detail.
fn oracle(inp: &Inputs, trace: &Trace, seed: u64, out: &mut RunResult) {
    let pool = inp.pool();
    let includes = pool.includes();
    let mutants = inp.mutants();
    let mut rng = XorShift64::new(seed ^ 0x0AC1_E5A3_F1E5);
    let mut machine = TracedMachine::build(pool.build_scenario(), &includes, DEFAULT_FUEL);
    let checked = ORACLE_SAMPLE.min(mutants.len());
    for _ in 0..checked {
        let i = rng.below(mutants.len() as u64) as usize;
        let m = mutants[i];
        let (o, d) = machine.classify_interp(pool.variant.file, &m.source, &includes, Some(m.line));
        let f = &trace.facts[i];
        out.gate(o == f.outcome && d == f.detail, || {
            format!(
                "oracle disagrees on mutant `{}`: interp {o:?} ({d}), VM {:?} ({})",
                m.description, f.outcome, f.detail
            )
        });
    }
    println!("  oracle: {checked} sampled mutants re-run through the interpreter");
}

/// The traced phase shares beside the figures of the ROADMAP probe.
fn phase_shares(b: &Batch, trace: &Trace) {
    let cdevil = b.driver == CDEVIL_BOOT.driver;
    let probe = |cdevil_figure: &str, c_figure: &str| {
        let f = if cdevil { cdevil_figure } else { c_figure };
        if f.is_empty() {
            String::new()
        } else {
            format!("  [{f}]")
        }
    };
    let front = 100.0 * trace.share(&[Layer::Pp, Layer::Parse, Layer::Check]);
    let lower = 100.0 * trace.share(&[Layer::Lower]);
    let run = 100.0 * trace.share(&[Layer::Restore, Layer::Drive]);
    let tail = 100.0 * trace.fuel_tail_share();
    println!("  phase shares of classification time (ROADMAP probe in brackets):");
    println!(
        "    front end (pp+parse+check) {front:5.1}%{}",
        probe("58%", "")
    );
    println!(
        "    lowering (lower+fuse)      {lower:5.1}%{}",
        probe("12%", "")
    );
    println!(
        "    restore+drive              {run:5.1}%{}",
        probe("28%", "61%")
    );
    println!(
        "    classify, ledger, harness  {:5.1}%",
        100.0 - front - lower - run
    );
    println!(
        "    drive time in InfiniteLoop mutants {tail:5.1}%{}",
        probe("", "75%")
    );
}
