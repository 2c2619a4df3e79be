//! What every workload shares: pools of generated mutants, and the
//! untraced and traced classification of a list of (pool, mutant) items.
//!
//! A batch workload is one pool and a sample of its mutants; the service
//! workload replays every distinct input it submitted across its mix's
//! pools. Both replays run on the campaign engine at `threads` workers,
//! each worker building one machine per pool the first time it meets it.

use crate::golden::{stem, Golden};
use crate::trace::{layer_metrics, Recorder, Sink, Trace, TracedMachine};
use crate::util::{median, ms, outcome_digest, report, RunResult};
use devil_drivers::corpus::{build_faulted, build_scenario, find_variant, DriverVariant};
use devil_hwsim::FaultPlan;
use devil_kernel::boot::DEFAULT_FUEL;
use devil_kernel::scenario::{Scenario, ScenarioMachine};
use devil_kernel::Outcome;
use devil_mutagen::c::CMutationModel;
use devil_mutagen::{sample, Campaign, Ledger, LedgerKey, Mutant};
use devil_serve::MixEntry;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One workload's driver under one scenario and fault plan, with its
/// full generated mutant set.
pub struct Pool {
    pub entry: MixEntry,
    pub variant: DriverVariant,
    pub mutants: Vec<Mutant>,
}

impl Pool {
    pub fn new(entry: MixEntry) -> Result<Pool, String> {
        let variant = find_variant(&entry.scenario, &entry.driver).ok_or_else(|| {
            format!(
                "catalog has no `{}` driver for {}",
                entry.driver, entry.scenario
            )
        })?;
        let mutants = generate(&variant);
        Ok(Pool {
            entry,
            variant,
            mutants,
        })
    }

    /// `driver` under `scenario` on fault-free hardware.
    pub fn fault_free(scenario: &str, driver: &str) -> Result<Pool, String> {
        Pool::new(MixEntry {
            scenario: scenario.to_string(),
            plan: String::new(),
            plan_seed: 0,
            driver: driver.to_string(),
            mutant_fraction: 1.0,
            weight: 1,
        })
    }

    /// Source and dead-code line of a mutant, or of the clean driver.
    pub fn source(&self, mutant: Option<usize>) -> (&str, Option<u32>) {
        match mutant {
            None => (self.variant.source, None),
            Some(i) => (&self.mutants[i].source, Some(self.mutants[i].line)),
        }
    }

    pub fn includes(&self) -> Vec<(&str, &str)> {
        self.variant
            .headers
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect()
    }

    /// The workload name the mix spells: the scenario, with `+faults`
    /// when a fault plan is named (the mix grammar only names the
    /// default one).
    pub fn workload(&self) -> String {
        if self.entry.plan.is_empty() {
            self.entry.scenario.clone()
        } else {
            format!("{}+faults", self.entry.scenario)
        }
    }

    pub fn stem(&self) -> String {
        stem(&self.workload(), &self.entry.driver)
    }

    /// The recorded outcome of every mutant in the pool.
    pub fn golden(&self) -> Result<Golden, String> {
        let g = Golden::load(&self.stem())?;
        g.matches(&self.mutants)?;
        Ok(g)
    }

    pub fn build_scenario(&self) -> Box<dyn Scenario + Send> {
        let built = if self.entry.plan.is_empty() {
            build_scenario(&self.entry.scenario)
        } else {
            let plan = FaultPlan::named(&self.entry.plan, self.entry.plan_seed)
                .expect("mix plans are bundled");
            build_faulted(&self.entry.scenario, plan)
        };
        built.expect("pool scenarios are in the catalog")
    }
}

pub fn generate(v: &DriverVariant) -> Vec<Mutant> {
    let texts: Vec<&str> = v.headers.iter().map(|(_, t)| t.as_str()).collect();
    CMutationModel::new(v.source, &texts, v.style).mutants()
}

/// One input: a mutant of a pool, or (`None`) its clean driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shot {
    pub pool: usize,
    pub mutant: Option<usize>,
}

/// An untraced replay: outcome and detail per item, classification time
/// per item, and the wall time of the whole campaign.
pub struct Replay {
    pub outcomes: Vec<(Outcome, String)>,
    pub times: Vec<Duration>,
    pub wall: Duration,
}

impl Replay {
    pub fn codes(&self) -> Vec<Outcome> {
        self.outcomes.iter().map(|(o, _)| *o).collect()
    }
}

/// Classify `shots` with `ScenarioMachine::run`, the call the campaign
/// entry points and the service make per mutant.
pub fn replay(pools: &[Pool], shots: &[Shot], threads: usize) -> Replay {
    let t = Instant::now();
    type Machines = Vec<Option<ScenarioMachine<Box<dyn Scenario + Send>>>>;
    let out: Vec<((Outcome, String), Duration)> = Campaign::new(
        || -> Machines { (0..pools.len()).map(|_| None).collect() },
        |machines: &mut Machines, shot: &Shot| {
            let pool = &pools[shot.pool];
            let machine = machines[shot.pool].get_or_insert_with(|| {
                ScenarioMachine::with_scenario(pool.build_scenario(), DEFAULT_FUEL)
            });
            let (source, dead) = pool.source(shot.mutant);
            let includes = pool.includes();
            let t = Instant::now();
            let (o, d) = machine.run(pool.variant.file, source, &includes, dead);
            ((o, d.into_owned()), t.elapsed())
        },
    )
    .with_threads(threads)
    .run(shots);
    let wall = t.elapsed();
    let (outcomes, times) = out.into_iter().unzip();
    Replay {
        outcomes,
        times,
        wall,
    }
}

/// A traced replay: outcomes, spans, and each machine's build time.
pub struct Traced {
    pub outcomes: Vec<(Outcome, String)>,
    pub trace: Trace,
    pub builds_ms: Vec<f64>,
    pub wall: Duration,
}

/// Classify `shots` through `TracedMachine`: the layers of
/// `ScenarioMachine::run` called one by one, a span around each call.
/// With a ledger, item `i` is looked up and recorded under `keys[i]`.
pub fn replay_traced(
    pools: &[Pool],
    shots: &[Shot],
    threads: usize,
    ledger: Option<(&Ledger, &[LedgerKey])>,
) -> Traced {
    let sink = Arc::new(Sink::default());
    let builds = Mutex::new(Vec::new());
    let next_worker = AtomicU32::new(0);
    let epoch = Instant::now();
    let items: Vec<u32> = (0..shots.len() as u32).collect();
    let t = Instant::now();
    let outcomes: Vec<(Outcome, String)> = Campaign::new(
        || {
            let worker = next_worker.fetch_add(1, Ordering::Relaxed);
            let machines: Vec<Option<TracedMachine>> = (0..pools.len()).map(|_| None).collect();
            (machines, Recorder::new(epoch, worker, sink.clone()))
        },
        |(machines, rec): &mut (Vec<Option<TracedMachine>>, Recorder), &i: &u32| {
            let shot = shots[i as usize];
            let pool = &pools[shot.pool];
            let machine = machines[shot.pool].get_or_insert_with(|| {
                let t = Instant::now();
                let machine =
                    TracedMachine::build(pool.build_scenario(), &pool.includes(), DEFAULT_FUEL);
                builds.lock().expect("build times").push(ms(t.elapsed()));
                machine
            });
            let (source, dead) = pool.source(shot.mutant);
            let ledger = ledger.map(|(l, keys)| (l, &keys[i as usize]));
            let (o, d) = machine.classify(rec, i, pool.variant.file, source, dead, ledger);
            (o, d.into_owned())
        },
    )
    .with_threads(threads)
    .run(&items);
    let wall = t.elapsed();
    Traced {
        outcomes,
        trace: Trace::collect(&sink, threads, shots.len()),
        builds_ms: builds.into_inner().expect("build times"),
        wall,
    }
}

/// The traced run every workload makes: an untraced replay, the traced
/// one, and the untraced one again; all three must agree item for item.
/// The first pass of a process runs measurably slower than later ones,
/// so the tracing overhead is taken against the mean of the two untraced
/// passes that bracket the traced one. Prints the
/// tracing overhead and the set-up and per-layer metrics, pushes the
/// latter into `out`, and writes the spans to `.bench_out/`.
pub fn traced_run(
    name: &str,
    seed: u64,
    pools: &[Pool],
    shots: &[Shot],
    threads: usize,
    ledger: Option<(&Ledger, &[LedgerKey])>,
    out: &mut RunResult,
) -> Result<(Replay, Traced), String> {
    let mut generate_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for p in pools {
            sample(generate(&p.variant), p.entry.mutant_fraction, seed);
        }
        generate_ms.push(ms(t.elapsed()));
    }

    let untraced = replay(pools, shots, threads);
    let traced = replay_traced(pools, shots, threads, ledger);
    let again = replay(pools, shots, threads);
    for (what, other) in [
        ("traced", &traced.outcomes),
        ("second untraced", &again.outcomes),
    ] {
        if let Some(i) = (0..shots.len()).find(|&i| other[i] != untraced.outcomes[i]) {
            out.gate(false, || {
                format!(
                    "{what} pass classified {:?} as {:?}; first untraced pass says {:?}",
                    shots[i], other[i], untraced.outcomes[i]
                )
            });
        }
    }
    out.attempted += 3 * shots.len() as u64;

    let n = shots.len() as f64;
    let wall_u = (untraced.wall + again.wall).as_secs_f64() / 2.0;
    let wall_t = traced.wall.as_secs_f64();
    let untraced_busy: f64 = (untraced.times.iter())
        .chain(&again.times)
        .map(Duration::as_secs_f64)
        .sum::<f64>()
        / 2.0;
    let traced_busy = traced.trace.busy_ns() as f64 / 1e9;
    println!(
        "  outcome digest {} (all three passes agree)",
        outcome_digest(&untraced.codes())
    );
    report(
        "mutants_per_s.untraced",
        n / wall_u,
        "1/s",
        &format!(
            "passes of {:.2} s and {:.2} s",
            untraced.wall.as_secs_f64(),
            again.wall.as_secs_f64()
        ),
    );
    report("mutants_per_s.traced", n / wall_t, "1/s", "");
    report(
        "trace.wall_ratio",
        wall_t / wall_u,
        "x",
        "traced ÷ untraced wall: the tracing overhead",
    );
    println!(
        "  summed self times {traced_busy:.3} s vs untraced classification time {untraced_busy:.3} s (mean of both passes): {:+.1}%",
        100.0 * (traced_busy / untraced_busy - 1.0),
    );

    let put = |out: &mut RunResult, name: &str, v: f64, note: &str| {
        report(name, v, "ms", note);
        out.push(name, v, "ms");
    };
    put(
        out,
        "mutagen.generate_ms",
        median(&generate_ms),
        "generate + sample every pool, median of 3",
    );
    put(
        out,
        "kernel.machine_build_ms",
        median(&traced.builds_ms),
        "scenario build + snapshot + include cache, median per machine",
    );
    println!("  per-layer figures from the traced pass over {n} items:");
    layer_metrics(&traced.trace, out);

    let path = Path::new(crate::OUT_DIR).join(format!("trace-{name}-{seed}.tsv"));
    traced
        .trace
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok((untraced, traced))
}

/// Rewrite the recorded outcome vector of each pool from the campaign
/// engine.
pub fn bless(pools: &[Pool], threads: usize) -> Result<(), String> {
    for (pool, p) in pools.iter().enumerate() {
        let shots: Vec<Shot> = (0..p.mutants.len())
            .map(|i| Shot {
                pool,
                mutant: Some(i),
            })
            .collect();
        let r = replay(pools, &shots, threads);
        let outcomes = r.codes();
        crate::golden::write(&p.stem(), &p.mutants, &outcomes)
            .map_err(|e| format!("cannot write golden file: {e}"))?;
        println!(
            "{}: {} mutants classified in {:.1} s, digest {}",
            p.stem(),
            outcomes.len(),
            r.wall.as_secs_f64(),
            outcome_digest(&outcomes)
        );
    }
    Ok(())
}
