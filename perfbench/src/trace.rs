//! The traced run: `ScenarioMachine::run` rebuilt from the public
//! functions of each layer, with a span around every call.
//!
//! Spans are recorded by the benchmark, around calls into the program,
//! so the program itself is not touched. Each worker keeps its spans in
//! memory; the run writes them out when it ends. A span's self time is
//! its duration minus the time its child spans cover.

use crate::util::{median, percentile};
use devil_hwsim::{IoSpace, Snapshot};
use devil_kernel::scenario::{refine_dead_code, run_compiled, run_interp, Detail, Scenario};
use devil_kernel::Outcome;
use devil_minic::pp::IncludeCache;
use devil_minic::{check, parser, pp, Program};
use devil_mutagen::{Ledger, LedgerKey};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a span times. `Mutant` is the root span of one
/// classification; every other layer is one of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Mutant,
    LedgerLookup,
    Pp,
    Parse,
    Check,
    Lower,
    Restore,
    Drive,
    Classify,
    LedgerRecord,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Mutant => "mutant",
            Layer::LedgerLookup => "mutagen.ledger.lookup",
            Layer::Pp => "minic.pp",
            Layer::Parse => "minic.parse",
            Layer::Check => "minic.check",
            Layer::Lower => "minic.lower",
            Layer::Restore => "hwsim.restore",
            Layer::Drive => "kernel.drive",
            Layer::Classify => "kernel.classify",
            Layer::LedgerRecord => "mutagen.ledger.record",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (the mutant's root span).
    pub parent: Option<u32>,
    /// Which classification the span belongs to — shared by all spans
    /// of one mutant.
    pub item: u32,
    pub worker: u32,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

/// Per-classification facts the layers report besides time.
#[derive(Debug, Clone)]
pub struct ItemFacts {
    pub item: u32,
    pub outcome: Outcome,
    pub detail: Detail,
    /// Tokens out of the preprocessor (0 when preprocessing failed).
    pub tokens: usize,
    /// Superinstructions in the lowered program (0 when not lowered).
    pub fused_ops: usize,
}

/// Where workers hand their spans when they finish.
#[derive(Default)]
pub struct Sink {
    pub spans: Mutex<Vec<Span>>,
    pub facts: Mutex<Vec<ItemFacts>>,
}

/// A worker's in-memory span buffer; flushed into the sink on drop, when
/// the campaign worker that owns it ends.
pub struct Recorder {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
    facts: Vec<ItemFacts>,
    sink: Arc<Sink>,
}

impl Recorder {
    pub fn new(epoch: Instant, worker: u32, sink: Arc<Sink>) -> Recorder {
        Recorder {
            epoch,
            worker,
            spans: Vec::new(),
            facts: Vec::new(),
            sink,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, item: u32, parent: Option<u32>) -> usize {
        let id = (self.worker << 24) | self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            item,
            worker: self.worker,
            layer,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, at: usize) {
        self.spans[at].end = self.now();
    }

    /// Time `f` as a child span of `root`.
    fn span<T>(&mut self, root: usize, layer: Layer, f: impl FnOnce() -> T) -> T {
        let (item, parent) = (self.spans[root].item, Some(self.spans[root].id));
        let at = self.open(layer, item, parent);
        let out = f();
        self.close(at);
        out
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.spans.lock() {
            s.append(&mut self.spans);
        }
        if let Ok(mut f) = self.sink.facts.lock() {
            f.append(&mut self.facts);
        }
    }
}

/// A machine assembled from the layers `ScenarioMachine` is made of.
pub struct TracedMachine {
    scenario: Box<dyn Scenario + Send>,
    io: IoSpace,
    pristine: Snapshot,
    cache: IncludeCache,
    fuel: u64,
}

impl TracedMachine {
    /// Build the scenario's machine, snapshot it, and pre-lex the
    /// include set — the work `ScenarioMachine::with_scenario` and its
    /// first compile do.
    pub fn build(
        mut scenario: Box<dyn Scenario + Send>,
        includes: &[(&str, &str)],
        fuel: u64,
    ) -> TracedMachine {
        let io = scenario.build();
        let pristine = io.snapshot();
        TracedMachine {
            scenario,
            io,
            pristine,
            cache: IncludeCache::new(includes),
            fuel,
        }
    }

    /// Classify one mutant, one span per layer call:
    /// pp → parse → check → lower → restore → drive → classify, with an
    /// optional ledger lookup before and record after (as
    /// `Campaign::run_memoized` does).
    pub fn classify(
        &mut self,
        rec: &mut Recorder,
        item: u32,
        file: &str,
        source: &str,
        dead_line: Option<u32>,
        ledger: Option<(&Ledger, &LedgerKey)>,
    ) -> (Outcome, Detail) {
        let root = rec.open(Layer::Mutant, item, None);
        // `run_memoized` looks every key up before the first record, so on
        // a fresh ledger each lookup misses; a hit here can only be a
        // duplicate mutant recorded moments ago, and is classified anyway.
        if let Some((ledger, key)) = ledger {
            rec.span(root, Layer::LedgerLookup, || ledger.lookup(key));
        }
        let mut facts = ItemFacts {
            item,
            outcome: Outcome::CompileCheck,
            detail: Detail::Borrowed(""),
            tokens: 0,
            fused_ops: 0,
        };
        let (outcome, detail) = match self.front_end(rec, root, file, source, &mut facts) {
            Err(e) => (Outcome::CompileCheck, Detail::Owned(e)),
            Ok(program) => {
                let compiled = rec.span(root, Layer::Lower, || program.to_bytecode());
                facts.fused_ops = compiled.fused_op_count();
                let (io, pristine) = (&mut self.io, &self.pristine);
                rec.span(root, Layer::Restore, || {
                    io.restore(pristine)
                        .expect("pristine snapshot matches its own machine")
                });
                let report = rec.span(root, Layer::Drive, || {
                    run_compiled(&self.scenario, &compiled, &mut self.io, self.fuel)
                });
                rec.span(root, Layer::Classify, || {
                    refine_dead_code(&program, report, file, dead_line)
                })
            }
        };
        if let Some((ledger, key)) = ledger {
            if outcome.is_deterministic() {
                rec.span(root, Layer::LedgerRecord, || {
                    ledger.record(key, outcome.code(), "")
                })
                .expect("benchmark ledger appends");
            }
        }
        rec.close(root);
        facts.outcome = outcome;
        facts.detail = detail.clone();
        rec.facts.push(facts);
        (outcome, detail)
    }

    fn front_end(
        &self,
        rec: &mut Recorder,
        root: usize,
        file: &str,
        source: &str,
        facts: &mut ItemFacts,
    ) -> Result<Program, String> {
        let tokens = rec
            .span(root, Layer::Pp, || {
                pp::preprocess_cached(file, source, &self.cache)
            })
            .map_err(|e| e.to_string())?;
        facts.tokens = tokens.0.len();
        let unit = rec
            .span(root, Layer::Parse, || parser::parse(tokens))
            .map_err(|e| e.to_string())?;
        let structs = rec
            .span(root, Layer::Check, || check::check(&unit))
            .map_err(|e| e.to_string())?;
        Ok(Program { unit, structs })
    }

    /// Classify through the tree-walking interpreter — the oracle the
    /// bytecode VM is validated against.
    pub fn classify_interp(
        &mut self,
        file: &str,
        source: &str,
        includes: &[(&str, &str)],
        dead_line: Option<u32>,
    ) -> (Outcome, Detail) {
        let program = match devil_minic::compile_with_includes(file, source, includes) {
            Ok(p) => p,
            Err(e) => return (Outcome::CompileCheck, e.to_string().into()),
        };
        self.io
            .restore(&self.pristine)
            .expect("pristine snapshot matches its own machine");
        let report = run_interp(&self.scenario, &program, &mut self.io, self.fuel);
        refine_dead_code(&program, report, file, dead_line)
    }
}

/// Everything a traced campaign recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Facts per item, indexed by item.
    pub facts: Vec<ItemFacts>,
    /// Wall time of the traced classification, first span to last.
    pub wall_ns: u64,
    pub threads: usize,
}

impl Trace {
    pub fn collect(sink: &Sink, threads: usize, n: usize) -> Trace {
        let spans = std::mem::take(&mut *sink.spans.lock().expect("sink lock"));
        let mut facts = std::mem::take(&mut *sink.facts.lock().expect("sink lock"));
        facts.sort_by_key(|f| f.item);
        assert_eq!(facts.len(), n, "every item traced once");
        let first = spans.iter().map(|s| s.start).min().unwrap_or(0);
        let last = spans.iter().map(|s| s.end).max().unwrap_or(0);
        Trace {
            spans,
            facts,
            wall_ns: last - first,
            threads,
        }
    }

    /// Self time of every span, in span order: duration minus the part
    /// covered by its children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_default() += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .map(|s| (s.end - s.start).saturating_sub(child.get(&s.id).copied().unwrap_or(0)))
            .collect()
    }

    /// Per-item self time of `layer`, in microseconds.
    pub fn layer_us(&self, layer: Layer) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, t)| t as f64 / 1e3)
            .collect()
    }

    /// Per-item self time of `layer` for items whose outcome satisfies
    /// `keep`, in microseconds.
    pub fn layer_us_where(&self, layer: Layer, keep: impl Fn(Outcome) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && keep(self.facts[s.item as usize].outcome))
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Summed self time of `layers` ÷ classification time.
    pub fn share(&self, layers: &[Layer]) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| layers.contains(&s.layer))
            .map(|(_, t)| t)
            .sum();
        total as f64 / self.busy_ns().max(1) as f64
    }

    /// Drive time of fuel-exhausting runs ÷ all drive time.
    pub fn fuel_tail_share(&self) -> f64 {
        let tail: f64 = self
            .layer_us_where(Layer::Drive, |o| o == Outcome::InfiniteLoop)
            .iter()
            .sum();
        let all: f64 = self.layer_us_where(Layer::Drive, |_| true).iter().sum();
        tail / all.max(1e-9)
    }

    /// Summed duration of the root spans: the classification time the
    /// layers must account for.
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Mutant)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Worker busy time ÷ (threads × wall).
    pub fn busy_share(&self) -> f64 {
        self.busy_ns() as f64 / (self.threads as f64 * self.wall_ns.max(1) as f64)
    }

    /// First worker idle → last worker done, milliseconds.
    pub fn straggler_ms(&self) -> f64 {
        let mut last_end: std::collections::BTreeMap<u32, u64> = Default::default();
        for s in self.spans.iter().filter(|s| s.layer == Layer::Mutant) {
            let e = last_end.entry(s.worker).or_default();
            *e = (*e).max(s.end);
        }
        let first_idle = last_end.values().min().copied().unwrap_or(0);
        let last_done = last_end.values().max().copied().unwrap_or(0);
        (last_done - first_idle) as f64 / 1e6
    }

    /// Write the spans as tab-separated lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\titem\tworker\tlayer\tstart_ns\tend_ns\tself_ns"
        )?;
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{t}",
                s.id,
                s.item,
                s.worker,
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Print and collect the per-layer metrics every workload reports.
pub fn layer_metrics(trace: &Trace, out: &mut crate::util::RunResult) {
    let put = |out: &mut crate::util::RunResult, name: &str, v: f64, unit: &'static str| {
        crate::util::report(name, v, unit, "");
        out.push(name, v, unit);
    };
    for (layer, stem) in [
        (Layer::Pp, "minic.pp"),
        (Layer::Parse, "minic.parse"),
        (Layer::Check, "minic.check"),
        (Layer::Lower, "minic.lower"),
        (Layer::Restore, "hwsim.restore"),
        (Layer::Drive, "kernel.drive"),
        (Layer::Classify, "kernel.classify"),
    ] {
        let v = trace.layer_us(layer);
        put(out, &format!("{stem}_us.p50"), percentile(&v, 0.5), "us");
        put(out, &format!("{stem}_us.p99"), percentile(&v, 0.99), "us");
        put(
            out,
            &format!("{stem}.share"),
            trace.share(&[layer]),
            "share",
        );
    }
    let n = trace.facts.len().max(1) as f64;
    let tokens: Vec<f64> = trace
        .facts
        .iter()
        .filter(|f| f.tokens > 0)
        .map(|f| f.tokens as f64)
        .collect();
    put(out, "minic.pp_tokens", median(&tokens), "count");
    let rejects = trace
        .facts
        .iter()
        .filter(|f| f.outcome == Outcome::CompileCheck)
        .count();
    put(out, "minic.compile_rejects", rejects as f64 / n, "share");
    let fused: Vec<f64> = trace
        .facts
        .iter()
        .filter(|f| f.fused_ops > 0)
        .map(|f| f.fused_ops as f64)
        .collect();
    put(out, "minic.fused_ops", median(&fused), "count");
    let hung = trace
        .facts
        .iter()
        .filter(|f| f.outcome == Outcome::InfiniteLoop)
        .count();
    put(out, "kernel.fuel_exhausted", hung as f64, "count");
    put(
        out,
        "kernel.fuel_tail_share",
        trace.fuel_tail_share(),
        "share",
    );
    put(
        out,
        "mutagen.campaign.busy_share",
        trace.busy_share(),
        "share",
    );
    put(
        out,
        "mutagen.campaign.straggler_ms",
        trace.straggler_ms(),
        "ms",
    );
    // Drive time per outcome class: the p99 of the fuel-exhausting class
    // is what the fuel tail costs each such mutant.
    for o in Outcome::table_order() {
        let v = trace.layer_us_where(Layer::Drive, |x| x == o);
        if !v.is_empty() {
            println!(
                "  kernel.drive_us[{o:?}]{:>width$} p50 {:>10.1} us  p99 {:>10.1} us  (n={})",
                "",
                percentile(&v, 0.5),
                percentile(&v, 0.99),
                v.len(),
                width = 14usize.saturating_sub(format!("{o:?}").len()),
            );
        }
    }
}
