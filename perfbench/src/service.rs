//! The service workload: an in-process `devil-serve` with one worker,
//! driven over one connection with `devil_serve::proto` frames. Open-loop
//! windows at a fixed rate (latency, timed from each submission's due
//! time) alternate with backlogged bursts (capacity). One worker leaves
//! the second core to the client, so the generator is not starved; the
//! fuel-exhausting IDE mutants block the head of the line, which is what
//! the tail latency shows.

use crate::replay::{replay, traced_run, Pool, Shot};
use crate::trace::Layer;
use crate::util::{median, percentile, push_peak_rss, report, RunResult};
use devil_kernel::Outcome;
use devil_mutagen::effective_threads;
use devil_rng::XorShift64;
use devil_serve::pipe::{PipeReader, PipeWriter};
use devil_serve::proto::{read_frame, write_frame};
use devil_serve::{parse_mix, InProcServer, Request, Response, ServeConfig, ServiceStats};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The acceptance mix: two fault-free IDE boots (plain-C driver) for
/// every busmouse stream on flaky hardware, 90% mutants.
pub const MIX: &str = "ide-boot/ide_piix4_c:0.9:2,mouse-stream+faults/busmouse_c:0.9";
/// Offered rate of the open-loop phase, about a third of capacity.
pub const RATE: f64 = 200.0;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// The run alternates open-loop windows with backlogged bursts, this
/// many of each, so both phases sample the whole run: the host's speed
/// drifts over seconds.
const CYCLES: usize = 10;
/// Submissions offered at once in each backlogged burst (rounded down
/// per mix entry).
const BACKLOG: usize = 1000;
/// Admission queue: far above the backlog, so nothing sheds.
const QUEUE_CAP: usize = 1 << 15;
const SETUP_REPS: usize = 7;
/// Longest wait for outstanding replies before the run is failed.
const REPLY_WAIT: Duration = Duration::from_secs(60);
const STATS_ID: u64 = u64::MAX;

/// One pool per mix entry, each with its driver's full mutant set.
pub fn pools() -> Result<Vec<Pool>, String> {
    parse_mix(MIX)?.into_iter().map(Pool::new).collect()
}

/// `n` submissions in the mix's exact proportions (entry weights, mutant
/// fractions), each entry's mutants a systematic sample spread evenly
/// over its whole pool from a seeded offset, in seeded order. Every
/// window and burst thus has the same make-up whatever the seed, and
/// only the order and the exact mutants vary: independent draws of this
/// size would let the count of fuel-exhausting mutants, and with it the
/// tail latency and capacity, swing from seed to seed.
fn mix_shots(pools: &[Pool], n: usize, rng: &mut XorShift64) -> Vec<Shot> {
    let total_weight: u32 = pools.iter().map(|p| p.entry.weight).sum();
    let mut shots = Vec::with_capacity(n);
    for (pool, p) in pools.iter().enumerate() {
        let n = n * p.entry.weight as usize / total_weight as usize;
        let mutants = ((n as f64 * p.entry.mutant_fraction).round() as usize).min(p.mutants.len());
        let stride = p.mutants.len() as f64 / mutants.max(1) as f64;
        let offset = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * stride;
        shots.extend((0..mutants).map(|k| Shot {
            pool,
            mutant: Some((offset + k as f64 * stride) as usize),
        }));
        shots.extend((mutants..n).map(|_| Shot { pool, mutant: None }));
    }
    for i in (1..shots.len()).rev() {
        shots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    shots
}

/// A reply as the client saw it.
#[derive(Debug, Clone)]
enum Reply {
    Outcome(Outcome, String),
    Shed,
    Expired,
    Refused(String),
}

/// One submission: what was sent, when it was due, when it went out and
/// when its reply came back (nanoseconds since the client started).
#[derive(Debug, Clone, Copy)]
struct Sent {
    shot: Shot,
    due: u64,
    sent: u64,
}

type Book = Vec<Option<(u64, Reply)>>;

/// One connection: the pacing writer on the calling thread, a reader
/// thread filing replies by request id.
struct Client {
    w: BufWriter<PipeWriter>,
    start: Instant,
    settled: Arc<AtomicUsize>,
    stats: mpsc::Receiver<ServiceStats>,
    reader: JoinHandle<io::Result<Book>>,
    sent: Vec<Sent>,
}

impl Client {
    fn connect(server: &InProcServer, capacity: usize) -> Client {
        let (r, w) = server.connect().split();
        let start = Instant::now();
        let settled = Arc::new(AtomicUsize::new(0));
        let (tx, stats) = mpsc::channel();
        let counter = settled.clone();
        let reader = std::thread::spawn(move || read_replies(r, start, capacity, &counter, &tx));
        Client {
            w: BufWriter::new(w),
            start,
            settled,
            stats,
            reader,
            sent: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn submit(&mut self, pools: &[Pool], shot: Shot, due: u64) -> io::Result<()> {
        let pool = &pools[shot.pool];
        let (source, dead_line) = pool.source(shot.mutant);
        let req = Request::Submit(devil_serve::SubmitMutant {
            req_id: self.sent.len() as u64,
            scenario: pool.entry.scenario.clone(),
            plan: pool.entry.plan.clone(),
            plan_seed: pool.entry.plan_seed,
            file: pool.variant.file.to_string(),
            dead_line: dead_line.unwrap_or(0),
            deadline_ms: 0,
            source: source.to_string(),
        });
        let payload = req.encode();
        let sent = self.now();
        self.sent.push(Sent { shot, due, sent });
        write_frame(&mut self.w, &payload)
    }

    /// Wait until every submission so far has its reply.
    fn wait_settled(&mut self) -> Result<(), String> {
        self.w.flush().map_err(|e| format!("send failed: {e}"))?;
        let deadline = Instant::now() + REPLY_WAIT;
        while self.settled.load(Ordering::SeqCst) < self.sent.len() {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} of {} replies after {REPLY_WAIT:?}",
                    self.settled.load(Ordering::SeqCst),
                    self.sent.len()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Ask for the server's counters, hang up, and collect the replies.
    fn finish(mut self) -> Result<(ServiceStats, Vec<Sent>, Book), String> {
        let io = |e: io::Error| format!("connection failed: {e}");
        write_frame(&mut self.w, &Request::Stats { req_id: STATS_ID }.encode()).map_err(io)?;
        self.w.flush().map_err(io)?;
        let stats = self
            .stats
            .recv_timeout(REPLY_WAIT)
            .map_err(|e| format!("no STATS reply: {e}"))?;
        drop(self.w);
        let book = self
            .reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?
            .map_err(io)?;
        Ok((stats, self.sent, book))
    }
}

fn read_replies(
    mut r: PipeReader,
    start: Instant,
    capacity: usize,
    settled: &AtomicUsize,
    stats: &mpsc::Sender<ServiceStats>,
) -> io::Result<Book> {
    let mut book: Book = vec![None; capacity];
    while let Some(frame) = read_frame(&mut r)? {
        let at = start.elapsed().as_nanos() as u64;
        let (id, reply) = match Response::decode(&frame)? {
            Response::Stats { stats: s, .. } => {
                let _ = stats.send(s);
                continue;
            }
            Response::Outcome {
                req_id,
                outcome,
                detail,
            } => (req_id, Reply::Outcome(outcome, detail)),
            Response::Shed { req_id } => (req_id, Reply::Shed),
            Response::Expired { req_id } => (req_id, Reply::Expired),
            Response::Err { req_id, message } => (req_id, Reply::Refused(message)),
            Response::Draining { req_id } => (req_id, Reply::Refused("server draining".into())),
        };
        let slot = book
            .get_mut(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply to unknown id"))?;
        if slot.replace((at, reply)).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("second reply to {id}"),
            ));
        }
        settled.fetch_add(1, Ordering::SeqCst);
    }
    Ok(book)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    }
}

/// Set-up: start the server, generate the pools, and classify one clean
/// source per mix entry so every workload's machine is built.
fn set_up(capacity: usize) -> Result<(InProcServer, Vec<Pool>, Client, Duration), String> {
    let t = Instant::now();
    let server = InProcServer::start(serve_config());
    let pools = pools()?;
    let mut client = Client::connect(&server, capacity);
    for pool in 0..pools.len() {
        let due = client.now();
        client
            .submit(&pools, Shot { pool, mutant: None }, due)
            .map_err(|e| e.to_string())?;
    }
    client.wait_settled()?;
    Ok((server, pools, client, t.elapsed()))
}

/// Sleep until `due` (ns since the client started), spinning the last
/// stretch so the send is not late by a timer slack.
fn wait_until(client: &Client, due: u64) {
    loop {
        let now = client.now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 300_000 {
            std::thread::sleep(Duration::from_nanos(left - 250_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Everything one service run measured.
struct Measured {
    pools: Vec<Pool>,
    sent: Vec<Sent>,
    book: Book,
    stats: ServiceStats,
    setup_s: f64,
    /// Ids of the open-loop submissions.
    open: Vec<usize>,
    /// Ids of each backlogged burst.
    bursts: Vec<std::ops::Range<usize>>,
}

fn measure(seed: u64, seconds: u64) -> Result<Measured, String> {
    let window = (RATE * seconds as f64 * OPEN_SHARE / CYCLES as f64).round() as usize;
    let capacity = 8 + CYCLES * (window + BACKLOG);
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (server, pools, client, t) = set_up(capacity)?;
        setups.push(t.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            client.finish()?;
            server.shutdown()?;
        } else {
            kept = Some((server, pools, client));
        }
    }
    let (server, pools, mut client) = kept.expect("at least one set-up");
    let mut rng = XorShift64::new(seed ^ 0x5E2F_1CE0_0F3E_11ED);
    let (mut open, mut bursts) = (Vec::new(), Vec::new());
    let period = 1e9 / RATE;
    for _ in 0..CYCLES {
        // Open loop: submission k is due at window start + k / RATE and
        // is sent then, whatever the replies are doing.
        let phase = client.now();
        for (k, shot) in mix_shots(&pools, window, &mut rng).into_iter().enumerate() {
            let due = phase + (k as f64 * period) as u64;
            wait_until(&client, due);
            open.push(client.sent.len());
            client
                .submit(&pools, shot, due)
                .map_err(|e| e.to_string())?;
            client.w.flush().map_err(|e| e.to_string())?;
        }
        client.wait_settled()?;

        // Backlogged: the whole burst is due at once.
        let due = client.now();
        let first = client.sent.len();
        for shot in mix_shots(&pools, BACKLOG, &mut rng) {
            client
                .submit(&pools, shot, due)
                .map_err(|e| e.to_string())?;
        }
        client.wait_settled()?;
        bursts.push(first..client.sent.len());
    }

    let (stats, sent, book) = client.finish()?;
    server.shutdown()?;
    Ok(Measured {
        pools,
        sent,
        book,
        stats,
        setup_s: median(&setups),
        open,
        bursts,
    })
}

/// The books, the gates, and the outcome-class split of one run.
struct Checked {
    distinct: Vec<Shot>,
    index: HashMap<Shot, usize>,
    completed: u64,
}

fn check(m: &Measured, out: &mut RunResult) -> Checked {
    let (mut completed, mut shed, mut expired, mut errors, mut broken) = (0u64, 0, 0, 0, 0);
    for (i, slot) in m.book.iter().take(m.sent.len()).enumerate() {
        match slot {
            None => out.gate(false, || format!("submission {i} never answered")),
            Some((_, Reply::Outcome(o, _))) => {
                completed += 1;
                if !o.is_deterministic() {
                    broken += 1;
                }
            }
            Some((_, Reply::Shed)) => shed += 1,
            Some((_, Reply::Expired)) => expired += 1,
            Some((_, Reply::Refused(msg))) => {
                errors += 1;
                println!("  submission {i} refused: {msg}");
            }
        }
    }
    let offered = m.sent.len() as u64;
    out.gate(offered == completed + shed + expired + errors, || {
        format!("client books: offered {offered} != completed {completed} + shed {shed} + expired {expired} + errors {errors}")
    });
    let s = &m.stats;
    out.gate(
        s.completed == completed && s.shed == shed && s.expired == expired,
        || format!("server books {s:?} differ from the client's: completed {completed}, shed {shed}, expired {expired}"),
    );
    out.gate(
        s.accepted + s.shed + errors == offered && s.accepted == s.completed + s.expired,
        || format!("server books do not balance: {s:?}, offered {offered}, refused {errors}"),
    );
    out.attempted = offered;
    out.failed = shed + expired + errors + broken;

    let mut index = HashMap::new();
    let mut distinct = Vec::new();
    for s in &m.sent {
        index.entry(s.shot).or_insert_with(|| {
            distinct.push(s.shot);
            distinct.len() - 1
        });
    }
    Checked {
        distinct,
        index,
        completed,
    }
}

/// Every deterministic reply must equal the batch engine's outcome and
/// detail for the same input.
fn gate_replay(m: &Measured, c: &Checked, expected: &[(Outcome, String)], out: &mut RunResult) {
    let mut mismatches = 0;
    for (s, slot) in m.sent.iter().zip(&m.book) {
        if let Some((_, Reply::Outcome(o, d))) = slot {
            let (want_o, want_d) = &expected[c.index[&s.shot]];
            if o.is_deterministic() && (o != want_o || d != want_d) {
                mismatches += 1;
                if mismatches <= 3 {
                    let pool = &m.pools[s.shot.pool];
                    out.gate(false, || {
                        format!(
                            "service replied {o:?} ({d}) for {}/{} {:?}; batch engine says {want_o:?} ({want_d})",
                            pool.entry.scenario, pool.entry.driver, s.shot.mutant
                        )
                    });
                }
            }
        }
    }
    out.gate(mismatches == 0, || {
        format!("{mismatches} service replies differ from the batch engine")
    });
    println!(
        "  replay: {} distinct inputs re-run on the batch engine, {} replies compared",
        c.distinct.len(),
        c.completed
    );
}

/// Every deterministic reply to a mutant must also hold the outcome
/// recorded for it, so a defect shared by the service and the batch
/// engine still fails the run.
fn gate_golden(m: &Measured, out: &mut RunResult) -> Result<(), String> {
    let golden = m
        .pools
        .iter()
        .map(Pool::golden)
        .collect::<Result<Vec<_>, _>>()?;
    let mut mismatches = 0;
    for (s, slot) in m.sent.iter().zip(&m.book) {
        if let (Some(i), Some((_, Reply::Outcome(o, _)))) = (s.shot.mutant, slot) {
            let want = golden[s.shot.pool].codes[i];
            if o.is_deterministic() && *o != want {
                mismatches += 1;
                if mismatches <= 3 {
                    let p = &m.pools[s.shot.pool];
                    out.gate(false, || {
                        format!(
                            "service replied {o:?} for {} / {} mutant #{i}; recorded {want:?}",
                            p.workload(),
                            p.entry.driver
                        )
                    });
                }
            }
        }
    }
    out.gate(mismatches == 0, || {
        format!("{mismatches} service replies differ from the recorded outcomes")
    });
    Ok(())
}

/// Latency of each open-loop reply from its due time, ms, with its class
/// and id, for the submissions `ids`.
fn open_latencies(m: &Measured, ids: &[usize]) -> Vec<(f64, Option<Outcome>, usize)> {
    ids.iter()
        .filter_map(|&i| {
            let (at, reply) = m.book[i].as_ref()?;
            let class = match reply {
                Reply::Outcome(o, _) => Some(*o),
                _ => None,
            };
            Some(((at - m.sent[i].due) as f64 / 1e6, class, i))
        })
        .collect()
}

/// Completions per second in the backlogged phase: the replies in the
/// middle 80% of each burst, over the time they span, summed over the
/// bursts.
fn capacity(m: &Measured) -> f64 {
    let (mut done, mut secs, mut per_burst) = (0, 0.0, Vec::new());
    for burst in &m.bursts {
        let mut at: Vec<u64> = burst
            .clone()
            .filter_map(|i| m.book[i].as_ref().map(|(t, _)| *t))
            .collect();
        at.sort_unstable();
        let (lo, hi) = (at.len() / 10, at.len() * 9 / 10);
        let span = (at[hi] - at[lo]) as f64 / 1e9;
        per_burst.push((hi - lo) as f64 / span);
        done += hi - lo;
        secs += span;
    }
    println!("  per burst: {per_burst:.0?} /s");
    done as f64 / secs
}

fn header(seed: u64, seconds: u64, traced: bool) {
    let window = (RATE * seconds as f64 * OPEN_SHARE / CYCLES as f64).round();
    println!(
        "workload service-c-mix{} — {CYCLES} × (open loop at {RATE}/s for {window} submissions, then \
         {BACKLOG} backlogged); 1 server worker, 1 in-process connection, mix `{MIX}`, seed {seed:#x}",
        if traced { " (traced)" } else { "" }
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, out: &mut RunResult) -> Result<(), String> {
    header(seed, seconds, false);
    let m = measure(seed, seconds)?;
    push_peak_rss(out);
    let c = check(&m, out);
    gate_golden(&m, out)?;
    let expected = replay(&m.pools, &c.distinct, effective_threads(0));
    gate_replay(&m, &c, &expected.outcomes, out);

    let cap = capacity(&m);
    report(
        "setup_s",
        m.setup_s,
        "s",
        &format!("server start + pools + warm-up, median of {SETUP_REPS}"),
    );
    latency_report(&m);
    report(
        "capacity_per_s",
        cap,
        "1/s",
        &format!("{CYCLES} bursts of {BACKLOG}, reported as mutants_per_s"),
    );
    report(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "share",
        "",
    );
    lag_report(&m);
    out.push("setup_s", m.setup_s, "s");
    out.push("mutants_per_s", cap, "1/s");
    Ok(())
}

/// Print the open-loop latency, from each submission's due time, over
/// every completed open-loop submission; returns (p50, p99) in ms.
fn latency_report(m: &Measured) -> (f64, f64) {
    let lat: Vec<f64> = open_latencies(m, &m.open)
        .into_iter()
        .filter(|(_, o, _)| o.is_some())
        .map(|(l, _, _)| l)
        .collect();
    let (p50, p99) = (percentile(&lat, 0.5), percentile(&lat, 0.99));
    let note = format!("from due time at {RATE}/s, n={}", lat.len());
    report("latency_p50_ms", p50, "ms", &note);
    report("latency_p99_ms", p99, "ms", &note);
    (p50, p99)
}

fn lag_report(m: &Measured) {
    let lag: Vec<f64> = m
        .open
        .iter()
        .map(|&i| (m.sent[i].sent.saturating_sub(m.sent[i].due)) as f64 / 1e6)
        .collect();
    report(
        "serve.generator_lag_ms.p50",
        percentile(&lag, 0.5),
        "ms",
        "send − due",
    );
    report(
        "serve.generator_lag_ms.p99",
        percentile(&lag, 0.99),
        "ms",
        "",
    );
    report(
        "serve.generator_lag_ms.max",
        percentile(&lag, 1.0),
        "ms",
        "",
    );
}

/// The traced run: the service figures of the run, plus the per-layer
/// metrics of a traced replay of every distinct input it submitted.
pub fn run_traced(seed: u64, seconds: u64, out: &mut RunResult) -> Result<(), String> {
    header(seed, seconds, true);
    let m = measure(seed, seconds)?;
    let c = check(&m, out);
    gate_golden(&m, out)?;
    let (untraced, traced) = traced_run(
        "service-c-mix",
        seed,
        &m.pools,
        &c.distinct,
        effective_threads(0),
        None,
        out,
    )?;
    gate_replay(&m, &c, &untraced.outcomes, out);

    // Serve-side figures.
    let (p50, p99) = latency_report(&m);
    out.push("latency_p50_ms", p50, "ms");
    out.push("latency_p99_ms", p99, "ms");
    let lat = open_latencies(&m, &m.open);
    let class_p99 = |keep: &dyn Fn(Outcome) -> bool| {
        let v: Vec<f64> = lat
            .iter()
            .filter(|(_, o, _)| o.is_some_and(keep))
            .map(|(l, _, _)| *l)
            .collect();
        (percentile(&v, 0.99), v.len())
    };
    let (il, il_n) = class_p99(&|o| o == Outcome::InfiniteLoop);
    let (other, other_n) = class_p99(&|o| o != Outcome::InfiniteLoop);
    // Queue wait: reply latency minus the in-process classification time
    // of the same input (the root span of its traced replay).
    let mut classify_ms = vec![0.0; c.distinct.len()];
    for s in traced
        .trace
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Mutant)
    {
        classify_ms[s.item as usize] = (s.end - s.start) as f64 / 1e6;
    }
    let wait: Vec<f64> = lat
        .iter()
        .filter(|(_, o, _)| o.is_some())
        .map(|(l, _, i)| l - classify_ms[c.index[&m.sent[*i].shot]])
        .collect();
    report(
        "serve.max_depth",
        m.stats.max_depth as f64,
        "count",
        "final STATS",
    );
    report("serve.shed", m.stats.shed as f64, "count", "");
    report("serve.expired", m.stats.expired as f64, "count", "");
    report(
        "serve.latency_p99_ms.infinite_loop",
        il,
        "ms",
        &format!("n={il_n}"),
    );
    report(
        "serve.latency_p99_ms.other",
        other,
        "ms",
        &format!("n={other_n}"),
    );
    report(
        "serve.queue_wait_ms.p50",
        percentile(&wait, 0.5),
        "ms",
        "latency − replayed classification time",
    );
    report("serve.queue_wait_ms.p99", percentile(&wait, 0.99), "ms", "");
    lag_report(&m);
    report("serve.capacity_per_s", capacity(&m), "1/s", "");
    Ok(())
}
