//! End-to-end campaign benchmark.
//!
//! ```text
//! perfbench --workload <cdevil-boot|c-boot|service-c-mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this package first). With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it runs the traced pipeline and
//! prints the per-layer metrics. The last line on stdout is one JSON
//! object; the exit code is non-zero when any outcome gate fails.
//! `--bless` rewrites the recorded outcome vectors in `golden/`.

mod batch;
mod golden;
mod replay;
mod service;
mod trace;
mod util;

use util::RunResult;

/// Where ledgers and span files go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0xDE71, 10, false);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            return Ok(None);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = devil_bench::tables::parse_seed(&value)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &Args, out: &mut RunResult) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let batch = match args.workload.as_str() {
        "cdevil-boot" => Some(&batch::CDEVIL_BOOT),
        "c-boot" => Some(&batch::C_BOOT),
        "service-c-mix" => None,
        other => return Err(format!("unknown workload `{other}`")),
    };
    match (batch, args.trace) {
        (Some(b), false) => batch::run(b, args.seed, args.seconds, out),
        (Some(b), true) => batch::run_traced(b, args.seed, out),
        (None, false) => service::run(args.seed, args.seconds, out),
        (None, true) => service::run_traced(args.seed, args.seconds, out),
    }
}

/// Rewrite the recorded outcome vector of every pool a workload uses.
fn bless() -> Result<(), String> {
    let mut pools = Vec::new();
    for b in [&batch::CDEVIL_BOOT, &batch::C_BOOT] {
        pools.push(replay::Pool::fault_free(batch::SCENARIO, b.driver)?);
    }
    for p in service::pools()? {
        if pools.iter().all(|q| q.stem() != p.stem()) {
            pools.push(p);
        }
    }
    replay::bless(&pools, devil_mutagen::effective_threads(0))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(e) = bless() {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = RunResult::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", out.json());
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
