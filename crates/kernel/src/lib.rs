//! # devil-kernel — the simulated kernel and its workload scenarios
//!
//! The paper runs every surviving mutant inside a Linux kernel under a
//! *driver-specific activity* — booting from the mutated disk driver,
//! streaming mouse events through the mutated busmouse driver — and
//! observes the outcome (§4.2). This crate reproduces that experiment
//! deterministically and generalises it into a **multi-scenario workload
//! engine**:
//!
//! * [`kapi::MachineHost`] exposes a simulated machine ([`devil_hwsim`]) to
//!   interpreted driver code as the kernel I/O environment;
//! * [`fs`] implements **DevilFS**, a tiny checksummed filesystem living on
//!   the simulated IDE disk, with `mkfs` and a ground-truth `fsck`;
//! * [`scenario`] is the engine: a [`scenario::Scenario`] describes one
//!   activity (build machine → drive workload → inspect ground truth), a
//!   [`scenario::ScenarioMachine`] snapshot-restores that machine per
//!   mutant, and every run executes on the minic bytecode VM with the
//!   tree-walking interpreter as its differential oracle;
//! * [`scenarios`] holds the bundled activities: the paper's IDE boot,
//!   an IDE read/write stress, a busmouse event stream, and an NE2000
//!   packet TX/RX stress across the receive-ring wrap;
//! * [`boot`] is the IDE-boot specialisation (probe → mount →
//!   integrity → write test → fsck) plus the outcome taxonomy
//!   ([`boot::Outcome`]): run-time check, dead code, boot, crash,
//!   infinite loop, halt, damaged boot (§4.2's cases 1–7), and the
//!   compile-time check of Table 3/4's first row.
//!
//! ## Adding a scenario
//!
//! Implement [`scenario::Scenario`] (see its module docs for a worked
//! example and `devil_hwsim::snap` for the snapshot-lifecycle contract:
//! *all* setup in `build`, per-run injections in `drive`, never remap
//! devices), pair it with a driver in `devil_drivers::corpus`, and give it
//! a golden differential outcome file under `tests/golden/` — run
//! `DEVIL_BLESS=1 cargo test --release --test scenario_differential` once
//! to create it, after eyeballing that the printed outcome distribution
//! makes sense. From then on the scenario is runnable from the campaign
//! CLI (`cargo run --release --example mutation_campaign -- <name>`),
//! covered by the VM-vs-interpreter differential tests, and benchable via
//! `cargo bench --bench scenarios`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod fingerprint;
pub mod fs;
pub mod kapi;
pub mod scenario;
pub mod scenarios;

pub use boot::{boot_ide, BootReport, CampaignMachine, Detail, Outcome};
pub use fs::{fsck, mkfs, FsckReport, SECTORS_PER_FILE};
pub use kapi::{MachineHost, MachineIo};
pub use scenario::{FaultScenario, Scenario, ScenarioEngine, ScenarioMachine, ScenarioReport};
