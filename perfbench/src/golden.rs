//! Recorded outcome vectors: the correctness reference of every workload.
//!
//! Each file holds the outcome of **every** generated mutant of one
//! driver under one workload (scenario, fault plan) at the default fuel,
//! in generation order, as `Outcome::code` digits. A sampled campaign's
//! expected per-mutant vector is the golden vector at the sampled
//! indices, so the gate holds for any `--seed`, not only for recorded
//! ones. A fingerprint of the generated mutant set guards against the
//! generator changing under the file. `--bless` rewrites the files from
//! the campaign engine; the traced run re-checks a seeded sample through
//! the tree-walking oracle.

use crate::util::outcome_digest;
use devil_bench::tables::OutcomeTable;
use devil_kernel::Outcome;
use devil_mutagen::ledger::fnv1a;
use devil_mutagen::{sample, Mutant};
use std::collections::{BTreeMap, HashSet};

/// One recorded outcome vector.
pub struct Golden {
    pub set: u64,
    pub codes: Vec<Outcome>,
}

fn text(stem: &str) -> &'static str {
    match stem {
        "ide-boot.ide_piix4_c" => include_str!("../golden/ide-boot.ide_piix4_c.txt"),
        "ide-boot.ide_piix4_cdevil" => include_str!("../golden/ide-boot.ide_piix4_cdevil.txt"),
        "mouse-stream-faults.busmouse_c" => {
            include_str!("../golden/mouse-stream-faults.busmouse_c.txt")
        }
        other => panic!("no golden outcome vector `{other}`"),
    }
}

/// File stem of the vector for `driver` under `workload` (a scenario
/// name, `+faults` for the default fault plan).
pub fn stem(workload: &str, driver: &str) -> String {
    format!("{}.{driver}", workload.replace('+', "-"))
}

/// Fingerprint of a generated mutant set: every mutant's line and source.
pub fn set_fingerprint(mutants: &[Mutant]) -> u64 {
    let mut bytes = Vec::new();
    for m in mutants {
        bytes.extend_from_slice(&m.line.to_le_bytes());
        bytes.extend_from_slice(&fnv1a(m.source.as_bytes()).to_le_bytes());
    }
    fnv1a(&bytes)
}

impl Golden {
    pub fn load(stem: &str) -> Result<Golden, String> {
        let mut set = None;
        let mut codes = None;
        for line in text(stem).lines() {
            if let Some(v) = line.strip_prefix("set ") {
                set = u64::from_str_radix(v.trim(), 16).ok();
            } else if let Some(v) = line.strip_prefix("codes ") {
                codes = v
                    .trim()
                    .bytes()
                    .map(|b| b.checked_sub(b'0').and_then(Outcome::from_code))
                    .collect::<Option<Vec<_>>>();
            }
        }
        match (set, codes) {
            (Some(set), Some(codes)) => Ok(Golden { set, codes }),
            _ => Err(format!("golden file `{stem}` is malformed")),
        }
    }

    /// Check that `all` is the mutant set this vector was recorded for.
    pub fn matches(&self, all: &[Mutant]) -> Result<(), String> {
        if all.len() != self.codes.len() || set_fingerprint(all) != self.set {
            return Err(format!(
                "generated mutant set changed: {} mutants, set {:016x}; golden has {}, set {:016x}",
                all.len(),
                set_fingerprint(all),
                self.codes.len(),
                self.set
            ));
        }
        Ok(())
    }

    /// Expected outcomes of the sampled indices.
    pub fn pick(&self, indices: &[usize]) -> Vec<Outcome> {
        indices.iter().map(|&i| self.codes[i]).collect()
    }
}

/// Indices `sample(all, fraction, seed)` keeps, in order.
pub fn sampled_indices(n: usize, fraction: f64, seed: u64) -> Vec<usize> {
    let probes: Vec<Mutant> = (0..n)
        .map(|site| Mutant {
            site,
            replacement: String::new(),
            source: String::new(),
            line: 0,
            description: String::new(),
        })
        .collect();
    sample(probes, fraction, seed)
        .into_iter()
        .map(|m| m.site)
        .collect()
}

/// The outcome table a campaign over `mutants` must return when their
/// outcomes are `outcomes` — the same fold `tables::scenario_campaign`
/// performs.
pub fn expected_table(mutants: &[&Mutant], outcomes: &[Outcome], generated: usize) -> OutcomeTable {
    let mut rows: BTreeMap<Outcome, (HashSet<usize>, usize)> = BTreeMap::new();
    let mut sites = HashSet::new();
    for (m, o) in mutants.iter().zip(outcomes) {
        let e = rows.entry(*o).or_default();
        e.0.insert(m.site);
        e.1 += 1;
        sites.insert(m.site);
    }
    OutcomeTable {
        rows: rows
            .into_iter()
            .map(|(k, (s, n))| (k, (s.len(), n)))
            .collect(),
        total_mutants: mutants.len(),
        total_sites: sites.len(),
        generated,
    }
}

/// Whether two outcome tables agree row for row.
pub fn same_table(a: &OutcomeTable, b: &OutcomeTable) -> bool {
    a.rows == b.rows
        && a.total_mutants == b.total_mutants
        && a.total_sites == b.total_sites
        && a.generated == b.generated
}

/// Rewrite one golden file.
pub fn write(stem: &str, all: &[Mutant], outcomes: &[Outcome]) -> std::io::Result<()> {
    let codes: String = outcomes
        .iter()
        .map(|o| char::from(b'0' + o.code()))
        .collect();
    let body = format!(
        "# {stem}: Outcome::code of every generated mutant, generation order,\n\
         # default fuel and fault seed, catalog headers. Rewrite with --bless.\n\
         mutants {}\nset {:016x}\ndigest {}\ncodes {codes}\n",
        all.len(),
        set_fingerprint(all),
        outcome_digest(outcomes)
    );
    let path = format!("{}/golden/{stem}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, body)
}
