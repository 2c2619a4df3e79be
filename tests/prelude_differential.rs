//! Prelude-vs-whole-unit differential: compiling a mutant through a
//! shared [`Prelude`] (the stub headers checked and lowered once, only
//! the driver text compiled per mutant) must give *exactly* what the
//! whole-unit compile gives — a structurally equal `CompiledProgram`, or
//! a byte-identical compile error (the `CompileCheck` detail the ledger
//! and the service store) — and the bundled corpus must never need the
//! full-compile fallback.
//!
//! Release builds cover every mutant of the CDevil IDE driver under all
//! three stub flavours (debug, no-asserts, production) and every mutant
//! of the CDevil busmouse driver; debug builds take an evenly spaced
//! sample, so `cargo test` stays quick.

use devil::drivers::{busmouse, ide};
use devil::minic::{compile_with_includes, compile_with_prelude, CompiledProgram, Prelude};
use devil::mutagen::c::{CMutationModel, CStyle};
use devil::mutagen::{run_parallel, Mutant};

/// Every `STRIDE`-th mutant in debug builds; all of them in release.
const STRIDE: usize = if cfg!(debug_assertions) { 97 } else { 1 };

fn whole_unit(
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Result<CompiledProgram, String> {
    compile_with_includes(file, source, includes)
        .map(|p| p.to_bytecode())
        .map_err(|e| e.to_string())
}

/// Compare both paths over every (strided) mutant; returns how many
/// mutants were compared and how many of them the compiler rejected.
fn differential(
    file: &str,
    source: &str,
    mutants: &[Mutant],
    includes: &[(String, String)],
) -> (usize, usize) {
    let incs: Vec<(&str, &str)> = includes
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let prelude = Prelude::new(file, source, &incs);
    assert_eq!(
        prelude.closed_reason(),
        None,
        "{file}: the bundled driver's prelude is open"
    );
    let picked: Vec<&Mutant> = mutants.iter().step_by(STRIDE).collect();
    let rejected = run_parallel(&picked, 0, |m: &&Mutant| {
        let want = whole_unit(file, &m.source, &incs);
        let got = compile_with_prelude(&prelude, &m.source).map_err(|e| e.to_string());
        match (&want, &got) {
            (Ok(w), Ok(g)) => assert!(
                w == g,
                "{file}: mutant at line {} lowers differently through the prelude",
                m.line
            ),
            (Err(w), Err(g)) => assert_eq!(w, g, "{file}: mutant at line {}", m.line),
            _ => panic!(
                "{file}: mutant at line {}: whole unit {:?} vs prelude {:?}",
                m.line,
                want.as_ref().err(),
                got.as_ref().err()
            ),
        }
        want.is_err()
    });
    assert_eq!(
        prelude.fallbacks(),
        0,
        "{file}: no bundled mutant may fall back"
    );
    assert_eq!(prelude.served() as usize, picked.len());
    (picked.len(), rejected.into_iter().filter(|r| *r).count())
}

fn ide_mutants() -> Vec<Mutant> {
    let hdr = ide::ide_debug_header();
    CMutationModel::new(ide::IDE_CDEVIL_DRIVER, &[&hdr], CStyle::CDevil).mutants()
}

#[test]
fn ide_cdevil_debug_stubs() {
    let (n, rejected) = differential(
        ide::IDE_CDEVIL_FILE,
        ide::IDE_CDEVIL_DRIVER,
        &ide_mutants(),
        &ide::cdevil_includes(),
    );
    assert!(
        rejected > 0 && rejected < n,
        "both outcomes exercised: {rejected}/{n}"
    );
}

#[test]
fn ide_cdevil_no_assert_stubs() {
    let headers = vec![(
        ide::IDE_HEADER_NAME.to_string(),
        ide::ide_no_assert_header(),
    )];
    differential(
        ide::IDE_CDEVIL_FILE,
        ide::IDE_CDEVIL_DRIVER,
        &ide_mutants(),
        &headers,
    );
}

#[test]
fn ide_cdevil_production_stubs() {
    let headers = vec![(
        ide::IDE_HEADER_NAME.to_string(),
        ide::ide_production_header(),
    )];
    differential(
        ide::IDE_CDEVIL_FILE,
        ide::IDE_CDEVIL_DRIVER,
        &ide_mutants(),
        &headers,
    );
}

#[test]
fn busmouse_cdevil() {
    let includes = busmouse::bm_includes();
    let hdr = &includes[0].1;
    let mutants = CMutationModel::new(busmouse::BM_CDEVIL_DRIVER, &[hdr], CStyle::CDevil).mutants();
    differential(
        busmouse::BM_CDEVIL_FILE,
        busmouse::BM_CDEVIL_DRIVER,
        &mutants,
        &includes,
    );
}

/// The clean drivers too, so the oracle also pins a program that boots.
#[test]
fn clean_drivers() {
    for (file, source, includes) in [
        (
            ide::IDE_CDEVIL_FILE,
            ide::IDE_CDEVIL_DRIVER,
            ide::cdevil_includes(),
        ),
        (
            busmouse::BM_CDEVIL_FILE,
            busmouse::BM_CDEVIL_DRIVER,
            busmouse::bm_includes(),
        ),
    ] {
        let incs: Vec<(&str, &str)> = includes
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let prelude = Prelude::new(file, source, &incs);
        let got = compile_with_prelude(&prelude, source).expect("clean driver compiles");
        assert!(
            whole_unit(file, source, &incs).expect("clean driver compiles") == got,
            "{file}"
        );
        assert_eq!((prelude.served(), prelude.fallbacks()), (1, 0), "{file}");
    }
}

/// The campaign machine keys its prelude to the file and header set: a
/// changed header set rebuilds it, and a first mutant edited before the
/// boundary does not pin the machine to its prefix. Every run matches
/// the rebuild-per-mutant reference.
#[test]
fn campaign_machine_rekeys_its_prelude() {
    use devil::kernel::boot::{run_mutant, CampaignMachine, DEFAULT_FUEL};
    use devil::kernel::fs;

    let files = fs::standard_files();
    let debug = ide::cdevil_includes();
    let production = vec![(
        ide::IDE_HEADER_NAME.to_string(),
        ide::ide_production_header(),
    )];
    let prefix_edit = ide::IDE_CDEVIL_DRIVER.replacen("io_buf[256]", "io_buf[255]", 1);
    assert_ne!(prefix_edit, ide::IDE_CDEVIL_DRIVER);
    let mutant = &ide_mutants()[0];
    let mut machine = CampaignMachine::new(&files, DEFAULT_FUEL);
    for (source, headers) in [
        (prefix_edit.as_str(), &debug),
        (ide::IDE_CDEVIL_DRIVER, &debug),
        (mutant.source.as_str(), &debug),
        (ide::IDE_CDEVIL_DRIVER, &production),
        (mutant.source.as_str(), &production),
        (prefix_edit.as_str(), &production),
    ] {
        let incs: Vec<(&str, &str)> = headers
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let got = machine.run(ide::IDE_CDEVIL_FILE, source, &incs, Some(mutant.line));
        let want = run_mutant(
            ide::IDE_CDEVIL_FILE,
            source,
            &incs,
            Some(mutant.line),
            &files,
            DEFAULT_FUEL,
        );
        assert_eq!(got, want);
        let prelude = machine
            .prelude()
            .expect("a mutant with headers builds the prelude");
        assert!(
            prelude.matches(ide::IDE_CDEVIL_FILE, &incs),
            "rebuilt for the new header set"
        );
    }
    // The production prelude was cut from the pristine driver: it served
    // the two mutants sharing that prefix and fell back for the edit.
    let prelude = machine.prelude().expect("built");
    assert_eq!((prelude.served(), prelude.fallbacks()), (2, 1));
}
