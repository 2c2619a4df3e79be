//! Compile the stub headers once: a checked and lowered prelude.
//!
//! A mutation campaign compiles thousands of drivers that differ in one
//! line and share everything up to their last `#include` — in a CDevil
//! driver, ~1.9k lines of generated stub header. A [`Prelude`] runs the
//! front end over that shared prefix once and keeps the compiler state at
//! its end, the *prelude boundary*:
//!
//! * the preprocessor's macro and file tables;
//! * the parser's typedefs and struct table;
//! * the checker's environment, with the prefix's globals and bodies
//!   already checked;
//! * the prefix's lowered and fused bodies (shared behind `Arc`, never
//!   copied per mutant) and the interned tables.
//!
//! [`compile_with_prelude`] then preprocesses, parses, checks and lowers
//! only the text after the boundary, continuing the line and offset
//! numbering, and appends the result to the prefix's program. Its output
//! is structurally equal to [`crate::Program::to_bytecode`] of
//! [`crate::compile_with_includes`] over the whole source, and its errors
//! are the same errors.
//!
//! # The boundary and when the prelude declines
//!
//! The boundary is the end of the driver's last `#include` line, so
//! driver declarations before the include (the IDE driver's `io_buf`)
//! belong to the prefix. A compile takes the prelude path only when the
//! result is provably the whole-unit result; otherwise it *declines* and
//! runs the full compile, counted by [`Prelude::fallbacks`]:
//!
//! * the source does not start with the prefix bytes, or
//!   [`Prelude::matches`] says the header set differs (the caller's
//!   check);
//! * the boundary falls inside a block comment or string literal, a
//!   conditional block, a macro call, or an open brace or declaration —
//!   the prefix does not stand alone;
//! * the prefix does not check on its own, e.g. a header body names a
//!   symbol the driver only defines later;
//! * the driver text `#define`s or `#undef`s a name the prefix's
//!   expansion reads, completes a struct the prefix only declared,
//!   re-types a function the prefix calls, or defines a function the
//!   prefix only declared (or a builtin) — each would change how the
//!   prefix compiles inside the whole unit.
//!
//! The first three make the whole prelude *closed*: it declines every
//! compile. A prelude over a driver with no headers has nothing to cache
//! and compiles in full without counting fallbacks. Conditionals inside
//! the headers need no special case (unlike for the pre-lexing
//! [`crate::pp::IncludeCache`]): the prefix runs through the real
//! preprocessor once.

use crate::ast::Unit;
use crate::bytecode::{self, CompiledProgram, SharedProgram, SymbolIndex, Symbols};
use crate::check::{self, Env};
use crate::error::CError;
use crate::parser;
use crate::pp::{self, PpPrelude};
use crate::types::{CType, StructId};
use crate::{coverage, fuse};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The compiler state at a driver's prelude boundary, shared by every
/// compile of that driver's mutants (see the [module docs](self)).
///
/// `Send + Sync`: one instance can serve every worker of a campaign or
/// the campaign service.
#[derive(Debug)]
pub struct Prelude {
    file: String,
    includes: Vec<(String, String)>,
    /// The source bytes up to the boundary (empty when there is none).
    prefix: String,
    /// The boundary state, or why there is none (a closed prelude).
    open: Result<Open, String>,
    served: AtomicU64,
    fallbacks: AtomicU64,
}

#[derive(Debug)]
struct Open {
    pp: PpPrelude,
    typedefs: HashMap<String, CType>,
    unit: Unit,
    env: Env,
    /// Struct ids the prefix declared without defining them.
    incomplete: Vec<usize>,
    symbols: SymbolIndex,
    lowered: SharedProgram,
}

impl Prelude {
    /// Compile the prefix of `source` (the text up to the end of its last
    /// `#include` line) against `includes` and capture the state at its
    /// end. Never fails: a prefix that cannot stand alone gives a closed
    /// prelude, which declines every compile.
    pub fn new(file: &str, source: &str, includes: &[(&str, &str)]) -> Prelude {
        let cut = pp::prelude_boundary(source);
        let prefix = &source[..cut.unwrap_or(0)];
        let open = match cut {
            _ if includes.is_empty() => Err("no headers".to_string()),
            None => Err("no #include line to cut after outside comments and strings".to_string()),
            Some(_) => Open::build(file, prefix, includes),
        };
        Prelude {
            file: file.to_string(),
            includes: includes
                .iter()
                .map(|(n, t)| (n.to_string(), t.to_string()))
                .collect(),
            prefix: prefix.to_string(),
            open,
            served: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Whether this prelude was built for `file` over exactly this header
    /// set.
    pub fn matches(&self, file: &str, includes: &[(&str, &str)]) -> bool {
        self.file == file
            && self.includes.len() == includes.len()
            && self
                .includes
                .iter()
                .zip(includes)
                .all(|((n, t), (m, u))| n == m && t == u)
    }

    /// Whether `source` starts with the text this prelude was cut from
    /// (everything up to its last `#include` line; empty when there was
    /// no such line).
    pub fn shares_prefix(&self, source: &str) -> bool {
        source.starts_with(&self.prefix)
    }

    /// The driver file this prelude compiles.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Why the prelude is closed, or `None` when it is open.
    pub fn closed_reason(&self) -> Option<&str> {
        self.open.as_ref().err().map(String::as_str)
    }

    /// Compiles that took the prelude path.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Compiles of a driver with headers that declined the prelude path
    /// and ran the full compile.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn include_refs(&self) -> Vec<(&str, &str)> {
        self.includes
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect()
    }

    /// The prelude-path compile, or `None` to decline.
    fn compile_suffix(&self, source: &str) -> Option<Result<CompiledProgram, CError>> {
        let open = self.open.as_ref().ok()?;
        if !self.shares_prefix(source) {
            return None;
        }
        let includes = self.include_refs();
        let cut = self.prefix.len();
        let tokens = match pp::preprocess_suffix(&open.pp, &self.file, source, cut, &includes) {
            Ok(Some(tokens)) => tokens,
            Ok(None) => return None,
            Err(e) => return Some(Err(e)),
        };
        let unit = match parser::parse_suffix(tokens, &open.typedefs, open.unit.structs.clone()) {
            Ok(unit) => unit,
            Err(e) => return Some(Err(e)),
        };
        if open
            .incomplete
            .iter()
            .any(|&i| !unit.structs.get(StructId(i)).fields.is_empty())
        {
            return None;
        }
        match check::check_suffix(&open.env, &unit.items, &unit.structs) {
            Ok(true) => {}
            Ok(false) => return None,
            Err(e) => return Some(Err(e)),
        }
        let mut compiled = open.lowered.thaw(unit.files.clone());
        let bounds = coverage::line_bounds(&unit);
        if compiled.line_bounds.len() < bounds.len() {
            compiled.line_bounds.resize(bounds.len(), 0);
        }
        for (b, n) in compiled.line_bounds.iter_mut().zip(bounds) {
            *b = (*b).max(n);
        }
        let symbols = Symbols::new(
            open.unit.functions().chain(unit.functions()).collect(),
            open.unit.globals().chain(unit.globals()).collect(),
            &unit.structs,
            Some(&open.symbols),
        );
        let first = compiled.funcs.len();
        bytecode::lower_items(&mut compiled, &symbols, &unit.items, true);
        fuse::fuse_from(&mut compiled, first);
        Some(Ok(compiled))
    }
}

impl Open {
    fn build(file: &str, prefix: &str, includes: &[(&str, &str)]) -> Result<Open, String> {
        let (tokens, pp) = pp::preprocess_prefix(file, prefix, includes)?;
        let stand_alone = |e: CError| format!("the prefix does not compile on its own: {e}");
        let (unit, typedefs) =
            parser::parse_prefix(tokens, pp.files().to_vec()).map_err(stand_alone)?;
        let env = check::check_unit(&unit).map_err(stand_alone)?;
        let mut compiled = CompiledProgram::empty(coverage::line_bounds(&unit), unit.files.clone());
        let symbols = SymbolIndex::new(unit.functions(), unit.globals(), &unit.structs);
        bytecode::lower_items(
            &mut compiled,
            &Symbols::new(
                unit.functions().collect(),
                unit.globals().collect(),
                &unit.structs,
                Some(&symbols),
            ),
            &unit.items,
            true,
        );
        fuse::fuse(&mut compiled);
        let incomplete = (0..unit.structs.len())
            .filter(|&i| unit.structs.get(StructId(i)).fields.is_empty())
            .collect();
        Ok(Open {
            symbols,
            pp,
            typedefs,
            env,
            incomplete,
            lowered: SharedProgram::new(compiled),
            unit,
        })
    }
}

/// Compile a mutant of `prelude`'s driver: through the prelude when it is
/// open and `source` shares its prefix, otherwise through the full
/// compile (counted in [`Prelude::fallbacks`] when the driver has
/// headers). Either way the result equals [`crate::compile_with_includes`]
/// over the prelude's file and headers followed by
/// [`Program::to_bytecode`](crate::Program::to_bytecode).
///
/// # Errors
///
/// Exactly the error the full compile reports.
pub fn compile_with_prelude(prelude: &Prelude, source: &str) -> Result<CompiledProgram, CError> {
    if let Some(result) = prelude.compile_suffix(source) {
        prelude.served.fetch_add(1, Ordering::Relaxed);
        return result;
    }
    if !prelude.includes.is_empty() {
        prelude.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
    let includes = prelude.include_refs();
    Ok(crate::compile_with_includes(&prelude.file, source, &includes)?.to_bytecode())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "typedef unsigned int u32;\n\
        #define K 7\n\
        #define TWICE(x) ((x) + (x))\n\
        struct Pair_ { int a; u32 b; };\n\
        typedef struct Pair_ Pair;\n\
        static int base = K;\n\
        static int helper(int v) { return TWICE(v) + base; }\n";

    const DRIVER: &str = "/* driver */\n\
        int early;\n\
        #include \"h.h\"\n\
        int probe(void)\n\
        {\n\
            Pair p;\n\
            p.a = helper(K);\n\
            return p.a + early;\n\
        }\n";

    fn whole(
        file: &str,
        source: &str,
        includes: &[(&str, &str)],
    ) -> Result<CompiledProgram, String> {
        crate::compile_with_includes(file, source, includes)
            .map(|p| p.to_bytecode())
            .map_err(|e| e.to_string())
    }

    /// Compile `source` through a prelude cut from `base` and check the
    /// result against the whole-unit compile; returns (served, fallbacks).
    fn through(base: &str, source: &str, header: &str) -> (u64, u64) {
        let incs = [("h.h", header)];
        let prelude = Prelude::new("drv.c", base, &incs);
        let got = compile_with_prelude(&prelude, source).map_err(|e| e.to_string());
        let want = whole("drv.c", source, &incs);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert!(g == w, "programs differ for {source:?}"),
            _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{source:?}"),
        }
        (prelude.served(), prelude.fallbacks())
    }

    fn edit(from: &str, to: &str) -> String {
        assert!(DRIVER.contains(from), "{from}");
        DRIVER.replacen(from, to, 1)
    }

    #[test]
    fn prelude_is_shareable() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Prelude>();
    }

    #[test]
    fn driver_edits_after_the_boundary_take_the_prelude() {
        assert_eq!(through(DRIVER, DRIVER, HEADER), (1, 0));
        // A checked program, a type error, a parse error, a pp error.
        for (from, to) in [
            ("helper(K)", "helper(K + 1)"),
            ("p.a + early", "p + early"),
            ("return p.a", "return p.a;;;)"),
            ("helper(K)", "TWICE(K, K)"),
        ] {
            assert_eq!(through(DRIVER, &edit(from, to), HEADER), (1, 0), "{to}");
        }
    }

    #[test]
    fn an_edited_prefix_falls_back() {
        assert_eq!(
            through(DRIVER, &edit("int early;", "int early = 3;"), HEADER),
            (0, 1)
        );
        assert_eq!(
            through(DRIVER, &edit("int early;", "u32 early;"), HEADER),
            (0, 1)
        );
    }

    #[test]
    fn a_different_header_set_does_not_match() {
        let prelude = Prelude::new("drv.c", DRIVER, &[("h.h", HEADER)]);
        assert!(prelude.matches("drv.c", &[("h.h", HEADER)]));
        assert!(!prelude.matches("drv.c", &[("h.h", "int other;")]));
        assert!(!prelude.matches("drv.c", &[("g.h", HEADER)]));
        assert!(!prelude.matches("drv.c", &[("h.h", HEADER), ("g.h", "")]));
        assert!(!prelude.matches("other.c", &[("h.h", HEADER)]));
    }

    #[test]
    fn a_boundary_inside_a_block_comment_closes_the_prelude() {
        let src = DRIVER.replace(
            "#include \"h.h\"\n",
            "#include \"h.h\" /* open\n still */\n",
        );
        let prelude = Prelude::new("drv.c", &src, &[("h.h", HEADER)]);
        assert!(prelude.closed_reason().is_some());
        assert_eq!(through(&src, &src, HEADER), (0, 1));
    }

    #[test]
    fn a_header_naming_a_later_driver_symbol_closes_the_prelude() {
        let header = format!("{HEADER}static int peek(void) {{ return late; }}\n");
        let src = format!("{DRIVER}int late;\n");
        let prelude = Prelude::new("drv.c", &src, &[("h.h", &header)]);
        assert!(
            prelude.closed_reason().unwrap().contains("undeclared"),
            "{:?}",
            prelude.closed_reason()
        );
        assert_eq!(through(&src, &src, &header), (0, 1));
    }

    #[test]
    fn a_header_with_conditionals_is_compiled_once_like_any_other() {
        // Uncacheable for the pre-lexing `IncludeCache`, but the prelude
        // runs the real preprocessor over it, conditionals and all.
        let header = format!("#ifndef SKIP\n{HEADER}#else\nbad bad ###\n#endif\n");
        assert_eq!(
            through(DRIVER, &edit("helper(K)", "helper(2)"), &header),
            (1, 0)
        );
    }

    #[test]
    fn boundaries_that_do_not_stand_alone_close_the_prelude() {
        for src in [
            // Inside an open brace.
            "int f(void) {\n#include \"h.h\"\nreturn K; }\n".to_string(),
            // A macro call whose arguments continue past the boundary.
            "#define ID(x) x\nint v = ID(\n#include \"h.h\"\n3);\n".to_string(),
            // A declaration left open.
            "static int\n#include \"h.h\"\nlate = 1;\n".to_string(),
            // An unterminated conditional.
            "#ifndef X\n#include \"h.h\"\n#endif\nint z;\n".to_string(),
        ] {
            let prelude = Prelude::new("drv.c", &src, &[("h.h", HEADER)]);
            assert!(prelude.closed_reason().is_some(), "{src:?}");
            assert_eq!(through(&src, &src, HEADER), (0, 1), "{src:?}");
        }
    }

    #[test]
    fn driver_text_that_changes_the_prefix_declines() {
        for extra in [
            // Redefines a macro the header's expansion read.
            "#undef K\n#define K 8\n",
            // Same body, new location: still a different expansion.
            "#define K 7\n",
            // Completes a struct the header only declared.
            "struct Fwd_ { int q; };\n",
            // Re-types a function the header calls.
            "int helper(u32 v);\n",
            // Defines a function the header only declared.
            "int later(void) { return 2; }\n",
            // Defines a builtin the header calls.
            "int panic(const char *m) { return 0; }\n",
        ] {
            let header = format!("{HEADER}struct Fwd_;\nint later(void);\nstatic int poke(void) {{ panic(\"x\"); return later(); }}\n");
            let src = format!("{DRIVER}{extra}");
            assert_eq!(through(DRIVER, &src, &header), (0, 1), "{extra:?}");
        }
        // Harmless additions keep the prelude path.
        for extra in [
            "#define NEW 1\nint n = NEW;\n",
            "int helper(int v);\n",
            "struct Other_ { int r; };\n",
        ] {
            let src = format!("{DRIVER}{extra}");
            assert_eq!(through(DRIVER, &src, HEADER), (1, 0), "{extra:?}");
        }
    }

    #[test]
    fn a_driver_without_headers_compiles_in_full_without_counting() {
        let src = "int f(void) { return 1; }\n";
        let prelude = Prelude::new("c.c", src, &[]);
        assert!(
            compile_with_prelude(&prelude, src).unwrap()
                == crate::compile("c.c", src).unwrap().to_bytecode()
        );
        assert_eq!((prelude.served(), prelude.fallbacks()), (0, 0));
    }
}
