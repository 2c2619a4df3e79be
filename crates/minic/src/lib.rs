//! # devil-minic — a C-subset compiler and interpreter
//!
//! The Devil paper compiles mutated drivers with gcc and boots them in a
//! real Linux kernel. This crate stands in for both: a faithful C-subset
//! front end whose **type checker** reproduces the compile-time error
//! detection of a kernel build (nominal struct types, pointer/integer
//! discipline, arity checking — with warnings promoted to errors, as kernel
//! builds do), and a fuel-bounded **interpreter** that executes the driver
//! against simulated hardware so run-time outcomes (assertion, crash, hang,
//! panic) can be observed deterministically.
//!
//! Pipeline: [`pp`] (preprocessor) → [`parser`] → [`check`] (the
//! "compile") → [`bytecode`] (lowering, with small-call inlining and the
//! superinstruction fusion pass) → [`vm`] (the "run").
//!
//! Mutation campaigns compile thousands of drivers that share their stub
//! headers and differ in one line. A [`Prelude`] runs that pipeline once
//! over everything up to a driver's last `#include` — the *prelude
//! boundary* — and [`compile_with_prelude`] then compiles only the text
//! after it, producing exactly the whole-unit result. It declines (and
//! runs the full compile) whenever it cannot prove that: an edit before
//! the boundary, a boundary inside a comment, macro call or open brace,
//! headers that do not check on their own, or driver text that would
//! change how the headers compile (see the [`Prelude`] docs).
//!
//! The tree-walking [`interp`] predates the VM and survives as its
//! differential oracle: both engines execute the same checked [`Program`]
//! with observably identical results (see `bytecode`'s equivalence
//! contract). New harness code should lower once with
//! [`Program::to_bytecode`] and boot mutants through [`vm::Vm`].
//!
//! ```
//! use devil_minic::{compile, interp::{Interpreter, NullHost}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile("add.c", "int add(int a, int b) { return a + b; }")?;
//! let mut host = NullHost::default();
//! let mut interp = Interpreter::new(&program, &mut host, 10_000);
//! let result = interp.call("add", &[2.into(), 40.into()])?;
//! assert_eq!(result.as_int(), Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod check;
pub mod coverage;
pub mod deadline;
pub mod error;
mod fuse;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pp;
mod prelude;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

pub use bytecode::CompiledProgram;
pub use coverage::Coverage;
pub use deadline::Deadline;
pub use error::{CError, CPhase};
pub use prelude::{compile_with_prelude, Prelude};

/// A fully checked program, ready to interpret.
#[derive(Debug, Clone)]
pub struct Program {
    /// The translation unit.
    pub unit: ast::Unit,
    /// Struct layouts resolved by the checker.
    pub structs: types::StructTable,
}

/// Preprocess, parse and type-check one translation unit.
///
/// # Errors
///
/// Returns the first preprocessing or syntax error, or the full list of
/// type errors, as a [`CError`].
pub fn compile(file: &str, source: &str) -> Result<Program, CError> {
    compile_with_includes(file, source, &[])
}

/// Like [`compile`], with a set of `(name, text)` virtual include files for
/// `#include "name"` resolution — how CDevil drivers pull in their
/// generated stub header.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_includes(
    file: &str,
    source: &str,
    includes: &[(&str, &str)],
) -> Result<Program, CError> {
    let tokens = pp::preprocess(file, source, includes)?;
    let unit = parser::parse(tokens)?;
    let structs = check::check(&unit)?;
    Ok(Program { unit, structs })
}

/// Like [`compile_with_includes`], resolving includes against a pre-lexed
/// [`pp::IncludeCache`]: only the driver file pays for lexing, but the
/// headers are still preprocessed, parsed and checked on every compile.
/// Campaigns compile through a [`Prelude`] instead, which does all of
/// that once.
///
/// # Errors
///
/// Identical to [`compile_with_includes`] over `cache.includes()`.
pub fn compile_with_cache(
    file: &str,
    source: &str,
    cache: &pp::IncludeCache,
) -> Result<Program, CError> {
    let tokens = pp::preprocess_cached(file, source, cache)?;
    let unit = parser::parse(tokens)?;
    let structs = check::check(&unit)?;
    Ok(Program { unit, structs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let p = compile("t.c", "int main(void) { return 7; }").unwrap();
        assert_eq!(p.unit.functions().count(), 1);
    }

    #[test]
    fn compile_reports_type_errors() {
        let err = compile("t.c", "int f(void) { return g(); }").unwrap_err();
        assert_eq!(err.phase, CPhase::Check);
    }

    #[test]
    fn include_resolution() {
        let p = compile_with_includes(
            "drv.c",
            "#include \"hdr.h\"\nint use(void) { return helper(); }",
            &[("hdr.h", "static int helper(void) { return 3; }")],
        )
        .unwrap();
        assert_eq!(p.unit.functions().count(), 2);
    }
}
