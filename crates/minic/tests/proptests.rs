//! Property tests for minic: a differential check of expression semantics
//! against Rust's own 32-bit integer arithmetic, a bytecode-VM-vs-
//! tree-walker equivalence property, plus front-end totality.

use devil_minic::interp::{Interpreter, NullHost};
use devil_minic::value::{wrap_int, Value};
use devil_minic::vm::Vm;
use proptest::prelude::*;

/// A random arithmetic expression over two variables, as C text and as a
/// Rust closure, for differential evaluation.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    Lit(i32),
    Bin(&'static str, Box<E>, Box<E>),
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        (0i32..1000).prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            prop::sample::select(vec!["+", "-", "*", "&", "|", "^"]),
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| E::Bin(op, Box::new(l), Box::new(r)))
    })
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::Lit(v) => v.to_string(),
            E::Bin(op, l, r) => format!("({} {} {})", l.to_c(), op, r.to_c()),
        }
    }

    fn eval(&self, a: i32, b: i32) -> i32 {
        match self {
            E::A => a,
            E::B => b,
            E::Lit(v) => *v,
            E::Bin(op, l, r) => {
                let (x, y) = (l.eval(a, b), r.eval(a, b));
                match *op {
                    "+" => x.wrapping_add(y),
                    "-" => x.wrapping_sub(y),
                    "*" => x.wrapping_mul(y),
                    "&" => x & y,
                    "|" => x | y,
                    _ => x ^ y,
                }
            }
        }
    }
}

proptest! {
    /// minic evaluates arbitrary integer arithmetic exactly like a 32-bit
    /// C compiler (differential against Rust's wrapping semantics).
    #[test]
    fn arithmetic_matches_c_semantics(e in expr_strategy(), a in any::<i16>(), b in any::<i16>()) {
        let src = format!("int f(int a, int b) {{ return {}; }}", e.to_c());
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 1_000_000);
        let got = interp
            .call("f", &[(a as i64).into(), (b as i64).into()])
            .unwrap()
            .as_int()
            .unwrap();
        let want = e.eval(a as i32, b as i32);
        // minic computes in i64 and wraps on the typed return boundary.
        prop_assert_eq!(wrap_int(got, 32, true) as i32, want, "{}", src);
    }

    /// Shifts match x86 semantics for in-range counts.
    #[test]
    fn shifts_match(x in any::<u16>(), n in 0u32..16) {
        let src = format!("int f(void) {{ return ({x} << {n}) | ({x} >> {n}); }}");
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 100_000);
        let got = interp.call("f", &[]).unwrap().as_int().unwrap();
        let want = ((x as i64) << n) | ((x as i64) >> n);
        prop_assert_eq!(got, want);
    }

    /// wrap_int is a proper truncation: stable under repetition and
    /// agrees with Rust's `as` casts.
    #[test]
    fn wrap_int_matches_rust_casts(v in any::<i64>()) {
        prop_assert_eq!(wrap_int(v, 8, false), (v as u8) as i64);
        prop_assert_eq!(wrap_int(v, 8, true), (v as i8) as i64);
        prop_assert_eq!(wrap_int(v, 16, false), (v as u16) as i64);
        prop_assert_eq!(wrap_int(v, 16, true), (v as i16) as i64);
        prop_assert_eq!(wrap_int(v, 32, true), (v as i32) as i64);
        let once = wrap_int(v, 16, true);
        prop_assert_eq!(wrap_int(once, 16, true), once);
    }

    /// The bytecode VM is observationally identical to the tree-walking
    /// oracle on arbitrary integer arithmetic: same value, same remaining
    /// fuel, same line coverage — even under tight fuel budgets where one
    /// extra burn would flip the result to `OutOfFuel`.
    #[test]
    fn vm_matches_tree_walker(e in expr_strategy(), a in any::<i16>(), b in any::<i16>(), fuel in 0u64..400) {
        let src = format!("int f(int a, int b) {{ return {}; }}", e.to_c());
        let program = devil_minic::compile("t.c", &src).unwrap();
        let args = [Value::Int(a as i64), Value::Int(b as i64)];

        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &args);
        let want_fuel = interp.fuel_left();
        let want_cov = interp.coverage().clone();

        let compiled = program.to_bytecode();
        let mut vh = NullHost::default();
        let mut vm = Vm::new(&compiled, &mut vh, fuel);
        let got = vm.call("f", &args);
        prop_assert_eq!(&got, &want, "value diverged for {}", src);
        prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for {}", src);
        prop_assert_eq!(vm.coverage(), &want_cov, "coverage diverged for {}", src);
    }

    /// Superinstruction fusion is observationally invisible: lowering a
    /// random checked program with the peephole pass on and off yields
    /// identical outcomes, console output, coverage bitmaps and remaining
    /// fuel on the VM — under tight budgets too, so the fuel-burn
    /// *sequence* provably matches (one reordered burn would flip which
    /// run exhausts first), and against the tree-walking oracle as well.
    #[test]
    fn fusion_on_and_off_are_identical(e in expr_strategy(), a in any::<i16>(), b in any::<i16>(), fuel in 0u64..600) {
        // Wrap the random expression in the loop shapes the pass targets
        // (const-bound while, local-bound while, prefix-decrement spin,
        // port spin) so fused ops actually execute.
        let src = format!(
            "int f(int a, int b) {{
                int t = 0;
                int r = 3;
                int acc = 0;
                while (t < 4) {{ t++; acc += {expr}; }}
                while (t < b) {{ t++; }}
                do {{ acc ^= t; }} while (--r > 0);
                while ((inb(0x1F7) & 0x80) == 0) {{ acc--; }}
                return acc;
            }}",
            expr = e.to_c()
        );
        let program = devil_minic::compile("t.c", &src).unwrap();
        let args = [Value::Int(a as i64), Value::Int(b as i64)];

        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &args);
        let want_fuel = interp.fuel_left();
        let want_cov = interp.coverage().clone();
        drop(interp);

        let unfused = program.to_bytecode_unfused();
        let fused = program.to_bytecode();
        prop_assert_eq!(unfused.fused_op_count(), 0);
        prop_assert!(fused.fused_op_count() > 0, "harness loops must fuse");
        for compiled in [&unfused, &fused] {
            let mut vh = NullHost::default();
            let mut vm = Vm::new(compiled, &mut vh, fuel);
            let got = vm.call("f", &args);
            prop_assert_eq!(&got, &want, "value diverged for {}", src);
            prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for {}", src);
            prop_assert_eq!(vm.coverage(), &want_cov, "coverage diverged for {}", src);
            drop(vm);
            prop_assert_eq!(&vh.log, &ih.log, "console diverged for {}", src);
        }
    }

    /// The block-transfer builtins match the oracle element for element,
    /// including partial transfers under fuel starvation and the
    /// out-of-bounds tail behaviour of a short destination.
    #[test]
    fn block_builtins_match_tree_walker(count in 0i64..40, fuel in 0u64..400) {
        let src = format!(
            "unsigned short buf[16];
             unsigned char bytes[16];
             int f(void) {{
                 insw(0x1F0, buf, {count});
                 outsw(0x1F0, buf, {count});
                 insb(0x1F0, bytes, {count});
                 outsb(0x1F0, bytes, {count});
                 return buf[0] + bytes[0];
             }}"
        );
        let program = devil_minic::compile("t.c", &src).unwrap();
        let mut ih = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut ih, fuel);
        let want = interp.call("f", &[]);
        let want_fuel = interp.fuel_left();
        let compiled = program.to_bytecode();
        let mut vh = NullHost::default();
        let mut vm = Vm::new(&compiled, &mut vh, fuel);
        let got = vm.call("f", &[]);
        prop_assert_eq!(&got, &want, "value diverged for count {}", count);
        prop_assert_eq!(vm.fuel_left(), want_fuel, "fuel diverged for count {}", count);
    }

    /// The preprocessor and parser never panic on printable garbage, and
    /// whatever compiles also lowers to bytecode without panicking.
    #[test]
    fn frontend_totality(src in "[ -~\\n]{0,300}") {
        if let Ok(p) = devil_minic::compile("fuzz.c", &src) {
            let _ = p.to_bytecode();
        }
    }

    /// Comparison chains produce strictly 0/1.
    #[test]
    fn comparisons_are_boolean(a in any::<i32>(), b in any::<i32>()) {
        let src = "int f(int a, int b) { return (a < b) + (a > b) + (a == b); }";
        let program = devil_minic::compile("t.c", src).unwrap();
        let mut host = NullHost::default();
        let mut interp = Interpreter::new(&program, &mut host, 100_000);
        let got = interp
            .call("f", &[(a as i64).into(), (b as i64).into()])
            .unwrap()
            .as_int()
            .unwrap();
        prop_assert_eq!(got, 1, "exactly one of <, >, == holds");
    }
}

/// The part of the prelude property's header every case keeps.
const HEADER_BASE: &str = "typedef unsigned char u8;\n#define K 7\n#define TWICE(x) ((x) + (x))\n\
    #define NEG(x) (-(x))\nstatic int hg = 3;\nstruct P_ { int a; u8 b; };\ntypedef struct P_ P;\n\
    static int h1(int v) { return TWICE(v) + hg; }\n";

/// Further header pieces, in dependency order, with whether each is
/// *rare* (kept by one case in 16; the others by every other case):
/// globals, a struct only forward-declared, bodies that call each
/// other, a prototype the driver may define, and a body naming a symbol
/// only a driver defines.
const HEADER_PIECES: &[(&str, bool)] = &[
    ("static const int hk = K;", false),
    ("struct F_;", true),
    ("static int h2(void) { int i; int s = 0; for (i = 0; i < 4; i++) { s += h1(i); } return s; }", false),
    ("int later(void);\nstatic int h3(void) { return later() + 1; }", true),
    ("static int h5(int x) { switch (x) { case 1: return K; default: return NEG(x); } }", false),
    ("static int h4(void) { return drv_only; }", true),
];

/// Driver pieces — the text after the `#include`: code using the header,
/// and (rare) compile errors and edits that reach back into the prefix.
const DRIVER_PIECES: &[(&str, bool)] = &[
    ("int drv_only;", true),
    ("int d1(void) { return h1(K) + hg; }", false),
    ("int d2(void) { P p; p.a = TWICE(2); p.b = 1; return p.a + p.b; }", false),
    ("int d3(int n) { return n > 0 ? h1(n) : hg; }", false),
    ("int later(void) { return 5; }", true),
    ("#define K 8", true),
    ("#define FRESH 11\nint d4(void) { return FRESH; }", false),
    ("struct F_ { int q; };", true),
    ("int h1(u8 v);", true),
    ("int h1(int v);", true),
    ("int d5(void) { return undeclared; }", true),
    ("int d6(void) { return TWICE(1, 2); }", true),
    ("int d7(void) { return h1(2) + ; }", true),
    ("int d8(void) { return strcmp(\"a\", \"b\") + d1(); }", false),
    ("static int hg;", true),
];

/// Text before the `#include` line.
const PREFIX_PIECES: &[&str] = &["", "/* glue */\n", "int early;\n", "static int early2 = 1;\n"];

/// The pieces `mask` keeps (a rare piece also needs its bit in `rare`,
/// which the cases draw as the AND of three words).
fn pick(pieces: &[(&str, bool)], mask: u32, rare: u32) -> String {
    let keep = |i: usize, is_rare: bool| mask >> i & 1 == 1 && (!is_rare || rare >> i & 1 == 1);
    pieces
        .iter()
        .enumerate()
        .filter(|(i, (_, is_rare))| keep(*i, *is_rare))
        .map(|(_, (p, _))| format!("{p}\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The prelude path gives exactly the whole-unit compile: a
    /// structurally equal program, or the same error text — whether it
    /// serves the compile or declines to the full one.
    #[test]
    fn prelude_matches_the_whole_unit(
        header in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        driver in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        base_driver in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        prefix in prop::sample::select(PREFIX_PIECES.to_vec()),
    ) {
        let rare = |w: (u32, u32, u32, u32)| (w.0, w.1 & w.2 & w.3);
        let (h, hr) = rare(header);
        let header = format!("{HEADER_BASE}{}", pick(HEADER_PIECES, h, hr));
        let includes = [("h.h", header.as_str())];
        let (d, dr) = rare(driver);
        let source = format!("{prefix}#include \"h.h\"\n{}", pick(DRIVER_PIECES, d, dr));
        // The prelude is cut from a sibling source sharing the prefix, as
        // a campaign machine cuts it from its first mutant.
        let (b, br) = rare(base_driver);
        let base = format!("{prefix}#include \"h.h\"\n{}", pick(DRIVER_PIECES, b, br));
        let prelude = devil_minic::Prelude::new("drv.c", &base, &includes);
        let got = devil_minic::compile_with_prelude(&prelude, &source).map_err(|e| e.to_string());
        let want = devil_minic::compile_with_includes("drv.c", &source, &includes)
            .map(|p| p.to_bytecode())
            .map_err(|e| e.to_string());
        match (&got, &want) {
            (Ok(g), Ok(w)) => prop_assert!(g == w, "programs differ"),
            _ => prop_assert_eq!(got.err(), want.err()),
        }
        prop_assert_eq!(prelude.served() + prelude.fallbacks(), 1);
    }
}
