//! Compile-to-bytecode lowering for checked programs.
//!
//! The tree-walking interpreter ([`crate::interp`]) resolves every variable
//! with a string `HashMap` lookup, re-walks `Box`ed AST nodes per
//! evaluation, and re-allocates every string literal it touches. This
//! module lowers a checked [`Program`] once into a flat [`CompiledProgram`]
//! — numeric frame/global slots, precomputed jump offsets, interned
//! constants — which [`crate::vm::Vm`] then executes with a single
//! flat-dispatch loop.
//!
//! # Equivalence contract
//!
//! The VM must be *observationally identical* to the tree-walker: same
//! result values, same [`crate::interp::RunError`]s (kind, file, line),
//! same console output, same line coverage, and — crucially — the same
//! **fuel-burn sequence**, because `OutOfFuel` classification depends on
//! the exact point execution stops. The lowering therefore:
//!
//! * emits exactly one burn per AST node, in tree-walk evaluation order
//!   (a node's burn precedes its children's, mirroring
//!   `Interpreter::eval`); leaf ops self-burn, interior nodes get a
//!   leading [`Op::Line`];
//! * resolves every identifier to a numeric slot at lowering time, but
//!   keeps the *runtime* object model (object ids, scope release order,
//!   free-list reuse) byte-compatible so synthetic pointer addresses and
//!   `UseAfterScope` faults agree;
//! * folds constant subtrees only when they cannot fault, and records the
//!   burn sequence the folded subtree would have produced so fuel and
//!   coverage accounting are unchanged ([`Op::Const`]/[`Op::ConstN`]).
//!
//! The tree-walker stays alive as the differential oracle; the
//! `vm_differential` integration test and the minic proptests pin the
//! contract.
//!
//! # Superinstructions
//!
//! Driver boots are dominated by polling loops — `while (t < 20000)`,
//! `while ((inb(port) & BUSY) != 0)`, `while (--retries > 0)` — whose
//! bodies lower to 4–8 tiny ops per iteration, each paying a full
//! dispatch round. A post-lowering peephole pass ([`fuse`]) collapses the
//! dominant shapes into single *superinstructions*:
//!
//! * **load + compare + branch** (`t < 20000` loop conditions),
//! * **load + binop-const + compare + branch** (`(s & 0x80) == 0`),
//! * **incdec + compare + branch** (`--retries > 0`, prefix or postfix),
//! * **port-read + mask + compare** (status-register spins over
//!   `inb`/`inw`/`inl` with a constant port), and
//! * the for-loop step+back-jump pair (`i++` + `Jump`).
//!
//! Each fused op is described by a [`FusedOp`] in a side table
//! ([`CompiledProgram`]`::fused`), keeping [`Op`] itself small; the
//! branchless flavour ([`FuseBr::None`]) also folds interior
//! `Line*;Load;BinConst` runs of straight-line code. The pass preserves
//! the equivalence contract **exactly**: every fused op replays the burn
//! sequence of the ops it replaces, in order, interleaved with the same
//! side effects and the same fault sites, so fuel exhaustion, coverage
//! and device traffic are bit-identical with fusion on or off. A fused
//! op never spans a branch-in point — any interior jump target vetoes
//! the match (`crate::fuse` owns that analysis and the target remap).
//!
//! The unfused encoding stays reachable through
//! [`Program::to_bytecode_unfused`], which the differential tests and the
//! `vm_exec` bench use as the A/B baseline.

use crate::ast::*;
use crate::coverage;
use crate::interp::FaultKind;
use crate::types::{CType, StructId, StructTable};
use crate::value::{Place, Value};
use crate::Program;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Store-coercion applied when a value lands in a typed object — the
/// lowered form of `Interpreter::coerce_store` (integer targets truncate,
/// everything else passes through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coerce {
    /// Non-integer target: store as-is.
    None,
    /// Integer target: wrap to width/signedness; pointers flatten to the
    /// synthetic address, strings to the string sentinel.
    Int {
        /// Signedness of the target type.
        signed: bool,
        /// Width in bits.
        bits: u8,
    },
}

impl Coerce {
    fn of(ty: &CType) -> Coerce {
        match ty {
            CType::Int { signed, bits } => Coerce::Int { signed: *signed, bits: *bits },
            _ => Coerce::None,
        }
    }
}

/// Lowered cast target — just enough of [`CType`] to replicate
/// `Interpreter::eval`'s cast arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CastKind {
    /// Cast to an integer type.
    Int {
        /// Signedness of the target.
        signed: bool,
        /// Width in bits.
        bits: u8,
    },
    /// Cast to any pointer type.
    Ptr,
    /// Cast to `void`.
    Void,
    /// Anything else (array/struct targets): a runtime `BadValue` fault.
    Other,
}

impl CastKind {
    fn of(ty: &CType) -> CastKind {
        match ty {
            CType::Int { signed, bits } => CastKind::Int { signed: *signed, bits: *bits },
            CType::Ptr(_) => CastKind::Ptr,
            CType::Void => CastKind::Void,
            CType::Array(_, _) | CType::Struct(_) => CastKind::Other,
        }
    }
}

/// The kernel-environment builtins, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the C builtins
pub(crate) enum Builtin {
    Inb,
    Inw,
    Inl,
    Outb,
    Outw,
    Outl,
    Insb,
    Insw,
    Outsb,
    Outsw,
    Printk,
    Panic,
    Udelay,
    Mdelay,
    Strcmp,
    Memset,
    Memcpy,
}

fn builtin_of(name: &str) -> Option<Builtin> {
    // Mirrors the `known` list in `Interpreter::try_builtin`.
    Some(match name {
        "inb" => Builtin::Inb,
        "inw" => Builtin::Inw,
        "inl" => Builtin::Inl,
        "outb" => Builtin::Outb,
        "outw" => Builtin::Outw,
        "outl" => Builtin::Outl,
        "insb" => Builtin::Insb,
        "insw" => Builtin::Insw,
        "outsb" => Builtin::Outsb,
        "outsw" => Builtin::Outsw,
        "printk" => Builtin::Printk,
        "panic" => Builtin::Panic,
        "udelay" => Builtin::Udelay,
        "mdelay" => Builtin::Mdelay,
        "strcmp" => Builtin::Strcmp,
        "memset" => Builtin::Memset,
        "memcpy" => Builtin::Memcpy,
        _ => return None,
    })
}

/// Sentinel field index for a member name no struct defines (unreachable
/// after type checking; faults `BadValue` like the tree-walker).
pub(crate) const NO_FIELD: u16 = u16::MAX;

/// One VM instruction. `line` payloads are packed `(file_id, line)` ids
/// (see [`crate::token::pack_line`]); `target`s are absolute indices into
/// the owning function's op vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Burn fuel + record coverage for one AST node entry.
    Line(u32),
    /// Folded single-node constant: burn `line`, push `consts[cidx]`.
    Const { cidx: u32, line: u32 },
    /// Folded constant subtree: burn every line of `burn_seqs[seq]` in
    /// order, then push `consts[cidx]`.
    ConstN { cidx: u32, seq: u32 },
    /// Push `consts[cidx]` without burning (synthesised values, e.g. the
    /// implicit `return 0`).
    PushConst { cidx: u32 },
    /// Identifier rvalue, local slot (burns `line`; arrays decay).
    LoadLocal { slot: u16, line: u32 },
    /// Identifier rvalue, global (burns `line`; arrays decay).
    LoadGlobal { gidx: u16, line: u32 },
    /// Identifier lvalue, local slot (no burn — mirrors `lvalue`).
    PlaceLocal { slot: u16, line: u32 },
    /// Identifier lvalue, global.
    PlaceGlobal { gidx: u16, line: u32 },
    /// Pop a pointer value, push its place (`*p` lvalue).
    PtrPlace { line: u32 },
    /// Pop index then base values, push the indexed place.
    IndexPlace { line: u32, idx_line: u32 },
    /// Pop a pointer value, push its place (`p->f` base).
    MemberArrow { line: u32 },
    /// Extend the top place with one struct field step.
    MemberStep { fidx: u16, line: u32 },
    /// Pop a place, push the value read through it.
    ReadPlace { line: u32 },
    /// Pop a struct rvalue, push one field of it.
    MemberValue { fidx: u16, line: u32 },
    /// Pop a place, push a pointer to it (wild if into a struct interior).
    AddrOf,
    /// Pop place and value, write, push the stored value.
    Store { line: u32 },
    /// Compound assignment: read-modify-write through the popped place.
    StoreBin { op: BinOp, line: u32 },
    /// Fused `x = <expr>;` statement on a local: pop, write, push nothing.
    /// Burn/fault behaviour is identical to `PlaceLocal;Store;Pop` — the
    /// fused ops exist because polling loops are made of these statements.
    StoreLocalPop { slot: u16, line: u32 },
    /// Fused `g = <expr>;` statement on a global.
    StoreGlobalPop { gidx: u16, line: u32 },
    /// Fused `x op= <expr>;` statement on a local.
    StoreOpLocalPop { slot: u16, op: BinOp, line: u32 },
    /// Fused `g op= <expr>;` statement on a global.
    StoreOpGlobalPop { gidx: u16, op: BinOp, line: u32 },
    /// Fused `x++;`-style statement on a local (result discarded, so
    /// prefix/postfix are indistinguishable).
    IncDecLocalPop { slot: u16, inc: bool, line: u32 },
    /// Fused `g++;`-style statement on a global.
    IncDecGlobalPop { gidx: u16, inc: bool, line: u32 },
    /// `++`/`--` through the popped place.
    IncDec { inc: bool, prefix: bool, line: u32 },
    /// Arithmetic negate (`line` is the operand's, for `BadValue`).
    Neg { line: u32 },
    /// Logical not.
    LogicalNot,
    /// Bitwise not (`line` is the operand's).
    BitNot { line: u32 },
    /// Binary operator over the top two values.
    Bin { op: BinOp, line: u32 },
    /// Fused binary operator whose rhs folded to a single-burn constant
    /// (`t < 20000`, `s & 0x80`, …): burn `rhs_line`, then apply `op` to
    /// the top value and `consts[cidx]` — burn order and faults identical
    /// to the unfused `…; Const; Bin` sequence.
    BinConst { op: BinOp, cidx: u32, rhs_line: u32, line: u32 },
    /// Pop a value, push its truthiness as 0/1 (`&&`/`||` result).
    CoerceBool,
    /// Cast the top value.
    Cast { kind: CastKind, line: u32 },
    /// Discard the top value.
    Pop,
    /// Unconditional jump.
    Jump { target: u32 },
    /// Pop; jump when falsy.
    JumpIfFalse { target: u32 },
    /// Pop; jump when truthy.
    JumpIfTrue { target: u32 },
    /// `&&` short-circuit: pop; when falsy push 0 and jump.
    BrFalseConst { target: u32 },
    /// `||` short-circuit: pop; when truthy push 1 and jump.
    BrTrueConst { target: u32 },
    /// Dispatch on the popped integer via `switches[table]`.
    Switch { table: u32 },
    /// Open a block scope (object-release bookkeeping).
    EnterScope,
    /// Close the innermost scope, releasing its objects in push order.
    ExitScope,
    /// Declare a local with zero/default contents from `templates`.
    DeclZero { slot: u16, template: u32 },
    /// Declare a scalar local from the popped initialiser.
    DeclScalar { slot: u16, coerce: Coerce },
    /// Declare an array local; pops `items` initialisers.
    DeclArray { slot: u16, template: u32, items: u16, coerce: Coerce },
    /// Declare a struct local; pops `items` initialisers, coercing each
    /// through `field_coerces[coerces]`.
    DeclStruct { slot: u16, template: u32, items: u16, coerces: u32 },
    /// Fused `x++;`-style statement followed by an unconditional jump —
    /// the step + back-jump pair every `for` loop executes once per
    /// iteration. `slot` is a global index when `global` is set.
    /// Burn/fault behaviour identical to `Line; IncDec*Pop; Jump`.
    IncDecJmp { slot: u16, global: bool, inc: bool, line: u32, target: u32 },
    /// Fused `local.field = <expr>;` statement tail: pop the value, write
    /// it through one field step of a local struct. Replaces
    /// `PlaceLocal; MemberStep; Store; Pop` when all three carry the same
    /// packed line (single-source-line member assigns — the shape every
    /// generated stub's `mk_*`/`get_*` constructor is made of).
    StoreFieldLocalPop { slot: u16, fidx: u16, line: u32 },
    /// A fused superinstruction: `fused[idx]` describes a whole
    /// burns → load → fold → compare → branch sequence executed in one
    /// dispatch (see [`FusedOp`]).
    FusedBr { idx: u32 },
    /// Open an inlined call: depth-check (`StackOverflow` at the callee's
    /// definition `line`, exactly where a real call faults), enter the
    /// frame scope, and bind the top `argc` stack values to the
    /// contiguous parameter slots starting at `first_slot` (coercing each
    /// through `field_coerces[coerces]`) — byte-for-byte the object churn
    /// of the out-of-line call machinery, minus the frame bookkeeping.
    /// `call_line` is `u32::MAX` when no burn was folded in; the [`fuse`]
    /// pass folds the call expression's leading `Op::Line` here for
    /// zero-argument calls (burned before the depth check, exactly as the
    /// standalone `Line` would have been).
    InlineEnter { first_slot: u16, argc: u8, coerces: u32, call_line: u32, line: u32 },
    /// Close an inlined call: exit the frame scope, drop the call depth.
    /// The return value sits on the stack, as after a real `Ret`.
    InlineExit,
    /// `InlineExit` + `Op::Pop`: a statement-level inlined call whose
    /// return value is discarded.
    InlineExitPop,
    /// `InlineExit` + `Op::Jump`: a nested inlined call whose value is
    /// immediately returned by the enclosing inlined body.
    InlineExitJmp { target: u32 },
    /// `InlineExit` + `Op::DeclScalar`: `int x = small_call();`.
    InlineExitDecl { slot: u16, coerce: Coerce },
    /// `InlineExit` + `Op::StoreLocalPop`: `x = small_call();`.
    InlineExitStore { slot: u16, line: u32 },
    /// Call a user function with the top `argc` values as arguments.
    CallUser { fidx: u16, argc: u8 },
    /// Call a kernel builtin with the top `argc` values.
    CallBuiltin { which: Builtin, argc: u8, line: u32 },
    /// Return the top value, unwinding the frame.
    Ret,
    /// Unconditional fault (defensive lowering of checker-rejected shapes).
    Trap { kind: FaultKind, line: u32 },
}

/// One superinstruction, referenced by [`Op::FusedBr`] and produced only
/// by the [`fuse`] pass. Execution order (each step able to fault or run
/// out of fuel exactly where the unfused sequence would):
///
/// 1. burn every line in `pre` (the leading `Op::Line`s of the span);
/// 2. produce the source value per [`FuseSrc`] (with its own burns),
///    then pick `field` out of it when set (`Op::MemberValue`);
/// 3. apply `stage1` then `stage2` (burn the rhs line, then the binop —
///    the `Op::BinConst` / `Op::LoadLocal;Op::Bin` semantics);
/// 4. optionally cast (`Op::Cast`), then optionally coerce to 0/1
///    (`Op::CoerceBool`), in that matched order;
/// 5. consume the value per [`FuseEnd`]: push it, branch on it, store it
///    (plain local/global, member field, fresh declaration).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FusedOp {
    /// Leading `Op::Line` burns, in program order: the `(start, len)`
    /// range of [`CompiledProgram`]`::fused_lines` holding them (one pool
    /// per program, so a fused op owns no allocation of its own).
    pub(crate) pre: (u32, u32),
    /// How the value under test is produced.
    pub(crate) src: FuseSrc,
    /// First folded binary stage, if any.
    pub(crate) stage1: Option<FuseStage>,
    /// Second folded binary stage, if any (never set without `stage1`).
    pub(crate) stage2: Option<FuseStage>,
    /// A folded `Op::MemberValue` (struct-rvalue field pick), applied
    /// right after the source value materialises.
    pub(crate) field: Option<(u16, u32)>,
    /// A folded `Op::Cast`, applied after the stages.
    pub(crate) cast: Option<(CastKind, u32)>,
    /// Whether an `Op::CoerceBool` was folded in (`&&`/`||` results).
    pub(crate) coerce_bool: bool,
    /// What happens to the computed value.
    pub(crate) end: FuseEnd,
    /// Branch target (op index); meaningless for non-branch ends.
    pub(crate) target: u32,
}

impl FusedOp {
    /// Whether `target` is live (the end is a branch flavour).
    pub(crate) fn has_target(&self) -> bool {
        matches!(
            self.end,
            FuseEnd::IfFalse
                | FuseEnd::IfTrue
                | FuseEnd::FalseConst
                | FuseEnd::TrueConst
                | FuseEnd::Jump
        )
    }
}

/// Terminal action of a [`FusedOp`] — the branch or store the computed
/// value flows into, each replaying its unfused op(s) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuseEnd {
    /// No consumer fused: push the value (interior expression fusion).
    Push,
    /// `Op::JumpIfFalse`.
    IfFalse,
    /// `Op::JumpIfTrue`.
    IfTrue,
    /// `Op::BrFalseConst` (`&&` short-circuit: push 0 and jump on falsy).
    FalseConst,
    /// `Op::BrTrueConst` (`||` short-circuit: push 1 and jump on truthy).
    TrueConst,
    /// `Op::StoreLocalPop`: `x = <value>;` statement sink.
    StoreLocal { slot: u16, line: u32 },
    /// `Op::StoreGlobalPop`.
    StoreGlobal { gidx: u16, line: u32 },
    /// The `PlaceLocal; MemberStep; Store; Pop` tail (see
    /// [`Op::StoreFieldLocalPop`]): `local.field = <value>;` sink.
    StoreField { slot: u16, fidx: u16, line: u32 },
    /// `Op::DeclScalar`: `int x = <value>;` sink.
    DeclScalar { slot: u16, coerce: Coerce },
    /// `Op::Jump`: push the value, then branch unconditionally — the
    /// `return <value>;` tail of an inlined call (value + jump to the
    /// frame's `InlineExit`).
    Jump,
    /// `Op::Const` (the port, burns `line`) + a 2-argument
    /// `Op::CallBuiltin` for `outb`/`outw`/`outl`, plus the statement's
    /// `Op::Pop` when `pop` is set: one host port write consuming the
    /// computed value.
    PortOut { which: Builtin, cidx: u32, line: u32, pop: bool },
    /// A 1-argument `Op::CallBuiltin` for `inb`/`inw`/`inl` whose *port*
    /// is the computed value (generated stubs read `base + offset` ports
    /// resolved at init time): pop nothing, read, push the result.
    In { which: Builtin },
    /// A 2-argument `Op::CallBuiltin` for `outb`/`outw`/`outl` whose port
    /// is the computed value and whose data word is the next value down
    /// the operand stack, plus the statement's `Op::Pop` when set.
    OutDyn { which: Builtin, pop: bool },
    /// The `LoadLocal; IndexPlace; Store; Pop` tail of `g[i] = <value>;`
    /// where the computed value is the *base* (a decayed array) — all
    /// four ops on one source line, which is all that is stored. The
    /// stored value is the next value down the operand stack.
    StoreIndexLocal { slot: u16, line: u32 },
}

/// The value-producing head of a [`FusedOp`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FuseSrc {
    /// `Op::LoadLocal` (burns `line`; arrays decay; unset slot faults).
    Local { slot: u16, line: u32 },
    /// `Op::LoadGlobal`.
    Global { gidx: u16, line: u32 },
    /// `Op::PlaceLocal` + `Op::IncDec`: `--x` / `x++` as a value.
    /// `place_line` is the identifier's (unset-slot fault site), `line`
    /// the operator's (read/write fault site). No burn — the enclosing
    /// expression's `Line`s are in `pre`.
    IncDecLocal { slot: u16, inc: bool, prefix: bool, place_line: u32, line: u32 },
    /// `Op::PlaceGlobal` + `Op::IncDec`.
    IncDecGlobal { gidx: u16, inc: bool, prefix: bool, place_line: u32, line: u32 },
    /// `Op::Const` (the port, burns `port_line`) + a 1-argument
    /// `Op::CallBuiltin` for `inb`/`inw`/`inl`: one host port read.
    PortIn { which: Builtin, cidx: u32, port_line: u32 },
    /// `Op::PlaceLocal` + `Op::MemberStep` + `Op::ReadPlace`: the rvalue
    /// of `local.field` (`dil_val(x)`, stub type tags, ...). No burn —
    /// the member expression's `Line` is in `pre`; faults replay the
    /// three ops' order exactly.
    FieldLocal { slot: u16, fidx: u16, place_line: u32, line: u32 },
    /// `Op::Const`: a folded constant source (burns `line`) — `return 0;`
    /// values, constant arguments, `v.type = 1;` right-hand sides.
    ConstVal { cidx: u32, line: u32 },
    /// `Op::ConstN`: a folded constant subtree, replaying its whole burn
    /// sequence (`-1` literals and friends).
    ConstSeq { cidx: u32, seq: u32 },
    /// The value already on the operand stack (a call's return value, a
    /// previously fused push): pop it. Only matched when a folded middle
    /// op (stage, cast, member pick, bool coercion) guarantees the
    /// unfused sequence would pop at exactly this point.
    StackTop,
}

/// One folded binary stage of a [`FusedOp`] — the `Op::BinConst` (or
/// `Op::LoadLocal`/`Op::LoadGlobal` + `Op::Bin`) it replaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuseStage {
    /// The operator.
    pub(crate) op: BinOp,
    /// Where the right-hand operand comes from.
    pub(crate) rhs: FuseRhs,
    /// The binary expression's own line (fault site of the apply).
    pub(crate) line: u32,
}

/// Right-hand operand of a [`FuseStage`]; every flavour burns `line`
/// before the value materialises, exactly like the op it replaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FuseRhs {
    /// Interned constant (`Op::BinConst`'s `rhs_line` burn).
    Const { cidx: u32, line: u32 },
    /// A local load (`Op::LoadLocal` + `Op::Bin`).
    Local { slot: u16, line: u32 },
    /// A global load.
    Global { gidx: u16, line: u32 },
    /// A local member load (`Line; PlaceLocal; MemberStep; ReadPlace` +
    /// `Op::Bin`) — `a.val == b.val` comparisons in generated stubs.
    FieldLocal { slot: u16, fidx: u16, place_line: u32, line: u32 },
}


/// How a global's object is assembled from its evaluated initialisers —
/// the lowered form of `Interpreter::ensure_globals` (which, unlike local
/// declarations, stores aggregate items *uncoerced*).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum GFinish {
    /// No initialiser: clone the zero template.
    Zero { template: u32 },
    /// Scalar initialiser: coerce the single popped value.
    Scalar { coerce: Coerce },
    /// Array initialiser list: pops `items` raw values over the template.
    Array { template: u32, items: u16 },
    /// Struct initialiser list: pops `items` raw field values.
    Struct { template: u32, items: u16 },
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BFunc {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
    /// Frame size in slots (params first).
    pub(crate) slots: u16,
    /// Per-parameter store coercions.
    pub(crate) params: Box<[Coerce]>,
    /// Packed definition line (stack-overflow fault site).
    pub(crate) line: u32,
}

/// A lowered global: initialiser evaluation ops plus assembly recipe.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BGlobal {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
    pub(crate) finish: GFinish,
    /// Packed declaration line — faults during initialisation are
    /// re-stamped to this local line, as `eval_const` does.
    pub(crate) line: u32,
}

/// One lowered `switch`: first-matching-arm dispatch table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SwitchTable {
    pub(crate) cases: Vec<(i64, u32)>,
    pub(crate) default: Option<u32>,
    /// Jump target when no arm matches.
    pub(crate) end: u32,
    /// Whether dispatching into an arm opens the switch scope.
    pub(crate) enter_scope: bool,
    /// Packed line of the `switch` (non-integer scrutinee fault).
    pub(crate) line: u32,
}

/// A program lowered to bytecode, ready for [`crate::vm::Vm`].
///
/// Produced by [`lower`] (or [`Program::to_bytecode`]); immutable and
/// freely shareable across boots of the same mutant. Function and global
/// bodies sit behind [`Arc`], so programs compiled through a
/// [`crate::Prelude`] share the stub headers' lowered bodies instead of
/// copying them per mutant.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub(crate) funcs: Vec<Arc<BFunc>>,
    pub(crate) globals: Vec<Arc<BGlobal>>,
    pub(crate) consts: Vec<Value>,
    pub(crate) burn_seqs: Vec<Box<[u32]>>,
    pub(crate) templates: Vec<Box<[Value]>>,
    pub(crate) field_coerces: Vec<Box<[Coerce]>>,
    pub(crate) switches: Vec<SwitchTable>,
    /// Superinstruction descriptors referenced by [`Op::FusedBr`]; empty
    /// until [`fuse`] runs.
    pub(crate) fused: Vec<FusedOp>,
    /// The leading burns of every fused op ([`FusedOp::pre`]).
    pub(crate) fused_lines: Vec<u32>,
    /// Per-file maximum source line, for coverage sizing.
    pub(crate) line_bounds: Vec<u32>,
    /// Participating file names (index = `file_id`).
    pub(crate) files: Vec<String>,
}

impl CompiledProgram {
    /// Index of a function by name.
    pub(crate) fn function(&self, name: &str) -> Option<u16> {
        self.funcs.iter().position(|f| f.name == name).map(|i| i as u16)
    }

    /// Index of a global by name.
    pub(crate) fn global(&self, name: &str) -> Option<u16> {
        self.globals.iter().position(|g| g.name == name).map(|i| i as u16)
    }

    /// Resolve a packed line id to `(file name, local line)`.
    pub(crate) fn loc(&self, packed: u32) -> (&str, u32) {
        let (fid, line) = crate::token::unpack_line(packed);
        let name = self
            .files
            .get(fid as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>");
        (name, line)
    }

    /// The file id assigned to `name`, if it participated in the program
    /// (the [`crate::ast::Unit::file_id`] of the unit it was lowered from).
    pub fn file_id(&self, name: &str) -> Option<u16> {
        self.files.iter().position(|f| f == name).map(|i| i as u16)
    }

    /// Number of lowered functions (diagnostics).
    pub fn function_count(&self) -> usize {
        self.funcs.len()
    }

    /// Number of superinstructions the [`fuse`] pass produced — zero for
    /// an unfused program (diagnostics; the zero-alloc and fusion tests
    /// use this to prove the fast path is actually exercised).
    pub fn fused_op_count(&self) -> usize {
        self.fused.len()
    }
}

/// Run the superinstruction peephole pass over a lowered program in
/// place — see the module docs and [`crate::fuse`]. Idempotent.
pub use crate::fuse::fuse;

impl Program {
    /// Lower this checked program to bytecode and apply the
    /// superinstruction [`fuse`] pass — the production path.
    pub fn to_bytecode(&self) -> CompiledProgram {
        let mut compiled = lower(self);
        fuse(&mut compiled);
        compiled
    }

    /// Lower without the superinstruction pass or the call-inlining pass
    /// — the flag that keeps the PR-4 encoding reachable, so differential
    /// tests cover both dispatch paths and the `vm_exec` bench has a
    /// faithful A/B baseline.
    pub fn to_bytecode_unfused(&self) -> CompiledProgram {
        lower_with(self, false)
    }
}

/// Lower a checked program to bytecode.
///
/// Lowering is total for checker-approved programs; shapes the checker
/// rejects (and which therefore cannot reach a [`crate::vm::Vm`] through
/// [`crate::compile`]) lower to the same runtime fault the tree-walker
/// raises.
pub fn lower(program: &Program) -> CompiledProgram {
    lower_with(program, true)
}

/// [`lower`] with the call-inlining pass switched off — together with
/// skipping [`fuse`], this reproduces the PR-4 encoding exactly, which is
/// what [`Program::to_bytecode_unfused`] serves as the differential/bench
/// baseline.
pub(crate) fn lower_with(program: &Program, inline: bool) -> CompiledProgram {
    let unit = &program.unit;
    let mut compiled = CompiledProgram::empty(coverage::line_bounds(unit), unit.files.clone());
    let symbols =
        Symbols::new(unit.functions().collect(), unit.globals().collect(), &program.structs, None);
    lower_items(&mut compiled, &symbols, &unit.items, inline);
    compiled
}

impl CompiledProgram {
    /// An empty program over `files`, ready for [`lower_items`].
    pub(crate) fn empty(line_bounds: Vec<u32>, files: Vec<String>) -> Self {
        CompiledProgram {
            funcs: Vec::new(),
            globals: Vec::new(),
            consts: Vec::new(),
            burn_seqs: Vec::new(),
            templates: Vec::new(),
            field_coerces: Vec::new(),
            switches: Vec::new(),
            fused: Vec::new(),
            fused_lines: Vec::new(),
            line_bounds,
            files,
        }
    }
}

/// A [`CompiledProgram`] in a thread-shareable form: the interned
/// constants and templates hold `Rc`-backed [`Value`]s, so they are kept
/// as plain data and rebuilt by [`SharedProgram::thaw`]; everything else
/// is shared or copied as is.
#[derive(Debug)]
pub(crate) struct SharedProgram {
    funcs: Vec<Arc<BFunc>>,
    globals: Vec<Arc<BGlobal>>,
    consts: Vec<PlainValue>,
    burn_seqs: Vec<Box<[u32]>>,
    templates: Vec<Box<[PlainValue]>>,
    field_coerces: Vec<Box<[Coerce]>>,
    switches: Vec<SwitchTable>,
    fused: Vec<FusedOp>,
    fused_lines: Vec<u32>,
    pub(crate) line_bounds: Vec<u32>,
}

/// A [`Value`] without the `Rc`s.
#[derive(Debug)]
enum PlainValue {
    Int(i64),
    Struct(Vec<PlainValue>),
    Ptr(Option<Place>),
    Str(String),
}

impl PlainValue {
    fn of(v: &Value) -> Self {
        match v {
            Value::Int(i) => PlainValue::Int(*i),
            Value::Struct(fields) => PlainValue::Struct(fields.iter().map(PlainValue::of).collect()),
            Value::Ptr(p) => PlainValue::Ptr(*p),
            Value::Str(s) => PlainValue::Str(s.to_string()),
        }
    }

    fn value(&self) -> Value {
        match self {
            PlainValue::Int(i) => Value::Int(*i),
            PlainValue::Struct(fields) => {
                Value::Struct(Rc::new(fields.iter().map(PlainValue::value).collect()))
            }
            PlainValue::Ptr(p) => Value::Ptr(*p),
            PlainValue::Str(s) => Value::Str(Rc::new(s.clone())),
        }
    }
}

impl SharedProgram {
    pub(crate) fn new(p: CompiledProgram) -> Self {
        SharedProgram {
            funcs: p.funcs,
            globals: p.globals,
            consts: p.consts.iter().map(PlainValue::of).collect(),
            burn_seqs: p.burn_seqs,
            templates: p.templates.iter().map(|t| t.iter().map(PlainValue::of).collect()).collect(),
            field_coerces: p.field_coerces,
            switches: p.switches,
            fused: p.fused,
            fused_lines: p.fused_lines,
            line_bounds: p.line_bounds,
        }
    }

    /// A program to append to: the bodies shared, the tables copied.
    pub(crate) fn thaw(&self, files: Vec<String>) -> CompiledProgram {
        CompiledProgram {
            funcs: self.funcs.clone(),
            globals: self.globals.clone(),
            consts: self.consts.iter().map(PlainValue::value).collect(),
            burn_seqs: self.burn_seqs.clone(),
            templates: self.templates.iter().map(|t| t.iter().map(PlainValue::value).collect()).collect(),
            field_coerces: self.field_coerces.clone(),
            switches: self.switches.clone(),
            fused: self.fused.clone(),
            fused_lines: self.fused_lines.clone(),
            line_bounds: self.line_bounds.clone(),
            files,
        }
    }
}

/// The unit-wide names lowering resolves against: every function
/// definition and every global of the unit, in source order (their
/// positions are the `fidx`/`gidx` slots), and the checked struct table —
/// with name indexes over them, optionally layered over a prelude's.
pub(crate) struct Symbols<'p> {
    funcs: Vec<&'p Function>,
    structs: &'p StructTable,
    base: Option<&'p SymbolIndex>,
    own: SymbolIndex,
}

/// Name → slot indexes over leading runs of a unit's functions, globals
/// and structs (first definition wins, as the linear lookups they
/// replace did).
#[derive(Debug, Default)]
pub(crate) struct SymbolIndex {
    funcs: HashMap<String, usize>,
    globals: HashMap<String, u16>,
    /// Field name → its position in the first struct that has it.
    fields: HashMap<String, u16>,
    /// How many functions, globals and structs the index covers.
    counts: (usize, usize, usize),
}

impl SymbolIndex {
    pub(crate) fn new<'a>(
        funcs: impl Iterator<Item = &'a Function>,
        globals: impl Iterator<Item = &'a Global>,
        structs: &StructTable,
    ) -> Self {
        let mut index = SymbolIndex::default();
        index.extend(funcs, globals, structs, (0, 0, 0));
        index
    }

    /// Index the entries from `from` on (function, global, struct
    /// positions).
    fn extend<'a>(
        &mut self,
        funcs: impl Iterator<Item = &'a Function>,
        globals: impl Iterator<Item = &'a Global>,
        structs: &StructTable,
        from: (usize, usize, usize),
    ) {
        let (mut nf, mut ng) = (from.0, from.1);
        for f in funcs {
            self.funcs.entry(f.name.clone()).or_insert(nf);
            nf += 1;
        }
        for g in globals {
            self.globals.entry(g.name.clone()).or_insert(ng as u16);
            ng += 1;
        }
        for i in from.2..structs.len() {
            for (fidx, (name, _)) in structs.get(StructId(i)).fields.iter().enumerate() {
                self.fields.entry(name.clone()).or_insert(fidx as u16);
            }
        }
        self.counts = (nf, ng, structs.len());
    }
}

impl<'p> Symbols<'p> {
    /// The symbols of a unit made of `funcs` and `globals` (in source
    /// order) over `structs`; `base` indexes a leading part of them.
    pub(crate) fn new(
        funcs: Vec<&'p Function>,
        globals: Vec<&'p Global>,
        structs: &'p StructTable,
        base: Option<&'p SymbolIndex>,
    ) -> Self {
        let from = base.map_or((0, 0, 0), |b| b.counts);
        let mut own = SymbolIndex::default();
        own.extend(
            funcs[from.0..].iter().copied(),
            globals[from.1..].iter().copied(),
            structs,
            from,
        );
        Symbols { funcs, structs, base, own }
    }

    fn function(&self, name: &str) -> Option<usize> {
        self.base
            .and_then(|b| b.funcs.get(name))
            .or_else(|| self.own.funcs.get(name))
            .copied()
    }

    fn global(&self, name: &str) -> Option<u16> {
        self.base
            .and_then(|b| b.globals.get(name))
            .or_else(|| self.own.globals.get(name))
            .copied()
    }

    fn field(&self, name: &str) -> Option<u16> {
        self.base
            .and_then(|b| b.fields.get(name))
            .or_else(|| self.own.fields.get(name))
            .copied()
    }
}

/// Lower `items` in source order, appending their bodies to `compiled`
/// and interning into its tables. Lowering item by item is what lets a
/// [`crate::Prelude`] lower the stub headers once and append each
/// mutant's driver items later: the tables come out in the same order
/// as a whole-unit lowering.
pub(crate) fn lower_items<'p>(
    compiled: &'p mut CompiledProgram,
    symbols: &'p Symbols<'p>,
    items: &'p [Item],
    inline: bool,
) {
    let mut lw = Lower::new(symbols, inline, compiled);
    for item in items {
        match item {
            Item::Global(g) => {
                let g = lw.lower_global(g);
                lw.out.globals.push(Arc::new(g));
            }
            Item::Func(f) => {
                let f = lw.lower_function(f);
                lw.out.funcs.push(Arc::new(f));
            }
            Item::Proto(_) => {}
        }
    }
}

/// Whether an expression can be resolved as an lvalue (syntactically) —
/// mirror of the interpreter's `is_lvalue_expr`.
fn is_lvalue_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Ident { .. }
            | Expr::Index { .. }
            | Expr::Member { .. }
            | Expr::Unary { op: UnOp::Deref, .. }
    )
}

struct LScope {
    /// Where this scope's names start in [`Lower::names`].
    start: usize,
    /// Whether this scope exists at runtime (has an `EnterScope` op or is
    /// the implicit frame scope / runtime switch scope).
    emitted: bool,
}

enum CtxKind {
    Loop,
    Switch,
    /// An inlined call body: `return` statements unwind to here and jump
    /// to the `InlineExit` (collected in `break_patches`), and `break`/
    /// `continue` resolution never crosses this boundary.
    Inline,
}

struct Ctx {
    kind: CtxKind,
    /// Emitted-scope count outside this construct — break unwinds to here.
    scopes_outside: usize,
    /// Emitted-scope count at the loop body — continue unwinds to here.
    scopes_body: usize,
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
    /// Continue target when already known (while loops).
    continue_target: Option<u32>,
}

struct Lower<'p> {
    symbols: &'p Symbols<'p>,
    /// Whether small calls are flattened ([`Lower::should_inline`]).
    inline: bool,
    /// The program being appended to: its tables are the intern tables.
    out: &'p mut CompiledProgram,
    int_consts: HashMap<i64, u32>,
    str_consts: HashMap<String, u32>,
    /// The burn sequence of the last [`Lower::try_fold`].
    burns: Vec<u32>,
    // Per-function state:
    ops: Vec<Op>,
    scopes: Vec<LScope>,
    /// The declared names of every open scope, innermost last.
    names: Vec<(&'p str, u16)>,
    ctxs: Vec<Ctx>,
    next_slot: u16,
    /// Function indices currently being inlined (cycle guard).
    inline_stack: Vec<usize>,
    /// Name resolution stops at this scope index — an inlined body must
    /// see its own frame and the globals, never the caller's locals.
    resolve_floor: usize,
}

enum Resolved {
    Local(u16),
    Global(u16),
    None,
}

/// A constant [`Lower::try_fold`] computed: the [`Value`] it interns as,
/// with string literals still borrowed from the AST (no allocation until
/// a new constant is interned).
#[derive(Clone, Copy)]
enum Folded<'e> {
    Int(i64),
    Ptr(Option<Place>),
    Str(&'e str),
}

impl Folded<'_> {
    fn as_int(self) -> Option<i64> {
        match self {
            Folded::Int(i) => Some(i),
            _ => None,
        }
    }

    /// C truthiness ([`Value::truthy`]).
    fn truthy(self) -> bool {
        match self {
            Folded::Int(i) => i != 0,
            Folded::Ptr(p) => p.is_some(),
            Folded::Str(_) => true,
        }
    }
}

impl<'p> Lower<'p> {
    /// Continue interning into `out`'s tables (empty for a fresh unit).
    fn new(symbols: &'p Symbols<'p>, inline: bool, out: &'p mut CompiledProgram) -> Self {
        let mut int_consts = HashMap::new();
        let mut str_consts = HashMap::new();
        for (i, v) in out.consts.iter().enumerate() {
            match v {
                Value::Int(x) => {
                    int_consts.insert(*x, i as u32);
                }
                Value::Str(s) => {
                    str_consts.insert(s.to_string(), i as u32);
                }
                _ => {}
            }
        }
        Lower {
            symbols,
            inline,
            out,
            int_consts,
            str_consts,
            burns: Vec::new(),
            ops: Vec::new(),
            scopes: Vec::new(),
            names: Vec::new(),
            ctxs: Vec::new(),
            next_slot: 0,
            inline_stack: Vec::new(),
            resolve_floor: 0,
        }
    }

    // ----- tables ---------------------------------------------------------

    fn intern(&mut self, v: Folded<'_>) -> u32 {
        match v {
            Folded::Int(i) => {
                if let Some(&idx) = self.int_consts.get(&i) {
                    return idx;
                }
                let idx = self.out.consts.len() as u32;
                self.int_consts.insert(i, idx);
                self.out.consts.push(Value::Int(i));
                idx
            }
            Folded::Str(s) => {
                if let Some(&idx) = self.str_consts.get(s) {
                    return idx;
                }
                let idx = self.out.consts.len() as u32;
                self.str_consts.insert(s.to_string(), idx);
                self.out.consts.push(Value::Str(Rc::new(s.to_string())));
                idx
            }
            Folded::Ptr(p) => {
                let v = Value::Ptr(p);
                if let Some(i) = self.out.consts.iter().position(|c| *c == v) {
                    return i as u32;
                }
                self.out.consts.push(v);
                self.out.consts.len() as u32 - 1
            }
        }
    }

    fn intern_seq(&mut self, seq: &[u32]) -> u32 {
        if let Some(i) = self.out.burn_seqs.iter().position(|s| s.as_ref() == seq) {
            return i as u32;
        }
        self.out.burn_seqs.push(seq.into());
        self.out.burn_seqs.len() as u32 - 1
    }

    /// Intern the store coercions of `types` (parameters or fields).
    fn intern_coerces<'t>(&mut self, types: impl Iterator<Item = &'t CType> + Clone) -> u32 {
        let same = |c: &[Coerce]| c.len() == types.clone().count()
            && c.iter().zip(types.clone()).all(|(c, t)| *c == Coerce::of(t));
        if let Some(i) = self.out.field_coerces.iter().position(|c| same(c)) {
            return i as u32;
        }
        self.out.field_coerces.push(types.map(Coerce::of).collect());
        self.out.field_coerces.len() as u32 - 1
    }

    fn intern_template(&mut self, t: Vec<Value>) -> u32 {
        if let Some(i) = self.out.templates.iter().position(|s| s.as_ref() == t.as_slice()) {
            return i as u32;
        }
        self.out.templates.push(t.into_boxed_slice());
        self.out.templates.len() as u32 - 1
    }

    /// Zero value of a type — must mirror `Interpreter::zero_of` exactly
    /// (including the struct-shaped representation of nested arrays).
    fn zero_of(&self, ty: &CType) -> Value {
        match ty {
            CType::Int { .. } | CType::Void => Value::Int(0),
            CType::Ptr(_) => Value::Ptr(None),
            CType::Array(e, n) => Value::Struct(Rc::new(vec![self.zero_of(e); *n])),
            CType::Struct(id) => {
                let fields = &self.symbols.structs.get(*id).fields;
                Value::Struct(Rc::new(fields.iter().map(|(_, t)| self.zero_of(t)).collect()))
            }
        }
    }

    /// First field index matching `name` across *all* struct definitions —
    /// mirror of `Interpreter::field_index_of` (positions agree across the
    /// generated stub types by construction).
    fn field_index(&self, name: &str) -> u16 {
        self.symbols.field(name).unwrap_or(NO_FIELD)
    }

    fn resolve(&self, name: &str) -> Resolved {
        let floor = self.scopes.get(self.resolve_floor).map_or(self.names.len(), |s| s.start);
        if let Some((_, slot)) = self.names[floor..].iter().rev().find(|(n, _)| *n == name) {
            return Resolved::Local(*slot);
        }
        match self.symbols.global(name) {
            Some(i) => Resolved::Global(i),
            None => Resolved::None,
        }
    }

    fn function_index(&self, name: &str) -> Option<usize> {
        self.symbols.function(name)
    }

    fn declare(&mut self, name: &'p str) -> u16 {
        debug_assert!(!self.scopes.is_empty(), "declared inside a scope");
        let slot = self.next_slot;
        self.next_slot += 1;
        self.names.push((name, slot));
        slot
    }

    fn push_scope(&mut self, emitted: bool) {
        self.scopes.push(LScope { start: self.names.len(), emitted });
    }

    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("a scope is open");
        self.names.truncate(scope.start);
    }

    fn emitted_scopes(&self) -> usize {
        self.scopes.iter().filter(|s| s.emitted).count()
    }

    // ----- constant folding ----------------------------------------------

    /// Evaluate a subtree that provably cannot fault, returning its value
    /// and leaving in `self.burns` the burn sequence `Interpreter::eval`
    /// would have produced.
    fn try_fold<'e>(&mut self, e: &'e Expr) -> Option<Folded<'e>> {
        let mut burns = std::mem::take(&mut self.burns);
        burns.clear();
        let folded = self.fold(e, &mut burns);
        self.burns = burns;
        folded
    }

    /// [`Lower::try_fold`]'s recursion: appends the subtree's burns.
    fn fold<'e>(&self, e: &'e Expr, burns: &mut Vec<u32>) -> Option<Folded<'e>> {
        match e {
            Expr::IntLit { value, line } => {
                burns.push(*line);
                Some(Folded::Int(*value as i64))
            }
            Expr::CharLit { value, line } => {
                burns.push(*line);
                Some(Folded::Int(*value as i64))
            }
            Expr::StrLit { value, line } => {
                burns.push(*line);
                Some(Folded::Str(value))
            }
            Expr::SizeofType { ty, line } => {
                burns.push(*line);
                Some(Folded::Int(ty.size_bytes(self.symbols.structs) as i64))
            }
            Expr::Ident { name, line } => {
                // Only the function-designator-as-value case is constant;
                // real variables load at run time.
                if !matches!(self.resolve(name), Resolved::None) {
                    return None;
                }
                if self.function_index(name).is_some() || builtin_of(name).is_some() {
                    let addr = 0x0800_0000u32.wrapping_add(
                        name.bytes()
                            .fold(0u32, |a, b| a.wrapping_mul(31).wrapping_add(b as u32))
                            & 0xFFFF,
                    );
                    burns.push(*line);
                    return Some(Folded::Int(addr as i64));
                }
                None
            }
            Expr::Unary { op, expr, line } => {
                burns.push(*line);
                let v = self.fold(expr, burns)?;
                match op {
                    UnOp::Plus => Some(v),
                    UnOp::Neg => Some(Folded::Int(v.as_int()?.wrapping_neg())),
                    UnOp::BitNot => Some(Folded::Int(!v.as_int()?)),
                    UnOp::Not => Some(Folded::Int(i64::from(!v.truthy()))),
                    UnOp::Deref | UnOp::AddrOf => None,
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                burns.push(*line);
                let l = self.fold(lhs, burns)?;
                match op {
                    BinOp::LogAnd | BinOp::LogOr => {
                        if (*op == BinOp::LogAnd) != l.truthy() {
                            return Some(Folded::Int(i64::from(*op == BinOp::LogOr)));
                        }
                        let r = self.fold(rhs, burns)?;
                        Some(Folded::Int(i64::from(r.truthy())))
                    }
                    _ => {
                        let r = self.fold(rhs, burns)?;
                        Some(Folded::Int(fold_int_binop(*op, l.as_int()?, r.as_int()?)?))
                    }
                }
            }
            Expr::Cast { ty, expr, line } => {
                burns.push(*line);
                let v = self.fold(expr, burns)?;
                // Mirror of the interpreter's cast arm, constant cases only.
                Some(match (ty, v) {
                    (CType::Int { signed, bits }, Folded::Int(i)) => {
                        Folded::Int(crate::value::wrap_int(i, *bits, *signed))
                    }
                    (CType::Int { .. }, Folded::Ptr(Some(p))) => {
                        Folded::Int((p.obj.0 as i64 + 1) * 0x1_0000 + p.idx as i64)
                    }
                    (CType::Int { .. }, Folded::Ptr(None)) => Folded::Int(0),
                    (CType::Int { .. }, Folded::Str(_)) => Folded::Int(0x5_0000),
                    (CType::Ptr(_), Folded::Int(0)) => Folded::Ptr(None),
                    (CType::Ptr(_), Folded::Int(i)) => Folded::Ptr(Some(Place {
                        obj: crate::value::ObjId(crate::interp::WILD_OBJ),
                        idx: i as usize,
                    })),
                    (CType::Ptr(_), v @ (Folded::Ptr(_) | Folded::Str(_))) => v,
                    (CType::Void, _) => Folded::Int(0),
                    _ => return None,
                })
            }
            _ => None,
        }
    }

    /// Emit a value [`Lower::try_fold`] just produced, with its burns.
    fn emit_folded(&mut self, v: Folded<'_>) {
        let cidx = self.intern(v);
        if self.burns.len() == 1 {
            self.ops.push(Op::Const { cidx, line: self.burns[0] });
        } else {
            let burns = std::mem::take(&mut self.burns);
            let seq = self.intern_seq(&burns);
            self.burns = burns;
            self.ops.push(Op::ConstN { cidx, seq });
        }
    }

    // ----- expressions ----------------------------------------------------

    fn emit_expr(&mut self, e: &'p Expr) {
        if let Some(v) = self.try_fold(e) {
            self.emit_folded(v);
            return;
        }
        match e {
            // Constant leaves are always folded above.
            Expr::IntLit { .. }
            | Expr::CharLit { .. }
            | Expr::StrLit { .. }
            | Expr::SizeofType { .. } => unreachable!("constant leaves fold"),
            Expr::Ident { name, line } => match self.resolve(name) {
                Resolved::Local(slot) => self.ops.push(Op::LoadLocal { slot, line: *line }),
                Resolved::Global(gidx) => self.ops.push(Op::LoadGlobal { gidx, line: *line }),
                Resolved::None => {
                    // Unknown non-function name: checker-rejected; fault
                    // exactly where the tree-walker does.
                    self.ops.push(Op::Line(*line));
                    self.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                }
            },
            Expr::Unary { op, expr, line } => {
                self.ops.push(Op::Line(*line));
                match op {
                    UnOp::Neg => {
                        self.emit_expr(expr);
                        self.ops.push(Op::Neg { line: expr.line() });
                    }
                    UnOp::Plus => self.emit_expr(expr),
                    UnOp::Not => {
                        self.emit_expr(expr);
                        self.ops.push(Op::LogicalNot);
                    }
                    UnOp::BitNot => {
                        self.emit_expr(expr);
                        self.ops.push(Op::BitNot { line: expr.line() });
                    }
                    UnOp::Deref => {
                        self.emit_expr(expr);
                        self.ops.push(Op::PtrPlace { line: *line });
                        self.ops.push(Op::ReadPlace { line: *line });
                    }
                    UnOp::AddrOf => {
                        self.emit_lvalue(expr);
                        self.ops.push(Op::AddrOf);
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.ops.push(Op::Line(*line));
                match op {
                    BinOp::LogAnd => {
                        self.emit_expr(lhs);
                        let br = self.placeholder();
                        self.emit_expr(rhs);
                        self.ops.push(Op::CoerceBool);
                        let end = self.here();
                        self.ops[br] = Op::BrFalseConst { target: end };
                    }
                    BinOp::LogOr => {
                        self.emit_expr(lhs);
                        let br = self.placeholder();
                        self.emit_expr(rhs);
                        self.ops.push(Op::CoerceBool);
                        let end = self.here();
                        self.ops[br] = Op::BrTrueConst { target: end };
                    }
                    _ => {
                        self.emit_expr(lhs);
                        match self.try_fold(rhs) {
                            Some(v) if self.burns.len() == 1 => {
                                let cidx = self.intern(v);
                                self.ops.push(Op::BinConst {
                                    op: *op,
                                    cidx,
                                    rhs_line: self.burns[0],
                                    line: *line,
                                });
                            }
                            Some(v) => {
                                self.emit_folded(v);
                                self.ops.push(Op::Bin { op: *op, line: *line });
                            }
                            None => {
                                self.emit_expr(rhs);
                                self.ops.push(Op::Bin { op: *op, line: *line });
                            }
                        }
                    }
                }
            }
            Expr::Assign { op, lhs, rhs, line } => {
                self.ops.push(Op::Line(*line));
                // Evaluation order: value first, then target place.
                self.emit_expr(rhs);
                self.emit_lvalue(lhs);
                self.ops.push(match op {
                    None => Op::Store { line: *line },
                    Some(op) => Op::StoreBin { op: *op, line: *line },
                });
            }
            Expr::Cond { cond, then_e, else_e, line } => {
                self.ops.push(Op::Line(*line));
                self.emit_expr(cond);
                let br = self.placeholder();
                self.emit_expr(then_e);
                let jmp = self.placeholder();
                let at_else = self.here();
                self.ops[br] = Op::JumpIfFalse { target: at_else };
                self.emit_expr(else_e);
                let end = self.here();
                self.ops[jmp] = Op::Jump { target: end };
            }
            Expr::Call { callee, args, line } => {
                self.ops.push(Op::Line(*line));
                let Expr::Ident { name, .. } = callee.as_ref() else {
                    self.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                    return;
                };
                if let Some(fidx) = self.function_index(name) {
                    for a in args {
                        self.emit_expr(a);
                    }
                    let func = self.symbols.funcs[fidx];
                    if self.should_inline(fidx, func, args.len()) {
                        self.emit_inline_call(fidx, func);
                    } else {
                        self.ops
                            .push(Op::CallUser { fidx: fidx as u16, argc: args.len() as u8 });
                    }
                } else if let Some(which) = builtin_of(name) {
                    for a in args {
                        self.emit_expr(a);
                    }
                    self.ops.push(Op::CallBuiltin { which, argc: args.len() as u8, line: *line });
                } else {
                    // Declared-but-undefined prototype: faults before any
                    // argument evaluates, like the tree-walker.
                    self.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line });
                }
            }
            Expr::Index { base, index, line } => {
                self.ops.push(Op::Line(*line));
                self.emit_expr(base);
                self.emit_expr(index);
                self.ops.push(Op::IndexPlace { line: *line, idx_line: index.line() });
                self.ops.push(Op::ReadPlace { line: *line });
            }
            Expr::Member { base, field, arrow, line } => {
                self.ops.push(Op::Line(*line));
                let fidx = self.field_index(field);
                if !*arrow && !is_lvalue_expr(base) {
                    self.emit_expr(base);
                    self.ops.push(Op::MemberValue { fidx, line: *line });
                    return;
                }
                if *arrow {
                    self.emit_expr(base);
                    self.ops.push(Op::MemberArrow { line: *line });
                } else {
                    self.emit_lvalue(base);
                }
                self.ops.push(Op::MemberStep { fidx, line: *line });
                self.ops.push(Op::ReadPlace { line: *line });
            }
            Expr::Cast { ty, expr, line } => {
                self.ops.push(Op::Line(*line));
                self.emit_expr(expr);
                self.ops.push(Op::Cast { kind: CastKind::of(ty), line: *line });
            }
            Expr::IncDec { expr, inc, prefix, line } => {
                self.ops.push(Op::Line(*line));
                self.emit_lvalue(expr);
                self.ops.push(Op::IncDec { inc: *inc, prefix: *prefix, line: *line });
            }
            Expr::Comma { lhs, rhs } => {
                // `eval` burns the comma's own (= rhs's) line first.
                self.ops.push(Op::Line(rhs.line()));
                self.emit_expr(lhs);
                self.ops.push(Op::Pop);
                self.emit_expr(rhs);
            }
        }
    }

    fn emit_lvalue(&mut self, e: &'p Expr) {
        match e {
            Expr::Ident { name, line } => match self.resolve(name) {
                Resolved::Local(slot) => self.ops.push(Op::PlaceLocal { slot, line: *line }),
                Resolved::Global(gidx) => self.ops.push(Op::PlaceGlobal { gidx, line: *line }),
                Resolved::None => {
                    self.ops.push(Op::Trap { kind: FaultKind::BadValue, line: *line })
                }
            },
            Expr::Unary { op: UnOp::Deref, expr, line } => {
                self.emit_expr(expr);
                self.ops.push(Op::PtrPlace { line: *line });
            }
            Expr::Index { base, index, line } => {
                self.emit_expr(base);
                self.emit_expr(index);
                self.ops.push(Op::IndexPlace { line: *line, idx_line: index.line() });
            }
            Expr::Member { base, field, arrow, line } => {
                let fidx = self.field_index(field);
                if *arrow {
                    self.emit_expr(base);
                    self.ops.push(Op::MemberArrow { line: *line });
                } else {
                    self.emit_lvalue(base);
                }
                self.ops.push(Op::MemberStep { fidx, line: *line });
            }
            other => self.ops.push(Op::Trap {
                kind: FaultKind::BadValue,
                line: other.line(),
            }),
        }
    }

    // ----- inlining -------------------------------------------------------

    /// Whether a call to `func` is flattened into the caller. Small
    /// leaf-ish functions only — the generated stub accessors
    /// (`reg_get_*`, `dil_get_*_raw`, `get_*`/`set_*`/`mk_*`/`eq_*`) and
    /// the drivers' little wait/select helpers — where the out-of-line
    /// frame machinery costs more than the body. Guards: exact arity
    /// (anything else keeps the call's argument-dropping semantics in one
    /// place), no recursion through the current inline chain, bounded
    /// nesting depth, bounded body size.
    fn should_inline(&self, fidx: usize, func: &Function, argc: usize) -> bool {
        const MAX_INLINE_DEPTH: usize = 4;
        const MAX_INLINE_STMTS: usize = 16;
        self.inline
            && argc == func.params.len()
            && self.inline_stack.len() < MAX_INLINE_DEPTH
            && !self.inline_stack.contains(&fidx)
            && block_stmts(&func.body) <= MAX_INLINE_STMTS
    }

    /// Lower `func`'s body in place of a `CallUser`, with the arguments
    /// already evaluated on the stack. Byte-equivalent to the real call:
    /// `InlineEnter` replays the depth check and the parameter-object
    /// churn, the body's `return`s unwind their scopes and jump to the
    /// closing `InlineExit`, and falling off the end yields 0 — so object
    /// ids, burns, faults and `StackOverflow` sites all match the
    /// tree-walking oracle's out-of-line execution exactly.
    fn emit_inline_call(&mut self, fidx: usize, func: &'p Function) {
        self.inline_stack.push(fidx);
        let coerces = self.intern_coerces(func.params.iter().map(|(_, ty)| ty));
        // The frame scope: emitted via InlineEnter's scope entry. The
        // callee must not see the caller's locals, so resolution floors
        // at this scope for the duration of the body.
        self.push_scope(true);
        let saved_floor = std::mem::replace(&mut self.resolve_floor, self.scopes.len() - 1);
        let first_slot = self.next_slot;
        for (name, _) in &func.params {
            self.declare(name);
        }
        self.ops.push(Op::InlineEnter {
            first_slot,
            argc: func.params.len() as u8,
            coerces,
            call_line: u32::MAX,
            line: func.line,
        });
        self.ctxs.push(Ctx {
            kind: CtxKind::Inline,
            scopes_outside: 0, // unused: nothing branches past an inline frame
            scopes_body: self.emitted_scopes(),
            break_patches: Vec::new(), // return-to-exit patches
            continue_patches: Vec::new(),
            continue_target: None,
        });
        for s in &func.body.stmts {
            self.emit_stmt(s);
        }
        // Falling off the end returns 0 (without burning), like `Ret`.
        let cidx = self.intern(Folded::Int(0));
        self.ops.push(Op::PushConst { cidx });
        let end = self.here();
        let ctx = self.ctxs.pop().expect("inline ctx pushed");
        self.patch(ctx.break_patches, end);
        debug_assert!(ctx.continue_patches.is_empty());
        self.ops.push(Op::InlineExit);
        self.pop_scope();
        self.resolve_floor = saved_floor;
        self.inline_stack.pop();
    }

    /// The innermost context a `break`/`continue` may bind to, never
    /// crossing an inlined frame (the checker guarantees checked code
    /// never tries; this keeps checker-rejected shapes inert).
    fn branch_ctx(&self, loops_only: bool) -> Option<usize> {
        for (i, c) in self.ctxs.iter().enumerate().rev() {
            match c.kind {
                CtxKind::Inline => return None,
                CtxKind::Loop => return Some(i),
                CtxKind::Switch if !loops_only => return Some(i),
                CtxKind::Switch => {}
            }
        }
        None
    }

    // ----- statements -----------------------------------------------------

    fn placeholder(&mut self) -> usize {
        self.ops.push(Op::Jump { target: u32::MAX });
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn emit_block(&mut self, b: &'p Block) {
        let has_decl = b.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. }));
        if has_decl {
            self.ops.push(Op::EnterScope);
        }
        self.push_scope(has_decl);
        for s in &b.stmts {
            self.emit_stmt(s);
        }
        self.pop_scope();
        if has_decl {
            self.ops.push(Op::ExitScope);
        }
    }

    fn emit_stmt(&mut self, s: &'p Stmt) {
        match s {
            Stmt::Decl { name, ty, init, line } => {
                self.ops.push(Op::Line(*line));
                match (ty, init) {
                    (CType::Array(elem, n), init) => {
                        let template =
                            self.intern_template(vec![self.zero_of(elem); *n]);
                        let mut items = 0u16;
                        if let Some(Init::List(list)) = init {
                            for it in list {
                                self.emit_expr(it);
                            }
                            items = list.len() as u16;
                        }
                        let slot = self.declare(name);
                        self.ops.push(Op::DeclArray {
                            slot,
                            template,
                            items,
                            coerce: Coerce::of(elem),
                        });
                    }
                    (CType::Struct(id), Some(Init::List(list))) => {
                        let fields = &self.symbols.structs.get(*id).fields;
                        let template = self.intern_template(
                            fields.iter().map(|(_, t)| self.zero_of(t)).collect(),
                        );
                        let cidx = self.intern_coerces(fields.iter().map(|(_, t)| t));
                        for it in list {
                            self.emit_expr(it);
                        }
                        let slot = self.declare(name);
                        self.ops.push(Op::DeclStruct {
                            slot,
                            template,
                            items: list.len() as u16,
                            coerces: cidx,
                        });
                    }
                    (ty, Some(Init::Expr(e))) => {
                        self.emit_expr(e);
                        let slot = self.declare(name);
                        self.ops.push(Op::DeclScalar { slot, coerce: Coerce::of(ty) });
                    }
                    (ty, _) => {
                        let template = self.intern_template(vec![self.zero_of(ty)]);
                        let slot = self.declare(name);
                        self.ops.push(Op::DeclZero { slot, template });
                    }
                }
            }
            Stmt::Expr(e) => self.emit_expr_stmt(e),
            Stmt::If { cond, then_blk, else_blk } => {
                self.emit_expr(cond);
                let br = self.placeholder();
                self.emit_block(then_blk);
                match else_blk {
                    Some(eb) => {
                        let jmp = self.placeholder();
                        let at_else = self.here();
                        self.ops[br] = Op::JumpIfFalse { target: at_else };
                        self.emit_block(eb);
                        let end = self.here();
                        self.ops[jmp] = Op::Jump { target: end };
                    }
                    None => {
                        let end = self.here();
                        self.ops[br] = Op::JumpIfFalse { target: end };
                    }
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                self.emit_expr(cond);
                let br = self.placeholder();
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: Some(start),
                });
                self.emit_block(body);
                self.ops.push(Op::Jump { target: start });
                let end = self.here();
                self.ops[br] = Op::JumpIfFalse { target: end };
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                debug_assert!(ctx.continue_patches.is_empty());
            }
            Stmt::DoWhile { body, cond } => {
                let start = self.here();
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                self.emit_block(body);
                let at_cond = self.here();
                self.emit_expr(cond);
                self.ops.push(Op::JumpIfTrue { target: start });
                let end = self.here();
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                self.patch(ctx.continue_patches, at_cond);
            }
            Stmt::For { init, cond, step, body } => {
                let has_scope = matches!(init.as_deref(), Some(Stmt::Decl { .. }));
                if has_scope {
                    self.ops.push(Op::EnterScope);
                }
                self.push_scope(has_scope);
                if let Some(init) = init {
                    self.emit_stmt(init);
                }
                let start = self.here();
                let br = cond.as_ref().map(|c| {
                    self.emit_expr(c);
                    self.placeholder()
                });
                self.ctxs.push(Ctx {
                    kind: CtxKind::Loop,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: self.emitted_scopes(),
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                self.emit_block(body);
                let at_step = self.here();
                if let Some(st) = step {
                    self.emit_expr_stmt(st);
                }
                self.ops.push(Op::Jump { target: start });
                let end = self.here();
                if let Some(br) = br {
                    self.ops[br] = Op::JumpIfFalse { target: end };
                }
                let ctx = self.ctxs.pop().expect("loop ctx pushed");
                self.patch(ctx.break_patches, end);
                self.patch(ctx.continue_patches, at_step);
                self.pop_scope();
                if has_scope {
                    self.ops.push(Op::ExitScope);
                }
            }
            Stmt::Switch { expr, arms, line } => {
                self.ops.push(Op::Line(*line));
                self.emit_expr(expr);
                let enter_scope = arms
                    .iter()
                    .any(|a| a.stmts.iter().any(|s| matches!(s, Stmt::Decl { .. })));
                let table = self.out.switches.len() as u32;
                self.out.switches.push(SwitchTable {
                    cases: Vec::new(),
                    default: None,
                    end: u32::MAX,
                    enter_scope,
                    line: *line,
                });
                self.ops.push(Op::Switch { table });
                self.ctxs.push(Ctx {
                    kind: CtxKind::Switch,
                    scopes_outside: self.emitted_scopes(),
                    scopes_body: 0, // switches never host `continue` targets
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    continue_target: None,
                });
                // All arms share one runtime scope, entered by the Switch
                // dispatch itself.
                self.push_scope(enter_scope);
                let mut arm_starts = Vec::with_capacity(arms.len());
                for arm in arms {
                    arm_starts.push(self.here());
                    for st in &arm.stmts {
                        self.emit_stmt(st);
                    }
                }
                self.pop_scope();
                if enter_scope {
                    self.ops.push(Op::ExitScope);
                }
                let end = self.here();
                let ctx = self.ctxs.pop().expect("switch ctx pushed");
                self.patch(ctx.break_patches, end);
                debug_assert!(ctx.continue_patches.is_empty());
                let tbl = &mut self.out.switches[table as usize];
                tbl.end = end;
                for (arm, start) in arms.iter().zip(arm_starts) {
                    for l in &arm.labels {
                        match l {
                            CaseLabel::Case(v) => tbl.cases.push((*v, start)),
                            CaseLabel::Default => {
                                if tbl.default.is_none() {
                                    tbl.default = Some(start);
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Return(e, line) => {
                self.ops.push(Op::Line(*line));
                match e {
                    Some(e) => self.emit_expr(e),
                    None => {
                        let cidx = self.intern(Folded::Int(0));
                        self.ops.push(Op::PushConst { cidx });
                    }
                }
                // Inside an inlined body, `return` unwinds the scopes it
                // opened and jumps to the frame's `InlineExit`; a real
                // `Ret` would tear down the whole (caller's) frame.
                match self.ctxs.iter().rposition(|c| matches!(c.kind, CtxKind::Inline)) {
                    Some(i) => {
                        let unwind = self.emitted_scopes() - self.ctxs[i].scopes_body;
                        for _ in 0..unwind {
                            self.ops.push(Op::ExitScope);
                        }
                        let p = self.placeholder();
                        self.ctxs[i].break_patches.push(p);
                    }
                    None => self.ops.push(Op::Ret),
                }
            }
            Stmt::Break(line) => {
                self.ops.push(Op::Line(*line));
                if let Some(i) = self.branch_ctx(false) {
                    let unwind = self.emitted_scopes() - self.ctxs[i].scopes_outside;
                    for _ in 0..unwind {
                        self.ops.push(Op::ExitScope);
                    }
                    let p = self.placeholder();
                    self.ctxs[i].break_patches.push(p);
                }
                // `break` outside any loop/switch is checker-rejected.
            }
            Stmt::Continue(line) => {
                self.ops.push(Op::Line(*line));
                if let Some(i) = self.branch_ctx(true) {
                    let unwind = self.emitted_scopes() - self.ctxs[i].scopes_body;
                    for _ in 0..unwind {
                        self.ops.push(Op::ExitScope);
                    }
                    match self.ctxs[i].continue_target {
                        Some(t) => self.ops.push(Op::Jump { target: t }),
                        None => {
                            let p = self.placeholder();
                            self.ctxs[i].continue_patches.push(p);
                        }
                    }
                }
            }
            Stmt::Block(b) => self.emit_block(b),
            Stmt::Empty => {}
        }
    }

    /// An expression evaluated for effect only (expression statements and
    /// `for` steps). Statement-level stores to plain variables are the
    /// bulk of driver hot loops; fuse them so the value never round-trips
    /// through the stacks. The burn sequence and fault behaviour are
    /// unchanged (`PlaceLocal`, `Store` and `Pop` never burn).
    fn emit_expr_stmt(&mut self, e: &'p Expr) {
        match e {
            Expr::Assign { op, lhs, rhs, line } => {
                if let Expr::Ident { name, .. } = lhs.as_ref() {
                    match self.resolve(name) {
                        Resolved::Local(slot) => {
                            self.ops.push(Op::Line(*line));
                            self.emit_expr(rhs);
                            self.ops.push(match op {
                                None => Op::StoreLocalPop { slot, line: *line },
                                Some(op) => {
                                    Op::StoreOpLocalPop { slot, op: *op, line: *line }
                                }
                            });
                            return;
                        }
                        Resolved::Global(gidx) => {
                            self.ops.push(Op::Line(*line));
                            self.emit_expr(rhs);
                            self.ops.push(match op {
                                None => Op::StoreGlobalPop { gidx, line: *line },
                                Some(op) => {
                                    Op::StoreOpGlobalPop { gidx, op: *op, line: *line }
                                }
                            });
                            return;
                        }
                        Resolved::None => {}
                    }
                }
            }
            Expr::IncDec { expr, inc, line, .. } => {
                if let Expr::Ident { name, .. } = expr.as_ref() {
                    match self.resolve(name) {
                        Resolved::Local(slot) => {
                            self.ops.push(Op::Line(*line));
                            self.ops
                                .push(Op::IncDecLocalPop { slot, inc: *inc, line: *line });
                            return;
                        }
                        Resolved::Global(gidx) => {
                            self.ops.push(Op::Line(*line));
                            self.ops
                                .push(Op::IncDecGlobalPop { gidx, inc: *inc, line: *line });
                            return;
                        }
                        Resolved::None => {}
                    }
                }
            }
            _ => {}
        }
        self.emit_expr(e);
        self.ops.push(Op::Pop);
    }

    fn patch(&mut self, patches: Vec<usize>, target: u32) {
        for p in patches {
            self.ops[p] = Op::Jump { target };
        }
    }

    // ----- items ----------------------------------------------------------

    fn lower_function(&mut self, f: &'p Function) -> BFunc {
        self.ops = Vec::new();
        self.scopes.clear();
        self.names.clear();
        self.ctxs.clear();
        self.next_slot = 0;
        self.inline_stack.clear();
        self.resolve_floor = 0;
        // The frame scope (params + body top-level decls) is pushed by the
        // call machinery itself, so it is "emitted" without an op.
        self.push_scope(true);
        let mut params = Vec::with_capacity(f.params.len());
        for (name, ty) in &f.params {
            self.declare(name);
            params.push(Coerce::of(ty));
        }
        // Body statements run inline in the frame scope, exactly like
        // `exec_block_inline` in the tree-walker.
        for s in &f.body.stmts {
            self.emit_stmt(s);
        }
        // Falling off the end returns 0 (without burning fuel).
        let cidx = self.intern(Folded::Int(0));
        self.ops.push(Op::PushConst { cidx });
        self.ops.push(Op::Ret);
        self.pop_scope();
        BFunc {
            name: f.name.clone(),
            ops: std::mem::take(&mut self.ops),
            slots: self.next_slot,
            params: params.into_boxed_slice(),
            line: f.line,
        }
    }

    fn lower_global(&mut self, g: &'p Global) -> BGlobal {
        self.ops = Vec::new();
        self.scopes.clear();
        self.names.clear();
        self.ctxs.clear();
        self.next_slot = 0;
        self.inline_stack.clear();
        self.resolve_floor = 0;
        // Mirror `ensure_globals`: aggregates store evaluated items *raw*,
        // scalars coerce; missing initialisers clone the zero template.
        let finish = match (&g.ty, &g.init) {
            (CType::Array(elem, n), init) => {
                let template = self.intern_template(vec![self.zero_of(elem); *n]);
                let mut items = 0u16;
                if let Some(Init::List(list)) = init {
                    for it in list {
                        self.emit_expr(it);
                    }
                    items = list.len() as u16;
                }
                if items == 0 {
                    GFinish::Zero { template }
                } else {
                    GFinish::Array { template, items }
                }
            }
            (ty, Some(Init::Expr(e))) => {
                self.emit_expr(e);
                GFinish::Scalar { coerce: Coerce::of(ty) }
            }
            (CType::Struct(id), Some(Init::List(list))) => {
                let fields = &self.symbols.structs.get(*id).fields;
                let template =
                    self.intern_template(fields.iter().map(|(_, t)| self.zero_of(t)).collect());
                for it in list {
                    self.emit_expr(it);
                }
                GFinish::Struct { template, items: list.len() as u16 }
            }
            (ty, _) => {
                let template = self.intern_template(vec![self.zero_of(ty)]);
                GFinish::Zero { template }
            }
        };
        BGlobal {
            name: g.name.clone(),
            ops: std::mem::take(&mut self.ops),
            finish,
            line: g.line,
        }
    }
}

/// Recursive statement count of a block — the inlining size metric
/// (statements are a good proxy for emitted ops in the C subset; the
/// limit in [`Lower::should_inline`] is calibrated to the generated stub
/// accessors and the drivers' small wait/select helpers).
fn block_stmts(b: &Block) -> usize {
    b.stmts.iter().map(stmt_count).sum()
}

fn stmt_count(s: &Stmt) -> usize {
    1 + match s {
        Stmt::If { then_blk, else_blk, .. } => {
            block_stmts(then_blk) + else_blk.as_ref().map_or(0, block_stmts)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => block_stmts(body),
        Stmt::For { init, body, .. } => {
            init.as_deref().map_or(0, stmt_count) + block_stmts(body)
        }
        Stmt::Switch { arms, .. } => arms
            .iter()
            .map(|a| a.stmts.iter().map(stmt_count).sum::<usize>())
            .sum(),
        Stmt::Block(b) => block_stmts(b),
        _ => 0,
    }
}

/// Integer binary operator evaluation for folding — the `Int × Int` arm of
/// `Interpreter::apply_binop`, returning `None` for anything that would
/// fault at run time (division by zero stays unfolded).
fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    use BinOp::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        Shl => a.wrapping_shl((b as u32) & 63),
        Shr => {
            if a >= 0 {
                a.wrapping_shr((b as u32) & 63)
            } else {
                ((a as u32) >> ((b as u32) & 31)) as i64
            }
        }
        BitAnd => a & b,
        BitOr => a | b,
        BitXor => a ^ b,
        Eq => i64::from(a == b),
        Ne => i64::from(a != b),
        Lt => i64::from(a < b),
        Gt => i64::from(a > b),
        Le => i64::from(a <= b),
        Ge => i64::from(a >= b),
        LogAnd | LogOr => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn lowers_a_driver_shaped_program() {
        let p = compile(
            "t.c",
            "unsigned short buf[4];\n\
             int f(int n) {\n\
               int i;\n\
               int acc = 0;\n\
               for (i = 0; i < n; i++) { acc += buf[i & 3]; }\n\
               switch (acc) { case 0: return 1; default: break; }\n\
               return acc;\n\
             }",
        )
        .unwrap();
        let c = p.to_bytecode();
        assert_eq!(c.function_count(), 1);
        assert_eq!(c.globals.len(), 1);
        assert!(c.funcs[0].slots >= 3, "n, i, acc get slots");
        assert!(matches!(c.funcs[0].ops.last(), Some(Op::Ret)));
        assert_eq!(c.switches.len(), 1);
    }

    #[test]
    fn constant_subtrees_fold_with_burns_preserved() {
        let p = compile("t.c", "int f(void) { return (3 + 4) * 2; }").unwrap();
        // The unfused encoding: lowering shapes, before the peephole pass.
        let c = p.to_bytecode_unfused();
        // The whole arithmetic subtree folds to one ConstN carrying the
        // five-node burn sequence (mul, add, 3, 4, 2).
        let folded = c.funcs[0].ops.iter().find_map(|op| match op {
            Op::ConstN { cidx, seq } => Some((*cidx, *seq)),
            _ => None,
        });
        let (cidx, seq) = folded.expect("constant subtree folds to ConstN");
        assert_eq!(c.consts[cidx as usize], Value::Int(14));
        assert_eq!(c.burn_seqs[seq as usize].len(), 5);
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        let p = compile("t.c", "int f(void) { return 1 / 0; }").unwrap();
        let c = p.to_bytecode_unfused();
        assert!(
            c.funcs[0].ops.iter().any(|op| matches!(
                op,
                Op::Bin { op: BinOp::Div, .. } | Op::BinConst { op: BinOp::Div, .. }
            )),
            "faulting division must stay a runtime op: {:?}",
            c.funcs[0].ops
        );
    }

    #[test]
    fn string_literals_intern_once() {
        let p = compile(
            "t.c",
            r#"int f(void) { return strcmp("abc", "abc"); }"#,
        )
        .unwrap();
        let c = p.to_bytecode();
        let strs = c
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Str(_)))
            .count();
        assert_eq!(strs, 1, "identical literals share one constant");
    }
}
