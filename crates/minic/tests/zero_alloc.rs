//! Proof that the bytecode VM's dispatch loop is allocation-free in
//! steady state.
//!
//! Compiles a driver-shaped hot loop (port I/O, global buffer traffic,
//! locals, arithmetic, a nested call), runs it once to warm the VM's
//! stacks and object-buffer pool, then asserts that a *second* full call
//! — thousands of dispatched ops, including scope churn and builtin I/O —
//! performs zero heap allocations. This is the acceptance gate for the
//! buffer-reusing object heap in `devil_minic::vm` (the tree-walking
//! interpreter, by contrast, allocates on every declaration and string
//! literal).
//!
//! Same counting-allocator pattern as `crates/core/tests/zero_alloc.rs`;
//! kept to a single `#[test]` so no concurrent test thread can disturb
//! the global counter.

use devil_minic::interp::{EffectMark, Host, NullHost};
use devil_minic::value::Value;
use devil_minic::vm::Vm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Only allocations made by the thread inside `allocations_during`
    /// are counted — libtest's harness threads allocate at their own
    /// pace and must not flake the assertion.
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(|c| c.get()).unwrap_or(false)
}

struct CountingAllocator;

// SAFETY: delegates directly to `System`, only incrementing a counter for
// allocations made by a thread that opted in.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// A hot loop with the access shapes a polling driver uses: global array
/// reads/writes, locals declared inside the loop (scope churn through the
/// object pool), pointer traffic, port I/O builtins, and a helper call
/// per iteration.
const DRIVER_LOOP: &str = "
typedef unsigned short u16;

u16 ring[16];

static int mix(int a, int b)
{
    int t = (a << 3) ^ b;
    return (t & 0xffff) | (a >> 13);
}

int spin(int rounds)
{
    int i;
    int acc = 0;
    for (i = 0; i < rounds; i++) {
        int slot = i & 15;
        u16 *p = ring;
        acc += mix(p[slot], inb(0x1F7));
        ring[slot] = acc & 0xff;
        outb(acc & 0xff, 0x1F0);
        acc &= 0xffffff;
    }
    return acc;
}
";

/// A polling/block-I/O hot loop: the fused superinstruction shapes
/// (const-bound and local-bound compares, prefix-decrement spins, port
/// spins) plus the block-transfer builtins moving whole buffers per call.
const BLOCK_LOOP: &str = "
typedef unsigned short u16;

u16 sector[256];

int pump(int rounds) {
    int n = 0;
    int acc = 0;
    while (n < rounds) {
        int retries = 4;
        n++;
        while ((inb(0x1F7) & 0x08) == 0) { acc--; }
        do { acc += n; } while (--retries > 0);
        insw(0x1F0, sector, 256);
        outsw(0x1F0, sector, 256);
        acc += sector[n & 255];
    }
    return acc;
}
";

#[test]
fn vm_dispatch_loop_is_allocation_free() {
    let program = devil_minic::compile("hot.c", DRIVER_LOOP).expect("hot loop compiles");
    let compiled = program.to_bytecode();
    assert!(compiled.fused_op_count() > 0, "the hot loop must exercise fused dispatch");
    let mut host = NullHost::default();
    let mut vm = Vm::new(&compiled, &mut host, 10_000_000);

    // Warm-up: globals initialise, stacks and the object pool size
    // themselves, every op executes at least once.
    let warm = vm.call("spin", &[Value::Int(500)]).expect("warm run completes");
    assert!(warm.as_int().is_some());

    let (allocs, result) = allocations_during(|| {
        vm.call("spin", &[Value::Int(500)]).expect("hot run completes")
    });
    assert_eq!(
        allocs,
        0,
        "VM dispatch loop allocated {allocs} times (result {result})"
    );

    // Second phase, same global counter (single #[test] by design): the
    // fused superinstructions and the block-transfer builtins' bulk path
    // are pinned allocation-free too — the io_block staging buffer sizes
    // itself during warm-up and is reused from then on.
    let program = devil_minic::compile("blk.c", BLOCK_LOOP).expect("block loop compiles");
    let compiled = program.to_bytecode();
    assert!(compiled.fused_op_count() > 0, "polling shapes must fuse");
    let mut host = NullHost::default();
    let mut vm = Vm::new(&compiled, &mut host, 100_000_000);
    vm.call("pump", &[Value::Int(50)]).expect("warm block run completes");
    let (allocs, result) = allocations_during(|| {
        vm.call("pump", &[Value::Int(50)]).expect("hot block run completes")
    });
    assert_eq!(
        allocs,
        0,
        "fused dispatch / block builtins allocated {allocs} times (result {result})"
    );

    // Third phase: a host that reports effect marks arms the loop
    // fast-forward's cycle detector, whose saved state reuses its buffers
    // once warm — both when it finds no period (the driver loop writes
    // the heap every iteration) and when it skips one (the polling loop).
    let program = devil_minic::compile("hot.c", DRIVER_LOOP).expect("hot loop compiles");
    let compiled = program.to_bytecode();
    let mut host = Blinking::default();
    let mut vm = Vm::new(&compiled, &mut host, 10_000_000);
    vm.call("spin", &[Value::Int(500)]).expect("warm run completes");
    let (allocs, _) = allocations_during(|| vm.call("spin", &[Value::Int(500)]).unwrap());
    assert_eq!(allocs, 0, "the armed cycle detector allocated {allocs} times");
    let program = devil_minic::compile("poll.c", POLL_LOOP).expect("poll loop compiles");
    let compiled = program.to_bytecode();
    let mut host = Blinking::default();
    let mut vm = Vm::new(&compiled, &mut host, 100_000_000);
    vm.call("wait", &[Value::Int(20)]).expect("warm poll run completes");
    let skipped = vm.fuel_skipped();
    assert!(skipped > 0, "the polling loop must fast-forward");
    let (allocs, _) = allocations_during(|| vm.call("wait", &[Value::Int(20)]).unwrap());
    assert_eq!(allocs, 0, "fast-forwarding allocated {allocs} times");
    assert!(vm.fuel_skipped() > skipped, "the hot run fast-forwards too");

    // The host side stays live too: reads floated, writes vanished.
    let mut probe = NullHost::default();
    assert_eq!(probe.io_read(0x1F7, 1), 0xFF);
}

/// Waits for a status port that is busy for 1000 clock ticks, ready for
/// the next 1000, and so on: the inner loop is pure polling, skipped up
/// to each change point.
const POLL_LOOP: &str = "
int wait(int rounds)
{
    int n = 0;
    while (n < rounds) {
        while (inb(0x1F7) & 0x80) { }
        n++;
        while (!(inb(0x1F7) & 0x80)) { }
    }
    return n;
}
";

/// A device whose status blinks between busy and ready every 1000 ticks
/// (one tick per access), with pure reads: it reports effect marks, so
/// the VM may fast-forward over it.
#[derive(Default)]
struct Blinking {
    clock: u64,
    reads: u64,
    writes: u64,
}

impl Host for Blinking {
    fn io_read(&mut self, _port: u16, _size: u8) -> i64 {
        self.clock += 1;
        self.reads += 1;
        if (self.clock / 1000).is_multiple_of(2) { 0xD0 } else { 0x58 }
    }
    fn io_write(&mut self, _port: u16, _size: u8, _value: i64) {
        self.clock += 1;
        self.writes += 1;
    }
    fn console(&mut self, _message: &str) {}
    fn effect_mark(&self) -> Option<EffectMark> {
        Some(EffectMark {
            epoch: self.writes,
            clock: self.clock,
            reads: self.reads,
            writes: self.writes,
            quiet: 1000 - self.clock % 1000,
        })
    }
    fn fast_forward(&mut self, periods: u64, from: &EffectMark, to: &EffectMark) {
        self.clock += periods * (to.clock - from.clock);
        self.reads += periods * (to.reads - from.reads);
    }
}

/// Per-construct allocation profile — a diagnostic to bisect regressions
/// when the main test above starts failing. Run with
/// `cargo test -p devil-minic --test zero_alloc -- --ignored --nocapture`.
#[test]
#[ignore = "diagnostic; run explicitly when bisecting an allocation regression"]
fn alloc_profile_by_construct() {
    let variants: &[(&str, &str)] = &[
        ("empty loop", "int spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ acc+=i; } return acc;}"),
        ("decl in loop", "int spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ int s = i; acc+=s; } return acc;}"),
        ("global read", "unsigned short ring[16];\nint spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ acc+=ring[i&15]; } return acc;}"),
        ("global write", "unsigned short ring[16];\nint spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ ring[i&15]=i; acc+=1; } return acc;}"),
        ("inb", "int spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ acc+=inb(0x1F7); } return acc;}"),
        ("call", "static int mix(int a){return a+1;}\nint spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ acc+=mix(i); } return acc;}"),
        ("ptr decl", "unsigned short ring[16];\nint spin(int r){int i; int acc; acc=0; for(i=0;i<r;i++){ unsigned short *p = ring; acc+=p[i&15]; } return acc;}"),
    ];
    for (label, src) in variants {
        let program = devil_minic::compile("v.c", src).unwrap();
        let compiled = program.to_bytecode();
        let mut host = NullHost::default();
        let mut vm = Vm::new(&compiled, &mut host, 10_000_000);
        vm.call("spin", &[Value::Int(100)]).unwrap();
        let (allocs, _) = allocations_during(|| vm.call("spin", &[Value::Int(100)]).unwrap());
        println!("{label}: {allocs}");
    }
}
