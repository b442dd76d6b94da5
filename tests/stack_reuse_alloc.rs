//! The steady-state engine path allocates nothing: once a thread has run
//! an engine, the next run on a machine reset in place
//! (`Machine::reset_from`) takes the thread's stack buffer pair instead
//! of allocating and zeroing a new one.
//!
//! A test binary of its own, because the counting allocator it installs
//! is global to the binary. Only allocations made on a thread that has
//! switched counting on are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use stackcache_core::interp::{compile_static, run_dyncache, run_staticcache};
use stackcache_vm::fusion::{fuse, run_fused, run_quickened, FusionPlan, Quickened, DEFAULT_TOP_K};
use stackcache_vm::interp::{run_baseline, run_tos};
use stackcache_vm::{Inst, Machine, Program, ProgramBuilder, VmError, DEFAULT_STACK_LIMIT};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread, and the largest of them in
/// bytes.
fn count(f: impl FnOnce()) -> (u64, usize) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    )
}

/// A loop with a call, memory traffic, return-stack use and both kinds
/// of output: `10 0 do i dup * sq ! sq @ . loop 42 emit`.
fn program() -> Program {
    let mut b = ProgramBuilder::new();
    let square = b.new_label();
    b.entry_here();
    b.extend([Inst::Lit(10), Inst::Lit(0), Inst::DoSetup]);
    let top = b.new_label();
    b.bind(top).unwrap();
    b.push(Inst::LoopI);
    b.call(square);
    b.extend([Inst::Lit(16), Inst::Store, Inst::Lit(16), Inst::Fetch]);
    b.extend([Inst::Dup, Inst::ToR, Inst::FromR, Inst::Dot]);
    b.loop_inc(top);
    b.extend([Inst::Lit(42), Inst::Emit, Inst::Halt]);
    b.bind(square).unwrap();
    b.extend([Inst::Dup, Inst::Mul, Inst::Return]);
    b.finish().unwrap()
}

type Run<'a> = Box<dyn Fn(&mut Machine) -> Result<u64, VmError> + 'a>;

/// The second run of every flat-layout engine, after `reset_from`,
/// allocates nothing; the JIT allocates nothing stack-sized (its block
/// cache copies the program on each lookup).
#[test]
fn steady_state_runs_allocate_no_stacks() {
    let p = program();
    let exe = compile_static(&p, 2);
    let plan = FusionPlan::static_default(&p, DEFAULT_TOP_K);
    let fused = fuse(&p, &plan);
    let quick = Quickened::new(fuse(&p, &plan));
    let fuel = 100_000;
    let engines: Vec<(&str, Run<'_>)> = vec![
        (
            "baseline",
            Box::new(|m| run_baseline(&p, m, fuel).map(|s| s.executed)),
        ),
        (
            "tos",
            Box::new(|m| run_tos(&p, m, fuel).map(|s| s.executed)),
        ),
        (
            "dyncache",
            Box::new(|m| run_dyncache(&p, m, fuel).map(|s| s.executed)),
        ),
        (
            "static",
            Box::new(|m| run_staticcache(&exe, m, fuel).map(|s| s.executed)),
        ),
        (
            "fused",
            Box::new(|m| run_fused(&fused, m, fuel).map(|s| s.executed)),
        ),
        (
            "quickened",
            Box::new(|m| run_quickened(&quick, m, fuel).map(|s| s.executed)),
        ),
        (
            "jit",
            Box::new(|m| stackcache_jit::run_jit(&p, m, fuel).map(|s| s.executed)),
        ),
    ];
    let proto = Machine::with_memory(256);
    let stack_bytes = DEFAULT_STACK_LIMIT * std::mem::size_of::<i64>();
    for (name, run) in &engines {
        let mut m = proto.clone();
        run(&mut m).expect("first run halts");
        let first = m.output().to_vec();
        let (allocations, largest) = count(|| {
            m.reset_from(&proto);
            run(&mut m).expect("second run halts");
        });
        assert_eq!(m.output(), first, "{name}: the second run differs");
        if *name == "jit" {
            assert!(
                largest < stack_bytes,
                "{name}: a {largest}-byte allocation on the steady-state path"
            );
        } else {
            assert_eq!(
                allocations, 0,
                "{name}: {allocations} allocations on the steady-state path (largest {largest} bytes)"
            );
        }
    }
}
