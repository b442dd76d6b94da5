//! Every flat-layout engine runs on its thread's one reusable stack
//! buffer pair (`vm::stepper::FlatStacks`), which is never re-zeroed:
//! cells at or above the stack pointer hold whatever an earlier run left
//! there. These tests pin that no engine can tell — outcomes on a thread
//! whose buffers are deep with stale values equal those on a fresh
//! thread, and trap positions do not depend on which limits the thread
//! ran with before.

use std::thread;

use stackcache_core::interp::{compile_static, run_dyncache, run_staticcache};
use stackcache_harness::{all_engines, corpus, gen, Outcome, MEMORY_BYTES};
use stackcache_vm::fusion::{fuse, run_fused, run_quickened, FusionPlan, Quickened, DEFAULT_TOP_K};
use stackcache_vm::interp::{run_baseline, run_tos};
use stackcache_vm::{exec, Inst, Machine, Program, ProgramBuilder, Rng, VmError};

const FUEL: u64 = 1_000_000;

/// Fill this thread's stack buffers with distinct nonzero values: 60000
/// data cells, then the top half moved onto the return stack.
fn dirty_this_threads_stacks() {
    let mut b = ProgramBuilder::new();
    b.entry_here();
    b.push(Inst::Lit(60_000));
    b.push(Inst::Lit(0));
    b.push(Inst::DoSetup);
    let fill = b.new_label();
    b.bind(fill).unwrap();
    b.push(Inst::LoopI);
    b.push(Inst::OnePlus);
    b.loop_inc(fill);
    let spill = b.new_label();
    b.bind(spill).unwrap();
    b.push(Inst::ToR);
    b.push(Inst::Depth);
    b.push(Inst::Lit(30_000));
    b.push(Inst::Gt);
    let done = b.new_label();
    b.branch_if_zero(done);
    b.branch(spill);
    b.bind(done).unwrap();
    b.push(Inst::Halt);
    let p = b.finish().unwrap();
    let mut m = Machine::with_memory(MEMORY_BYTES);
    run_baseline(&p, &mut m, FUEL).expect("the fill program halts");
    assert_eq!((m.depth(), m.rstack().len()), (30_000, 30_000));
}

/// The recorded corpus plus generated structured, memory and call-nest
/// programs (with preset stacks), some of them trapping.
fn cases() -> Vec<(String, Program, Machine)> {
    let fresh = || Machine::with_memory(MEMORY_BYTES);
    let mut out: Vec<_> = corpus::load_all()
        .into_iter()
        .map(|(name, p)| (name, p, fresh()))
        .collect();
    for seed in 0..8u64 {
        let mut rng = Rng::new(0x5_7ACC ^ seed);
        out.push((
            format!("structured#{seed}"),
            gen::structured_program(&mut rng),
            fresh(),
        ));
        let proto = gen::seeded_machine(&mut rng, MEMORY_BYTES, 6);
        let choices = gen::random_choices(&mut rng, 60, 1 << 20);
        out.push((
            format!("memory#{seed}"),
            gen::memory_fodder(&choices, MEMORY_BYTES),
            proto,
        ));
        out.push((
            format!("callnest#{seed}"),
            gen::call_nest_program(&mut rng, 4),
            fresh(),
        ));
        let choices = gen::random_choices(&mut rng, 40, 100);
        out.push((
            format!("straight#{seed}"),
            gen::straight_line(&choices),
            fresh(),
        ));
    }
    out
}

/// All 22 engine configurations give the same outcome on a thread whose
/// stacks were just filled deep with distinct values as on a fresh
/// thread — so none reads a stack cell at or above its stack pointer.
#[test]
fn dirty_buffers_change_no_outcome() {
    let cases = cases();
    let engines = all_engines();
    assert_eq!(engines.len(), 22);
    for (name, program, proto) in &cases {
        for engine in &engines {
            dirty_this_threads_stacks();
            let dirty = engine.run_on(program, proto, FUEL);
            let fresh: Outcome = thread::scope(|s| {
                s.spawn(|| engine.run_on(program, proto, FUEL))
                    .join()
                    .expect("fresh-thread run")
            });
            assert_eq!(
                dirty.first_difference(&fresh, true),
                None,
                "{name} on {}: dirty stacks changed the outcome",
                engine.name
            );
        }
    }
}

/// One run of `program` on a clone of `proto` under the named flat
/// engine, with the trap's full `VmError` (ip included).
fn run_flat(engine: &str, program: &Program, proto: &Machine) -> (Result<u64, VmError>, Machine) {
    let mut m = proto.clone();
    let result = match engine {
        "baseline" => run_baseline(program, &mut m, FUEL).map(|s| s.executed),
        "tos" => run_tos(program, &mut m, FUEL).map(|s| s.executed),
        "dyncache" => run_dyncache(program, &mut m, FUEL).map(|s| s.executed),
        "static" => run_staticcache(&compile_static(program, 1), &mut m, FUEL).map(|s| s.executed),
        "fused" => {
            let plan = FusionPlan::static_default(program, DEFAULT_TOP_K);
            run_fused(&fuse(program, &plan), &mut m, FUEL).map(|s| s.executed)
        }
        "quickened" => {
            let plan = FusionPlan::static_default(program, DEFAULT_TOP_K);
            let quick = Quickened::new(fuse(program, &plan));
            run_quickened(&quick, &mut m, FUEL).map(|s| s.executed)
        }
        "jit" => stackcache_jit::run_jit(program, &mut m, FUEL).map(|s| s.executed),
        other => unreachable!("no engine {other}"),
    };
    (result, m)
}

/// The flat-layout engines, each with whether its overflow traps land
/// on the reference interpreter's ip. The dynamic and static caches
/// keep up to three items in registers that their limit check does not
/// count, so they overflow three pushes late; for them the check is
/// that the thread's history changes nothing.
const FLAT_ENGINES: [(&str, bool); 7] = [
    ("baseline", true),
    ("tos", true),
    ("dyncache", false),
    ("static", false),
    ("fused", true),
    ("quickened", true),
    ("jit", true),
];

/// A machine whose limits differ from the thread's buffer pair gets
/// buffers of its own limits: after a default-limit run, an 8-cell
/// machine overflows where `vm::exec` does, and after the 8-cell run a
/// default-limit machine runs the same program to `halt`.
#[test]
fn a_limit_change_between_runs_keeps_overflow_exact() {
    // 20 pushes: overflows an 8-cell stack, fits the default one
    let mut insts = vec![Inst::Lit(7); 20];
    insts.push(Inst::Halt);
    let program = stackcache_vm::program_of(&insts);
    let default = Machine::with_memory(MEMORY_BYTES);
    let mut small = Machine::with_memory(MEMORY_BYTES);
    small.set_stack_limit(8);

    let mut reference = small.clone();
    let want_small = exec::run(&program, &mut reference, FUEL).map(|o| o.executed);
    assert_eq!(want_small, Err(VmError::StackOverflow { ip: 8 }));

    for (engine, exact) in FLAT_ENGINES {
        let on_fresh_thread = |proto: &Machine| {
            thread::scope(|s| {
                s.spawn(|| run_flat(engine, &program, proto).0)
                    .join()
                    .expect("engine thread")
            })
        };
        let fresh_small = on_fresh_thread(&small);
        if exact {
            assert_eq!(fresh_small, want_small, "{engine}");
        } else {
            assert!(
                matches!(fresh_small, Err(VmError::StackOverflow { .. })),
                "{engine}: {fresh_small:?}"
            );
        }
        for order in [[&default, &small], [&small, &default]] {
            thread::scope(|s| {
                s.spawn(|| {
                    for proto in order {
                        let (got, m) = run_flat(engine, &program, proto);
                        if std::ptr::eq(proto, &small) {
                            assert_eq!(got, fresh_small, "{engine}");
                        } else {
                            assert_eq!(got, Ok(21), "{engine}");
                            assert_eq!(m.depth(), 20, "{engine}");
                        }
                    }
                })
                .join()
                .expect("engine thread");
            });
        }
    }
}
