//! Harness self-tests: the oracle agrees with itself on generated
//! programs, and an injected transition fault is caught with a
//! first-divergence report.

use stackcache_core::Org;
use stackcache_harness::{all_engines, check_org_accounting, cross_validate, gen, Fault};
use stackcache_vm::{program_of, Cell, Inst, Program, ProgramBuilder, Rng};

const FUEL: u64 = 1_000_000;

#[test]
fn oracle_covers_at_least_twelve_configurations() {
    let p = gen::straight_line(&[(0, 1), (1, 2), (4, 0), (2, 3)]);
    let a = cross_validate(&p, FUEL).expect("agrees");
    assert!(a.configs >= 12, "only {} configurations", a.configs);
    assert!(
        a.engine_configs >= 5,
        "reference, baseline, tos, dyncache, static"
    );
    assert!(a.org_configs >= 6, "Fig. 18 organizations");
    assert!(a.static_configs >= 3, "greedy/optimal/threaded regimes");
}

#[test]
fn oracle_agrees_on_structured_programs() {
    for seed in 0..40u64 {
        let mut rng = Rng::new(0x0A_C1E0 + seed);
        let p = gen::structured_program(&mut rng);
        if let Err(d) = cross_validate(&p, FUEL) {
            panic!("seed {seed}: {d}");
        }
    }
}

#[test]
fn oracle_agrees_on_straight_line_programs() {
    for seed in 0..60u64 {
        let mut rng = Rng::new(0x0A_C1E1 + seed);
        let choices = gen::random_choices(&mut rng, 150, 100);
        let p = gen::straight_line(&choices);
        if let Err(d) = cross_validate(&p, FUEL) {
            panic!("seed {seed}: {d}");
        }
    }
}

/// `MIN / -1` and `MIN mod -1` overflow `i64`. Every engine, plain and
/// peephole-optimized, computes the wrapped results `MIN` and `0`
/// instead of panicking: once in straight-line code (which the peephole
/// pass constant-folds and the JIT guards natively) and once behind a
/// call, where neither can see the operands.
#[test]
fn min_divided_by_minus_one_wraps_on_every_engine() {
    for (op, want) in [(Inst::Div, Cell::MIN), (Inst::Mod, 0)] {
        let straight = program_of(&[Inst::Lit(Cell::MIN), Inst::Lit(-1), op]);
        let mut b = ProgramBuilder::new();
        let word = b.new_label();
        b.push(Inst::Lit(Cell::MIN));
        b.push(Inst::Lit(-1));
        b.call(word);
        b.push(Inst::Halt);
        b.bind(word).unwrap();
        b.push(op);
        b.push(Inst::Return);
        let called: Program = b.finish().unwrap();
        for p in [&straight, &called] {
            for engine in all_engines() {
                let out = engine.run(p, FUEL);
                assert_eq!(out.trap, None, "{op} on {}", engine.name);
                assert_eq!(out.stack, [want], "{op} on {}", engine.name);
            }
            if let Err(d) = cross_validate(p, FUEL) {
                panic!("{op}: {d}");
            }
        }
    }
}

/// An injected off-by-one in a dynamic-cache transition is caught, and
/// the report names the instruction and the cache state.
#[test]
fn injected_off_by_one_is_caught_with_a_report() {
    let p = gen::straight_line(&[(0, 1), (0, 2), (0, 3), (2, 0), (2, 0), (4, 0)]);
    let org = Org::minimal(4);
    // sanity: the unfaulted accounting is clean
    check_org_accounting(&p, FUEL, &org, 4, None).expect("clean accounting");
    let d = check_org_accounting(&p, FUEL, &org, 4, Some(Fault { at: 3 }))
        .expect_err("fault must be caught");
    assert_eq!(d.index, Some(3), "caught at the faulted instruction: {d}");
    assert!(d.ip.is_some(), "report names the program point: {d}");
    assert!(d.cache_state.is_some(), "report names the cache state: {d}");
    assert!(
        d.detail.contains("conservation"),
        "report explains the violation: {d}"
    );
}

/// The same fault, driven through the panicking entry point.
#[test]
#[should_panic(expected = "cache conservation violated")]
fn injected_fault_panics_through_the_oracle() {
    let p = gen::straight_line(&[(0, 1), (0, 2), (0, 3), (2, 0), (2, 0), (4, 0)]);
    let org = Org::minimal(4);
    if let Err(d) = check_org_accounting(&p, FUEL, &org, 4, Some(Fault { at: 2 })) {
        panic!("{d}");
    }
}

/// Engines really are compared: a program with output, return-stack use
/// (via calls) and traps exercises every Outcome field.
#[test]
fn oracle_handles_trapping_programs() {
    use stackcache_vm::ProgramBuilder;
    // a program that divides by zero
    let mut b = ProgramBuilder::new();
    b.push(Inst::Lit(1));
    b.push(Inst::Lit(0));
    b.push(Inst::Div);
    b.push(Inst::Halt);
    let p = b.finish().unwrap();
    let a = cross_validate(&p, FUEL).expect("trap discriminants agree");
    assert!(a.configs >= 12);
}
