//! The engine registry: every way this workspace can execute a program.
//!
//! [`all_engines`] enumerates the wall-clock interpreters — the reference
//! interpreter, the baseline and top-of-stack interpreters, the dynamically
//! stack-cached interpreter, and the statically cached interpreter at every
//! supported canonical depth — each once on the original program and once
//! on its peephole-optimized form. Running one [`Engine`] yields an
//! [`Outcome`]; the oracle in [`crate::check`] asserts pairwise agreement.

use stackcache_core::interp::{compile_static, run_dyncache, run_staticcache};
use stackcache_vm::fusion::{fuse, run_fused, run_quickened, FusionPlan, Quickened, DEFAULT_TOP_K};
use stackcache_vm::interp::{run_baseline, run_tos};
use stackcache_vm::{exec, peephole, Machine, Program};

use crate::outcome::Outcome;

/// Bytes of VM memory every engine run gets. Matches the seed tests.
pub const MEMORY_BYTES: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Reference,
    Baseline,
    Tos,
    Dyncache,
    Static(u8),
    Fused,
    Quickened,
    Jit,
}

/// One executable engine configuration.
#[derive(Debug, Clone)]
pub struct Engine {
    /// Display name, e.g. `"staticcache(c=2)+peephole"`.
    pub name: String,
    /// Whether the program is peephole-optimized before running.
    pub peephole: bool,
    /// Whether the engine reports trap discriminants faithfully enough to
    /// compare on trapping programs. Peephole-optimized runs may remove
    /// the very instruction that would have trapped, so they are only
    /// compared on clean runs.
    pub exact_traps: bool,
    /// Whether `executed` counts original-program instructions (false for
    /// compiled/optimized code, which legitimately executes fewer).
    pub counts_insts: bool,
    kind: Kind,
}

impl Engine {
    fn new(kind: Kind, peephole: bool) -> Engine {
        let base = match kind {
            Kind::Reference => "reference".to_string(),
            Kind::Baseline => "baseline".to_string(),
            Kind::Tos => "tos".to_string(),
            Kind::Dyncache => "dyncache".to_string(),
            Kind::Static(c) => format!("staticcache(c={c})"),
            Kind::Fused => "fused".to_string(),
            Kind::Quickened => "quickened".to_string(),
            Kind::Jit => "jit".to_string(),
        };
        let name = if peephole {
            format!("{base}+peephole")
        } else {
            base
        };
        Engine {
            name,
            peephole,
            exact_traps: !peephole,
            counts_insts: !peephole && !matches!(kind, Kind::Static(_)),
            kind,
        }
    }

    /// Run `program` on a fresh machine and capture the outcome.
    #[must_use]
    pub fn run(&self, program: &Program, fuel: u64) -> Outcome {
        self.run_on(program, &Machine::with_memory(MEMORY_BYTES), fuel)
    }

    /// Run `program` on a clone of `proto` (a machine with prepared
    /// memory/stack contents, e.g. a workload image) and capture the
    /// outcome.
    #[must_use]
    pub fn run_on(&self, program: &Program, proto: &Machine, fuel: u64) -> Outcome {
        let optimized;
        let p = if self.peephole {
            optimized = peephole::optimize(program).0;
            &optimized
        } else {
            program
        };
        let mut m = proto.clone();
        let result = match self.kind {
            Kind::Reference => exec::run(p, &mut m, fuel).map(|o| o.executed),
            Kind::Baseline => run_baseline(p, &mut m, fuel).map(|s| s.executed),
            Kind::Tos => run_tos(p, &mut m, fuel).map(|s| s.executed),
            Kind::Dyncache => run_dyncache(p, &mut m, fuel).map(|s| s.executed),
            Kind::Static(c) => {
                let exe = compile_static(p, c);
                run_staticcache(&exe, &mut m, fuel).map(|s| s.executed)
            }
            Kind::Fused => {
                let plan = FusionPlan::static_default(p, DEFAULT_TOP_K);
                run_fused(&fuse(p, &plan), &mut m, fuel).map(|s| s.executed)
            }
            Kind::Quickened => {
                let plan = FusionPlan::static_default(p, DEFAULT_TOP_K);
                let quick = Quickened::new(fuse(p, &plan));
                run_quickened(&quick, &mut m, fuel).map(|s| s.executed)
            }
            Kind::Jit => stackcache_jit::run_jit(p, &mut m, fuel).map(|s| s.executed),
        };
        Outcome::from_machine(m, result)
    }
}

/// Every wall-clock engine configuration: 11 engines × {plain, peephole}.
///
/// The first entry is always the plain reference interpreter, which the
/// oracle uses as the comparison baseline. The fused and quickened
/// engines run under their deterministic static-default plan, so every
/// fuzzed program exercises superinstruction dispatch too; the jit
/// engine exercises native block execution with interpreter deopts (and
/// degrades to the pure interpreter on hosts without a native backend,
/// still producing identical outcomes).
#[must_use]
pub fn all_engines() -> Vec<Engine> {
    let kinds = [
        Kind::Reference,
        Kind::Baseline,
        Kind::Tos,
        Kind::Dyncache,
        Kind::Static(0),
        Kind::Static(1),
        Kind::Static(2),
        Kind::Static(3),
        Kind::Fused,
        Kind::Quickened,
        Kind::Jit,
    ];
    let mut out = Vec::with_capacity(kinds.len() * 2);
    for &k in &kinds {
        out.push(Engine::new(k, false));
    }
    for &k in &kinds {
        out.push(Engine::new(k, true));
    }
    out
}
