//! The benchmark's inputs, made from the seed alone: the generated
//! request pools of the served workloads, the reference interpreter's
//! outcome for each, and the fixed 4-instruction program.

use std::collections::HashSet;
use std::sync::Arc;

use stackcache_core::EngineRegime;
use stackcache_harness::{gen, Outcome, Trap, MEMORY_BYTES};
use stackcache_net::{program_key, WireRequest};
use stackcache_vm::{exec, ExecEvent, ExecObserver, Inst, Machine, Program, ProgramBuilder, Rng};

/// Instruction budget of every generated request.
pub const FUEL: u64 = 1_000_000;

/// Programs in the `short-hot` / `cluster-short` pool.
pub const POOL_SIZE: usize = 48;

/// The seven measured regimes and their metric names. `static` is
/// canonical depth 1, the depth `figures speedup` and `figures jit` use.
pub const REGIMES: [(&str, EngineRegime); 7] = [
    ("baseline", EngineRegime::Baseline),
    ("tos", EngineRegime::Tos),
    ("dyncache", EngineRegime::Dyncache),
    ("static", EngineRegime::Static(1)),
    ("fused", EngineRegime::Fused),
    ("quickened", EngineRegime::Quickened),
    ("jit", EngineRegime::Jit),
];

/// Seed streams, so the hot pool and the cold programs never share a
/// generator state.
const HOT_STREAM: u64 = 0x484F_5421;
const COLD_STREAM: u64 = 0xC01D_C01D;

/// One generated request with the reference interpreter's verdict.
#[derive(Debug, Clone)]
pub struct Case {
    /// `family#index`, for failure reports.
    pub name: String,
    /// The request as it goes on the wire (regime set per submission).
    pub request: WireRequest,
    /// The reference interpreter's outcome.
    pub expected: Outcome,
    /// Instructions the reference interpreter executed.
    pub insts: u64,
}

impl Case {
    /// The program.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.request.program
    }

    /// The machine every run of this request starts from.
    #[must_use]
    pub fn proto(&self) -> Machine {
        (*self.request.to_request().proto).clone()
    }

    /// The request for `regime`.
    #[must_use]
    pub fn for_regime(&self, regime: EngineRegime) -> WireRequest {
        let mut r = self.request.clone();
        r.regime = regime;
        r
    }
}

/// Counts executed instructions, also on runs that end in a trap.
#[derive(Debug, Default)]
struct InstCounter(u64);

impl ExecObserver for InstCounter {
    fn event(&mut self, _ev: &ExecEvent) {
        self.0 += 1;
    }
}

/// Run `program` on a clone of `proto` under the reference interpreter.
/// Returns its outcome and the instructions it executed.
#[must_use]
pub fn reference(program: &Program, proto: &Machine, fuel: u64) -> (Outcome, u64) {
    let mut m = proto.clone();
    let mut count = InstCounter::default();
    let result = exec::run_with_observer(program, &mut m, fuel, &mut count).map(|o| o.executed);
    (Outcome::capture(&m, result), count.0)
}

fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    // SplitMix64 finalizer over the three inputs
    let mut z = seed ^ stream.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator families: the three svcbench uses, plus straight-line
/// arithmetic that ends in a division by zero, so a few requests trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `gen::structured_program`: nested branches and counted loops.
    Structured,
    /// `gen::memory_fodder` on a `gen::seeded_machine`.
    Memory,
    /// `gen::call_nest_program`: acyclic call nests with return-stack traffic.
    CallNest,
    /// Literal arithmetic ending in `0 /`: traps with `DivisionByZero`.
    Trap,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Structured => "structured",
            Family::Memory => "memory",
            Family::CallNest => "callnest",
            Family::Trap => "trap",
        }
    }

    /// The family of the `i`-th program of a stream: one in twelve
    /// traps, the rest round-robin over the svcbench families.
    #[must_use]
    pub fn of(i: u64) -> Family {
        match (i % 12, i % 3) {
            (11, _) => Family::Trap,
            (_, 0) => Family::Structured,
            (_, 1) => Family::Memory,
            _ => Family::CallNest,
        }
    }
}

fn trapping_program(rng: &mut Rng) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Inst::Lit(rng.range_i64(-1000, 1000)));
    for _ in 0..rng.range(8, 80) {
        b.push(Inst::Lit(rng.range_i64(1, 1000)));
        b.push(*rng.pick(&[Inst::Add, Inst::Sub, Inst::Mul, Inst::Xor]));
    }
    b.extend([Inst::Lit(0), Inst::Div, Inst::Halt]);
    b.finish().expect("straight-line arithmetic is valid")
}

/// The `i`-th candidate of a stream, from `family`. `None` when the
/// reference run exhausts its fuel or underflows a stack: the service
/// refuses the first, and may refuse the second at admission, so
/// neither is a request on which no operation fails.
#[must_use]
pub fn candidate(seed: u64, stream: u64, i: u64, family: Family) -> Option<Case> {
    let mut rng = Rng::new(mix(seed, stream, i) | 1);
    let fresh = || Machine::with_memory(MEMORY_BYTES);
    let (program, proto) = match family {
        Family::Structured => (gen::structured_program(&mut rng), fresh()),
        Family::Memory => {
            let proto = gen::seeded_machine(&mut rng, MEMORY_BYTES, 6);
            let len = rng.range(20, 200);
            let choices = gen::random_choices(&mut rng, len, 1 << 20);
            (gen::memory_fodder(&choices, MEMORY_BYTES), proto)
        }
        Family::CallNest => (gen::call_nest_program(&mut rng, 4), fresh()),
        Family::Trap => (trapping_program(&mut rng), fresh()),
    };
    let (expected, insts) = reference(&program, &proto, FUEL);
    if matches!(
        expected.trap,
        Some(Trap::FuelExhausted | Trap::StackUnderflow | Trap::ReturnStackUnderflow)
    ) {
        return None;
    }
    let mut request = WireRequest::new(Arc::new(program), EngineRegime::Reference).fuel(FUEL);
    request.stack = proto.stack().to_vec();
    request.rstack = proto.rstack().to_vec();
    request.memory = proto.memory().to_vec();
    Some(Case {
        name: format!("{}#{i}", family.name()),
        request,
        expected,
        insts,
    })
}

/// Executed instructions the hot pool's programs are chosen around:
/// slot `j` takes the first candidate within [`LADDER_SLACK`] of
/// `LADDER_LOW + j * LADDER_STEP`, so every seed's pool has the same
/// spread of program sizes and only their text differs.
const LADDER_LOW: u64 = 60;
const LADDER_STEP: u64 = 2;
const LADDER_SLACK: u64 = 3;

/// The fixed pool of `short-hot` and `cluster-short`: [`POOL_SIZE`]
/// programs of pairwise distinct text, families round-robin.
#[must_use]
pub fn hot_pool(seed: u64) -> Vec<Case> {
    let mut seen = HashSet::new();
    (0..POOL_SIZE as u64)
        .map(|j| {
            let family = Family::of(j);
            // spread each family's targets over the whole ladder
            let target = LADDER_LOW + (j * 17 % POOL_SIZE as u64) * LADDER_STEP;
            (0..)
                .filter_map(|i| candidate(seed, HOT_STREAM + j, i, family))
                .find(|c| {
                    c.insts.abs_diff(target) <= LADDER_SLACK
                        && seen.insert(program_key(c.program()))
                })
                .expect("every family reaches every ladder size")
        })
        .collect()
}

/// `n` programs for `cold-programs`, distinct from each other and from
/// the hot pool of the same seed.
#[must_use]
pub fn cold_programs(seed: u64, n: usize) -> Vec<Case> {
    let mut seen: HashSet<u64> = hot_pool(seed)
        .iter()
        .map(|c| program_key(c.program()))
        .collect();
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while out.len() < n {
        if let Some(c) = candidate(seed, COLD_STREAM, i, Family::of(i)) {
            if seen.insert(program_key(c.program())) {
                out.push(c);
            }
        }
        i += 1;
    }
    out
}

/// The 4-instruction program the zero-work metrics run: `1 2 + halt`.
#[must_use]
pub fn zero_work_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.extend([Inst::Lit(1), Inst::Lit(2), Inst::Add, Inst::Halt]);
    b.finish().expect("a straight-line program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_makes_the_same_programs_twice() {
        let keys = |cases: &[Case]| -> Vec<u64> {
            cases.iter().map(|c| program_key(c.program())).collect()
        };
        assert_eq!(keys(&hot_pool(7)), keys(&hot_pool(7)));
        assert_eq!(keys(&cold_programs(7, 64)), keys(&cold_programs(7, 64)));
        assert_ne!(keys(&hot_pool(7)), keys(&hot_pool(8)));
        let hot: HashSet<u64> = keys(&hot_pool(7)).into_iter().collect();
        assert!(keys(&cold_programs(7, 64)).iter().all(|k| !hot.contains(k)));
    }

    #[test]
    fn pool_has_every_family_and_some_traps() {
        let pool = hot_pool(1);
        assert_eq!(pool.len(), POOL_SIZE);
        for family in ["structured", "memory", "callnest", "trap"] {
            assert!(pool.iter().any(|c| c.name.starts_with(family)), "{family}");
        }
        assert!(pool.iter().filter(|c| c.expected.trap.is_some()).count() >= 3);
        let total: u64 = pool.iter().map(|c| c.insts).sum();
        let ladder: u64 = (0..POOL_SIZE as u64)
            .map(|j| LADDER_LOW + j * LADDER_STEP)
            .sum();
        assert!(total.abs_diff(ladder) <= LADDER_SLACK * POOL_SIZE as u64);
    }
}
