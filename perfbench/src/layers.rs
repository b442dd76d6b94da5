//! Per-layer metrics: timed direct calls into each crate's public
//! functions, on the workload's own inputs, each result checked against
//! the reference interpreter where it produces one.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stackcache_analysis::{analyze, SafetyProof};
use stackcache_core::regime::{CachedRegime, ConstantKRegime, FusedRegime, SimpleRegime};
use stackcache_core::staticcache::{self, StaticOptions, StaticRegime};
use stackcache_core::{CompiledArtifact, CostModel, Counts, EngineRegime, Org};
use stackcache_harness::{Outcome, MEMORY_BYTES};
use stackcache_jit::JitProgram;
use stackcache_net::{decode_frame, program_key, Frame, HashRing, WireReply, WireRequest};
use stackcache_svc::cache::ProgramCache;
use stackcache_svc::{Completion, Reply};
use stackcache_vm::fusion::DEFAULT_TOP_K;
use stackcache_vm::{exec, fuse, Checks, ExecObserver, FusionPlan, Machine, Program};
use stackcache_workloads::{all_workloads, Scale};

use crate::inputs::{reference, zero_work_program, Case, REGIMES};
use crate::report::Report;
use crate::stats::{median, median_ns};

/// One program a layer call runs, with the machine it starts from and
/// the reference interpreter's verdict.
#[derive(Debug, Clone)]
pub struct LayerInput {
    /// Program name, used in `core.run_ms.<regime>.<program>`.
    pub name: String,
    /// The program.
    pub program: Arc<Program>,
    /// The machine every run starts from a clone of.
    pub proto: Arc<Machine>,
    /// Instruction budget.
    pub fuel: u64,
    /// The reference outcome.
    pub expected: Outcome,
    /// Instructions the reference executed.
    pub insts: u64,
}

impl LayerInput {
    /// The layer view of a generated request.
    #[must_use]
    pub fn of_case(c: &Case) -> LayerInput {
        LayerInput {
            name: c.name.clone(),
            program: Arc::clone(c.program()),
            proto: Arc::new(c.proto()),
            fuel: c.request.fuel,
            expected: c.expected.clone(),
            insts: c.insts,
        }
    }

    /// This input as a wire request for `regime`.
    #[must_use]
    pub fn wire_request(&self, regime: EngineRegime) -> WireRequest {
        let mut r = WireRequest::new(Arc::clone(&self.program), regime).fuel(self.fuel);
        r.stack = self.proto.stack().to_vec();
        r.rstack = self.proto.rstack().to_vec();
        r.memory = self.proto.memory().to_vec();
        r
    }

    /// Why `result` on `m` disagrees with the reference, if it does.
    fn check(
        &self,
        what: &str,
        m: &Machine,
        result: Result<u64, stackcache_vm::VmError>,
    ) -> Option<String> {
        Outcome::capture(m, result)
            .first_difference(&self.expected, false)
            .map(|d| format!("{what} on {}: {d}", self.name))
    }
}

/// Build the four Fig. 20 images at full scale and run each on the
/// reference interpreter. Returns the inputs and the build time in ms.
#[must_use]
pub fn paper_inputs() -> (Vec<LayerInput>, f64) {
    let t = Instant::now();
    let workloads = all_workloads(Scale::Full);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let inputs = workloads
        .iter()
        .map(|w| {
            let proto = w.image.machine();
            let (expected, insts) = reference(&w.image.program, &proto, w.fuel());
            LayerInput {
                name: w.name.to_string(),
                program: Arc::new(w.image.program.clone()),
                proto: Arc::new(proto),
                fuel: w.fuel(),
                expected,
                insts,
            }
        })
        .collect();
    (inputs, build_ms)
}

fn total_insts(inputs: &[LayerInput]) -> u64 {
    inputs.iter().map(|i| i.insts).sum::<u64>().max(1)
}

/// Repetitions for a call over `inputs`: fewer when the inputs are big.
fn reps(inputs: &[LayerInput], small: usize, big: usize) -> usize {
    if total_insts(inputs) > 1_000_000 {
        big
    } else {
        small
    }
}

/// Mean nanoseconds per item of one pass of `f` over `items` items,
/// median over `reps` passes.
fn per_item_ns(reps: usize, items: usize, f: impl FnMut()) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = items.max(1) as f64;
    median_ns(reps, f) / n
}

/// The artifacts and admitted checks level of every input × regime.
struct Compiled {
    /// `[input][regime]`
    artifacts: Vec<Vec<CompiledArtifact>>,
    /// The proof of each input and the level it admits on its proto.
    proofs: Vec<(SafetyProof, Checks)>,
}

fn compile_all(inputs: &[LayerInput]) -> Compiled {
    let proofs = inputs
        .iter()
        .map(|i| {
            let proof = analyze(&i.program, Some(&i.proto)).proof;
            let checks = proof.admit(&i.proto);
            (proof, checks)
        })
        .collect();
    let artifacts = inputs
        .iter()
        .map(|i| {
            REGIMES
                .iter()
                .map(|(_, r)| CompiledArtifact::compile(&i.program, *r, false))
                .collect()
        })
        .collect();
    Compiled { artifacts, proofs }
}

/// Per-regime run time on `inputs`: `[regime][input]` median ns, after
/// one checked warm-up run each (JIT blocks compiled, quickening done).
fn run_times(
    report: &mut Report,
    inputs: &[LayerInput],
    compiled: &Compiled,
    reps: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0; inputs.len()]; REGIMES.len()];
    for (ii, input) in inputs.iter().enumerate() {
        let checks = compiled.proofs[ii].1;
        for (ri, (name, _)) in REGIMES.iter().enumerate() {
            let art = &compiled.artifacts[ii][ri];
            let mut m = (*input.proto).clone();
            let result = art.run_with_checks(&mut m, input.fuel, checks);
            report.verdict(input.check(&format!("core {name}"), &m, result));
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let mut m = (*input.proto).clone();
                    let t = Instant::now();
                    let r = art.run_with_checks(&mut m, input.fuel, checks);
                    let ns = t.elapsed().as_secs_f64() * 1e9;
                    black_box((r.is_ok(), m.output().len()));
                    ns
                })
                .collect();
            out[ri][ii] = median(&samples);
        }
    }
    out
}

/// Section 6 counted costs of the six regimes that have a counted
/// model, summed over `inputs`, from one observed reference run each.
///
/// baseline: uncached; tos: one constant TOS register; dyncache: the
/// minimal 3-register organization with overflow to the full state;
/// static: 3 registers with one-shuffle states at canonical depth 1;
/// fused and quickened: the baseline's accesses with the dispatches of
/// the static-default fusion plan.
fn counted(inputs: &[LayerInput]) -> [Counts; 6] {
    let mut total = [Counts::new(); 6];
    let static_org = Org::static_shuffle(3);
    let dyn_org = Org::minimal(3);
    for i in inputs {
        let sp = staticcache::compile(&i.program, &static_org, &StaticOptions::with_canonical(1));
        let fused = fuse(
            &i.program,
            &FusionPlan::static_default(&i.program, DEFAULT_TOP_K),
        );
        let mut simple = SimpleRegime::new();
        let mut tos = ConstantKRegime::new(1);
        let mut dynamic = CachedRegime::new(&dyn_org, 3);
        let mut stat = StaticRegime::new(&sp);
        let mut fusedc = FusedRegime::new(&fused, &dyn_org, 3, false);
        let mut quick = FusedRegime::new(&fused, &dyn_org, 3, true);
        {
            let mut obs: Vec<&mut dyn ExecObserver> = vec![
                &mut simple,
                &mut tos,
                &mut dynamic,
                &mut stat,
                &mut fusedc,
                &mut quick,
            ];
            let mut m = (*i.proto).clone();
            let _ = exec::run_with_observer(&i.program, &mut m, i.fuel, &mut obs);
        }
        let mut f = simple.counts;
        f.dispatches = fusedc.counts().dispatches;
        let mut q = simple.counts;
        q.dispatches = quick.counts().dispatches;
        for (t, c) in
            total
                .iter_mut()
                .zip([simple.counts, tos.counts, dynamic.counts, stat.counts, f, q])
        {
            *t += c;
        }
    }
    total
}

/// Counted cycles per instruction at the paper's 1/1/1/1 + 4 weights.
#[must_use]
#[allow(clippy::cast_precision_loss)]
fn cycles_per_inst(c: &Counts) -> f64 {
    let model = CostModel::paper();
    (c.access_cycles(&model) + c.dispatches * u64::from(model.dispatch)) as f64
        / c.insts.max(1) as f64
}

/// The reply frame a node would send for `input`.
fn reply_frame(input: &LayerInput) -> Frame {
    let completion = Completion {
        outcome: input.expected.clone(),
        cache_hit: true,
        latency: Duration::from_micros(1),
        queue_wait: Duration::ZERO,
        spans: Vec::new(),
    };
    Frame::Reply {
        corr: 1,
        reply: WireReply::from_reply(1, &Reply::Completed(completion)),
    }
}

/// Per-request estimates the largest-layer verdict compares.
#[derive(Debug, Default)]
pub struct LayerCosts {
    /// `(metric, ns per request)`.
    pub rows: Vec<(&'static str, f64)>,
}

/// What the served or in-process load measured, for the cost split.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    /// Artifact-cache hit ratio of the load.
    pub hit_ratio: f64,
    /// Client-observed time outside the service stages, p50, ns.
    pub wire_p50_ns: f64,
}

/// Time every layer call on `inputs` (the workload's programs) and the
/// fixed-input calls (the Fig. 20 programs, the 4-instruction program),
/// recording each metric. `paper` are the Fig. 20 inputs; when they are
/// also the workload's inputs the run times are measured once.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn measure(
    report: &mut Report,
    inputs: &[LayerInput],
    paper: &[LayerInput],
    image_build_ms: &[f64],
    traffic: Traffic,
) -> LayerCosts {
    let same = std::ptr::eq(inputs, paper);
    let n = inputs.len();
    let insts = total_insts(inputs);

    report.metric(
        "forth.image_build_ms",
        median(image_build_ms),
        "ms",
        image_build_ms.len() as u64,
    );

    // vm: the reference interpreter, prototype clone and in-place reset
    let r = reps(inputs, 30, 2);
    let mut ref_samples = Vec::new();
    for _ in 0..r {
        let mut ns = 0.0;
        for i in inputs {
            let mut m = (*i.proto).clone();
            let t = Instant::now();
            let res = exec::run(&i.program, &mut m, i.fuel);
            ns += t.elapsed().as_secs_f64() * 1e9;
            black_box((res.is_ok(), m.output().len()));
        }
        ref_samples.push(ns / insts as f64);
    }
    report.metric(
        "vm.reference_ns_per_inst",
        median(&ref_samples),
        "ns",
        r as u64,
    );
    let r = reps(inputs, 200, 20);
    let clone_ns = per_item_ns(r, n, || {
        let clones: Vec<Machine> = inputs.iter().map(|i| (*i.proto).clone()).collect();
        black_box(&clones);
    });
    report.metric("vm.machine_clone_ns", clone_ns, "ns", (r * n) as u64);
    let mut scratch = (*inputs[0].proto).clone();
    let reset_ns = per_item_ns(r, n, || {
        for i in inputs {
            scratch.reset_from(&i.proto);
            black_box(scratch.depth());
        }
    });
    report.metric("vm.reset_from_ns", reset_ns, "ns", (r * n) as u64);

    // core: run time per regime on the workload and on the Fig. 20 programs
    let compiled = compile_all(inputs);
    let times = run_times(report, inputs, &compiled, reps(inputs, 20, 2));
    let paper_times = if same {
        None
    } else {
        Some(run_times(report, paper, &compile_all(paper), 1))
    };
    let mut run_ns_mean = 0.0;
    for (ri, (name, _)) in REGIMES.iter().enumerate() {
        let ns: f64 = times[ri].iter().sum();
        run_ns_mean += ns / n as f64 / REGIMES.len() as f64;
        report.metric(
            format!("core.run_ns_per_inst.{name}"),
            ns / insts as f64,
            "ns",
            n as u64,
        );
    }
    let paper_times = paper_times.as_ref().unwrap_or(&times);
    for (ri, (name, _)) in REGIMES.iter().enumerate() {
        for (pi, p) in paper.iter().enumerate() {
            report.metric(
                format!("core.run_ms.{name}.{}", p.name),
                paper_times[ri][pi] / 1e6,
                "ms",
                1,
            );
        }
    }

    // core: a run that does no work, at each regime
    let zero = zero_work_program();
    let zero_proto = Machine::with_memory(MEMORY_BYTES);
    let mut zero_mean = 0.0;
    for (name, regime) in REGIMES {
        let art = CompiledArtifact::compile(&zero, regime, false);
        let mut samples = Vec::with_capacity(300);
        for _ in 0..300 {
            let mut m = zero_proto.clone();
            let t = Instant::now();
            let res = art.run_with_checks(&mut m, 100, Checks::Full);
            samples.push(t.elapsed().as_secs_f64() * 1e9);
            black_box(res.is_ok());
            report.verdict(
                (m.stack() != [3]).then(|| format!("zero-work {name}: stack {:?}", m.stack())),
            );
        }
        let ns = median(&samples);
        zero_mean += ns / REGIMES.len() as f64;
        report.metric(
            format!("core.zero_work_ns.{name}"),
            ns,
            "ns",
            samples.len() as u64,
        );
    }

    // core: translation
    let r = reps(inputs, 10, 2);
    let mut compile_us = 0.0;
    for (name, regime) in [
        ("static", EngineRegime::Static(1)),
        ("fused", EngineRegime::Fused),
        ("quickened", EngineRegime::Quickened),
    ] {
        let us = per_item_ns(r, n, || {
            for i in inputs {
                black_box(CompiledArtifact::compile(&i.program, regime, false));
            }
        }) / 1e3;
        compile_us += us / 3.0;
        report.metric(format!("core.compile_us.{name}"), us, "us", (r * n) as u64);
    }

    // core: the counted model, twice; the counts must repeat exactly
    let first = counted(inputs);
    let second = counted(inputs);
    report.check(
        "counted-cost-repeats",
        first == second,
        "Section 6 counts of two observed runs are identical".to_string(),
    );
    report.note("regime      measured run ns/inst   counted cycles/inst (a count, not a speed-up)");
    for (ri, (name, _)) in REGIMES.iter().enumerate() {
        let measured = times[ri].iter().sum::<f64>() / insts as f64;
        let counted = first.get(ri).map_or_else(
            || "no counted model".to_string(),
            |c| format!("{:.3}", cycles_per_inst(c)),
        );
        report.note(format!("{name:<11} {measured:>22.3}   {counted}"));
    }
    for ((name, _), c) in REGIMES.iter().zip(&first) {
        report.metric(
            format!("core.counted_cycles_per_inst.{name}"),
            cycles_per_inst(c),
            "cycles",
            c.insts,
        );
    }

    // analysis
    let r = reps(inputs, 5, 1);
    let analyze_us = per_item_ns(r, n, || {
        for i in inputs {
            black_box(analyze(&i.program, Some(&i.proto)));
        }
    }) / 1e3;
    report.metric("analysis.analyze_us", analyze_us, "us", (r * n) as u64);
    let admit_ns = per_item_ns(200, n, || {
        for (i, (proof, _)) in inputs.iter().zip(&compiled.proofs) {
            black_box(proof.admit(&i.proto));
        }
    });
    report.metric("analysis.admit_ns", admit_ns, "ns", (200 * n) as u64);

    // jit
    let r = reps(inputs, 5, 1);
    let jit_us = per_item_ns(r, n, || {
        for (i, (_, checks)) in inputs.iter().zip(&compiled.proofs) {
            let jp = JitProgram::compile(&i.program, *checks);
            black_box(jp.is_ok());
        }
    }) / 1e3;
    report.metric("jit.compile_us", jit_us, "us", (r * n) as u64);

    // svc: the artifact cache, resident and new keys
    let cache = ProgramCache::new(16);
    for i in inputs {
        let _ = cache.get_or_compile(&i.program, EngineRegime::Baseline, false, Some(&i.proto));
    }
    let r = reps(inputs, 200, 20);
    let hit_ns = per_item_ns(r, n, || {
        for i in inputs {
            black_box(cache.get_or_compile(
                &i.program,
                EngineRegime::Baseline,
                false,
                Some(&i.proto),
            ));
        }
    });
    report.metric("svc.cache_hit_ns", hit_ns, "ns", (r * n) as u64);
    let r = reps(inputs, 3, 1);
    let miss_us = median(
        &(0..r)
            .map(|_| {
                let cache = ProgramCache::new(16);
                let t = Instant::now();
                for i in inputs {
                    for (_, regime) in REGIMES {
                        black_box(cache.get_or_compile(&i.program, regime, false, Some(&i.proto)));
                    }
                }
                t.elapsed().as_secs_f64() * 1e6 / (n * REGIMES.len()) as f64
            })
            .collect::<Vec<_>>(),
    );
    report.metric(
        "svc.cache_miss_us",
        miss_us,
        "us",
        (r * n * REGIMES.len()) as u64,
    );

    // net: frame codec and ring routing on this workload's frames
    let frames: Vec<(Frame, Frame)> = inputs
        .iter()
        .map(|i| {
            let submit = Frame::Submit {
                corr: 1,
                request: i.wire_request(EngineRegime::Static(1)),
            };
            (submit, reply_frame(i))
        })
        .collect();
    let r = reps(inputs, 200, 20);
    let encode_ns = per_item_ns(r, n, || {
        for (req, rep) in &frames {
            black_box((req.encode(), rep.encode()));
        }
    });
    report.metric("net.encode_ns", encode_ns, "ns", (r * n) as u64);
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(a, b)| (a.encode(), b.encode()))
        .collect();
    for (a, b) in &encoded {
        // a frame must decode to one that encodes to the same bytes
        let ok = decode_frame(a, u32::MAX).is_ok_and(|f| &f.encode() == a)
            && decode_frame(b, u32::MAX).is_ok_and(|f| &f.encode() == b);
        report.verdict((!ok).then(|| "frame does not decode to itself".to_string()));
    }
    let decode_ns = per_item_ns(r, n, || {
        for (a, b) in &encoded {
            black_box((
                decode_frame(a, u32::MAX).is_ok(),
                decode_frame(b, u32::MAX).is_ok(),
            ));
        }
    });
    report.metric("net.decode_ns", decode_ns, "ns", (r * n) as u64);
    let bytes: usize = encoded.iter().map(|(a, b)| a.len() + b.len()).sum();
    report.metric(
        "net.bytes_per_req",
        bytes as f64 / n as f64,
        "bytes",
        n as u64,
    );
    let ring = HashRing::new(&["node0".to_string(), "node1".to_string()], 64);
    let route_ns = per_item_ns(reps(inputs, 500, 20), n, || {
        for i in inputs {
            black_box(ring.route(program_key(&i.program)));
        }
    });
    report.metric("net.ring.route_ns", route_ns, "ns", (500 * n) as u64);

    // the per-request cost of each layer on this workload's traffic
    let miss = 1.0 - traffic.hit_ratio;
    let core_exec = (run_ns_mean - zero_mean).max(0.0);
    LayerCosts {
        rows: vec![
            ("vm.machine_clone_ns", clone_ns),
            ("core.zero_work_ns", zero_mean.min(run_ns_mean)),
            ("core.run_ns_per_inst", core_exec),
            ("core.compile_us", compile_us * 1e3 * miss),
            ("analysis.analyze_us", analyze_us * 1e3 * miss),
            ("jit.compile_us", jit_us * 1e3 * miss / REGIMES.len() as f64),
            ("svc.cache_hit_ns", hit_ns * traffic.hit_ratio),
            ("net.encode_ns+decode_ns", encode_ns + decode_ns),
            ("net.wire_us", traffic.wire_p50_ns),
        ],
    }
}
