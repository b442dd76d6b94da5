//! The four workloads: set-up, measured load, self-checks, and the
//! traced run's per-layer metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stackcache_net::{Client, DEFAULT_MAX_FRAME};
use stackcache_svc::cache::DEFAULT_CAPACITY;
use stackcache_svc::{Reply, Request, Service, ServiceConfig};

use crate::host::{nproc, peak_rss_mib};
use crate::inputs::{cold_programs, hot_pool, Case, POOL_SIZE, REGIMES};
use crate::layers::{self, LayerInput, Traffic};
use crate::report::Report;
use crate::served::{self, hop_nanos, stage_nanos, Feed, Served, SvcTotals, MAX_WINDOW};
use crate::stats::{best, median, quantile, sorted};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// In-flight requests of the closed-loop saturation phase and of the
/// set-up's warm-up. With this many in flight both workers of the 2-core
/// host the benchmark was built on stay busy, so a round of the pool
/// (see [`served::ROUND`]) costs the stack's work rather than one
/// cross-thread wake-up per request, and the warm-up's compiles and
/// analyses run back to back. Below the service's queue capacity, so no
/// request is refused.
pub const SAT_WINDOW: usize = 32;

/// The workloads, with the offered rate of their paced phase (req/s).
pub const WORKLOADS: [(&str, f64); 4] = [
    ("paper-full", 0.0),
    ("short-hot", 4000.0),
    ("cold-programs", 400.0),
    ("cluster-short", 2500.0),
];

/// Saturation throughput `cold-programs` is provisioned for: the run
/// makes this many fresh programs per second of saturation.
const COLD_SAT_CAP_RPS: f64 = 3200.0;

/// Fresh programs a traced `cold-programs` run keeps back for the layer
/// calls and the router-hop probe.
const COLD_RESERVE: usize = POOL_SIZE + 400;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Run one workload and gather its report.
///
/// # Errors
///
/// An unknown workload name, or a serving stack that cannot start.
pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let rate = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, r)| *r)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut report = match args.workload.as_str() {
        "paper-full" => paper_full(args, process_start),
        w => served_workload(args, process_start, w, rate)?,
    };
    if !args.trace {
        report.metric(
            "peak_rss_mib",
            peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
            "MiB",
            1,
        );
    }
    Ok(report)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn secs(d: &[Duration]) -> Vec<f64> {
    d.iter().map(Duration::as_secs_f64).collect()
}

#[allow(clippy::cast_precision_loss)]
fn len(v: &[f64]) -> u64 {
    v.len() as u64
}

/// Record `name.p50` and `name.p99` of `values`.
fn p50_p99(report: &mut Report, name: &str, values: Vec<f64>, unit: &'static str) {
    if values.is_empty() {
        report.check(name, false, "no samples".to_string());
        return;
    }
    let v = sorted(values);
    report.metric(format!("{name}.p50"), quantile(&v, 0.5), unit, len(&v));
    report.metric(format!("{name}.p99"), quantile(&v, 0.99), unit, len(&v));
}

/// List every set-up of the run, in order.
fn note_setups(report: &mut Report, setup: &[f64]) {
    let each: Vec<String> = setup.iter().map(|s| format!("{s:.3}")).collect();
    report.note(format!("set-ups (s): {}", each.join(" ")));
}

/// Report the largest layer and compare it with the predicted one.
fn largest_layer(report: &mut Report, costs: &layers::LayerCosts, predicted: &str) {
    let mut rows = costs.rows.clone();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.note("per-request cost by layer (ns, estimated from the layer metrics):");
    for (name, ns) in &rows {
        report.note(format!("  {name:<28} {ns:>14.1}"));
    }
    let largest = rows.first().map_or("none", |r| r.0);
    let verdict = if largest == predicted {
        "matches"
    } else {
        "differs from"
    };
    report.note(format!(
        "largest layer: {largest} ({verdict} the prediction {predicted})"
    ));
}

// ---------------------------------------------------------------- paper-full

/// One answered in-process request of `paper-full`.
struct PaperSample {
    regime: usize,
    input: usize,
    /// Submit to reply.
    total: Duration,
    /// The service's execution time.
    exec: Duration,
    /// Gap between the previous reply and this submit.
    gap: Duration,
    spans: Vec<stackcache_obs::SpanRecord>,
}

#[derive(Default)]
struct PaperPhase {
    samples: Vec<PaperSample>,
    /// Duration of each whole pass.
    passes: Vec<Duration>,
    elapsed: Duration,
    attempted: u64,
    failures: Vec<String>,
}

/// Every Fig. 20 program on every regime, one request at a time, whole
/// passes until `dur` has passed (at least one pass).
fn paper_passes(
    service: &Service,
    inputs: &[LayerInput],
    dur: Duration,
    traced: bool,
) -> PaperPhase {
    let mut phase = PaperPhase::default();
    let start = Instant::now();
    let mut last = Instant::now();
    let mut trace_id = 1u64;
    loop {
        let pass_start = Instant::now();
        for (ii, input) in inputs.iter().enumerate() {
            for (ri, (name, regime)) in REGIMES.iter().enumerate() {
                let mut request = Request::new(Arc::clone(&input.program), *regime)
                    .on(Arc::clone(&input.proto))
                    .fuel(input.fuel);
                if traced {
                    trace_id += 1;
                    request = request.trace_context(trace_id, trace_id ^ 0x0CA1_1E55);
                }
                phase.attempted += 1;
                let sent = Instant::now();
                let gap = sent - last;
                let reply = service.submit(request).map(stackcache_svc::Ticket::wait);
                last = Instant::now();
                let what = format!("{} on {name}", input.name);
                match reply {
                    Ok(Reply::Completed(c)) => {
                        match c.outcome.first_difference(&input.expected, false) {
                            Some(d) => phase.failures.push(format!("{what}: {d}")),
                            None => phase.samples.push(PaperSample {
                                regime: ri,
                                input: ii,
                                total: last - sent,
                                exec: c.latency,
                                gap,
                                spans: c.spans,
                            }),
                        }
                    }
                    Ok(Reply::Rejected(r)) => {
                        phase.failures.push(format!("{what}: rejected {r:?}"))
                    }
                    Err(e) => phase.failures.push(format!("{what}: submit refused {e:?}")),
                }
            }
        }
        phase.passes.push(pass_start.elapsed());
        if start.elapsed() >= dur {
            break;
        }
    }
    phase.elapsed = start.elapsed();
    phase
}

impl PaperPhase {
    /// Each (program, regime) cell's submit-to-reply seconds, the
    /// fastest of its passes: `[input][regime]`. Every pass of a cell
    /// repeats the same deterministic work, so interference from outside
    /// the benchmark can only lengthen it and the fastest pass is the
    /// cell's own time; NaN marks a cell with no verified reply.
    fn cells(&self, inputs: usize) -> Vec<Vec<f64>> {
        let mut times = vec![vec![Vec::new(); REGIMES.len()]; inputs];
        for s in &self.samples {
            times[s.input][s.regime].push(s.total.as_secs_f64());
        }
        times
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|t| {
                        if t.is_empty() {
                            f64::NAN
                        } else {
                            best(&t, true)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Requests per second of a pass made of every cell's time.
    #[allow(clippy::cast_precision_loss)]
    fn throughput(&self, inputs: usize) -> f64 {
        let cells = self.cells(inputs);
        let total: f64 = cells.iter().flatten().sum();
        (inputs * REGIMES.len()) as f64 / total
    }
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn paper_full(args: &Args, process_start: Instant) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut state: Option<(Vec<LayerInput>, Service)> = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        if let Some((_, s)) = state.take() {
            s.shutdown();
        }
        stackcache_jit::invalidate();
        let (inputs, build_ms) = layers::paper_inputs();
        builds.push(build_ms);
        let service = Service::start(ServiceConfig {
            workers: nproc(),
            ..ServiceConfig::default()
        });
        let warm = paper_passes(&service, &inputs, Duration::ZERO, false);
        report.absorb(warm.attempted, warm.failures);
        setups.push(t0.elapsed());
        state = Some((inputs, service));
    }
    let (inputs, service) = state.expect("at least one set-up");
    let setup = secs(&setups);
    note_setups(&mut report, &setup);
    let seconds = Duration::from_secs(args.seconds);

    if !args.trace {
        let phase = paper_passes(&service, &inputs, seconds, false);
        report.absorb(phase.attempted, phase.failures.clone());
        report.metric("setup_s", median(&setup), "s", len(&setup));
        let n = phase.samples.len() as u64;
        let cells = phase.cells(inputs.len());
        report.metric("throughput_rps", phase.throughput(inputs.len()), "req/s", n);
        let lat = sorted(cells.iter().flatten().map(|t| t * 1e6).collect());
        report.metric("latency_p50_us", quantile(&lat, 0.5), "us", n);
        report.metric("latency_p99_us", quantile(&lat, 0.99), "us", n);
        let insts: u64 = inputs.iter().map(|i| i.insts).sum();
        for (ri, (name, _)) in REGIMES.iter().enumerate() {
            let ns: f64 = cells.iter().map(|row| row[ri]).sum::<f64>() * 1e9;
            report.metric(
                format!("ns_per_inst.{name}"),
                ns / insts as f64,
                "ns",
                n / REGIMES.len() as u64,
            );
        }
        check_exec_share(&mut report, &phase, inputs.len());
        let passes: Vec<String> = phase
            .passes
            .iter()
            .map(|d| {
                format!(
                    "{:.1}",
                    REGIMES.len() as f64 * inputs.len() as f64 / d.as_secs_f64()
                )
            })
            .collect();
        report.note(format!("passes (req/s): {}", passes.join(" ")));
        service.shutdown();
        return report;
    }

    // traced run: untraced and traced halves, then the layer calls
    let jit_before = stackcache_jit::stats();
    let before = SvcTotals::of(&service.metrics());
    let plain = paper_passes(&service, &inputs, seconds / 2, false);
    let traced = paper_passes(&service, &inputs, seconds / 2, true);
    let after = SvcTotals::of(&service.metrics()).since(before);
    let jit = jit_stats_since(jit_before);
    check_exec_share(&mut report, &plain, inputs.len());
    report.absorb(plain.attempted + traced.attempted, plain.failures.clone());
    report.absorb(0, traced.failures.clone());
    service.shutdown();

    let mut stage: [Vec<f64>; 4] = Default::default();
    let mut wire = Vec::new();
    for s in &traced.samples {
        let st = stage_nanos(&s.spans);
        for (v, ns) in stage.iter_mut().zip(st) {
            v.push(ns as f64 / 1e3);
        }
        wire.push((s.total.as_secs_f64() * 1e9 - st.iter().sum::<u64>() as f64) / 1e3);
    }
    let gaps: Vec<f64> = traced.samples.iter().map(|s| us(s.gap)).collect();
    let paper_cases: Vec<Case> = inputs.iter().map(case_of).collect();
    let probe = hop_probe(
        &mut report,
        &paper_cases,
        Feed::each_pair(paper_cases.len()),
    );
    traced_metrics(
        &mut report,
        &TracedLoad {
            stage,
            wire,
            hop: probe,
            late: gaps,
            overhead: traced.throughput(inputs.len()) / plain.throughput(inputs.len()),
            totals: after,
            jit,
            requests: (plain.samples.len() + traced.samples.len()) as u64,
        },
    );
    let wire_p50 = report.value("net.wire_us.p50").unwrap_or(0.0) * 1e3;
    let costs = layers::measure(
        &mut report,
        &inputs,
        &inputs,
        &builds,
        Traffic {
            hit_ratio: after.hit_ratio(),
            wire_p50_ns: wire_p50,
        },
    );
    largest_layer(&mut report, &costs, "core.run_ns_per_inst");
    report
}

/// Least share of `paper-full` reply time the engines must take.
const EXEC_SHARE_MIN: f64 = 0.90;

/// `paper-full` exists to measure engines: execution must be nearly
/// all of the reply time. Taken, like every `paper-full` figure, over
/// each cell's fastest pass, so a hand-off to a worker that another
/// tenant of the host delayed does not count against the workload. The
/// rest of a reply is the service's work around the run (hand-off,
/// cache lookup, admission, resetting the request's machine from its
/// prototype, capturing the outcome): 3-6% of the reply time on the
/// 2-core host the benchmark was built on, more when the engines run
/// fast.
fn check_exec_share(report: &mut Report, phase: &PaperPhase, inputs: usize) {
    let mut fastest: Vec<Option<&PaperSample>> = vec![None; inputs * REGIMES.len()];
    for s in &phase.samples {
        let slot = &mut fastest[s.input * REGIMES.len() + s.regime];
        if slot.is_none_or(|f| s.total < f.total) {
            *slot = Some(s);
        }
    }
    let (exec, total) = fastest.iter().flatten().fold((0.0, 0.0), |(e, t), s| {
        (e + s.exec.as_secs_f64(), t + s.total.as_secs_f64())
    });
    let share = exec / f64::max(total, 1e-12);
    report.check(
        "paper-full-exec-share",
        share >= EXEC_SHARE_MIN,
        format!(
            "engine execution is {:.2}% of reply time in each cell's fastest pass (want >= {}%)",
            share * 100.0,
            EXEC_SHARE_MIN * 100.0
        ),
    );
}

fn case_of(i: &LayerInput) -> Case {
    Case {
        name: i.name.clone(),
        request: i.wire_request(stackcache_core::EngineRegime::Reference),
        expected: i.expected.clone(),
        insts: i.insts,
    }
}

fn jit_stats_since(before: stackcache_jit::JitStats) -> (u64, u64) {
    let now = stackcache_jit::stats();
    (
        now.cache_hits - before.cache_hits,
        now.compiled - before.compiled,
    )
}

// ------------------------------------------------------------ served loads

/// What the traced half of a run saw, turned into per-layer metrics.
struct TracedLoad {
    /// Queue, cache, admit and exec span durations, µs.
    stage: [Vec<f64>; 4],
    /// Client-observed time minus the stage spans, µs.
    wire: Vec<f64>,
    /// Router hop, µs.
    hop: Vec<f64>,
    /// Generator lateness, µs.
    late: Vec<f64>,
    /// Traced over untraced throughput.
    overhead: f64,
    /// Service counters over the traced run's load.
    totals: SvcTotals,
    /// JIT block-cache hits and compiles over the same load.
    jit: (u64, u64),
    /// Requests the counters cover.
    requests: u64,
}

#[allow(clippy::cast_precision_loss)]
fn traced_metrics(report: &mut Report, t: &TracedLoad) {
    for (name, v) in [
        "svc.queue_us",
        "svc.cache_us",
        "svc.admit_us",
        "svc.exec_us",
    ]
    .iter()
    .zip(&t.stage)
    {
        p50_p99(report, name, v.clone(), "us");
    }
    let wire = sorted(t.wire.clone());
    report.metric("net.wire_us.p50", quantile(&wire, 0.5), "us", len(&wire));
    let hop = sorted(t.hop.clone());
    if hop.is_empty() {
        report.check(
            "net.proxy_hop_us",
            false,
            "no router hop observed".to_string(),
        );
    } else {
        report.metric("net.proxy_hop_us.p50", quantile(&hop, 0.5), "us", len(&hop));
    }
    let late = sorted(t.late.clone());
    report.metric(
        "loadgen.late_us.p99",
        quantile(&late, 0.99),
        "us",
        len(&late),
    );
    report.metric("obs.trace_overhead", t.overhead, "ratio", 2);
    let tot = &t.totals;
    report.metric(
        "svc.cache_hit_ratio",
        tot.hit_ratio(),
        "ratio",
        tot.hits + tot.misses,
    );
    report.metric(
        "svc.proto_clones_per_req",
        tot.proto_clones as f64 / tot.completed.max(1) as f64,
        "ratio",
        tot.completed,
    );
    report.metric(
        "svc.evictions_per_kreq",
        tot.evictions as f64 * 1e3 / t.requests.max(1) as f64,
        "count",
        t.requests,
    );
    report.metric(
        "analysis.unchecked_share",
        tot.unchecked as f64 / tot.admitted.max(1) as f64,
        "ratio",
        tot.admitted,
    );
    let (hits, compiled) = t.jit;
    report.metric(
        "jit.block_hit_ratio",
        hits as f64 / (hits + compiled).max(1) as f64,
        "ratio",
        hits + compiled,
    );
}

/// Frame cap of the router-hop probe: large enough for a Fig. 20
/// request, which carries its whole memory image.
const PROBE_MAX_FRAME: u32 = 16 << 20;

/// Router hop of `feed`'s requests sent one at a time through a
/// one-node `NetProxy`, µs. Used by workloads that have no router of
/// their own.
fn hop_probe(report: &mut Report, cases: &[Case], mut feed: Feed) -> Vec<f64> {
    let served = match Served::routed(1, 1, PROBE_MAX_FRAME) {
        Ok(s) => s,
        Err(e) => {
            report.verdict(Some(format!("router probe: {e}")));
            return Vec::new();
        }
    };
    let hops = match Client::connect_traced(served.addr(), MAX_WINDOW) {
        Ok(client) => {
            let phase = served::saturation_samples(
                &client,
                cases,
                &mut feed,
                1,
                Duration::from_millis(500),
                true,
            );
            let _ = client.goodbye();
            report.absorb(phase.attempted, phase.failures);
            phase
                .samples
                .iter()
                .filter_map(|s| hop_nanos(&s.spans))
                .map(|ns| ns as f64 / 1e3)
                .collect()
        }
        Err(e) => {
            report.verdict(Some(format!("router probe connect: {e}")));
            Vec::new()
        }
    };
    served.shutdown();
    hops
}

/// Fresh programs a `cold-programs` run needs: the cache fill, the
/// saturation phase at its provisioned cap, the paced phase, and the
/// reserve for the layer calls and probe.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn cold_budget(sat: Duration, paced: Duration, rate: f64) -> (usize, usize, usize) {
    let sat_n = (sat.as_secs_f64() * COLD_SAT_CAP_RPS).ceil() as usize;
    let paced_n = (paced.as_secs_f64() * rate).ceil() as usize + 16;
    (DEFAULT_CAPACITY, sat_n, paced_n)
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn served_workload(
    args: &Args,
    process_start: Instant,
    workload: &str,
    rate: f64,
) -> Result<Report, String> {
    let cold = workload == "cold-programs";
    let cluster = workload == "cluster-short";
    let mut report = Report::default();
    let seconds = Duration::from_secs(args.seconds);
    let (sat_dur, paced_dur) = if args.trace {
        (seconds / 3, seconds / 3)
    } else {
        (seconds * 2 / 5, seconds * 3 / 5)
    };
    // an untraced saturation phase precedes the traced one in traced runs
    let sat_phases = if args.trace { 2 } else { 1 };
    let (fill, sat_n, paced_n) = cold_budget(sat_dur * sat_phases, paced_dur, rate);

    let mut setups = Vec::new();
    let mut state: Option<(Vec<Case>, Served, Client)> = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        if let Some((_, served, client)) = state.take() {
            let _ = client.goodbye();
            served.shutdown();
        }
        stackcache_jit::invalidate();
        let cases = if cold {
            cold_programs(args.seed, fill + sat_n + paced_n + COLD_RESERVE)
        } else {
            hot_pool(args.seed)
        };
        let served = if cluster {
            Served::routed(2, (nproc() / 2).max(1), DEFAULT_MAX_FRAME)
        } else {
            Served::single(nproc())
        }
        .map_err(|e| format!("serving stack: {e}"))?;
        let client = Client::connect_traced(served.addr(), MAX_WINDOW)
            .map_err(|e| format!("connect: {e}"))?;
        let mut warm_feed = if cold {
            Feed::Fresh { next: 0, end: fill }
        } else {
            Feed::each_pair(cases.len())
        };
        let warm = served::saturation(
            &client,
            &cases,
            &mut warm_feed,
            SAT_WINDOW,
            Duration::from_secs(120),
            false,
        );
        report.absorb(warm.attempted, warm.failures);
        setups.push(t0.elapsed());
        state = Some((cases, served, client));
    }
    let (cases, served, client) = state.expect("at least one set-up");
    let setup = secs(&setups);
    note_setups(&mut report, &setup);

    let (mut sat_feed, mut paced_feed) = if cold {
        (
            Feed::Fresh {
                next: fill,
                end: fill + sat_n,
            },
            Feed::Fresh {
                next: fill + sat_n,
                end: fill + sat_n + paced_n,
            },
        )
    } else {
        (Feed::pool(cases.len()), Feed::pool(cases.len()))
    };

    let before = served.totals();
    let fwd_before = served.forwarded();
    let jit_before = stackcache_jit::stats();
    let sat = served::saturation(&client, &cases, &mut sat_feed, SAT_WINDOW, sat_dur, false);
    let traced_sat = args
        .trace
        .then(|| served::saturation(&client, &cases, &mut sat_feed, SAT_WINDOW, sat_dur, true));
    let paced = served::paced(
        &client,
        &cases,
        &mut paced_feed,
        rate,
        paced_dur,
        args.trace,
    );
    let totals = served.totals().since(before);
    let forwarded = served.forwarded() - fwd_before;
    let jit = jit_stats_since(jit_before);
    let sent = sat.attempted + traced_sat.as_ref().map_or(0, |p| p.attempted) + paced.attempted;
    report.absorb(sat.attempted, sat.failures.clone());
    if let Some(t) = &traced_sat {
        report.absorb(t.attempted, t.failures.clone());
    }
    report.absorb(paced.attempted, paced.failures.clone());

    // the property each workload was built for
    if cold {
        let miss = 1.0 - totals.hit_ratio();
        report.check(
            "cold-programs-miss-ratio",
            miss >= 0.99,
            format!("artifact-cache miss ratio {miss:.4} (want >= 0.99)"),
        );
    } else {
        let hit = totals.hit_ratio();
        report.check(
            &format!("{workload}-hit-ratio"),
            hit >= 0.99,
            format!("artifact-cache hit ratio {hit:.4} (want >= 0.99)"),
        );
    }
    if cluster {
        report.check(
            "cluster-short-forwarded",
            forwarded == sent,
            format!("router forwarded {forwarded} of {sent} requests sent"),
        );
    }

    if !args.trace {
        let _ = client.goodbye();
        served.shutdown();
        report.metric("setup_s", median(&setup), "s", len(&setup));
        if paced.samples.is_empty() {
            return Err("the paced phase answered nothing".to_string());
        }
        let n = paced.samples.len() as u64;
        // each cell's fastest reply, from its due time (µs) and from its
        // send (s), and per instruction for each regime (ns)
        let mut from_due = Vec::new();
        let mut from_sent = Vec::new();
        let mut per_inst = vec![Vec::new(); REGIMES.len()];
        for (ci, case) in cases.iter().enumerate() {
            for (ri, v) in per_inst.iter_mut().enumerate() {
                if let Some((due, sent)) = paced.fastest(ci, ri) {
                    from_due.push(us(due));
                    from_sent.push(sent.as_secs_f64());
                    v.push(sent.as_secs_f64() * 1e9 / case.insts as f64);
                }
            }
        }
        report.metric("throughput_rps", 1.0 / median(&from_sent), "req/s", n);
        let lat = sorted(from_due);
        report.metric("latency_p50_us", quantile(&lat, 0.5), "us", n);
        report.metric("latency_p99_us", quantile(&lat, 0.99), "us", n);
        for ((name, _), v) in REGIMES.iter().zip(&per_inst) {
            report.metric(format!("ns_per_inst.{name}"), median(v), "ns", len(v));
        }
        report.note(format!(
            "saturation phase, window {SAT_WINDOW}: fastest round {:.1} req/s, whole phase {:.1} req/s",
            sat.fastest_round_throughput(),
            sat.throughput()
        ));
        report.note(format!(
            "paced phase: offered {rate} req/s, achieved {:.1} req/s",
            paced.throughput()
        ));
        return Ok(report);
    }

    let traced_sat = traced_sat.expect("traced run");
    let mut stage: [Vec<f64>; 4] = Default::default();
    let mut wire = Vec::new();
    let mut hop = Vec::new();
    let mut client_us = Vec::new();
    for s in &paced.samples {
        let st = stage_nanos(&s.spans);
        for (v, ns) in stage.iter_mut().zip(st) {
            v.push(ns as f64 / 1e3);
        }
        let total = (s.done - s.sent).as_secs_f64() * 1e9;
        client_us.push(total / 1e3);
        wire.push((total - st.iter().sum::<u64>() as f64) / 1e3);
        if let Some(h) = hop_nanos(&s.spans) {
            hop.push(h as f64 / 1e3);
        }
    }
    let _ = client.goodbye();
    served.shutdown();

    let layer_cases: Vec<Case> = if cold {
        cases[cases.len() - POOL_SIZE..].to_vec()
    } else {
        cases.clone()
    };
    if !cluster {
        let probe_feed = if cold {
            let start = cases.len() - COLD_RESERVE;
            Feed::Fresh {
                next: start,
                end: start + COLD_RESERVE - POOL_SIZE,
            }
        } else {
            Feed::pool(cases.len())
        };
        hop = hop_probe(&mut report, &cases, probe_feed);
    }
    let late: Vec<f64> = paced.samples.iter().map(|s| us(s.sent - s.due)).collect();
    traced_metrics(
        &mut report,
        &TracedLoad {
            stage,
            wire,
            hop,
            late,
            overhead: traced_sat.fastest_round_throughput() / sat.fastest_round_throughput(),
            totals,
            jit,
            requests: sent,
        },
    );
    if workload == "short-hot" {
        let client_p50 = quantile(&sorted(client_us), 0.5);
        let parts: f64 = [
            "svc.queue_us.p50",
            "svc.cache_us.p50",
            "svc.admit_us.p50",
            "svc.exec_us.p50",
            "net.wire_us.p50",
        ]
        .iter()
        .filter_map(|m| report.value(m))
        .sum();
        report.note(format!(
            "latency accounting: stage p50s + wire p50 = {parts:.1} us against client p50 {client_p50:.1} us ({:+.1}%)",
            (parts / client_p50 - 1.0) * 100.0
        ));
    }

    let inputs: Vec<LayerInput> = layer_cases.iter().map(LayerInput::of_case).collect();
    let (paper, first_build) = layers::paper_inputs();
    let mut builds = vec![first_build];
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(stackcache_workloads::all_workloads(
            stackcache_workloads::Scale::Full,
        ));
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wire_p50 = report.value("net.wire_us.p50").unwrap_or(0.0) * 1e3;
    let costs = layers::measure(
        &mut report,
        &inputs,
        &paper,
        &builds,
        Traffic {
            hit_ratio: totals.hit_ratio(),
            wire_p50_ns: wire_p50,
        },
    );
    let predicted = if cold {
        "analysis.analyze_us"
    } else {
        "core.zero_work_ns"
    };
    largest_layer(&mut report, &costs, predicted);
    Ok(report)
}
