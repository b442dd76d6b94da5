//! Driving the served stack over loopback: a `NetServer` (or a
//! `NetProxy` in front of several), a closed-loop saturation phase and
//! an open-loop paced phase over one connection, every reply checked
//! against the reference interpreter.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use stackcache_net::{
    Client, NetConfig, NetProxy, NetServer, PendingReply, ProxyConfig, ReplyStatus, WireReply,
    DEFAULT_MAX_FRAME,
};
use stackcache_obs::{SpanKind, SpanRecord};
use stackcache_svc::{MetricsSnapshot, Service, ServiceConfig};

use crate::inputs::{Case, POOL_SIZE, REGIMES};

/// Pipelining window every connection asks for.
pub const MAX_WINDOW: u32 = 64;

/// The serving side of a workload: one node, or a router over several.
pub struct Served {
    nodes: Vec<NetServer>,
    proxy: Option<NetProxy>,
}

fn node(workers: usize, label: &str, max_frame: u32) -> io::Result<NetServer> {
    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: 4 * MAX_WINDOW as usize,
        ..ServiceConfig::default()
    });
    NetServer::start(
        service,
        NetConfig {
            max_window: MAX_WINDOW,
            max_frame,
            node: label.to_string(),
            ..NetConfig::default()
        },
    )
}

impl Served {
    /// One `NetServer` whose service runs `workers` workers.
    ///
    /// # Errors
    ///
    /// When the loopback listener cannot be bound.
    pub fn single(workers: usize) -> io::Result<Served> {
        Ok(Served {
            nodes: vec![node(workers, "node", DEFAULT_MAX_FRAME)?],
            proxy: None,
        })
    }

    /// A `NetProxy` routing over `nodes` servers of `workers` workers
    /// each, every hop accepting frames up to `max_frame` bytes.
    ///
    /// # Errors
    ///
    /// When a listener cannot be bound or the router cannot reach a node.
    pub fn routed(nodes: usize, workers: usize, max_frame: u32) -> io::Result<Served> {
        let nodes: Vec<NetServer> = (0..nodes)
            .map(|i| node(workers, &format!("node{i}"), max_frame))
            .collect::<io::Result<_>>()?;
        let proxy = NetProxy::start(ProxyConfig {
            nodes: nodes.iter().map(|n| n.addr().to_string()).collect(),
            max_window: MAX_WINDOW,
            max_frame,
            upstream_window: MAX_WINDOW,
            // tail-sample only genuinely slow requests; the benchmark
            // measures routing, not the trace store
            slow_threshold: Duration::from_secs(1),
            ..ProxyConfig::default()
        })?;
        Ok(Served {
            nodes,
            proxy: Some(proxy),
        })
    }

    /// Where clients connect.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.proxy
            .as_ref()
            .map_or_else(|| self.nodes[0].addr(), NetProxy::addr)
    }

    /// The summed service counters of every node.
    #[must_use]
    pub fn totals(&self) -> SvcTotals {
        self.nodes
            .iter()
            .map(|n| SvcTotals::of(&n.service_metrics()))
            .fold(SvcTotals::default(), |a, b| a.plus(b))
    }

    /// Submissions the router forwarded (0 without a router).
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.proxy
            .as_ref()
            .map_or(0, |p| p.metrics().forwarded_total())
    }

    /// Stop the router first, then every node, joining their threads.
    pub fn shutdown(self) {
        if let Some(p) = self.proxy {
            let _ = p.shutdown();
        }
        for n in self.nodes {
            let _ = n.shutdown();
        }
    }
}

/// The service counters the benchmark reads, summed over nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct SvcTotals {
    /// Requests that ran to an outcome.
    pub completed: u64,
    /// Artifact-cache hits.
    pub hits: u64,
    /// Artifact-cache misses.
    pub misses: u64,
    /// Artifact-cache evictions.
    pub evictions: u64,
    /// Prototype-machine clones.
    pub proto_clones: u64,
    /// Requests admitted at `Checks::None`.
    pub unchecked: u64,
    /// Requests admitted at any level.
    pub admitted: u64,
}

impl SvcTotals {
    /// Read the counters of one snapshot.
    #[must_use]
    pub fn of(m: &MetricsSnapshot) -> SvcTotals {
        SvcTotals {
            completed: m.completed(),
            hits: m.cache_hits(),
            misses: m.cache_misses(),
            evictions: m.cache_evictions,
            proto_clones: m.proto_clones,
            unchecked: m.admitted_unchecked,
            admitted: m.admitted_unchecked + m.admitted_guarded + m.admitted_checked,
        }
    }

    fn plus(self, o: SvcTotals) -> SvcTotals {
        SvcTotals {
            completed: self.completed + o.completed,
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            proto_clones: self.proto_clones + o.proto_clones,
            unchecked: self.unchecked + o.unchecked,
            admitted: self.admitted + o.admitted,
        }
    }

    /// The counters accumulated since `before`.
    #[must_use]
    pub fn since(self, before: SvcTotals) -> SvcTotals {
        SvcTotals {
            completed: self.completed - before.completed,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            proto_clones: self.proto_clones - before.proto_clones,
            unchecked: self.unchecked - before.unchecked,
            admitted: self.admitted - before.admitted,
        }
    }

    /// Hits over lookups.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Which request comes next: case index and regime index.
#[derive(Debug)]
pub enum Feed {
    /// A fixed pool, cases and regimes round-robin.
    Pool {
        /// Pool size.
        cases: usize,
        /// Requests issued so far.
        issued: usize,
        /// Requests this feed may issue in all.
        limit: usize,
    },
    /// Every request a case not sent before, regimes round-robin.
    Fresh {
        /// Next unsent case.
        next: usize,
        /// One past the last case this feed may send.
        end: usize,
    },
}

impl Feed {
    /// Round-robin over `cases` cases and every regime without end.
    #[must_use]
    pub fn pool(cases: usize) -> Feed {
        Feed::Pool {
            cases,
            issued: 0,
            limit: usize::MAX,
        }
    }

    /// Every `(case, regime)` pair of a pool exactly once, provided the
    /// pool size is coprime to the regime count.
    #[must_use]
    pub fn each_pair(cases: usize) -> Feed {
        Feed::Pool {
            cases,
            issued: 0,
            limit: cases * REGIMES.len(),
        }
    }
}

impl Iterator for Feed {
    type Item = (usize, usize);

    /// The next `(case, regime)` pair, `None` once a fresh feed is spent.
    fn next(&mut self) -> Option<(usize, usize)> {
        match self {
            Feed::Pool {
                cases,
                issued,
                limit,
            } => {
                if issued >= limit {
                    return None;
                }
                let i = *issued;
                *issued += 1;
                Some((i % *cases, i % REGIMES.len()))
            }
            Feed::Fresh { next, end } => {
                if next >= end {
                    return None;
                }
                let i = *next;
                *next += 1;
                Some((i, i % REGIMES.len()))
            }
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the case sent.
    pub case: usize,
    /// Index into [`REGIMES`].
    pub regime: usize,
    /// When the request was due (equal to `sent` in a closed loop).
    pub due: Instant,
    /// When it was handed to the client.
    pub sent: Instant,
    /// When its reply was observed.
    pub done: Instant,
    /// The spans the reply carried (traced phases only).
    pub spans: Vec<SpanRecord>,
}

/// Replies in a round: a pool feed serves every `(case, regime)` pair
/// of a [`POOL_SIZE`] pool once in this many requests.
pub const ROUND: usize = POOL_SIZE * REGIMES.len();

/// What one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Every verified reply, when the phase keeps them.
    pub samples: Vec<Sample>,
    keep: bool,
    /// Verified replies.
    pub completed: u64,
    /// Each `(case, regime)` cell's fastest verified reply, timed from
    /// its due time and from its send, each the least over the cell's
    /// replies.
    fastest: HashMap<(usize, usize), (Duration, Duration)>,
    /// When every [`ROUND`]th verified reply arrived.
    round_ends: Vec<Instant>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
    /// Requests sent.
    pub attempted: u64,
    /// Divergences, refusals and transport errors.
    pub failures: Vec<String>,
}

impl Phase {
    fn new(keep: bool) -> Phase {
        Phase {
            samples: Vec::new(),
            keep,
            completed: 0,
            fastest: HashMap::new(),
            round_ends: Vec::new(),
            elapsed: Duration::ZERO,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Verified completions per second over the whole phase.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The fastest verified reply of a cell, timed from its due time
    /// and from its send; `None` when the cell was never answered.
    #[must_use]
    pub fn fastest(&self, case: usize, regime: usize) -> Option<(Duration, Duration)> {
        self.fastest.get(&(case, regime)).copied()
    }

    /// Requests per second of the phase's fastest round: [`ROUND`]
    /// consecutive verified replies, timed from the last reply of the
    /// round before. Over a pool a round serves every `(case, regime)`
    /// pair once, so every round repeats the same work; interference
    /// from outside the benchmark can only lengthen one, and the fastest
    /// is the stack's own rate. Falls back to the whole phase when it
    /// saw fewer than two round ends.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn fastest_round_throughput(&self) -> f64 {
        self.round_ends
            .windows(2)
            .map(|w| ROUND as f64 / (w[1] - w[0]).as_secs_f64().max(1e-12))
            .reduce(f64::max)
            .unwrap_or_else(|| self.throughput())
    }
}

/// Why a reply does not count as correct, if it does not.
#[must_use]
fn check_reply(case: &Case, regime: usize, reply: &WireReply) -> Option<String> {
    let what = || format!("{} on {}", case.name, REGIMES[regime].0);
    if reply.status == ReplyStatus::Busy {
        return Some(format!("{}: Busy", what()));
    }
    reply
        .differs_from(&case.expected)
        .map(|d| format!("{}: {d}", what()))
}

/// Trace ids of traced requests start here, one per request.
const TRACE_BASE: u64 = 0x7E57_0000_0000_0001;

/// The caller span a traced request names as its parent.
fn parent_of(trace_id: u64) -> u64 {
    trace_id ^ 0x0CA1_1E55
}

fn submit(
    client: &Client,
    case: &Case,
    regime: usize,
    trace_id: Option<u64>,
) -> Result<PendingReply, String> {
    let request = case.for_regime(REGIMES[regime].1);
    match trace_id {
        Some(t) => client.submit_traced(&request, t, parent_of(t)),
        None => client.submit(&request),
    }
    .map_err(|e| format!("{}: submit failed: {e}", case.name))
}

fn answer(pending: PendingReply) -> Result<(WireReply, Vec<SpanRecord>), String> {
    pending
        .wait_traced()
        .map(|(r, t)| (r, t.map(|t| t.spans).unwrap_or_default()))
        .map_err(|e| format!("reply lost: {e}"))
}

/// Closed loop over one connection with `window` requests in flight,
/// sending for `dur` (or until a fresh feed runs out), then draining.
/// Keeps counts and each cell's fastest reply; see
/// [`saturation_samples`] for every reply.
pub fn saturation(
    client: &Client,
    cases: &[Case],
    feed: &mut Feed,
    window: usize,
    dur: Duration,
    traced: bool,
) -> Phase {
    closed_loop(client, cases, feed, window, dur, traced, false)
}

/// [`saturation`], keeping every verified reply.
pub fn saturation_samples(
    client: &Client,
    cases: &[Case],
    feed: &mut Feed,
    window: usize,
    dur: Duration,
    traced: bool,
) -> Phase {
    closed_loop(client, cases, feed, window, dur, traced, true)
}

fn closed_loop(
    client: &Client,
    cases: &[Case],
    feed: &mut Feed,
    window: usize,
    dur: Duration,
    traced: bool,
    keep: bool,
) -> Phase {
    let mut inflight: VecDeque<(usize, usize, Instant, PendingReply)> = VecDeque::new();
    let mut trace_id = TRACE_BASE;
    let start = Instant::now();
    let end = start + dur;
    let mut phase = Phase::new(keep);
    loop {
        if inflight.len() < window && Instant::now() < end {
            if let Some((c, r)) = feed.next() {
                phase.attempted += 1;
                trace_id += 1;
                let sent = Instant::now();
                match submit(client, &cases[c], r, traced.then_some(trace_id)) {
                    Ok(p) => inflight.push_back((c, r, sent, p)),
                    Err(e) => {
                        phase.failures.push(e);
                        break;
                    }
                }
                continue;
            }
        }
        let Some((c, r, sent, p)) = inflight.pop_front() else {
            break;
        };
        record(&mut phase, cases, c, r, sent, sent, answer(p));
    }
    for (c, r, sent, p) in inflight {
        record(&mut phase, cases, c, r, sent, sent, answer(p));
    }
    phase.elapsed = start.elapsed();
    phase
}

fn record(
    phase: &mut Phase,
    cases: &[Case],
    case: usize,
    regime: usize,
    due: Instant,
    sent: Instant,
    answer: Result<(WireReply, Vec<SpanRecord>), String>,
) {
    let done = Instant::now();
    match answer {
        Ok((reply, spans)) => match check_reply(&cases[case], regime, &reply) {
            Some(e) => phase.failures.push(e),
            None => {
                phase.completed += 1;
                if phase.completed.is_multiple_of(ROUND as u64) {
                    phase.round_ends.push(done);
                }
                let times = (done - due, done - sent);
                phase
                    .fastest
                    .entry((case, regime))
                    .and_modify(|(d, s)| {
                        *d = (*d).min(times.0);
                        *s = (*s).min(times.1);
                    })
                    .or_insert(times);
                if phase.keep {
                    phase.samples.push(Sample {
                        case,
                        regime,
                        due,
                        sent,
                        done,
                        spans,
                    });
                }
            }
        },
        Err(e) => phase.failures.push(format!("{}: {e}", cases[case].name)),
    }
}

/// Open loop over one connection: request `k` is due at `k / rate`
/// seconds; each is timed from its due time, and a `Busy` reply is a
/// failure, not retried. The calling thread sends; one collector
/// thread waits for replies in send order.
pub fn paced(
    client: &Client,
    cases: &[Case],
    feed: &mut Feed,
    rate: f64,
    dur: Duration,
    traced: bool,
) -> Phase {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(usize, usize, Instant, Instant, PendingReply)>();
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + dur;
    let mut attempted = 0;
    let mut send_failures = Vec::new();
    let mut phase = thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut phase = Phase::new(true);
            for (c, r, due, sent, p) in rx {
                record(&mut phase, cases, c, r, due, sent, answer(p));
            }
            phase
        });
        let mut trace_id = TRACE_BASE;
        let mut due = start;
        while due < end {
            let Some((c, r)) = feed.next() else { break };
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            attempted += 1;
            trace_id += 1;
            let sent = Instant::now();
            match submit(client, &cases[c], r, traced.then_some(trace_id)) {
                Ok(p) => {
                    if tx.send((c, r, due, sent, p)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    send_failures.push(e);
                    break;
                }
            }
            due += interval;
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    phase.elapsed = start.elapsed();
    phase.attempted = attempted;
    phase.failures.extend(send_failures);
    phase
}

/// Durations of the four service stages a node stamps, in order
/// queue, cache, admit, exec (nanoseconds).
#[must_use]
pub fn stage_nanos(spans: &[SpanRecord]) -> [u64; 4] {
    let mut out = [0; 4];
    for s in spans {
        let slot = match s.kind {
            SpanKind::Queue => 0,
            SpanKind::Cache => 1,
            SpanKind::Admit => 2,
            SpanKind::Exec => 3,
            _ => continue,
        };
        out[slot] += s.duration_nanos();
    }
    out
}

/// The router's hop: its upstream forward span minus the node's stage
/// spans, in nanoseconds. The router stamps two forward spans, its
/// whole-request span and, under it, the hop to the node; `None` when
/// the reply carried no hop.
#[must_use]
pub fn hop_nanos(spans: &[SpanRecord]) -> Option<u64> {
    let hop = spans.iter().find(|s| {
        s.kind == SpanKind::Forward
            && spans
                .iter()
                .any(|p| p.kind == SpanKind::Forward && p.span_id == s.parent_span_id)
    })?;
    let stages: u64 = stage_nanos(spans).iter().sum();
    Some(hop.duration_nanos().saturating_sub(stages))
}
