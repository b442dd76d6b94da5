//! Load generator for the cluster tier: several in-process
//! [`NetServer`] nodes behind a [`NetProxy`] router, all over real
//! loopback TCP, driven through three phases that together exercise
//! everything the cluster promises.
//!
//! 1. **Routed** — concurrent client connections pipeline generated
//!    programs through the router across every engine regime (fused and
//!    quickened included), every reply verified against the reference
//!    interpreter. The ring's placement is asserted exactly: every sent
//!    request's program key, routed through a ring built from the same
//!    node labels and vnodes, predicts the router's per-node forwarded
//!    counts, and the total the router claims to have forwarded equals
//!    what the nodes saw.
//! 2. **Coalesce** — every connection floods the same slow program at
//!    once; the ring concentrates the burst on one node, whose service
//!    must run it far fewer times than it answers, with byte-identical
//!    fanned replies.
//! 3. **Flood** — more than a thousand handshaked connections are held
//!    open simultaneously (under the router's budget) while a healthy
//!    client keeps getting verified replies through the crowd.
//!
//! Like [`crate::netload`], the generator is an oracle: any reply that
//! disagrees with the reference interpreter is a divergence and fails
//! the run.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stackcache_core::EngineRegime;
use stackcache_harness::{gen, Outcome, MEMORY_BYTES};
use stackcache_net::{
    program_key, proxy, read_frame, Client, Frame, HashRing, NetConfig, NetProxy, NetServer,
    NetSnapshot, ProxyConfig, ProxySnapshot, ReplyStatus, WireRequest, DEFAULT_MAX_FRAME,
};
use stackcache_obs::PromText;
use stackcache_svc::{MetricsSnapshot, Service, ServiceConfig};
use stackcache_vm::{exec, program_of, Inst, Machine, Program, Rng};

use crate::table::{f2, Table};

/// Cluster load-generation parameters.
#[derive(Debug, Clone)]
pub struct ClusterLoadConfig {
    /// `NetServer` nodes behind the router.
    pub nodes: usize,
    /// Worker threads in each node's service.
    pub workers_per_node: usize,
    /// Each node's service queue capacity.
    pub queue_capacity: usize,
    /// Concurrent client connections in the routed phase.
    pub connections: usize,
    /// Pipelining window each connection requests from the router.
    pub window: u32,
    /// Pipelined requests per connection in the routed phase.
    pub requests_per_conn: usize,
    /// Distinct generated programs (structured / memory / call-nest
    /// families, round-robin).
    pub programs: usize,
    /// Identical in-flight submissions per connection in the coalesce
    /// phase.
    pub coalesce_burst: usize,
    /// Simultaneously held connections in the flood phase (the router's
    /// budget is sized above this).
    pub flood_connections: usize,
    /// Verified requests a healthy client drives during the flood.
    pub flood_probes: usize,
    /// Seed for the program generators.
    pub seed: u64,
    /// Fuel per request.
    pub fuel: u64,
}

impl Default for ClusterLoadConfig {
    fn default() -> Self {
        ClusterLoadConfig {
            nodes: 2,
            workers_per_node: 2,
            queue_capacity: 512,
            connections: 4,
            // 4 x 2560 = 10240 verified requests in the routed phase
            requests_per_conn: 2560,
            window: 32,
            programs: 8,
            coalesce_burst: 8,
            flood_connections: 1100,
            flood_probes: 50,
            seed: 0xC1_057E7,
            fuel: 1_000_000,
        }
    }
}

/// One generated program with the reference interpreter's verdict.
struct Case {
    name: String,
    request: WireRequest, // regime/peephole rewritten per submission
    expected: Outcome,
}

/// What one phase measured.
#[derive(Debug)]
pub struct ClusterPhase {
    /// Display name.
    pub name: &'static str,
    /// Requests submitted and answered.
    pub requests: usize,
    /// Wall-clock duration across all connections.
    pub elapsed: Duration,
    /// Client-observed round-trip latencies.
    pub latencies: Vec<Duration>,
    /// Replies that disagreed with the reference interpreter.
    pub divergences: Vec<String>,
}

impl ClusterPhase {
    /// Requests per second over the phase.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn throughput(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `q`-quantile client-observed latency.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

/// Everything a cluster run measured and observed.
#[derive(Debug)]
pub struct ClusterReport {
    /// The three phases in run order.
    pub phases: Vec<ClusterPhase>,
    /// The router's final counters.
    pub proxy: ProxySnapshot,
    /// Each node's final front-end counters.
    pub node_net: Vec<NetSnapshot>,
    /// Each node's final service counters.
    pub node_svc: Vec<MetricsSnapshot>,
    /// Peak live connections observed at the router during the flood.
    pub flood_peak_live: u64,
    /// Identical-burst replies that were not byte-identical.
    pub fanout_mismatches: usize,
    /// Per-node request counts the ring's placement predicts for every
    /// request sent through the router; the router's own `forwarded`
    /// counts must equal it.
    pub expected_forwarded: Vec<u64>,
}

impl ClusterReport {
    /// Executions the nodes' coalescers avoided, summed.
    #[must_use]
    pub fn coalesced_executions_saved(&self) -> u64 {
        self.node_svc
            .iter()
            .map(|s| s.coalesced_executions_saved)
            .sum()
    }

    /// All divergences across phases.
    #[must_use]
    pub fn divergences(&self) -> Vec<&String> {
        self.phases.iter().flat_map(|p| &p.divergences).collect()
    }

    /// True when every reply verified, every fanned reply was
    /// byte-identical, and nothing was lost upstream.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.divergences().is_empty()
            && self.fanout_mismatches == 0
            && self.proxy.upstream_errors == 0
    }

    /// The per-phase throughput/latency table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["phase", "requests", "req/s", "p50", "p99", "divergences"]);
        for p in &self.phases {
            t.row(&[
                p.name.to_string(),
                p.requests.to_string(),
                f2(p.throughput()),
                fmt_latency(p.latency_quantile(0.50)),
                fmt_latency(p.latency_quantile(0.99)),
                p.divergences.len().to_string(),
            ]);
        }
        t
    }

    /// The aggregated cluster page: the router's own metrics plus
    /// per-node totals re-exported under a `node` label.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut page = proxy::prometheus(&self.proxy);
        let mut p = PromText::new();
        type NodeCounter = (&'static str, &'static str, fn(&NetSnapshot) -> u64);
        let node_counters: [NodeCounter; 3] = [
            (
                "cluster_node_submits_total",
                "Submissions each node accepted.",
                |s| s.submits,
            ),
            (
                "cluster_node_replies_total",
                "Replies each node produced.",
                |s| s.replies,
            ),
            (
                "cluster_node_connections_total",
                "Connections each node served.",
                |s| s.connections_opened,
            ),
        ];
        for (name, help, get) in node_counters {
            p.help(name, help);
            p.typ(name, "counter");
            for (node, snap) in self.node_net.iter().enumerate() {
                let label = node.to_string();
                p.sample_u64(name, &[("node", &label)], get(snap));
            }
        }
        p.help(
            "cluster_coalesced_executions_saved_total",
            "Executions the nodes' coalescers avoided, summed.",
        );
        p.typ("cluster_coalesced_executions_saved_total", "counter");
        p.sample_u64(
            "cluster_coalesced_executions_saved_total",
            &[],
            self.coalesced_executions_saved(),
        );
        page.push_str(&p.finish());
        page
    }
}

fn fmt_latency(d: Option<Duration>) -> String {
    d.map_or_else(|| "-".to_string(), |d| format!("{:.2?}", d))
}

fn reference_outcome(program: &Program, proto: &Machine, fuel: u64) -> Outcome {
    let mut m = proto.clone();
    let result = exec::run(program, &mut m, fuel).map(|o| o.executed);
    Outcome::capture(&m, result)
}

fn build_cases(cfg: &ClusterLoadConfig) -> Vec<Case> {
    let mut cases = Vec::new();
    for i in 0..cfg.programs {
        let mut rng = Rng::new((cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
        let (family, program, proto) = match i % 3 {
            0 => (
                "structured",
                gen::structured_program(&mut rng),
                Machine::with_memory(MEMORY_BYTES),
            ),
            1 => {
                let proto = gen::seeded_machine(&mut rng, MEMORY_BYTES, 6);
                let choices = gen::random_choices(&mut rng, 100, 1 << 20);
                ("memory", gen::memory_fodder(&choices, MEMORY_BYTES), proto)
            }
            _ => (
                "callnest",
                gen::call_nest_program(&mut rng, 4),
                Machine::with_memory(MEMORY_BYTES),
            ),
        };
        let expected = reference_outcome(&program, &proto, cfg.fuel);
        let mut request =
            WireRequest::new(Arc::new(program), EngineRegime::Reference).fuel(cfg.fuel);
        request.stack = proto.stack().to_vec();
        request.rstack = proto.rstack().to_vec();
        request.memory = proto.memory().to_vec();
        cases.push(Case {
            name: format!("{family}#{i}"),
            request,
            expected,
        });
    }
    cases
}

/// The `i`-th request of the routed phase: cases × regimes round-robin,
/// peephole alternating.
fn nth_request(cases: &[Case], i: usize) -> (&Case, WireRequest) {
    let case = &cases[i % cases.len()];
    let mut request = case.request.clone().peephole(i % 2 == 1);
    request.regime = EngineRegime::ALL[(i / cases.len()) % EngineRegime::ALL.len()];
    (case, request)
}

/// Iterations of the coalesce phase's countdown loop.
const COALESCE_ITERS: i64 = 150_000;

/// A countdown loop slow enough that an identical burst is still
/// in flight together when the coalescer sees it.
fn slow_program(iters: i64) -> Arc<Program> {
    Arc::new(program_of(&[
        Inst::Lit(iters),
        Inst::Lit(1),
        Inst::Sub,
        Inst::Dup,
        Inst::BranchIfZero(6),
        Inst::Branch(1),
        Inst::Drop,
        Inst::Halt,
    ]))
}

/// The routed phase: every connection pipelines its slice of the
/// case × regime space through the router, verifying each reply.
fn run_routed(
    proxy_addr: std::net::SocketAddr,
    cfg: &ClusterLoadConfig,
    cases: &Arc<Vec<Case>>,
) -> ClusterPhase {
    let start = Instant::now();
    let handles: Vec<_> = (0..cfg.connections)
        .map(|conn| {
            let cases = Arc::clone(cases);
            let cfg = cfg.clone();
            thread::spawn(move || {
                let client = Client::connect(proxy_addr, cfg.window).expect("connect");
                let mut latencies = Vec::with_capacity(cfg.requests_per_conn);
                let mut divergences = Vec::new();
                let base = conn * cfg.requests_per_conn;
                let mut inflight: std::collections::VecDeque<(
                    Instant,
                    usize,
                    EngineRegime,
                    stackcache_net::PendingReply,
                )> = std::collections::VecDeque::new();
                let drain = |(t0, case_idx, regime, p): (
                    Instant,
                    usize,
                    EngineRegime,
                    stackcache_net::PendingReply,
                ),
                             latencies: &mut Vec<Duration>,
                             divergences: &mut Vec<String>| {
                    let reply = p.wait().expect("reply");
                    latencies.push(t0.elapsed());
                    let case = &cases[case_idx];
                    if let Some(diff) = reply.differs_from(&case.expected) {
                        divergences.push(format!(
                            "routed {} on {}: {diff}",
                            case.name,
                            regime.name()
                        ));
                    }
                };
                for i in 0..cfg.requests_per_conn {
                    let (case_idx, request) = {
                        let (_, request) = nth_request(&cases, base + i);
                        ((base + i) % cases.len(), request)
                    };
                    let pending = client.submit(&request).expect("submit");
                    inflight.push_back((Instant::now(), case_idx, request.regime, pending));
                    if inflight.len() >= cfg.window as usize {
                        let item = inflight.pop_front().expect("nonempty");
                        drain(item, &mut latencies, &mut divergences);
                    }
                }
                for item in inflight {
                    drain(item, &mut latencies, &mut divergences);
                }
                client.goodbye().expect("drain");
                (latencies, divergences)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut divergences = Vec::new();
    for h in handles {
        let (l, d) = h.join().expect("connection thread");
        latencies.extend(l);
        divergences.extend(d);
    }
    ClusterPhase {
        name: "routed",
        requests: cfg.connections * cfg.requests_per_conn,
        elapsed: start.elapsed(),
        latencies,
        divergences,
    }
}

/// The coalesce phase: every connection floods one identical slow
/// program; replies must verify and be byte-identical across the fan.
fn run_coalesce(
    proxy_addr: std::net::SocketAddr,
    cfg: &ClusterLoadConfig,
) -> (ClusterPhase, usize) {
    let program = slow_program(COALESCE_ITERS);
    let request = WireRequest::new(Arc::clone(&program), EngineRegime::Reference).fuel(cfg.fuel);
    let expected = reference_outcome(&program, &Machine::with_memory(MEMORY_BYTES), cfg.fuel);
    let start = Instant::now();
    let handles: Vec<_> = (0..cfg.connections)
        .map(|_| {
            let request = request.clone();
            let expected = expected.clone();
            let burst = cfg.coalesce_burst;
            let window = cfg.window;
            thread::spawn(move || {
                let client = Client::connect(proxy_addr, window).expect("connect");
                let t0 = Instant::now();
                let pending: Vec<_> = (0..burst)
                    .map(|_| client.submit(&request).expect("submit"))
                    .collect();
                let replies: Vec<_> = pending
                    .into_iter()
                    .map(|p| p.wait().expect("reply"))
                    .collect();
                let latency = t0.elapsed();
                let mut divergences = Vec::new();
                let mut mismatches = 0usize;
                for reply in &replies {
                    if let Some(diff) = reply.differs_from(&expected) {
                        divergences.push(format!("coalesce burst: {diff}"));
                    }
                    if reply.output != replies[0].output
                        || reply.memory_hash != replies[0].memory_hash
                        || reply.executed != replies[0].executed
                    {
                        mismatches += 1;
                    }
                }
                (latency, divergences, mismatches)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut divergences = Vec::new();
    let mut mismatches = 0;
    for h in handles {
        let (l, d, m) = h.join().expect("burst thread");
        latencies.push(l);
        divergences.extend(d);
        mismatches += m;
    }
    (
        ClusterPhase {
            name: "coalesce",
            requests: cfg.connections * cfg.coalesce_burst,
            elapsed: start.elapsed(),
            latencies,
            divergences,
        },
        mismatches,
    )
}

/// The flood phase: hold `flood_connections` handshaked connections
/// open at once while a healthy client keeps getting verified replies.
/// Returns the phase and the router's peak live-connection gauge.
fn run_flood(proxy: &NetProxy, cfg: &ClusterLoadConfig, cases: &[Case]) -> (ClusterPhase, u64) {
    let start = Instant::now();
    let mut held = Vec::with_capacity(cfg.flood_connections);
    for i in 0..cfg.flood_connections {
        let stream = TcpStream::connect(proxy.addr()).expect("flood connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut w = stream.try_clone().expect("clone");
        w.write_all(&Frame::Hello { window: 1 }.encode())
            .expect("hello");
        let mut r = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let Ok(Some((Frame::HelloOk { .. }, _))) = read_frame(&mut r, DEFAULT_MAX_FRAME) else {
            panic!("flood connection {i} was refused a handshake under budget");
        };
        held.push(stream);
    }
    let peak_live = proxy.metrics().front.connections_live;

    // the healthy client must still get verified replies through the
    // crowd
    let client = Client::connect(proxy.addr(), cfg.window).expect("connect");
    let mut latencies = Vec::with_capacity(cfg.flood_probes);
    let mut divergences = Vec::new();
    for i in 0..cfg.flood_probes {
        let (case, request) = nth_request(cases, i);
        let t0 = Instant::now();
        let reply = client.call(&request).expect("reply through the flood");
        latencies.push(t0.elapsed());
        if reply.status != ReplyStatus::Ok {
            divergences.push(format!(
                "flood probe {}: status {:?}",
                case.name, reply.status
            ));
        } else if let Some(diff) = reply.differs_from(&case.expected) {
            divergences.push(format!("flood probe {}: {diff}", case.name));
        }
    }
    client.goodbye().expect("drain");
    drop(held);
    (
        ClusterPhase {
            name: "flood",
            requests: cfg.flood_probes,
            elapsed: start.elapsed(),
            latencies,
            divergences,
        },
        peak_live,
    )
}

/// Per-node counts of every request the three phases send, placed by
/// `ring` on its program key: what the router must report forwarded.
fn expected_placement(ring: &HashRing, cfg: &ClusterLoadConfig, cases: &[Case]) -> Vec<u64> {
    let mut counts = vec![0u64; cfg.nodes];
    let mut place =
        |program: &Program, n: usize| counts[ring.route(program_key(program))] += n as u64;
    for i in 0..cfg.connections * cfg.requests_per_conn {
        place(&nth_request(cases, i).1.program, 1);
    }
    place(
        &slow_program(COALESCE_ITERS),
        cfg.connections * cfg.coalesce_burst,
    );
    for i in 0..cfg.flood_probes {
        place(&nth_request(cases, i).1.program, 1);
    }
    counts
}

/// Run the whole cluster load: nodes + router up, the three phases,
/// then an orderly teardown. Every reply is verified.
#[must_use]
pub fn run_clusterload(cfg: &ClusterLoadConfig) -> ClusterReport {
    assert!(cfg.nodes >= 2, "a cluster needs at least two nodes");
    let mut nodes = Vec::with_capacity(cfg.nodes);
    let mut addrs = Vec::with_capacity(cfg.nodes);
    for _ in 0..cfg.nodes {
        let server = NetServer::start(
            Service::start(
                ServiceConfig {
                    workers: cfg.workers_per_node,
                    queue_capacity: cfg.queue_capacity,
                    ..ServiceConfig::default()
                }
                .coalescing(),
            ),
            NetConfig::default(),
        )
        .expect("bind node");
        addrs.push(server.addr().to_string());
        nodes.push(server);
    }
    let proxy_config = ProxyConfig {
        nodes: addrs,
        max_window: cfg.window.max(64),
        upstream_window: 256,
        max_connections: cfg.flood_connections + cfg.connections + 64,
        ..ProxyConfig::default()
    };
    let ring = HashRing::new(&proxy_config.nodes, proxy_config.vnodes);
    let proxy = NetProxy::start(proxy_config).expect("start proxy");

    let cases = Arc::new(build_cases(cfg));
    let expected_forwarded = expected_placement(&ring, cfg, &cases);
    let routed = run_routed(proxy.addr(), cfg, &cases);
    let (coalesce, fanout_mismatches) = run_coalesce(proxy.addr(), cfg);
    let (flood, flood_peak_live) = run_flood(&proxy, cfg, &cases);

    let proxy_snap = proxy.shutdown();
    let mut node_net = Vec::with_capacity(nodes.len());
    let mut node_svc = Vec::with_capacity(nodes.len());
    for node in nodes {
        node_net.push(node.metrics());
        let (svc_snap, _) = node.shutdown();
        node_svc.push(svc_snap);
    }

    ClusterReport {
        phases: vec![routed, coalesce, flood],
        proxy: proxy_snap,
        node_net,
        node_svc,
        flood_peak_live,
        fanout_mismatches,
        expected_forwarded,
    }
}
