//! The cluster tier: a thin consistent-hash router in front of several
//! [`NetServer`](crate::NetServer) nodes.
//!
//! The router speaks the same frozen wire protocol on both sides, and
//! its client side is the very front end the nodes run: the handshake,
//! window, refusals, drains and the counter registry (rendered under
//! `proxy_`) are shared code. What this module adds is the backend
//! behind that front end: every admitted request is routed by
//! [`program_key`] over a [`HashRing`], so all submissions of one
//! program — whatever their regime, peephole setting, or machine image
//! — land on the same node and keep that node's compiled/verified/
//! quickened artifact cache hot. Replies pass through byte-identically
//! (the reply body re-encodes to the same bytes the node produced),
//! under the client's own correlation id.
//!
//! Per node the proxy keeps one pipelined [`Client`](crate::Client)
//! connection and two forwarder threads: a submit thread that claims
//! upstream window slots (blocking *there*, never on the poller) and a
//! completion thread that waits replies in submission order and mails
//! them back to the owning connection. A lost node answers its
//! in-flight requests with typed `ShutDown` replies instead of
//! stranding them.
//!
//! `BatchSubmit` frames are unbundled: items route independently (two
//! items of one batch may belong to different nodes), each answering
//! under its own correlation id exactly as the protocol promises. The
//! batch-economics optimization stays a single-node concern.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use stackcache_obs::{
    node_label, traces_json, JsonObj, PromText, SpanIdGen, SpanKind, SpanRecord, TraceAssembler,
    TraceTree,
};
use stackcache_svc::SubmitError;
use stackcache_vm::Rng;

use crate::client::{Client, PendingReply, TracedReply};
use crate::front::{fit_json, Backend, Front, Item, Items, Limits, ReplyTo, TraceCtx};
use crate::metrics::{self, NetSnapshot};
use crate::ring::{program_key, HashRing};
use crate::wire::{
    ReplyStatus, WireReply, WireRequest, DEFAULT_MAX_FRAME, METRICS_FORMAT_PROMETHEUS,
};

/// Router sizing.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address to bind; port 0 picks a free port.
    pub bind: String,
    /// Node addresses to route across (at least one).
    pub nodes: Vec<String>,
    /// Per-client-connection in-flight cap (clamped `Hello` grant);
    /// must be at least 1.
    pub max_window: u32,
    /// Frame-body cap announced in `HelloOk`.
    pub max_frame: u32,
    /// Pipelining window the proxy requests from each node.
    pub upstream_window: u32,
    /// Virtual nodes per ring member; must be at least 1.
    pub vnodes: usize,
    /// Hard cap on simultaneously live client connections.
    pub max_connections: usize,
    /// Evict a client connection with no inbound bytes for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// The proxy's node label on the spans it stamps (must differ from
    /// every upstream node's label).
    pub node: String,
    /// Tail-sampling threshold: a request whose ingress-to-reply time
    /// reaches this is captured into the slow-trace store. Traps,
    /// refusals, and coalesced executions are captured regardless.
    pub slow_threshold: Duration,
    /// Head-sampling rate in parts per million: each proxy-originated
    /// request is marked for capture at ingress with this probability,
    /// regardless of how it later fares — the unconditional baseline
    /// that keeps *healthy* traffic visible next to the tail triggers.
    /// `0` (the default) disables head sampling. The decision stream is
    /// a deterministic [`Rng`] seeded with [`SAMPLER_SEED`], so a seeded
    /// run's accept pattern is reproducible.
    pub sample_ppm: u32,
    /// Sampled trace trees retained; the oldest is evicted first.
    pub trace_store_capacity: usize,
}

/// The fixed seed of the head-sampling [`Rng`]: requests on one proxy
/// draw from this stream in ingress order, so a single-connection test
/// can predict exactly which requests are head-sampled.
pub const SAMPLER_SEED: u64 = 0x9EAD_5A3F_F00D_5EED;

impl Default for ProxyConfig {
    fn default() -> Self {
        let engine = stackcache_evio::EngineConfig::default();
        ProxyConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: Vec::new(),
            max_window: 64,
            max_frame: DEFAULT_MAX_FRAME,
            upstream_window: 64,
            vnodes: 64,
            max_connections: engine.max_connections,
            idle_timeout: engine.idle_timeout,
            node: "proxy".to_string(),
            slow_threshold: Duration::from_millis(1),
            sample_ppm: 0,
            trace_store_capacity: 64,
        }
    }
}

/// A point-in-time copy of the router's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxySnapshot {
    /// The client-facing front end's counters — the registry every
    /// node keeps too, rendered here under `proxy_`.
    pub front: NetSnapshot,
    /// Submissions routed to each node, indexed like the node list.
    pub forwarded: Vec<u64>,
    /// Requests answered `ShutDown` because their node was lost.
    pub upstream_errors: u64,
    /// Requests tail-sampled into the slow-trace store.
    pub sampled_traces: u64,
    /// Finished requests head sampling marked at ingress; each is
    /// stored, so this is a subset of `sampled_traces`.
    pub head_sampled: u64,
    /// Sampled traces that failed to assemble into a rooted tree
    /// (orphaned or rootless spans — should stay zero).
    pub assembly_failures: u64,
}

impl ProxySnapshot {
    /// Total submissions routed across all nodes.
    #[must_use]
    pub fn forwarded_total(&self) -> u64 {
        self.forwarded.iter().sum()
    }
}

/// Render `snap` as a Prometheus page: the front end's counters under
/// `proxy_`, then the router's own; per-node routing counts carry a
/// `node` label.
#[must_use]
pub fn prometheus(snap: &ProxySnapshot) -> String {
    let mut p = PromText::new();
    metrics::write_prometheus(&mut p, "proxy", &snap.front);
    let counters: [(&str, &str, u64); 4] = [
        (
            "proxy_upstream_errors_total",
            "Requests answered ShutDown because their node was lost.",
            snap.upstream_errors,
        ),
        (
            "proxy_sampled_traces_total",
            "Requests tail-sampled into the slow-trace store.",
            snap.sampled_traces,
        ),
        (
            "proxy_head_sampled_total",
            "Finished requests head sampling marked at ingress.",
            snap.head_sampled,
        ),
        (
            "proxy_trace_assembly_failures_total",
            "Sampled traces that failed to assemble into a rooted tree.",
            snap.assembly_failures,
        ),
    ];
    for (name, help, value) in counters {
        p.help(name, help);
        p.typ(name, "counter");
        p.sample_u64(name, &[], value);
    }
    p.help(
        "proxy_forwarded_total",
        "Submissions routed to each node by the consistent-hash ring.",
    );
    p.typ("proxy_forwarded_total", "counter");
    for (node, &count) in snap.forwarded.iter().enumerate() {
        let label = node.to_string();
        p.sample_u64("proxy_forwarded_total", &[("node", &label)], count);
    }
    p.finish()
}

/// Render `snap` as a JSON object; `forwarded` is an array indexed like
/// the node list.
#[must_use]
pub fn json(snap: &ProxySnapshot) -> String {
    let forwarded: Vec<String> = snap.forwarded.iter().map(u64::to_string).collect();
    let mut o = JsonObj::new();
    metrics::write_json(&mut o, &snap.front);
    o.field_raw("forwarded", &stackcache_obs::json_array(&forwarded))
        .field_u64("upstream_errors", snap.upstream_errors)
        .field_u64("sampled_traces", snap.sampled_traces)
        .field_u64("head_sampled", snap.head_sampled)
        .field_u64("assembly_failures", snap.assembly_failures);
    o.finish()
}

/// What the forwarder threads mail back per request: the node's reply
/// (or a synthesized failure), with the assembled spans when the caller
/// traced.
type Relayed = (WireReply, Option<TracedReply>);

/// A submission on its way to a node.
struct Forward {
    to: Arc<ReplyTo<Relayed>>,
    corr: u64,
    request: WireRequest,
    trace: TraceInfo,
}

/// The trace context stamped on every submission at ingress.
struct TraceInfo {
    /// The trace id: the caller's when it sent `SubmitTraced`, fresh
    /// otherwise (the proxy is then the trace's origin).
    trace_id: u64,
    /// The caller's parent span id (0 when the proxy originates).
    parent_span_id: u64,
    /// The proxy's span covering the whole request (`Root` kind when
    /// the proxy originates the trace).
    root_span_id: u64,
    /// The proxy's forward span; the node's spans parent to this.
    forward_span_id: u64,
    /// Ingress time on the proxy clock.
    ingress_nanos: u64,
    /// Ring index of the node the request routed to.
    node: usize,
    /// The caller traced: relay the assembled spans with the reply.
    traced_reply: bool,
    /// Marked for capture by head sampling at ingress: the finished
    /// trace is stored even if no tail trigger fires.
    head_sampled: bool,
    /// When this submission arrived inside a traced batch: the shared
    /// batch parent span every item's forward chain hangs from.
    batch: Option<Arc<BatchCtx>>,
}

/// One traced batch's shared span context, allocated once when the
/// router unbundles a `BatchSubmitTraced` frame. Every item holds an
/// `Arc`: at completion each item emits a copy of the batch span into
/// its own trace (same span id; the assembler's keep-first dedup
/// collapses duplicates within a trace) and parents its root to it, so
/// sibling items are recognizably one batch across trace trees.
struct BatchCtx {
    /// The batch parent span's id, shared by every item.
    span_id: u64,
    /// Batch ingress time on the proxy clock.
    start_nanos: u64,
    /// Number of items unbundled from the batch (span `attr`).
    items: u64,
}

/// The router's backend: the ring, the forwarders, the trace store and
/// the router's own counters.
struct Router {
    config: ProxyConfig,
    ring: HashRing,
    /// One submit-thread channel per node; emptied at shutdown so the
    /// submit threads' `recv` disconnects and they can be joined.
    forwards: Mutex<Vec<mpsc::Sender<Forward>>>,
    /// Trace and span ids for everything the proxy stamps.
    span_ids: SpanIdGen,
    /// The proxy clock's epoch for span timestamps.
    epoch: Instant,
    /// The proxy's packed node label.
    node: [u8; 8],
    /// Tail-sampled trace trees, oldest first, bounded by
    /// `config.trace_store_capacity`.
    store: Mutex<VecDeque<TraceTree>>,
    /// The head-sampling decision stream ([`SAMPLER_SEED`]).
    sampler: Mutex<Rng>,
    /// Submissions routed to each node, indexed like `config.nodes`.
    forwarded: Vec<AtomicU64>,
    upstream_errors: AtomicU64,
    sampled_traces: AtomicU64,
    head_sampled: AtomicU64,
    assembly_failures: AtomicU64,
}

impl Router {
    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// The router's counters next to the front end's.
    fn snapshot(&self, front: NetSnapshot) -> ProxySnapshot {
        ProxySnapshot {
            front,
            forwarded: self
                .forwarded
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            upstream_errors: self.upstream_errors.load(Ordering::Relaxed),
            sampled_traces: self.sampled_traces.load(Ordering::Relaxed),
            head_sampled: self.head_sampled.load(Ordering::Relaxed),
            assembly_failures: self.assembly_failures.load(Ordering::Relaxed),
        }
    }

    fn sampled(&self) -> Vec<TraceTree> {
        self.store
            .lock()
            .expect("trace store lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The head-sampling decision for one ingressing request: true for
    /// about `sample_ppm` in every million, drawn from the deterministic
    /// sampler stream (no draw at all when head sampling is off, so the
    /// stream position is a pure function of the decisions made).
    fn head_sample(&self) -> bool {
        let ppm = self.config.sample_ppm;
        if ppm == 0 {
            return false;
        }
        let mut rng = self.sampler.lock().expect("sampler lock");
        rng.below(1_000_000) < u64::from(ppm)
    }

    /// Tail-sampling: keep a finished request's trace when it was slow,
    /// refused or trapped, or fanned out to coalesced waiters. Only
    /// proxy-originated traces are captured — a caller-traced request's
    /// root lives downstream, so the caller assembles that one.
    fn maybe_sample(
        &self,
        trace: &TraceInfo,
        reply: &WireReply,
        spans: &[SpanRecord],
        end_nanos: u64,
    ) {
        if trace.parent_span_id != 0 {
            return;
        }
        let slow_nanos = self
            .config
            .slow_threshold
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let slow = end_nanos.saturating_sub(trace.ingress_nanos) >= slow_nanos;
        let unhappy = reply.status != ReplyStatus::Ok;
        let coalesced = spans.iter().any(|s| s.kind == SpanKind::Exec && s.attr > 0);
        if !(slow || unhappy || coalesced || trace.head_sampled) {
            return;
        }
        if trace.head_sampled {
            self.head_sampled.fetch_add(1, Ordering::Relaxed);
        }
        self.sampled_traces.fetch_add(1, Ordering::Relaxed);
        let mut asm = TraceAssembler::new();
        for s in spans {
            asm.add(*s);
        }
        match asm.assemble(trace.trace_id) {
            Ok(tree) => {
                let mut store = self.store.lock().expect("trace store lock");
                while store.len() >= self.config.trace_store_capacity.max(1) {
                    store.pop_front();
                }
                store.push_back(tree);
            }
            Err(_) => {
                self.assembly_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Route one admitted request to its node's submit thread, stamping
    /// its trace context at ingress: the caller's when it arrived
    /// traced, a fresh proxy-originated trace otherwise.
    fn forward(&self, to: &Arc<ReplyTo<Relayed>>, item: Item, batch: Option<Arc<BatchCtx>>) {
        let Item {
            corr,
            request,
            trace: ctx,
        } = item;
        let node = self.ring.route(program_key(&request.program));
        let trace = TraceInfo {
            trace_id: ctx.map_or_else(|| self.span_ids.next_id(), |(t, _)| t),
            parent_span_id: ctx.map_or(0, |(_, p)| p),
            root_span_id: self.span_ids.next_id(),
            forward_span_id: self.span_ids.next_id(),
            ingress_nanos: self.nanos(Instant::now()),
            node,
            traced_reply: ctx.is_some(),
            // only proxy-originated traces can be captured here, so
            // caller-traced requests never consume a sampler draw
            head_sampled: ctx.is_none() && self.head_sample(),
            batch,
        };
        self.forwarded[node].fetch_add(1, Ordering::Relaxed);
        let forward = Forward {
            to: Arc::clone(to),
            corr,
            request,
            trace,
        };
        let sent = match self.forwards.lock().expect("forwards lock").get(node) {
            Some(tx) => tx.send(forward).map_err(|mpsc::SendError(lost)| lost),
            None => Err(forward),
        };
        if let Err(lost) = sent {
            // the node's forwarder is gone (shutdown unplugged it)
            self.upstream_errors.fetch_add(1, Ordering::Relaxed);
            lost.to
                .send(lost.corr, (unavailable("node unavailable"), None));
        }
    }
}

/// A typed `ShutDown` answer for a request its node cannot serve.
fn unavailable(why: &str) -> WireReply {
    WireReply::status_only(ReplyStatus::ShutDown, 0, why.to_string())
}

impl Backend for Arc<Router> {
    type Reply = Relayed;
    const STOPPING: &'static str = "router shutting down";

    /// Unbundled: each item routes to its own node and answers under
    /// its own correlation id. The router never refuses what the front
    /// end admitted; a lost node answers `ShutDown` per request.
    fn submit(&self, to: &Arc<ReplyTo<Relayed>>, items: Items) -> Result<(), SubmitError> {
        match items {
            Items::One(item) => self.forward(to, item, None),
            Items::Batch(items) => {
                // one batch parent span for a traced frame: every item's
                // forward chain hangs from it, so the trace shows the
                // batch as a unit even though items route (and answer)
                // independently
                let batch = items[0].trace.is_some().then(|| {
                    Arc::new(BatchCtx {
                        span_id: self.span_ids.next_id(),
                        start_nanos: self.nanos(Instant::now()),
                        items: items.len() as u64,
                    })
                });
                for item in items {
                    self.forward(to, item, batch.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self, relayed: Relayed, _ctx: Option<TraceCtx>) -> Relayed {
        relayed
    }

    fn trace_json(&self, budget: usize) -> String {
        fit_json(self.sampled(), budget, traces_json)
    }

    fn metrics_page(&self, format: u8, front: &NetSnapshot) -> String {
        let snap = self.snapshot(front.clone());
        if format == METRICS_FORMAT_PROMETHEUS {
            prometheus(&snap)
        } else {
            json(&snap)
        }
    }
}

/// A running router: the client-facing front end plus one pipelined
/// upstream connection (and two forwarder threads) per node.
pub struct NetProxy {
    front: Front<Arc<Router>>,
    /// Upstream clients, kept alive for the router's lifetime.
    clients: Vec<Arc<Client>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl NetProxy {
    /// Connect to every node, bind the client-facing listener, and
    /// start routing.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `config.vnodes` or
    /// `config.max_window` is 0; any [`io::Error`] from binding; a node
    /// that refuses its connection or handshake surfaces as
    /// [`io::ErrorKind::Other`].
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is empty.
    pub fn start(config: ProxyConfig) -> io::Result<NetProxy> {
        assert!(!config.nodes.is_empty(), "a router needs at least one node");
        if config.vnodes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "vnodes must be at least 1",
            ));
        }
        let mut clients = Vec::with_capacity(config.nodes.len());
        for node in &config.nodes {
            // negotiate tracing upstream; a legacy node grants nothing
            // and its submissions degrade to plain Submit frames
            let client = Client::connect_traced(node.as_str(), config.upstream_window)
                .map_err(|e| io::Error::other(format!("node {node}: {e}")))?;
            clients.push(Arc::new(client));
        }

        let mut forwards = Vec::with_capacity(clients.len());
        let mut submit_rxs = Vec::with_capacity(clients.len());
        for _ in &clients {
            let (tx, rx) = mpsc::channel::<Forward>();
            forwards.push(tx);
            submit_rxs.push(rx);
        }
        let limits = Limits {
            max_window: config.max_window,
            max_frame: config.max_frame,
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
        };
        let bind = config.bind.clone();
        let router = Arc::new(Router {
            ring: HashRing::new(&config.nodes, config.vnodes),
            forwards: Mutex::new(forwards),
            span_ids: SpanIdGen::new(&config.node),
            epoch: Instant::now(),
            node: node_label(&config.node),
            store: Mutex::new(VecDeque::new()),
            sampler: Mutex::new(Rng::new(SAMPLER_SEED)),
            forwarded: clients.iter().map(|_| AtomicU64::new(0)).collect(),
            upstream_errors: AtomicU64::new(0),
            sampled_traces: AtomicU64::new(0),
            head_sampled: AtomicU64::new(0),
            assembly_failures: AtomicU64::new(0),
            config,
        });
        let front = Front::start(&bind, &limits, None, Arc::clone(&router))?;

        let mut threads = Vec::with_capacity(clients.len() * 2);
        for (node, rx) in submit_rxs.into_iter().enumerate() {
            let client = Arc::clone(&clients[node]);
            let (comp_tx, comp_rx) = mpsc::channel();
            let submit_router = Arc::clone(&router);
            threads.push(
                thread::Builder::new()
                    .name(format!("netproxy-submit-{node}"))
                    .spawn(move || submit_loop(&client, &rx, &comp_tx, &submit_router))
                    .expect("spawn submit thread"),
            );
            let comp_router = Arc::clone(&router);
            threads.push(
                thread::Builder::new()
                    .name(format!("netproxy-complete-{node}"))
                    .spawn(move || completion_loop(&comp_rx, &comp_router))
                    .expect("spawn completion thread"),
            );
        }

        Ok(NetProxy {
            front,
            clients,
            threads,
        })
    }

    /// The bound client-facing address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// A point-in-time copy of the router's counters.
    #[must_use]
    pub fn metrics(&self) -> ProxySnapshot {
        self.front.backend().snapshot(self.front.metrics())
    }

    /// The router's Prometheus page.
    #[must_use]
    pub fn prometheus(&self) -> String {
        prometheus(&self.metrics())
    }

    /// The router's JSON document.
    #[must_use]
    pub fn json(&self) -> String {
        json(&self.metrics())
    }

    /// The tail-sampled trace trees, oldest first.
    #[must_use]
    pub fn sampled_traces(&self) -> Vec<TraceTree> {
        self.front.backend().sampled()
    }

    /// The tail-sampled trace trees as JSON — the same dump a
    /// `TraceFetch` frame answers with, unbounded.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.front.backend().trace_json(usize::MAX)
    }

    /// Drain and stop: refuse new submissions, relay every in-flight
    /// reply, then close the engine, the forwarders, and the upstream
    /// connections. Returns the final counters.
    #[must_use]
    pub fn shutdown(mut self) -> ProxySnapshot {
        let (router, front) = self.front.shutdown();
        let snap = router.snapshot(front);
        // disconnect the submit threads (their `recv` unblocks), which
        // drop their completion senders in turn — both forwarder
        // threads per node exit and can be joined
        router.forwards.lock().expect("forwards lock").clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // upstream connections close on drop (EOF after a drained
        // window reads as a clean peer close on the node)
        self.clients.clear();
        snap
    }
}

impl std::fmt::Debug for NetProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProxy")
            .field("addr", &self.addr())
            .field("nodes", &self.front.backend().config.nodes)
            .finish()
    }
}

/// Pull submissions off the node's channel, claim upstream window
/// slots (blocking here keeps the poller thread nonblocking), and hand
/// the pending replies to the completion thread in submission order.
/// Every forward goes upstream traced (when the node negotiated),
/// parented to the proxy's forward span.
fn submit_loop(
    client: &Client,
    rx: &mpsc::Receiver<Forward>,
    comp_tx: &mpsc::Sender<(Forward, u64, PendingReply)>,
    router: &Router,
) {
    while let Ok(fwd) = rx.recv() {
        let forward_nanos = router.nanos(Instant::now());
        match client.submit_traced(&fwd.request, fwd.trace.trace_id, fwd.trace.forward_span_id) {
            Ok(pending) => {
                if comp_tx.send((fwd, forward_nanos, pending)).is_err() {
                    return;
                }
            }
            Err(_) => {
                router.upstream_errors.fetch_add(1, Ordering::Relaxed);
                fwd.to
                    .send(fwd.corr, (unavailable("upstream node lost"), None));
            }
        }
    }
}

/// Wait each pending reply (in submission order — upstream completion
/// order is already serialized per correlation id by the client's
/// demux), finish the proxy's own spans, tail-sample the trace, and
/// mail the answer back to the owning connection.
fn completion_loop(rx: &mpsc::Receiver<(Forward, u64, PendingReply)>, router: &Router) {
    while let Ok((fwd, forward_nanos, pending)) = rx.recv() {
        let (reply, node_trace) = match pending.wait_traced() {
            Ok(answer) => answer,
            Err(_) => {
                router.upstream_errors.fetch_add(1, Ordering::Relaxed);
                (unavailable("upstream node lost"), None)
            }
        };
        let end_nanos = router.nanos(Instant::now());
        let t = &fwd.trace;
        let mut spans = Vec::with_capacity(3 + node_trace.as_ref().map_or(0, |n| n.spans.len()));
        // for batch items, one shared batch parent span slots between
        // the caller's span and this item's whole-request span; every
        // sibling emits a copy into its own trace (same span id — the
        // assembler's keep-first dedup collapses them within a trace)
        if let Some(b) = &t.batch {
            spans.push(SpanRecord {
                trace_id: t.trace_id,
                span_id: b.span_id,
                parent_span_id: t.parent_span_id,
                kind: SpanKind::Batch,
                start_nanos: b.start_nanos,
                end_nanos,
                node: router.node,
                attr: b.items,
                request: fwd.corr,
            });
        }
        let item_parent = t.batch.as_ref().map_or(t.parent_span_id, |b| b.span_id);
        spans.push(SpanRecord {
            trace_id: t.trace_id,
            span_id: t.root_span_id,
            parent_span_id: item_parent,
            // when the caller traced, its span is the root and the
            // proxy's whole-request span is one more forward hop
            kind: if t.parent_span_id == 0 {
                SpanKind::Root
            } else {
                SpanKind::Forward
            },
            start_nanos: t.ingress_nanos,
            end_nanos,
            node: router.node,
            attr: 0,
            request: fwd.corr,
        });
        spans.push(SpanRecord {
            trace_id: t.trace_id,
            span_id: t.forward_span_id,
            parent_span_id: t.root_span_id,
            kind: SpanKind::Forward,
            start_nanos: forward_nanos,
            end_nanos,
            node: router.node,
            attr: t.node as u64,
            request: fwd.corr,
        });
        let queue_wait_nanos = node_trace.as_ref().map_or(0, |n| n.queue_wait_nanos);
        if let Some(n) = &node_trace {
            spans.extend(n.spans.iter().copied());
        }
        router.maybe_sample(t, &reply, &spans, end_nanos);
        let trace = fwd.trace.traced_reply.then_some(TracedReply {
            queue_wait_nanos,
            spans,
        });
        fwd.to.send(fwd.corr, (reply, trace));
    }
}
