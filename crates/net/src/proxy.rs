//! The cluster tier: a thin consistent-hash router in front of several
//! [`NetServer`](crate::NetServer) nodes.
//!
//! The proxy speaks the same frozen wire protocol on both sides. Client
//! connections land on its own evented engine (one poller thread, same
//! eviction contract as the server); every `Submit` is routed by
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
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use stackcache_evio::{
    Action, CloseReason, ConnIo, Engine, EngineConfig, EngineStats, Handle, Protocol,
};
use stackcache_obs::{
    node_label, traces_json, JsonObj, PromText, SpanIdGen, SpanKind, SpanRecord, TraceAssembler,
    TraceTree,
};
use stackcache_vm::Rng;

use crate::client::{Client, TracedReply};
use crate::ring::{program_key, HashRing};
use crate::server::{ERR_EXPECTED_HELLO, ERR_UNEXPECTED_FRAME};
use crate::wire::{
    try_decode_frame, Frame, ReplyStatus, WireReply, WireRequest, DEFAULT_MAX_FRAME, FEATURE_TRACE,
    METRICS_FORMAT_PROMETHEUS,
};

/// Router sizing.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address to bind; port 0 picks a free port.
    pub bind: String,
    /// Node addresses to route across (at least one).
    pub nodes: Vec<String>,
    /// Per-client-connection in-flight cap (clamped `Hello` grant).
    pub max_window: u32,
    /// Frame-body cap announced in `HelloOk`.
    pub max_frame: u32,
    /// Pipelining window the proxy requests from each node.
    pub upstream_window: u32,
    /// Virtual nodes per ring member.
    pub vnodes: usize,
    /// Hard cap on simultaneously live client connections.
    pub max_connections: usize,
    /// Client-side engine eviction knobs (see
    /// [`NetConfig`](crate::NetConfig)).
    pub idle_timeout: Option<std::time::Duration>,
    /// Evict a client that stops draining replies for this long.
    pub write_stall_timeout: Option<std::time::Duration>,
    /// Max bytes pulled from one socket per readiness wakeup.
    pub read_budget: usize,
    /// Buffered-reply size that trips an immediate stall eviction.
    pub max_buffered_write: usize,
    /// Feature bits offered to downstream clients in the handshake.
    pub features: u32,
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
        let engine = EngineConfig::default();
        ProxyConfig {
            bind: "127.0.0.1:0".to_string(),
            nodes: Vec::new(),
            max_window: 64,
            max_frame: DEFAULT_MAX_FRAME,
            upstream_window: 64,
            vnodes: 64,
            max_connections: engine.max_connections,
            idle_timeout: engine.idle_timeout,
            write_stall_timeout: engine.write_stall_timeout,
            read_budget: engine.read_budget,
            max_buffered_write: engine.max_buffered_write,
            features: FEATURE_TRACE,
            node: "proxy".to_string(),
            slow_threshold: Duration::from_millis(1),
            sample_ppm: 0,
            trace_store_capacity: 64,
        }
    }
}

/// The router's counters.
#[derive(Debug)]
pub struct ProxyMetrics {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    /// Submissions routed to each node, indexed like `config.nodes`.
    forwarded: Vec<AtomicU64>,
    replies: AtomicU64,
    busy_replies: AtomicU64,
    /// Requests answered `ShutDown` because their node was lost.
    upstream_errors: AtomicU64,
    protocol_errors: AtomicU64,
    pings: AtomicU64,
    traced_submits: AtomicU64,
    trace_fetches: AtomicU64,
    metrics_fetches: AtomicU64,
    sampled_traces: AtomicU64,
    head_sampled: AtomicU64,
    assembly_failures: AtomicU64,
}

impl ProxyMetrics {
    fn new(nodes: usize) -> ProxyMetrics {
        ProxyMetrics {
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            forwarded: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            replies: AtomicU64::new(0),
            busy_replies: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            pings: AtomicU64::new(0),
            traced_submits: AtomicU64::new(0),
            trace_fetches: AtomicU64::new(0),
            metrics_fetches: AtomicU64::new(0),
            sampled_traces: AtomicU64::new(0),
            head_sampled: AtomicU64::new(0),
            assembly_failures: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> ProxySnapshot {
        ProxySnapshot {
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            forwarded: self
                .forwarded
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            replies: self.replies.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            upstream_errors: self.upstream_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            traced_submits: self.traced_submits.load(Ordering::Relaxed),
            trace_fetches: self.trace_fetches.load(Ordering::Relaxed),
            metrics_fetches: self.metrics_fetches.load(Ordering::Relaxed),
            sampled_traces: self.sampled_traces.load(Ordering::Relaxed),
            head_sampled: self.head_sampled.load(Ordering::Relaxed),
            assembly_failures: self.assembly_failures.load(Ordering::Relaxed),
            connections_live: 0,
            over_budget: 0,
            evicted_idle: 0,
            evicted_stall: 0,
        }
    }
}

/// A point-in-time copy of the router's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxySnapshot {
    /// Client connections accepted.
    pub connections_opened: u64,
    /// Client connections torn down.
    pub connections_closed: u64,
    /// Frames received from clients.
    pub frames_in: u64,
    /// Frames sent to clients.
    pub frames_out: u64,
    /// Submissions routed to each node, indexed like the node list.
    pub forwarded: Vec<u64>,
    /// Replies relayed back to clients.
    pub replies: u64,
    /// Submissions refused with `Busy` at the proxy's own window.
    pub busy_replies: u64,
    /// Requests answered `ShutDown` because their node was lost.
    pub upstream_errors: u64,
    /// Client connections ended by a protocol violation.
    pub protocol_errors: u64,
    /// Pings answered locally.
    pub pings: u64,
    /// Submissions that arrived with a caller-supplied trace context.
    pub traced_submits: u64,
    /// `TraceFetch` frames answered.
    pub trace_fetches: u64,
    /// `MetricsFetch` frames answered.
    pub metrics_fetches: u64,
    /// Requests tail-sampled into the slow-trace store.
    pub sampled_traces: u64,
    /// Finished requests head sampling marked at ingress; each is
    /// stored, so this is a subset of `sampled_traces`.
    pub head_sampled: u64,
    /// Sampled traces that failed to assemble into a rooted tree
    /// (orphaned or rootless spans — should stay zero).
    pub assembly_failures: u64,
    /// Currently live client connections (engine gauge, filled at
    /// snapshot time).
    pub connections_live: u64,
    /// Accepts refused because the connection budget was full (engine
    /// counter, filled at snapshot time).
    pub over_budget: u64,
    /// Client connections evicted for idleness (engine counter, filled
    /// at snapshot time).
    pub evicted_idle: u64,
    /// Client connections evicted for a write stall (engine counter,
    /// filled at snapshot time).
    pub evicted_stall: u64,
}

impl ProxySnapshot {
    /// Total submissions routed across all nodes.
    #[must_use]
    pub fn forwarded_total(&self) -> u64 {
        self.forwarded.iter().sum()
    }
}

/// Render `snap` as a Prometheus page fragment; per-node routing counts
/// carry a `node` label.
#[must_use]
pub fn prometheus(snap: &ProxySnapshot) -> String {
    let mut p = PromText::new();
    let counters: [(&str, &str, u64); 18] = [
        (
            "proxy_connections_opened_total",
            "Client connections accepted.",
            snap.connections_opened,
        ),
        (
            "proxy_connections_closed_total",
            "Client connections torn down.",
            snap.connections_closed,
        ),
        (
            "proxy_frames_in_total",
            "Frames received from clients.",
            snap.frames_in,
        ),
        (
            "proxy_frames_out_total",
            "Frames sent to clients.",
            snap.frames_out,
        ),
        (
            "proxy_replies_total",
            "Replies relayed back to clients.",
            snap.replies,
        ),
        (
            "proxy_busy_replies_total",
            "Submissions refused at the proxy window.",
            snap.busy_replies,
        ),
        (
            "proxy_upstream_errors_total",
            "Requests answered ShutDown because their node was lost.",
            snap.upstream_errors,
        ),
        (
            "proxy_protocol_errors_total",
            "Client connections ended by a protocol violation.",
            snap.protocol_errors,
        ),
        ("proxy_pings_total", "Pings answered locally.", snap.pings),
        (
            "proxy_traced_submits_total",
            "Submissions with a caller-supplied trace context.",
            snap.traced_submits,
        ),
        (
            "proxy_trace_fetches_total",
            "TraceFetch frames answered.",
            snap.trace_fetches,
        ),
        (
            "proxy_metrics_fetches_total",
            "MetricsFetch frames answered.",
            snap.metrics_fetches,
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
        (
            "proxy_over_budget_total",
            "Accepts refused because the connection budget was full.",
            snap.over_budget,
        ),
        (
            "proxy_evicted_idle_total",
            "Client connections evicted for idleness.",
            snap.evicted_idle,
        ),
        (
            "proxy_evicted_stall_total",
            "Client connections evicted for a write stall.",
            snap.evicted_stall,
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
    p.help(
        "proxy_connections_live",
        "Currently live client connections.",
    );
    p.typ("proxy_connections_live", "gauge");
    p.sample_u64("proxy_connections_live", &[], snap.connections_live);
    p.finish()
}

/// Render `snap` as a JSON object; `forwarded` is an array indexed like
/// the node list.
#[must_use]
pub fn json(snap: &ProxySnapshot) -> String {
    let forwarded: Vec<String> = snap.forwarded.iter().map(u64::to_string).collect();
    let mut o = JsonObj::new();
    o.field_u64("connections_opened", snap.connections_opened)
        .field_u64("connections_closed", snap.connections_closed)
        .field_u64("frames_in", snap.frames_in)
        .field_u64("frames_out", snap.frames_out)
        .field_raw("forwarded", &stackcache_obs::json_array(&forwarded))
        .field_u64("replies", snap.replies)
        .field_u64("busy_replies", snap.busy_replies)
        .field_u64("upstream_errors", snap.upstream_errors)
        .field_u64("protocol_errors", snap.protocol_errors)
        .field_u64("pings", snap.pings)
        .field_u64("traced_submits", snap.traced_submits)
        .field_u64("trace_fetches", snap.trace_fetches)
        .field_u64("metrics_fetches", snap.metrics_fetches)
        .field_u64("sampled_traces", snap.sampled_traces)
        .field_u64("head_sampled", snap.head_sampled)
        .field_u64("assembly_failures", snap.assembly_failures)
        .field_u64("connections_live", snap.connections_live)
        .field_u64("over_budget", snap.over_budget)
        .field_u64("evicted_idle", snap.evicted_idle)
        .field_u64("evicted_stall", snap.evicted_stall);
    o.finish()
}

/// A submission on its way to a node.
struct Forward {
    conn_id: u64,
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
    /// Answer downstream as `ReplyTraced`.
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

/// What forwarder threads mail back to a client connection.
enum ProxyMsg {
    /// The node's reply (or a synthesized failure), ready to relay,
    /// with the assembled span summary when the caller traced.
    Answer {
        corr: u64,
        reply: WireReply,
        trace: Option<TracedReply>,
    },
}

struct PInner {
    metrics: ProxyMetrics,
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
    stop: AtomicBool,
}

impl PInner {
    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
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
            self.metrics.head_sampled.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.sampled_traces.fetch_add(1, Ordering::Relaxed);
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
                self.metrics
                    .assembly_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Per-client-connection state (same lifecycle as the server's).
struct ProxyConn {
    window: Option<u32>,
    /// Feature bits granted in the handshake (0 on a legacy Hello).
    features: u32,
    inflight: u32,
    goodbye: bool,
    eof: bool,
}

struct ProxyProto {
    inner: Arc<PInner>,
}

impl ProxyProto {
    fn send_frame(&self, io: &mut ConnIo, frame: &Frame) {
        self.inner
            .metrics
            .frames_out
            .fetch_add(1, Ordering::Relaxed);
        io.send(&frame.encode());
    }

    fn proto_error(&self, io: &mut ConnIo, code: u8, message: &str) -> Action {
        self.inner
            .metrics
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        self.send_frame(
            io,
            &Frame::ProtoError {
                corr: 0,
                code,
                message: message.to_string(),
            },
        );
        Action::CloseAfterFlush
    }

    fn reply_status(&self, io: &mut ConnIo, corr: u64, status: ReplyStatus, why: &str) {
        if status == ReplyStatus::Busy {
            self.inner
                .metrics
                .busy_replies
                .fetch_add(1, Ordering::Relaxed);
        }
        self.send_frame(
            io,
            &Frame::Reply {
                corr,
                reply: WireReply::status_only(status, 0, why.to_string()),
            },
        );
    }

    /// Route one admitted submission to its node's submit thread,
    /// stamping its trace context at ingress. `ctx` is the caller's
    /// `(trace id, parent span id)` when it sent `SubmitTraced`; plain
    /// submissions get a fresh proxy-originated trace.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        conn: &mut ProxyConn,
        io: &mut ConnIo,
        conn_id: u64,
        corr: u64,
        request: WireRequest,
        ctx: Option<(u64, u64)>,
        batch: Option<Arc<BatchCtx>>,
    ) {
        let node = self.inner.ring.route(program_key(&request.program));
        let trace = TraceInfo {
            trace_id: ctx.map_or_else(|| self.inner.span_ids.next_id(), |(t, _)| t),
            parent_span_id: ctx.map_or(0, |(_, p)| p),
            root_span_id: self.inner.span_ids.next_id(),
            forward_span_id: self.inner.span_ids.next_id(),
            ingress_nanos: self.inner.nanos(Instant::now()),
            node,
            traced_reply: ctx.is_some(),
            // only proxy-originated traces can be captured here, so
            // caller-traced requests never consume a sampler draw
            head_sampled: ctx.is_none() && self.inner.head_sample(),
            batch,
        };
        conn.inflight += 1;
        self.inner.metrics.forwarded[node].fetch_add(1, Ordering::Relaxed);
        let sent = {
            let forwards = self.inner.forwards.lock().expect("forwards lock");
            forwards.get(node).is_some_and(|tx| {
                tx.send(Forward {
                    conn_id,
                    corr,
                    request,
                    trace,
                })
                .is_ok()
            })
        };
        if !sent {
            // the node's forwarder is gone (shutdown unplugged it)
            conn.inflight -= 1;
            self.inner
                .metrics
                .upstream_errors
                .fetch_add(1, Ordering::Relaxed);
            self.reply_status(io, corr, ReplyStatus::ShutDown, "node unavailable");
        }
    }

    /// Handle one well-formed frame; `Some` ends the connection.
    #[allow(clippy::too_many_lines)]
    fn on_frame(
        &self,
        conn_id: u64,
        conn: &mut ProxyConn,
        io: &mut ConnIo,
        frame: Frame,
    ) -> Option<Action> {
        let Some(granted) = conn.window else {
            match frame {
                Frame::Hello { window: requested } => {
                    let granted = requested.clamp(1, self.inner.config.max_window);
                    conn.window = Some(granted);
                    self.send_frame(
                        io,
                        &Frame::HelloOk {
                            window: granted,
                            max_frame: self.inner.config.max_frame,
                        },
                    );
                    return None;
                }
                Frame::HelloFeatures {
                    window: requested,
                    features,
                } => {
                    let granted = requested.clamp(1, self.inner.config.max_window);
                    conn.window = Some(granted);
                    conn.features = features & self.inner.config.features;
                    self.send_frame(
                        io,
                        &Frame::HelloOkFeatures {
                            window: granted,
                            max_frame: self.inner.config.max_frame,
                            features: conn.features,
                        },
                    );
                    return None;
                }
                _ => {}
            }
            return Some(self.proto_error(
                io,
                ERR_EXPECTED_HELLO,
                "the first frame on a connection must be Hello",
            ));
        };

        match frame {
            Frame::Hello { .. } | Frame::HelloFeatures { .. } => {
                Some(self.proto_error(io, ERR_EXPECTED_HELLO, "duplicate Hello"))
            }
            Frame::Ping { corr } => {
                self.inner.metrics.pings.fetch_add(1, Ordering::Relaxed);
                self.send_frame(io, &Frame::Pong { corr });
                None
            }
            Frame::Goodbye => {
                conn.goodbye = true;
                if conn.inflight == 0 {
                    self.send_frame(io, &Frame::GoodbyeOk);
                    return Some(Action::CloseAfterFlush);
                }
                None
            }
            Frame::Submit { corr, request } => {
                if conn.inflight >= granted {
                    self.reply_status(io, corr, ReplyStatus::Busy, "pipelining window full");
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    self.reply_status(io, corr, ReplyStatus::ShutDown, "router shutting down");
                    return None;
                }
                self.forward(conn, io, conn_id, corr, request, None, None);
                None
            }
            Frame::BadSubmit { corr, error } => {
                self.reply_status(io, corr, ReplyStatus::BadRequest, &error.to_string());
                None
            }
            Frame::BatchSubmit { corr: _, items } => {
                let n = items.len() as u32;
                if conn.inflight.saturating_add(n) > granted {
                    for (item_corr, _) in &items {
                        self.reply_status(
                            io,
                            *item_corr,
                            ReplyStatus::Busy,
                            "pipelining window full",
                        );
                    }
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    for (item_corr, _) in &items {
                        self.reply_status(
                            io,
                            *item_corr,
                            ReplyStatus::ShutDown,
                            "router shutting down",
                        );
                    }
                    return None;
                }
                // unbundled: each item routes to its own node and
                // answers under its own correlation id
                for (item_corr, request) in items {
                    self.forward(conn, io, conn_id, item_corr, request, None, None);
                }
                None
            }
            Frame::SubmitTraced {
                corr,
                trace_id,
                parent_span_id,
                request,
            } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "SubmitTraced on a connection that did not negotiate tracing",
                    ));
                }
                if conn.inflight >= granted {
                    self.reply_status(io, corr, ReplyStatus::Busy, "pipelining window full");
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    self.reply_status(io, corr, ReplyStatus::ShutDown, "router shutting down");
                    return None;
                }
                self.inner
                    .metrics
                    .traced_submits
                    .fetch_add(1, Ordering::Relaxed);
                self.forward(
                    conn,
                    io,
                    conn_id,
                    corr,
                    request,
                    Some((trace_id, parent_span_id)),
                    None,
                );
                None
            }
            Frame::BatchSubmitTraced { corr: _, items } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "BatchSubmitTraced on a connection that did not negotiate tracing",
                    ));
                }
                let n = items.len() as u32;
                if conn.inflight.saturating_add(n) > granted {
                    for (item_corr, _, _, _) in &items {
                        self.reply_status(
                            io,
                            *item_corr,
                            ReplyStatus::Busy,
                            "pipelining window full",
                        );
                    }
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    for (item_corr, _, _, _) in &items {
                        self.reply_status(
                            io,
                            *item_corr,
                            ReplyStatus::ShutDown,
                            "router shutting down",
                        );
                    }
                    return None;
                }
                self.inner
                    .metrics
                    .traced_submits
                    .fetch_add(u64::from(n), Ordering::Relaxed);
                // one batch parent span for the whole frame: every
                // item's forward chain hangs from it, so the trace
                // shows the batch as a unit even though items route
                // (and answer) independently
                let batch = Arc::new(BatchCtx {
                    span_id: self.inner.span_ids.next_id(),
                    start_nanos: self.inner.nanos(Instant::now()),
                    items: u64::from(n),
                });
                for (item_corr, trace_id, parent_span_id, request) in items {
                    self.forward(
                        conn,
                        io,
                        conn_id,
                        item_corr,
                        request,
                        Some((trace_id, parent_span_id)),
                        Some(Arc::clone(&batch)),
                    );
                }
                None
            }
            Frame::TraceFetch { corr } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "TraceFetch on a connection that did not negotiate tracing",
                    ));
                }
                self.inner
                    .metrics
                    .trace_fetches
                    .fetch_add(1, Ordering::Relaxed);
                let mut trees: Vec<TraceTree> = self
                    .inner
                    .store
                    .lock()
                    .expect("trace store lock")
                    .iter()
                    .cloned()
                    .collect();
                // the dump must fit the announced frame cap: shed
                // oldest trees until it does
                let budget = (self.inner.config.max_frame as usize).saturating_sub(64);
                let mut json = traces_json(&trees);
                while json.len() > budget && !trees.is_empty() {
                    let drop = (trees.len() / 2).max(1);
                    trees.drain(..drop);
                    json = traces_json(&trees);
                }
                self.send_frame(io, &Frame::TraceData { corr, json });
                None
            }
            Frame::MetricsFetch { corr, format } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "MetricsFetch on a connection that did not negotiate tracing",
                    ));
                }
                self.inner
                    .metrics
                    .metrics_fetches
                    .fetch_add(1, Ordering::Relaxed);
                let snap = self.inner.metrics.snapshot();
                let text = if format == METRICS_FORMAT_PROMETHEUS {
                    prometheus(&snap)
                } else {
                    json(&snap)
                };
                self.send_frame(io, &Frame::MetricsData { corr, format, text });
                None
            }
            Frame::HelloOk { .. }
            | Frame::HelloOkFeatures { .. }
            | Frame::Pong { .. }
            | Frame::GoodbyeOk
            | Frame::Reply { .. }
            | Frame::ReplyTraced { .. }
            | Frame::TraceData { .. }
            | Frame::MetricsData { .. }
            | Frame::ProtoError { .. } => Some(self.proto_error(
                io,
                ERR_UNEXPECTED_FRAME,
                "frame kind is server-to-client only",
            )),
        }
    }
}

impl Protocol for ProxyProto {
    type Conn = ProxyConn;
    type Msg = ProxyMsg;

    fn on_open(&self, _conn_id: u64, _peer: SocketAddr, _io: &mut ConnIo) -> ProxyConn {
        self.inner
            .metrics
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
        ProxyConn {
            window: None,
            features: 0,
            inflight: 0,
            goodbye: false,
            eof: false,
        }
    }

    fn on_data(&self, conn_id: u64, conn: &mut ProxyConn, io: &mut ConnIo) -> Action {
        loop {
            if conn.goodbye {
                let n = io.rx_bytes().len();
                io.rx_consume(n);
                return Action::Continue;
            }
            match try_decode_frame(io.rx_bytes(), self.inner.config.max_frame) {
                Ok(None) => return Action::Continue,
                Ok(Some((frame, consumed))) => {
                    io.rx_consume(consumed);
                    self.inner.metrics.frames_in.fetch_add(1, Ordering::Relaxed);
                    if let Some(action) = self.on_frame(conn_id, conn, io, frame) {
                        return action;
                    }
                }
                Err(e) => return self.proto_error(io, e.code(), &e.to_string()),
            }
        }
    }

    fn on_eof(&self, _conn_id: u64, conn: &mut ProxyConn, _io: &mut ConnIo) -> Action {
        conn.eof = true;
        if conn.inflight == 0 {
            Action::CloseAfterFlush
        } else {
            Action::Continue
        }
    }

    fn on_msg(
        &self,
        _conn_id: u64,
        conn: &mut ProxyConn,
        io: &mut ConnIo,
        msg: ProxyMsg,
    ) -> Action {
        let ProxyMsg::Answer { corr, reply, trace } = msg;
        conn.inflight = conn.inflight.saturating_sub(1);
        self.inner.metrics.replies.fetch_add(1, Ordering::Relaxed);
        let frame = match trace {
            Some(t) if conn.features & FEATURE_TRACE != 0 => Frame::ReplyTraced {
                corr,
                reply,
                queue_wait_nanos: t.queue_wait_nanos,
                spans: t.spans,
            },
            _ => Frame::Reply { corr, reply },
        };
        self.send_frame(io, &frame);
        if conn.inflight == 0 {
            if conn.goodbye {
                self.send_frame(io, &Frame::GoodbyeOk);
                return Action::CloseAfterFlush;
            }
            if conn.eof {
                return Action::CloseAfterFlush;
            }
        }
        Action::Continue
    }

    fn on_close(&self, _conn_id: u64, _conn: ProxyConn, _reason: CloseReason) {
        self.inner
            .metrics
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A running router: the client-facing engine plus one pipelined
/// upstream connection (and two forwarder threads) per node.
pub struct NetProxy {
    inner: Arc<PInner>,
    addr: SocketAddr,
    engine: Engine<ProxyProto>,
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
    /// Any [`io::Error`] from binding; a node that refuses its
    /// connection or handshake surfaces as [`io::ErrorKind::Other`].
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is empty.
    pub fn start(config: ProxyConfig) -> io::Result<NetProxy> {
        assert!(!config.nodes.is_empty(), "a router needs at least one node");
        let mut clients = Vec::with_capacity(config.nodes.len());
        for node in &config.nodes {
            // negotiate tracing upstream; a legacy node grants nothing
            // and its submissions degrade to plain Submit frames
            let client = Client::connect_traced(node.as_str(), config.upstream_window)
                .map_err(|e| io::Error::other(format!("node {node}: {e}")))?;
            clients.push(Arc::new(client));
        }

        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let ring = HashRing::new(&config.nodes, config.vnodes);
        let engine_config = EngineConfig {
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
            write_stall_timeout: config.write_stall_timeout,
            read_budget: config.read_budget,
            max_buffered_write: config.max_buffered_write,
        };

        let mut forwards = Vec::with_capacity(clients.len());
        let mut submit_rxs = Vec::with_capacity(clients.len());
        for _ in &clients {
            let (tx, rx) = mpsc::channel::<Forward>();
            forwards.push(tx);
            submit_rxs.push(rx);
        }

        let span_ids = SpanIdGen::new(&config.node);
        let node = node_label(&config.node);
        let inner = Arc::new(PInner {
            metrics: ProxyMetrics::new(clients.len()),
            config,
            ring,
            forwards: Mutex::new(forwards),
            span_ids,
            epoch: Instant::now(),
            node,
            store: Mutex::new(VecDeque::new()),
            sampler: Mutex::new(Rng::new(SAMPLER_SEED)),
            stop: AtomicBool::new(false),
        });
        let engine = Engine::start(
            listener,
            ProxyProto {
                inner: Arc::clone(&inner),
            },
            engine_config,
        )?;
        let handle = engine.handle();

        let mut threads = Vec::with_capacity(clients.len() * 2);
        for (node, rx) in submit_rxs.into_iter().enumerate() {
            let client = Arc::clone(&clients[node]);
            let (comp_tx, comp_rx) = mpsc::channel();
            let submit_handle = handle.clone();
            let metrics_inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("netproxy-submit-{node}"))
                    .spawn(move || {
                        submit_loop(&client, &rx, &comp_tx, &submit_handle, &metrics_inner);
                    })
                    .expect("spawn submit thread"),
            );
            let comp_handle = handle.clone();
            let comp_inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("netproxy-complete-{node}"))
                    .spawn(move || {
                        completion_loop(&comp_rx, &comp_handle, &comp_inner);
                    })
                    .expect("spawn completion thread"),
            );
        }

        Ok(NetProxy {
            inner,
            addr,
            engine,
            clients,
            threads,
        })
    }

    /// The bound client-facing address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the router's counters.
    #[must_use]
    pub fn metrics(&self) -> ProxySnapshot {
        let mut snap = self.inner.metrics.snapshot();
        fill_engine_stats(&mut snap, self.engine.stats());
        snap
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
        self.inner
            .store
            .lock()
            .expect("trace store lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The tail-sampled trace trees as JSON — the same dump a
    /// `TraceFetch` frame answers with, unbounded.
    #[must_use]
    pub fn trace_json(&self) -> String {
        traces_json(&self.sampled_traces())
    }

    /// Drain and stop: refuse new submissions, relay every in-flight
    /// reply, then close the engine, the forwarders, and the upstream
    /// connections. Returns the final counters.
    #[must_use]
    pub fn shutdown(mut self) -> ProxySnapshot {
        self.inner.stop.store(true, Ordering::SeqCst);
        // wait (bounded) for the in-flight window to drain: every
        // forwarded submission is answered exactly once
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let snap = self.inner.metrics.snapshot();
            if snap.forwarded_total() <= snap.replies + snap.upstream_errors
                || std::time::Instant::now() >= deadline
            {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        // snapshot after the engine's teardown, so the client
        // connections it force-closes are counted as closed
        let engine_stats = self.engine.shutdown();
        let mut snap = self.inner.metrics.snapshot();
        fill_engine_stats(&mut snap, &engine_stats);
        // disconnect the submit threads (their `recv` unblocks), which
        // drop their completion senders in turn — both forwarder
        // threads per node exit and can be joined
        self.inner.forwards.lock().expect("forwards lock").clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // upstream connections close on drop (EOF after a drained
        // window reads as a clean peer close on the node)
        self.clients.clear();
        snap
    }
}

/// Copy the engine's liveness gauges into a [`ProxySnapshot`].
fn fill_engine_stats(snap: &mut ProxySnapshot, stats: &EngineStats) {
    snap.connections_live = stats.live.load(Ordering::Relaxed);
    snap.over_budget = stats.over_budget.load(Ordering::Relaxed);
    snap.evicted_idle = stats.evicted_idle.load(Ordering::Relaxed);
    snap.evicted_stall = stats.evicted_stall.load(Ordering::Relaxed);
}

impl std::fmt::Debug for NetProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProxy")
            .field("addr", &self.addr)
            .field("nodes", &self.inner.config.nodes)
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
    comp_tx: &mpsc::Sender<(Forward, u64, crate::client::PendingReply)>,
    handle: &Handle<ProxyMsg>,
    inner: &Arc<PInner>,
) {
    while let Ok(fwd) = rx.recv() {
        let forward_nanos = inner.nanos(Instant::now());
        match client.submit_traced(&fwd.request, fwd.trace.trace_id, fwd.trace.forward_span_id) {
            Ok(pending) => {
                if comp_tx.send((fwd, forward_nanos, pending)).is_err() {
                    return;
                }
            }
            Err(_) => {
                inner
                    .metrics
                    .upstream_errors
                    .fetch_add(1, Ordering::Relaxed);
                handle.send(
                    fwd.conn_id,
                    ProxyMsg::Answer {
                        corr: fwd.corr,
                        reply: WireReply::status_only(
                            ReplyStatus::ShutDown,
                            0,
                            "upstream node lost".to_string(),
                        ),
                        trace: None,
                    },
                );
            }
        }
    }
}

/// Wait each pending reply (in submission order — upstream completion
/// order is already serialized per correlation id by the client's
/// demux), finish the proxy's own spans, tail-sample the trace, and
/// mail the answer back to the owning connection.
fn completion_loop(
    rx: &mpsc::Receiver<(Forward, u64, crate::client::PendingReply)>,
    handle: &Handle<ProxyMsg>,
    inner: &Arc<PInner>,
) {
    while let Ok((fwd, forward_nanos, pending)) = rx.recv() {
        let (reply, node_trace) = match pending.wait_traced() {
            Ok(answer) => answer,
            Err(_) => {
                inner
                    .metrics
                    .upstream_errors
                    .fetch_add(1, Ordering::Relaxed);
                (
                    WireReply::status_only(
                        ReplyStatus::ShutDown,
                        0,
                        "upstream node lost".to_string(),
                    ),
                    None,
                )
            }
        };
        let end_nanos = inner.nanos(Instant::now());
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
                node: inner.node,
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
            node: inner.node,
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
            node: inner.node,
            attr: t.node as u64,
            request: fwd.corr,
        });
        let queue_wait_nanos = node_trace.as_ref().map_or(0, |n| n.queue_wait_nanos);
        if let Some(n) = &node_trace {
            spans.extend(n.spans.iter().copied());
        }
        inner.maybe_sample(t, &reply, &spans, end_nanos);
        let trace = fwd.trace.traced_reply.then_some(TracedReply {
            queue_wait_nanos,
            spans,
        });
        handle.send(
            fwd.conn_id,
            ProxyMsg::Answer {
                corr: fwd.corr,
                reply,
                trace,
            },
        );
    }
}
