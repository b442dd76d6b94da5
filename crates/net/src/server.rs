//! The execution-service node: the wire front end in front of a local
//! [`Service`].
//!
//! The protocol itself lives in the front end shared with the router
//! ([`NetProxy`](crate::NetProxy)): each connection opens with a
//! `Hello`/`HelloOk` handshake that grants a pipelining window clamped
//! to [`NetConfig::max_window`]; inside it, submissions flow without
//! waiting and replies come back in *completion* order, matched by the
//! client's correlation ids; a submission past the window earns an
//! immediate `Busy`; protocol violations earn one `ProtoError` and a
//! close, malformed request *bodies* a `BadRequest` reply; `Goodbye`
//! and EOF drain the window before the close. The connection engine
//! ([`stackcache_evio`]) evicts idle peers, peers that stop draining
//! replies, and accepts past the connection budget, surfaced in
//! [`NetSnapshot`]'s gauges.
//!
//! What this module adds is the node's own part:
//!
//! * admission into the service: past the service queue the answer is
//!   an immediate `Busy` ("service queue full"), and a `BatchSubmit`
//!   frame is admitted as one service job — one queue slot, one
//!   proto-machine clone amortized across the batch;
//! * trace re-stamping: a traced reply's worker spans get fresh span
//!   ids and the caller's trace and parent ids at answer time;
//! * the pages: `TraceFetch` answers with the service's span rings,
//!   `MetricsFetch` with the service's metrics followed by the front
//!   end's `net_` counters.
//!
//! Shutdown drains: new submissions are refused with a typed
//! `ShutDown` reply, every in-flight request runs to its reply and is
//! flushed, then the engine and the service close behind it.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use stackcache_obs::{spans_json, FlightDump, FlightRecorder, JsonObj, SpanIdGen};
use stackcache_svc::{MetricsSnapshot, Reply, ReplyRoute, Request, Service, SubmitError};

use crate::client::TracedReply;
use crate::front::{fit_json, Backend, Front, Item, Items, Limits, ReplyTo, TraceCtx};
use crate::metrics::{self, NetSnapshot};
use crate::wire::{WireReply, DEFAULT_MAX_FRAME, METRICS_FORMAT_JSON, METRICS_FORMAT_PROMETHEUS};

/// Front-end sizing.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind; port 0 picks a free port (see
    /// [`NetServer::addr`]).
    pub bind: String,
    /// Per-connection in-flight cap; a `Hello` requesting more (or an
    /// absurd window like `u32::MAX`) is granted this much, never more.
    /// Must be at least 1.
    pub max_window: u32,
    /// Frame-body size cap, announced in `HelloOk` and enforced on
    /// every received frame.
    pub max_frame: u32,
    /// Record connection lifecycle and frame events in a flight
    /// recorder ring ([`NetServer::flight_dump`]).
    pub trace: bool,
    /// Events the trace ring retains.
    pub trace_capacity: usize,
    /// Hard cap on simultaneously live connections; accepts past it
    /// are closed on sight.
    pub max_connections: usize,
    /// Evict a connection with no inbound bytes for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Node label salting the span ids this server re-stamps onto
    /// traced replies (two nodes must use distinct labels so their
    /// span ids never collide inside one assembled trace).
    pub node: String,
}

impl Default for NetConfig {
    fn default() -> Self {
        let engine = stackcache_evio::EngineConfig::default();
        NetConfig {
            bind: "127.0.0.1:0".to_string(),
            max_window: 64,
            max_frame: DEFAULT_MAX_FRAME,
            trace: false,
            trace_capacity: 1024,
            max_connections: engine.max_connections,
            idle_timeout: engine.idle_timeout,
            node: "node".to_string(),
        }
    }
}

/// What a service worker mails back: the service-assigned request id
/// and the reply.
type Answered = (u64, Reply);

/// The fan-in route: every reply of one connection lands in the engine
/// mailbox, tagged with the client's correlation id.
impl ReplyRoute for ReplyTo<Answered> {
    fn deliver(&self, token: u64, request_id: u64, reply: Reply) {
        self.send(token, (request_id, reply));
    }
}

/// The node's backend: the local service.
struct Local {
    service: Service,
    /// Stamps fresh span ids onto traced replies at answer time, so a
    /// coalesced waiter's reply (which clones the leader's spans) never
    /// collides with — or orphans into — another request's trace.
    span_ids: SpanIdGen,
}

fn to_request(item: &Item) -> Request {
    let request = item.request.to_request();
    match item.trace {
        Some((trace_id, parent_span_id)) => request.trace_context(trace_id, parent_span_id),
        None => request,
    }
}

impl Backend for Local {
    type Reply = Answered;
    const STOPPING: &'static str = "service shutting down";

    /// A batch is admitted as one service job: one queue slot, one
    /// proto-machine clone amortized across its items.
    fn submit(&self, to: &Arc<ReplyTo<Answered>>, items: Items) -> Result<(), SubmitError> {
        let route: Arc<dyn ReplyRoute> = Arc::clone(to) as Arc<dyn ReplyRoute>;
        match items {
            Items::One(item) => self
                .service
                .submit_routed(to_request(&item), item.corr, route)
                .map(drop),
            Items::Batch(items) => {
                let batch = items.iter().map(|i| (i.corr, to_request(i))).collect();
                self.service.submit_batch_routed(batch, &route).map(drop)
            }
        }
    }

    fn finish(&self, answer: Answered, ctx: Option<TraceCtx>) -> (WireReply, Option<TracedReply>) {
        let (request_id, reply) = answer;
        let trace = ctx.map(|(trace_id, parent_span_id)| {
            // Re-stamp at the wire: the worker spans keep their node
            // label and timings, but get fresh span ids and the
            // *caller's* trace/parent ids. A coalesced waiter's reply
            // clones the leader's spans — possibly from a different
            // trace — so re-parenting here is what guarantees every
            // traced reply joins its own trace with zero orphans.
            let (queue_wait_nanos, mut spans) = WireReply::traced_parts(&reply);
            for span in &mut spans {
                span.trace_id = trace_id;
                span.parent_span_id = parent_span_id;
                span.span_id = self.span_ids.next_id();
            }
            TracedReply {
                queue_wait_nanos,
                spans,
            }
        });
        (WireReply::from_reply(request_id, &reply), trace)
    }

    fn trace_json(&self, budget: usize) -> String {
        fit_json(self.service.span_dump(), budget, spans_json)
    }

    /// The service's metrics followed by the front end's counters.
    fn metrics_page(&self, format: u8, front: &NetSnapshot) -> String {
        if format == METRICS_FORMAT_PROMETHEUS {
            let mut page = self.service.prometheus();
            page.push_str(&metrics::prometheus(front));
            page
        } else {
            let mut o = JsonObj::new();
            o.field_raw("svc", &self.service.json())
                .field_raw("net", &metrics::json(front));
            o.finish()
        }
    }
}

/// The network front end: owns the [`Service`] and the connection
/// engine. See the module docs for the connection lifecycle.
pub struct NetServer {
    front: Front<Local>,
}

impl NetServer {
    /// Bind `config.bind` and start accepting connections on behalf of
    /// `service`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `config.max_window` is 0;
    /// otherwise any [`io::Error`] from binding the listener or starting
    /// the engine.
    pub fn start(service: Service, config: NetConfig) -> io::Result<NetServer> {
        let recorder = config
            .trace
            .then(|| Arc::new(FlightRecorder::new(1, config.trace_capacity)));
        let limits = Limits {
            max_window: config.max_window,
            max_frame: config.max_frame,
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
        };
        let local = Local {
            service,
            span_ids: SpanIdGen::new(&format!("{}/net", config.node)),
        };
        Ok(NetServer {
            front: Front::start(&config.bind, &limits, recorder, local)?,
        })
    }

    /// The bound address (with the real port when `bind` asked for 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// A point-in-time copy of the front end's counters, including the
    /// engine's liveness gauges (live connections, evictions, budget
    /// refusals).
    #[must_use]
    pub fn metrics(&self) -> NetSnapshot {
        self.front.metrics()
    }

    /// The underlying service's metrics snapshot.
    #[must_use]
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.service().metrics()
    }

    /// The combined Prometheus page: the service's metrics followed by
    /// the front end's.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let page = self.front.backend();
        page.metrics_page(METRICS_FORMAT_PROMETHEUS, &self.metrics())
    }

    /// The combined JSON document: `{"svc": …, "net": …}`.
    #[must_use]
    pub fn json(&self) -> String {
        let page = self.front.backend();
        page.metrics_page(METRICS_FORMAT_JSON, &self.metrics())
    }

    /// The service's span rings as JSON — the same dump a `TraceFetch`
    /// frame answers with, unbounded.
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.front.backend().trace_json(usize::MAX)
    }

    /// The front end's flight-recorder dump (connection lifecycle and
    /// frame events), or `None` when untraced.
    #[must_use]
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.front.flight_dump()
    }

    /// The service's flight-recorder dump, or `None` when the service
    /// runs untraced.
    #[must_use]
    pub fn service_flight_dump(&self) -> Option<FlightDump> {
        self.service().flight_dump()
    }

    /// The service's retained incident reports.
    #[must_use]
    pub fn incident_reports(&self) -> Vec<String> {
        self.service().incident_reports()
    }

    fn service(&self) -> &Service {
        &self.front.backend().service
    }

    /// Graceful drain: refuse new submissions with `ShutDown` replies,
    /// run every in-flight request to its reply and flush it, then shut
    /// the engine and the service down. Returns both final snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the engine's poller thread panicked or an inner handle
    /// leaked.
    #[must_use]
    pub fn shutdown(self) -> (MetricsSnapshot, NetSnapshot) {
        let (local, net_snap) = self.front.shutdown();
        (local.service.shutdown(), net_snap)
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr())
            .finish()
    }
}
