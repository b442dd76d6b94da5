//! The TCP front end: a readiness-driven connection engine
//! ([`stackcache_evio`]) multiplexing every connection on one poller
//! thread, and the translation between wire frames and service
//! requests.
//!
//! Each connection opens with a `Hello`/`HelloOk` handshake that grants
//! a pipelining window — the number of requests the client may have in
//! flight at once, clamped to the server's configured
//! [`NetConfig::max_window`]. Inside the window, submissions flow
//! without waiting for replies; replies come back in *completion*
//! order, matched by the client's correlation ids. A submission past
//! the window (or past the service queue) earns an immediate `Busy`
//! reply: backpressure is a typed answer, never a stall.
//!
//! Protocol violations (bad magic, unknown kinds, truncated or
//! oversized frames) are answered with one `ProtoError` frame and a
//! close; malformed request *bodies* (bad opcode, bad regime, invalid
//! branch target) earn a `BadRequest` reply and the connection lives on.
//!
//! The engine owns liveness: idle connections, peers that stop
//! draining replies, and accepts past the connection budget are
//! evicted on the engine's deadline wheel (see the [`stackcache_evio`]
//! eviction contract), surfaced in [`NetSnapshot`]'s gauges.
//!
//! Shutdown drains: new submissions are refused with a typed
//! `ShutDown` reply, every in-flight request runs to its reply and is
//! flushed, then the engine and the service close behind it.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use std::collections::HashMap;

use stackcache_evio::{
    Action, CloseReason, ConnIo, Engine, EngineConfig, EngineStats, Handle, Protocol,
};
use stackcache_obs::{spans_json, EventKind, FlightDump, FlightRecorder, SpanIdGen};
use stackcache_svc::{MetricsSnapshot, Reply, ReplyRoute, Service, SubmitError};

use crate::metrics::{self, NetMetrics, NetSnapshot};
use crate::wire::{
    try_decode_frame, Frame, ReplyStatus, WireReply, DEFAULT_MAX_FRAME, FEATURE_TRACE,
    METRICS_FORMAT_PROMETHEUS,
};

/// `ProtoError` code: the first frame on a connection was not `Hello`
/// (or a second `Hello` arrived). Codes below 100 belong to
/// [`WireError::code`](crate::wire::WireError::code).
pub const ERR_EXPECTED_HELLO: u8 = 100;
/// `ProtoError` code: a frame kind only the server may send arrived
/// from a client.
pub const ERR_UNEXPECTED_FRAME: u8 = 101;

/// Front-end sizing.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind; port 0 picks a free port (see
    /// [`NetServer::addr`]).
    pub bind: String,
    /// Per-connection in-flight cap; a `Hello` requesting more (or an
    /// absurd window like `u32::MAX`) is granted this much, never more.
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
    /// Evict a connection whose replies it has not drained for this
    /// long (`None` = never).
    pub write_stall_timeout: Option<Duration>,
    /// Max bytes pulled from one socket per readiness wakeup.
    pub read_budget: usize,
    /// Buffered-reply size that trips an immediate stall eviction.
    pub max_buffered_write: usize,
    /// Optional-feature bits this server offers in the handshake. A
    /// client's extended Hello is granted the intersection; a legacy
    /// Hello negotiates nothing and sees pure-v1 behaviour.
    pub features: u32,
    /// Node label salting the span ids this server re-stamps onto
    /// traced replies (two nodes must use distinct labels so their
    /// span ids never collide inside one assembled trace).
    pub node: String,
}

impl Default for NetConfig {
    fn default() -> Self {
        let engine = EngineConfig::default();
        NetConfig {
            bind: "127.0.0.1:0".to_string(),
            max_window: 64,
            max_frame: DEFAULT_MAX_FRAME,
            trace: false,
            trace_capacity: 1024,
            max_connections: engine.max_connections,
            idle_timeout: engine.idle_timeout,
            write_stall_timeout: engine.write_stall_timeout,
            read_budget: engine.read_budget,
            max_buffered_write: engine.max_buffered_write,
            features: FEATURE_TRACE,
            node: "node".to_string(),
        }
    }
}

impl NetConfig {
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
            write_stall_timeout: self.write_stall_timeout,
            read_budget: self.read_budget,
            max_buffered_write: self.max_buffered_write,
        }
    }
}

/// What service workers deliver to a connection through the engine
/// mailbox.
enum ConnMsg {
    /// The reply for an in-flight request; frees a window slot.
    Answer {
        corr: u64,
        request_id: u64,
        reply: Reply,
    },
}

/// The fan-in route: every reply of one connection lands in the engine
/// mailbox, tagged with the client's correlation id. If the connection
/// is gone by delivery time the engine drops (and counts) the message.
struct ConnRoute {
    handle: Handle<ConnMsg>,
    conn_id: u64,
}

impl ReplyRoute for ConnRoute {
    fn deliver(&self, token: u64, request_id: u64, reply: Reply) {
        self.handle.send(
            self.conn_id,
            ConnMsg::Answer {
                corr: token,
                request_id,
                reply,
            },
        );
    }
}

struct Inner {
    service: Service,
    metrics: NetMetrics,
    config: NetConfig,
    recorder: Option<Arc<FlightRecorder>>,
    /// Stamps fresh span ids onto traced replies at answer time, so a
    /// coalesced waiter's reply (which clones the leader's spans) never
    /// collides with — or orphans into — another request's trace.
    span_ids: SpanIdGen,
    /// Set once shutdown begins: new submissions get `ShutDown` replies
    /// while in-flight ones drain.
    stop: AtomicBool,
    /// The engine mailbox handle, set right after the engine starts.
    handle: OnceLock<Handle<ConnMsg>>,
}

impl Inner {
    fn trace(&self, conn: u64, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record(0, conn, kind);
        }
    }

    /// The mailbox handle. `start` sets it immediately after
    /// `Engine::start` returns; a connection racing that window spins
    /// for the few nanoseconds it takes.
    fn handle(&self) -> &Handle<ConnMsg> {
        loop {
            if let Some(h) = self.handle.get() {
                return h;
            }
            std::thread::yield_now();
        }
    }

    /// The page a `MetricsFetch` frame scrapes: the service's metrics
    /// followed by the front end's counters (the engine's liveness
    /// gauges ride the HTTP-side [`NetServer::metrics`] path only).
    fn scrape_page(&self, format: u8) -> String {
        if format == METRICS_FORMAT_PROMETHEUS {
            let mut page = self.service.prometheus();
            page.push_str(&metrics::prometheus(&self.metrics.snapshot()));
            page
        } else {
            let mut o = stackcache_obs::JsonObj::new();
            o.field_raw("svc", &self.service.json())
                .field_raw("net", &metrics::json(&self.metrics.snapshot()));
            o.finish()
        }
    }
}

/// Per-connection protocol state.
struct NetConn {
    /// `Some(granted)` once the `Hello` handshake is done.
    window: Option<u32>,
    /// Feature bits granted in the handshake (0 on a legacy Hello).
    features: u32,
    /// Trace context per in-flight traced corr: the reply for that
    /// corr goes out as `ReplyTraced` with its spans re-parented here.
    traced: HashMap<u64, (u64, u64)>,
    /// Requests submitted but not yet answered on the wire.
    inflight: u32,
    frames_seen: u32,
    /// A `Goodbye` arrived: acknowledge with `GoodbyeOk` once the
    /// window drains, then close. Inbound bytes are discarded.
    goodbye: bool,
    /// The peer closed its write half; close (without `GoodbyeOk`)
    /// once the window drains.
    eof: bool,
    /// The reply route for this connection, built at first use.
    route: Option<Arc<dyn ReplyRoute>>,
}

/// The wire protocol plugged into the connection engine. All methods
/// run on the poller thread.
struct NetProto {
    inner: Arc<Inner>,
}

impl NetProto {
    fn send_frame(&self, conn_id: u64, io: &mut ConnIo, frame: &Frame) {
        let bytes = frame.encode();
        self.inner.metrics.on_frame_out(bytes.len() as u64);
        self.inner.trace(
            conn_id,
            EventKind::FrameOut {
                frame: frame.kind() as u8,
                bytes: bytes.len().min(u32::MAX as usize) as u32,
            },
        );
        io.send(&bytes);
    }

    fn proto_error(&self, conn_id: u64, io: &mut ConnIo, code: u8, message: &str) -> Action {
        self.inner.metrics.on_protocol_error();
        self.inner.trace(conn_id, EventKind::ProtocolError { code });
        self.send_frame(
            conn_id,
            io,
            &Frame::ProtoError {
                corr: 0,
                code,
                message: message.to_string(),
            },
        );
        Action::CloseAfterFlush
    }

    fn busy(&self, conn_id: u64, io: &mut ConnIo, corr: u64, why: &str) {
        self.inner.metrics.on_busy();
        self.send_frame(
            conn_id,
            io,
            &Frame::Reply {
                corr,
                reply: WireReply::status_only(ReplyStatus::Busy, 0, why.to_string()),
            },
        );
    }

    /// Refuse one submission with the status its [`SubmitError`] maps to.
    fn refuse_submit(&self, conn_id: u64, io: &mut ConnIo, corr: u64, e: SubmitError) {
        match e {
            SubmitError::QueueFull => self.busy(conn_id, io, corr, "service queue full"),
            SubmitError::ShuttingDown => {
                self.send_frame(
                    conn_id,
                    io,
                    &Frame::Reply {
                        corr,
                        reply: WireReply::status_only(
                            ReplyStatus::ShutDown,
                            0,
                            "service shutting down".to_string(),
                        ),
                    },
                );
            }
        }
    }

    /// The connection's reply route, building it on first use.
    fn route(&self, conn_id: u64, conn: &mut NetConn) -> Arc<dyn ReplyRoute> {
        Arc::clone(conn.route.get_or_insert_with(|| {
            Arc::new(ConnRoute {
                handle: self.inner.handle().clone(),
                conn_id,
            })
        }))
    }

    /// Handle one well-formed frame; `Some` ends the connection.
    #[allow(clippy::too_many_lines)]
    fn on_frame(
        &self,
        conn_id: u64,
        conn: &mut NetConn,
        io: &mut ConnIo,
        frame: Frame,
    ) -> Option<Action> {
        let Some(granted) = conn.window else {
            // the handshake: the first frame must be Hello. A legacy
            // Hello gets the legacy HelloOk byte-for-byte; an extended
            // Hello gets the feature intersection echoed back.
            match frame {
                Frame::Hello { window: requested } => {
                    let granted = requested.clamp(1, self.inner.config.max_window);
                    conn.window = Some(granted);
                    self.send_frame(
                        conn_id,
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
                        conn_id,
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
                conn_id,
                io,
                ERR_EXPECTED_HELLO,
                "the first frame on a connection must be Hello",
            ));
        };

        match frame {
            Frame::Hello { .. } | Frame::HelloFeatures { .. } => {
                Some(self.proto_error(conn_id, io, ERR_EXPECTED_HELLO, "duplicate Hello"))
            }
            Frame::Ping { corr } => {
                self.inner.metrics.on_ping();
                self.send_frame(conn_id, io, &Frame::Pong { corr });
                None
            }
            Frame::Goodbye => {
                conn.goodbye = true;
                if conn.inflight == 0 {
                    self.send_frame(conn_id, io, &Frame::GoodbyeOk);
                    return Some(Action::CloseAfterFlush);
                }
                // keep serving replies; on_msg acknowledges when the
                // window drains
                None
            }
            Frame::Submit { corr, request } => {
                if conn.inflight >= granted {
                    self.busy(conn_id, io, corr, "pipelining window full");
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    self.refuse_submit(conn_id, io, corr, SubmitError::ShuttingDown);
                    return None;
                }
                let route = self.route(conn_id, conn);
                conn.inflight += 1;
                match self
                    .inner
                    .service
                    .submit_routed(request.to_request(), corr, route)
                {
                    Ok(_id) => self.inner.metrics.on_submit(),
                    Err(e) => {
                        conn.inflight -= 1;
                        self.refuse_submit(conn_id, io, corr, e);
                    }
                }
                None
            }
            Frame::BadSubmit { corr, error } => {
                // sound framing, invalid request content: a typed
                // BadRequest reply, and the connection lives on
                self.inner.metrics.on_bad_request();
                self.send_frame(
                    conn_id,
                    io,
                    &Frame::Reply {
                        corr,
                        reply: WireReply::status_only(
                            ReplyStatus::BadRequest,
                            0,
                            error.to_string(),
                        ),
                    },
                );
                None
            }
            Frame::BatchSubmit { corr: _, items } => {
                let n = items.len() as u32;
                if conn.inflight.saturating_add(n) > granted {
                    for (item_corr, _) in &items {
                        self.busy(conn_id, io, *item_corr, "pipelining window full");
                    }
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    for (item_corr, _) in &items {
                        self.refuse_submit(conn_id, io, *item_corr, SubmitError::ShuttingDown);
                    }
                    return None;
                }
                let route = self.route(conn_id, conn);
                conn.inflight += n;
                let batch: Vec<_> = items
                    .iter()
                    .map(|(item_corr, request)| (*item_corr, request.to_request()))
                    .collect();
                match self.inner.service.submit_batch_routed(batch, &route) {
                    Ok(_ids) => self.inner.metrics.on_batch_submit(u64::from(n)),
                    Err(e) => {
                        conn.inflight -= n;
                        for (item_corr, _) in &items {
                            self.refuse_submit(conn_id, io, *item_corr, e);
                        }
                    }
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
                        conn_id,
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "SubmitTraced on a connection that did not negotiate tracing",
                    ));
                }
                if conn.inflight >= granted {
                    self.busy(conn_id, io, corr, "pipelining window full");
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    self.refuse_submit(conn_id, io, corr, SubmitError::ShuttingDown);
                    return None;
                }
                let route = self.route(conn_id, conn);
                conn.inflight += 1;
                let request = request.to_request().trace_context(trace_id, parent_span_id);
                match self.inner.service.submit_routed(request, corr, route) {
                    Ok(_id) => {
                        self.inner.metrics.on_submit();
                        self.inner.metrics.on_traced_submit(1);
                        conn.traced.insert(corr, (trace_id, parent_span_id));
                    }
                    Err(e) => {
                        conn.inflight -= 1;
                        self.refuse_submit(conn_id, io, corr, e);
                    }
                }
                None
            }
            Frame::BatchSubmitTraced { corr: _, items } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        conn_id,
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "BatchSubmitTraced on a connection that did not negotiate tracing",
                    ));
                }
                let n = items.len() as u32;
                if conn.inflight.saturating_add(n) > granted {
                    for (item_corr, _, _, _) in &items {
                        self.busy(conn_id, io, *item_corr, "pipelining window full");
                    }
                    return None;
                }
                if self.inner.stop.load(Ordering::Relaxed) {
                    for (item_corr, _, _, _) in &items {
                        self.refuse_submit(conn_id, io, *item_corr, SubmitError::ShuttingDown);
                    }
                    return None;
                }
                let route = self.route(conn_id, conn);
                conn.inflight += n;
                let batch: Vec<_> = items
                    .iter()
                    .map(|(item_corr, trace_id, parent_span_id, request)| {
                        (
                            *item_corr,
                            request
                                .to_request()
                                .trace_context(*trace_id, *parent_span_id),
                        )
                    })
                    .collect();
                match self.inner.service.submit_batch_routed(batch, &route) {
                    Ok(_ids) => {
                        self.inner.metrics.on_batch_submit(u64::from(n));
                        self.inner.metrics.on_traced_submit(u64::from(n));
                        for (item_corr, trace_id, parent_span_id, _) in &items {
                            conn.traced.insert(*item_corr, (*trace_id, *parent_span_id));
                        }
                    }
                    Err(e) => {
                        conn.inflight -= n;
                        for (item_corr, _, _, _) in &items {
                            self.refuse_submit(conn_id, io, *item_corr, e);
                        }
                    }
                }
                None
            }
            Frame::TraceFetch { corr } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        conn_id,
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "TraceFetch on a connection that did not negotiate tracing",
                    ));
                }
                self.inner.metrics.on_trace_fetch();
                let mut spans = self.inner.service.span_dump();
                // the dump must fit the announced frame cap: shed
                // oldest spans until it does
                let budget = (self.inner.config.max_frame as usize).saturating_sub(64);
                let mut json = spans_json(&spans);
                while json.len() > budget && !spans.is_empty() {
                    let drop = (spans.len() / 2).max(1);
                    spans.drain(..drop);
                    json = spans_json(&spans);
                }
                self.send_frame(conn_id, io, &Frame::TraceData { corr, json });
                None
            }
            Frame::MetricsFetch { corr, format } => {
                if conn.features & FEATURE_TRACE == 0 {
                    return Some(self.proto_error(
                        conn_id,
                        io,
                        ERR_UNEXPECTED_FRAME,
                        "MetricsFetch on a connection that did not negotiate tracing",
                    ));
                }
                self.inner.metrics.on_metrics_fetch();
                let text = self.inner.scrape_page(format);
                self.send_frame(conn_id, io, &Frame::MetricsData { corr, format, text });
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
                conn_id,
                io,
                ERR_UNEXPECTED_FRAME,
                "frame kind is server-to-client only",
            )),
        }
    }
}

impl Protocol for NetProto {
    type Conn = NetConn;
    type Msg = ConnMsg;

    fn on_open(&self, conn_id: u64, peer: SocketAddr, _io: &mut ConnIo) -> NetConn {
        self.inner.metrics.on_conn_opened();
        self.inner.trace(
            conn_id,
            EventKind::ConnOpened {
                peer_port: peer.port(),
            },
        );
        NetConn {
            window: None,
            features: 0,
            traced: HashMap::new(),
            inflight: 0,
            frames_seen: 0,
            goodbye: false,
            eof: false,
            route: None,
        }
    }

    fn on_data(&self, conn_id: u64, conn: &mut NetConn, io: &mut ConnIo) -> Action {
        loop {
            if conn.goodbye {
                // after Goodbye the client owes us nothing; discard
                let n = io.rx_bytes().len();
                io.rx_consume(n);
                return Action::Continue;
            }
            match try_decode_frame(io.rx_bytes(), self.inner.config.max_frame) {
                Ok(None) => return Action::Continue,
                Ok(Some((frame, consumed))) => {
                    io.rx_consume(consumed);
                    conn.frames_seen = conn.frames_seen.saturating_add(1);
                    self.inner.metrics.on_frame_in(consumed as u64);
                    self.inner.trace(
                        conn_id,
                        EventKind::FrameIn {
                            frame: frame.kind() as u8,
                            bytes: consumed.min(u32::MAX as usize) as u32,
                        },
                    );
                    if let Some(action) = self.on_frame(conn_id, conn, io, frame) {
                        return action;
                    }
                }
                Err(e) => {
                    return self.proto_error(conn_id, io, e.code(), &e.to_string());
                }
            }
        }
    }

    fn on_eof(&self, _conn_id: u64, conn: &mut NetConn, _io: &mut ConnIo) -> Action {
        conn.eof = true;
        if conn.inflight == 0 {
            // clean close: nothing owed, no GoodbyeOk
            Action::CloseAfterFlush
        } else {
            // drain: serve the in-flight replies half-open first
            Action::Continue
        }
    }

    fn on_msg(&self, conn_id: u64, conn: &mut NetConn, io: &mut ConnIo, msg: ConnMsg) -> Action {
        let ConnMsg::Answer {
            corr,
            request_id,
            reply,
        } = msg;
        conn.inflight = conn.inflight.saturating_sub(1);
        self.inner.metrics.on_reply();
        let frame = if let Some((trace_id, parent_span_id)) = conn.traced.remove(&corr) {
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
                span.span_id = self.inner.span_ids.next_id();
            }
            Frame::ReplyTraced {
                corr,
                reply: WireReply::from_reply(request_id, &reply),
                queue_wait_nanos,
                spans,
            }
        } else {
            Frame::Reply {
                corr,
                reply: WireReply::from_reply(request_id, &reply),
            }
        };
        self.send_frame(conn_id, io, &frame);
        if conn.inflight == 0 {
            if conn.goodbye {
                self.send_frame(conn_id, io, &Frame::GoodbyeOk);
                return Action::CloseAfterFlush;
            }
            if conn.eof {
                return Action::CloseAfterFlush;
            }
        }
        Action::Continue
    }

    fn on_close(&self, conn_id: u64, conn: NetConn, _reason: CloseReason) {
        self.inner.metrics.on_conn_closed();
        self.inner.trace(
            conn_id,
            EventKind::ConnClosed {
                frames: conn.frames_seen,
            },
        );
    }
}

/// The network front end: owns the [`Service`] and the connection
/// engine. See the module docs for the connection lifecycle.
pub struct NetServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    engine: Engine<NetProto>,
}

impl NetServer {
    /// Bind `config.bind` and start accepting connections on behalf of
    /// `service`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener or starting the
    /// engine.
    pub fn start(service: Service, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let recorder = config
            .trace
            .then(|| Arc::new(FlightRecorder::new(1, config.trace_capacity)));
        let engine_config = config.engine_config();
        let span_ids = SpanIdGen::new(&format!("{}/net", config.node));
        let inner = Arc::new(Inner {
            service,
            metrics: NetMetrics::new(),
            config,
            recorder,
            span_ids,
            stop: AtomicBool::new(false),
            handle: OnceLock::new(),
        });
        let engine = Engine::start(
            listener,
            NetProto {
                inner: Arc::clone(&inner),
            },
            engine_config,
        )?;
        let _ = inner.handle.set(engine.handle());
        Ok(NetServer {
            inner,
            addr,
            engine,
        })
    }

    /// The bound address (with the real port when `bind` asked for 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the front end's counters, including the
    /// engine's liveness gauges (live connections, evictions, budget
    /// refusals).
    #[must_use]
    pub fn metrics(&self) -> NetSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        fill_engine_stats(&mut snap, self.engine.stats());
        snap
    }

    /// The underlying service's metrics snapshot.
    #[must_use]
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.inner.service.metrics()
    }

    /// The combined Prometheus page: the service's metrics followed by
    /// the front end's.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut page = self.inner.service.prometheus();
        page.push_str(&metrics::prometheus(&self.metrics()));
        page
    }

    /// The combined JSON document: `{"svc": …, "net": …}`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut o = stackcache_obs::JsonObj::new();
        o.field_raw("svc", &self.inner.service.json())
            .field_raw("net", &metrics::json(&self.metrics()));
        o.finish()
    }

    /// The service's span rings as JSON — the same dump a `TraceFetch`
    /// frame answers with, unbounded.
    #[must_use]
    pub fn trace_json(&self) -> String {
        spans_json(&self.inner.service.span_dump())
    }

    /// The front end's flight-recorder dump (connection lifecycle and
    /// frame events), or `None` when untraced.
    #[must_use]
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.inner.recorder.as_ref().map(|r| r.dump())
    }

    /// The service's flight-recorder dump, or `None` when the service
    /// runs untraced.
    #[must_use]
    pub fn service_flight_dump(&self) -> Option<FlightDump> {
        self.inner.service.flight_dump()
    }

    /// The service's retained incident reports.
    #[must_use]
    pub fn incident_reports(&self) -> Vec<String> {
        self.inner.service.incident_reports()
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
        self.inner.stop.store(true, Ordering::SeqCst);
        // every admitted submission produces exactly one reply; wait
        // (bounded) for the counters to meet, so in-flight work drains
        // before the engine force-closes the connections
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = self.inner.metrics.snapshot();
            if snap.submits + snap.batch_items <= snap.replies || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // the engine's teardown delivers straggler mailbox replies and
        // flushes each connection before closing it; snapshot only after
        // it, so the connections it force-closes are counted as closed
        let engine_stats = self.engine.shutdown();
        let mut net_snap = self.inner.metrics.snapshot();
        fill_engine_stats(&mut net_snap, &engine_stats);
        let inner = Arc::into_inner(self.inner).expect("engine released its handle");
        let svc_snap = inner.service.shutdown();
        (svc_snap, net_snap)
    }
}

/// Copy the engine's liveness gauges into a [`NetSnapshot`].
fn fill_engine_stats(snap: &mut NetSnapshot, stats: &EngineStats) {
    snap.connections_live = stats.live.load(Ordering::Relaxed);
    snap.evicted_idle = stats.evicted_idle.load(Ordering::Relaxed);
    snap.evicted_stall = stats.evicted_stall.load(Ordering::Relaxed);
    snap.over_budget = stats.over_budget.load(Ordering::Relaxed);
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish()
    }
}
