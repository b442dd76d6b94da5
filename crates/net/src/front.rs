//! The wire protocol's one front end, shared by [`NetServer`] and
//! [`NetProxy`].
//!
//! Everything the protocol defines lives here: the `Hello`/`HelloOk`
//! handshake and feature negotiation, the duplicate-Hello and
//! wrong-direction `ProtoError`s, the pipelining window, refusal during
//! shutdown, `Ping`, the `Goodbye` and EOF drains, the counter registry
//! and the bounded shutdown drain. What a connection may send when, and
//! what it gets back, is decided in this module only.
//!
//! A [`Backend`] supplies what differs: where admitted requests go (the
//! node's local service, or the router's ring forwarders) and what the
//! in-protocol `TraceFetch`/`MetricsFetch` frames answer with.
//!
//! All four submit frame kinds become one list of [`Item`]s and take one
//! admission path: feature gate, window check, stop refusal, then the
//! backend. Every admitted item is answered exactly once, through its
//! connection's [`ReplyTo`] mailbox; the answer goes out as
//! `ReplyTraced` if and only if its request arrived traced.
//!
//! [`NetServer`]: crate::NetServer
//! [`NetProxy`]: crate::NetProxy

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use stackcache_evio::{
    Action, CloseReason, ConnIo, Engine, EngineConfig, EngineStats, Handle, Protocol,
};
use stackcache_obs::{EventKind, FlightDump, FlightRecorder};
use stackcache_svc::SubmitError;

use crate::client::TracedReply;
use crate::metrics::{NetMetrics, NetSnapshot};
use crate::wire::{try_decode_frame, Frame, ReplyStatus, WireReply, WireRequest, FEATURE_TRACE};

/// `ProtoError` code: the first frame on a connection was not `Hello`
/// (or a second `Hello` arrived). Codes below 100 belong to
/// [`WireError::code`](crate::wire::WireError::code).
pub const ERR_EXPECTED_HELLO: u8 = 100;
/// `ProtoError` code: a frame kind only the server may send arrived
/// from a client, or a trace frame on a connection that did not
/// negotiate tracing.
pub const ERR_UNEXPECTED_FRAME: u8 = 101;

/// A caller's `(trace id, parent span id)`.
pub(crate) type TraceCtx = (u64, u64);

/// One admitted request.
pub(crate) struct Item {
    /// The client's correlation id; the answer goes back under it.
    pub corr: u64,
    pub request: WireRequest,
    /// The caller's trace context when the request arrived traced.
    pub trace: Option<TraceCtx>,
}

/// One submit frame's requests: a `Submit`/`SubmitTraced` carries one,
/// a `BatchSubmit`/`BatchSubmitTraced` several (never zero: the decoder
/// refuses empty batches).
pub(crate) enum Items {
    One(Item),
    Batch(Vec<Item>),
}

impl Items {
    fn as_slice(&self) -> &[Item] {
        match self {
            Items::One(item) => std::slice::from_ref(item),
            Items::Batch(items) => items,
        }
    }
}

/// What a backend's workers mail to a connection: the answer for `corr`.
pub(crate) struct Answer<R> {
    corr: u64,
    reply: R,
}

/// One connection's reply address: a backend answers every item it
/// admitted by sending through this exactly once. If the connection is
/// gone by delivery time the engine drops (and counts) the answer.
pub(crate) struct ReplyTo<R> {
    handle: Handle<Answer<R>>,
    conn_id: u64,
}

impl<R: Send> ReplyTo<R> {
    pub(crate) fn send(&self, corr: u64, reply: R) {
        self.handle.send(self.conn_id, Answer { corr, reply });
    }
}

/// What the front end needs from whatever serves the requests.
pub(crate) trait Backend: Send + Sync + 'static {
    /// What the backend mails back per answered item.
    type Reply: Send + 'static;
    /// The `ShutDown` reply text for submissions refused once the front
    /// end stops admitting.
    const STOPPING: &'static str;

    /// Take the admitted `items` and answer each through `to`. An error
    /// refuses them all, and none may be answered.
    fn submit(&self, to: &Arc<ReplyTo<Self::Reply>>, items: Items) -> Result<(), SubmitError>;

    /// The wire form of one answer, and its trace when `ctx` is `Some`
    /// (the request arrived traced with that context).
    fn finish(&self, reply: Self::Reply, ctx: Option<TraceCtx>)
        -> (WireReply, Option<TracedReply>);

    /// The `TraceFetch` answer, at most `budget` bytes.
    fn trace_json(&self, budget: usize) -> String;

    /// The `MetricsFetch` answer in `format`, given the front end's
    /// counters.
    fn metrics_page(&self, format: u8, front: &NetSnapshot) -> String;
}

/// Render `items` with `render`, shedding the oldest half until the
/// text fits `budget` bytes (the dump must fit the announced frame cap).
pub(crate) fn fit_json<T>(mut items: Vec<T>, budget: usize, render: fn(&[T]) -> String) -> String {
    let mut json = render(&items);
    while json.len() > budget && !items.is_empty() {
        let drop = (items.len() / 2).max(1);
        items.drain(..drop);
        json = render(&items);
    }
    json
}

/// The limits a front end enforces.
pub(crate) struct Limits {
    /// Per-connection in-flight cap (at least 1).
    pub max_window: u32,
    /// Frame-body cap, announced in `HelloOk`.
    pub max_frame: u32,
    pub max_connections: usize,
    pub idle_timeout: Option<Duration>,
}

struct Shared<B: Backend> {
    backend: B,
    metrics: NetMetrics,
    max_window: u32,
    max_frame: u32,
    recorder: Option<Arc<FlightRecorder>>,
    /// Set once shutdown begins: new submissions get `ShutDown` replies
    /// while in-flight ones drain.
    stop: AtomicBool,
    /// The engine mailbox handle, set right after the engine starts.
    handle: OnceLock<Handle<Answer<B::Reply>>>,
}

impl<B: Backend> Shared<B> {
    fn trace(&self, conn: u64, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record(0, conn, kind);
        }
    }

    /// The mailbox handle. `start` sets it immediately after
    /// `Engine::start` returns; a connection racing that window spins
    /// for the few nanoseconds it takes.
    fn handle(&self) -> &Handle<Answer<B::Reply>> {
        loop {
            if let Some(h) = self.handle.get() {
                return h;
            }
            std::thread::yield_now();
        }
    }
}

/// Per-connection protocol state.
struct Conn<R> {
    /// The granted window; 0 until the `Hello` handshake (a grant is
    /// always at least 1).
    window: u32,
    /// Feature bits granted in the handshake (0 on a legacy Hello).
    features: u32,
    /// Trace context per in-flight traced corr.
    traced: HashMap<u64, TraceCtx>,
    /// Requests admitted but not yet answered on the wire.
    inflight: u32,
    frames_seen: u32,
    /// A `Goodbye` arrived: acknowledge with `GoodbyeOk` once the
    /// window drains, then close. Inbound bytes are discarded.
    goodbye: bool,
    /// The peer closed its write half; close (without `GoodbyeOk`)
    /// once the window drains.
    eof: bool,
    /// The reply address, built at first admission.
    reply_to: Option<Arc<ReplyTo<R>>>,
}

/// The wire protocol plugged into the connection engine. All methods
/// run on the poller thread.
struct Proto<B: Backend> {
    shared: Arc<Shared<B>>,
}

impl<B: Backend> Proto<B> {
    fn send_frame(&self, conn_id: u64, io: &mut ConnIo, frame: &Frame) {
        let bytes = frame.encode();
        self.shared.metrics.on_frame_out(bytes.len() as u64);
        self.shared.trace(
            conn_id,
            EventKind::FrameOut {
                frame: frame.kind() as u8,
                bytes: bytes.len().min(u32::MAX as usize) as u32,
            },
        );
        io.send(&bytes);
    }

    fn proto_error(&self, conn_id: u64, io: &mut ConnIo, code: u8, message: &str) -> Action {
        self.shared.metrics.on_protocol_error();
        self.shared
            .trace(conn_id, EventKind::ProtocolError { code });
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

    /// The `ProtoError` for a trace frame on a connection that did not
    /// negotiate tracing, or `None` when it did.
    fn untraced(
        &self,
        conn_id: u64,
        conn: &Conn<B::Reply>,
        io: &mut ConnIo,
        what: &str,
    ) -> Option<Action> {
        (conn.features & FEATURE_TRACE == 0).then(|| {
            self.proto_error(
                conn_id,
                io,
                ERR_UNEXPECTED_FRAME,
                &format!("{what} on a connection that did not negotiate tracing"),
            )
        })
    }

    /// A status-only reply for `corr`; a `Busy` counts as backpressure.
    fn status(&self, conn_id: u64, io: &mut ConnIo, corr: u64, status: ReplyStatus, why: &str) {
        if status == ReplyStatus::Busy {
            self.shared.metrics.on_busy();
        }
        self.send_frame(
            conn_id,
            io,
            &Frame::Reply {
                corr,
                reply: WireReply::status_only(status, 0, why.to_string()),
            },
        );
    }

    /// Refuse one submission with the status its [`SubmitError`] maps to.
    fn refuse(&self, conn_id: u64, io: &mut ConnIo, corr: u64, e: SubmitError) {
        match e {
            SubmitError::QueueFull => {
                self.status(conn_id, io, corr, ReplyStatus::Busy, "service queue full");
            }
            SubmitError::ShuttingDown => {
                self.status(conn_id, io, corr, ReplyStatus::ShutDown, B::STOPPING);
            }
        }
    }

    /// The handshake. A legacy Hello gets the legacy HelloOk byte for
    /// byte; an extended Hello gets the feature intersection echoed back.
    fn hello(
        &self,
        conn_id: u64,
        conn: &mut Conn<B::Reply>,
        io: &mut ConnIo,
        requested: u32,
        features: Option<u32>,
    ) -> Option<Action> {
        if conn.window != 0 {
            return Some(self.proto_error(conn_id, io, ERR_EXPECTED_HELLO, "duplicate Hello"));
        }
        conn.window = requested.clamp(1, self.shared.max_window);
        let (window, max_frame) = (conn.window, self.shared.max_frame);
        let ok = match features {
            None => Frame::HelloOk { window, max_frame },
            Some(asked) => {
                conn.features = asked & FEATURE_TRACE;
                Frame::HelloOkFeatures {
                    window,
                    max_frame,
                    features: conn.features,
                }
            }
        };
        self.send_frame(conn_id, io, &ok);
        None
    }

    /// The one admission path for all four submit frame kinds.
    fn admit(
        &self,
        conn_id: u64,
        conn: &mut Conn<B::Reply>,
        io: &mut ConnIo,
        items: Items,
    ) -> Option<Action> {
        let batch = matches!(items, Items::Batch(_));
        let list = items.as_slice();
        // every item of one frame shares the frame's traced-ness
        let traced = list[0].trace.is_some();
        if traced {
            let what = if batch {
                "BatchSubmitTraced"
            } else {
                "SubmitTraced"
            };
            if let Some(action) = self.untraced(conn_id, conn, io, what) {
                return Some(action);
            }
        }
        let n = list.len() as u32;
        if conn.inflight.saturating_add(n) > conn.window {
            for item in list {
                self.status(
                    conn_id,
                    io,
                    item.corr,
                    ReplyStatus::Busy,
                    "pipelining window full",
                );
            }
            return None;
        }
        if self.shared.stop.load(Ordering::Relaxed) {
            for item in list {
                self.refuse(conn_id, io, item.corr, SubmitError::ShuttingDown);
            }
            return None;
        }
        // kept past the backend call, which consumes the items
        let corrs: Vec<(u64, Option<TraceCtx>)> = list.iter().map(|i| (i.corr, i.trace)).collect();
        let to = conn.reply_to.get_or_insert_with(|| {
            Arc::new(ReplyTo {
                handle: self.shared.handle().clone(),
                conn_id,
            })
        });
        conn.inflight += n;
        match self.shared.backend.submit(to, items) {
            Ok(()) => {
                let m = &self.shared.metrics;
                if batch {
                    m.on_batch_submit(u64::from(n));
                } else {
                    m.on_submit();
                }
                if traced {
                    m.on_traced_submit(u64::from(n));
                    conn.traced
                        .extend(corrs.iter().filter_map(|&(corr, ctx)| Some((corr, ctx?))));
                }
            }
            Err(e) => {
                conn.inflight -= n;
                for (corr, _) in corrs {
                    self.refuse(conn_id, io, corr, e);
                }
            }
        }
        None
    }

    /// Handle one well-formed frame; `Some` ends the connection.
    fn on_frame(
        &self,
        conn_id: u64,
        conn: &mut Conn<B::Reply>,
        io: &mut ConnIo,
        frame: Frame,
    ) -> Option<Action> {
        match frame {
            Frame::Hello { window } => self.hello(conn_id, conn, io, window, None),
            Frame::HelloFeatures { window, features } => {
                self.hello(conn_id, conn, io, window, Some(features))
            }
            _ if conn.window == 0 => Some(self.proto_error(
                conn_id,
                io,
                ERR_EXPECTED_HELLO,
                "the first frame on a connection must be Hello",
            )),
            Frame::Ping { corr } => {
                self.shared.metrics.on_ping();
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
            Frame::Submit { corr, request } => self.admit(
                conn_id,
                conn,
                io,
                Items::One(Item {
                    corr,
                    request,
                    trace: None,
                }),
            ),
            Frame::SubmitTraced {
                corr,
                trace_id,
                parent_span_id,
                request,
            } => self.admit(
                conn_id,
                conn,
                io,
                Items::One(Item {
                    corr,
                    request,
                    trace: Some((trace_id, parent_span_id)),
                }),
            ),
            Frame::BatchSubmit { corr: _, items } => {
                let items = items
                    .into_iter()
                    .map(|(corr, request)| Item {
                        corr,
                        request,
                        trace: None,
                    })
                    .collect();
                self.admit(conn_id, conn, io, Items::Batch(items))
            }
            Frame::BatchSubmitTraced { corr: _, items } => {
                let items = items
                    .into_iter()
                    .map(|(corr, trace_id, parent_span_id, request)| Item {
                        corr,
                        request,
                        trace: Some((trace_id, parent_span_id)),
                    })
                    .collect();
                self.admit(conn_id, conn, io, Items::Batch(items))
            }
            Frame::BadSubmit { corr, error } => {
                // sound framing, invalid request content: a typed
                // BadRequest reply, and the connection lives on
                self.shared.metrics.on_bad_request();
                self.status(
                    conn_id,
                    io,
                    corr,
                    ReplyStatus::BadRequest,
                    &error.to_string(),
                );
                None
            }
            Frame::TraceFetch { corr } => {
                if let Some(action) = self.untraced(conn_id, conn, io, "TraceFetch") {
                    return Some(action);
                }
                self.shared.metrics.on_trace_fetch();
                let budget = (self.shared.max_frame as usize).saturating_sub(64);
                let json = self.shared.backend.trace_json(budget);
                self.send_frame(conn_id, io, &Frame::TraceData { corr, json });
                None
            }
            Frame::MetricsFetch { corr, format } => {
                if let Some(action) = self.untraced(conn_id, conn, io, "MetricsFetch") {
                    return Some(action);
                }
                self.shared.metrics.on_metrics_fetch();
                let text = self
                    .shared
                    .backend
                    .metrics_page(format, &self.shared.metrics.snapshot());
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

impl<B: Backend> Protocol for Proto<B> {
    type Conn = Conn<B::Reply>;
    type Msg = Answer<B::Reply>;

    fn on_open(&self, conn_id: u64, peer: SocketAddr, _io: &mut ConnIo) -> Self::Conn {
        self.shared.metrics.on_conn_opened();
        self.shared.trace(
            conn_id,
            EventKind::ConnOpened {
                peer_port: peer.port(),
            },
        );
        Conn {
            window: 0,
            features: 0,
            traced: HashMap::new(),
            inflight: 0,
            frames_seen: 0,
            goodbye: false,
            eof: false,
            reply_to: None,
        }
    }

    fn on_data(&self, conn_id: u64, conn: &mut Self::Conn, io: &mut ConnIo) -> Action {
        loop {
            if conn.goodbye {
                // after Goodbye the client owes us nothing; discard
                let n = io.rx_bytes().len();
                io.rx_consume(n);
                return Action::Continue;
            }
            match try_decode_frame(io.rx_bytes(), self.shared.max_frame) {
                Ok(None) => return Action::Continue,
                Ok(Some((frame, consumed))) => {
                    io.rx_consume(consumed);
                    conn.frames_seen = conn.frames_seen.saturating_add(1);
                    self.shared.metrics.on_frame_in(consumed as u64);
                    self.shared.trace(
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
                Err(e) => return self.proto_error(conn_id, io, e.code(), &e.to_string()),
            }
        }
    }

    fn on_eof(&self, _conn_id: u64, conn: &mut Self::Conn, _io: &mut ConnIo) -> Action {
        conn.eof = true;
        if conn.inflight == 0 {
            // clean close: nothing owed, no GoodbyeOk
            Action::CloseAfterFlush
        } else {
            // drain: serve the in-flight replies half-open first
            Action::Continue
        }
    }

    fn on_msg(
        &self,
        conn_id: u64,
        conn: &mut Self::Conn,
        io: &mut ConnIo,
        msg: Answer<B::Reply>,
    ) -> Action {
        let Answer { corr, reply } = msg;
        conn.inflight = conn.inflight.saturating_sub(1);
        self.shared.metrics.on_reply();
        // the one reply rule: a request that arrived traced is answered
        // traced, every other one plainly
        let ctx = conn.traced.remove(&corr);
        let (reply, trace) = self.shared.backend.finish(reply, ctx);
        let frame = match (ctx, trace) {
            (None, _) => Frame::Reply { corr, reply },
            (Some(_), trace) => {
                let trace = trace.unwrap_or_default();
                Frame::ReplyTraced {
                    corr,
                    reply,
                    queue_wait_nanos: trace.queue_wait_nanos,
                    spans: trace.spans,
                }
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

    fn on_close(&self, conn_id: u64, conn: Self::Conn, _reason: CloseReason) {
        self.shared.metrics.on_conn_closed();
        self.shared.trace(
            conn_id,
            EventKind::ConnClosed {
                frames: conn.frames_seen,
            },
        );
    }
}

/// A running front end: the listener, the connection engine, and the
/// backend behind them.
pub(crate) struct Front<B: Backend> {
    shared: Arc<Shared<B>>,
    addr: SocketAddr,
    engine: Engine<Proto<B>>,
}

impl<B: Backend> Front<B> {
    /// Bind `bind` and start serving the protocol in front of `backend`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `limits.max_window` is 0 (no
    /// connection could ever be granted a slot); otherwise any
    /// [`io::Error`] from binding the listener or starting the engine.
    pub(crate) fn start(
        bind: &str,
        limits: &Limits,
        recorder: Option<Arc<FlightRecorder>>,
        backend: B,
    ) -> io::Result<Front<B>> {
        if limits.max_window == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_window must be at least 1",
            ));
        }
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            metrics: NetMetrics::new(),
            max_window: limits.max_window,
            max_frame: limits.max_frame,
            recorder,
            stop: AtomicBool::new(false),
            handle: OnceLock::new(),
        });
        let engine = Engine::start(
            listener,
            Proto {
                shared: Arc::clone(&shared),
            },
            EngineConfig {
                max_connections: limits.max_connections,
                idle_timeout: limits.idle_timeout,
                ..EngineConfig::default()
            },
        )?;
        let _ = shared.handle.set(engine.handle());
        Ok(Front {
            shared,
            addr,
            engine,
        })
    }

    /// The bound address (with the real port when `bind` asked for 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// The counters, including the engine's liveness gauges.
    pub(crate) fn metrics(&self) -> NetSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        fill_engine_stats(&mut snap, self.engine.stats());
        snap
    }

    /// The flight-recorder dump, or `None` when untraced.
    pub(crate) fn flight_dump(&self) -> Option<FlightDump> {
        self.shared.recorder.as_ref().map(|r| r.dump())
    }

    /// Graceful drain: refuse new submissions with `ShutDown` replies,
    /// wait (bounded) for every admitted item's answer to go out, then
    /// shut the engine down. Returns the backend and the final counters.
    ///
    /// # Panics
    ///
    /// Panics if the engine's poller thread panicked or an inner handle
    /// leaked.
    pub(crate) fn shutdown(self) -> (B, NetSnapshot) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // every admitted item produces exactly one reply; wait for the
        // counters to meet, so in-flight work drains before the engine
        // force-closes the connections
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = self.shared.metrics.snapshot();
            if snap.submits + snap.batch_items <= snap.replies || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // the engine's teardown delivers straggler mailbox replies and
        // flushes each connection before closing it; snapshot only after
        // it, so the connections it force-closes are counted as closed
        let engine_stats = self.engine.shutdown();
        let mut snap = self.shared.metrics.snapshot();
        fill_engine_stats(&mut snap, &engine_stats);
        let shared = Arc::into_inner(self.shared).expect("engine released its handle");
        (shared.backend, snap)
    }
}

/// Copy the engine's liveness gauges into a [`NetSnapshot`].
fn fill_engine_stats(snap: &mut NetSnapshot, stats: &EngineStats) {
    snap.connections_live = stats.live.load(Ordering::Relaxed);
    snap.evicted_idle = stats.evicted_idle.load(Ordering::Relaxed);
    snap.evicted_stall = stats.evicted_stall.load(Ordering::Relaxed);
    snap.over_budget = stats.over_budget.load(Ordering::Relaxed);
}
