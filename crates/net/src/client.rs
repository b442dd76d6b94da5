//! A blocking client for the wire protocol.
//!
//! One background reader thread demultiplexes replies by correlation
//! id, so any number of caller threads can pipeline requests over one
//! connection; a client-side window gate mirrors the server's granted
//! window, turning would-be `Busy` replies into brief waits instead.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

use stackcache_obs::SpanRecord;

use crate::wire::{
    read_frame, Frame, ReadError, WireError, WireReply, WireRequest, DEFAULT_MAX_FRAME,
    FEATURE_TRACE, PROTOCOL_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The connection closed (or errored) before the reply arrived.
    ConnectionLost,
    /// The server answered with a `ProtoError` frame and closed.
    Protocol {
        /// The server's error code ([`WireError::code`] or a server
        /// handshake code).
        code: u8,
        /// The server's message.
        message: String,
    },
    /// The server's bytes violated the protocol on our side.
    Wire(WireError),
    /// The handshake did not complete (no or wrong `HelloOk`).
    Handshake(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::ConnectionLost => write!(f, "connection lost before the reply"),
            ClientError::Protocol { code, message } => {
                write!(f, "server protocol error {code}: {message}")
            }
            ClientError::Wire(e) => write!(f, "protocol violation from server: {e}"),
            ClientError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The span summary riding a `ReplyTraced` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracedReply {
    /// Time the request waited in the node's queue, in nanoseconds.
    pub queue_wait_nanos: u64,
    /// The node's spans for this request, re-stamped into the caller's
    /// trace by the answering server.
    pub spans: Vec<SpanRecord>,
}

/// What the reader thread hands a submit waiter.
struct Answer {
    reply: WireReply,
    trace: Option<TracedReply>,
}

/// Reply-routing state shared with the reader thread.
struct Router {
    /// Correlation id → the waiter's channel.
    pending: Mutex<HashMap<u64, mpsc::Sender<Answer>>>,
    /// `TraceFetch`/`MetricsFetch` correlation id → the waiter's
    /// channel (the payload is the page/document text).
    fetches: Mutex<HashMap<u64, mpsc::Sender<String>>>,
    /// Ping correlation id → the waiter's channel.
    pongs: Mutex<HashMap<u64, mpsc::Sender<()>>>,
    /// The goodbye waiter, if a drain is in progress.
    goodbye: Mutex<Option<mpsc::Sender<()>>>,
    /// In-flight requests, gated by the granted window.
    inflight: Mutex<u32>,
    window_free: Condvar,
    /// Set once the reader exits; pending waiters then fail fast.
    closed: AtomicBool,
    /// The `ProtoError` that ended the connection, if one did.
    proto_error: Mutex<Option<(u8, String)>>,
}

impl Router {
    /// Fail every waiter: the connection is gone.
    fn hang_up(&self) {
        self.closed.store(true, Ordering::Release);
        self.pending.lock().expect("pending lock").clear();
        self.fetches.lock().expect("fetches lock").clear();
        self.pongs.lock().expect("pongs lock").clear();
        *self.goodbye.lock().expect("goodbye lock") = None;
        // waiters blocked on the window must also wake and observe
        // `closed`
        *self.inflight.lock().expect("inflight lock") = 0;
        self.window_free.notify_all();
    }
}

/// A handle to one submitted request's eventual [`WireReply`].
#[derive(Debug)]
pub struct PendingReply {
    corr: u64,
    rx: mpsc::Receiver<Answer>,
}

impl PendingReply {
    /// The correlation id this reply will answer.
    #[must_use]
    pub fn corr(&self) -> u64 {
        self.corr
    }

    /// Block until the reply arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] if the connection dies first.
    pub fn wait(self) -> Result<WireReply, ClientError> {
        self.rx
            .recv()
            .map(|a| a.reply)
            .map_err(|_| ClientError::ConnectionLost)
    }

    /// Block until the reply arrives, keeping the span summary when the
    /// server answered with `ReplyTraced` (`None` on a plain `Reply`).
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] if the connection dies first.
    pub fn wait_traced(self) -> Result<(WireReply, Option<TracedReply>), ClientError> {
        self.rx
            .recv()
            .map(|a| (a.reply, a.trace))
            .map_err(|_| ClientError::ConnectionLost)
    }

    /// The reply, if it has already arrived.
    #[must_use]
    pub fn try_wait(&self) -> Option<WireReply> {
        self.rx.try_recv().ok().map(|a| a.reply)
    }
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
///
/// Cloned handles are not supported; share a `Client` behind an `Arc`
/// instead — every method takes `&self`.
pub struct Client {
    writer: Mutex<BufWriter<TcpStream>>,
    stream: TcpStream,
    router: Arc<Router>,
    reader: Mutex<Option<thread::JoinHandle<()>>>,
    next_corr: AtomicU64,
    window: u32,
    max_frame: u32,
    features: u32,
}

impl Client {
    /// Connect and complete the `Hello`/`HelloOk` handshake, requesting
    /// a pipelining window of `want_window`. The handshake is the
    /// legacy v1 exchange, byte-for-byte: no features are negotiated
    /// (use [`Client::connect_traced`] for that).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure,
    /// [`ClientError::Handshake`] if the server answers anything but
    /// `HelloOk` (a `ProtoError` surfaces as
    /// [`ClientError::Protocol`]).
    pub fn connect<A: ToSocketAddrs>(addr: A, want_window: u32) -> Result<Client, ClientError> {
        Client::handshake(
            addr,
            Frame::Hello {
                window: want_window,
            },
        )
    }

    /// Connect with an extended `Hello` requesting [`FEATURE_TRACE`].
    /// The granted feature bits land in [`Client::features`]; a legacy
    /// server (answering a plain `HelloOk`) grants none, and the client
    /// degrades to pure-v1 behaviour.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_traced<A: ToSocketAddrs>(
        addr: A,
        want_window: u32,
    ) -> Result<Client, ClientError> {
        Client::handshake(
            addr,
            Frame::HelloFeatures {
                window: want_window,
                features: FEATURE_TRACE,
            },
        )
    }

    fn handshake<A: ToSocketAddrs>(addr: A, hello: Frame) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writer.write_all(&hello.encode())?;
        writer.flush()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let (window, max_frame, features) = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some((Frame::HelloOk { window, max_frame }, _))) => (window, max_frame, 0),
            Ok(Some((
                Frame::HelloOkFeatures {
                    window,
                    max_frame,
                    features,
                },
                _,
            ))) => (window, max_frame, features),
            Ok(Some((Frame::ProtoError { code, message, .. }, _))) => {
                return Err(ClientError::Protocol { code, message })
            }
            Ok(Some((other, _))) => {
                return Err(ClientError::Handshake(format!(
                    "expected HelloOk, got {:?}",
                    other.kind()
                )))
            }
            Ok(None) => {
                return Err(ClientError::Handshake(format!(
                    "server closed during handshake (speaks it version {PROTOCOL_VERSION}?)"
                )))
            }
            Err(ReadError::Io(e)) => return Err(ClientError::Io(e)),
            Err(ReadError::Wire(e)) => return Err(ClientError::Wire(e)),
        };
        let router = Arc::new(Router {
            pending: Mutex::new(HashMap::new()),
            fetches: Mutex::new(HashMap::new()),
            pongs: Mutex::new(HashMap::new()),
            goodbye: Mutex::new(None),
            inflight: Mutex::new(0),
            window_free: Condvar::new(),
            closed: AtomicBool::new(false),
            proto_error: Mutex::new(None),
        });
        let reader_handle = {
            let router = Arc::clone(&router);
            thread::Builder::new()
                .name("net-client-reader".to_string())
                .spawn(move || reader_loop(&mut reader, &router, max_frame))
                .expect("spawn client reader")
        };
        Ok(Client {
            writer: Mutex::new(writer),
            stream,
            router,
            reader: Mutex::new(Some(reader_handle)),
            next_corr: AtomicU64::new(1),
            window,
            max_frame,
            features,
        })
    }

    /// The window the server granted.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The feature bits the server granted (0 after a legacy
    /// handshake).
    #[must_use]
    pub fn features(&self) -> u32 {
        self.features
    }

    /// The server's frame-body cap.
    #[must_use]
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    /// The `ProtoError` that ended the connection, if one did.
    #[must_use]
    pub fn protocol_error(&self) -> Option<(u8, String)> {
        self.router
            .proto_error
            .lock()
            .expect("proto error lock")
            .clone()
    }

    /// Wait until `slots` window slots are free, then claim them.
    fn claim_window(&self, slots: u32) -> Result<(), ClientError> {
        let mut inflight = self.router.inflight.lock().expect("inflight lock");
        while *inflight + slots > self.window {
            if self.router.closed.load(Ordering::Acquire) {
                return Err(ClientError::ConnectionLost);
            }
            inflight = self
                .router
                .window_free
                .wait(inflight)
                .expect("inflight lock");
        }
        if self.router.closed.load(Ordering::Acquire) {
            return Err(ClientError::ConnectionLost);
        }
        *inflight += slots;
        Ok(())
    }

    fn write(&self, frame: &Frame) -> Result<(), ClientError> {
        let mut w = self.writer.lock().expect("writer lock");
        w.write_all(&frame.encode())?;
        w.flush()?;
        Ok(())
    }

    /// Submit one request without waiting for its reply (pipelining).
    /// Blocks only while the window is full.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] / [`ClientError::Io`] when the
    /// connection is gone.
    pub fn submit(&self, request: &WireRequest) -> Result<PendingReply, ClientError> {
        self.claim_window(1)?;
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.router
            .pending
            .lock()
            .expect("pending lock")
            .insert(corr, tx);
        if let Err(e) = self.write(&Frame::Submit {
            corr,
            request: request.clone(),
        }) {
            self.router
                .pending
                .lock()
                .expect("pending lock")
                .remove(&corr);
            self.release_window(1);
            return Err(e);
        }
        Ok(PendingReply { corr, rx })
    }

    /// Submit one request carrying a trace context: the reply comes
    /// back as `ReplyTraced` with the node's span summary
    /// ([`PendingReply::wait_traced`]). Falls back to a plain
    /// [`Client::submit`] when the server did not grant
    /// [`FEATURE_TRACE`], so mixed clusters degrade instead of erroring.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_traced(
        &self,
        request: &WireRequest,
        trace_id: u64,
        parent_span_id: u64,
    ) -> Result<PendingReply, ClientError> {
        if self.features & FEATURE_TRACE == 0 {
            return self.submit(request);
        }
        self.claim_window(1)?;
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.router
            .pending
            .lock()
            .expect("pending lock")
            .insert(corr, tx);
        if let Err(e) = self.write(&Frame::SubmitTraced {
            corr,
            trace_id,
            parent_span_id,
            request: request.clone(),
        }) {
            self.router
                .pending
                .lock()
                .expect("pending lock")
                .remove(&corr);
            self.release_window(1);
            return Err(e);
        }
        Ok(PendingReply { corr, rx })
    }

    /// Submit several traced requests as one batch frame, each item
    /// carrying its own `(trace id, parent span id)` context. Falls
    /// back to a plain [`Client::submit_batch`] when the server did not
    /// grant [`FEATURE_TRACE`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn submit_batch_traced(
        &self,
        requests: &[(WireRequest, u64, u64)],
    ) -> Result<Vec<PendingReply>, ClientError> {
        assert!(!requests.is_empty(), "an empty batch has no replies");
        if self.features & FEATURE_TRACE == 0 {
            let plain: Vec<WireRequest> = requests.iter().map(|(r, _, _)| r.clone()).collect();
            return self.submit_batch(&plain);
        }
        let n = requests.len() as u32;
        self.claim_window(n)?;
        let mut items = Vec::with_capacity(requests.len());
        let mut replies = Vec::with_capacity(requests.len());
        {
            let mut pending = self.router.pending.lock().expect("pending lock");
            for (request, trace_id, parent_span_id) in requests {
                let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = mpsc::channel();
                pending.insert(corr, tx);
                items.push((corr, *trace_id, *parent_span_id, request.clone()));
                replies.push(PendingReply { corr, rx });
            }
        }
        let corr = items.first().map_or(0, |(c, _, _, _)| *c);
        if let Err(e) = self.write(&Frame::BatchSubmitTraced { corr, items }) {
            let mut pending = self.router.pending.lock().expect("pending lock");
            for r in &replies {
                pending.remove(&r.corr);
            }
            drop(pending);
            self.release_window(n);
            return Err(e);
        }
        Ok(replies)
    }

    /// Fetch the responder's span dump (server) or sampled trace trees
    /// (proxy) as a JSON document, in-protocol.
    ///
    /// # Errors
    ///
    /// [`ClientError::Handshake`] when the server granted no
    /// [`FEATURE_TRACE`]; [`ClientError::ConnectionLost`] / transport
    /// errors otherwise.
    pub fn fetch_trace(&self) -> Result<String, ClientError> {
        self.fetch(|corr| Frame::TraceFetch { corr })
    }

    /// Fetch the responder's metrics page in-protocol.
    /// `format` is [`METRICS_FORMAT_PROMETHEUS`] or
    /// [`METRICS_FORMAT_JSON`].
    ///
    /// [`METRICS_FORMAT_PROMETHEUS`]: crate::wire::METRICS_FORMAT_PROMETHEUS
    /// [`METRICS_FORMAT_JSON`]: crate::wire::METRICS_FORMAT_JSON
    ///
    /// # Errors
    ///
    /// As [`Client::fetch_trace`].
    pub fn fetch_metrics(&self, format: u8) -> Result<String, ClientError> {
        self.fetch(|corr| Frame::MetricsFetch { corr, format })
    }

    fn fetch(&self, make: impl FnOnce(u64) -> Frame) -> Result<String, ClientError> {
        if self.features & FEATURE_TRACE == 0 {
            return Err(ClientError::Handshake(
                "server granted no trace feature".to_string(),
            ));
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.router
            .fetches
            .lock()
            .expect("fetches lock")
            .insert(corr, tx);
        if let Err(e) = self.write(&make(corr)) {
            self.router
                .fetches
                .lock()
                .expect("fetches lock")
                .remove(&corr);
            return Err(e);
        }
        rx.recv().map_err(|_| ClientError::ConnectionLost)
    }

    /// Submit several requests as one batch frame (one service queue
    /// slot, one amortized machine clone on the server). Blocks only
    /// while the window lacks `requests.len()` free slots.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] / [`ClientError::Io`] when the
    /// connection is gone.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty.
    pub fn submit_batch(&self, requests: &[WireRequest]) -> Result<Vec<PendingReply>, ClientError> {
        assert!(!requests.is_empty(), "an empty batch has no replies");
        let n = requests.len() as u32;
        self.claim_window(n)?;
        let mut items = Vec::with_capacity(requests.len());
        let mut replies = Vec::with_capacity(requests.len());
        {
            let mut pending = self.router.pending.lock().expect("pending lock");
            for request in requests {
                let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = mpsc::channel();
                pending.insert(corr, tx);
                items.push((corr, request.clone()));
                replies.push(PendingReply { corr, rx });
            }
        }
        let corr = items.first().map_or(0, |(c, _)| *c);
        if let Err(e) = self.write(&Frame::BatchSubmit { corr, items }) {
            let mut pending = self.router.pending.lock().expect("pending lock");
            for r in &replies {
                pending.remove(&r.corr);
            }
            drop(pending);
            self.release_window(n);
            return Err(e);
        }
        Ok(replies)
    }

    fn release_window(&self, slots: u32) {
        let mut inflight = self.router.inflight.lock().expect("inflight lock");
        *inflight = inflight.saturating_sub(slots);
        self.router.window_free.notify_all();
    }

    /// Submit one request and block for its reply.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`] and [`PendingReply::wait`].
    pub fn call(&self, request: &WireRequest) -> Result<WireReply, ClientError> {
        self.submit(request)?.wait()
    }

    /// Round-trip a `Ping`.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] if the pong never comes.
    pub fn ping(&self) -> Result<(), ClientError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.router
            .pongs
            .lock()
            .expect("pongs lock")
            .insert(corr, tx);
        self.write(&Frame::Ping { corr })?;
        rx.recv().map_err(|_| ClientError::ConnectionLost)
    }

    /// Graceful close: send `Goodbye`, wait for every outstanding reply
    /// and the server's `GoodbyeOk`, then tear the connection down.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionLost`] if the server goes away before
    /// acknowledging.
    pub fn goodbye(self) -> Result<(), ClientError> {
        let (tx, rx) = mpsc::channel();
        *self.router.goodbye.lock().expect("goodbye lock") = Some(tx);
        // Register-then-check closes the hang-up race: a reader that
        // died *before* the store above already set `closed` (checked
        // here, fail fast); one that dies after drops the waiter out of
        // the slot, so `recv` errors instead of blocking forever. Late
        // replies keep flowing to their own waiters until the server's
        // `GoodbyeOk` — a drain, not an abort.
        let acked = if self.router.closed.load(Ordering::Acquire) {
            false
        } else {
            self.write(&Frame::Goodbye).is_ok() && rx.recv().is_ok()
        };
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.lock().expect("reader lock").take() {
            let _ = h.join();
        }
        if acked {
            Ok(())
        } else {
            Err(ClientError::ConnectionLost)
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.lock().expect("reader lock").take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("window", &self.window)
            .finish()
    }
}

/// The background reader: demultiplexes replies to their waiters until
/// EOF or an error, then fails every outstanding waiter.
fn reader_loop(reader: &mut BufReader<TcpStream>, router: &Arc<Router>, max_frame: u32) {
    loop {
        match read_frame(reader, max_frame) {
            Ok(Some((Frame::Reply { corr, reply }, _))) => {
                let waiter = router.pending.lock().expect("pending lock").remove(&corr);
                if let Some(tx) = waiter {
                    let _ = tx.send(Answer { reply, trace: None });
                }
                let mut inflight = router.inflight.lock().expect("inflight lock");
                *inflight = inflight.saturating_sub(1);
                drop(inflight);
                router.window_free.notify_all();
            }
            Ok(Some((
                Frame::ReplyTraced {
                    corr,
                    reply,
                    queue_wait_nanos,
                    spans,
                },
                _,
            ))) => {
                let waiter = router.pending.lock().expect("pending lock").remove(&corr);
                if let Some(tx) = waiter {
                    let _ = tx.send(Answer {
                        reply,
                        trace: Some(TracedReply {
                            queue_wait_nanos,
                            spans,
                        }),
                    });
                }
                let mut inflight = router.inflight.lock().expect("inflight lock");
                *inflight = inflight.saturating_sub(1);
                drop(inflight);
                router.window_free.notify_all();
            }
            Ok(Some((
                Frame::TraceData { corr, json: text } | Frame::MetricsData { corr, text, .. },
                _,
            ))) => {
                let waiter = router.fetches.lock().expect("fetches lock").remove(&corr);
                if let Some(tx) = waiter {
                    let _ = tx.send(text);
                }
            }
            Ok(Some((Frame::Pong { corr }, _))) => {
                let waiter = router.pongs.lock().expect("pongs lock").remove(&corr);
                if let Some(tx) = waiter {
                    let _ = tx.send(());
                }
            }
            Ok(Some((Frame::GoodbyeOk, _))) => {
                if let Some(tx) = router.goodbye.lock().expect("goodbye lock").take() {
                    let _ = tx.send(());
                }
            }
            Ok(Some((Frame::ProtoError { code, message, .. }, _))) => {
                *router.proto_error.lock().expect("proto error lock") = Some((code, message));
                router.hang_up();
                return;
            }
            Ok(Some(_)) | Ok(None) | Err(_) => {
                router.hang_up();
                return;
            }
        }
    }
}
