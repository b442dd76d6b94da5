//! The connection engine: one poller thread multiplexing every
//! connection through nonblocking reads/writes, with the application
//! protocol plugged in as a [`Protocol`] implementation.
//!
//! The division of labour is strict. The engine owns sockets, buffers,
//! readiness, budgets, and eviction; the protocol owns bytes — it
//! parses from the read buffer, queues replies into the write buffer,
//! and decides when a connection should close. The protocol never
//! blocks: work that takes time is handed to other threads, which
//! deliver results back through a [`Handle`] mailbox that wakes the
//! poller.
//!
//! ## Eviction contract
//!
//! * **Idle timeout** — a connection with no inbound bytes for
//!   `idle_timeout` is closed with [`CloseReason::IdleTimeout`].
//! * **Write stall** — a connection whose write buffer has been
//!   non-empty continuously for `write_stall_timeout` (the peer is not
//!   draining) is closed with [`CloseReason::WriteStall`]; a buffer
//!   that exceeds `max_buffered_write` closes immediately with the
//!   same reason.
//! * **Budget** — once `max_connections` are live, further accepts are
//!   closed on sight and counted in [`EngineStats::over_budget`].
//!
//! Timers are lazy: the deadline wheel fires a *suspicion*, and the
//! engine checks the connection's real `last_activity` / stall clock
//! before evicting, re-arming when the connection earned more time.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::buf::{FillOutcome, FlushOutcome, ReadBuf, WriteBuf};
use crate::poll::{Event, Interest, Poller, WakeReceiver, Waker};
use crate::wheel::DeadlineWheel;

/// Reserved poller token for the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Reserved poller token for the mailbox waker.
const TOKEN_WAKER: u64 = u64::MAX;

/// What the protocol wants done with the connection after a callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Close immediately, discarding unsent bytes (protocol violation).
    Close,
    /// Close once the write buffer drains (clean goodbye).
    CloseAfterFlush,
}

/// Why a connection was closed; handed to [`Protocol::on_close`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed its write half and all its bytes were served.
    PeerClosed,
    /// The protocol demanded an immediate close (framing violation).
    Protocol,
    /// The protocol asked for a clean close and the flush completed.
    Requested,
    /// No inbound bytes within the idle timeout.
    IdleTimeout,
    /// The peer stopped draining our writes (stall timeout or buffer
    /// overflow).
    WriteStall,
    /// The connection budget was full at accept time.
    OverBudget,
    /// A socket error.
    Io,
    /// The engine was shut down with the connection still live.
    ServerShutdown,
}

/// The per-connection byte interface handed to protocol callbacks.
pub struct ConnIo {
    rx: ReadBuf,
    tx: WriteBuf,
}

impl ConnIo {
    /// Unconsumed inbound bytes.
    pub fn rx_bytes(&self) -> &[u8] {
        self.rx.bytes()
    }

    /// Mark `n` inbound bytes as parsed.
    ///
    /// # Panics
    ///
    /// If `n` exceeds the buffered byte count.
    pub fn rx_consume(&mut self, n: usize) {
        self.rx.consume(n);
    }

    /// Queue `bytes` for transmission; the engine flushes as readiness
    /// allows.
    pub fn send(&mut self, bytes: &[u8]) {
        self.tx.queue(bytes);
    }

    /// Outbound bytes not yet on the wire.
    pub fn pending_write(&self) -> usize {
        self.tx.pending()
    }
}

/// The application layer plugged into the engine. All callbacks run on
/// the poller thread and must not block.
pub trait Protocol: Send + 'static {
    /// Per-connection protocol state.
    type Conn: Send;
    /// Messages other threads deliver through the [`Handle`].
    type Msg: Send;

    /// A connection was accepted; build its state (and optionally queue
    /// greeting bytes).
    fn on_open(&self, conn_id: u64, peer: SocketAddr, io: &mut ConnIo) -> Self::Conn;

    /// New inbound bytes are available in `io`.
    fn on_data(&self, conn_id: u64, conn: &mut Self::Conn, io: &mut ConnIo) -> Action;

    /// The peer closed its write half (no more inbound bytes ever).
    ///
    /// Returning [`Action::Continue`] keeps the connection alive
    /// **half-open**: outbound traffic (mailbox replies, pending
    /// writes) still flows, and the protocol must eventually close it
    /// from [`on_msg`](Protocol::on_msg) (or let a timer evict it).
    /// Return [`Action::CloseAfterFlush`] to flush and close — the
    /// usual choice when nothing is owed to the peer.
    fn on_eof(&self, conn_id: u64, conn: &mut Self::Conn, io: &mut ConnIo) -> Action;

    /// A message for this connection arrived through the [`Handle`].
    fn on_msg(
        &self,
        conn_id: u64,
        conn: &mut Self::Conn,
        io: &mut ConnIo,
        msg: Self::Msg,
    ) -> Action;

    /// The connection is gone; reclaim its state.
    fn on_close(&self, conn_id: u64, conn: Self::Conn, reason: CloseReason);
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Hard cap on simultaneously live connections.
    pub max_connections: usize,
    /// Evict after this long with no inbound bytes (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Evict after the write buffer stays non-empty this long.
    pub write_stall_timeout: Option<Duration>,
    /// Max bytes pulled from one socket per readiness wakeup, so one
    /// firehose peer cannot starve the rest of the poller.
    pub read_budget: usize,
    /// Write-buffer size that trips an immediate stall eviction.
    pub max_buffered_write: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            write_stall_timeout: Some(Duration::from_secs(10)),
            read_budget: 256 * 1024,
            max_buffered_write: 8 * 1024 * 1024,
        }
    }
}

/// Monotonic counters for the engine's lifetime, readable from any
/// thread.
#[derive(Default)]
pub struct EngineStats {
    /// Connections accepted and registered.
    pub accepted: AtomicU64,
    /// Connections closed (any reason).
    pub closed: AtomicU64,
    /// Accepts refused because the budget was full.
    pub over_budget: AtomicU64,
    /// Evictions by idle timeout.
    pub evicted_idle: AtomicU64,
    /// Evictions by write stall (timeout or buffer overflow).
    pub evicted_stall: AtomicU64,
    /// Mailbox messages delivered to a live connection.
    pub msgs_delivered: AtomicU64,
    /// Mailbox messages whose connection was already gone.
    pub msgs_dropped: AtomicU64,
    /// Current live connections (gauge).
    pub live: AtomicU64,
}

/// Pending `(conn_id, msg)` deliveries shared between [`Handle`]s and
/// the poller thread.
type Mailbox<M> = Arc<Mutex<Vec<(u64, M)>>>;

/// Clone-able sender delivering messages to connections on the poller
/// thread. Safe from any thread; each send wakes the poller.
pub struct Handle<M> {
    mailbox: Mailbox<M>,
    waker: Waker,
}

impl<M> Clone for Handle<M> {
    fn clone(&self) -> Handle<M> {
        Handle {
            mailbox: Arc::clone(&self.mailbox),
            waker: self.waker.clone(),
        }
    }
}

impl<M: Send> Handle<M> {
    /// Deliver `msg` to connection `conn_id`. If the connection is gone
    /// by delivery time the message is dropped (and counted).
    pub fn send(&self, conn_id: u64, msg: M) {
        self.mailbox
            .lock()
            .expect("mailbox poisoned")
            .push((conn_id, msg));
        self.waker.wake();
    }
}

/// A running engine: the poller thread plus its control handles.
pub struct Engine<P: Protocol> {
    handle: Handle<P::Msg>,
    stats: Arc<EngineStats>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl<P: Protocol> Engine<P> {
    /// Take ownership of `listener`, spawn the poller thread, and start
    /// serving `protocol`.
    ///
    /// # Errors
    ///
    /// If the listener cannot be made nonblocking or the poller cannot
    /// be created.
    pub fn start(
        listener: TcpListener,
        protocol: P,
        config: EngineConfig,
    ) -> io::Result<Engine<P>> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = Waker::pair()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READABLE)?;

        let mailbox: Mailbox<P::Msg> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(EngineStats::default());
        let stop = Arc::new(AtomicBool::new(false));

        let mut looper = Loop {
            poller,
            listener,
            wake_rx,
            protocol,
            config,
            mailbox: Arc::clone(&mailbox),
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            conns: HashMap::new(),
            next_id: 1,
            wheel: DeadlineWheel::new(Instant::now()),
            events: Vec::new(),
            expired: Vec::new(),
            msgs: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name("evio-poller".into())
            .spawn(move || looper.run())?;

        Ok(Engine {
            handle: Handle {
                mailbox,
                waker: waker.clone(),
            },
            stats,
            addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A message sender for worker threads.
    pub fn handle(&self) -> Handle<P::Msg> {
        self.handle.clone()
    }

    /// Live counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Stop accepting, force-close every connection
    /// ([`CloseReason::ServerShutdown`]), and join the poller thread.
    /// Returns the counters, final now that every close has happened.
    pub fn shutdown(mut self) -> Arc<EngineStats> {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        Arc::clone(&self.stats)
    }
}

impl<P: Protocol> Drop for Engine<P> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Which suspicion a wheel entry encodes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Idle,
    Stall,
}

struct Conn<S> {
    stream: TcpStream,
    io: ConnIo,
    state: S,
    last_activity: Instant,
    /// When the write buffer last transitioned empty→non-empty.
    stall_since: Option<Instant>,
    /// A stall timer is already parked on the wheel.
    stall_armed: bool,
    /// Close as soon as the write buffer drains.
    closing_after_flush: bool,
    /// The peer's write half is gone; never read again.
    saw_eof: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl<S> Conn<S> {
    /// The close reason when a requested drain completes: the close is
    /// attributed to the peer when it hung up first.
    fn drain_done_reason(&self) -> CloseReason {
        if self.saw_eof {
            CloseReason::PeerClosed
        } else {
            CloseReason::Requested
        }
    }
}

struct Loop<P: Protocol> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    protocol: P,
    config: EngineConfig,
    mailbox: Mailbox<P::Msg>,
    stats: Arc<EngineStats>,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn<P::Conn>>,
    next_id: u64,
    wheel: DeadlineWheel<(u64, TimerKind)>,
    events: Vec<Event>,
    expired: Vec<(u64, TimerKind)>,
    msgs: Vec<(u64, P::Msg)>,
}

impl<P: Protocol> Loop<P> {
    fn run(&mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let timeout = if self.wheel.is_empty() {
                None
            } else {
                Some(10)
            };
            self.events.clear();
            if let Err(e) = self.poller.wait(&mut self.events, timeout) {
                // a failing poller is unrecoverable; tear down
                let _ = e;
                break;
            }

            let mut saw_wake = false;
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => saw_wake = true,
                    token => self.conn_ready(token, ev),
                }
            }
            if saw_wake {
                self.wake_rx.drain();
            }
            // the mailbox drains every pass — a message may land just
            // after the waker byte was consumed by a previous drain
            self.deliver_msgs();
            self.fire_timers();
        }
        self.teardown();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        self.stats.over_budget.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    if self.admit(stream, peer).is_err() {
                        // registration failure: the socket is dropped
                        continue;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // transient accept errors (ECONNABORTED etc.): keep serving
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let conn_id = self.next_id;
        self.next_id += 1;
        // tokens 0 and u64::MAX are reserved; next_id starts at 1 and
        // would take centuries to wrap
        let mut io_bufs = ConnIo {
            rx: ReadBuf::new(),
            tx: WriteBuf::new(),
        };
        let state = self.protocol.on_open(conn_id, peer, &mut io_bufs);
        let interest = Interest::READABLE;
        self.poller
            .register(stream.as_raw_fd(), conn_id, interest)?;
        let now = Instant::now();
        let mut conn = Conn {
            stream,
            io: io_bufs,
            state,
            last_activity: now,
            stall_since: None,
            stall_armed: false,
            closing_after_flush: false,
            saw_eof: false,
            interest,
        };
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.stats.live.fetch_add(1, Ordering::Relaxed);
        if let Some(idle) = self.config.idle_timeout {
            self.wheel.insert(now + idle, (conn_id, TimerKind::Idle));
        }
        // a greeting queued by on_open must flush
        match self.apply_action(&mut conn, Action::Continue) {
            Some(reason) => self.finish_close(conn_id, conn, reason),
            None => {
                self.settle_interest(conn_id, &mut conn);
                self.conns.insert(conn_id, conn);
            }
        }
        Ok(())
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut close: Option<CloseReason> = None;

        if ev.readable && close.is_none() && !conn.saw_eof {
            match conn
                .io
                .rx
                .fill_from(&mut conn.stream, self.config.read_budget)
            {
                Ok(FillOutcome::Read(_)) => {
                    conn.last_activity = Instant::now();
                    if !conn.closing_after_flush {
                        let action = self.protocol.on_data(token, &mut conn.state, &mut conn.io);
                        close = self.apply_action(&mut conn, action);
                    }
                }
                Ok(FillOutcome::WouldBlock) => {}
                Ok(FillOutcome::Eof) => {
                    conn.saw_eof = true;
                    let action = self.protocol.on_eof(token, &mut conn.state, &mut conn.io);
                    // EOF with Continue: the protocol is serving the
                    // connection half-open and owns its eventual close
                    close = self.apply_action(&mut conn, action);
                }
                Err(_) => close = Some(CloseReason::Io),
            }
        }

        if close.is_none() && (ev.writable || !conn.io.tx.is_empty()) {
            close = self.apply_action(&mut conn, Action::Continue);
        }

        if close.is_none() && ev.error && conn.io.rx.is_empty() {
            // error/hup with nothing readable left: the socket is dead
            close = Some(CloseReason::Io);
        }

        match close {
            Some(reason) => self.finish_close(token, conn, reason),
            None => {
                self.settle_interest(token, &mut conn);
                self.conns.insert(token, conn);
            }
        }
    }

    /// Apply a protocol action, flushing queued bytes first.
    fn apply_action(&mut self, conn: &mut Conn<P::Conn>, action: Action) -> Option<CloseReason> {
        match action {
            Action::Continue => self.flush_only(conn),
            Action::Close => Some(CloseReason::Protocol),
            Action::CloseAfterFlush => {
                conn.closing_after_flush = true;
                if let Some(reason) = self.flush_only(conn) {
                    return Some(reason);
                }
                if conn.io.tx.is_empty() {
                    return Some(conn.drain_done_reason());
                }
                None
            }
        }
    }

    /// Flush the write buffer; track stall state; report fatal errors.
    fn flush_only(&mut self, conn: &mut Conn<P::Conn>) -> Option<CloseReason> {
        if conn.io.tx.is_empty() {
            conn.stall_since = None;
            return None;
        }
        match conn.io.tx.flush_to(&mut conn.stream) {
            Ok(FlushOutcome::Done) => {
                conn.stall_since = None;
                if conn.closing_after_flush {
                    return Some(conn.drain_done_reason());
                }
                None
            }
            Ok(FlushOutcome::Partial) => {
                if conn.io.tx.pending() > self.config.max_buffered_write {
                    self.stats.evicted_stall.fetch_add(1, Ordering::Relaxed);
                    return Some(CloseReason::WriteStall);
                }
                let now = Instant::now();
                if conn.stall_since.is_none() {
                    conn.stall_since = Some(now);
                }
                None
            }
            Err(_) => Some(CloseReason::Io),
        }
    }

    /// Re-register poller interest to match buffer state, and arm the
    /// stall timer when writes are pending.
    fn settle_interest(&mut self, conn_id: u64, conn: &mut Conn<P::Conn>) {
        let want = match (conn.saw_eof, conn.io.tx.is_empty()) {
            (false, true) => Interest::READABLE,
            (false, false) => Interest::BOTH,
            (true, false) => Interest::WRITABLE,
            // half-open and idle: errors/hangups are still reported
            (true, true) => Interest::NONE,
        };
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn_id, want)
                .is_ok()
        {
            conn.interest = want;
        }
        if !conn.io.tx.is_empty() && !conn.stall_armed {
            if let Some(stall) = self.config.write_stall_timeout {
                let since = conn.stall_since.unwrap_or_else(Instant::now);
                self.wheel
                    .insert(since + stall, (conn_id, TimerKind::Stall));
                conn.stall_armed = true;
            }
        }
    }

    fn deliver_msgs(&mut self) {
        {
            let mut mailbox = self.mailbox.lock().expect("mailbox poisoned");
            std::mem::swap(&mut *mailbox, &mut self.msgs);
        }
        if self.msgs.is_empty() {
            return;
        }
        let batch: Vec<(u64, P::Msg)> = self.msgs.drain(..).collect();
        for (conn_id, msg) in batch {
            let Some(mut conn) = self.conns.remove(&conn_id) else {
                self.stats.msgs_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            self.stats.msgs_delivered.fetch_add(1, Ordering::Relaxed);
            let action = self
                .protocol
                .on_msg(conn_id, &mut conn.state, &mut conn.io, msg);
            match self.apply_action(&mut conn, action) {
                Some(reason) => self.finish_close(conn_id, conn, reason),
                None => {
                    self.settle_interest(conn_id, &mut conn);
                    self.conns.insert(conn_id, conn);
                }
            }
        }
    }

    fn fire_timers(&mut self) {
        if self.wheel.is_empty() {
            return;
        }
        let now = Instant::now();
        self.expired.clear();
        let mut expired = std::mem::take(&mut self.expired);
        self.wheel.advance(now, &mut expired);
        for &(conn_id, kind) in &expired {
            let Some(mut conn) = self.conns.remove(&conn_id) else {
                continue;
            };
            match kind {
                TimerKind::Idle => {
                    let idle = self
                        .config
                        .idle_timeout
                        .expect("idle timer without idle timeout");
                    let due = conn.last_activity + idle;
                    if due <= now {
                        self.stats.evicted_idle.fetch_add(1, Ordering::Relaxed);
                        self.finish_close(conn_id, conn, CloseReason::IdleTimeout);
                        continue;
                    }
                    // activity since arming: re-arm at the earned time
                    self.wheel.insert(due, (conn_id, TimerKind::Idle));
                    self.conns.insert(conn_id, conn);
                }
                TimerKind::Stall => {
                    conn.stall_armed = false;
                    let stall = self
                        .config
                        .write_stall_timeout
                        .expect("stall timer without stall timeout");
                    match conn.stall_since {
                        Some(since) if since + stall <= now => {
                            self.stats.evicted_stall.fetch_add(1, Ordering::Relaxed);
                            self.finish_close(conn_id, conn, CloseReason::WriteStall);
                        }
                        Some(since) => {
                            self.wheel
                                .insert(since + stall, (conn_id, TimerKind::Stall));
                            conn.stall_armed = true;
                            self.conns.insert(conn_id, conn);
                        }
                        // buffer drained since arming: timer dissolves
                        None => {
                            self.conns.insert(conn_id, conn);
                        }
                    }
                }
            }
        }
        expired.clear();
        self.expired = expired;
    }

    fn finish_close(&mut self, conn_id: u64, conn: Conn<P::Conn>, reason: CloseReason) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.stats.live.fetch_sub(1, Ordering::Relaxed);
        self.protocol.on_close(conn_id, conn.state, reason);
        // conn.stream drops here, closing the fd after deregistration
    }

    fn teardown(&mut self) {
        // straggler mailbox messages — replies produced between the stop
        // signal and the loop exit — still get encoded, so a graceful
        // server drain (service first, engine second) loses nothing
        self.deliver_msgs();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in ids {
            if let Some(mut conn) = self.conns.remove(&conn_id) {
                // bounded-blocking final flush so a goodbye or reply in
                // the buffer reaches a live peer
                if !conn.io.tx.is_empty() {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = conn.io.tx.flush_to(&mut conn.stream);
                }
                self.finish_close(conn_id, conn, CloseReason::ServerShutdown);
            }
        }
    }
}
