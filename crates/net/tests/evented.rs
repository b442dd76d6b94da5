//! The evented serving core's connection-lifecycle contract, exercised
//! over live loopback sockets: window clamping against absurd Hello
//! requests, half-open drains, idle eviction that leaves healthy
//! neighbors alone, the connection budget, and the client's
//! goodbye-drain semantics. The window clamp and the Goodbye drain run
//! against both front ends, a node and a router.

mod util;

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use stackcache_core::EngineRegime;
use stackcache_net::{
    read_frame, Client, Frame, NetConfig, NetProxy, NetServer, ProxyConfig, ReplyStatus,
    WireRequest, DEFAULT_MAX_FRAME,
};
use util::{quick_program, reference_outcome, slow_program, small_service, FrontEnd};

/// Complete the Hello handshake on a raw stream, returning the granted
/// window.
fn raw_handshake(stream: &TcpStream, want: u32) -> u32 {
    let mut w = stream.try_clone().expect("clone");
    w.write_all(&Frame::Hello { window: want }.encode())
        .expect("hello");
    w.flush().expect("flush");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let Ok(Some((Frame::HelloOk { window, .. }, _))) = read_frame(&mut r, DEFAULT_MAX_FRAME) else {
        panic!("expected HelloOk");
    };
    window
}

#[test]
fn absurd_hello_windows_are_clamped_to_the_configured_cap() {
    let fronts = [
        FrontEnd::server(
            1,
            NetConfig {
                max_window: 7,
                ..NetConfig::default()
            },
        ),
        FrontEnd::proxy(
            1,
            ProxyConfig {
                max_window: 7,
                ..ProxyConfig::default()
            },
        ),
    ];
    for front in fronts {
        // a u32::MAX request must not be granted (the front end would
        // promise four billion in-flight slots); it gets the configured
        // cap
        let greedy = TcpStream::connect(front.addr()).expect("connect");
        assert_eq!(raw_handshake(&greedy, u32::MAX), 7, "{}", front.name());

        // a zero request still grants one slot — a window of zero could
        // never carry a request
        let tiny = TcpStream::connect(front.addr()).expect("connect");
        assert_eq!(raw_handshake(&tiny, 0), 1, "{}", front.name());

        drop(greedy);
        drop(tiny);
        let _ = front.shutdown();
    }
}

/// A zero window would leave every connection unable to carry a request
/// (and once panicked the poller at the first Hello); a ring with zero
/// points per node could route nothing. Both are refused at start.
#[test]
fn zero_window_and_zero_vnodes_are_refused_at_start() {
    let server = NetServer::start(
        small_service(1),
        NetConfig {
            max_window: 0,
            ..NetConfig::default()
        },
    );
    assert_eq!(
        server.err().map(|e| e.kind()),
        Some(io::ErrorKind::InvalidInput),
        "server with max_window 0"
    );

    let node = NetServer::start(small_service(1), NetConfig::default()).expect("bind");
    let nodes = vec![node.addr().to_string()];
    let zero_window = NetProxy::start(ProxyConfig {
        nodes: nodes.clone(),
        max_window: 0,
        ..ProxyConfig::default()
    });
    assert_eq!(
        zero_window.err().map(|e| e.kind()),
        Some(io::ErrorKind::InvalidInput),
        "proxy with max_window 0"
    );
    let zero_vnodes = NetProxy::start(ProxyConfig {
        nodes,
        vnodes: 0,
        ..ProxyConfig::default()
    });
    assert_eq!(
        zero_vnodes.err().map(|e| e.kind()),
        Some(io::ErrorKind::InvalidInput),
        "proxy with vnodes 0"
    );

    // the node is untouched and still serves
    let client = Client::connect(node.addr(), 4).expect("connect");
    let request = WireRequest::new(quick_program(3), EngineRegime::Tos).fuel(100_000);
    assert_eq!(
        client.call(&request).expect("reply").status,
        ReplyStatus::Ok
    );
    client.goodbye().expect("drain");
    let _ = node.shutdown();
}

#[test]
fn half_open_client_still_receives_its_pipelined_replies() {
    let server = NetServer::start(small_service(1), NetConfig::default()).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    assert!(raw_handshake(&stream, 8) >= 2);

    // two requests in flight, then close our write half: the server
    // sees EOF with replies still owed and must serve them half-open
    let mut w = stream.try_clone().expect("clone");
    let requests = [
        WireRequest::new(quick_program(5), EngineRegime::Tos).fuel(100_000),
        WireRequest::new(quick_program(9), EngineRegime::Dyncache).fuel(100_000),
    ];
    for (i, request) in requests.iter().enumerate() {
        w.write_all(
            &Frame::Submit {
                corr: i as u64 + 1,
                request: request.clone(),
            }
            .encode(),
        )
        .expect("submit");
    }
    w.flush().expect("flush");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..2 {
        let Ok(Some((Frame::Reply { corr, reply }, _))) = read_frame(&mut r, DEFAULT_MAX_FRAME)
        else {
            panic!("expected a reply on the half-open connection");
        };
        assert_eq!(reply.status, ReplyStatus::Ok);
        let request = &requests[corr as usize - 1];
        assert_eq!(reply.differs_from(&reference_outcome(request)), None);
    }
    // both replies served; the server closes its half cleanly
    assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Ok(None)));

    let net = server.metrics();
    assert_eq!(net.replies, 2);
    assert_eq!(net.protocol_errors, 0);
    let _ = server.shutdown();
}

#[test]
fn idle_connection_is_evicted_without_disturbing_a_pipelined_neighbor() {
    let server = NetServer::start(
        small_service(1),
        NetConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        },
    )
    .expect("bind");

    // the stalled connection: completes the handshake, then goes silent
    let silent = TcpStream::connect(server.addr()).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    assert!(raw_handshake(&silent, 4) >= 1);

    // the healthy neighbor on the same poller keeps pipelining well
    // past the idle deadline; its activity must keep resetting its own
    // clock while the silent peer's runs out
    let client = Client::connect(server.addr(), 8).expect("connect");
    for i in 0..25 {
        let request = WireRequest::new(quick_program(i + 2), EngineRegime::Tos).fuel(100_000);
        let reply = client.call(&request).expect("reply");
        assert_eq!(reply.status, ReplyStatus::Ok);
        std::thread::sleep(Duration::from_millis(30));
    }

    // by now (~750ms) the silent connection has been evicted: its
    // stream reads EOF, not a timeout
    let mut buf = [0u8; 16];
    let n = silent
        .try_clone()
        .expect("clone")
        .read(&mut buf)
        .expect("read after eviction");
    assert_eq!(n, 0, "the evicted connection must be closed, not open");

    let net = server.metrics();
    assert_eq!(net.evicted_idle, 1, "exactly the silent peer was evicted");
    assert_eq!(net.connections_live, 1, "the healthy neighbor survives");
    client.goodbye().expect("the neighbor still drains cleanly");
    let _ = server.shutdown();
}

#[test]
fn accepts_past_the_connection_budget_are_refused() {
    let server = NetServer::start(
        small_service(1),
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
    )
    .expect("bind");

    // fill the budget with two fully admitted connections
    let a = TcpStream::connect(server.addr()).expect("connect");
    assert!(raw_handshake(&a, 4) >= 1);
    let b = TcpStream::connect(server.addr()).expect("connect");
    assert!(raw_handshake(&b, 4) >= 1);

    // the third is closed on sight: the TCP connect succeeds (the
    // kernel completes it), but the server hangs up without a HelloOk
    let over = TcpStream::connect(server.addr()).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let mut w = over.try_clone().expect("clone");
    let _ = w.write_all(&Frame::Hello { window: 4 }.encode());
    let _ = w.flush();
    let mut r = BufReader::new(over);
    assert!(
        matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Ok(None) | Err(_)),
        "an over-budget connection must not be granted a window"
    );

    let net = server.metrics();
    assert_eq!(net.over_budget, 1);
    assert_eq!(net.connections_live, 2);
    drop((a, b));
    let _ = server.shutdown();
}

#[test]
fn goodbye_drains_late_replies_before_closing() {
    // one worker: the pipelined requests are still queued (their
    // replies outstanding) when Goodbye goes out, so the drain contract
    // — every reply, then GoodbyeOk — is actually exercised
    for front in FrontEnd::both(1) {
        let client = Client::connect(front.addr(), 8).expect("connect");

        let request =
            WireRequest::new(slow_program(100_000), EngineRegime::Reference).fuel(1_000_000_000);
        let pending: Vec<_> = (0..4)
            .map(|_| client.submit(&request).expect("submit"))
            .collect();
        client.goodbye().expect("drain acknowledged");

        // the drain delivered every late reply before the GoodbyeOk
        for p in pending {
            let reply = p.wait().expect("reply delivered during the drain");
            assert_eq!(reply.status, ReplyStatus::Ok, "{}", front.name());
        }
        assert_eq!(front.metrics().replies, 4, "{}", front.name());
        let _ = front.shutdown();
    }
}

#[test]
fn goodbye_after_the_server_hangs_up_fails_fast_instead_of_blocking() {
    let server = NetServer::start(small_service(1), NetConfig::default()).expect("bind");
    let client = Client::connect(server.addr(), 4).expect("connect");
    let _ = server.shutdown();

    // give the client's reader a moment to observe the hangup, so the
    // regression path (a waiter registered after the reader cleared the
    // slot, blocking forever) is the one under test
    std::thread::sleep(Duration::from_millis(100));

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(client.goodbye().is_err());
    });
    let failed_fast = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("goodbye must return on a dead connection, not block");
    assert!(failed_fast, "a dead connection cannot acknowledge a drain");
}
