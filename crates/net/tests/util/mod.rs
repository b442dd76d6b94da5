//! Helpers shared by the network integration tests.

#![allow(dead_code)] // each test binary uses its own subset

use std::net::SocketAddr;
use std::sync::Arc;

use stackcache_harness::{all_engines, Outcome};
use stackcache_net::{NetConfig, NetProxy, NetServer, NetSnapshot, ProxyConfig, WireRequest};
use stackcache_svc::{Service, ServiceConfig};
use stackcache_vm::{program_of, Inst, Machine, Program};

/// `Lit(k) Dup Mul Dot`: prints `k*k` and halts with an empty stack.
pub fn quick_program(k: i64) -> Arc<Program> {
    Arc::new(program_of(&[Inst::Lit(k), Inst::Dup, Inst::Mul, Inst::Dot]))
}

/// A countdown loop of `iters` iterations (~5 instructions each),
/// halting with an empty stack. Slow enough to keep a worker busy while
/// a test lines up queued or over-window submissions behind it.
pub fn slow_program(iters: i64) -> Arc<Program> {
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

/// Run the plain reference interpreter on the request's machine image —
/// the oracle every wire reply is verified against.
pub fn reference_outcome(req: &WireRequest) -> Outcome {
    let reference = all_engines().into_iter().next().expect("engine registry");
    let mut proto = Machine::with_memory(req.memory.len());
    proto.memory_mut().copy_from_slice(&req.memory);
    proto.set_stack(&req.stack);
    proto.set_rstack(&req.rstack);
    reference.run_on(&req.program, &proto, req.fuel)
}

/// A small service for loopback tests.
pub fn small_service(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        queue_capacity: 256,
        ..ServiceConfig::default()
    })
}

/// A client-facing front end under test: a bare node, or a one-node
/// router in front of one. Both speak the same protocol, so the
/// protocol suites run against each.
pub enum FrontEnd {
    Server(NetServer),
    Proxy { proxy: NetProxy, node: NetServer },
}

impl FrontEnd {
    /// A node of `workers` workers with `config`.
    pub fn server(workers: usize, config: NetConfig) -> FrontEnd {
        FrontEnd::Server(NetServer::start(small_service(workers), config).expect("bind node"))
    }

    /// A router with `config` (its node list filled in) in front of one
    /// default node of `workers` workers.
    pub fn proxy(workers: usize, config: ProxyConfig) -> FrontEnd {
        let node =
            NetServer::start(small_service(workers), NetConfig::default()).expect("bind node");
        let proxy = NetProxy::start(ProxyConfig {
            nodes: vec![node.addr().to_string()],
            ..config
        })
        .expect("start router");
        FrontEnd::Proxy { proxy, node }
    }

    /// Both kinds with default settings, `workers` workers each.
    pub fn both(workers: usize) -> [FrontEnd; 2] {
        [
            FrontEnd::server(workers, NetConfig::default()),
            FrontEnd::proxy(workers, ProxyConfig::default()),
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            FrontEnd::Server(_) => "server",
            FrontEnd::Proxy { .. } => "proxy",
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match self {
            FrontEnd::Server(server) => server.addr(),
            FrontEnd::Proxy { proxy, .. } => proxy.addr(),
        }
    }

    /// The client-facing front end's counters.
    pub fn metrics(&self) -> NetSnapshot {
        match self {
            FrontEnd::Server(server) => server.metrics(),
            FrontEnd::Proxy { proxy, .. } => proxy.metrics().front,
        }
    }

    /// Drain and stop everything; the client-facing front end's final
    /// counters.
    pub fn shutdown(self) -> NetSnapshot {
        match self {
            FrontEnd::Server(server) => server.shutdown().1,
            FrontEnd::Proxy { proxy, node } => {
                let front = proxy.shutdown().front;
                let _ = node.shutdown();
                front
            }
        }
    }
}
