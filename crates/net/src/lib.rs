//! A wire-protocol network front end for the execution service.
//!
//! The serving story so far ran in one process: submit a [`Request`],
//! wait on a ticket. This crate puts the service on a socket — a
//! std-only TCP front end speaking a length-prefixed binary protocol —
//! so the translate-once economics of stack caching can be shared by
//! many client processes:
//!
//! * **the wire protocol** ([`wire`]): versioned 20-byte frame headers;
//!   request frames carrying the program as opcode words plus the
//!   starting machine image; reply frames carrying status, stacks,
//!   output, a memory-image hash, and per-request statistics; explicit
//!   `Hello`/`Ping`/`Goodbye` control frames. Every malformed input is
//!   a typed [`WireError`], never a panic;
//! * **one front end, two backends**: the handshake, window, refusals,
//!   drains and counters are written once and shared by the node
//!   ([`NetServer`], in front of a local service) and the router
//!   ([`NetProxy`], in front of a consistent-hash ring of nodes), so
//!   both answer every frame the same way;
//! * **pipelining**: the handshake grants each connection an in-flight
//!   window; inside it, submissions flow without waiting and replies
//!   return in *completion* order, matched by client correlation ids.
//!   Past the window — or past the service queue — the answer is an
//!   immediate typed `Busy`, the wire form of
//!   [`SubmitError::QueueFull`](stackcache_svc::SubmitError);
//! * **batched submission**: a `BatchSubmit` frame is admitted as one
//!   service job — one queue slot, one proto-machine clone amortized
//!   across the batch (the `proto_clones_saved` metric);
//! * **a blocking client** ([`Client`]): a background reader
//!   demultiplexes replies so any number of threads can pipeline over
//!   one connection;
//! * **observability**: connection lifecycle and frame events in a
//!   flight-recorder ring, counters on a lint-clean Prometheus/JSON
//!   page next to the service's own (`net_` on a node, the same
//!   registry under `proxy_` on the router).
//!
//! ```
//! use std::sync::Arc;
//! use stackcache_core::EngineRegime;
//! use stackcache_net::{Client, NetConfig, NetServer, ReplyStatus, WireRequest};
//! use stackcache_svc::{Service, ServiceConfig};
//! use stackcache_vm::{program_of, Inst};
//!
//! let server = NetServer::start(
//!     Service::start(ServiceConfig::default()),
//!     NetConfig::default(),
//! )
//! .expect("bind");
//! let client = Client::connect(server.addr(), 8).expect("connect");
//!
//! let program = Arc::new(program_of(&[Inst::Lit(6), Inst::Dup, Inst::Mul, Inst::Dot]));
//! let reply = client
//!     .call(&WireRequest::new(program, EngineRegime::Static(2)).fuel(10_000))
//!     .expect("reply");
//! assert_eq!(reply.status, ReplyStatus::Ok);
//! assert_eq!(reply.output, b"36 ");
//!
//! client.goodbye().expect("drain");
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
mod front;
pub mod metrics;
pub mod proxy;
pub mod ring;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, PendingReply, TracedReply};
pub use front::{ERR_EXPECTED_HELLO, ERR_UNEXPECTED_FRAME};
pub use metrics::{NetMetrics, NetSnapshot};
pub use proxy::{NetProxy, ProxyConfig, ProxySnapshot};
pub use ring::{program_key, HashRing};
pub use server::{NetConfig, NetServer};
pub use wire::{
    decode_frame, fnv1a64, read_frame, try_decode_frame, Frame, FrameKind, ReadError, ReplyStatus,
    WireError, WireReply, WireRequest, DEFAULT_MAX_FRAME, FEATURE_TRACE, HEADER_LEN, MAGIC,
    METRICS_FORMAT_JSON, METRICS_FORMAT_PROMETHEUS, PROTOCOL_VERSION,
};
