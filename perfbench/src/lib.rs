//! One benchmark for the whole stack-caching stack.
//!
//! Four workloads drive the system through its public APIs only: an
//! in-process `svc::Service` for the paper's Fig. 20 programs, and
//! `net::Client` against `net::NetServer` / `net::NetProxy` on loopback
//! for generated request traffic. Every reply is checked against the
//! reference interpreter `vm::exec`. An end-to-end run prints the
//! user-visible metrics; a traced run prints per-layer metrics, each
//! timing one public call into one crate. See `README.md`.

#![warn(missing_docs)]

pub mod bench;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod served;
pub mod stats;
