//! The standalone cluster router: a consistent-hash front end over
//! running `netserve` nodes.
//!
//! Usage: `netproxy --node HOST:PORT [--node HOST:PORT ...]
//! [--bind ADDR] [--max-window N] [--upstream-window N] [--vnodes N]
//! [--label NAME] [--slow-ms N] [--sample-ppm N] [--trace-capacity N]`
//!
//! `--max-window` and `--vnodes` must be at least 1; a zero is refused
//! at start with exit code 1. `--label` names the router on the spans
//! it stamps; `--slow-ms` sets
//! the tail-sampling threshold (a request slower than this is captured
//! into the slow-trace store, alongside every trap and coalesced
//! fanout); `--sample-ppm` head-samples about N in every million
//! requests at ingress regardless of the tail triggers, keeping healthy
//! traffic visible (0, the default, disables it); `--trace-capacity`
//! bounds that store.
//!
//! Connects to every `--node`, prints the bound address (`routing on
//! HOST:PORT`) on stdout, then reads control lines from stdin:
//! `metrics` prints the Prometheus page — the client-side front end's
//! counters under `proxy_` (the same set a node exports under `net_`,
//! bytes, submits and bad requests included), then the router's own
//! (per-node `proxy_forwarded_total` carries a `node` label) —, `json`
//! the JSON document, `trace` the
//! tail-sampled trace trees as JSON, `stop` drains and exits. EOF on
//! stdin leaves the router running until killed.

use std::io::BufRead;
use std::process::ExitCode;

use stackcache_net::{NetProxy, ProxyConfig};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn arg_values(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                out.push(v);
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let nodes = arg_values("--node");
    if nodes.is_empty() {
        eprintln!("netproxy: at least one --node HOST:PORT is required");
        return ExitCode::FAILURE;
    }
    let mut config = ProxyConfig {
        nodes,
        ..ProxyConfig::default()
    };
    if let Some(bind) = arg_value("--bind") {
        config.bind = bind;
    }
    if let Some(v) = arg_value("--max-window").and_then(|v| v.parse().ok()) {
        config.max_window = v;
    }
    if let Some(v) = arg_value("--upstream-window").and_then(|v| v.parse().ok()) {
        config.upstream_window = v;
    }
    if let Some(v) = arg_value("--vnodes").and_then(|v| v.parse().ok()) {
        config.vnodes = v;
    }
    if let Some(v) = arg_value("--label") {
        config.node = v;
    }
    if let Some(v) = arg_value("--slow-ms").and_then(|v| v.parse().ok()) {
        config.slow_threshold = std::time::Duration::from_millis(v);
    }
    if let Some(v) = arg_value("--sample-ppm").and_then(|v| v.parse().ok()) {
        config.sample_ppm = v;
    }
    if let Some(v) = arg_value("--trace-capacity").and_then(|v| v.parse().ok()) {
        config.trace_store_capacity = v;
    }

    let proxy = match NetProxy::start(config) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("netproxy: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("routing on {}", proxy.addr());

    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "metrics" => print!("{}", proxy.prometheus()),
            "json" => println!("{}", proxy.json()),
            "trace" => println!("{}", proxy.trace_json()),
            "stop" => {
                let snap = proxy.shutdown();
                println!(
                    "routed {} submissions across {} nodes ({} replies, {} upstream errors)",
                    snap.forwarded_total(),
                    snap.forwarded.len(),
                    snap.front.replies,
                    snap.upstream_errors
                );
                return ExitCode::SUCCESS;
            }
            "" => {}
            other => eprintln!("netproxy: unknown command {other:?} (metrics|json|trace|stop)"),
        }
    }
    loop {
        std::thread::park();
    }
}
