//! Load-test the network front end over loopback and print its
//! per-mode throughput/latency table.
//!
//! Usage: `netbench [--quick] [--trace] [--cluster] [--trace-cluster]`
//!
//! With `--cluster`, runs the cluster tier instead: two (or more)
//! in-process `NetServer` nodes behind a consistent-hash `NetProxy`
//! router, driven through a routed phase (every regime, every reply
//! verified), an identical-burst coalescing phase, and a
//! thousand-connection flood — gating on zero divergences, byte-
//! identical fanned replies, saved executions, and the flood staying
//! under budget.
//!
//! With `--trace-cluster`, runs the distributed-tracing audit instead:
//! two traced nodes behind the router with the tail-sampling threshold
//! at zero, so every routed and coalesced request must land in the
//! slow-trace store as one rooted tree (proxy root, forward hop, node
//! stage spans — zero orphans), plus a tail phase proving healthy
//! requests are *not* captured while traps are. The sampled trees and
//! both scrape pages are fetched in-protocol, and the pages must pass
//! lint.
//!
//! Starts a [`stackcache_net::NetServer`] on a loopback port, drives it
//! from several concurrent client connections in three submission modes
//! — unary, window-deep pipelined, batched — across every engine
//! regime, and verifies every reply against the reference interpreter.
//! Exits nonzero on any divergence.
//!
//! The run *self-checks* the wire economics it claims: the batched
//! phase must clone measurably fewer proto machines than the unary
//! phase, the combined Prometheus page must pass lint, and (with
//! `--trace`) both flight recorders must have captured events and the
//! deadline probes must have filed incident reports.

use std::process::ExitCode;

use stackcache_bench::clusterload::{run_clusterload, ClusterLoadConfig};
use stackcache_bench::netload::{run_netload, Mode, NetLoadConfig};
use stackcache_bench::traceload::{run_traceload, TraceLoadConfig};
use stackcache_obs::prometheus_lint;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    if std::env::args().any(|a| a == "--trace-cluster") {
        return run_trace_cluster(quick);
    }
    if std::env::args().any(|a| a == "--cluster") {
        return run_cluster(quick);
    }
    let mut cfg = NetLoadConfig {
        trace,
        ..NetLoadConfig::default()
    };
    if quick {
        cfg.connections = 2;
        cfg.window = 8;
        cfg.unary_per_conn = 60;
        cfg.pipelined_per_conn = 240;
        cfg.batches_per_conn = 8;
        cfg.batch_size = 8;
        cfg.programs = 4;
        cfg.deadline_probes = 8;
    }

    println!(
        "netbench: {} connections, window {}, {} workers, {} programs x 8 regimes{}",
        cfg.connections,
        cfg.window,
        cfg.workers,
        cfg.programs,
        if trace { ", tracing on" } else { "" },
    );
    let report = run_netload(&cfg);

    println!("{}", report.table());
    let total: usize = report.phases.iter().map(|p| p.requests).sum();
    println!(
        "{} requests over the wire ({} unary, {} pipelined, {} batched), \
         {} deadline probes rejected as required",
        total + report.deadline_rejections,
        report.phase(Mode::Unary).map_or(0, |p| p.requests),
        report.phase(Mode::Pipelined).map_or(0, |p| p.requests),
        report.phase(Mode::Batched).map_or(0, |p| p.requests),
        report.deadline_rejections,
    );
    println!(
        "front end: {} connections, {} frames in / {} out, {} bytes in / {} out, \
         {} submits + {} batch frames ({} items), {} busy, {} bad requests, {} protocol errors",
        report.net.connections_opened,
        report.net.frames_in,
        report.net.frames_out,
        report.net.bytes_in,
        report.net.bytes_out,
        report.net.submits,
        report.net.batch_submits,
        report.net.batch_items,
        report.net.busy_replies,
        report.net.bad_requests,
        report.net.protocol_errors,
    );
    println!(
        "service: {} submitted, {} batches ({} requests), {} proto clones ({} saved), \
         cache {} hits / {} misses",
        report.svc.submitted,
        report.svc.batches,
        report.svc.batch_requests,
        report.svc.proto_clones,
        report.svc.proto_clones_saved,
        report.svc.cache_hits(),
        report.svc.cache_misses(),
    );

    // self-checks: the claims the table makes must hold in the metrics
    let mut failures = Vec::new();
    match (report.phase(Mode::Unary), report.phase(Mode::Batched)) {
        (Some(u), Some(b)) if u.requests == b.requests => {
            if b.proto_clones >= u.proto_clones {
                failures.push(format!(
                    "batched phase cloned {} proto machines, unary cloned {} — batching saved nothing",
                    b.proto_clones, u.proto_clones
                ));
            }
            if b.proto_clones_saved == 0 {
                failures.push("batched phase reports zero clones saved".to_string());
            }
        }
        (Some(u), Some(b)) => {
            // unequal request counts: the per-request clone rate must drop
            let unary_rate = u.proto_clones as f64 / u.requests.max(1) as f64;
            let batch_rate = b.proto_clones as f64 / b.requests.max(1) as f64;
            if batch_rate >= unary_rate {
                failures.push(format!(
                    "batched clone rate {batch_rate:.3} not below unary {unary_rate:.3}"
                ));
            }
        }
        _ => failures.push("missing unary or batched phase".to_string()),
    }
    if let Err(e) = prometheus_lint(&report.prometheus) {
        failures.push(format!("prometheus page fails lint: {e}"));
    }
    if !report.json.contains("\"svc\"") || !report.json.contains("\"net\"") {
        failures.push("json document missing svc or net section".to_string());
    }
    if report.net.connections_opened != report.net.connections_closed {
        failures.push(format!(
            "{} connections opened but {} closed — a connection leaked",
            report.net.connections_opened, report.net.connections_closed
        ));
    }
    if trace {
        if report.net_flight_events == 0 {
            failures.push("front-end flight recorder captured nothing".to_string());
        }
        if report.svc_flight_events == 0 {
            failures.push("service flight recorder captured nothing".to_string());
        }
        if report.incidents.is_empty() {
            // the deadline probes guarantee incidents on a traced run
            failures.push("no incident reports despite deadline probes".to_string());
        } else {
            println!(
                "\nflight recorders: {} net + {} svc events; {} incident reports; first:\n{}",
                report.net_flight_events,
                report.svc_flight_events,
                report.incidents.len(),
                report.incidents[0]
            );
        }
    }

    let mut code = ExitCode::SUCCESS;
    if report.clean() {
        println!("no divergences");
    } else {
        eprintln!("{} DIVERGENCES:", report.divergences.len());
        for d in report.divergences.iter().take(20) {
            eprintln!("  {d}");
        }
        code = ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        eprintln!("{} SELF-CHECK FAILURES:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        code = ExitCode::FAILURE;
    }
    code
}

/// The cluster run: nodes + router over loopback, three phases, and
/// the self-checks that gate the cluster tier's claims.
fn run_cluster(quick: bool) -> ExitCode {
    let mut cfg = ClusterLoadConfig::default();
    if quick {
        cfg.requests_per_conn = 300;
        cfg.flood_probes = 10;
    }
    println!(
        "netbench --cluster: {} nodes x {} workers, {} connections, window {}, \
         {} routed requests across {} regimes, {}-wide identical burst, {}-connection flood",
        cfg.nodes,
        cfg.workers_per_node,
        cfg.connections,
        cfg.window,
        cfg.connections * cfg.requests_per_conn,
        stackcache_core::EngineRegime::ALL.len(),
        cfg.connections * cfg.coalesce_burst,
        cfg.flood_connections,
    );
    let report = run_clusterload(&cfg);

    println!("{}", report.table());
    println!(
        "router: {} forwarded ({:?} per node), {} replies, {} busy, {} upstream errors, \
         peak {} live connections ({} over budget)",
        report.proxy.forwarded_total(),
        report.proxy.forwarded,
        report.proxy.front.replies,
        report.proxy.front.busy_replies,
        report.proxy.upstream_errors,
        report.flood_peak_live,
        report.proxy.front.over_budget,
    );
    println!(
        "nodes: {:?} submits, {:?} replies, {} coalesced joins, {} executions saved",
        report
            .node_net
            .iter()
            .map(|n| n.submits)
            .collect::<Vec<_>>(),
        report
            .node_net
            .iter()
            .map(|n| n.replies)
            .collect::<Vec<_>>(),
        report
            .node_svc
            .iter()
            .map(|s| s.coalesced_joins)
            .sum::<u64>(),
        report.coalesced_executions_saved(),
    );

    // self-checks: the claims the cluster tier makes must hold
    let mut failures = Vec::new();
    let routed_requests: usize = report.phases.iter().map(|p| p.requests).sum();
    if !quick && routed_requests < 10_000 {
        failures.push(format!(
            "only {routed_requests} verified requests — the full run must drive at least 10000"
        ));
    }
    if report.proxy.forwarded != report.expected_forwarded {
        failures.push(format!(
            "router forwarded {:?} per node, but the ring places the sent requests {:?}",
            report.proxy.forwarded, report.expected_forwarded
        ));
    }
    let node_submits: u64 = report
        .node_net
        .iter()
        .map(|n| n.submits + n.batch_items)
        .sum();
    if node_submits != report.proxy.forwarded_total() {
        failures.push(format!(
            "router claims {} forwarded but nodes saw {node_submits}",
            report.proxy.forwarded_total()
        ));
    }
    if report.coalesced_executions_saved() == 0 {
        failures.push("identical burst saved zero executions".to_string());
    }
    if report.fanout_mismatches > 0 {
        failures.push(format!(
            "{} fanned replies were not byte-identical",
            report.fanout_mismatches
        ));
    }
    if !quick && report.flood_peak_live < 1024 {
        failures.push(format!(
            "flood held only {} live connections — the budget must sustain at least 1024",
            report.flood_peak_live
        ));
    }
    if report.proxy.front.over_budget > 0 {
        failures.push(format!(
            "{} flood connections were refused under budget",
            report.proxy.front.over_budget
        ));
    }
    if let Err(e) = prometheus_lint(&report.prometheus()) {
        failures.push(format!("cluster prometheus page fails lint: {e}"));
    }

    let mut code = ExitCode::SUCCESS;
    let divergences = report.divergences();
    if divergences.is_empty() {
        println!("no divergences");
    } else {
        eprintln!("{} DIVERGENCES:", divergences.len());
        for d in divergences.iter().take(20) {
            eprintln!("  {d}");
        }
        code = ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        eprintln!("{} SELF-CHECK FAILURES:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        code = ExitCode::FAILURE;
    }
    code
}

/// The traced-cluster run: every tail-sampling trigger fired, every
/// sampled tree audited span by span, every scrape page linted.
fn run_trace_cluster(quick: bool) -> ExitCode {
    let mut cfg = TraceLoadConfig::default();
    if quick {
        cfg.requests_per_conn = 60;
        cfg.programs = 3;
        cfg.tail_ok_probes = 8;
        cfg.tail_trap_probes = 4;
    }
    println!(
        "netbench --trace-cluster: {} nodes x {} workers, {} connections, window {}, \
         {} routed requests across {} regimes, {}-wide identical burst, \
         {}+{} tail probes",
        cfg.nodes,
        cfg.workers_per_node,
        cfg.connections,
        cfg.window,
        cfg.connections * cfg.requests_per_conn,
        stackcache_core::EngineRegime::ALL.len(),
        cfg.connections * cfg.coalesce_burst,
        cfg.tail_ok_probes,
        cfg.tail_trap_probes,
    );
    let report = run_traceload(&cfg);

    println!("{}", report.table());
    println!(
        "tracing: {} sampled trees ({} audited clean), {} with coalesced fanout, \
         {} assembly failures, {} traced submits at the nodes",
        report.trees,
        report.trees - report.tree_errors.len(),
        report.coalesced_trees,
        report.assembly_failures,
        report.node_traced_submits,
    );
    println!(
        "tail: {} sampled of {} trapping probes (healthy probes left no trace)",
        report.tail_sampled, report.tail_expected,
    );

    // self-checks: the claims the tracing tier makes must hold
    let sampled_target = (cfg.connections * (cfg.requests_per_conn + cfg.coalesce_burst)) as u64;
    let mut failures = Vec::new();
    if report.proxy.sampled_traces != sampled_target {
        failures.push(format!(
            "threshold zero sampled {} of {sampled_target} requests",
            report.proxy.sampled_traces
        ));
    }
    if report.trees as u64 != report.proxy.sampled_traces {
        failures.push(format!(
            "store holds {} trees but {} were sampled — the store lost traces",
            report.trees, report.proxy.sampled_traces
        ));
    }
    if report.assembly_failures > 0 {
        failures.push(format!(
            "{} sampled traces failed to assemble into a rooted tree",
            report.assembly_failures
        ));
    }
    for e in report.tree_errors.iter().take(10) {
        failures.push(format!("malformed tree: {e}"));
    }
    if report.coalesced_trees == 0 {
        failures.push("no sampled tree records a coalesced fanout".to_string());
    }
    if report.node_traced_submits < report.proxy.sampled_traces {
        failures.push(format!(
            "nodes saw only {} traced submits for {} sampled traces — \
             the proxy is not propagating context upstream",
            report.node_traced_submits, report.proxy.sampled_traces
        ));
    }
    if report.tail_sampled != report.tail_expected as u64 {
        failures.push(format!(
            "tail phase sampled {} traces, expected exactly the {} traps",
            report.tail_sampled, report.tail_expected
        ));
    }
    if let Err(e) = prometheus_lint(&report.proxy_page) {
        failures.push(format!("proxy scrape page fails lint: {e}"));
    }
    if let Err(e) = prometheus_lint(&report.node_page) {
        failures.push(format!("node scrape page fails lint: {e}"));
    }
    if !report.trace_json.starts_with('[') || !report.trace_json.contains("\"root\"") {
        failures.push("in-protocol trace dump is not a tree array".to_string());
    }

    let mut code = ExitCode::SUCCESS;
    let divergences = report.divergences();
    if divergences.is_empty() {
        println!("no divergences");
    } else {
        eprintln!("{} DIVERGENCES:", divergences.len());
        for d in divergences.iter().take(20) {
            eprintln!("  {d}");
        }
        code = ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        eprintln!("{} SELF-CHECK FAILURES:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        code = ExitCode::FAILURE;
    }
    code
}
