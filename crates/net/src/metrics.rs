//! Network front-end metrics: connection lifecycle, frame and byte
//! traffic, backpressure, and protocol failures — atomic counters
//! snapshotted on demand and rendered next to the service's own page.
//!
//! One registry serves both front ends: a node renders it under the
//! `net_` prefix, the router under `proxy_` (followed by the router's
//! own routing and sampling counters).

use std::sync::atomic::{AtomicU64, Ordering};

use stackcache_obs::{JsonObj, PromText};

/// The front end's counter registry, updated from the poller thread and
/// snapshotted from anywhere.
#[derive(Debug, Default)]
pub struct NetMetrics {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    submits: AtomicU64,
    batch_submits: AtomicU64,
    batch_items: AtomicU64,
    replies: AtomicU64,
    busy_replies: AtomicU64,
    bad_requests: AtomicU64,
    protocol_errors: AtomicU64,
    pings: AtomicU64,
    traced_submits: AtomicU64,
    trace_fetches: AtomicU64,
    metrics_fetches: AtomicU64,
}

impl NetMetrics {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        NetMetrics::default()
    }

    pub(crate) fn on_conn_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_conn_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_frame_in(&self, bytes: u64) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_frame_out(&self, bytes: u64) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn on_submit(&self) {
        self.submits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_batch_submit(&self, items: u64) {
        self.batch_submits.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(items, Ordering::Relaxed);
    }

    pub(crate) fn on_reply(&self) {
        self.replies.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_busy(&self) {
        self.busy_replies.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_ping(&self) {
        self.pings.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_traced_submit(&self, items: u64) {
        self.traced_submits.fetch_add(items, Ordering::Relaxed);
    }

    pub(crate) fn on_trace_fetch(&self) {
        self.trace_fetches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_metrics_fetch(&self) {
        self.metrics_fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            submits: self.submits.load(Ordering::Relaxed),
            batch_submits: self.batch_submits.load(Ordering::Relaxed),
            batch_items: self.batch_items.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            traced_submits: self.traced_submits.load(Ordering::Relaxed),
            trace_fetches: self.trace_fetches.load(Ordering::Relaxed),
            metrics_fetches: self.metrics_fetches.load(Ordering::Relaxed),
            connections_live: 0,
            evicted_idle: 0,
            evicted_stall: 0,
            over_budget: 0,
        }
    }
}

/// A point-in-time copy of the front end's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// Frames received (well-formed headers, any kind).
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Payload bytes received, headers included.
    pub bytes_in: u64,
    /// Payload bytes sent, headers included.
    pub bytes_out: u64,
    /// `Submit` frames admitted.
    pub submits: u64,
    /// `BatchSubmit` frames admitted.
    pub batch_submits: u64,
    /// Requests carried by admitted `BatchSubmit` frames.
    pub batch_items: u64,
    /// `Reply` frames written.
    pub replies: u64,
    /// Replies refused with `Busy` (queue full or window exceeded).
    pub busy_replies: u64,
    /// Replies refused with `BadRequest` (body validation failures).
    pub bad_requests: u64,
    /// Connections ended by a protocol violation.
    pub protocol_errors: u64,
    /// `Ping` frames answered.
    pub pings: u64,
    /// Requests admitted with a trace context (`SubmitTraced` frames
    /// plus `BatchSubmitTraced` items).
    pub traced_submits: u64,
    /// `TraceFetch` frames answered.
    pub trace_fetches: u64,
    /// `MetricsFetch` frames answered (the in-protocol scrape path).
    pub metrics_fetches: u64,
    /// Currently live connections (engine gauge, filled at snapshot
    /// time).
    pub connections_live: u64,
    /// Connections evicted by the idle timeout.
    pub evicted_idle: u64,
    /// Connections evicted for not draining replies (write stall).
    pub evicted_stall: u64,
    /// Accepts refused because the connection budget was full.
    pub over_budget: u64,
}

/// Render `snap` as a Prometheus text-format page fragment under the
/// node's `net_` prefix (lint-clean on its own, and safe to concatenate
/// after the service's page).
#[must_use]
pub fn prometheus(snap: &NetSnapshot) -> String {
    let mut p = PromText::new();
    write_prometheus(&mut p, "net", snap);
    p.finish()
}

/// Append `snap`'s counters to `p`, every name under `prefix`: `net`
/// on a node, `proxy` on the router, so both pages come from one list.
pub(crate) fn write_prometheus(p: &mut PromText, prefix: &str, snap: &NetSnapshot) {
    let counters: [(&str, &str, u64); 20] = [
        (
            "connections_opened_total",
            "Connections accepted.",
            snap.connections_opened,
        ),
        (
            "connections_closed_total",
            "Connections fully torn down.",
            snap.connections_closed,
        ),
        ("frames_in_total", "Frames received.", snap.frames_in),
        ("frames_out_total", "Frames sent.", snap.frames_out),
        ("bytes_in_total", "Bytes received.", snap.bytes_in),
        ("bytes_out_total", "Bytes sent.", snap.bytes_out),
        ("submits_total", "Submit frames admitted.", snap.submits),
        (
            "batch_submits_total",
            "BatchSubmit frames admitted.",
            snap.batch_submits,
        ),
        (
            "batch_items_total",
            "Requests carried by admitted BatchSubmit frames.",
            snap.batch_items,
        ),
        ("replies_total", "Reply frames written.", snap.replies),
        (
            "busy_replies_total",
            "Replies refused with Busy (backpressure).",
            snap.busy_replies,
        ),
        (
            "bad_requests_total",
            "Replies refused with BadRequest (validation).",
            snap.bad_requests,
        ),
        (
            "protocol_errors_total",
            "Connections ended by a protocol violation.",
            snap.protocol_errors,
        ),
        ("pings_total", "Ping frames answered.", snap.pings),
        (
            "traced_submits_total",
            "Requests admitted with a trace context.",
            snap.traced_submits,
        ),
        (
            "trace_fetches_total",
            "TraceFetch frames answered.",
            snap.trace_fetches,
        ),
        (
            "metrics_fetches_total",
            "MetricsFetch frames answered (in-protocol scrape).",
            snap.metrics_fetches,
        ),
        (
            "evicted_idle_total",
            "Connections evicted by the idle timeout.",
            snap.evicted_idle,
        ),
        (
            "evicted_stall_total",
            "Connections evicted for not draining replies.",
            snap.evicted_stall,
        ),
        (
            "over_budget_total",
            "Accepts refused because the connection budget was full.",
            snap.over_budget,
        ),
    ];
    for (name, help, value) in counters {
        let name = format!("{prefix}_{name}");
        p.help(&name, help);
        p.typ(&name, "counter");
        p.sample_u64(&name, &[], value);
    }
    let live = format!("{prefix}_connections_live");
    p.help(&live, "Currently live connections.");
    p.typ(&live, "gauge");
    p.sample_u64(&live, &[], snap.connections_live);
}

/// Render `snap` as a JSON object.
#[must_use]
pub fn json(snap: &NetSnapshot) -> String {
    let mut o = JsonObj::new();
    write_json(&mut o, snap);
    o.finish()
}

/// Append `snap`'s counters to `o` as fields.
pub(crate) fn write_json(o: &mut JsonObj, snap: &NetSnapshot) {
    o.field_u64("connections_opened", snap.connections_opened)
        .field_u64("connections_closed", snap.connections_closed)
        .field_u64("frames_in", snap.frames_in)
        .field_u64("frames_out", snap.frames_out)
        .field_u64("bytes_in", snap.bytes_in)
        .field_u64("bytes_out", snap.bytes_out)
        .field_u64("submits", snap.submits)
        .field_u64("batch_submits", snap.batch_submits)
        .field_u64("batch_items", snap.batch_items)
        .field_u64("replies", snap.replies)
        .field_u64("busy_replies", snap.busy_replies)
        .field_u64("bad_requests", snap.bad_requests)
        .field_u64("protocol_errors", snap.protocol_errors)
        .field_u64("pings", snap.pings)
        .field_u64("traced_submits", snap.traced_submits)
        .field_u64("trace_fetches", snap.trace_fetches)
        .field_u64("metrics_fetches", snap.metrics_fetches)
        .field_u64("connections_live", snap.connections_live)
        .field_u64("evicted_idle", snap.evicted_idle)
        .field_u64("evicted_stall", snap.evicted_stall)
        .field_u64("over_budget", snap.over_budget);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_obs::prometheus_lint;

    #[test]
    fn page_is_lint_clean_and_carries_the_counters() {
        let m = NetMetrics::new();
        m.on_conn_opened();
        m.on_frame_in(24);
        m.on_frame_in(100);
        m.on_frame_out(64);
        m.on_submit();
        m.on_batch_submit(8);
        m.on_reply();
        m.on_busy();
        m.on_bad_request();
        m.on_ping();
        m.on_protocol_error();
        m.on_conn_closed();
        let snap = m.snapshot();
        assert_eq!(snap.frames_in, 2);
        assert_eq!(snap.bytes_in, 124);
        assert_eq!(snap.batch_items, 8);
        let page = prometheus(&snap);
        prometheus_lint(&page).unwrap();
        assert!(page.contains("net_batch_items_total 8\n"));
        assert!(page.contains("net_busy_replies_total 1\n"));
        let j = json(&snap);
        assert!(j.contains("\"bytes_in\":124"));
        assert!(j.contains("\"protocol_errors\":1"));
    }
}
