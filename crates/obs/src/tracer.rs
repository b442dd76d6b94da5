//! An [`ExecObserver`] that feeds the flight recorder.
//!
//! [`RingTracer`] records a heartbeat ([`EventKind::Progress`]) after
//! `interval`, `2 * interval`, `4 * interval`, … executed instructions,
//! so a dump taken after a trap, cancellation, or hang shows what the
//! run was doing — how far it got and where its instruction pointer was
//! — without paying a ring write per instruction. The gaps double, so
//! one run records at most 64 heartbeats however long it spins, and a
//! long run cannot evict its own earlier events from the ring. Compose it with other observers (a deadline
//! enforcer, a counting regime) through the tuple `ExecObserver` impl in
//! `stackcache-vm`.

use stackcache_vm::{ExecEvent, ExecObserver};

use crate::event::EventKind;
use crate::ring::FlightRecorder;

/// Records progress events for one request into one ring, at doubling
/// instruction counts.
#[derive(Debug)]
pub struct RingTracer<'a> {
    recorder: &'a FlightRecorder,
    ring: usize,
    request: u64,
    /// The instruction count of the next heartbeat.
    next: u64,
    executed: u64,
}

impl<'a> RingTracer<'a> {
    /// A tracer for `request` on `ring` whose first heartbeat comes
    /// after `interval` instructions (min 1), and each later one after
    /// twice as many as the one before.
    #[must_use]
    pub fn new(recorder: &'a FlightRecorder, ring: usize, request: u64, interval: u64) -> Self {
        RingTracer {
            recorder,
            ring,
            request,
            next: interval.max(1),
            executed: 0,
        }
    }

    /// Instructions observed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl ExecObserver for RingTracer<'_> {
    fn event(&mut self, ev: &ExecEvent) {
        self.executed += 1;
        if self.executed == self.next {
            // saturating: past 2^63 instructions no further heartbeat
            self.next = self.next.saturating_mul(2);
            self.recorder.record(
                self.ring,
                self.request,
                EventKind::Progress {
                    executed: self.executed,
                    ip: ev.ip.min(u32::MAX as usize) as u32,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_vm::{exec, program_of, Inst, Machine};

    #[test]
    fn tracer_heartbeats_at_its_interval() {
        let rec = FlightRecorder::new(1, 64);
        let insts: Vec<Inst> = std::iter::repeat_n(Inst::Nop, 25).collect();
        let p = program_of(&insts);
        let mut m = Machine::with_memory(64);
        let mut tracer = RingTracer::new(&rec, 0, 7, 10);
        exec::run_with_observer(&p, &mut m, 1_000, &mut tracer).unwrap();
        assert_eq!(tracer.executed(), 26); // 25 nops + the appended halt
        let dump = rec.dump();
        let progress: Vec<_> = dump.for_request(7);
        assert_eq!(progress.len(), 2); // at 10 and 20
        assert!(matches!(
            progress[0].kind,
            EventKind::Progress { executed: 10, .. }
        ));
    }

    #[test]
    fn heartbeat_gaps_double() {
        let rec = FlightRecorder::new(1, 64);
        let insts: Vec<Inst> = std::iter::repeat_n(Inst::Nop, 99).collect();
        let p = program_of(&insts);
        let mut m = Machine::with_memory(64);
        let mut tracer = RingTracer::new(&rec, 0, 7, 3);
        exec::run_with_observer(&p, &mut m, 1_000, &mut tracer).unwrap();
        let at: Vec<u64> = rec
            .dump()
            .for_request(7)
            .iter()
            .map(|e| match e.kind {
                EventKind::Progress { executed, .. } => executed,
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(at, [3, 6, 12, 24, 48, 96]);
    }

    #[test]
    fn tracer_composes_with_another_observer() {
        struct CountOnly(u64);
        impl ExecObserver for CountOnly {
            fn event(&mut self, _ev: &ExecEvent) {
                self.0 += 1;
            }
        }
        let rec = FlightRecorder::new(1, 16);
        let p = program_of(&[Inst::Lit(1), Inst::Lit(2), Inst::Add, Inst::Halt]);
        let mut m = Machine::with_memory(64);
        let mut obs = (CountOnly(0), RingTracer::new(&rec, 0, 1, 2));
        exec::run_with_observer(&p, &mut m, 1_000, &mut obs).unwrap();
        assert_eq!(obs.0 .0, 4);
        assert_eq!(obs.1.executed(), 4);
        assert_eq!(rec.dump().for_request(1).len(), 2); // at 2 and 4
    }
}
