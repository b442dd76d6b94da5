//! In-flight request coalescing: identical concurrent submissions share
//! one execution.
//!
//! The plan-hashed cache key (program, regime, peephole, fusion plan)
//! already makes "same translation" precise; coalescing extends it to
//! "same *run*" by folding in everything else an execution depends on —
//! the full prototype machine image (stacks, memory, output, limits),
//! the fuel budget, and the wall-clock deadline. Two submissions for
//! which [`same_execution`] holds are observationally identical: same
//! outcome, same trap, same deadline behaviour.
//!
//! The mechanism is a leader/waiter map. The first submission of a key
//! enqueues normally and registers itself as the **leader**; while it is
//! in flight, later submissions of the same key **join** its waiter list
//! instead of entering the queue (no queue slot, no execution). The key
//! is a 64-bit hash, so a join also checks that the joiner's request
//! equals the leader's field by field ([`same_execution`]); a request
//! whose key collides with a different in-flight one runs on its own,
//! uncoalesced. When the leader's reply is produced — completion, trap,
//! deadline, or shutdown refusal alike — the worker takes the waiter
//! list *before* answering anyone and fans the one reply out to every
//! waiter. Joins and takes both happen under the map lock, so a racing
//! submission either joins before the take (and is answered by the
//! fanout) or finds the key vacant after it (and becomes a fresh
//! leader); no join is ever lost.
//!
//! Fanned-out replies are delivered under the **leader's** request id,
//! so a network front end produces byte-identical reply bodies for every
//! coalesced submission — only the transport-level correlation ids
//! (each waiter's own token) differ.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::worker::ReplySink;
use crate::Request;

/// The identity of one execution for coalescing purposes.
///
/// Everything that can influence the reply participates: program
/// content, regime, peephole, fusion plan, fuel, deadline, and the
/// complete prototype machine image. Distinct deadlines hash apart on
/// purpose — coalescing them would let one submission's budget decide
/// another's fate.
#[must_use]
pub fn coalesce_key(request: &Request) -> u64 {
    let mut h = DefaultHasher::new();
    request.program.entry().hash(&mut h);
    request.program.insts().hash(&mut h);
    request.regime.index().hash(&mut h);
    request.peephole.hash(&mut h);
    request.fuel.hash(&mut h);
    request.deadline.hash(&mut h);
    match &request.fusion_plan {
        Some(plan) => plan.hash64().hash(&mut h),
        None => 0u64.hash(&mut h),
    }
    let m = &request.proto;
    m.stack().hash(&mut h);
    m.rstack().hash(&mut h);
    m.memory().hash(&mut h);
    m.output().hash(&mut h);
    m.stack_limit().hash(&mut h);
    m.rstack_limit().hash(&mut h);
    h.finish()
}

/// Whether `a` and `b` ask for the same execution: every field
/// [`coalesce_key`] hashes is equal (programs and machine images are
/// compared by content when they are not the same allocation).
#[must_use]
pub fn same_execution(a: &Request, b: &Request) -> bool {
    let same_program = Arc::ptr_eq(&a.program, &b.program)
        || (a.program.entry() == b.program.entry() && a.program.insts() == b.program.insts());
    let same_plan = match (&a.fusion_plan, &b.fusion_plan) {
        (Some(x), Some(y)) => Arc::ptr_eq(x, y) || x == y,
        (None, None) => true,
        _ => false,
    };
    let (x, y) = (&a.proto, &b.proto);
    let same_image = Arc::ptr_eq(x, y)
        || (x.stack() == y.stack()
            && x.rstack() == y.rstack()
            && x.memory() == y.memory()
            && x.output() == y.output()
            && x.stack_limit() == y.stack_limit()
            && x.rstack_limit() == y.rstack_limit());
    same_program
        && a.regime == b.regime
        && a.peephole == b.peephole
        && a.fuel == b.fuel
        && a.deadline == b.deadline
        && same_plan
        && same_image
}

/// One joined submission awaiting the leader's reply.
pub(crate) struct Waiter {
    /// The joiner's own service-assigned request id (its trace key).
    pub(crate) id: u64,
    pub(crate) sink: ReplySink,
}

/// One in-flight execution other submissions may join.
struct InFlight {
    /// The leader's request id (fanned replies are delivered under it).
    leader: u64,
    /// The leader's request, which a joiner must equal.
    request: Request,
    waiters: Vec<Waiter>,
}

/// What [`CoalesceGuard::try_join`] found under a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Join {
    /// An identical execution is in flight; the waiter joined the
    /// leader with this request id.
    Joined(u64),
    /// Nothing is in flight under the key: lead it.
    Vacant,
    /// A different request holds the key (a hash collision): run
    /// without coalescing.
    Collision,
}

/// The leader/waiter registry. One per service (when coalescing is on).
#[derive(Default)]
pub(crate) struct CoalesceMap {
    inner: Mutex<HashMap<u64, InFlight>>,
}

impl std::fmt::Debug for CoalesceMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "CoalesceMap({keys} keys in flight)")
    }
}

impl CoalesceMap {
    /// Lock the registry for an admission transaction. The service holds
    /// this guard across the queue push so a failed push can roll back
    /// every registration it made with no window for a foreign join or a
    /// worker's fanout to observe the half-admitted state.
    pub(crate) fn lock(&self) -> CoalesceGuard<'_> {
        CoalesceGuard {
            map: self.inner.lock().expect("coalesce lock"),
        }
    }

    /// Retire `key`'s in-flight entry, returning its waiters. Called by
    /// the worker *before* delivering the leader's reply, so a racing
    /// join lands either in the returned list or on a fresh leader.
    pub(crate) fn take_waiters(&self, key: u64, leader_id: u64) -> Vec<Waiter> {
        let mut map = self.inner.lock().expect("coalesce lock");
        match map.get(&key) {
            // the entry must be this leader's: a rolled-back leader's
            // key may since have been re-led by a fresh submission
            Some(inflight) if inflight.leader == leader_id => map
                .remove(&key)
                .map(|inflight| inflight.waiters)
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// In-flight keys right now (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("coalesce lock").len()
    }
}

/// The locked registry during one admission transaction.
pub(crate) struct CoalesceGuard<'a> {
    map: MutexGuard<'a, HashMap<u64, InFlight>>,
}

impl CoalesceGuard<'_> {
    /// If an execution identical to `request` is in flight under `key`,
    /// join it: the waiter is parked and the leader's request id
    /// returned. On [`Join::Vacant`] the caller should
    /// [`register_leader`](Self::register_leader); on
    /// [`Join::Collision`] it should run the request uncoalesced.
    pub(crate) fn try_join(
        &mut self,
        key: u64,
        request: &Request,
        waiter: impl FnOnce() -> Waiter,
    ) -> Join {
        match self.map.get_mut(&key) {
            Some(inflight) if same_execution(&inflight.request, request) => {
                inflight.waiters.push(waiter());
                Join::Joined(inflight.leader)
            }
            Some(_) => Join::Collision,
            None => Join::Vacant,
        }
    }

    /// Register `leader_id`, running `request`, as the in-flight
    /// execution for `key`.
    pub(crate) fn register_leader(&mut self, key: u64, leader_id: u64, request: &Request) {
        self.map.insert(
            key,
            InFlight {
                leader: leader_id,
                request: request.clone(),
                waiters: Vec::new(),
            },
        );
    }

    /// Roll back a leader registration whose enqueue failed. Any waiters
    /// parked on it were joined under this same guard (the lock was
    /// never released), so they belong to the failing admission and are
    /// returned for the caller to dispose of with its error.
    pub(crate) fn withdraw_leader(&mut self, key: u64, leader_id: u64) -> Vec<Waiter> {
        match self.map.get(&key) {
            Some(inflight) if inflight.leader == leader_id => self
                .map
                .remove(&key)
                .map(|inflight| inflight.waiters)
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Roll back one join made under this guard (the enqueue of the same
    /// admission failed after the join).
    pub(crate) fn unjoin(&mut self, key: u64, waiter_id: u64) -> Option<Waiter> {
        let inflight = self.map.get_mut(&key)?;
        let at = inflight.waiters.iter().position(|w| w.id == waiter_id)?;
        Some(inflight.waiters.remove(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use stackcache_core::EngineRegime;
    use stackcache_vm::{program_of, Inst, Machine};

    fn request() -> Request {
        Request::new(
            Arc::new(program_of(&[Inst::Lit(1), Inst::Dot, Inst::Halt])),
            EngineRegime::Tos,
        )
    }

    #[test]
    fn key_separates_every_execution_relevant_field() {
        let base = request();
        let k = coalesce_key(&base);
        assert_eq!(k, coalesce_key(&base.clone()), "key must be deterministic");

        assert_ne!(k, coalesce_key(&base.clone().fuel(99)));
        assert_ne!(
            k,
            coalesce_key(&base.clone().deadline(Duration::from_millis(5)))
        );
        assert_ne!(k, coalesce_key(&base.clone().peephole(true)));

        let mut other = base.clone();
        other.regime = EngineRegime::Static(2);
        assert_ne!(k, coalesce_key(&other));

        let mut seeded = Machine::with_memory(64);
        seeded.push(7);
        assert_ne!(k, coalesce_key(&base.clone().on(Arc::new(seeded))));

        let mut poked = Machine::with_memory(stackcache_harness::MEMORY_BYTES);
        assert!(poked.store_byte(0, 1));
        assert_ne!(k, coalesce_key(&base.on(Arc::new(poked))));
    }

    fn direct_waiter(id: u64) -> Waiter {
        Waiter {
            id,
            sink: ReplySink::Direct(std::sync::mpsc::channel().0),
        }
    }

    #[test]
    fn lead_then_join_then_take_preserves_every_waiter() {
        let map = CoalesceMap::default();
        let key = 42;
        let r = request();
        {
            let mut g = map.lock();
            assert_eq!(
                g.try_join(key, &r, || unreachable!("vacant key")),
                Join::Vacant
            );
            g.register_leader(key, 10, &r);
        }
        for waiter_id in 11..14 {
            let mut g = map.lock();
            assert_eq!(
                g.try_join(key, &r.clone(), || direct_waiter(waiter_id)),
                Join::Joined(10)
            );
        }
        let waiters = map.take_waiters(key, 10);
        assert_eq!(
            waiters.iter().map(|w| w.id).collect::<Vec<_>>(),
            vec![11, 12, 13]
        );
        assert_eq!(map.len(), 0);
        // the key is vacant again: the next submission leads
        assert_eq!(
            map.lock().try_join(key, &r, || unreachable!()),
            Join::Vacant
        );
    }

    /// Equal 64-bit keys are not proof of equal requests: a different
    /// request under an occupied key must not be answered with the
    /// leader's reply.
    #[test]
    fn a_key_collision_runs_uncoalesced() {
        let map = CoalesceMap::default();
        let key = 5;
        let leader = request();
        let other = request().fuel(99);
        let mut g = map.lock();
        g.register_leader(key, 1, &leader);
        assert_eq!(
            g.try_join(key, &other, || unreachable!(
                "a foreign request must not park"
            )),
            Join::Collision
        );
        // an equal request built separately (no shared allocations) joins
        let twin = Request::new(
            Arc::new(program_of(&[Inst::Lit(1), Inst::Dot, Inst::Halt])),
            EngineRegime::Tos,
        );
        assert_eq!(g.try_join(key, &twin, || direct_waiter(2)), Join::Joined(1));
        drop(g);
        assert_eq!(map.take_waiters(key, 1).len(), 1);
    }

    #[test]
    fn same_execution_separates_every_keyed_field() {
        let base = request();
        assert!(same_execution(&base, &base.clone()));
        assert!(!same_execution(&base, &base.clone().fuel(99)));
        assert!(!same_execution(&base, &base.clone().peephole(true)));
        assert!(!same_execution(
            &base,
            &base.clone().deadline(Duration::from_millis(5))
        ));
        let mut other = base.clone();
        other.regime = EngineRegime::Static(2);
        assert!(!same_execution(&base, &other));
        let mut poked = Machine::with_memory(stackcache_harness::MEMORY_BYTES);
        assert!(poked.store_byte(0, 1));
        assert!(!same_execution(&base, &base.clone().on(Arc::new(poked))));
        let mut plan = base.clone();
        plan.fusion_plan = Some(Arc::new(stackcache_vm::FusionPlan::default()));
        assert!(!same_execution(&base, &plan));
    }

    #[test]
    fn take_ignores_a_key_led_by_someone_else() {
        let map = CoalesceMap::default();
        let key = 7;
        map.lock().register_leader(key, 1, &request());
        // a stale leader (rolled back, then key re-led) must not steal
        // the new leader's waiters
        assert!(map.take_waiters(key, 999).is_empty());
        assert_eq!(map.len(), 1);
        assert_eq!(map.take_waiters(key, 1).len(), 0);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn failed_admission_rolls_back_cleanly() {
        let map = CoalesceMap::default();
        let key = 9;
        {
            let mut g = map.lock();
            let r = request();
            g.register_leader(key, 1, &r);
            assert_eq!(g.try_join(key, &r, || direct_waiter(2)), Join::Joined(1));
            // enqueue failed: the joiner comes back out, the leader
            // registration dissolves
            assert_eq!(g.unjoin(key, 2).map(|w| w.id), Some(2));
            let strays = g.withdraw_leader(key, 1);
            assert!(strays.is_empty());
        }
        assert_eq!(map.len(), 0);
    }
}
