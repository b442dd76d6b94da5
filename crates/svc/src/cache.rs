//! The sharded, bounded compiled-program cache: translate once per
//! `(program, regime, peephole)` configuration, execute many times.
//!
//! Filling an entry also runs the whole-program abstract interpreter
//! once, so every cached translation carries its [`SafetyProof`]: a
//! [`VerifiedArtifact`]. Workers consult the proof per request
//! ([`SafetyProof::admit`]) to route proven programs to the unchecked
//! fast path; the proof's frozen-memory dependencies are revalidated
//! against each request's machine, so one cached proof serves many
//! prototype machines soundly.
//!
//! Keys are a 64-bit hash of the program's instructions and entry point
//! (keyed per cache, so colliding texts cannot be precomputed) plus the
//! execution configuration; values are cheaply clonable
//! [`VerifiedArtifact`]s. A key match is not identity: a hit is served
//! only when the entry was built from the request's exact program text,
//! because its proof may admit unchecked native code. Any other match
//! is a miss whose fresh translation replaces the entry.
//!
//! Shards bound lock contention: two workers compiling different
//! programs almost never touch the same lock, and compilation itself
//! happens *outside* the shard lock (two workers racing on the same cold
//! key may both compile — the winner's artifact is kept, which is
//! cheaper than serializing every miss behind a lock).
//!
//! Each shard is capacity-bounded with **second-chance** (clock)
//! eviction: a hit marks its entry referenced; an insert into a full
//! shard sweeps the clock queue, sparing referenced entries once and
//! evicting the first unreferenced one. Recently reused translations
//! survive a scan of one-shot programs, at one bit of bookkeeping per
//! entry — no recency list to maintain on the hit path.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use stackcache_analysis::{analyze, analyze_with, Analysis, AnalysisBudget, SafetyProof, Verdict};
use stackcache_core::{CompiledArtifact, EngineRegime};
use stackcache_vm::{FusionPlan, Machine, Program};

/// A compiled translation paired with the abstract interpreter's verdict
/// for its program — the unit the cache stores and workers execute.
#[derive(Debug)]
pub struct VerifiedArtifact {
    /// The program text the translation and the proof were made from
    /// (the translation's own program differs when peephole-optimized).
    source: Arc<Program>,
    artifact: CompiledArtifact,
    analysis: Analysis,
    /// Whether the deep (re-admission) analysis budget has already been
    /// spent on this entry — set by [`ProgramCache::upgrade_guarded`]
    /// whether or not the deep pass improved the verdict, so the
    /// background upgrader never re-analyzes the same artifact twice.
    deep: bool,
}

impl VerifiedArtifact {
    /// Compile `program` for `(regime, peephole)` and analyze it against
    /// `proto`'s initial memory (for deferred-word constant folding).
    #[must_use]
    pub fn build(
        program: &Program,
        regime: EngineRegime,
        peephole: bool,
        proto: Option<&Machine>,
    ) -> Self {
        VerifiedArtifact::build_with_plan(program, regime, peephole, proto, None)
    }

    /// [`build`](VerifiedArtifact::build) with an explicit fusion plan
    /// for the fused/quickened regimes (ignored by the others).
    ///
    /// The analysis runs on the *program*, which fusion does not alter —
    /// a plan changes only the dispatch map — so the safety proof is
    /// valid for any plan, including one swapped in by a profile cycle.
    #[must_use]
    pub fn build_with_plan(
        program: &Program,
        regime: EngineRegime,
        peephole: bool,
        proto: Option<&Machine>,
        plan: Option<&FusionPlan>,
    ) -> Self {
        let artifact = CompiledArtifact::compile_with_plan(program, regime, peephole, plan);
        let source = if peephole {
            Arc::new(program.clone())
        } else {
            Arc::clone(artifact.program())
        };
        VerifiedArtifact {
            source,
            artifact,
            analysis: analyze(program, proto),
            deep: false,
        }
    }

    /// Whether this entry was built from exactly `program`'s text.
    fn built_from(&self, program: &Program) -> bool {
        self.source.entry() == program.entry() && self.source.insts() == program.insts()
    }

    /// The compiled translation.
    #[must_use]
    pub fn artifact(&self) -> &CompiledArtifact {
        &self.artifact
    }

    /// The full analysis (proof plus per-word reports).
    #[must_use]
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The safety proof consulted at admission time.
    #[must_use]
    pub fn proof(&self) -> &SafetyProof {
        &self.analysis.proof
    }

    /// Whether the deep re-admission analysis has already run on this
    /// entry (upgraded or not).
    #[must_use]
    pub fn deep(&self) -> bool {
        self.deep
    }
}

/// A cache key: program identity (by content hash) plus the compilation
/// configuration, including the fusion plan for the fused/quickened
/// regimes (a re-fused program under a new profile-guided plan is a new
/// translation; the same program under the same plan re-admits to the
/// cached — possibly already quickened — artifact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    program: u64,
    regime: EngineRegime,
    peephole: bool,
    plan: u64,
}

/// The plan component of a [`Key`]: zero unless the regime fuses.
/// `None` for a fusing regime means the deterministic static-default
/// plan, which is a pure function of the program — so keying it on a
/// constant marker stays sound.
fn plan_hash(regime: EngineRegime, plan: Option<&FusionPlan>) -> u64 {
    match regime {
        EngineRegime::Fused | EngineRegime::Quickened => plan.map_or(1, FusionPlan::hash64),
        _ => 0,
    }
}

/// One cached artifact plus its second-chance reference bit.
#[derive(Debug)]
struct CacheEntry {
    artifact: Arc<VerifiedArtifact>,
    referenced: bool,
}

/// One independently locked partition: the map plus the clock queue the
/// eviction hand sweeps.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, CacheEntry>,
    clock: VecDeque<Key>,
}

impl Shard {
    /// Insert `key`, evicting per second-chance if the shard is full.
    /// Returns how many entries were evicted (0 or 1).
    fn insert(&mut self, key: Key, artifact: Arc<VerifiedArtifact>, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() >= capacity {
            let Some(victim) = self.clock.pop_front() else {
                break; // map and clock out of sync; never happens
            };
            match self.map.get_mut(&victim) {
                Some(e) if e.referenced => {
                    // spare it once: clear the bit, move the hand on
                    e.referenced = false;
                    self.clock.push_back(victim);
                }
                Some(_) => {
                    self.map.remove(&victim);
                    evicted += 1;
                }
                None => {} // stale clock entry
            }
        }
        self.map.insert(
            key,
            CacheEntry {
                artifact,
                referenced: false,
            },
        );
        self.clock.push_back(key);
        evicted
    }
}

/// A sharded, bounded map from `(program, regime, peephole)` to compiled
/// artifacts, shared by every worker.
#[derive(Debug)]
pub struct ProgramCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound (total capacity divided across shards).
    shard_capacity: usize,
    evictions: AtomicU64,
    /// Keys the program hash and the shard choice, fresh per cache.
    hasher: RandomState,
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The artifact was already cached.
    Hit,
    /// The artifact was compiled (and cached) by this call.
    Miss,
}

/// The cache's occupancy counters at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifacts currently cached.
    pub size: usize,
    /// Maximum artifacts the cache will hold.
    pub capacity: usize,
    /// Artifacts evicted since the cache was created.
    pub evictions: u64,
}

/// What one background re-admission pass over the cache did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpgradeStats {
    /// Guarded entries the pass deep-analyzed this time.
    pub scanned: usize,
    /// Entries whose verdict improved to proven/total — their artifact
    /// was atomically swapped for one that admits unchecked execution.
    pub upgraded: usize,
    /// Upgraded entries that additionally carry a finite fuel bound.
    pub fuel_proofs: usize,
}

/// Default total capacity when none is given.
pub const DEFAULT_CAPACITY: usize = 4096;

impl ProgramCache {
    /// A cache with `shards` partitions and the default total capacity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, DEFAULT_CAPACITY)
    }

    /// A cache with `shards` partitions bounded to `capacity` entries in
    /// total (each shard holds its even share, at least one).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_capacity(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        ProgramCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards).max(1),
            evictions: AtomicU64::new(0),
            hasher: RandomState::new(),
        }
    }

    /// The key of `program` under one compilation configuration: a
    /// content hash of its entry point and instruction sequence.
    fn key(
        &self,
        program: &Program,
        regime: EngineRegime,
        peephole: bool,
        plan: Option<&FusionPlan>,
    ) -> Key {
        Key {
            program: self.hasher.hash_one((program.entry(), program.insts())),
            regime,
            peephole,
            plan: plan_hash(regime, plan),
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[(self.hasher.hash_one(key) as usize) % self.shards.len()]
    }

    /// The verified artifact for `(program, regime, peephole)`, compiling
    /// and analyzing on miss. `proto` seeds the analyzer's frozen-memory
    /// constant folding; a later request whose machine disagrees with the
    /// recorded dependencies simply falls back to checked execution.
    pub fn get_or_compile(
        &self,
        program: &Program,
        regime: EngineRegime,
        peephole: bool,
        proto: Option<&Machine>,
    ) -> (Arc<VerifiedArtifact>, Lookup) {
        self.get_or_compile_with_plan(program, regime, peephole, proto, None)
    }

    /// [`get_or_compile`](ProgramCache::get_or_compile) with an explicit
    /// fusion plan for the fused/quickened regimes. Distinct plans are
    /// distinct cache entries; re-submitting under the same plan hits the
    /// cached artifact, whose quickening state is shared — re-admission
    /// never rewrites an already quickened site again.
    pub fn get_or_compile_with_plan(
        &self,
        program: &Program,
        regime: EngineRegime,
        peephole: bool,
        proto: Option<&Machine>,
        plan: Option<&FusionPlan>,
    ) -> (Arc<VerifiedArtifact>, Lookup) {
        let key = self.key(program, regime, peephole, plan);
        let shard = self.shard(&key);
        let mut guard = shard.lock().expect("cache shard lock");
        if let Some(e) = guard
            .map
            .get_mut(&key)
            .filter(|e| e.artifact.built_from(program))
        {
            e.referenced = true;
            return (Arc::clone(&e.artifact), Lookup::Hit);
        }
        drop(guard);
        // compile and analyze outside the lock: a racing worker may also
        // compile this key, and the first insert wins
        let compiled = Arc::new(VerifiedArtifact::build_with_plan(
            program, regime, peephole, proto, plan,
        ));
        let mut guard = shard.lock().expect("cache shard lock");
        match guard.map.get_mut(&key) {
            Some(e) if e.artifact.built_from(program) => {
                e.referenced = true;
                return (Arc::clone(&e.artifact), Lookup::Hit);
            }
            // another program's entry under the same key: the request's
            // own translation replaces it
            Some(e) => e.artifact = Arc::clone(&compiled),
            None => {
                let evicted = guard.insert(key, Arc::clone(&compiled), self.shard_capacity);
                if evicted > 0 {
                    self.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
            }
        }
        drop(guard);
        // A profile cycle introducing an explicit fusion plan is the
        // serving layer's quickening-rewrite event: retire the template
        // JIT's block cache so no run can pair new dispatch decisions
        // with native code compiled against the old generation. The JIT
        // cache is small and cheap to refill; correctness is already
        // guaranteed by its full-text keys, so this is belt-and-braces
        // (and makes `jit_invalidations_total` observable in serving).
        if plan.is_some() && matches!(regime, EngineRegime::Fused | EngineRegime::Quickened) {
            stackcache_jit::invalidate();
        }
        (compiled, Lookup::Miss)
    }

    /// One background re-admission pass: re-analyze every cached
    /// *guarded* artifact under the deep [`AnalysisBudget`] and, where
    /// the wider budget proves what the admission-path quick budget
    /// could only guard, atomically swap in a replacement whose proof
    /// admits the unchecked tier.
    ///
    /// The swap preserves the compiled translation by construction — the
    /// replacement clones the `CompiledArtifact` and changes only the
    /// attached analysis — so replies before and after an upgrade are
    /// byte-identical; only the elided-checks level changes.
    ///
    /// Deep analysis runs *outside* the shard lock (it is orders of
    /// magnitude slower than a hit), and the swap-back is guarded by
    /// pointer identity: if the entry was evicted or replaced while the
    /// pass analyzed, the stale result is discarded. Every scanned entry
    /// is marked [`deep`](VerifiedArtifact::deep) whether or not it
    /// improved, so the pass is idempotent — a second call scans nothing.
    pub fn upgrade_guarded(&self, proto: Option<&Machine>) -> UpgradeStats {
        let budget = AnalysisBudget::deep();
        let mut stats = UpgradeStats::default();
        for shard in &self.shards {
            // snapshot candidates under the lock; analyze outside it
            let candidates: Vec<(Key, Arc<VerifiedArtifact>)> = {
                let guard = shard.lock().expect("cache shard lock");
                guard
                    .map
                    .iter()
                    .filter(|(_, e)| {
                        !e.artifact.deep && e.artifact.proof().verdict == Verdict::Guarded
                    })
                    .map(|(k, e)| (*k, Arc::clone(&e.artifact)))
                    .collect()
            };
            for (key, old) in candidates {
                stats.scanned += 1;
                let deep = analyze_with(old.artifact().program(), proto, &budget);
                let improved = matches!(deep.proof.verdict, Verdict::Total | Verdict::Proven);
                if improved {
                    stats.upgraded += 1;
                    if deep.proof.verdict == Verdict::Total {
                        stats.fuel_proofs += 1;
                    }
                }
                let replacement = Arc::new(VerifiedArtifact {
                    source: Arc::clone(&old.source),
                    artifact: old.artifact().clone(),
                    analysis: if improved {
                        deep
                    } else {
                        old.analysis().clone()
                    },
                    deep: true,
                });
                let mut guard = shard.lock().expect("cache shard lock");
                if let Some(e) = guard.map.get_mut(&key) {
                    // swap only if the entry is still the one we analyzed
                    if Arc::ptr_eq(&e.artifact, &old) {
                        e.artifact = replacement;
                    }
                }
            }
        }
        stats
    }

    /// Total cached artifacts across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache holds no artifacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy, capacity, and evictions at one point in time.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            size: self.len(),
            capacity: self.shard_capacity * self.shards.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_vm::{program_of, Inst};

    fn p1() -> Program {
        program_of(&[Inst::Lit(6), Inst::Dup, Inst::Mul, Inst::Dot, Inst::Halt])
    }

    fn p2() -> Program {
        program_of(&[Inst::Lit(7), Inst::Dup, Inst::Add, Inst::Dot, Inst::Halt])
    }

    /// A family of distinct single-instruction programs.
    fn pn(n: i64) -> Program {
        program_of(&[Inst::Lit(n), Inst::Dot, Inst::Halt])
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let cache = ProgramCache::new(4);
        let (a, l1) = cache.get_or_compile(&p1(), EngineRegime::Static(2), true, None);
        let (b, l2) = cache.get_or_compile(&p1(), EngineRegime::Static(2), true, None);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Hit));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_configurations_are_distinct_entries() {
        let cache = ProgramCache::new(4);
        let configs = [
            (p1(), EngineRegime::Static(2), true),
            (p1(), EngineRegime::Static(2), false),
            (p1(), EngineRegime::Static(1), true),
            (p1(), EngineRegime::Tos, true),
            (p2(), EngineRegime::Static(2), true),
        ];
        for (p, r, ph) in &configs {
            let (_, l) = cache.get_or_compile(p, *r, *ph, None);
            assert_eq!(l, Lookup::Miss);
        }
        assert_eq!(cache.len(), configs.len());
        for (p, r, ph) in &configs {
            let (_, l) = cache.get_or_compile(p, *r, *ph, None);
            assert_eq!(l, Lookup::Hit);
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_converge() {
        use std::thread;
        let cache = Arc::new(ProgramCache::new(2));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    cache
                        .get_or_compile(&p1(), EngineRegime::Static(3), true, None)
                        .0
                })
            })
            .collect();
        let artifacts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.len(), 1);
        // everyone ends up executing (and the cache retains) one artifact
        for a in &artifacts {
            assert_eq!(a.artifact().regime(), EngineRegime::Static(3));
        }
    }

    #[test]
    fn capacity_is_enforced_and_evictions_counted() {
        let cache = ProgramCache::with_capacity(1, 4);
        for n in 0..10 {
            cache.get_or_compile(&pn(n), EngineRegime::Tos, false, None);
        }
        let stats = cache.stats();
        assert_eq!(stats.size, 4);
        assert_eq!(stats.capacity, 4);
        assert_eq!(stats.evictions, 6);
    }

    #[test]
    fn referenced_entries_survive_a_scan_of_cold_ones() {
        let cache = ProgramCache::with_capacity(1, 4);
        // fill, then touch p1's entry so its reference bit is set
        let (_, l) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Miss);
        for n in 0..3 {
            cache.get_or_compile(&pn(n), EngineRegime::Tos, false, None);
        }
        assert_eq!(cache.len(), 4);
        let (_, l) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Hit);
        // a scan of fresh programs evicts the unreferenced entries first
        for n in 10..13 {
            cache.get_or_compile(&pn(n), EngineRegime::Tos, false, None);
        }
        let (_, l) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Hit, "hot entry was evicted before cold ones");
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn cached_entries_carry_their_safety_proof() {
        use stackcache_vm::Checks;
        let cache = ProgramCache::new(2);
        let (v, _) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(v.proof().verdict, Verdict::Total);
        assert_eq!(v.proof().admit(&Machine::with_memory(64)), Checks::None);
    }

    /// Quickening survives cache re-admission without re-rewriting: the
    /// second lookup hands back the *same* quickened artifact (hot sites
    /// already rewritten, so the warm-up pass does not run again) and
    /// the safety proof attached at first admission is untouched.
    #[test]
    fn quickened_readmission_is_idempotent_and_proof_preserving() {
        use stackcache_vm::fusion::run_quickened;

        // a straight line long enough for the static-default plan to fuse
        let p = program_of(&[
            Inst::Lit(1),
            Inst::Lit(2),
            Inst::Add,
            Inst::Lit(3),
            Inst::Mul,
            Inst::Dot,
            Inst::Halt,
        ]);
        let cache = ProgramCache::new(2);
        let (v1, l1) = cache.get_or_compile(&p, EngineRegime::Quickened, false, None);
        assert_eq!(l1, Lookup::Miss);
        let verdict = v1.proof().verdict;
        assert_eq!(verdict, Verdict::Total);
        let quick = v1.artifact().quickened().expect("quickened artifact");
        assert_eq!(quick.quickened_sites(), 0, "fresh artifact is cold");

        // first execution warms the dispatch map in place
        let mut m = Machine::with_memory(64);
        let s1 = run_quickened(quick, &mut m, 1 << 20).expect("clean run");
        assert!(s1.quickened > 0, "no site was quickened; plan is vacuous");
        let warmed = quick.quickened_sites();
        assert_eq!(s1.quickened as usize, warmed);

        // re-admission: same key hits, and the artifact *is* the warm one
        let (v2, l2) = cache.get_or_compile(&p, EngineRegime::Quickened, false, None);
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&v1, &v2));
        let quick2 = v2.artifact().quickened().expect("quickened artifact");
        assert_eq!(quick2.quickened_sites(), warmed);

        // the warm artifact never rewrites again, results agree, and the
        // proof admitted at first admission still stands
        let mut m2 = Machine::with_memory(64);
        let s2 = run_quickened(quick2, &mut m2, 1 << 20).expect("clean run");
        assert_eq!(s2.quickened, 0, "re-admitted artifact re-quickened");
        assert_eq!(quick2.quickened_sites(), warmed);
        assert_eq!(m.output(), m2.output());
        assert_eq!(v2.proof().verdict, verdict);
    }

    /// A profile-guided plan is part of the cache key for the fusing
    /// regimes (a re-fuse under a new plan is a new translation), and is
    /// ignored — keyed as zero — everywhere else.
    #[test]
    fn fusion_plans_key_the_fusing_regimes_only() {
        let p = p1();
        let profiled = FusionPlan::from_hot_sequences(
            &[(vec![p.insts()[0].opcode(), p.insts()[1].opcode()], 10)],
            4,
        );
        let cache = ProgramCache::new(2);
        let (_, l1) = cache.get_or_compile(&p, EngineRegime::Fused, false, None);
        let (_, l2) =
            cache.get_or_compile_with_plan(&p, EngineRegime::Fused, false, None, Some(&profiled));
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Miss), "plans share a key");
        let (_, l3) =
            cache.get_or_compile_with_plan(&p, EngineRegime::Fused, false, None, Some(&profiled));
        assert_eq!(l3, Lookup::Hit);
        // a non-fusing regime collapses every plan onto one entry
        let (_, l4) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
        let (_, l5) =
            cache.get_or_compile_with_plan(&p, EngineRegime::Tos, false, None, Some(&profiled));
        assert_eq!((l4, l5), (Lookup::Miss, Lookup::Hit));
    }

    /// A push-per-iteration counted loop: the quick admission budget
    /// widens the growing depth to ∞ (guarded); the deep budget unrolls
    /// all 20 iterations exactly (total, with a fuel bound).
    fn guarded_at_first_sight() -> Program {
        use stackcache_vm::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        let out = b.new_label();
        b.entry_here();
        b.push(Inst::Lit(20));
        b.bind(top).unwrap();
        b.push(Inst::Dup);
        b.push(Inst::OneMinus);
        b.push(Inst::Dup);
        b.push(Inst::ZeroGt);
        b.branch_if_zero(out);
        b.branch(top);
        b.bind(out).unwrap();
        b.push(Inst::Halt);
        b.finish().unwrap()
    }

    /// The re-admission loop end to end: a program the quick budget can
    /// only guard is admitted, the background pass deep-analyzes it and
    /// atomically swaps in a proof that admits the unchecked tier, the
    /// swap changes no reply bytes, a second pass scans nothing (the
    /// deep bit makes upgrading idempotent), and concurrent hits during
    /// and after the upgrade never trigger re-analysis.
    #[test]
    fn guarded_readmission_upgrades_once_and_preserves_proof() {
        use stackcache_vm::Checks;
        let p = guarded_at_first_sight();
        let cache = ProgramCache::new(2);
        let (v1, l1) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(v1.proof().verdict, Verdict::Guarded);
        assert!(!v1.deep());
        let m0 = Machine::with_memory(64);
        assert_eq!(v1.proof().admit(&m0), Checks::NoUnderflow);

        // reply bytes before the upgrade
        let mut before = m0.clone();
        let executed_before = v1
            .artifact()
            .run_with_checks(&mut before, 1 << 20, v1.proof().admit(&m0))
            .expect("clean run");

        // first pass: exactly this entry is scanned and upgraded, and
        // the deep pass also proves a fuel bound
        let s1 = cache.upgrade_guarded(None);
        assert_eq!(
            s1,
            UpgradeStats {
                scanned: 1,
                upgraded: 1,
                fuel_proofs: 1
            }
        );

        // a hit now sees the swapped artifact: same translation, a
        // proof that admits the unchecked tier, no recompilation
        let (v2, l2) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
        assert_eq!(l2, Lookup::Hit);
        assert!(!Arc::ptr_eq(&v1, &v2), "upgrade must swap the Arc");
        assert!(v2.deep());
        assert_eq!(v2.proof().verdict, Verdict::Total);
        assert_eq!(v2.proof().admit(&m0), Checks::None);
        let bound = v2.proof().fuel_bound.finite().expect("fuel bound");

        // reply bytes after the upgrade are identical, within the bound
        let mut after = m0.clone();
        let executed_after = v2
            .artifact()
            .run_with_checks(&mut after, 1 << 20, v2.proof().admit(&m0))
            .expect("clean run");
        assert_eq!(executed_before, executed_after);
        assert_eq!(before.output(), after.output());
        assert_eq!(before.stack(), after.stack());
        assert!(executed_after <= bound as u64);

        // second pass: the deep bit is set, nothing is scanned again
        let s2 = cache.upgrade_guarded(None);
        assert_eq!(s2, UpgradeStats::default());
        let (v3, l3) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
        assert_eq!(l3, Lookup::Hit);
        assert!(Arc::ptr_eq(&v2, &v3), "idempotent: no further swap");

        // concurrent hits during an upgrade pass never re-analyze: every
        // lookup is a hit on either the old or the new artifact
        let cache = Arc::new(ProgramCache::new(2));
        let (_, l) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Miss);
        let upgrader = {
            let cache = Arc::clone(&cache);
            let p = p.clone();
            std::thread::spawn(move || {
                let mut total = UpgradeStats::default();
                for _ in 0..4 {
                    let s = cache.upgrade_guarded(None);
                    total.scanned += s.scanned;
                    total.upgraded += s.upgraded;
                    total.fuel_proofs += s.fuel_proofs;
                    let (_, l) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
                    assert_eq!(l, Lookup::Hit);
                }
                total
            })
        };
        let hitters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let (v, l) = cache.get_or_compile(&p, EngineRegime::Tos, false, None);
                        assert_eq!(l, Lookup::Hit);
                        assert!(matches!(
                            v.proof().verdict,
                            Verdict::Guarded | Verdict::Total
                        ));
                    }
                })
            })
            .collect();
        for h in hitters {
            h.join().unwrap();
        }
        let total = upgrader.join().unwrap();
        assert_eq!(
            total,
            UpgradeStats {
                scanned: 1,
                upgraded: 1,
                fuel_proofs: 1
            },
            "one deep analysis ever, despite repeated passes and hits"
        );
        assert_eq!(cache.len(), 1);
    }

    /// A 64-bit key match is not program identity: an entry built from
    /// `p2` but filed under `p1`'s key must never be served for `p1` —
    /// not its translation, and above all not its safety proof.
    #[test]
    fn a_key_collision_is_a_miss_not_a_foreign_artifact() {
        let cache = ProgramCache::new(1);
        let key = cache.key(&p1(), EngineRegime::Tos, false, None);
        let planted = Arc::new(VerifiedArtifact::build(
            &p2(),
            EngineRegime::Tos,
            false,
            None,
        ));
        cache
            .shard(&key)
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&planted), cache.shard_capacity);

        let (v, l) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Miss);
        assert!(!Arc::ptr_eq(&v, &planted));
        assert_eq!(v.artifact().program().insts(), p1().insts());
        assert_eq!(v.proof(), &analyze(&p1(), None).proof);

        // the request's own translation replaced the foreign entry
        let (again, l) = cache.get_or_compile(&p1(), EngineRegime::Tos, false, None);
        assert_eq!(l, Lookup::Hit);
        assert!(Arc::ptr_eq(&again, &v));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_one_shard_still_serves() {
        let cache = ProgramCache::with_capacity(3, 0); // clamps to 1 per shard
        for n in 0..6 {
            let (_, l) = cache.get_or_compile(&pn(n), EngineRegime::Baseline, false, None);
            assert_eq!(l, Lookup::Miss);
        }
        assert!(cache.len() <= 3);
        assert!(cache.stats().evictions >= 3);
    }
}
