//! The traffic-facing [`Engine`]: a sharded LRU plan cache over prepared
//! queries, registered query handles, and the (parallel) batch evaluation
//! API.
//!
//! This is the "preprocess the query once, answer against many databases"
//! layer: [`Engine::prepare`] returns an [`Arc<PreparedQuery>`] — served
//! from the cache when an equivalent query was prepared before —
//! [`Engine::solve`] evaluates one instance through it, and
//! [`Engine::batch`] — the one batch form — fans any single-operation
//! method out over a whole workload across a scoped thread pool
//! ([`EngineConfig::workers`]), preparing each distinct query exactly once.
//!
//! Cache correctness: entries are keyed by the isomorphism-invariant
//! [fingerprint](cq_logic::canonical::query_fingerprint) of the submitted
//! query and **confirmed** by a homomorphic-equivalence check
//! ([`PreparedQuery::answers_for`]) before reuse — homomorphic equivalence
//! is precisely the equivalence preserving `p-HOM` answers, so a fingerprint
//! collision degrades to a cache miss, never to a wrong answer.
//!
//! Concurrency architecture:
//!
//! * the plan and index caches are **sharded** by key hash, each shard an
//!   independently locked LRU, so concurrent lookups of different queries
//!   do not contend on one mutex.  The shard count follows the capacity,
//!   `(capacity / 8).clamp(1, 8)`: 8 shards at both default capacities, and
//!   one shard with exact LRU order for any capacity below 16;
//! * preparation is **single-flight** per fingerprint: concurrent misses on
//!   the same query serialize on a per-fingerprint latch, the loser re-reads
//!   the winner's cached plan, and each distinct fingerprint is prepared
//!   exactly once (the concurrency stress tests assert this through
//!   [`Engine::prep_stats`]);
//! * [`Engine::batch`] fans items out over `std::thread::scope` workers and
//!   reassembles results **in input order** — reports are bit-identical to
//!   the sequential path for every worker count;
//! * the per-query exponential work performed by worker threads is
//!   aggregated into per-engine counters ([`PrepStats`]): each preparation
//!   diffs [`cq_structures::meter::thread`] on the thread that ran it, since
//!   the calling thread's meter would silently undercount under
//!   parallelism.

use crate::aggregates::{AggregateObjective, AggregateReport};
use crate::answers::{AnswerCountReport, AnswerMethod, AnswerPage};
use crate::counting::{CountMethod, CountOutcome, CountReport};
use crate::engine::{EngineConfig, EngineReport, SolverChoice};
use crate::lru::{self, Lru, ShardedLru};
use crate::persist::{PersistError, PlanStore, WarmStartSummary};
use crate::prepared::PreparedQuery;
use crate::Degree;
use cq_decomp::WidthProfile;
use cq_logic::canonical::query_fingerprint;
use cq_solver::kernel::AnswerProgram;
use cq_structures::meter::{self, Meter, Meters};
use cq_structures::{
    answers_bruteforce, structure_hash, AppliedDelta, ConjunctiveQuery, DeltaBatch, Element,
    Structure, StructureError, StructureIndex, TupleWeights,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Source of per-process unique engine identities (for [`QueryId`]
/// affinity checks).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// Default number of cached plans across all shards
/// ([`Engine::with_cache_capacity`] overrides): 8 shards of 32.  Sharding
/// trades exact global LRU order for an 8-fold cut in lock contention;
/// per-shard LRU order is preserved.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Default total capacity of the instance-index cache
/// ([`Engine::with_index_cache_capacity`] overrides) — the number of
/// database [`StructureIndex`]es kept hot across decide/count traffic, in
/// 8 shards of 8.
pub const DEFAULT_INDEX_CACHE_CAPACITY: usize = 64;

/// Handle to a query registered with an [`Engine`] (see
/// [`Engine::register`]); [`Engine::prepared`] resolves it to its plan.
///
/// Handles carry the identity of the engine that issued them: using a
/// handle with a different engine panics with a clear message instead of
/// silently resolving to that engine's unrelated plan at the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId {
    engine: u64,
    index: usize,
}

/// Counters describing the plan cache's behaviour so far, aggregated across
/// all shards.  Invariant (asserted by the concurrency stress tests):
/// `hits + misses == lookups`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cache consultations ([`Engine::prepare`] calls).
    pub lookups: u64,
    /// Lookups answered from the cache (including lookups that waited for a
    /// concurrent preparation of the same query to finish).
    pub hits: u64,
    /// Lookups that had to prepare a fresh plan.
    pub misses: u64,
    /// Plans evicted by the per-shard LRU policy.
    pub evictions: u64,
    /// Plans currently cached (summed over shards).
    pub entries: usize,
}

/// Aggregated counters of the per-query exponential work this engine has
/// performed, summed across **all** threads that ever prepared through it.
///
/// The work is read off [`cq_structures::meter`]: the engine diffs the
/// per-thread meter around each preparation on the thread that ran it and
/// adds the delta here, so the one-preparation-per-query invariants remain
/// assertable when [`Engine::batch`] fans out to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepStats {
    /// Plans prepared (equals the number of cache misses that ran to
    /// completion).
    pub preparations: u64,
    /// Exact treewidth DPs run on behalf of this engine.
    pub treewidth_calls: u64,
    /// Exact pathwidth DPs run on behalf of this engine.
    pub pathwidth_calls: u64,
    /// Exact tree-depth DPs run on behalf of this engine.
    pub treedepth_calls: u64,
    /// Core computations run on behalf of this engine.
    pub core_computations: u64,
    /// Plans whose **counting certificates** (the structural analysis of
    /// the original, non-cored query — see
    /// [`PreparedQuery::counting_analysis`]) were materialized by this
    /// engine.  At most one per plan, and zero for plans whose original is
    /// its own core (the decision certificates are reused); the width DPs
    /// such a materialization runs are folded into the `*_calls` counters
    /// above, so `treewidth_calls == preparations + counting_preparations`
    /// holds when nothing else runs DPs on the engine's behalf.
    pub counting_preparations: u64,
    /// Plans adopted into the cache from a plan store
    /// ([`Engine::load_plans`]) after decoding **and** verification.  A
    /// warm-started workload shows `plans_loaded > 0` with `preparations`,
    /// width DPs and core computations all unchanged — the invariant the
    /// CI round-trip gate asserts.
    pub plans_loaded: u64,
    /// Plan-store records this engine refused: corrupt frames, payloads
    /// failing [`PreparedQuery::verify`], records prepared under an
    /// incompatible configuration, or duplicates of already-cached plans.
    /// Each rejected record degrades to a cold prepare on first traffic,
    /// never to a wrong answer.
    pub plans_rejected: u64,
    /// Plans written out by [`Engine::save_plans`].
    pub plans_saved: u64,
    /// Plans evicted by the LRU and persisted into the configured eviction
    /// store ([`Engine::with_eviction_store`]) instead of being lost.
    /// Zero when no eviction store is configured.
    pub plans_evicted_persisted: u64,
}

impl PrepStats {
    /// Total exact width DPs run (treewidth + pathwidth + tree depth).
    pub fn total_width_calls(&self) -> u64 {
        self.treewidth_calls + self.pathwidth_calls + self.treedepth_calls
    }
}

/// The engine-internal atomic accumulators behind [`PrepStats`].
#[derive(Default)]
struct PrepCounters {
    preparations: AtomicU64,
    treewidth_calls: AtomicU64,
    pathwidth_calls: AtomicU64,
    treedepth_calls: AtomicU64,
    core_computations: AtomicU64,
    counting_preparations: AtomicU64,
    plans_loaded: AtomicU64,
    plans_rejected: AtomicU64,
    plans_saved: AtomicU64,
    plans_evicted_persisted: AtomicU64,
}

impl PrepCounters {
    fn snapshot(&self) -> PrepStats {
        PrepStats {
            preparations: self.preparations.load(Ordering::Relaxed),
            treewidth_calls: self.treewidth_calls.load(Ordering::Relaxed),
            pathwidth_calls: self.pathwidth_calls.load(Ordering::Relaxed),
            treedepth_calls: self.treedepth_calls.load(Ordering::Relaxed),
            core_computations: self.core_computations.load(Ordering::Relaxed),
            counting_preparations: self.counting_preparations.load(Ordering::Relaxed),
            plans_loaded: self.plans_loaded.load(Ordering::Relaxed),
            plans_rejected: self.plans_rejected.load(Ordering::Relaxed),
            plans_saved: self.plans_saved.load(Ordering::Relaxed),
            plans_evicted_persisted: self.plans_evicted_persisted.load(Ordering::Relaxed),
        }
    }

    /// Add the per-query work that ran since `before`, a
    /// [`meter::thread`] snapshot taken on this thread around that work
    /// alone, so the delta is exact whichever worker ran it.
    fn add_work_since(&self, before: &Meters) {
        let work = meter::thread().since(before);
        for (counter, meter) in [
            (&self.treewidth_calls, Meter::TreewidthDp),
            (&self.pathwidth_calls, Meter::PathwidthDp),
            (&self.treedepth_calls, Meter::TreedepthDp),
            (&self.core_computations, Meter::CoreComputation),
        ] {
            counter.fetch_add(work[meter], Ordering::Relaxed);
        }
    }
}

/// A cached plan and the relabelled forms verified to share it.
struct CacheSlot {
    plan: Arc<PreparedQuery>,
    /// Non-identical submitted forms (e.g. relabellings) already verified
    /// homomorphically equivalent to the plan's original — so repeat
    /// lookups of the same form cost a structural equality check instead of
    /// two exponential homomorphism searches per solve.  Beyond
    /// [`MAX_VERIFIED_ALIASES`] forms the least recent is re-verified on
    /// its next lookup.
    verified_aliases: Lru<Structure, ()>,
}

/// Memoized relabelled forms per cached plan.
const MAX_VERIFIED_ALIASES: usize = 16;

impl CacheSlot {
    fn matches(&mut self, candidate: &Structure) -> bool {
        if *candidate == *self.plan.original() || self.verified_aliases.get(candidate).is_some() {
            return true;
        }
        if self.plan.answers_for(candidate) {
            self.verified_aliases.insert(candidate.clone(), ());
            return true;
        }
        false
    }
}

/// The sharded LRU plan cache keyed by fingerprint, its counters, and the
/// per-fingerprint single-flight latches.
struct PlanCache {
    slots: ShardedLru<CacheSlot>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Per-fingerprint preparation latches: concurrent misses on the same
    /// fingerprint serialize here so each distinct query is prepared exactly
    /// once.  Entries live only while a preparation is in flight.
    in_flight: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// Fingerprints of recently looked-up queries by [content
    /// token](cq_structures::Structure::content_token).  A token names one
    /// content state, so a repeat lookup of the same structure (or a clone)
    /// skips the colour-refinement hash.
    fingerprints: Mutex<Lru<u64, u64>>,
}

/// Entries of the plan cache's token-to-fingerprint memo.
const FINGERPRINT_MEMO: usize = 64;

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            slots: ShardedLru::new(capacity),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            in_flight: Mutex::new(HashMap::new()),
            fingerprints: Mutex::new(Lru::new(FINGERPRINT_MEMO)),
        }
    }

    /// The [`query_fingerprint`] of `query`, from the token memo when this
    /// content state was fingerprinted before.  A disabled cache memoizes
    /// nothing.
    fn fingerprint(&self, query: &Structure) -> u64 {
        if self.slots.capacity() == 0 {
            return query_fingerprint(query);
        }
        let token = query.content_token();
        if let Some(&mut fingerprint) = lru::lock(&self.fingerprints).get(&token) {
            return fingerprint;
        }
        let fingerprint = query_fingerprint(query);
        let mut memo = lru::lock(&self.fingerprints);
        if memo.get(&token).is_none() {
            memo.insert(token, fingerprint);
        }
        fingerprint
    }

    fn find(&self, fingerprint: u64, candidate: &Structure) -> Option<Arc<PreparedQuery>> {
        self.slots
            .shard(fingerprint)
            .find(|&f, slot| f == fingerprint && slot.matches(candidate))
            .map(|slot| Arc::clone(&slot.plan))
    }

    /// Insert a plan, returning the plan the shard's LRU evicted (already
    /// counted in the `evictions` stat) so the engine can persist it.
    fn insert(&self, plan: Arc<PreparedQuery>) -> Option<Arc<PreparedQuery>> {
        let fingerprint = plan.fingerprint();
        let slot = CacheSlot {
            plan,
            verified_aliases: Lru::new(MAX_VERIFIED_ALIASES),
        };
        let (_, evicted) = self.slots.shard(fingerprint).insert(fingerprint, slot)?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(evicted.plan)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.slots.len(),
        }
    }
}

/// Counters of the instance-index cache (one [`StructureIndex`] per
/// distinct database seen by the solve/count paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Cache consultations (one per solve/count dispatch).
    pub lookups: u64,
    /// Lookups served an already-built index.
    pub hits: u64,
    /// Lookups that had to build a fresh index.
    pub misses: u64,
    /// Full-structure hash computations performed by lookups.  A lookup
    /// whose database carries a known [content
    /// token](cq_structures::Structure::content_token) skips the `O(|B|)`
    /// hash entirely, so repeat traffic against an unchanged database
    /// leaves this counter flat (one hash on first sight, zero after).
    pub hash_computes: u64,
    /// Indexes currently cached (summed over shards).
    pub entries: usize,
}

/// The outcome of one [`Engine::apply_delta`] call: the delta-maintained
/// index (shared with the engine's cache) and the effective mutation.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    index: Arc<StructureIndex>,
    applied: Arc<AppliedDelta>,
}

impl DeltaReport {
    /// The post-delta index, still cached by the engine (the same `Arc`
    /// every subsequent dispatch against [`Self::database`] is served).
    pub fn index(&self) -> &Arc<StructureIndex> {
        &self.index
    }

    /// The post-delta database.  Pass **this** structure to
    /// `solve`/`count_instance`/aggregate calls: its content token finds
    /// the maintained index in `O(1)` (no rehash, no rebuild).
    pub fn database(&self) -> &Structure {
        self.index.structure()
    }

    /// The effective mutation — deletions and insertions that actually
    /// changed the structure, with no-ops (absent deletes, present
    /// inserts) dropped.  [`cq_structures::TupleWeights::apply_delta`]
    /// consumes this to keep a weight table aligned.
    pub fn applied(&self) -> &Arc<AppliedDelta> {
        &self.applied
    }

    /// The index version after this delta (monotone per index identity).
    pub fn version(&self) -> u64 {
        self.index.version()
    }

    /// The domain epoch after this delta; a bump means compiled programs
    /// against the pre-delta index were retired and will recompile.
    pub fn domain_epoch(&self) -> u64 {
        self.index.domain_epoch()
    }
}

/// How one answers request evaluates (see [`Engine::answer_route`]).
struct AnswerRoute {
    /// Counting widths of the original query.
    widths: WidthProfile,
    free_count: usize,
    eval: AnswerEval,
}

enum AnswerEval {
    /// Within the treewidth threshold: the compiled answer program and
    /// the database's cached index.
    Kernel(Arc<AnswerProgram>, Arc<StructureIndex>),
    /// Beyond it: the whole brute-force projection, sorted.
    BruteForce(Vec<Vec<Element>>),
}

/// The sharded **instance-index cache**: one [`StructureIndex`] per
/// distinct database, shared (`Arc`) by every solver dispatch — decision
/// and counting, across the batch fan-out's worker threads.  Keyed by
/// [`structure_hash`] and confirmed by structural equality against
/// [`StructureIndex::structure`], so a collision degrades to a rebuild,
/// never a wrong index — and the cache holds no second copy of the
/// database.
struct InstanceIndexCache {
    slots: ShardedLru<Arc<StructureIndex>>,
    /// The `O(1)` fast path in front of the hash-keyed shards: [content
    /// token](cq_structures::Structure::content_token) → (shard hash,
    /// index), as many entries as the cache holds indexes.  A token is
    /// process-unique per content *state*, so an alias hit serves the
    /// index without hashing the database, and the in-place delta path
    /// can take the slot out without rehashing either.  An entry can never
    /// go stale: it is recorded only when its index content-equals the
    /// token's structure, and an index is never mutated while *any* shared
    /// `Arc` to it exists (the delta path takes the cache's references out
    /// first and clones when a holdout remains).
    aliases: Mutex<Lru<u64, (u64, Arc<StructureIndex>)>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    hash_computes: AtomicU64,
}

impl InstanceIndexCache {
    fn new(capacity: usize) -> InstanceIndexCache {
        InstanceIndexCache {
            slots: ShardedLru::new(capacity),
            aliases: Mutex::new(Lru::new(capacity)),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hash_computes: AtomicU64::new(0),
        }
    }

    /// Record (or refresh) the alias of a cached index.
    fn alias_record(&self, token: u64, hash: u64, index: &Arc<StructureIndex>) {
        let mut aliases = lru::lock(&self.aliases);
        aliases.remove(&token);
        aliases.insert(token, (hash, Arc::clone(index)));
    }

    /// [`structure_hash`] with its metering — every `O(|B|)` hash the cache
    /// ever computes goes through here.
    fn hashed(&self, database: &Structure) -> u64 {
        self.hash_computes.fetch_add(1, Ordering::Relaxed);
        structure_hash(database)
    }

    /// Count one lookup and whether it hit.
    fn count(&self, hit: bool) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let outcome = if hit { &self.hits } else { &self.misses };
        outcome.fetch_add(1, Ordering::Relaxed);
    }

    /// The cached index for `database`, building (and caching) it on first
    /// sight.  Racing builders of the same database may both build — the
    /// build is linear in `|B|` and idempotent, so no single-flight latch
    /// is warranted; the second insert finds the first and reuses it.
    ///
    /// Repeat lookups are `O(1)`: the first sight of a content state pays
    /// one [`structure_hash`] and records a token alias; every later lookup
    /// presenting the same token is served from the alias table without
    /// rehashing the database (metered by [`IndexStats::hash_computes`]).
    fn get(&self, database: &Structure) -> Arc<StructureIndex> {
        if self.slots.capacity() == 0 {
            self.count(false);
            return Arc::new(StructureIndex::new(database));
        }
        let token = database.content_token();
        let alias = lru::lock(&self.aliases)
            .get(&token)
            .map(|(_, index)| Arc::clone(index));
        if let Some(index) = alias {
            self.count(true);
            return index;
        }
        let hash = self.hashed(database);
        let same =
            |&h: &u64, index: &Arc<StructureIndex>| h == hash && index.structure() == database;
        let cached = self
            .slots
            .shard(hash)
            .find(|h, index| same(h, index))
            .map(|index| Arc::clone(index));
        self.count(cached.is_some());
        // Build outside the lock so concurrent misses on *different*
        // databases of the same shard do not serialize on the build.
        let index = cached.unwrap_or_else(|| {
            let built = Arc::new(StructureIndex::new(database));
            let mut shard = self.slots.shard(hash);
            match shard.find(|h, index| same(h, index)) {
                // A racing builder beat us: share its index, drop ours.
                Some(raced) => Arc::clone(raced),
                None => {
                    shard.insert(hash, Arc::clone(&built));
                    built
                }
            }
        });
        self.alias_record(token, hash, &index);
        index
    }

    /// Apply a [`DeltaBatch`] to the cached index of `database` **in
    /// place**: look the index up as any dispatch would (indexing a
    /// database never seen before — the one exception to "no rebuild",
    /// there is nothing to maintain yet), then mutate it as
    /// [`Self::apply_delta_owned`] does.  The batch is validated before
    /// any lookup, so a refused batch leaves the cache exactly as it was
    /// and never copies a shared index.  Counts as one lookup.
    fn apply_delta(
        &self,
        database: &Structure,
        batch: &DeltaBatch,
    ) -> Result<(Arc<StructureIndex>, Arc<AppliedDelta>), StructureError> {
        batch.validate(database)?;
        Ok(self.mutate(self.get(database), batch, false))
    }

    /// The chained form of [`Self::apply_delta`]: the caller hands back the
    /// `Arc` of the previous round's index instead of a `&Structure`.
    ///
    /// Dropping the caller's reference *before* the mutation is what makes
    /// steady-state churn truly `O(delta)`: with the alias and shard
    /// references taken out and the caller's `Arc` consumed,
    /// [`Arc::try_unwrap`] owns the index outright and
    /// [`StructureIndex::apply_delta`]'s `Arc::make_mut` mutates the
    /// structure in place — no index clone, no structure copy.  The
    /// `&Structure` form can't do this (the borrow pins a live `Arc`
    /// somewhere), so a round loop over it pays one copy-on-write structure
    /// clone per round.
    ///
    /// Never builds an index: even on a full cache miss the caller's own
    /// index is the thing to mutate.  As in [`Self::apply_delta`], a
    /// refused batch returns before any lookup.
    fn apply_delta_owned(
        &self,
        caller: Arc<StructureIndex>,
        batch: &DeltaBatch,
    ) -> Result<(Arc<StructureIndex>, Arc<AppliedDelta>), StructureError> {
        batch.validate(caller.structure())?;
        Ok(self.mutate(caller, batch, true))
    }

    /// Apply a validated batch to `caller`'s index and re-file it under its
    /// new content state, counting the lookup unless the caller already
    /// did.
    fn mutate(
        &self,
        caller: Arc<StructureIndex>,
        batch: &DeltaBatch,
        count_lookup: bool,
    ) -> (Arc<StructureIndex>, Arc<AppliedDelta>) {
        let token = caller.structure().content_token();
        let (hash, found) = if self.slots.capacity() == 0 {
            (None, false)
        } else {
            // Retire the pre-delta content state: take its alias (hashing
            // only when the alias was evicted) and unhook the shard slot
            // holding it, so the caller's Arc is normally the last one.
            let alias = lru::lock(&self.aliases).remove(&token);
            let hash = match alias {
                Some((hash, _)) => hash,
                None => self.hashed(caller.structure()),
            };
            let slot = self.slots.shard(hash).remove_where(|&h, index| {
                Arc::ptr_eq(index, &caller)
                    || (h == hash && index.structure() == caller.structure())
            });
            (Some(hash), slot.is_some())
        };
        if count_lookup {
            self.count(found);
        }
        let mut owned = Arc::try_unwrap(caller).unwrap_or_else(|shared| (*shared).clone());
        let applied = owned.apply_delta(batch).expect("batch validated above");
        let index = Arc::new(owned);
        if let Some(hash) = hash {
            self.slots.shard(hash).insert(hash, Arc::clone(&index));
            self.alias_record(index.structure().content_token(), hash, &index);
        }
        (index, applied)
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            hash_computes: self.hash_computes.load(Ordering::Relaxed),
            entries: self.slots.len(),
        }
    }
}

/// Drop guard removing a fingerprint's single-flight latch entry, so the
/// entry is cleaned up on every exit path — normal returns and panic
/// unwinds alike.
struct LatchCleanup<'a> {
    in_flight: &'a Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    fingerprint: u64,
}

impl Drop for LatchCleanup<'_> {
    fn drop(&mut self) {
        self.in_flight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .remove(&self.fingerprint);
    }
}

/// The prepared-query evaluation engine: decision tier order + sharded
/// plan cache + instance-index cache + one parallel batch form
/// ([`Engine::batch`]) over the single-operation methods.  Decision
/// dispatches to the first tier of [`SolverChoice::STANDARD`] (minus any
/// [`Engine::without_tier`] ablations) that admits the core's widths;
/// counting and aggregates dispatch through [`CountMethod::for_widths`] on
/// the original's widths.  Cheap to share across threads (`&Engine` is
/// `Send + Sync`; all interior state is sharded-mutex-guarded or atomic).
pub struct Engine {
    id: u64,
    config: EngineConfig,
    tiers: Vec<SolverChoice>,
    cache: PlanCache,
    indexes: InstanceIndexCache,
    registered: Mutex<Vec<Arc<PreparedQuery>>>,
    prep: PrepCounters,
    eviction: Option<EvictionSink>,
}

/// Background save-on-eviction (see [`Engine::with_eviction_store`]): the
/// engine forwards every plan the LRU evicts here; the sink upserts it into
/// an in-memory [`PlanStore`] image (seeded from the file already at the
/// configured path, when plan-compatible) and wakes a background writer
/// thread that persists the image atomically.  Eviction callers pay one
/// mutex + an encode; the file I/O happens off the serving path.
struct EvictionSink {
    store: Arc<Mutex<PlanStore>>,
    /// Wake signals for the writer thread; dropping the sender (engine
    /// drop) flushes all pending work and stops the thread.
    wake: Mutex<Option<std::sync::mpsc::Sender<()>>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// An engine with the standard tier order and default cache capacity.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            config,
            tiers: SolverChoice::STANDARD.to_vec(),
            cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            indexes: InstanceIndexCache::new(DEFAULT_INDEX_CACHE_CAPACITY),
            registered: Mutex::new(Vec::new()),
            prep: PrepCounters::default(),
            eviction: None,
        }
    }

    /// This engine minus one decision tier — the E12 ablation edit ("what
    /// happens without the path tier?"): queries the tier would have
    /// taken fall through to the next admitting tier.
    ///
    /// # Panics
    /// On [`SolverChoice::Backtracking`]: the fallback admits every query
    /// and cannot be removed.
    pub fn without_tier(mut self, choice: SolverChoice) -> Engine {
        assert_ne!(
            choice,
            SolverChoice::Backtracking,
            "the backtracking fallback cannot be ablated"
        );
        self.tiers.retain(|&tier| tier != choice);
        self
    }

    /// Override the plan cache's **total** capacity across shards (0
    /// disables caching).  The shard count follows the capacity (see the
    /// module docs).  Surviving plans move into the new shards; shrinking
    /// below the current population evicts least-recently-used plans
    /// immediately, so the new capacity holds from this call on.  Evicted
    /// plans reach the eviction store like any other eviction.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Engine {
        let evicted = self.cache.slots.resize(capacity);
        self.cache
            .evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        for slot in evicted {
            self.persist_evicted(Some(slot.plan));
        }
        self
    }

    /// Override the instance-index cache's **total** capacity across its
    /// shards (0 disables caching: every dispatch rebuilds the database
    /// index from scratch — the cold baseline of bench E16).  Cached
    /// indexes are discarded.
    pub fn with_index_cache_capacity(mut self, capacity: usize) -> Engine {
        self.indexes = InstanceIndexCache::new(capacity);
        self
    }

    /// The configuration this engine prepares and solves under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The worker count [`Engine::batch`] fans out to:
    /// [`EngineConfig::workers`], with `0` resolved to the machine's
    /// available parallelism.
    pub fn effective_workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Prepare a query — or fetch the cached plan of an equivalent query
    /// prepared earlier.  This is the only place per-query exponential work
    /// (core, width DPs, decompositions) happens.  A cache hit on a
    /// structure (or clone) looked up recently skips even the fingerprint:
    /// it is memoized by [content token](Structure::content_token).
    ///
    /// Concurrent calls for the same (or an equivalent) query are
    /// single-flighted: one caller prepares, the others wait on a
    /// per-fingerprint latch and are then served the cached plan, so each
    /// distinct fingerprint is prepared exactly once no matter how many
    /// threads race on it.
    pub fn prepare(&self, query: &Structure) -> Arc<PreparedQuery> {
        let fingerprint = self.cache.fingerprint(query);
        self.cache.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = self.cache.find(fingerprint, query) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        if self.cache.slots.capacity() == 0 {
            // Caching disabled: no plan to share, so no latch either —
            // every call pays preparation.
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            return self.prepare_counted(query, fingerprint);
        }
        // Single-flight: serialize concurrent preparers of this fingerprint.
        let (latch, we_inserted) = {
            let mut in_flight = lru::lock(&self.cache.in_flight);
            match in_flight.entry(fingerprint) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(v) => {
                    let latch = Arc::new(Mutex::new(()));
                    v.insert(Arc::clone(&latch));
                    (latch, true)
                }
            }
        };
        // If we inserted the latch entry we must also remove it on *every*
        // exit — including a panic inside preparation (e.g. a query beyond
        // the exact-DP size limit), otherwise the stale entry would wedge
        // all future prepares of this fingerprint on a poisoned latch.
        let _cleanup = we_inserted.then(|| LatchCleanup {
            in_flight: &self.cache.in_flight,
            fingerprint,
        });
        // A poisoned latch just means a previous preparer panicked; the
        // exclusion it provides is still sound, so take it and move on.
        let _held = latch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Re-check: if we waited on another thread's preparation, its plan
        // is in the cache now and this lookup counts as a hit.
        if let Some(plan) = self.cache.find(fingerprint, query) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            plan
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            // Prepare while holding only the latch: preparation is the
            // expensive part, and preparers of *different* queries must not
            // serialize (they hold different latches and touch shards only
            // for the final insert).
            let plan = self.prepare_counted(query, fingerprint);
            let evicted = self.cache.insert(Arc::clone(&plan));
            self.persist_evicted(evicted);
            plan
        }
    }

    /// Run the actual preparation, adding its metered work to this
    /// engine's aggregated [`PrepStats`].
    fn prepare_counted(&self, query: &Structure, fingerprint: u64) -> Arc<PreparedQuery> {
        let before = meter::thread();
        let plan = Arc::new(PreparedQuery::prepare_with_fingerprint(
            query,
            &self.config,
            fingerprint,
        ));
        self.prep.preparations.fetch_add(1, Ordering::Relaxed);
        self.prep.add_work_since(&before);
        plan
    }

    /// Materialize a plan's counting certificates (the structural analysis
    /// of the original, non-cored query) if they are not there yet, adding
    /// the metered work of the one-time computation to this engine's
    /// aggregated [`PrepStats`].  Idempotent and single-flighted by the
    /// plan's interior `OnceLock`; repeat calls (and plans whose original
    /// is its own core) cost a structure comparison and run no DP at all.
    fn ensure_counting_certificates(&self, plan: &PreparedQuery) -> WidthProfile {
        let before = meter::thread();
        let (analysis, computed) = plan.counting_analysis_tracked();
        if computed {
            self.prep
                .counting_preparations
                .fetch_add(1, Ordering::Relaxed);
            self.prep.add_work_since(&before);
        }
        analysis.widths
    }

    /// Register a query, returning its handle: the plan stays reachable
    /// through [`Engine::prepared`] (and saved by [`Engine::save_plans`])
    /// even after the LRU evicts it.  Goes through the plan cache, so
    /// registering the same (or an equivalent) query twice prepares it
    /// once.
    pub fn register(&self, query: &Structure) -> QueryId {
        let plan = self.prepare(query);
        let mut registered = self.registered.lock().expect("registry lock");
        registered.push(plan);
        QueryId {
            engine: self.id,
            index: registered.len() - 1,
        }
    }

    /// The prepared plan behind a registered handle.
    ///
    /// Panics when the handle was issued by a different engine.
    pub fn prepared(&self, id: QueryId) -> Arc<PreparedQuery> {
        assert_eq!(
            id.engine, self.id,
            "QueryId was issued by a different Engine (handles are not transferable)"
        );
        Arc::clone(&self.registered.lock().expect("registry lock")[id.index])
    }

    /// Evaluate one instance end to end (prepare through the cache, then
    /// solve).
    pub fn solve(&self, query: &Structure, database: &Structure) -> EngineReport {
        let plan = self.prepare(query);
        self.solve_prepared(&plan, database)
    }

    /// The cached [`StructureIndex`] of a database — built on first sight,
    /// shared by every later decision/counting dispatch against the same
    /// database (including across the batch fan-out's worker threads).
    pub fn instance_index(&self, database: &Structure) -> Arc<StructureIndex> {
        self.indexes.get(database)
    }

    /// Apply a batch of tuple inserts/deletes to `database`'s cached index
    /// **in place**: the index is delta-maintained (no rebuild), its
    /// version advances, and warm compiled programs plus the retained DP
    /// join tables of [`PreparedQuery::decide_via_tree`] /
    /// [`PreparedQuery::count_via_tree`] survive whenever the delta keeps
    /// every position domain's support (a domain-growing delta bumps the
    /// [domain epoch](StructureIndex::domain_epoch) and transparently
    /// recompiles instead).
    ///
    /// Query the post-delta state through [`DeltaReport::database`] — its
    /// content token routes every subsequent `solve`/`count`/aggregate
    /// dispatch to the maintained index in `O(1)`, without rehashing.  The
    /// batch is validated whole-batch-or-nothing; on error the cache is
    /// left exactly as it was.  A database the engine has never indexed is
    /// indexed first, then mutated.
    pub fn apply_delta(
        &self,
        database: &Structure,
        batch: &DeltaBatch,
    ) -> Result<DeltaReport, StructureError> {
        let (index, applied) = self.indexes.apply_delta(database, batch)?;
        Ok(DeltaReport { index, applied })
    }

    /// Apply the next [`DeltaBatch`] of an update stream, consuming the
    /// previous round's [`DeltaReport`].
    ///
    /// This is the steady-state form of [`Engine::apply_delta`]: handing
    /// the report back lets the engine drop every reference to the
    /// pre-delta index *before* mutating, so the round is `O(delta)` with
    /// **no structure copy at all** — the `&Structure` form necessarily
    /// keeps a borrow alive and pays one copy-on-write clone of the
    /// structure per round.  Clone the report first if you need to keep
    /// the pre-delta snapshot (the clone's extra `Arc` re-introduces that
    /// one copy).
    ///
    /// On a validation error the batch is rejected whole and the pre-delta
    /// index stays cached; re-obtain it through a kept clone of the report
    /// or any content-equal database.
    pub fn apply_delta_chained(
        &self,
        report: DeltaReport,
        batch: &DeltaBatch,
    ) -> Result<DeltaReport, StructureError> {
        let DeltaReport { index, applied: _ } = report;
        let (index, applied) = self.indexes.apply_delta_owned(index, batch)?;
        Ok(DeltaReport { index, applied })
    }

    /// Evaluate a prepared query against one database: select the first
    /// admitting tier in dispatch order and run it on the plan's
    /// certificates through the database's cached index.  No per-query
    /// exponential work happens here.
    pub fn solve_prepared(&self, plan: &PreparedQuery, database: &Structure) -> EngineReport {
        let widths = plan.widths();
        let choice = self
            .tiers
            .iter()
            .copied()
            .find(|tier| tier.admits(widths, &self.config))
            .expect("the backtracking fallback admits every query");
        let index = self.indexes.get(database);
        EngineReport {
            exists: plan.decide(choice, &index, self.config.backtrack.fail_first_ordering),
            choice,
            degree_hint: plan.degree_hint(),
            widths,
            evaluated_query_size: plan.evaluated_size(),
        }
    }

    /// Count the homomorphisms of one instance end to end: prepare the
    /// query through the **shared** plan cache (decision and counting
    /// traffic on the same fingerprint reuse one plan), then count through
    /// the counting tier on the original-structure certificates.
    ///
    /// Counting is invariant under isomorphism but **not** under the
    /// homomorphic equivalence the decision cache trades in, so when the
    /// cache serves a plan whose original differs syntactically from
    /// `query`, the plan is used only if [`PreparedQuery::counts_for`]
    /// confirms the two are isomorphic (relabellings hit this path); a
    /// hom-equivalent-but-not-isomorphic alias — possible only through a
    /// fingerprint collision — falls back to an uncached exact count
    /// instead of a silently wrong one.
    pub fn count_instance(&self, query: &Structure, database: &Structure) -> CountReport {
        self.count_prepared(&self.plan_where(query, |p| p.counts_for(query)), database)
    }

    /// The cached plan for `query` when `reusable` accepts it, else — a
    /// fingerprint collision with a plan this operation may not reuse — a
    /// throwaway plan for the submitted form (uncached: inserting it would
    /// fight the colliding slot).  Counts and aggregates accept only
    /// [`PreparedQuery::counts_for`] plans, answers only structurally
    /// identical originals.
    fn plan_where(
        &self,
        query: &Structure,
        reusable: impl FnOnce(&PreparedQuery) -> bool,
    ) -> Arc<PreparedQuery> {
        let plan = self.prepare(query);
        if reusable(&plan) {
            plan
        } else {
            self.prepare_counted(query, query_fingerprint(query))
        }
    }

    /// Count a prepared query's homomorphisms into one database: ensure the
    /// original-structure counting certificates exist (lazy, once per
    /// plan), pick the tier with [`CountMethod::for_widths`], and run it.
    /// On a plan whose counting certificates are already materialized, no
    /// per-query exponential work happens here.
    pub fn count_prepared(&self, plan: &PreparedQuery, database: &Structure) -> CountReport {
        let widths = self.ensure_counting_certificates(plan);
        let method = CountMethod::for_widths(widths, &self.config);
        let index = self.indexes.get(database);
        CountReport {
            count: plan.count(method, database, &index),
            method,
            degree_hint: Degree::of_widths(widths, &self.config),
            widths,
            counted_query_size: plan.original().universe_size(),
        }
    }

    /// The prologue [`Engine::count_answers`] and [`Engine::answers`]
    /// share: canonical structure, free list, plan, counting certificates
    /// and the licence check.
    ///
    /// The plan guard ([`Engine::plan_where`]) is stricter than counting's
    /// [`PreparedQuery::counts_for`]: free-variable positions are element
    /// indices *of the submitted canonical structure*, and they do not
    /// transport along an isomorphism to a differently-labelled cached
    /// original (the projection would land on the wrong columns).  A cache
    /// hit whose original differs in any way therefore falls back to an
    /// uncached throwaway plan for the exact submitted form.
    fn answer_route(&self, query: &ConjunctiveQuery, database: &Structure) -> AnswerRoute {
        let canonical = query
            .canonical_structure()
            .expect("query atoms must be consistent with its declared variables");
        let free = query.free_element_indices();
        let plan = self.plan_where(&canonical, |p| *p.original() == canonical);
        let widths = self.ensure_counting_certificates(&plan);
        let eval = if CountMethod::TreeDecompositionDp.admits(widths, &self.config) {
            let index = self.indexes.get(database);
            AnswerEval::Kernel(plan.answer_program(&index, &free), index)
        } else {
            AnswerEval::BruteForce(answers_bruteforce(&canonical, database, &free))
        };
        AnswerRoute {
            widths,
            free_count: free.len(),
            eval,
        }
    }

    /// Count the **distinct answers** of a free-variable query against one
    /// database: the number of assignments to
    /// [`ConjunctiveQuery::free_variables`] extendable to a full
    /// homomorphism of the query's canonical structure.
    ///
    /// With zero free variables this degenerates to the boolean question
    /// (`1` if satisfiable, else `0`); with every variable free it is the
    /// number of distinct homomorphisms.  Like homomorphism *counting*
    /// (Theorem 6.1), answers are **not** invariant under taking cores, so
    /// the evaluation runs on the original structure with the counting
    /// certificates; unlike counting, the licensed DP pays a width price of
    /// at most the number of free variables (see
    /// [`cq_solver::kernel::AnswerProgram`]).  The engine dispatches on the
    /// original query's treewidth against
    /// [`EngineConfig::treewidth_threshold`]: within the threshold, the
    /// grouped root-bag DP; beyond it, brute-force enumeration with
    /// projection.
    ///
    /// # Panics
    /// When the query is malformed (atoms inconsistent with its declared
    /// variables) — validate at the boundary, as `cq-service` does.
    pub fn count_answers(
        &self,
        query: &ConjunctiveQuery,
        database: &Structure,
    ) -> AnswerCountReport {
        let AnswerRoute {
            widths,
            free_count,
            eval,
        } = self.answer_route(query, database);
        let (answers, method, answer_width) = match eval {
            AnswerEval::Kernel(program, index) => (
                program.count_answers(&index),
                AnswerMethod::TreeDecompositionDp,
                program.answer_width(),
            ),
            AnswerEval::BruteForce(all) => (
                all.len() as u64,
                AnswerMethod::BruteForce,
                widths.treewidth + free_count,
            ),
        };
        AnswerCountReport {
            answers,
            method,
            degree_hint: Degree::of_widths(widths, &self.config),
            widths,
            answer_width,
            free_count,
        }
    }

    /// One page of the query's answers: skip `offset` rows of the full
    /// enumeration, return up to `limit` rows, and report whether anything
    /// follows.  Rows are tuples of database elements aligned with
    /// [`ConjunctiveQuery::free_variables`] order, in ascending
    /// lexicographic row order — a total order independent of worker count
    /// and engine state, so consecutive pages tile the full answer set
    /// exactly.
    ///
    /// On the licensed path the page is produced by the bounded-delay
    /// cursor of [`cq_solver::kernel::AnswerProgram`]: no answer beyond
    /// `offset + limit + 1` is ever materialized, and the cost of a page is
    /// proportional to its position and size — not to the total number of
    /// answers.  (`has_more` costs one extra cursor step, which is why the
    /// `+ 1`.)  The cursor walks each free variable's viable domain, its
    /// images under homomorphisms, which one full-reducer pass computes the
    /// first time a page is asked of an index version; later pages of the
    /// same version reuse it.  Beyond the treewidth threshold the engine
    /// falls back to materializing the brute-force projection and slicing
    /// it.
    ///
    /// # Panics
    /// When the query is malformed, as for [`Engine::count_answers`].
    pub fn answers(
        &self,
        query: &ConjunctiveQuery,
        database: &Structure,
        offset: u64,
        limit: usize,
    ) -> AnswerPage {
        let route = self.answer_route(query, database);
        let skip = usize::try_from(offset).unwrap_or(usize::MAX);
        let (mut rest, method): (Box<dyn Iterator<Item = Vec<u32>>>, _) = match &route.eval {
            AnswerEval::Kernel(program, index) => (
                Box::new(program.cursor(index).skip(skip)),
                AnswerMethod::TreeDecompositionDp,
            ),
            AnswerEval::BruteForce(all) => (
                Box::new(
                    all.iter()
                        .skip(skip)
                        .map(|row| row.iter().map(|&e| e as u32).collect()),
                ),
                AnswerMethod::BruteForce,
            ),
        };
        let rows: Vec<Vec<u32>> = rest.by_ref().take(limit).collect();
        let has_more = rows.len() == limit && rest.next().is_some();
        AnswerPage {
            rows,
            offset,
            has_more,
            method,
        }
    }

    /// Count homomorphisms from the star expansion `A*` into `b` through
    /// the Lemma 6.2 pl-Turing reduction, with **this engine** as the
    /// oracle: every one of the `2^{|A|} − 1` inclusion–exclusion oracle
    /// calls has left-hand side exactly `a`, so the plan (and its counting
    /// certificates) is prepared once and every subsequent call is a cache
    /// hit — the reduction runs over cached plans.
    ///
    /// `b` must be a coloured target interpreting `a`'s vocabulary plus the
    /// colour relations `C_0 … C_{|A|−1}` (see
    /// [`cq_structures::ops::colored_target`]); panics otherwise, like the
    /// underlying [`cq_reductions::count_star_via_oracle`].
    ///
    /// Inclusion–exclusion **subtracts** oracle answers, so one overflowed
    /// term makes the whole reduction unsalvageable: any oracle call
    /// reporting [`CountOutcome::Overflow`] yields
    /// [`CountOutcome::Overflow`] here — never the silently wrong
    /// difference the old saturating arithmetic produced.
    pub fn count_star(&self, a: &Structure, b: &Structure) -> CountOutcome {
        match cq_reductions::count_star_via_oracle(a, b, &mut |query, database| {
            self.count_instance(query, database).count.exact()
        }) {
            Some(n) => CountOutcome::Exact(n),
            None => CountOutcome::Overflow,
        }
    }

    /// Optimize `objective` over all homomorphisms from `query` into
    /// `database`: the minimum (resp. maximum) total tuple weight, through
    /// the tropical instantiations of the same kernel DPs that decide and
    /// count.  `None` when no homomorphism exists.  Plans are shared with
    /// decision/counting traffic through the same cache, under the same
    /// isomorphism guard as [`Engine::count_instance`] (aggregates are not
    /// core-invariant), and reuse the compiled counting programs; only the
    /// weights differ per call.  The tier is [`CountMethod::for_widths`]:
    /// the tree DP within the treewidth threshold, exhaustive search
    /// otherwise.
    ///
    /// # Panics
    /// When `weights` is not aligned with `database`'s relations
    /// (`weights.matches(database)` must hold — a weight table is only
    /// meaningful next to the structure it was built for).
    pub fn aggregate(
        &self,
        query: &Structure,
        database: &Structure,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> AggregateReport {
        assert!(
            weights.matches(database),
            "weight table does not align with the database's relations"
        );
        let plan = self.plan_where(query, |p| p.counts_for(query));
        let widths = self.ensure_counting_certificates(&plan);
        let method = CountMethod::for_widths(widths, &self.config);
        let index = self.indexes.get(database);
        AggregateReport {
            value: plan.aggregate(method, &index, weights, objective),
            objective,
            method,
            degree_hint: Degree::of_widths(widths, &self.config),
            widths,
        }
    }

    /// The one batch form: evaluate `eval` on every item across the
    /// configured worker threads ([`EngineConfig::workers`]) and return the
    /// results in input order.  `eval` is any single-operation method, e.g.
    /// `engine.batch(&pairs, |e, &(q, d)| e.count_instance(q, d))`.
    ///
    /// Workers pull the next unclaimed index from a shared atomic cursor
    /// (work stealing), so skewed per-item costs balance; output order is
    /// fixed by index, not completion order, so the results are identical
    /// to the sequential path for every worker count.  Plans, counting
    /// certificates and database indexes are shared through the engine's
    /// caches: each distinct query is prepared once (single-flighted under
    /// races).  A panic in `eval` resumes on the calling thread.
    pub fn batch<T, R, F>(&self, items: &[T], eval: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Engine, &T) -> R + Sync,
    {
        let workers = self.effective_workers().min(items.len());
        if workers <= 1 {
            return items.iter().map(|item| eval(self, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            produced.push((i, eval(self, item)));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                let produced = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, report) in produced {
                    out[i] = Some(report);
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every batch index solved exactly once"))
            .collect()
    }

    /// Plan cache behaviour so far, aggregated across shards and worker
    /// threads.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-query exponential work performed by this engine so far,
    /// aggregated across all threads that prepared through it (see
    /// [`PrepStats`]).
    pub fn prep_stats(&self) -> PrepStats {
        self.prep.snapshot()
    }

    /// Instance-index cache behaviour so far (one index build per distinct
    /// database, shared by decision and counting traffic).
    pub fn index_stats(&self) -> IndexStats {
        self.indexes.stats()
    }

    /// Every plan this engine currently holds — the cached plans of all
    /// shards plus registered plans that outlived eviction — deduplicated
    /// by fingerprint and sorted by it, so the snapshot (and therefore a
    /// saved store's bytes) is deterministic.
    fn snapshot_plans(&self) -> Vec<Arc<PreparedQuery>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        self.cache.slots.for_each(|slot| {
            if seen.insert(slot.plan.fingerprint()) {
                out.push(Arc::clone(&slot.plan));
            }
        });
        for plan in self.registered.lock().expect("registry lock").iter() {
            if seen.insert(plan.fingerprint()) {
                out.push(Arc::clone(plan));
            }
        }
        out.sort_by_key(|p| p.fingerprint());
        out
    }

    /// Persist every currently held plan (cached and registered) to a
    /// [`crate::persist::PlanStore`] file at `path`, returning how many
    /// plans were written.  Lazily materialized artifacts (sentence,
    /// staircase, counting certificates) are saved exactly as far as
    /// traffic has forced them — a loader materializes the rest on first
    /// use, like any in-process plan.
    pub fn save_plans(&self, path: impl AsRef<std::path::Path>) -> Result<u64, PersistError> {
        let plans = self.snapshot_plans();
        let mut store = PlanStore::new(self.config);
        for plan in &plans {
            store.push_plan(plan);
        }
        // Fold in evicted-but-persisted records no longer live in any
        // shard, so a restart warm-starts every fingerprint this engine
        // ever prepared — churned out or not.
        let mut merged = 0u64;
        let mut evicted = self.eviction.as_ref().map(|sink| {
            sink.store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        });
        if let Some(evicted) = evicted.as_deref() {
            let live: std::collections::HashSet<u64> =
                plans.iter().map(|p| p.fingerprint()).collect();
            for record in evicted.records() {
                if !live.contains(&record.fingerprint()) {
                    store.push_raw_record(record.fingerprint(), record.payload().to_vec());
                    merged += 1;
                }
            }
            store.sort_by_fingerprint();
        }
        store.write_to(path)?;
        // The eviction writer flushes under the same lock: adopting the
        // merged image before unlocking keeps a flush queued earlier from
        // replacing this file with an image that lacks the live plans.
        if let Some(evicted) = evicted.as_deref_mut() {
            *evicted = store;
        }
        let total = plans.len() as u64 + merged;
        self.prep.plans_saved.fetch_add(total, Ordering::Relaxed);
        Ok(total)
    }

    /// Warm-start the sharded plan cache from a plan-store file: decode
    /// each record, verify it against this engine's configuration
    /// ([`PreparedQuery::verify`] — fingerprint, hom-equivalence of the
    /// evaluated core, certificate validity, threshold consistency), and
    /// cache the survivors.  Rejected records are counted
    /// ([`PrepStats::plans_rejected`]) and skipped: the queries they would
    /// have served fall back to a cold prepare on first sight, so a
    /// corrupted or stale store can cost time but never a wrong answer.
    ///
    /// File-level failures (missing file, foreign bytes, version mismatch,
    /// whole-file checksum) are returned as [`PersistError`]; the engine is
    /// unchanged in that case.
    pub fn load_plans(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<WarmStartSummary, PersistError> {
        let store = PlanStore::read_from(path)?;
        Ok(self.adopt_store(&store))
    }

    /// [`Engine::load_plans`], from an in-memory store image (the unit the
    /// corruption tests drive directly).
    pub fn adopt_store(&self, store: &PlanStore) -> WarmStartSummary {
        let mut summary = WarmStartSummary {
            loaded: 0,
            rejected: store.corrupt_records(),
        };
        let compatible =
            store.config().plan_compatible(&self.config) && self.cache.slots.capacity() > 0;
        for record in store.records() {
            if !compatible {
                summary.rejected += 1;
                continue;
            }
            let plan = match record.decode_plan() {
                Ok(plan) => plan,
                Err(_) => {
                    summary.rejected += 1;
                    continue;
                }
            };
            if plan.fingerprint() != record.fingerprint()
                || plan.verify(&self.config).is_err()
                || self
                    .cache
                    .find(plan.fingerprint(), plan.original())
                    .is_some()
            {
                summary.rejected += 1;
                continue;
            }
            let evicted = self.cache.insert(Arc::new(plan));
            self.persist_evicted(evicted);
            summary.loaded += 1;
        }
        self.prep
            .plans_loaded
            .fetch_add(summary.loaded, Ordering::Relaxed);
        self.prep
            .plans_rejected
            .fetch_add(summary.rejected, Ordering::Relaxed);
        summary
    }

    /// Builder form of [`Engine::load_plans`]: construct the engine, then
    /// warm-start it from `path` — `Engine::new(config).with_plan_store(p)`
    /// is the restart counterpart of a long-running engine's
    /// [`Engine::save_plans`].
    pub fn with_plan_store(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Engine, PersistError> {
        self.load_plans(path)?;
        Ok(self)
    }

    /// Enable **save-on-eviction**: every plan the LRU evicts from now on
    /// is upserted into an in-memory [`PlanStore`] image and persisted to
    /// `path` by a background writer thread, so a long-running engine
    /// accumulates plans incrementally instead of losing everything that
    /// churned out of the cache before the final [`Engine::save_plans`].
    ///
    /// If `path` already holds a plan-compatible store its records seed the
    /// image (nothing previously persisted is clobbered); an unreadable or
    /// incompatible file is ignored and the image starts empty.  Writes are
    /// atomic (temp sibling + rename) and best-effort: an I/O failure skips
    /// that flush, and the next eviction retries with the fuller image.
    /// [`Engine::save_plans`] folds the image's records into its own
    /// snapshot, so a graceful shutdown saves every fingerprint ever
    /// prepared — evicted or live.  Dropping the engine joins the writer
    /// after a final flush.
    pub fn with_eviction_store(mut self, path: impl AsRef<std::path::Path>) -> Engine {
        let path = path.as_ref().to_path_buf();
        let seed = match PlanStore::read_from(&path) {
            Ok(existing) if existing.config().plan_compatible(&self.config) => existing,
            _ => PlanStore::new(self.config),
        };
        let store = Arc::new(Mutex::new(seed));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                // Each wake covers every upsert that preceded it; draining
                // the queue coalesces a burst of evictions into one write.
                // Write under the lock (evictions wait for at most one
                // flush), so no flush lands after a `save_plans` write of
                // a fuller image.
                while rx.recv().is_ok() {
                    while rx.try_recv().is_ok() {}
                    let store = store
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let _ = crate::persist::write_image_atomic(&path, &store.to_bytes());
                }
            })
        };
        self.eviction = Some(EvictionSink {
            store,
            wake: Mutex::new(Some(tx)),
            writer: Some(writer),
        });
        self
    }

    /// Hand a plan the LRU just evicted to the eviction sink (no-op without
    /// one): upsert into the store image under its lock, then wake the
    /// background writer — the serving thread never touches the file.
    fn persist_evicted(&self, evicted: Option<Arc<PreparedQuery>>) {
        let (Some(sink), Some(plan)) = (&self.eviction, evicted) else {
            return;
        };
        {
            let mut store = sink
                .store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            store.upsert_plan(&plan);
            // Keep the image fingerprint-sorted so its bytes (and a later
            // `save_plans` merge) stay deterministic under eviction order.
            store.sort_by_fingerprint();
        }
        self.prep
            .plans_evicted_persisted
            .fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = sink
            .wake
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
        {
            let _ = tx.send(());
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(sink) = self.eviction.take() {
            // Dropping the sender lets the writer drain any queued wakes
            // (flushing every upsert) and exit; join so the final image is
            // on disk before the engine is gone.
            drop(
                sink.wake
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            );
            if let Some(writer) = sink.writer {
                let _ = writer.join();
            }
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("tiers", &self.tiers)
            .field("cache", &self.cache_stats())
            .field("prep", &self.prep_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::{families, homomorphism_exists, relabeled};

    #[test]
    fn solve_matches_reference_and_reuses_plans() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::star(4), families::cycle(5), families::clique(4)];
        let targets = [families::clique(4), families::grid(3, 3)];
        for _round in 0..2 {
            for a in &queries {
                for b in &targets {
                    let report = engine.solve(a, b);
                    assert_eq!(report.exists, homomorphism_exists(a, b), "{a} -> {b}");
                }
            }
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3, "one preparation per distinct query");
        assert_eq!(stats.hits as usize, 2 * 3 * 2 - 3);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.entries, 3);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 3);
        assert_eq!(prep.core_computations, 3);
    }

    #[test]
    fn register_and_solve_batch() {
        let engine = Engine::new(EngineConfig::default());
        let star = families::star(4);
        let cycle = families::cycle(5);
        let star_id = engine.register(&star);
        let cycle_id = engine.register(&cycle);
        let targets: Vec<Structure> = (3..7).map(families::clique).collect();
        let batch: Vec<(QueryId, &Structure)> = targets
            .iter()
            .flat_map(|t| [(star_id, t), (cycle_id, t)])
            .collect();
        let reports = engine.batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d));
        assert_eq!(reports.len(), batch.len());
        for ((id, t), report) in batch.iter().zip(&reports) {
            let q = if *id == star_id { &star } else { &cycle };
            assert_eq!(report.exists, homomorphism_exists(q, t), "{q} -> {t}");
        }
    }

    #[test]
    fn parallel_batch_returns_sequential_results_in_input_order() {
        let sequential = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let parallel = Engine::new(EngineConfig {
            workers: 8,
            ..EngineConfig::default()
        });
        let queries = [families::star(4), families::cycle(7), families::clique(4)];
        let targets: Vec<Structure> = (3..8).map(families::clique).collect();
        let batch: Vec<(&Structure, &Structure)> = queries
            .iter()
            .flat_map(|q| targets.iter().map(move |t| (q, t)))
            .collect();
        let seq_reports = sequential.batch(&batch, |e, &(q, d)| e.solve(q, d));
        let par_reports = parallel.batch(&batch, |e, &(q, d)| e.solve(q, d));
        assert_eq!(seq_reports, par_reports);
        // Both engines prepared each distinct query exactly once.
        assert_eq!(sequential.prep_stats().preparations, 3);
        assert_eq!(parallel.prep_stats().preparations, 3);
    }

    #[test]
    fn registering_an_equivalent_query_hits_the_cache() {
        let engine = Engine::new(EngineConfig::default());
        let c7 = families::cycle(7);
        let perm: Vec<usize> = (0..7).rev().collect();
        let id1 = engine.register(&c7);
        let id2 = engine.register(&relabeled(&c7, &perm));
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
        // Both handles resolve to the same plan.
        assert!(Arc::ptr_eq(&engine.prepared(id1), &engine.prepared(id2)));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_plan() {
        // A capacity below 16 is one shard, so global LRU order is exact
        // (the property under test).
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(2);
        let a = families::star(3);
        let b = families::star(4);
        let c = families::star(5);
        let t = families::clique(3);
        engine.solve(&a, &t); // miss -> {a}
        engine.solve(&b, &t); // miss -> {a, b}
        engine.solve(&a, &t); // hit, a most recent
        engine.solve(&c, &t); // miss, evicts b
        engine.solve(&a, &t); // hit
        engine.solve(&b, &t); // miss again (was evicted)
        let stats = engine.cache_stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.lookups, 6);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(0);
        let a = families::star(3);
        let t = families::clique(3);
        engine.solve(&a, &t);
        engine.solve(&a, &t);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_disables() {
        let engine = Engine::new(EngineConfig::default());
        let t = families::clique(3);
        for legs in 3..8 {
            engine.solve(&families::star(legs), &t);
        }
        assert_eq!(engine.cache_stats().entries, 5);
        // Shrink below the population: trims to the new capacity at once.
        let engine = engine.with_cache_capacity(2);
        assert_eq!(engine.cache_stats().entries, 2);
        assert_eq!(engine.cache_stats().evictions, 3);
        // Shrink to zero after use: caching is actually off.
        let engine = engine.with_cache_capacity(0);
        assert_eq!(engine.cache_stats().entries, 0);
        let before = engine.cache_stats();
        engine.solve(&families::star(3), &t);
        engine.solve(&families::star(3), &t);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits, "no hits once disabled");
        assert_eq!(after.entries, 0);
    }

    #[test]
    fn sharded_cache_caps_total_entries() {
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(16);
        assert_eq!(engine.cache.slots.shard_capacities(), [8, 8]);
        let t = families::clique(3);
        for legs in 3..20 {
            engine.solve(&families::star(legs), &t);
        }
        let stats = engine.cache_stats();
        assert!(
            stats.entries <= 16,
            "entries {} exceed total capacity",
            stats.entries
        );
        assert!(stats.evictions > 0, "17 distinct plans into 16 slots");
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn repeat_prepares_reuse_the_memoized_fingerprint() {
        let engine = Engine::new(EngineConfig::default());
        let query = families::cycle(5);
        let plan = engine.prepare(&query);
        assert_eq!(plan.fingerprint(), query_fingerprint(&query));
        let memo = |engine: &Engine| -> Vec<(u64, u64)> {
            let memo = lru::lock(&engine.cache.fingerprints);
            memo.iter().map(|(&t, &f)| (t, f)).collect()
        };
        assert_eq!(memo(&engine), [(query.content_token(), plan.fingerprint())]);
        // A clone shares the token: served from the memo, same plan.
        assert!(Arc::ptr_eq(&plan, &engine.prepare(&query.clone())));
        assert_eq!(memo(&engine).len(), 1);
        // Each rebuild draws a fresh token; the memo stays bounded and
        // every lookup still lands on the one cached plan.
        for _ in 0..FINGERPRINT_MEMO + 6 {
            assert!(Arc::ptr_eq(&plan, &engine.prepare(&families::cycle(5))));
        }
        let entries = memo(&engine);
        assert_eq!(entries.len(), FINGERPRINT_MEMO);
        assert!(entries.iter().all(|&(_, f)| f == plan.fingerprint()));
        assert!(!entries.iter().any(|&(t, _)| t == query.content_token()));
        assert_eq!(engine.cache_stats().misses, 1);
        // A disabled cache memoizes nothing.
        let cold = Engine::new(EngineConfig::default()).with_cache_capacity(0);
        cold.prepare(&query);
        assert!(memo(&cold).is_empty());
    }

    #[test]
    fn relabelled_lookups_are_verified_once_then_memoized() {
        let engine = Engine::new(EngineConfig::default());
        let c7 = families::cycle(7);
        let perm: Vec<usize> = (0..7).rev().collect();
        let twisted = relabeled(&c7, &perm);
        engine.prepare(&c7);
        // Repeated lookups of the same relabelled form all hit; the
        // hom-equivalence verification runs only on the first (observable
        // here as: answers stay correct and every lookup is a hit).
        for _ in 0..3 {
            let plan = engine.prepare(&twisted);
            assert!(std::sync::Arc::ptr_eq(&plan, &engine.prepare(&c7)));
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 6);
    }

    #[test]
    fn decision_and_counting_share_one_cached_plan() {
        let engine = Engine::new(EngineConfig::default());
        let p4 = families::path(4);
        let k3 = families::clique(3);
        // Decision first: prepares the plan (core K2, widths of the core).
        let decision = engine.solve(&p4, &k3);
        assert!(decision.exists);
        assert_eq!(decision.evaluated_query_size, 2, "decision ran on the core");
        // Counting reuses the same plan (a cache hit) but counts the
        // original: #hom(P4, K3) = 3·2·2·2 = 24, not #hom(K2, K3) = 6.
        let count = engine.count_instance(&p4, &k3);
        assert_eq!(count.count, 24);
        assert_eq!(count.counted_query_size, 4);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one plan serves both kinds of traffic");
        assert_eq!(stats.hits, 1);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 1);
        assert_eq!(
            prep.counting_preparations, 1,
            "P4's core is proper, so counting materialized its own certificates"
        );
        // Decision analysis + counting analysis: two of each width DP.
        assert_eq!(prep.treewidth_calls, 2);
    }

    #[test]
    fn cached_plan_counting_runs_zero_additional_decomposition_passes() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::path(4), families::star(3), families::cycle(5)];
        let targets = [families::clique(3), families::clique(4)];
        // Warm: first counting pass materializes every counting certificate.
        for q in &queries {
            for t in &targets {
                engine.count_instance(q, t);
            }
        }
        let warm = engine.prep_stats();
        // Cached run: same traffic again — no width DP, no core computation,
        // no counting-certificate materialization may run.
        for q in &queries {
            for t in &targets {
                engine.count_instance(q, t);
            }
        }
        assert_eq!(
            engine.prep_stats(),
            warm,
            "cached counting re-ran prep work"
        );
    }

    #[test]
    fn counting_serves_relabelled_forms_from_the_cached_plan() {
        let engine = Engine::new(EngineConfig::default());
        let c5 = families::cycle(5);
        let perm: Vec<usize> = (0..5).rev().collect();
        let twisted = relabeled(&c5, &perm);
        let t = families::clique(4);
        let direct = engine.count_instance(&c5, &t);
        let via_alias = engine.count_instance(&twisted, &t);
        // Counts are isomorphism-invariant, so the alias may (and does)
        // reuse the plan.
        assert_eq!(direct.count, via_alias.count);
        assert_eq!(engine.prep_stats().preparations, 1);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn count_star_prepares_the_oracle_query_once() {
        // Lemma 6.2 over cached plans: 2^3 - 1 = 7 subset oracle calls, all
        // with left-hand side C3 — one preparation, the rest cache hits.
        let engine = Engine::new(EngineConfig::default());
        let c3 = families::cycle(3);
        let colored =
            cq_structures::ops::colored_target(3, &families::clique(4), |_| (0..4).collect());
        let got = engine.count_star(&c3, &colored);
        let direct = cq_structures::count_homomorphisms_bruteforce(
            &cq_structures::star_expansion(&c3),
            &colored,
        );
        assert_eq!(got, direct);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 1, "one plan for all 7 oracle calls");
        assert!(prep.counting_preparations <= 1);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, stats.lookups - 1);
    }

    #[test]
    #[should_panic(expected = "issued by a different Engine")]
    fn query_ids_are_not_transferable_between_engines() {
        let engine_a = Engine::new(EngineConfig::default());
        let engine_b = Engine::new(EngineConfig::default());
        // Give engine_b a registration at index 0 so a silent index-based
        // resolution would *succeed* (with the wrong plan) if unguarded.
        let _ = engine_b.register(&families::clique(4));
        let id_a = engine_a.register(&families::star(3));
        let _ = engine_b.prepared(id_a);
    }

    #[test]
    fn ablated_registry_changes_dispatch_not_answers() {
        use cq_structures::ops::colored_target;
        use cq_structures::star_expansion;
        let cfg = EngineConfig::default();
        // T*_3 has pathwidth 2: a pathwidth threshold of 1 licenses the
        // tree DP for it.
        let tree_cfg = EngineConfig {
            pathwidth_threshold: 1,
            ..cfg
        };
        let cases = [
            (
                SolverChoice::TreeDepth,
                SolverChoice::PathDecomposition,
                cfg,
                families::star(5),
                vec![families::clique(3), families::cycle(6), families::path(1)],
            ),
            (
                SolverChoice::PathDecomposition,
                SolverChoice::TreeDecomposition,
                cfg,
                star_expansion(&families::path(9)),
                vec![
                    colored_target(9, &families::path(12), |e| vec![e, e + 1]),
                    colored_target(9, &families::path(20), |e| vec![2 * e]),
                ],
            ),
            (
                SolverChoice::TreeDecomposition,
                SolverChoice::Backtracking,
                tree_cfg,
                star_expansion(&families::tree_t(3)),
                vec![
                    colored_target(15, &families::clique(3), |_| (0..3).collect()),
                    colored_target(15, &families::path(2), |_| vec![0]),
                ],
            ),
        ];
        for (removed, fallback, config, a, targets) in cases {
            let full = Engine::new(config);
            let ablated = Engine::new(config).without_tier(removed);
            for b in &targets {
                let expected = homomorphism_exists(&a, b);
                let r_full = full.solve(&a, b);
                let r_ablated = ablated.solve(&a, b);
                assert_eq!(r_full.choice, removed, "{a}");
                assert_eq!(r_ablated.choice, fallback, "{a}");
                assert_eq!(r_full.exists, expected, "{a} -> {b}");
                assert_eq!(r_ablated.exists, expected, "{a} -> {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be ablated")]
    fn the_backtracking_fallback_cannot_be_ablated() {
        let _ = Engine::new(EngineConfig::default()).without_tier(SolverChoice::Backtracking);
    }

    #[test]
    fn small_total_capacity_never_zeroes_a_shard() {
        // A zero-slot shard would silently disable caching for every key
        // hashing there.  The shard count derives from the capacity, so
        // every shard gets a share and the shares add up to the total.
        for capacity in 0..=300 {
            let shares = ShardedLru::<()>::new(capacity).shard_capacities();
            assert_eq!(shares.len(), (capacity / 8).clamp(1, 8), "{capacity}");
            assert_eq!(shares.iter().sum::<usize>(), capacity, "{capacity}");
            assert!(capacity == 0 || shares.iter().all(|&s| s > 0), "{capacity}");
            assert!(
                capacity < 16 || shares.iter().all(|&s| s >= 8),
                "{capacity}"
            );
        }
        // Both default capacities keep 8 shards.
        let engine = Engine::new(EngineConfig::default());
        assert_eq!(engine.cache.slots.shard_capacities(), [32; 8]);
        assert_eq!(engine.indexes.slots.shard_capacities(), [8; 8]);
    }

    #[test]
    fn panicking_preparation_does_not_wedge_the_fingerprint() {
        // cycle(24) exceeds the exact-DP vertex limit, so preparation
        // panics (use_core = false keeps the 24-vertex graph).  The
        // single-flight latch entry must be cleaned up on the unwind:
        // a retry must panic with the *original* size-limit message, not a
        // stale "preparation latch" error, and unrelated queries must keep
        // working.
        let engine = Engine::new(EngineConfig {
            use_core: false,
            ..EngineConfig::default()
        });
        let too_big = families::cycle(24);
        for attempt in 0..2 {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.prepare(&too_big)))
                    .expect_err("preparation beyond the DP limit must panic");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                message.contains("is exponential"),
                "attempt {attempt} panicked with {message:?} instead of the size-limit error"
            );
        }
        // The engine is still fully usable afterwards.
        let report = engine.solve(&families::star(3), &families::clique(3));
        assert!(report.exists);
    }

    #[test]
    fn instance_indexes_are_built_once_per_database_across_decide_and_count() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::star(4), families::path(4)];
        let targets = [families::clique(3), families::clique(4)];
        for _round in 0..3 {
            for q in &queries {
                for t in &targets {
                    let decision = engine.solve(q, t);
                    let count = engine.count_instance(q, t);
                    assert_eq!(decision.exists, count.count.positive(), "{q} -> {t}");
                }
            }
        }
        let stats = engine.index_stats();
        assert_eq!(stats.misses, 2, "one index build per distinct database");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        // 3 rounds × 2 queries × 2 targets × (decide + count) = 24 lookups.
        assert_eq!(stats.lookups, 24);
    }

    #[test]
    fn repeat_index_lookups_hash_the_database_once() {
        let engine = Engine::new(EngineConfig::default());
        let db = families::clique(4);
        let first = engine.instance_index(&db);
        for _ in 0..9 {
            assert!(Arc::ptr_eq(&first, &engine.instance_index(&db)));
        }
        let stats = engine.index_stats();
        assert_eq!(stats.lookups, 10);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert_eq!(
            stats.hash_computes, 1,
            "repeat lookups of an unchanged database must not rehash it"
        );
        // A clone shares the content token, so it rides the O(1) path too.
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&db.clone())));
        assert_eq!(engine.index_stats().hash_computes, 1);
        // A structurally equal but independently built object carries a
        // fresh token: it pays one hash to find the shared index, then its
        // token is aliased and later lookups are O(1) again.
        let rebuilt = families::clique(4);
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&rebuilt)));
        assert_eq!(engine.index_stats().hash_computes, 2);
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&rebuilt)));
        let stats = engine.index_stats();
        assert_eq!(stats.hash_computes, 2);
        assert_eq!(stats.misses, 1, "one build for all of the above");
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn apply_delta_maintains_the_cached_index_in_place() {
        use cq_structures::{count_homomorphisms_bruteforce, DeltaBatch};

        let engine = Engine::new(EngineConfig::default());
        let query = families::star(3);
        let db = families::clique(4);
        let e = db.vocabulary().id_of("E").expect("graph vocabulary");

        // Warm: decision + counting traffic builds and caches one index.
        assert!(engine.solve(&query, &db).exists);
        let warm_count = engine.count_instance(&query, &db);
        assert_eq!(
            warm_count.count,
            count_homomorphisms_bruteforce(&query, &db)
        );
        let before = engine.index_stats();
        assert_eq!(before.misses, 1);

        // Delete one K4 edge in place; query the post-delta state through
        // the report's database so the content token routes to the
        // maintained index.
        let mut batch = DeltaBatch::new();
        batch.delete(e, vec![0, 1]);
        let report = engine.apply_delta(&db, &batch).expect("valid batch");
        let counted = engine.index_stats();
        assert_eq!(counted.lookups, before.lookups + 1, "one delta, one lookup");
        assert_eq!(counted.hits, before.hits + 1);
        assert_eq!(report.applied().deletions().len(), 1);
        assert!(report.version() > 0);
        let mutated = report.database().clone();
        assert_ne!(&mutated, &db, "the cached structure advanced");
        let count = engine.count_instance(&query, &mutated);
        assert_eq!(
            count.count,
            count_homomorphisms_bruteforce(&query, &mutated)
        );
        assert!(engine.solve(&query, &mutated).exists);
        let after = engine.index_stats();
        assert_eq!(
            after.misses, before.misses,
            "the delta path must never rebuild the index"
        );
        assert_eq!(
            after.hash_computes, before.hash_computes,
            "the delta path and post-delta queries must never rehash"
        );

        // Reinsert the edge: content returns to the original, and a second
        // engine agrees from cold on every round.
        let mut undo = DeltaBatch::new();
        undo.insert(e, vec![0, 1]);
        let report = engine.apply_delta(&mutated, &undo).expect("valid batch");
        assert_eq!(report.database(), &db, "insert ∘ delete is the identity");
        let cold = Engine::new(EngineConfig::default());
        assert_eq!(
            engine.count_instance(&query, report.database()).count,
            cold.count_instance(&query, report.database()).count
        );

        // Whole-batch validation: an out-of-universe element fails without
        // touching the cache.
        let mut bad = DeltaBatch::new();
        bad.insert(e, vec![0, 99]);
        let entries_before = engine.index_stats().entries;
        assert!(engine.apply_delta(report.database(), &bad).is_err());
        assert_eq!(engine.index_stats().entries, entries_before);
    }

    #[test]
    fn refused_delta_leaves_a_shared_index_uncopied() {
        use cq_structures::DeltaBatch;

        let engine = Engine::new(EngineConfig::default());
        let db = families::clique(4);
        let e = db.vocabulary().id_of("E").expect("graph vocabulary");
        let mut bad = DeltaBatch::new();
        bad.insert(e, vec![0, 99]);
        let stats = || {
            let s = engine.index_stats();
            (s.lookups, s.misses, s.entries)
        };
        // A second holder shares the cached index, so a mutation would
        // have to copy it: the refusal must come first.
        let held = engine.instance_index(&db);
        let before = stats();
        assert!(engine.apply_delta(&db, &bad).is_err());
        assert_eq!(stats(), before, "a refused batch left the cache touched");
        assert!(Arc::ptr_eq(&held, &engine.instance_index(&db)));
        // The chained form, with a kept clone of the report sharing it.
        let mut churn = DeltaBatch::new();
        churn.delete(e, vec![0, 1]);
        let report = engine.apply_delta(&db, &churn).expect("valid batch");
        let before = stats();
        assert!(engine.apply_delta_chained(report.clone(), &bad).is_err());
        assert_eq!(stats(), before, "a refused batch left the cache touched");
        let current = engine.instance_index(report.database());
        assert!(Arc::ptr_eq(report.index(), &current));
    }

    #[test]
    fn chained_deltas_run_without_rebuilds_rehashes_or_structure_handles() {
        use cq_structures::{count_homomorphisms_bruteforce, DeltaBatch};

        let engine = Engine::new(EngineConfig::default());
        let query = families::star(3);
        let db = families::clique(4);
        let e = db.vocabulary().id_of("E").expect("graph vocabulary");

        // Round 0 comes in by `&Structure`; every later round consumes the
        // previous report, so the caller holds no handle that would force a
        // copy-on-write.
        let mut batch = DeltaBatch::new();
        batch.delete(e, vec![0, 1]);
        let mut report = engine.apply_delta(&db, &batch).expect("valid batch");
        let id = report.index().id();
        let baseline = engine.index_stats();
        assert_eq!(
            (baseline.lookups, baseline.misses),
            (1, 1),
            "the first delta indexes the database in one lookup"
        );

        // Toggle the edge back and forth through the chained form: same
        // index identity, monotone version, no build, no rehash.
        for round in 0..7u64 {
            let mut batch = DeltaBatch::new();
            if round % 2 == 0 {
                batch.insert(e, vec![0, 1]);
            } else {
                batch.delete(e, vec![0, 1]);
            }
            let lookups = engine.index_stats().lookups;
            report = engine
                .apply_delta_chained(report, &batch)
                .expect("valid batch");
            assert_eq!(
                engine.index_stats().lookups,
                lookups + 1,
                "a chained delta is one lookup, like the `&Structure` form"
            );
            assert_eq!(report.index().id(), id, "identity survives the chain");
            assert_eq!(report.version(), round + 2, "one version per round");
            assert_eq!(
                engine.count_instance(&query, report.database()).count,
                count_homomorphisms_bruteforce(&query, report.database())
            );
        }
        assert_eq!(report.database(), &db, "the last toggle reinserts the edge");
        let after = engine.index_stats();
        // A per-engine miss is the only event that can build an index here,
        // so flat misses prove zero rebuilds (the global build counter is
        // shared across parallel tests and can't be asserted exactly).
        assert_eq!(after.misses, baseline.misses, "chained rounds never miss");
        assert_eq!(
            after.hash_computes, baseline.hash_computes,
            "chained rounds never rehash"
        );

        // A validation error rejects the batch whole and keeps the
        // pre-delta index cached: a kept clone of the report still routes
        // to it, and its content is unchanged.
        let keep = report.clone();
        let mut bad = DeltaBatch::new();
        bad.insert(e, vec![0, 99]);
        assert!(engine.apply_delta_chained(report, &bad).is_err());
        assert_eq!(keep.database(), &db);
        let misses = engine.index_stats().misses;
        assert!(engine.solve(&query, keep.database()).exists);
        assert_eq!(
            engine.index_stats().misses,
            misses,
            "the pre-delta index is still served after a rejected batch"
        );
    }

    #[test]
    fn zero_index_capacity_disables_index_caching() {
        let engine = Engine::new(EngineConfig::default()).with_index_cache_capacity(0);
        let q = families::star(3);
        let t = families::clique(3);
        engine.solve(&q, &t);
        engine.solve(&q, &t);
        let stats = engine.index_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn index_cache_shares_one_build_across_batch_workers() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let queries = [families::star(4), families::cycle(5), families::path(4)];
        let target = families::clique(4);
        let target_ref = &target;
        let batch: Vec<(&Structure, &Structure)> = queries
            .iter()
            .flat_map(|q| (0..8).map(move |_| (q, target_ref)))
            .collect();
        let reports = engine.batch(&batch, |e, &(q, d)| e.solve(q, d));
        assert_eq!(reports.len(), 24);
        let stats = engine.index_stats();
        assert_eq!(stats.entries, 1, "one shared database, one cached index");
        // Racing workers may build the one index more than once (builds are
        // idempotent and not single-flighted), but never once per instance.
        assert!(
            stats.misses < batch.len() as u64 / 2,
            "index cache ineffective under fan-out: {stats:?}"
        );
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn concurrent_prepares_of_one_query_are_single_flighted() {
        let engine = Engine::new(EngineConfig::default());
        let query = families::cycle(7);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let plan = engine.prepare(&query);
                    assert_eq!(plan.fingerprint(), engine.prepare(&query).fingerprint());
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.lookups, 16);
        assert_eq!(stats.misses, 1, "one preparation despite 8 racing threads");
        assert_eq!(stats.hits, 15);
        assert_eq!(engine.prep_stats().preparations, 1);
    }
}
