//! Indexed access structures over a target structure — the read-optimized
//! form the evaluation kernel (`cq_solver::kernel`) consumes.
//!
//! All homomorphism algorithms ask the target structure `B` the same two
//! questions, millions of times: "is this tuple in `R^B`?" and "which
//! elements of `B` can sit at position `p` of a tuple of `R^B`?".  The
//! [`Structure`] representation answers the first by binary search over a
//! sorted tuple list and cannot answer the second without a scan.  A
//! [`StructureIndex`] is built **once** per target structure (linear time
//! in `|B|`) and answers both in `O(1)`:
//!
//! * a per-symbol **row hash table** keyed by a deterministic FNV-1a hash of
//!   the row — buckets store tuple ids, and candidates are confirmed against
//!   the structure's own flat row storage, so membership costs no owned-key
//!   allocations and the rows are never materialised twice;
//! * per-(symbol, position) **CSR posting lists** — for every element `e`
//!   and argument position `p` of a symbol `R`, the list of tuples of `R^B`
//!   with `e` at position `p`, exposed through candidate iterators
//!   ([`StructureIndex::tuples_with`]) and the deduplicated position
//!   domains ([`StructureIndex::elements_at`]) the kernel's prefilter
//!   intersects.
//!
//! The index *shares* the structure it indexes through an [`Arc`] rather
//! than copying its tuples: [`StructureIndex::from_arc`] takes ownership of
//! a shared structure, and the engine (`cq_core::Engine`) caches one
//! `Arc<StructureIndex>` per registered database instance so that batch
//! fan-out — decision and counting alike — shares a single build and a
//! single copy of the tuple data.  Every index carries a process-unique
//! [`StructureIndex::id`], which compiled kernel programs use as a cache
//! key.  [`structure_hash`] is the deterministic content hash the engine's
//! instance cache keys on.

use crate::delta::{AppliedDelta, DeltaBatch};
use crate::error::StructureError;
use crate::meter::{self, Meter};
use crate::structure::{fresh_content_token, Structure};
use crate::vocabulary::{SymbolId, Vocabulary};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique index identities, used to key compiled-program caches.
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(1);

/// Process-unique domain epochs, drawn when a delta grows a position
/// domain (0 is every fresh build's epoch).
static NEXT_DOMAIN_EPOCH: AtomicU64 = AtomicU64::new(1);

/// How many full index builds (one per [`StructureIndex::from_arc`] sweep)
/// have happened in this process: the [`Meter::IndexBuild`] count.  The
/// incremental path mutates indexes in place, so benches assert this does
/// *not* grow while deltas are applied.
pub fn index_build_count() -> u64 {
    meter::process()[Meter::IndexBuild]
}

/// How many [`AppliedDelta`] records an index retains for consumers that
/// catch up retained DP state by replaying mutations
/// ([`StructureIndex::mutations_since`]).
const MUTATION_LOG_CAP: usize = 32;

/// A membership bucket: the tuple ids whose rows share an FNV hash.  Almost
/// every bucket holds exactly one id, so the one-element case is inlined.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

/// The per-symbol part of a [`StructureIndex`].  Tuple *data* lives in the
/// shared [`Structure`]; this holds only derived access paths keyed by
/// tuple id.
#[derive(Debug, Clone, Default)]
struct RelationIndex {
    arity: usize,
    /// Hash table over the relation's rows: FNV-1a row hash → tuple ids.
    /// Lookups confirm candidates against the structure's row storage.
    buckets: HashMap<u64, Bucket>,
    /// CSR posting lists, one per argument position: `offsets[pos]` has
    /// `universe_size + 1` entries and `tuple_ids[pos][offsets[pos][e] ..
    /// offsets[pos][e + 1]]` are the tuples holding `e` at position `pos`.
    offsets: Vec<Vec<u32>>,
    tuple_ids: Vec<Vec<u32>>,
    /// `elements_at[pos]`: the sorted, deduplicated elements occurring at
    /// argument position `pos` — the position domain the kernel prefilter
    /// intersects.
    elements_at: Vec<Vec<u32>>,
    /// Copy-on-write posting overlay for delta-mutated relations: one map
    /// per position holding the posting lists that diverged from the
    /// immutable CSR base.  Empty (no allocation) until the first mutation
    /// touches this relation.
    overlay: Vec<HashMap<u32, Vec<u32>>>,
}

/// Deterministic FNV-1a hash of a flat row (stable across processes).
#[inline]
pub(crate) fn fnv_row(row: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &e in row {
        for b in e.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl RelationIndex {
    fn build(structure: &Structure, sym: SymbolId) -> RelationIndex {
        let rel = structure.relation(sym);
        let arity = rel.arity();
        let len = rel.len();
        debug_assert!(len <= u32::MAX as usize, "tuple ids are u32");
        let n = structure.universe_size();

        let mut buckets: HashMap<u64, Bucket> = HashMap::with_capacity(len);
        for (idx, row) in rel.rows().enumerate() {
            use std::collections::hash_map::Entry;
            match buckets.entry(fnv_row(row)) {
                Entry::Vacant(v) => {
                    v.insert(Bucket::One(idx as u32));
                }
                Entry::Occupied(mut o) => match o.get_mut() {
                    Bucket::One(first) => {
                        let first = *first;
                        o.insert(Bucket::Many(vec![first, idx as u32]));
                    }
                    Bucket::Many(ids) => ids.push(idx as u32),
                },
            }
        }

        let mut offsets = Vec::with_capacity(arity);
        let mut tuple_ids = Vec::with_capacity(arity);
        let mut elements_at = Vec::with_capacity(arity);
        for pos in 0..arity {
            let mut offs = vec![0u32; n + 1];
            for row in rel.rows() {
                offs[row[pos] as usize + 1] += 1;
            }
            for e in 0..n {
                offs[e + 1] += offs[e];
            }
            let mut cursor: Vec<u32> = offs[..n].to_vec();
            let mut ids = vec![0u32; len];
            for (idx, row) in rel.rows().enumerate() {
                let e = row[pos] as usize;
                ids[cursor[e] as usize] = idx as u32;
                cursor[e] += 1;
            }
            let elems: Vec<u32> = (0..n)
                .filter(|&e| offs[e + 1] > offs[e])
                .map(|e| e as u32)
                .collect();
            offsets.push(offs);
            tuple_ids.push(ids);
            elements_at.push(elems);
        }

        RelationIndex {
            arity,
            buckets,
            offsets,
            tuple_ids,
            elements_at,
            overlay: Vec::new(),
        }
    }

    /// The posting-list slice for `element` at `pos` (tuple ids).
    #[inline]
    fn posting(&self, pos: usize, element: u32) -> &[u32] {
        if let Some(ov) = self.overlay.get(pos) {
            if let Some(list) = ov.get(&element) {
                return list;
            }
        }
        self.base_posting(pos, element)
    }

    /// The posting-list slice of the immutable CSR base, ignoring any
    /// overlay entry.
    #[inline]
    fn base_posting(&self, pos: usize, element: u32) -> &[u32] {
        let offs = &self.offsets[pos];
        let e = element as usize;
        if e + 1 >= offs.len() {
            return &[];
        }
        &self.tuple_ids[pos][offs[e] as usize..offs[e + 1] as usize]
    }

    /// The mutable overlay posting list for `(pos, element)`, populated from
    /// the CSR base on first touch.
    fn overlay_posting_mut(&mut self, pos: usize, element: u32) -> &mut Vec<u32> {
        if self.overlay.is_empty() {
            self.overlay = vec![HashMap::new(); self.arity];
        }
        if !self.overlay[pos].contains_key(&element) {
            let base = self.base_posting(pos, element).to_vec();
            self.overlay[pos].insert(element, base);
        }
        self.overlay[pos].get_mut(&element).expect("just inserted")
    }

    fn bucket_insert(&mut self, hash: u64, id: u32) {
        use std::collections::hash_map::Entry;
        match self.buckets.entry(hash) {
            Entry::Vacant(v) => {
                v.insert(Bucket::One(id));
            }
            Entry::Occupied(mut o) => match o.get_mut() {
                Bucket::One(first) => {
                    let first = *first;
                    o.insert(Bucket::Many(vec![first, id]));
                }
                Bucket::Many(ids) => ids.push(id),
            },
        }
    }

    fn bucket_remove(&mut self, hash: u64, id: u32) {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut o) = self.buckets.entry(hash) else {
            debug_assert!(false, "bucket for a present row must exist");
            return;
        };
        match o.get_mut() {
            Bucket::One(only) => {
                debug_assert_eq!(*only, id);
                o.remove();
            }
            Bucket::Many(ids) => {
                ids.retain(|&i| i != id);
                if let [only] = ids[..] {
                    o.insert(Bucket::One(only));
                }
            }
        }
    }

    fn bucket_reid(&mut self, hash: u64, old: u32, new: u32) {
        match self.buckets.get_mut(&hash) {
            Some(Bucket::One(only)) if *only == old => *only = new,
            Some(Bucket::Many(ids)) => {
                if let Some(slot) = ids.iter_mut().find(|i| **i == old) {
                    *slot = new;
                }
            }
            _ => debug_assert!(false, "bucket for a moved row must exist"),
        }
    }

    /// Remove element `e` from the sorted position domain at `pos`.
    fn domain_remove(&mut self, pos: usize, e: u32) {
        if let Ok(i) = self.elements_at[pos].binary_search(&e) {
            self.elements_at[pos].remove(i);
        }
    }

    /// Insert element `e` into the sorted position domain at `pos`.
    fn domain_insert(&mut self, pos: usize, e: u32) {
        if let Err(i) = self.elements_at[pos].binary_search(&e) {
            self.elements_at[pos].insert(i, e);
        }
    }

    fn heap_bytes(&self) -> usize {
        let word = std::mem::size_of::<u32>();
        let csr: usize = self
            .offsets
            .iter()
            .chain(self.tuple_ids.iter())
            .chain(self.elements_at.iter())
            .map(|v| v.capacity() * word)
            .sum();
        let bucket_entries =
            self.buckets.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<Bucket>());
        let bucket_spill: usize = self
            .buckets
            .values()
            .map(|b| match b {
                Bucket::One(_) => 0,
                Bucket::Many(v) => v.capacity() * word,
            })
            .sum();
        let overlay: usize = self
            .overlay
            .iter()
            .map(|m| {
                m.capacity() * (word + std::mem::size_of::<Vec<u32>>())
                    + m.values().map(|v| v.capacity() * word).sum::<usize>()
            })
            .sum();
        csr + bucket_entries + bucket_spill + overlay
    }
}

/// One exact content state of an index: its [version](StructureIndex::version)
/// plus the [content token](Structure::content_token) of the structure at
/// that version.  The version alone does not name a state: two clones of
/// one index that take different deltas reach the same version with
/// different content, and only the token tells them apart.  Consumers that
/// retain state derived from an index stamp it with this and catch up
/// through [`StructureIndex::mutations_since`], which refuses an anchor
/// from another branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexState {
    /// The index version of the state.
    pub version: u64,
    /// The structure's content token in the state.
    pub token: u64,
}

/// An immutable read index over one target structure: row hash tables plus
/// CSR posting lists (see the module docs).  Build once with
/// [`StructureIndex::new`] or [`StructureIndex::from_arc`], share via `Arc`
/// across evaluations and worker threads.
#[derive(Debug, Clone)]
pub struct StructureIndex {
    id: u64,
    structure: Arc<Structure>,
    relations: Vec<RelationIndex>,
    /// Monotone state generation: bumped by every [`StructureIndex::apply_delta`].
    version: u64,
    /// Redrawn (process-unique) only when a delta *grows* some position
    /// domain (an element's posting list goes 0 → non-zero).  Compiled
    /// programs bake position domains at compile time; deletions leave
    /// baked domains as sound supersets, so programs stay valid within one
    /// epoch and are recompiled only when the epoch moves.  Unique draws
    /// keep two clones that grow different domains on different epochs.
    domain_epoch: u64,
    /// Recent mutations, newest last, for consumers catching up retained DP
    /// state (bounded by [`MUTATION_LOG_CAP`]).
    log: VecDeque<Arc<AppliedDelta>>,
    /// The content token of the state just before `log`'s oldest entry
    /// (the build's token until the log first overflows).
    log_base: u64,
}

impl StructureIndex {
    /// Build the index for a target structure (linear in `|B|`).  The
    /// structure is copied once into a shared allocation; callers that
    /// already hold an `Arc<Structure>` should use
    /// [`StructureIndex::from_arc`] to avoid the copy.
    pub fn new(b: &Structure) -> StructureIndex {
        StructureIndex::from_arc(Arc::new(b.clone()))
    }

    /// Build the index over an already-shared structure without copying its
    /// tuple data: the index holds the `Arc` and serves rows out of it.
    pub fn from_arc(b: Arc<Structure>) -> StructureIndex {
        meter::record(Meter::IndexBuild);
        let relations = b
            .vocabulary()
            .ids()
            .map(|sym| RelationIndex::build(&b, sym))
            .collect();
        StructureIndex {
            id: NEXT_INDEX_ID.fetch_add(1, Ordering::Relaxed),
            relations,
            version: 0,
            domain_epoch: 0,
            log: VecDeque::new(),
            log_base: b.content_token(),
            structure: b,
        }
    }

    /// A process-unique identity for this index build.  Compiled kernel
    /// programs are cached keyed by this id; two clones of one index share
    /// the id (and the underlying data), while a rebuild of the same
    /// structure gets a fresh one.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The indexed structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The shared allocation of the indexed structure.
    pub fn structure_arc(&self) -> &Arc<Structure> {
        &self.structure
    }

    /// Size of the indexed structure's universe.
    pub fn universe_size(&self) -> usize {
        self.structure.universe_size()
    }

    /// The vocabulary of the indexed structure (used to translate query
    /// symbols into index symbols once, at kernel compile time).
    pub fn vocabulary(&self) -> &Vocabulary {
        self.structure.vocabulary()
    }

    /// Number of tuples interpreted for `sym`.
    pub fn tuple_count(&self, sym: SymbolId) -> usize {
        self.structure.relation(sym).len()
    }

    /// O(1) membership test `t ∈ R^B` over a flat row.
    #[inline]
    pub fn contains(&self, sym: SymbolId, t: &[u32]) -> bool {
        let r = &self.relations[sym.index()];
        if t.len() != r.arity {
            return false;
        }
        let rel = self.structure.relation(sym);
        match r.buckets.get(&fnv_row(t)) {
            None => false,
            Some(Bucket::One(idx)) => rel.row(*idx as usize) == t,
            Some(Bucket::Many(ids)) => ids.iter().any(|&idx| rel.row(idx as usize) == t),
        }
    }

    /// The row id of `t` in `R^B` (`None` when absent).  Row ids are the
    /// positions of [`crate::Relation::rows`], so they key aligned side
    /// tables — per-tuple weights in particular.
    #[inline]
    pub fn row_of(&self, sym: SymbolId, t: &[u32]) -> Option<u32> {
        let r = &self.relations[sym.index()];
        if t.len() != r.arity {
            return None;
        }
        let rel = self.structure.relation(sym);
        match r.buckets.get(&fnv_row(t)) {
            None => None,
            Some(Bucket::One(idx)) => (rel.row(*idx as usize) == t).then_some(*idx),
            Some(Bucket::Many(ids)) => ids.iter().copied().find(|&idx| rel.row(idx as usize) == t),
        }
    }

    /// Candidate iterator: the tuples of `sym` holding `element` at
    /// argument position `pos`, as flat rows.
    pub fn tuples_with(
        &self,
        sym: SymbolId,
        pos: usize,
        element: u32,
    ) -> impl Iterator<Item = &[u32]> + '_ {
        let rel = self.structure.relation(sym);
        self.relations[sym.index()]
            .posting(pos, element)
            .iter()
            .map(move |&idx| rel.row(idx as usize))
    }

    /// The sorted, deduplicated elements occurring at argument position
    /// `pos` of `sym` — the position domain intersected by the kernel's
    /// unary/incidence prefilter.
    pub fn elements_at(&self, sym: SymbolId, pos: usize) -> &[u32] {
        &self.relations[sym.index()].elements_at[pos]
    }

    /// How many tuples of `sym` hold `element` at position `pos` (posting
    /// list length; `0` when the element never occurs there).
    #[inline]
    pub fn occurrence_count(&self, sym: SymbolId, pos: usize, element: u32) -> usize {
        self.relations[sym.index()].posting(pos, element).len()
    }

    /// Approximate heap usage of the index *including* its shared structure,
    /// in bytes.  Because the structure is shared rather than copied, this
    /// is what one cached database actually pins in memory.
    pub fn heap_bytes(&self) -> usize {
        self.structure.heap_bytes() + self.relations.iter().map(|r| r.heap_bytes()).sum::<usize>()
    }

    /// The index's state generation: 0 for a fresh build, +1 per applied
    /// delta batch.  Clones that take different deltas share versions, so
    /// a version alone does not name a content state; [`Self::state`]
    /// does.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current content state (see [`IndexState`]).
    pub fn state(&self) -> IndexState {
        IndexState {
            version: self.version,
            token: self.structure.content_token(),
        }
    }

    /// The index's domain epoch: 0 for a fresh build, redrawn (unique per
    /// process) only when a delta grows some position domain.
    /// Compiled-program caches key on `(id, domain_epoch)` so programs
    /// survive data churn within existing domains and are recompiled
    /// exactly when a baked domain could be stale.
    pub fn domain_epoch(&self) -> u64 {
        self.domain_epoch
    }

    /// Whether `anchor` is the current state or one this index passed
    /// through within its mutation log's reach — `false` for an anchor on
    /// another branch (a clone that took different deltas), a future one,
    /// or one the bounded log no longer covers.
    pub fn descends_from(&self, anchor: IndexState) -> bool {
        self.gap_since(anchor).is_some()
    }

    /// The mutations leading from state `anchor` to the current state,
    /// oldest first.  `Some(vec![])` when already current; `None` exactly
    /// when [`Self::descends_from`] is `false`, and the consumer must
    /// rebuild its derived state from scratch.
    pub fn mutations_since(&self, anchor: IndexState) -> Option<Vec<Arc<AppliedDelta>>> {
        let gap = self.gap_since(anchor)?;
        Some(self.log.range(self.log.len() - gap..).cloned().collect())
    }

    /// The number of logged mutations between `anchor` and now, when the
    /// anchor lies on this index's own history.
    fn gap_since(&self, anchor: IndexState) -> Option<usize> {
        let gap = self.version.checked_sub(anchor.version)? as usize;
        let len = self.log.len();
        let token = match gap {
            0 => self.structure.content_token(),
            g if g < len => self.log[len - g - 1].token,
            g if g == len => self.log_base,
            _ => return None,
        };
        (token == anchor.token).then_some(gap)
    }

    /// Apply a batch of tuple mutations **in place**: all deletions first
    /// (in batch order), then all insertions, each maintaining the row hash
    /// table, the posting lists (through a copy-on-write overlay over the
    /// CSR base), and the sorted position domains per row — no rebuild, and
    /// [`index_build_count`] does not move.  Deleting an absent tuple and
    /// inserting a present one are no-ops.  Deletions swap-remove rows, so
    /// the last row of the touched relation takes the deleted row's id; the
    /// returned [`AppliedDelta`] records the effective operations with
    /// their deletion-time row ids and replays deterministically onto any
    /// content-identical structure ([`Structure::apply_applied`]) or
    /// aligned side table ([`crate::TupleWeights::apply_delta`]).
    ///
    /// The indexed structure is mutated through [`Arc::make_mut`]:
    /// concurrent holders of the old `Arc` keep a consistent pre-delta
    /// snapshot.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<Arc<AppliedDelta>, StructureError> {
        batch.validate(&self.structure)?;
        let mut deleted: Vec<(SymbolId, u32, Vec<u32>)> = Vec::new();
        let mut inserted: Vec<(SymbolId, Vec<u32>)> = Vec::new();
        let mut domain_grew = false;
        let structure = Arc::make_mut(&mut self.structure);
        for (sym, row) in batch.deletions() {
            let (sym, row) = (*sym, &row[..]);
            let ri = &mut self.relations[sym.index()];
            let Some(id) = find_row(ri, structure.relation(sym), row) else {
                continue;
            };
            let last = structure.relation(sym).len() as u32 - 1;
            ri.bucket_remove(fnv_row(row), id);
            for (pos, &element) in row.iter().enumerate() {
                let list = ri.overlay_posting_mut(pos, element);
                if let Some(i) = list.iter().position(|&t| t == id) {
                    list.swap_remove(i);
                }
                if list.is_empty() {
                    ri.domain_remove(pos, element);
                }
            }
            if id != last {
                let moved: Vec<u32> = structure.relation(sym).row(last as usize).to_vec();
                ri.bucket_reid(fnv_row(&moved), last, id);
                for (pos, &element) in moved.iter().enumerate() {
                    let list = ri.overlay_posting_mut(pos, element);
                    if let Some(slot) = list.iter_mut().find(|t| **t == last) {
                        *slot = id;
                    }
                }
            }
            structure.relation_mut(sym).swap_remove_row(id as usize);
            deleted.push((sym, id, row.to_vec()));
        }
        for (sym, row) in batch.insertions() {
            let (sym, row) = (*sym, &row[..]);
            let ri = &mut self.relations[sym.index()];
            if find_row(ri, structure.relation(sym), row).is_some() {
                continue;
            }
            let id = structure.relation_mut(sym).push_row(row);
            let ri = &mut self.relations[sym.index()];
            ri.bucket_insert(fnv_row(row), id);
            for (pos, &element) in row.iter().enumerate() {
                let was_absent = ri.posting(pos, element).is_empty();
                ri.overlay_posting_mut(pos, element).push(id);
                if was_absent {
                    ri.domain_insert(pos, element);
                    domain_grew = true;
                }
            }
            inserted.push((sym, row.to_vec()));
        }
        let token = fresh_content_token();
        structure.set_content_token(token);
        self.version += 1;
        if domain_grew {
            self.domain_epoch = NEXT_DOMAIN_EPOCH.fetch_add(1, Ordering::Relaxed);
        }
        let applied = Arc::new(AppliedDelta {
            token,
            version: self.version,
            deleted,
            inserted,
        });
        self.log.push_back(Arc::clone(&applied));
        if self.log.len() > MUTATION_LOG_CAP {
            let dropped = self.log.pop_front().expect("log over its cap");
            self.log_base = dropped.token;
        }
        Ok(applied)
    }
}

/// Row lookup against a relation index's buckets, confirming candidates
/// against the structure's row storage (the free-function form of
/// [`StructureIndex::row_of`], usable while the structure is mutably
/// borrowed alongside).
#[inline]
fn find_row(ri: &RelationIndex, rel: &crate::structure::Relation, t: &[u32]) -> Option<u32> {
    match ri.buckets.get(&fnv_row(t)) {
        None => None,
        Some(Bucket::One(idx)) => (rel.row(*idx as usize) == t).then_some(*idx),
        Some(Bucket::Many(ids)) => ids.iter().copied().find(|&idx| rel.row(idx as usize) == t),
    }
}

/// A deterministic content hash of a structure (universe size, vocabulary,
/// and every relation's tuple list).  Two equal structures hash equal across
/// processes — the engine's instance-index cache keys on this and confirms
/// candidates by full structural equality, so a collision degrades to a
/// rebuild, never to a wrong index.
pub fn structure_hash(s: &Structure) -> u64 {
    // DefaultHasher with default keys is deterministic for a given Rust
    // release; cross-release stability is not required (the cache is
    // in-memory only).
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.universe_size().hash(&mut h);
    s.vocabulary().len().hash(&mut h);
    for sym in s.vocabulary().ids() {
        s.vocabulary().name(sym).hash(&mut h);
        s.vocabulary().arity(sym).hash(&mut h);
        let rel = s.relation(sym);
        rel.len().hash(&mut h);
        for t in rel.rows() {
            t.hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn membership_matches_the_structure() {
        let b = families::cycle(5);
        let idx = StructureIndex::new(&b);
        let e = b.vocabulary().id_of("E").unwrap();
        for (sym, row) in b.all_tuples() {
            assert!(idx.contains(sym, row));
        }
        assert!(!idx.contains(e, &[0, 2]));
        assert!(!idx.contains(e, &[0, 0]));
        assert!(!idx.contains(e, &[0]));
        assert_eq!(idx.tuple_count(e), b.relation(e).len());
        assert_eq!(idx.universe_size(), 5);
        assert_eq!(idx.structure(), &b);
    }

    #[test]
    fn posting_lists_enumerate_exactly_the_incident_tuples() {
        let b = families::star(3); // centre 0, leaves 1..=3, both arc directions
        let idx = StructureIndex::new(&b);
        let e = b.vocabulary().id_of("E").unwrap();
        let from_center: Vec<Vec<u32>> = idx.tuples_with(e, 0, 0).map(|t| t.to_vec()).collect();
        assert_eq!(from_center.len(), 3);
        assert!(from_center.iter().all(|t| t[0] == 0));
        assert_eq!(idx.occurrence_count(e, 0, 0), 3);
        assert_eq!(idx.occurrence_count(e, 0, 1), 1);
        assert_eq!(idx.occurrence_count(e, 0, 99), 0);
        assert!(idx.tuples_with(e, 1, 99).next().is_none());
    }

    #[test]
    fn elements_at_are_sorted_position_domains() {
        let b = families::directed_path(4); // arcs 0->1->2->3
        let idx = StructureIndex::new(&b);
        let e = b.vocabulary().id_of("E").unwrap();
        assert_eq!(idx.elements_at(e, 0), &[0, 1, 2]);
        assert_eq!(idx.elements_at(e, 1), &[1, 2, 3]);
    }

    #[test]
    fn structure_hash_distinguishes_content_not_representation() {
        let a = families::cycle(6);
        let b = families::cycle(6);
        assert_eq!(structure_hash(&a), structure_hash(&b));
        assert_ne!(structure_hash(&a), structure_hash(&families::cycle(7)));
        assert_ne!(structure_hash(&a), structure_hash(&families::path(6)));
    }

    #[test]
    fn unary_relations_index_cleanly() {
        let b = crate::star_expansion(&families::path(3));
        let idx = StructureIndex::new(&b);
        let c0 = b.vocabulary().id_of("C_0").unwrap();
        assert_eq!(idx.elements_at(c0, 0), &[0]);
        assert!(idx.contains(c0, &[0]));
        assert!(!idx.contains(c0, &[1]));
    }

    #[test]
    fn delta_maintains_postings_domains_and_membership() {
        let b = families::directed_path(5); // arcs 0->1->2->3->4
        let e = b.vocabulary().id_of("E").unwrap();
        let mut idx = StructureIndex::new(&b);
        let before = meter::thread();
        let id_before = idx.id();
        assert_eq!(idx.version(), 0);

        let mut batch = crate::DeltaBatch::new();
        batch.delete(e, vec![0, 1]).insert(e, vec![2, 4]);
        let applied = idx.apply_delta(&batch).unwrap();
        assert!(!applied.is_noop());
        assert_eq!(idx.version(), 1);
        assert_eq!(idx.id(), id_before, "id survives mutation");
        let builds = meter::thread().since(&before)[Meter::IndexBuild];
        assert_eq!(builds, 0, "no rebuild");

        assert!(!idx.contains(e, &[0, 1]));
        assert!(idx.contains(e, &[2, 4]));
        assert_eq!(idx.row_of(e, &[0, 1]), None);
        let new_row = idx.row_of(e, &[2, 4]).unwrap();
        assert_eq!(idx.structure().relation(e).row(new_row as usize), &[2, 4]);
        // Postings reflect the new state: element 2 now starts two arcs.
        assert_eq!(idx.occurrence_count(e, 0, 2), 2);
        assert_eq!(idx.occurrence_count(e, 0, 0), 0);
        let from_two: Vec<Vec<u32>> = idx.tuples_with(e, 0, 2).map(|t| t.to_vec()).collect();
        assert_eq!(from_two.len(), 2);
        assert!(from_two.iter().all(|t| t[0] == 2));
        // Elements 0 (position 0) and 1 (position 1) left their domains —
        // the deleted arc was their only occurrence; domains stay sorted.
        assert_eq!(idx.elements_at(e, 0), &[1, 2, 3]);
        assert_eq!(idx.elements_at(e, 1), &[2, 3, 4]);

        // Every surviving tuple is still found through the index.
        for (sym, row) in idx.structure().clone().all_tuples() {
            assert!(idx.contains(sym, row));
            let id = idx.row_of(sym, row).unwrap();
            assert_eq!(idx.structure().relation(sym).row(id as usize), row);
        }
    }

    #[test]
    fn domain_epoch_moves_only_when_a_domain_grows() {
        // A 4-cycle (both arc directions) plus an isolated element 4: every
        // cycle element occurs twice at each position, so single-arc churn
        // stays within the compiled domains.
        let vocab = Vocabulary::graph();
        let e = vocab.id_of("E").unwrap();
        let mut b = Structure::new(vocab, 5).unwrap();
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_tuple(e, vec![x, y]).unwrap();
            b.add_tuple(e, vec![y, x]).unwrap();
        }
        let mut idx = StructureIndex::new(&b);
        assert_eq!(idx.domain_epoch(), 0);

        // Churn within existing domains: delete 0->1, insert 0->2.  Both 0
        // and 2 still occur at their positions, so the epoch holds.
        let mut churn = crate::DeltaBatch::new();
        churn.delete(e, vec![0, 1]).insert(e, vec![0, 2]);
        idx.apply_delta(&churn).unwrap();
        assert_eq!(idx.domain_epoch(), 0);
        assert_eq!(idx.version(), 1);

        // 4 never occurred anywhere: inserting 4->0 grows the position-0
        // domain.
        let mut grow = crate::DeltaBatch::new();
        grow.insert(e, vec![4, 0]);
        idx.apply_delta(&grow).unwrap();
        assert_ne!(idx.domain_epoch(), 0);
        assert_eq!(idx.elements_at(e, 0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn mutation_log_replays_and_bounds() {
        let b = families::cycle(6);
        let e = b.vocabulary().id_of("E").unwrap();
        let mut idx = StructureIndex::new(&b);
        let base = idx.state();
        assert_eq!(idx.mutations_since(base).unwrap().len(), 0);
        let mut batch = crate::DeltaBatch::new();
        batch.delete(e, vec![0, 1]);
        let first = idx.apply_delta(&batch).unwrap();
        let after_first = idx.state();
        let mut batch2 = crate::DeltaBatch::new();
        batch2.insert(e, vec![0, 1]);
        let second = idx.apply_delta(&batch2).unwrap();
        let both = idx.mutations_since(base).unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(both[0], first);
        assert_eq!(both[1], second);
        assert_eq!(idx.mutations_since(after_first).unwrap(), vec![second]);
        assert_eq!(idx.mutations_since(idx.state()).unwrap().len(), 0);
        let future = IndexState {
            version: 99,
            ..idx.state()
        };
        assert!(idx.mutations_since(future).is_none(), "future version");
        let mut states = Vec::new();
        for _ in 0..(MUTATION_LOG_CAP + 4) {
            states.push(idx.state());
            let mut b = crate::DeltaBatch::new();
            b.delete(e, vec![1, 2]).insert(e, vec![1, 2]);
            idx.apply_delta(&b).unwrap();
        }
        assert!(idx.mutations_since(base).is_none(), "log is bounded");
        let oldest_covered = states[states.len() - MUTATION_LOG_CAP];
        assert_eq!(
            idx.mutations_since(oldest_covered).map(|m| m.len()),
            Some(MUTATION_LOG_CAP)
        );
        let just_dropped = states[states.len() - MUTATION_LOG_CAP - 1];
        assert!(idx.mutations_since(just_dropped).is_none());
    }

    #[test]
    fn mutations_since_refuses_an_anchor_from_another_branch() {
        let b = families::cycle(6);
        let e = b.vocabulary().id_of("E").unwrap();
        let mut a = StructureIndex::new(&b);
        let (fork, mut other) = (a.state(), a.clone());
        a.apply_delta(crate::DeltaBatch::new().insert(e, vec![0, 3]))
            .unwrap();
        other
            .apply_delta(crate::DeltaBatch::new().delete(e, vec![0, 1]))
            .unwrap();
        // Same id and version, different content: the fork point is an
        // ancestor of both branches, neither branch of the other.
        assert_eq!((a.id(), a.version()), (other.id(), other.version()));
        assert_eq!(a.mutations_since(fork).map(|m| m.len()), Some(1));
        assert_eq!(other.mutations_since(fork).map(|m| m.len()), Some(1));
        assert!(!other.descends_from(a.state()) && !a.descends_from(other.state()));
    }

    #[test]
    fn indexes_share_the_structure_and_carry_unique_ids() {
        let b = Arc::new(families::cycle(4));
        let idx = StructureIndex::from_arc(Arc::clone(&b));
        // No copy: the index serves rows out of the caller's allocation.
        assert!(Arc::ptr_eq(idx.structure_arc(), &b));
        let again = StructureIndex::from_arc(b);
        assert_ne!(idx.id(), again.id());
        // A clone of an index keeps the id (it shares the same build).
        assert_eq!(idx.clone().id(), idx.id());
        assert!(idx.heap_bytes() > 0);
    }
}
