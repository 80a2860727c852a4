//! The one bounded recency list behind every engine cache, and the sharded
//! wrapper the plan and index caches share.
//!
//! [`Lru`] keeps one policy: a hit makes its entry the most recent, and an
//! insert beyond capacity evicts the least recent entry and hands it back.
//! Lookups scan newest first, so hot entries are found in a step or two.
//! [`ShardedLru`] splits one capacity over `(capacity / 8).clamp(1, 8)`
//! independently locked `Lru`s picked by key, so no shard holds fewer than
//! 8 entries unless the whole cache does, and any cache of up to 15 entries
//! is one shard with exact LRU order.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a cache.  A poisoned lock only means a panic elsewhere while it
/// was held; a recency list is valid in every state, so the guard is
/// recovered.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded least-recently-used list (least recent at the front).
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    capacity: usize,
    entries: VecDeque<(K, V)>,
}

impl<K, V> Lru<K, V> {
    /// An empty list holding at most `capacity` entries (0 stores nothing).
    pub(crate) fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            entries: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The newest entry `hit` accepts, made the most recent.  `hit` may
    /// update the value it inspects.
    pub(crate) fn find(&mut self, mut hit: impl FnMut(&K, &mut V) -> bool) -> Option<&mut V> {
        let pos = self.entries.iter_mut().rposition(|(k, v)| hit(k, v))?;
        let entry = self.entries.remove(pos)?;
        self.entries.push_back(entry);
        self.entries.back_mut().map(|(_, v)| v)
    }

    /// The value under `key`, made the most recent.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        self.find(|k, _| k.borrow() == key)
    }

    /// Insert as the most recent entry, returning the least recent one when
    /// the list is over capacity (the new entry itself at capacity 0).
    /// Keys are not deduplicated: callers look up first.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.entries.push_back((key, value));
        if self.entries.len() > self.capacity {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Take out the newest entry `hit` accepts.
    pub(crate) fn remove_where(&mut self, mut hit: impl FnMut(&K, &V) -> bool) -> Option<(K, V)> {
        let pos = self.entries.iter().rposition(|(k, v)| hit(k, v))?;
        self.entries.remove(pos)
    }

    /// Take out the entry under `key`.
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        self.remove_where(|k, _| k.borrow() == key).map(|(_, v)| v)
    }

    /// Entries from least to most recent.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// One capacity split over independently locked [`Lru`]s, the shard picked
/// by `key % shards`, so concurrent lookups of different keys rarely
/// contend on one mutex.  Recency is exact per shard and approximate
/// across shards.
pub(crate) struct ShardedLru<V> {
    capacity: usize,
    shards: Vec<Mutex<Lru<u64, V>>>,
}

impl<V> ShardedLru<V> {
    /// `capacity` entries over `(capacity / 8).clamp(1, 8)` shards, shard
    /// `i` holding `capacity / n` plus one of the first `capacity % n`
    /// remainder slots.
    pub(crate) fn new(capacity: usize) -> ShardedLru<V> {
        let n = (capacity / 8).clamp(1, 8);
        ShardedLru {
            capacity,
            shards: (0..n)
                .map(|i| Mutex::new(Lru::new(capacity / n + usize::from(i < capacity % n))))
                .collect(),
        }
    }

    /// Total capacity across shards.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The locked shard `key` belongs to.
    pub(crate) fn shard(&self, key: u64) -> MutexGuard<'_, Lru<u64, V>> {
        lock(&self.shards[(key % self.shards.len() as u64) as usize])
    }

    /// Entries across shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Visit every value, one shard lock at a time.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&V)) {
        for shard in &self.shards {
            lock(shard).iter().for_each(|(_, v)| f(v));
        }
    }

    /// Re-split over the shards of a new `capacity`, moving the entries
    /// oldest first (interleaved by recency rank across the old shards) so
    /// each new shard keeps its most recent ones.  Returns the values that
    /// no longer fit.
    pub(crate) fn resize(&mut self, capacity: usize) -> Vec<V> {
        let mut ranked = Vec::new();
        for shard in self.shards.drain(..) {
            let lru = shard.into_inner().unwrap_or_else(PoisonError::into_inner);
            let n = lru.entries.len();
            ranked.extend(lru.entries.into_iter().enumerate().map(|(i, e)| (n - i, e)));
        }
        ranked.sort_by_key(|&(rank, _)| std::cmp::Reverse(rank));
        *self = ShardedLru::new(capacity);
        ranked
            .into_iter()
            .filter_map(|(_, (k, v))| self.shard(k).insert(k, v))
            .map(|(_, v)| v)
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn shard_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| lock(s).capacity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, ()>) -> Vec<u32> {
        lru.iter().map(|(&k, _)| k).collect()
    }

    #[test]
    fn a_hit_becomes_the_most_recent_entry() {
        let mut lru = Lru::new(3);
        for k in [1, 2, 3] {
            assert!(lru.insert(k, ()).is_none());
        }
        assert!(lru.get(&1).is_some());
        assert_eq!(keys(&lru), [2, 3, 1]);
        assert!(lru.find(|&k, _| k == 2).is_some());
        assert_eq!(keys(&lru), [3, 1, 2]);
        assert!(lru.get(&9).is_none());
        assert_eq!(keys(&lru), [3, 1, 2], "a miss reorders nothing");
    }

    #[test]
    fn an_insert_beyond_capacity_returns_the_least_recent_entry() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.get(&1);
        assert_eq!(lru.insert(3, "c"), Some((2, "b")));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.insert(4, "d"), Some((1, "a")));
        assert_eq!(lru.get(&3).copied(), Some("c"));
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.insert(7, ()), Some((7, ())));
        assert_eq!(lru.len(), 0);
        assert!(lru.get(&7).is_none());
    }

    #[test]
    fn removal_takes_out_one_entry() {
        let mut lru = Lru::new(4);
        for k in [1, 2, 3] {
            lru.insert(k, ());
        }
        assert_eq!(lru.remove(&2), Some(()));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(lru.remove_where(|&k, _| k > 2), Some((3, ())));
        assert_eq!(keys(&lru), [1]);
    }

    #[test]
    fn resizing_keeps_the_most_recent_entries() {
        let mut cache: ShardedLru<u64> = ShardedLru::new(64);
        for k in 0..40 {
            cache.shard(k).insert(k, k);
        }
        let mut evicted = cache.resize(4);
        evicted.sort_unstable();
        assert_eq!(evicted, (0..36).collect::<Vec<u64>>());
        assert_eq!(cache.shard_capacities(), [4]);
        let mut kept = Vec::new();
        cache.for_each(|&v| kept.push(v));
        kept.sort_unstable();
        assert_eq!(kept, [36, 37, 38, 39]);
    }
}
