//! Bounded LRU caches for plans and DAGs.
//!
//! Both reuse tiers the sessions and the serve loop maintain — prepared
//! plans and program dependence DAGs — share one storage discipline: a
//! small associative cache bounded by **both** an entry budget and a
//! byte budget, evicting least-recently-used entries when either is
//! exceeded. Capacity is deliberately modest (planning
//! is expensive but plans are few), so lookup is a linear scan over a
//! `Vec` — no hashing, no allocation on the hot path, deterministic
//! iteration order.
//!
//! The cache also keeps the counters the reports expose: hits, misses,
//! and evictions. Replacements requested by the caller (e.g. the
//! one-slot-per-clause retirement the session performs when a clause's
//! decomposition fingerprint changes) are *not* counted as evictions —
//! only budget pressure is.

/// Entry/byte budget of one [`BoundedLru`] tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum live entries; inserting beyond this evicts the LRU entry.
    /// `0` disables caching entirely (every lookup misses).
    pub max_entries: usize,
    /// Maximum total of the caller-estimated byte sizes; exceeded
    /// budgets evict LRU entries until the new entry fits. An entry
    /// larger than the whole budget is still admitted alone — refusing
    /// it would defeat the cache for exactly the plans worth caching.
    pub max_bytes: usize,
}

impl Default for CacheBudget {
    fn default() -> Self {
        CacheBudget {
            max_entries: 64,
            max_bytes: 64 << 20,
        }
    }
}

impl CacheBudget {
    /// A budget that admits nothing — the "cold" configuration the
    /// serve benchmarks use to model per-request sessions.
    pub fn none() -> CacheBudget {
        CacheBudget {
            max_entries: 0,
            max_bytes: 0,
        }
    }
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    bytes: usize,
    /// Monotonic recency stamp: larger = more recently used.
    tick: u64,
}

/// A bounded least-recently-used cache with hit/miss/eviction counters.
///
/// Keys are compared with `PartialEq` over a linear scan; the expected
/// population is tens of entries (one per distinct clause × layout), so
/// scanning beats hashing and keeps recency updates trivial.
#[derive(Debug)]
pub struct BoundedLru<K, V> {
    slots: Vec<Slot<K, V>>,
    budget: CacheBudget,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: PartialEq, V> BoundedLru<K, V> {
    /// An empty cache with the given budget.
    pub fn new(budget: CacheBudget) -> BoundedLru<K, V> {
        BoundedLru {
            slots: Vec::new(),
            budget,
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, bumping its recency and the hit/miss counters.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.slots.iter_mut().find(|s| &s.key == key) {
            Some(s) => {
                s.tick = tick;
                self.hits += 1;
                Some(&s.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key → value`, charging `bytes` against the byte budget
    /// and evicting LRU entries until both budgets hold. An existing
    /// entry under the same key is replaced in place (not an eviction).
    pub fn insert(&mut self, key: K, value: V, bytes: usize) {
        if self.budget.max_entries == 0 {
            return;
        }
        self.tick += 1;
        if let Some(pos) = self.slots.iter().position(|s| s.key == key) {
            let old = self.slots.remove(pos);
            self.bytes -= old.bytes;
        }
        while self.slots.len() + 1 > self.budget.max_entries
            || (!self.slots.is_empty() && self.bytes + bytes > self.budget.max_bytes)
        {
            let lru = match self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| k)
            {
                Some(k) => k,
                None => break,
            };
            let gone = self.slots.remove(lru);
            self.bytes -= gone.bytes;
            self.evictions += 1;
        }
        self.bytes += bytes;
        self.slots.push(Slot {
            key,
            value,
            bytes,
            tick: self.tick,
        });
    }

    /// Retire every entry failing `keep` — caller-driven replacement
    /// (stale fingerprints), not budget pressure, so the eviction
    /// counter is untouched.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let mut freed = 0usize;
        self.slots.retain(|s| {
            let k = keep(&s.key);
            if !k {
                freed += s.bytes;
            }
            k
        });
        self.bytes -= freed;
    }

    /// Drop every entry (layout change invalidation). Counters survive —
    /// they describe the cache's whole life, not its current contents.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.bytes = 0;
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Estimated bytes of the live entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime budget-pressure evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: BoundedLru<u32, u32> = BoundedLru::new(CacheBudget {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        c.insert(1, 10, 8);
        c.insert(2, 20, 8);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now the MRU
        c.insert(3, 30, 8); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn byte_budget_evicts_until_fit() {
        let mut c: BoundedLru<u32, u32> = BoundedLru::new(CacheBudget {
            max_entries: 16,
            max_bytes: 100,
        });
        c.insert(1, 1, 40);
        c.insert(2, 2, 40);
        c.insert(3, 3, 40); // 120 > 100: evicts key 1
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 80);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.evictions(), 1);
        // an oversized entry is admitted alone
        c.insert(4, 4, 500);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&4), Some(&4));
    }

    #[test]
    fn replace_and_retain_are_not_evictions() {
        let mut c: BoundedLru<u32, u32> = BoundedLru::new(CacheBudget::default());
        c.insert(1, 10, 8);
        c.insert(1, 11, 8); // replacement
        c.insert(2, 20, 8);
        c.retain(|k| *k != 2); // caller retirement
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 8);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut c: BoundedLru<u32, u32> = BoundedLru::new(CacheBudget::none());
        c.insert(1, 10, 8);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }
}
