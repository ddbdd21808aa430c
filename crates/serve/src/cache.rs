//! LRU cache of compiled queries.
//!
//! Compiling a JSONPath expression builds the bitset NFA and its per-state
//! fast-forward legality table; for a daemon serving a hot corpus the same
//! handful of queries recur, so the compilation cost should be paid once.
//! Entries are keyed by `(query text, config digest)` — the digest folds in
//! validation mode, forced kernel, and fast-forward group toggles via the
//! same [`jsonski::digest_parts`] hash the checkpoint format uses, so a
//! server restarted with `--strict` can never serve an automaton compiled
//! under permissive rules.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jsonski::{JsonSki, MemBudget, MemPermit, ParsePathError};

struct Entry {
    engine: Arc<JsonSki>,
    /// Monotonic last-use stamp; the entry with the smallest stamp is the
    /// least recently used.
    stamp: u64,
    /// Tracked-memory charge for this entry; released when the entry is
    /// evicted or the cache cleared. `None` when the cache is unbudgeted.
    _permit: Option<MemPermit>,
}

jsonski::metric_struct! {
    /// A bounded least-recently-used cache of compiled [`JsonSki`] engines.
    ///
    /// Shared across worker threads behind a [`Mutex`]; the critical section
    /// is a hash-map probe, so contention is negligible next to evaluation.
    /// Eviction is an `O(len)` min-stamp scan — fine for the tens-of-entries
    /// capacities a daemon uses. Its `pairs()` are the scrape's `cache_*`
    /// counters.
    pub struct QueryCache {
        hits: AtomicU64 => "hits",
        misses: AtomicU64 => "misses",
        /// Resident compiled queries; the `entries` gauge is their count.
        entries: Mutex<HashMap<(String, u64), Entry>> => "entries",
        capacity: usize,
        clock: AtomicU64,
        /// When set, every resident entry carries a tracked-memory charge;
        /// an entry the budget refuses is served uncached instead of evicting
        /// request buffers to make room for itself.
        budget: Option<Arc<MemBudget>>,
    }
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` compiled queries.
    /// A capacity of 0 disables caching (every lookup compiles).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget: None,
        }
    }

    /// Charges resident entries against `budget`.
    pub fn with_budget(mut self, budget: Arc<MemBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Approximate resident cost of a compiled query: the key text plus a
    /// flat allowance for the automaton and legality tables.
    fn entry_cost(query: &str) -> usize {
        query.len() + 1024
    }

    /// Returns the compiled engine for `query` under the configuration
    /// identified by `config_digest`, compiling (via `compile`) on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the `compile` closure's [`ParsePathError`]; parse
    /// failures are not cached (a retried bad query is cheap to re-reject).
    pub fn get_or_compile(
        &self,
        query: &str,
        config_digest: u64,
        compile: impl FnOnce(&str) -> Result<JsonSki, ParsePathError>,
    ) -> Result<Arc<JsonSki>, ParsePathError> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if self.capacity > 0 {
            let mut entries = self.entries.lock().unwrap();
            if let Some(e) = entries.get_mut(&(query.to_string(), config_digest)) {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&e.engine));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock: a slow parse must not serialize the
        // whole worker pool behind the cache mutex.
        let engine = Arc::new(compile(query)?);
        if self.capacity > 0 {
            // A budgeted cache only keeps entries the ledger admits; a
            // refused entry is served uncached (the caller's request is
            // never failed on behalf of the cache).
            let permit = match &self.budget {
                Some(b) => match b.try_reserve(None, Self::entry_cost(query)) {
                    Ok(p) => Some(p),
                    Err(_) => return Ok(engine),
                },
                None => None,
            };
            let mut entries = self.entries.lock().unwrap();
            if entries.len() >= self.capacity
                && !entries.contains_key(&(query.to_string(), config_digest))
            {
                if let Some(lru) = entries
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| k.clone())
                {
                    entries.remove(&lru);
                }
            }
            entries.insert(
                (query.to_string(), config_digest),
                Entry {
                    engine: Arc::clone(&engine),
                    stamp,
                    _permit: permit,
                },
            );
        }
        Ok(engine)
    }

    /// Evicts every resident entry (releasing its memory charge),
    /// returning how many were dropped. The memory-pressure relief hook.
    pub fn clear(&self) -> usize {
        let mut entries = self.entries.lock().unwrap();
        let n = entries.len();
        entries.clear();
        n
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (compilations) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of compiled queries currently resident.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_counting(n: &AtomicU64) -> impl Fn(&str) -> Result<JsonSki, ParsePathError> + '_ {
        move |q| {
            n.fetch_add(1, Ordering::Relaxed);
            JsonSki::compile(q)
        }
    }

    #[test]
    fn hits_skip_compilation() {
        let cache = QueryCache::new(8);
        let compiles = AtomicU64::new(0);
        for _ in 0..5 {
            cache
                .get_or_compile("$.a[*]", 1, compile_counting(&compiles))
                .unwrap();
        }
        assert_eq!(compiles.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn config_digest_partitions_entries() {
        let cache = QueryCache::new(8);
        let compiles = AtomicU64::new(0);
        cache
            .get_or_compile("$.a", 1, compile_counting(&compiles))
            .unwrap();
        cache
            .get_or_compile("$.a", 2, compile_counting(&compiles))
            .unwrap();
        assert_eq!(compiles.load(Ordering::Relaxed), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let cache = QueryCache::new(2);
        let compiles = AtomicU64::new(0);
        cache
            .get_or_compile("$.a", 0, compile_counting(&compiles))
            .unwrap();
        cache
            .get_or_compile("$.b", 0, compile_counting(&compiles))
            .unwrap();
        // Touch $.a so $.b becomes the LRU entry.
        cache
            .get_or_compile("$.a", 0, compile_counting(&compiles))
            .unwrap();
        cache
            .get_or_compile("$.c", 0, compile_counting(&compiles))
            .unwrap();
        assert_eq!(cache.len(), 2);
        // $.a survives (hit), $.b was evicted (recompiles).
        cache
            .get_or_compile("$.a", 0, compile_counting(&compiles))
            .unwrap();
        let before = compiles.load(Ordering::Relaxed);
        cache
            .get_or_compile("$.b", 0, compile_counting(&compiles))
            .unwrap();
        assert_eq!(compiles.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        let compiles = AtomicU64::new(0);
        for _ in 0..3 {
            cache
                .get_or_compile("$.a", 0, compile_counting(&compiles))
                .unwrap();
        }
        assert_eq!(compiles.load(Ordering::Relaxed), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn budgeted_cache_charges_and_releases() {
        let budget = MemBudget::new(4096);
        let cache = QueryCache::new(8).with_budget(Arc::clone(&budget));
        cache.get_or_compile("$.a", 0, JsonSki::compile).unwrap();
        cache.get_or_compile("$.b", 0, JsonSki::compile).unwrap();
        assert!(budget.used() > 0);
        assert_eq!(cache.clear(), 2);
        assert_eq!(budget.used(), 0, "clear releases every charge");
    }

    #[test]
    fn exhausted_budget_serves_uncached() {
        let budget = MemBudget::new(64); // smaller than one entry's cost
        let cache = QueryCache::new(8).with_budget(Arc::clone(&budget));
        // Compilation still succeeds; the entry just isn't kept.
        cache.get_or_compile("$.a", 0, JsonSki::compile).unwrap();
        assert!(cache.is_empty());
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn parse_errors_propagate_and_are_not_cached() {
        let cache = QueryCache::new(4);
        assert!(cache.get_or_compile("$.[", 0, JsonSki::compile).is_err());
        assert!(cache.is_empty());
    }
}
