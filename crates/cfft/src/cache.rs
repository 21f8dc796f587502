//! Process-wide plan cache — FFTW's "wisdom" amortisation for this crate.
//!
//! A [`Planner`] creates a plan every time it is asked, twiddle tables
//! included: a transform entry point that constructed its own would rebuild
//! them on every invocation. [`PlanCache`] is the crate's one memo, at
//! process scope (a transient planner per miss): one thread-safe map keyed
//! by `(n, direction)` that every caller — the distributed pipeline, the
//! serial reference, the pencil path, many rank threads at once — draws
//! [`Arc<Plan1d>`]s from.
//!
//! Concurrency discipline: the whole operation (lookup, and on a miss the
//! plan's construction) happens under one `parking_lot`-style mutex.
//! Holding the lock across planning is deliberate — when `p` rank threads
//! ask for the same geometry simultaneously, one plans and the rest block
//! and then hit, rather than all `p` planning redundantly. Plans execute
//! through `&self`, so the lock is never held during a transform.

use crate::planner::{Plan1d, Planner, Rigor};
use crate::Direction;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Default capacity of [`PlanCache::global`] — far above any realistic
/// working set (a 3-D transform needs at most 3 lengths × 2 directions),
/// but bounded so a pathological caller cannot grow the map without limit.
const DEFAULT_CAPACITY: usize = 512;

struct Entry {
    plan: Arc<Plan1d>,
    /// Logical clock of the last hit, for least-recently-used eviction.
    last_used: u64,
}

struct Inner {
    map: HashMap<(usize, Direction), Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    planning: Duration,
}

/// Counters describing a cache's lifetime behaviour (reported by the
/// `kernels` bench and useful in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total wall-clock spent planning on misses.
    pub planning: Duration,
}

/// A process-wide, thread-safe store of [`Plan1d`]s keyed by
/// `(n, direction)`. See the module docs for the locking discipline.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PlanCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache evicting least-recently-used entries beyond
    /// `capacity` (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                planning: Duration::ZERO,
            }),
            capacity,
        }
    }

    /// The shared process-wide instance every transform entry point uses.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Returns the cached plan for `(n, dir)`, planning (and caching) on
    /// first use. [`Rigor::Estimate`] is the only rigor there is.
    pub fn plan(&self, n: usize, dir: Direction, rigor: Rigor) -> Arc<Plan1d> {
        self.plan_timed(n, dir, rigor).0
    }

    /// [`Self::plan`] plus the planning time this call actually incurred:
    /// exactly [`Duration::ZERO`] on a hit, the planning cost on a miss.
    /// Callers accumulate this into their per-run statistics, so a run whose
    /// geometry is already cached reports zero planning work.
    pub fn plan_timed(&self, n: usize, dir: Direction, _: Rigor) -> (Arc<Plan1d>, Duration) {
        assert!(n >= 1, "transform length must be ≥ 1");
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(&(n, dir)) {
            e.last_used = clock;
            let plan = e.plan.clone();
            inner.hits += 1;
            return (plan, Duration::ZERO);
        }
        // Miss: plan while holding the lock so concurrent requests for the
        // same geometry wait for this plan instead of repeating it. A
        // transient Planner builds (and times) it.
        #[expect(clippy::disallowed_methods, reason = "the cache's miss path")]
        let mut planner = Planner::new();
        let plan = planner.plan(n, dir);
        let spent = planner.planning_time();
        inner.misses += 1;
        inner.planning += spent;
        if inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry (never the one being
            // inserted — it is not in the map yet).
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            (n, dir),
            Entry {
                plan: plan.clone(),
                last_used: clock,
            },
        );
        (plan, spent)
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            planning: inner.planning,
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits_and_costs_zero_planning() {
        let cache = PlanCache::new();
        let (a, t_miss) = cache.plan_timed(96, Direction::Forward, Rigor::Estimate);
        let (b, t_hit) = cache.plan_timed(96, Direction::Forward, Rigor::Estimate);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t_hit, Duration::ZERO);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.planning, t_miss);
    }

    #[test]
    fn keys_separate_direction() {
        let cache = PlanCache::new();
        let f = cache.plan(64, Direction::Forward, Rigor::Estimate);
        let b = cache.plan(64, Direction::Backward, Rigor::Estimate);
        assert!(!Arc::ptr_eq(&f, &b));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let cache = PlanCache::with_capacity(2);
        let a1 = cache.plan(8, Direction::Forward, Rigor::Estimate);
        cache.plan(16, Direction::Forward, Rigor::Estimate);
        // Touch 8 so 16 is the LRU entry when 32 arrives.
        let a2 = cache.plan(8, Direction::Forward, Rigor::Estimate);
        assert!(Arc::ptr_eq(&a1, &a2));
        cache.plan(32, Direction::Forward, Rigor::Estimate);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // 8 survived, 16 was evicted: looking 8 up again is a hit.
        let hits_before = cache.stats().hits;
        cache.plan(8, Direction::Forward, Rigor::Estimate);
        assert_eq!(cache.stats().hits, hits_before + 1);
    }

    #[test]
    fn a_hit_refreshes_recency_so_the_untouched_entry_is_evicted() {
        // Pins the LRU bookkeeping precisely: a *hit* must bump
        // `last_used`, otherwise insertion order alone would decide the
        // victim and the hot entry would be thrown away.
        let cache = PlanCache::with_capacity(2);
        cache.plan(8, Direction::Forward, Rigor::Estimate); // clock 1
        cache.plan(16, Direction::Forward, Rigor::Estimate); // clock 2
        cache.plan(8, Direction::Forward, Rigor::Estimate); // hit, clock 3
        cache.plan(32, Direction::Forward, Rigor::Estimate); // evicts 16
        let misses_before = cache.stats().misses;
        cache.plan(8, Direction::Forward, Rigor::Estimate);
        assert_eq!(cache.stats().misses, misses_before, "8 must have survived");
        cache.plan(16, Direction::Forward, Rigor::Estimate);
        assert_eq!(
            cache.stats().misses,
            misses_before + 1,
            "16 (untouched since insert) must have been the victim"
        );
    }

    #[test]
    fn insert_at_capacity_never_evicts_the_inserted_key() {
        // The eviction scan runs before the insert, so the fresh key is not
        // yet in the map and can never be chosen as its own victim — even
        // at capacity 1, where it is the only resident entry afterwards.
        let cache = PlanCache::with_capacity(1);
        cache.plan(8, Direction::Forward, Rigor::Estimate);
        cache.plan(16, Direction::Forward, Rigor::Estimate);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        let hits_before = s.hits;
        cache.plan(16, Direction::Forward, Rigor::Estimate);
        assert_eq!(
            cache.stats().hits,
            hits_before + 1,
            "the entry inserted at capacity must itself be resident"
        );
    }

    #[test]
    fn global_is_shared_across_call_sites() {
        let a = PlanCache::global().plan(40, Direction::Forward, Rigor::Estimate);
        let b = PlanCache::global().plan(40, Direction::Forward, Rigor::Estimate);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_requests_converge_on_one_plan() {
        let cache = std::sync::Arc::new(PlanCache::new());
        let plans: Vec<Arc<Plan1d>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    s.spawn(move || cache.plan(120, Direction::Forward, Rigor::Estimate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("planner thread must not panic"))
                .collect()
        });
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        assert_eq!(cache.stats().misses, 1);
    }
}
