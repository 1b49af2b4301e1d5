//! Compiled-plan cache.
//!
//! Compiling and optimizing an XPath expression costs parse, plan
//! build, and a cost-model fixpoint; a serving workload repeats the
//! same expressions, so the server caches the *optimized* plan keyed by
//! `(xpath text, document id)` and validates each hit against the store
//! [generation](vamana_mass::MassStore::generation). Any mutation bumps
//! the generation, so plans optimized against stale statistics (or
//! stale documents entirely) can never be served: a generation mismatch
//! is a miss that recompiles and replaces the entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vamana_core::{DocId, QueryPlan};

struct Entry {
    generation: u64,
    plan: Arc<QueryPlan>,
    /// Last-used stamp for LRU eviction.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    /// Document id → expression text → entry: both levels are probed
    /// with borrowed keys, so a lookup allocates nothing.
    docs: HashMap<u32, HashMap<String, Entry>>,
    clock: u64,
}

impl Inner {
    fn len(&self) -> usize {
        self.docs.values().map(HashMap::len).sum()
    }
}

/// Bounded LRU cache of optimized plans with hit/miss counters.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding up to `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up the plan for `(xpath, doc)` compiled at `generation`.
    /// Stale entries are dropped and counted as misses.
    pub fn get(&self, xpath: &str, doc: DocId, generation: u64) -> Option<Arc<QueryPlan>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let hit = inner
            .docs
            .get_mut(&doc.0)
            .and_then(|plans| match plans.get_mut(xpath) {
                Some(entry) if entry.generation == generation => {
                    entry.stamp = clock;
                    Some(Arc::clone(&entry.plan))
                }
                Some(_) => {
                    plans.remove(xpath);
                    None
                }
                None => None,
            });
        drop(inner);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores the plan compiled for `(xpath, doc)` at `generation`,
    /// evicting the least-recently-used entry if full.
    pub fn insert(&self, xpath: &str, doc: DocId, generation: u64, plan: Arc<QueryPlan>) {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        inner.docs.entry(doc.0).or_default().insert(
            xpath.to_string(),
            Entry {
                generation,
                plan,
                stamp,
            },
        );
        while inner.len() > self.capacity {
            let victim = inner
                .docs
                .iter()
                .flat_map(|(doc, plans)| plans.iter().map(move |(xpath, e)| (e.stamp, *doc, xpath)))
                .min_by_key(|(stamp, ..)| *stamp)
                .map(|(_, doc, xpath)| (doc, xpath.clone()));
            let Some((doc, xpath)) = victim else { break };
            if let Some(plans) = inner.docs.get_mut(&doc) {
                plans.remove(&xpath);
            }
        }
    }

    /// Drops every entry for `doc` not compiled at `generation`. The
    /// generation check on `get` already refuses stale hits, but only
    /// for the key being probed — without this sweep a write-heavy
    /// workload leaves one dead entry behind per (xpath, write)
    /// until LRU pressure finds them.
    pub fn purge_doc(&self, doc: DocId, generation: u64) {
        if let Some(plans) = self.lock().docs.get_mut(&doc.0) {
            plans.retain(|_, e| e.generation == generation);
        }
    }

    /// Drops every entry. Loads already invalidate via the generation
    /// check; this additionally releases the memory of plans that will
    /// never validate again.
    pub fn clear(&self) {
        self.lock().docs.clear();
    }

    /// Current number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_core::{Engine, MassStore};

    fn plan_for(e: &Engine, xpath: &str) -> Arc<QueryPlan> {
        Arc::new(e.compile(xpath).unwrap())
    }

    fn engine() -> Engine {
        let mut store = MassStore::open_memory();
        store.load_xml("d", "<r><a/><b/></r>").unwrap();
        Engine::new(store)
    }

    #[test]
    fn hit_requires_matching_generation() {
        let e = engine();
        let cache = PlanCache::new(8);
        let doc = DocId(0);
        assert!(cache.get("//a", doc, 1).is_none());
        cache.insert("//a", doc, 1, plan_for(&e, "//a"));
        assert!(cache.get("//a", doc, 1).is_some());
        // A mutation bumps the generation: the entry no longer validates.
        assert!(cache.get("//a", doc, 2).is_none());
        assert_eq!(cache.len(), 0, "stale entry must be dropped");
        assert_eq!(cache.counters(), (1, 2));
    }

    #[test]
    fn lru_eviction_bounds_size() {
        let e = engine();
        let cache = PlanCache::new(2);
        let doc = DocId(0);
        cache.insert("//a", doc, 1, plan_for(&e, "//a"));
        cache.insert("//b", doc, 1, plan_for(&e, "//b"));
        assert!(cache.get("//a", doc, 1).is_some()); // refresh //a
        cache.insert("//r", doc, 1, plan_for(&e, "//r"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("//a", doc, 1).is_some(), "recently used survives");
        assert!(cache.get("//b", doc, 1).is_none(), "LRU entry evicted");
    }

    #[test]
    fn write_heavy_loop_cannot_grow_the_map() {
        let e = engine();
        let cache = PlanCache::new(256);
        let doc = DocId(0);
        // Each "write" bumps the generation; the workload re-plans two
        // expressions per generation. Without purge_doc the map would
        // hold one dead entry per (xpath, generation) pair.
        for generation in 1..=100u64 {
            for xpath in ["//a", "//b"] {
                if cache.get(xpath, doc, generation).is_none() {
                    cache.insert(xpath, doc, generation, plan_for(&e, xpath));
                }
            }
            cache.purge_doc(doc, generation + 1); // the write lands here
        }
        assert!(
            cache.len() <= 2,
            "stale generations piled up: {} entries",
            cache.len()
        );
    }

    #[test]
    fn clear_empties() {
        let e = engine();
        let cache = PlanCache::new(4);
        cache.insert("//a", DocId(0), 1, plan_for(&e, "//a"));
        cache.clear();
        assert!(cache.is_empty());
    }
}
