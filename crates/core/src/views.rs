//! The result memo: answers kept for queries that repeat exactly.
//!
//! A [`ViewCache`] keeps the finished node-set of a hot query, keyed by
//! `(document, XPath text)`. [`crate::Engine::query_doc`] consults it
//! before parsing, the server before its plan cache; a hit returns the
//! stored set and nothing is compiled or run. EXPLAIN and ANALYZE never
//! read it: they describe and run the plan that computes the answer.
//!
//! # Admission
//!
//! Only queries in a small fragment are kept (`in_fragment`, run by the
//! optimizer on the cleaned compiled plan): `child`/`descendant` steps,
//! name, `*`, `text()` and `node()` tests, and predicates that are
//! conjunctions of such relative paths. Value comparisons, positions,
//! functions, other axes and unions stay out — so the point lookups of a
//! serving workload, each asked once per value, never fill the memo. A
//! query is kept the [`crate::EngineOptions::view_admit_after`]-th time
//! its answer is computed, unless the answer alone exceeds the byte
//! budget; then the query is marked oversize and not counted again.
//! Queries seen but not kept are bounded twice, at 4 096 of them and at
//! 1 MB of their text, past either of which the table is emptied.
//!
//! # Invalidation
//!
//! Every document's entries carry the document generation they were
//! computed at. A primary write drops them eagerly
//! ([`crate::Engine::apply_update`]); replica replay bumps the generation
//! store-side, and the next access at the new generation drops them.
//! Snapshot installs ([`crate::Engine::replace_store`]) and `CACHE CLEAR`
//! clear everything.

use crate::plan::{BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vamana_flex::Axis;
use vamana_mass::NodeEntry;

/// Whether the result memo may keep the answers of a *cleaned* compiled
/// plan: a walk of its spine and predicates that accepts exactly the
/// fragment in the module docs. Must run before optimizer rules, whose
/// push-downs introduce reverse-axis predicates.
pub(crate) fn in_fragment(plan: &QueryPlan) -> bool {
    match plan.op(plan.root()) {
        Operator::Root { child: Some(top) } => {
            path_in_fragment(plan, *top, ContextSource::QueryRoot)
        }
        _ => false,
    }
}

/// A chain of steps from `head` down its context edges, the leaf step
/// anchored at `anchor`.
fn path_in_fragment(plan: &QueryPlan, head: OpId, anchor: ContextSource) -> bool {
    let mut cur = Some(head);
    while let Some(id) = cur {
        let Operator::Step {
            axis: Axis::Child | Axis::Descendant,
            test: TestSpec::Named(_) | TestSpec::Wildcard | TestSpec::Text | TestSpec::AnyNode,
            context,
            source,
            predicates,
        } = plan.op(id)
        else {
            return false;
        };
        if (context.is_none() && *source != anchor)
            || !predicates.iter().all(|&p| predicate_in_fragment(plan, p))
        {
            return false;
        }
        cur = *context;
    }
    true
}

fn predicate_in_fragment(plan: &QueryPlan, p: OpId) -> bool {
    match plan.op(p) {
        Operator::Binary {
            op: BinOp::And,
            left,
            right,
        } => predicate_in_fragment(plan, *left) && predicate_in_fragment(plan, *right),
        Operator::Exists { path } => path_in_fragment(plan, *path, ContextSource::OuterTuple),
        Operator::Step { .. } => path_in_fragment(plan, p, ContextSource::OuterTuple),
        _ => false,
    }
}

/// Point-in-time memo counters (served through `STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStatsSnapshot {
    /// Lookups answered from a kept result.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Kept results dropped: stale generations, budget evictions, clears.
    pub evictions: u64,
    /// Approximate bytes currently kept.
    pub bytes: u64,
    /// Results currently kept.
    pub views: u64,
}

/// One row of [`ViewCache::list`] (the `CACHE` verb / `.views` output).
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// Document the result belongs to.
    pub doc: u32,
    /// The query it answers.
    pub xpath: String,
    /// Result rows.
    pub rows: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Document generation the result is valid for.
    pub generation: u64,
    /// Lookups it answered.
    pub hits: u64,
}

/// What the memo knows of one query text on one document.
enum Slot {
    /// Computed this many times, not kept yet.
    Pending(u32),
    /// Its answer alone exceeds the budget: not counted again.
    Oversize,
    /// The kept answer.
    Kept(Answer),
}

struct Answer {
    entries: Arc<Vec<NodeEntry>>,
    bytes: u64,
    stamp: u64,
    hits: u64,
}

/// One document's slots, all valid at `generation`.
struct DocSlots {
    generation: u64,
    slots: HashMap<Box<str>, Slot>,
}

#[derive(Default)]
struct ViewInner {
    /// Document id → query text → slot: both levels are probed with
    /// borrowed keys, so a lookup allocates nothing.
    docs: HashMap<u32, DocSlots>,
    clock: u64,
    /// Kept results and their bytes.
    kept: u64,
    bytes: u64,
    /// Slots not holding a result, and the bytes of their keys.
    tracked: usize,
    tracked_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ViewInner {
    /// Drops `doc`'s slots when they were made at another generation.
    fn expire(&mut self, doc: u32, generation: u64) {
        if let Some(d) = self.docs.get_mut(&doc) {
            if d.generation != generation {
                d.generation = generation;
                let slots = std::mem::take(&mut d.slots);
                self.forget(slots);
            }
        }
    }

    /// Accounts for slots removed from the table.
    fn forget(&mut self, slots: impl IntoIterator<Item = (Box<str>, Slot)>) {
        for (key, slot) in slots {
            self.forget_slot(key.len(), slot);
        }
    }

    fn forget_slot(&mut self, key_len: usize, slot: Slot) {
        match slot {
            Slot::Kept(answer) => {
                self.kept -= 1;
                self.bytes -= answer.bytes;
                self.evictions += 1;
            }
            Slot::Pending(_) | Slot::Oversize => {
                self.tracked -= 1;
                self.tracked_bytes -= key_len;
            }
        }
    }

    /// Empties the admission table: every slot not holding a result.
    fn forget_tracked(&mut self) {
        for d in self.docs.values_mut() {
            d.slots.retain(|_, slot| matches!(slot, Slot::Kept(_)));
        }
        self.tracked = 0;
        self.tracked_bytes = 0;
    }

    fn slots(&mut self, doc: u32, generation: u64) -> &mut HashMap<Box<str>, Slot> {
        self.expire(doc, generation);
        &mut self
            .docs
            .entry(doc)
            .or_insert_with(|| DocSlots {
                generation,
                slots: HashMap::new(),
            })
            .slots
    }

    /// Starts tracking `xpath`, emptying the table first if it is full.
    fn track(&mut self, doc: u32, generation: u64, xpath: &str, slot: Slot) {
        if xpath.len() > PENDING_BYTES {
            return;
        }
        if self.tracked >= PENDING_LIMIT || self.tracked_bytes + xpath.len() > PENDING_BYTES {
            self.forget_tracked();
        }
        self.tracked += 1;
        self.tracked_bytes += xpath.len();
        self.slots(doc, generation).insert(xpath.into(), slot);
    }

    /// Evicts least-recently-used results other than `keep` until the
    /// kept bytes fit `budget`.
    fn evict_to(&mut self, budget: u64, keep: (u32, &str)) {
        while self.bytes > budget {
            let victim = self
                .docs
                .iter()
                .flat_map(|(&doc, d)| {
                    d.slots.iter().filter_map(move |(key, slot)| match slot {
                        Slot::Kept(answer) if (doc, &**key) != keep => {
                            Some((answer.stamp, doc, key))
                        }
                        _ => None,
                    })
                })
                .min_by_key(|(stamp, ..)| *stamp)
                .map(|(_, doc, key)| (doc, key.clone()));
            let Some((doc, key)) = victim else { break };
            if let Some(slot) = self.docs.get_mut(&doc).and_then(|d| d.slots.remove(&key)) {
                self.forget_slot(key.len(), slot);
            }
        }
    }
}

/// Byte budget for kept results; least-recently-used results are evicted
/// past it.
pub const VIEW_BUDGET_BYTES: u64 = 64 << 20;

/// Cap on queries tracked for admission before the table is emptied —
/// bounds memory under a flood of distinct queries.
const PENDING_LIMIT: usize = 4096;

/// Cap on the bytes of query text tracked for admission, for the same
/// reason: a request line may be 64 KB, and 4 096 of those are 256 MB.
const PENDING_BYTES: usize = 1 << 20;

/// Approximate bytes one kept entry holds. `NodeEntry` carries its FLEX
/// key inline up to 23 bytes; 16 bytes is a deliberate round figure for
/// the rest — the budget bounds order of magnitude, not allocator truth.
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<NodeEntry>() + 16) as u64;

fn footprint(rows: usize, xpath: &str) -> u64 {
    rows as u64 * ENTRY_OVERHEAD + xpath.len() as u64 + 64
}

/// The result memo: admission by observed frequency, eviction by
/// byte-budgeted LRU, invalidation by document generation. Interior-mutable
/// so the engine can consult it under shared access on the query path.
pub struct ViewCache {
    inner: Mutex<ViewInner>,
    budget: u64,
}

impl Default for ViewCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ViewCache {
    /// An empty memo with the [`VIEW_BUDGET_BYTES`] budget.
    pub fn new() -> Self {
        Self::with_budget(VIEW_BUDGET_BYTES)
    }

    fn with_budget(budget: u64) -> Self {
        ViewCache {
            inner: Mutex::new(ViewInner::default()),
            budget,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ViewInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The kept answer of `xpath` on `doc` at `generation`, counted as a
    /// hit or a miss. Entries of an older generation of `doc` are dropped
    /// on the way — the lazy invalidation replica replay relies on.
    pub(crate) fn lookup(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
    ) -> Option<Arc<Vec<NodeEntry>>> {
        let mut inner = self.lock();
        inner.expire(doc, generation);
        inner.clock += 1;
        let clock = inner.clock;
        let hit = match inner
            .docs
            .get_mut(&doc)
            .and_then(|d| d.slots.get_mut(xpath))
        {
            Some(Slot::Kept(answer)) => {
                answer.stamp = clock;
                answer.hits += 1;
                Some(Arc::clone(&answer.entries))
            }
            _ => None,
        };
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records one computed answer of `xpath` on `doc` at `generation` —
    /// `entries`, the finished node-set — and keeps a copy once the query
    /// has been computed `admit_after` times. An answer larger than the
    /// whole budget is neither copied nor counted again. Returns whether
    /// this call kept it.
    pub(crate) fn observe(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        admit_after: u32,
        entries: &[NodeEntry],
    ) -> bool {
        let bytes = footprint(entries.len(), xpath);
        {
            let mut inner = self.lock();
            let slots = inner.slots(doc, generation);
            let count = match slots.get(xpath) {
                Some(Slot::Pending(n)) => n.saturating_add(1),
                Some(Slot::Oversize | Slot::Kept(_)) => return false,
                None => 1,
            };
            let due = count >= admit_after.max(1);
            let next = if due && bytes > self.budget {
                Slot::Oversize
            } else {
                Slot::Pending(count)
            };
            match slots.get_mut(xpath) {
                Some(slot) => *slot = next,
                None => inner.track(doc, generation, xpath, next),
            }
            if !due || bytes > self.budget {
                return false;
            }
        }
        // Copied outside the lock: lookups do not wait on it.
        let entries = Arc::new(entries.to_vec());
        let mut inner = self.lock();
        inner.clock += 1;
        let kept = Slot::Kept(Answer {
            entries,
            bytes,
            stamp: inner.clock,
            hits: 0,
        });
        let slots = inner.slots(doc, generation);
        match slots.get_mut(xpath) {
            Some(slot) => {
                let old = std::mem::replace(slot, kept);
                inner.forget_slot(xpath.len(), old);
            }
            None => {
                slots.insert(xpath.into(), kept);
            }
        }
        inner.kept += 1;
        inner.bytes += bytes;
        inner.evict_to(self.budget, (doc, xpath));
        true
    }

    /// Drops everything kept or tracked for `doc` (the eager write path).
    pub fn invalidate_doc(&self, doc: u32) {
        let mut inner = self.lock();
        if let Some(d) = inner.docs.remove(&doc) {
            inner.forget(d.slots);
        }
    }

    /// Drops everything (snapshot installs, `CACHE CLEAR`).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let docs = std::mem::take(&mut inner.docs);
        for d in docs.into_values() {
            inner.forget(d.slots);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ViewStatsSnapshot {
        let inner = self.lock();
        ViewStatsSnapshot {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.bytes,
            views: inner.kept,
        }
    }

    /// Kept results, most-recently-used first.
    pub fn list(&self) -> Vec<ViewInfo> {
        let inner = self.lock();
        let mut out: Vec<(u64, ViewInfo)> = inner
            .docs
            .iter()
            .flat_map(|(&doc, d)| {
                d.slots.iter().filter_map(move |(xpath, slot)| match slot {
                    Slot::Kept(answer) => Some((
                        answer.stamp,
                        ViewInfo {
                            doc,
                            xpath: xpath.to_string(),
                            rows: answer.entries.len() as u64,
                            bytes: answer.bytes,
                            generation: d.generation,
                            hits: answer.hits,
                        },
                    )),
                    _ => None,
                })
            })
            .collect();
        out.sort_by_key(|v| std::cmp::Reverse(v.0));
        out.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fragment(xpath: &str) -> bool {
        let expr = vamana_xpath::parse(xpath).unwrap();
        let mut plan = crate::plan::builder::build_plan(&expr).unwrap();
        crate::opt::cleanup::cleanup(&mut plan);
        in_fragment(&plan)
    }

    #[test]
    fn fragment_accepts_tree_patterns() {
        for q in [
            "//person",
            "/site/people/person",
            "//person/address",
            "//person[address]/name",
            "//person[watches/watch][address]",
            "//a//b/c[d//e]",
            "//person/text()",
            "//person/node()",
            "//*",
        ] {
            assert!(fragment(q), "{q} should be accepted");
        }
    }

    #[test]
    fn fragment_rejects_everything_else() {
        for q in [
            "//a[1]",                   // positional
            "//a[last()]",              // positional function
            "//a[b='x']",               // value comparison
            "//a[b or c]",              // disjunction
            "//a/parent::b",            // reverse spine axis
            "//a[parent::b]",           // reverse predicate axis
            "//a/following-sibling::b", // sideways axis
            "//a | //b",                // union
            "//a[@id]",                 // attribute axis
            "//a[count(b)]",            // function
        ] {
            assert!(!fragment(q), "{q} should be rejected");
        }
    }

    fn entry(n: u8) -> NodeEntry {
        NodeEntry {
            key: vamana_flex::FlexKey::from_flat(vec![n, 0]),
            kind: vamana_mass::RecordKind::Element,
            name: None,
        }
    }

    #[test]
    fn admission_waits_for_frequency_then_answers() {
        let cache = ViewCache::new();
        let rows = [entry(1)];
        assert!(cache.lookup(0, "//a", 1).is_none());
        assert!(!cache.observe(0, "//a", 1, 2, &rows));
        assert!(cache.observe(0, "//a", 1, 2, &rows));
        assert_eq!(cache.lookup(0, "//a", 1).as_deref(), Some(&rows.to_vec()));
        // Kept results stop being counted.
        assert!(!cache.observe(0, "//a", 1, 2, &rows));
        let s = cache.stats();
        assert_eq!((s.views, s.hits, s.misses), (1, 1, 1));
        // Another document or another generation is not answered; the
        // newer generation drops the stale result.
        assert!(cache.lookup(1, "//a", 1).is_none());
        assert!(cache.lookup(0, "//a", 2).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().views, 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let one = footprint(1, "//a");
        let cache = ViewCache::with_budget(one * 2);
        assert!(cache.observe(0, "//a", 1, 1, &[entry(1)]));
        assert!(cache.observe(0, "//b", 1, 1, &[entry(1)]));
        cache.lookup(0, "//a", 1); // `//b` is now the least recently used
        assert!(cache.observe(0, "//c", 1, 1, &[entry(1)]));
        let s = cache.stats();
        assert_eq!(s.views, 2, "the third result must evict one");
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= one * 2);
        let listed: Vec<String> = cache.list().into_iter().map(|v| v.xpath).collect();
        assert_eq!(listed, vec!["//c".to_string(), "//a".to_string()]);
    }

    #[test]
    fn oversize_results_are_neither_kept_nor_counted_again() {
        let rows = vec![entry(1); 100];
        let cache = ViewCache::with_budget(footprint(10, "//big"));
        assert!(!cache.observe(0, "//big", 1, 2, &rows));
        assert!(!cache.observe(0, "//big", 1, 2, &rows));
        let inner = cache.lock();
        assert!(matches!(inner.docs[&0].slots["//big"], Slot::Oversize));
        drop(inner);
        for _ in 0..3 {
            assert!(!cache.observe(0, "//big", 1, 2, &rows));
        }
        let inner = cache.lock();
        assert!(matches!(inner.docs[&0].slots["//big"], Slot::Oversize));
        assert_eq!((inner.kept, inner.tracked), (0, 1));
        drop(inner);
        // A write may shrink the answer: a new generation counts afresh.
        assert!(!cache.observe(0, "//big", 2, 2, &rows[..1]));
        assert!(cache.observe(0, "//big", 2, 2, &rows[..1]));
    }

    #[test]
    fn admission_table_stays_under_its_byte_cap() {
        let cache = ViewCache::new();
        let tail = "/a".repeat(30 << 10);
        for i in 0..10_000 {
            let xpath = format!("//q{i}{tail}");
            cache.observe(0, &xpath, 1, 2, &[]);
            let inner = cache.lock();
            let held: usize = inner
                .docs
                .values()
                .flat_map(|d| d.slots.keys())
                .map(|k| k.len())
                .sum();
            assert_eq!(held, inner.tracked_bytes);
            assert!(
                held <= PENDING_BYTES,
                "{held} bytes tracked after {i} queries"
            );
        }
    }

    #[test]
    fn invalidate_and_clear_account_evictions() {
        let cache = ViewCache::new();
        for (doc, key) in [(0, "//a"), (0, "//b"), (1, "//a")] {
            cache.observe(doc, key, 1, 1, &[entry(1)]);
        }
        cache.observe(0, "//pending", 1, 2, &[]);
        cache.invalidate_doc(0);
        assert_eq!(cache.stats().views, 1);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.lock().tracked, 0);
        cache.clear();
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, 3);
    }
}
