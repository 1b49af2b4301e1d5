//! The query cache: one table of `(document, XPath text)` entries, each
//! holding the optimized plan and, once admitted, the query's answer; and
//! beside them the document's templates, each the plan optimized for one
//! text of a shape.
//!
//! [`crate::Engine::lookup`] — behind [`crate::Engine::query_doc`],
//! [`crate::Engine::stream`] and the server's `QUERY` — probes it before
//! parsing: a kept answer is the reply and nothing is compiled or run; a
//! cached plan skips parse and optimize. A text not found is lexed into its
//! shape ([`vamana_xpath::lexer::shape`]: its tokens with every string
//! literal lifted into a slot); when the shape has a template for literals
//! as frequent as the text's (below), the text's literals are bound into a
//! copy of it and nothing is parsed or optimized. Otherwise the text is
//! compiled and optimized, and its plan becomes that template. Either way
//! the text gets an entry.
//! EXPLAIN, ANALYZE, `query_from`, `evaluate` and an update's target
//! resolution never read the cache.
//!
//! # Shapes
//!
//! `//person[@id='person17']/name` and `//person[@id='person18']/name`
//! share a shape. The optimizer chose the shape's plan on index counts:
//! `COUNT` of each node test and numeric range, which no literal changes
//! while the document stays at one generation, and `TC` of each literal,
//! which the literal does. So a template is filed under its shape and, per
//! literal, the order of magnitude of the literal's `TC` in the document,
//! `⌊log₂(TC + one page of tuples)⌋` (a binary search each). Literals filed
//! together have counts within 2× of each other, widened by a page of
//! tuples — counts that close price the same page reads — and a literal
//! with many occurrences gets its own template beside the rare ones'.
//!
//! # Validity
//!
//! Every document's entries and templates carry the document generation
//! they were made at. Statistics come straight from the index, so that
//! generation is the only stamp a plan needs, as it is for an answer. A
//! primary write drops the document's entries and templates eagerly
//! ([`crate::Engine::apply_update`]); replica replay bumps the generation
//! store-side, and the next access at the new generation drops them.
//! Snapshot installs ([`crate::Engine::replace_store`]), option changes
//! ([`crate::Engine::options_mut`]) and `CACHE CLEAR` clear everything.
//!
//! # Bounds
//!
//! At most [`CAPACITY`] entries and [`KEY_BYTES`] of query text; past
//! either the least-recently-used entry goes, and a text longer than the
//! whole cap is not cached. At most [`SHAPES`] templates, the
//! least-recently-used going first, and none for a shape longer than
//! `KEY_BYTES / SHAPES`. Kept answers share [`VIEW_BUDGET_BYTES`]; past it
//! the least-recently-used answer is dropped and its plan kept.
//!
//! # Admission
//!
//! Any query's answer may be kept: XPath 1.0 has nothing non-deterministic,
//! so an answer stamped with its generation is exact. It is kept the
//! [`crate::EngineOptions::view_admit_after`]-th time it is computed at one
//! generation — a point lookup asked once never is — unless it alone
//! exceeds the budget; then the entry is marked oversize and not counted
//! again.

use crate::engine::Lookup;
use crate::plan::{OpId, Operator, QueryPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vamana_flex::KeyRange;
use vamana_mass::{MassStore, NodeEntry};
use vamana_xpath::lexer::Shape;

/// Point-in-time answer counters (served through `STATS` as `view_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStatsSnapshot {
    /// Lookups answered from a kept answer.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Kept answers dropped: stale generations, budget and LRU evictions,
    /// clears.
    pub evictions: u64,
    /// Approximate bytes currently kept.
    pub bytes: u64,
    /// Answers currently kept.
    pub views: u64,
}

/// One kept answer, as [`QueryCache::list`] shows it (the `CACHE` verb /
/// `.views` output).
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// Document the answer belongs to.
    pub doc: u32,
    /// The query it answers.
    pub xpath: String,
    /// Result rows.
    pub rows: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Document generation the answer is valid for.
    pub generation: u64,
    /// Lookups it answered.
    pub hits: u64,
}

/// What an entry knows of its query's answer.
enum Answer {
    /// Not kept (yet).
    None,
    /// Larger than the whole budget: not counted again.
    Oversize,
    /// The kept node-set.
    Kept {
        entries: Arc<Vec<NodeEntry>>,
        bytes: u64,
        hits: u64,
    },
}

/// One query text on one document.
struct Entry {
    plan: Arc<QueryPlan>,
    /// Last-used clock stamp, for both LRU orders.
    stamp: u64,
    /// Times its answer has been computed since it was last dropped.
    computed: u32,
    answer: Answer,
}

/// One document's entries and templates, all valid at `generation`.
struct DocEntries {
    generation: u64,
    entries: HashMap<Box<str>, Entry>,
    templates: HashMap<TemplateKey, Shaped>,
}

impl DocEntries {
    fn new(generation: u64) -> Self {
        DocEntries {
            generation,
            entries: HashMap::new(),
            templates: HashMap::new(),
        }
    }
}

/// Where a template is filed: its shape's key and, per string literal, the
/// order of magnitude of the literal's `TC` in the document.
#[derive(Debug, PartialEq, Eq, Hash)]
struct TemplateKey {
    shape: Box<str>,
    magnitudes: Box<[u8]>,
}

/// A query text lexed into its shape, with the key its template is filed
/// under ([`QueryCache::bind`], [`QueryCache::offer_template`]).
pub(crate) struct ShapedText {
    key: TemplateKey,
    literals: Vec<Box<str>>,
}

impl ShapedText {
    /// `shape`, a text's, with its literals counted on `store` within
    /// `scope` (the document).
    pub(crate) fn new(shape: Shape, store: &MassStore, scope: &KeyRange) -> Self {
        // Counts less than a page of tuples apart price the same page
        // reads.
        let slack = store.tuples_per_page() as u64;
        let magnitudes = shape
            .literals
            .iter()
            .map(|value| (store.text_count_in(value, scope) + slack).max(1).ilog2() as u8)
            .collect();
        ShapedText {
            key: TemplateKey {
                shape: shape.key.into(),
                magnitudes,
            },
            literals: shape.literals,
        }
    }
}

/// A plan optimized for one text of a shape, ready to take another text's
/// literals.
struct Template {
    plan: Arc<QueryPlan>,
    /// Every operator holding a literal, with the slot it holds.
    slots: Vec<(OpId, usize)>,
}

impl Template {
    /// `plan`, optimized for `literals`, as its shape's template — or
    /// `None` when a slot cannot be told from the plan: two literals of one
    /// value, or one the plan holds in no literal operator (a
    /// `processing-instruction('t')` target).
    fn new(plan: Arc<QueryPlan>, literals: &[Box<str>]) -> Option<Template> {
        let slot = |value: &str| literals.iter().position(|l| &**l == value);
        if literals.iter().enumerate().any(|(i, l)| slot(l) != Some(i)) {
            return None;
        }
        let mut slots = Vec::new();
        for id in (0..plan.len() as u32).map(OpId) {
            if let Operator::Literal { value } | Operator::ValueStep { value, .. } = plan.op(id) {
                slots.push((id, slot(value)?));
            }
        }
        if (0..literals.len()).any(|i| slots.iter().all(|&(_, s)| s != i)) {
            return None;
        }
        Some(Template { plan, slots })
    }

    /// A copy of the plan holding `literals`.
    fn bind(&self, literals: &[Box<str>]) -> QueryPlan {
        let mut plan = QueryPlan::clone(&self.plan);
        for &(id, slot) in &self.slots {
            if let Operator::Literal { value } | Operator::ValueStep { value, .. } = plan.op_mut(id)
            {
                value.clone_from(&literals[slot]);
            }
        }
        plan
    }
}

/// One template on one document.
struct Shaped {
    template: Arc<Template>,
    /// Last-used clock stamp.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    /// Document id → query text → entry: both levels are probed with
    /// borrowed keys, so a lookup allocates nothing.
    docs: HashMap<u32, DocEntries>,
    clock: u64,
    /// Entries and the bytes of their keys.
    len: usize,
    key_bytes: usize,
    /// Templates held.
    shape_len: usize,
    /// Kept answers and their bytes.
    kept: u64,
    bytes: u64,
    /// Lookups that found an entry, found none, and found a kept answer.
    hits: u64,
    misses: u64,
    answered: u64,
    evictions: u64,
}

impl Inner {
    /// Drops `doc`'s entries and templates when they were made at another
    /// generation.
    fn expire(&mut self, doc: u32, generation: u64) {
        if self
            .docs
            .get(&doc)
            .is_some_and(|d| d.generation != generation)
        {
            let stale = self.docs.insert(doc, DocEntries::new(generation));
            self.forget_doc(stale);
        }
    }

    /// Accounts for a document's entries and templates removed.
    fn forget_doc(&mut self, removed: Option<DocEntries>) {
        if let Some(d) = removed {
            self.shape_len -= d.templates.len();
            self.forget(d.entries);
        }
    }

    /// `doc`'s entries and templates, made at `generation` when new.
    fn doc(&mut self, doc: u32, generation: u64) -> &mut DocEntries {
        self.docs
            .entry(doc)
            .or_insert_with(|| DocEntries::new(generation))
    }

    /// Accounts for entries removed from the table.
    fn forget(&mut self, entries: impl IntoIterator<Item = (Box<str>, Entry)>) {
        for (key, entry) in entries {
            self.len -= 1;
            self.key_bytes -= key.len();
            self.dropped(entry.answer);
        }
    }

    /// Accounts for an answer taken off its entry.
    fn dropped(&mut self, answer: Answer) {
        if let Answer::Kept { bytes, .. } = answer {
            self.kept -= 1;
            self.bytes -= bytes;
            self.evictions += 1;
        }
    }

    fn entry(&mut self, doc: u32, xpath: &str) -> Option<&mut Entry> {
        self.docs.get_mut(&doc)?.entries.get_mut(xpath)
    }

    /// The least-recently-used entry passing `pick`.
    fn lru(&self, pick: impl Fn(u32, &str, &Entry) -> bool) -> Option<(u32, Box<str>)> {
        self.docs
            .iter()
            .flat_map(|(&doc, d)| d.entries.iter().map(move |(key, e)| (doc, key, e)))
            .filter(|&(doc, key, e)| pick(doc, key, e))
            .min_by_key(|(.., e)| e.stamp)
            .map(|(doc, key, _)| (doc, key.clone()))
    }

    /// Evicts least-recently-used entries until one more of `key_len`
    /// bytes fits both bounds.
    fn make_room(&mut self, key_len: usize) {
        while self.len >= CAPACITY || self.key_bytes + key_len > KEY_BYTES {
            let Some((doc, key)) = self.lru(|_, _, _| true) else {
                break;
            };
            let removed = self
                .docs
                .get_mut(&doc)
                .and_then(|d| d.entries.remove_entry(&key));
            self.forget(removed);
        }
    }

    /// Drops least-recently-used answers other than `keep`'s until the
    /// kept bytes fit `budget`. Their plans stay, and admission counts
    /// afresh.
    fn evict_answers_to(&mut self, budget: u64, keep: (u32, &str)) {
        while self.bytes > budget {
            let victim = self
                .lru(|doc, key, e| matches!(e.answer, Answer::Kept { .. }) && (doc, key) != keep);
            let Some((doc, key)) = victim else { break };
            let answer = self.entry(doc, &key).map(|e| {
                e.computed = 0;
                std::mem::replace(&mut e.answer, Answer::None)
            });
            if let Some(answer) = answer {
                self.dropped(answer);
            }
        }
    }

    /// Drops the least-recently-used template.
    fn evict_shape(&mut self) {
        let oldest = self
            .docs
            .iter()
            .flat_map(|(&doc, d)| d.templates.values().map(move |s| (s.stamp, doc)))
            .min();
        if let Some((stamp, doc)) = oldest {
            if let Some(d) = self.docs.get_mut(&doc) {
                // Stamps are unique: this drops one template.
                d.templates.retain(|_, s| s.stamp != stamp);
                self.shape_len -= 1;
            }
        }
    }
}

/// Entries the table holds at most. The serving benchmark's sizing guard
/// is cut for this figure, so it is a constant, not an option.
pub const CAPACITY: usize = 256;

/// Bytes of query text the table holds at most: a request line may be
/// 64 KB, and [`CAPACITY`] of those would be 16 MB.
pub const KEY_BYTES: usize = 1 << 20;

/// Templates the table holds at most: a workload's request shapes are few
/// (the embedded benchmark has four lookup shapes), and so are the orders
/// of magnitude of their literals' counts.
pub const SHAPES: usize = 64;

/// Byte budget for kept answers; least-recently-used answers are dropped
/// past it.
pub const VIEW_BUDGET_BYTES: u64 = 64 << 20;

/// Approximate bytes one kept entry holds. `NodeEntry` carries its FLEX
/// key inline up to 23 bytes; 16 bytes is a deliberate round figure for
/// the rest — the budget bounds order of magnitude, not allocator truth.
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<NodeEntry>() + 16) as u64;

fn footprint(rows: usize, xpath: &str) -> u64 {
    rows as u64 * ENTRY_OVERHEAD + xpath.len() as u64 + 64
}

/// The query cache: plans for every query text looked up, answers for
/// the repeated ones, templates for their shapes, one lock.
/// Interior-mutable so the engine consults it under shared access on the
/// query path.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: u64,
    /// Texts bound into their shape's template.
    bound: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryCache {
    /// An empty table with the [`VIEW_BUDGET_BYTES`] answer budget.
    pub fn new() -> Self {
        Self::with_budget(VIEW_BUDGET_BYTES)
    }

    fn with_budget(budget: u64) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            budget,
            bound: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry for `xpath` on `doc` at `generation`: its plan and kept
    /// answer, counted as a hit or a miss. Entries of an older generation
    /// of `doc` are dropped on the way — the lazy invalidation replica
    /// replay relies on.
    pub(crate) fn lookup(&self, doc: u32, xpath: &str, generation: u64) -> Option<Lookup> {
        let mut inner = self.lock();
        inner.expire(doc, generation);
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.entry(doc, xpath).map(|e| {
            e.stamp = clock;
            let answer = match &mut e.answer {
                Answer::Kept { entries, hits, .. } => {
                    *hits += 1;
                    Some(Arc::clone(entries))
                }
                _ => None,
            };
            Lookup {
                plan: Arc::clone(&e.plan),
                answer,
                cached: true,
                bound: false,
            }
        });
        match &found {
            Some(found) => {
                inner.hits += 1;
                inner.answered += u64::from(found.answer.is_some());
            }
            None => inner.misses += 1,
        }
        found
    }

    /// Keeps `plan` for `xpath` on `doc` at `generation`, evicting
    /// least-recently-used entries to fit. An entry another thread made
    /// meanwhile is kept as it is.
    pub(crate) fn insert(&self, doc: u32, xpath: &str, generation: u64, plan: Arc<QueryPlan>) {
        if xpath.len() > KEY_BYTES {
            return;
        }
        let mut inner = self.lock();
        inner.expire(doc, generation);
        if inner.entry(doc, xpath).is_some() {
            return;
        }
        inner.make_room(xpath.len());
        inner.clock += 1;
        let entry = Entry {
            plan,
            stamp: inner.clock,
            computed: 0,
            answer: Answer::None,
        };
        inner
            .doc(doc, generation)
            .entries
            .insert(xpath.into(), entry);
        inner.len += 1;
        inner.key_bytes += xpath.len();
    }

    /// The template `text` is filed under on `doc` at `generation`, with
    /// `text`'s literals bound in; the plan is copied outside the lock.
    pub(crate) fn bind(&self, doc: u32, generation: u64, text: &ShapedText) -> Option<QueryPlan> {
        let template = {
            let mut inner = self.lock();
            inner.expire(doc, generation);
            inner.clock += 1;
            let clock = inner.clock;
            let found = inner.docs.get_mut(&doc)?.templates.get_mut(&text.key)?;
            found.stamp = clock;
            Arc::clone(&found.template)
        };
        self.bound.fetch_add(1, Ordering::Relaxed);
        Some(template.bind(&text.literals))
    }

    /// Files `plan` — optimized for `text` on `doc` at `generation` — as
    /// the template `text` is filed under, in place of any, unless its
    /// slots cannot be told apart (two literals of one value, one held
    /// outside a literal operator) or the shape is longer than
    /// `KEY_BYTES / SHAPES`.
    pub(crate) fn offer_template(
        &self,
        doc: u32,
        generation: u64,
        text: ShapedText,
        plan: Arc<QueryPlan>,
    ) {
        if text.key.shape.len() > KEY_BYTES / SHAPES {
            return;
        }
        let Some(template) = Template::new(plan, &text.literals) else {
            return;
        };
        let mut inner = self.lock();
        inner.expire(doc, generation);
        let held = inner
            .docs
            .get(&doc)
            .is_some_and(|d| d.templates.contains_key(&text.key));
        if !held {
            if inner.shape_len >= SHAPES {
                inner.evict_shape();
            }
            inner.shape_len += 1;
        }
        inner.clock += 1;
        let shaped = Shaped {
            template: Arc::new(template),
            stamp: inner.clock,
        };
        inner
            .doc(doc, generation)
            .templates
            .insert(text.key, shaped);
    }

    /// Records one computed answer of `xpath` on `doc` at `generation` —
    /// `entries`, the finished node-set — and keeps a copy on its entry
    /// once the query has been computed `admit_after` times. An answer
    /// larger than the whole budget is neither copied nor counted again;
    /// a query with no entry is not counted. Returns whether this call
    /// kept it.
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
            inner.expire(doc, generation);
            let Some(entry) = inner.entry(doc, xpath) else {
                return false;
            };
            if !matches!(entry.answer, Answer::None) {
                return false;
            }
            entry.computed = entry.computed.saturating_add(1);
            if entry.computed < admit_after.max(1) {
                return false;
            }
            if bytes > self.budget {
                entry.answer = Answer::Oversize;
                return false;
            }
        }
        // Copied outside the lock: lookups do not wait on it.
        let entries = Arc::new(entries.to_vec());
        let mut inner = self.lock();
        inner.expire(doc, generation);
        inner.clock += 1;
        let clock = inner.clock;
        let Some(entry) = inner.entry(doc, xpath) else {
            return false;
        };
        if !matches!(entry.answer, Answer::None) {
            return false;
        }
        entry.stamp = clock;
        entry.answer = Answer::Kept {
            entries,
            bytes,
            hits: 0,
        };
        inner.kept += 1;
        inner.bytes += bytes;
        inner.evict_answers_to(self.budget, (doc, xpath));
        true
    }

    /// Drops every entry and template of `doc` (the eager write path).
    pub fn invalidate_doc(&self, doc: u32) {
        let mut inner = self.lock();
        let removed = inner.docs.remove(&doc);
        inner.forget_doc(removed);
    }

    /// Drops every entry and template (snapshot installs, option changes,
    /// `CACHE CLEAR`).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let docs = std::mem::take(&mut inner.docs);
        for d in docs.into_values() {
            inner.forget_doc(Some(d));
        }
    }

    /// Answer counters.
    pub fn stats(&self) -> ViewStatsSnapshot {
        let inner = self.lock();
        ViewStatsSnapshot {
            hits: inner.answered,
            misses: inner.hits + inner.misses - inner.answered,
            evictions: inner.evictions,
            bytes: inner.bytes,
            views: inner.kept,
        }
    }

    /// `(hits, misses)` of lookups: one per query text and document asked.
    /// A text bound into its shape's template counts as a miss.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Texts bound into their shape's template.
    pub fn binds(&self) -> u64 {
        self.bound.load(Ordering::Relaxed)
    }

    /// Entries held (plans, whether or not an answer is kept).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Templates held.
    pub fn shapes(&self) -> usize {
        self.lock().shape_len
    }

    /// Kept answers, most-recently-used first.
    pub fn list(&self) -> Vec<ViewInfo> {
        let inner = self.lock();
        let mut out: Vec<(u64, ViewInfo)> = inner
            .docs
            .iter()
            .flat_map(|(&doc, d)| {
                d.entries
                    .iter()
                    .filter_map(move |(xpath, e)| match &e.answer {
                        Answer::Kept {
                            entries,
                            bytes,
                            hits,
                        } => Some((
                            e.stamp,
                            ViewInfo {
                                doc,
                                xpath: xpath.to_string(),
                                rows: entries.len() as u64,
                                bytes: *bytes,
                                generation: d.generation,
                                hits: *hits,
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
    use crate::plan::builder::build_plan;
    use vamana_xpath::lexer::shape;

    fn compiled(xpath: &str) -> QueryPlan {
        build_plan(&vamana_xpath::parse(xpath).unwrap()).unwrap()
    }

    fn plan() -> Arc<QueryPlan> {
        Arc::new(compiled("//a"))
    }

    fn entry(n: u8) -> NodeEntry {
        NodeEntry {
            key: vamana_flex::FlexKey::from_flat(vec![n, 0]),
            kind: vamana_mass::RecordKind::Element,
            name: None,
        }
    }

    /// A cache holding a plan for each of `keys` on document 0, generation 1.
    fn cache_with(budget: u64, keys: &[&str]) -> QueryCache {
        let cache = QueryCache::with_budget(budget);
        for key in keys {
            cache.insert(0, key, 1, plan());
        }
        cache
    }

    #[test]
    fn admission_waits_for_frequency_then_answers() {
        let cache = QueryCache::new();
        let rows = [entry(1)];
        assert!(cache.lookup(0, "//a", 1).is_none());
        // Nothing is counted for a query with no entry.
        assert!(!cache.observe(0, "//a", 1, 1, &rows));
        cache.insert(0, "//a", 1, plan());
        assert!(cache.lookup(0, "//a", 1).unwrap().answer.is_none());
        assert!(!cache.observe(0, "//a", 1, 2, &rows));
        assert!(cache.observe(0, "//a", 1, 2, &rows));
        let answer = cache.lookup(0, "//a", 1).unwrap().answer;
        assert_eq!(answer.as_deref(), Some(&rows.to_vec()));
        // Kept answers stop being counted.
        assert!(!cache.observe(0, "//a", 1, 2, &rows));
        let s = cache.stats();
        assert_eq!((s.views, s.hits, s.misses), (1, 1, 2));
        assert_eq!(cache.counters(), (2, 1));
        // Another document or another generation is not answered; the
        // newer generation drops the stale entry, plan and answer.
        assert!(cache.lookup(1, "//a", 1).is_none());
        assert!(cache.lookup(0, "//a", 2).is_none());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().views, 0);
        assert!(cache.is_empty(), "stale entry must be dropped");
        assert_eq!(cache.counters(), (2, 3));
    }

    #[test]
    fn byte_budget_drops_least_recently_used_answers_but_keeps_plans() {
        let one = footprint(1, "//a");
        let cache = cache_with(one * 2, &["//a", "//b", "//c"]);
        assert!(cache.observe(0, "//a", 1, 1, &[entry(1)]));
        assert!(cache.observe(0, "//b", 1, 1, &[entry(1)]));
        cache.lookup(0, "//a", 1); // `//b` is now the least recently used
        assert!(cache.observe(0, "//c", 1, 1, &[entry(1)]));
        let s = cache.stats();
        assert_eq!(s.views, 2, "the third answer must evict one");
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= one * 2);
        let listed: Vec<String> = cache.list().into_iter().map(|v| v.xpath).collect();
        assert_eq!(listed, vec!["//c".to_string(), "//a".to_string()]);
        // `//b` keeps its plan and counts toward admission afresh.
        assert!(cache.lookup(0, "//b", 1).unwrap().answer.is_none());
        assert_eq!(cache.len(), 3);
        assert!(!cache.observe(0, "//b", 1, 2, &[entry(1)]));
    }

    #[test]
    fn lru_bounds_the_entries() {
        let cache = QueryCache::new();
        for i in 0..CAPACITY {
            cache.insert(0, &format!("//q{i}"), 1, plan());
        }
        assert!(cache.lookup(0, "//q0", 1).is_some()); // refresh the oldest
        cache.insert(1, "//r", 1, plan());
        assert_eq!(cache.len(), CAPACITY);
        assert!(
            cache.lookup(0, "//q0", 1).is_some(),
            "recently used survives"
        );
        assert!(cache.lookup(0, "//q1", 1).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1, "//r", 1).is_some());
    }

    #[test]
    fn oversize_answers_are_neither_kept_nor_counted_again() {
        let rows = vec![entry(1); 100];
        let cache = cache_with(footprint(10, "//big"), &["//big"]);
        assert!(!cache.observe(0, "//big", 1, 2, &rows));
        assert!(!cache.observe(0, "//big", 1, 2, &rows));
        let oversize = |cache: &QueryCache| {
            let mut inner = cache.lock();
            matches!(inner.entry(0, "//big").unwrap().answer, Answer::Oversize)
        };
        assert!(oversize(&cache));
        for _ in 0..3 {
            assert!(!cache.observe(0, "//big", 1, 2, &rows));
        }
        assert!(oversize(&cache));
        assert_eq!(cache.stats().views, 0);
        // A write may shrink the answer: a new generation counts afresh.
        cache.insert(0, "//big", 2, plan());
        assert!(!cache.observe(0, "//big", 2, 2, &rows[..1]));
        assert!(cache.observe(0, "//big", 2, 2, &rows[..1]));
    }

    #[test]
    fn every_key_stays_under_the_byte_cap() {
        let cache = QueryCache::new();
        let tail = "/a".repeat(30 << 10);
        for i in 0..10_000 {
            let xpath = format!("//q{i}{tail}");
            cache.insert(0, &xpath, 1, plan());
            cache.observe(0, &xpath, 1, 2, &[]);
            let inner = cache.lock();
            let held: usize = inner
                .docs
                .values()
                .flat_map(|d| d.entries.keys())
                .map(|k| k.len())
                .sum();
            assert_eq!(held, inner.key_bytes);
            assert!(held <= KEY_BYTES, "{held} key bytes after {i} queries");
        }
        assert!(cache.len() > 1, "the cap must still hold several keys");
        // A key longer than the whole cap is not cached at all.
        cache.insert(0, &"/a".repeat(KEY_BYTES), 1, plan());
        assert!(cache.lock().key_bytes <= KEY_BYTES);
    }

    #[test]
    fn a_write_heavy_loop_cannot_grow_the_map() {
        let cache = QueryCache::new();
        // Each generation re-plans two texts, then a write lands.
        for generation in 1..=100u64 {
            for xpath in ["//a", "//b"] {
                if cache.lookup(0, xpath, generation).is_none() {
                    cache.insert(0, xpath, generation, plan());
                }
            }
            cache.invalidate_doc(0);
        }
        assert!(cache.is_empty());
        // Replica replay: no eager drop, the next generation's access does it.
        for generation in 1..=100u64 {
            cache.lookup(0, "//a", generation);
            cache.insert(0, "//a", generation, plan());
        }
        assert_eq!(cache.len(), 1, "stale generations piled up");
    }

    #[test]
    fn invalidate_and_clear_account_evictions() {
        let cache = QueryCache::new();
        for (doc, key) in [(0, "//a"), (0, "//b"), (1, "//a")] {
            cache.insert(doc, key, 1, plan());
            cache.observe(doc, key, 1, 1, &[entry(1)]);
        }
        cache.insert(0, "//pending", 1, plan());
        cache.invalidate_doc(0);
        assert_eq!(cache.stats().views, 1);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.lock().key_bytes, 0);
    }

    /// `xpath` lexed into its shape, each literal filed at `magnitude`.
    fn shaped(xpath: &str, magnitude: u8) -> ShapedText {
        let shape = shape(xpath).unwrap();
        ShapedText {
            key: TemplateKey {
                shape: shape.key.into(),
                magnitudes: vec![magnitude; shape.literals.len()].into(),
            },
            literals: shape.literals,
        }
    }

    #[test]
    fn a_template_binds_each_literal_into_the_operators_of_its_slot() {
        let template = |xpath: &str| {
            let literals = shape(xpath).unwrap().literals;
            Template::new(Arc::new(compiled(xpath)), &literals)
        };
        let bound = template("//a[@k = 'x' or . = 'y']/b[c = 'z']")
            .expect("three distinct literals")
            .bind(&[Box::from("u"), Box::from("v"), Box::from("w")]);
        assert_eq!(bound, compiled("//a[@k = 'u' or . = 'v']/b[c = 'w']"));
        assert!(
            template("//a[@k = 'x' or . = 'x']").is_none(),
            "one value in two slots"
        );
        assert!(
            template("//processing-instruction('x')[. = 'y']").is_none(),
            "a literal outside a literal operator"
        );
    }

    #[test]
    fn a_template_binds_texts_of_its_shape_and_magnitudes_at_its_generation() {
        let cache = QueryCache::new();
        let offer = |xpath: &str, magnitude: u8, generation: u64| {
            let text = shaped(xpath, magnitude);
            cache.offer_template(0, generation, text, Arc::new(compiled(xpath)));
        };
        let bind = |xpath: &str, magnitude: u8, generation: u64| {
            cache.bind(0, generation, &shaped(xpath, magnitude))
        };
        offer("//a[@k = 'x']", 3, 1);
        assert_eq!(bind("//a[@k='y']", 3, 1), Some(compiled("//a[@k = 'y']")));
        assert_eq!(cache.binds(), 1);
        // Another magnitude, document or shape has no template.
        assert!(bind("//a[@k = 'y']", 4, 1).is_none());
        assert!(cache.bind(1, 1, &shaped("//a[@k = 'y']", 3)).is_none());
        assert!(bind("//b[@k = 'y']", 3, 1).is_none());
        // Nor has another generation, and asking drops the stale one.
        assert!(bind("//a[@k = 'y']", 3, 2).is_none());
        assert_eq!(cache.shapes(), 0);
        assert_eq!(cache.binds(), 1);
    }

    #[test]
    fn templates_are_bounded_and_dropped_with_the_entries() {
        let cache = QueryCache::new();
        let offer = |doc: u32, xpath: &str| {
            let text = shaped(xpath, 0);
            cache.offer_template(doc, 1, text, Arc::new(compiled(xpath)));
        };
        for i in 0..SHAPES + 10 {
            offer(0, &format!("//q{i}[@k = 'v']"));
        }
        assert_eq!(cache.shapes(), SHAPES);
        assert_eq!(cache.lock().docs[&0].templates.len(), SHAPES);
        // The oldest went first; offering a held shape again replaces it.
        assert!(cache.bind(0, 1, &shaped("//q0[@k = 'v']", 0)).is_none());
        assert!(cache.bind(0, 1, &shaped("//q73[@k = 'v']", 0)).is_some());
        offer(0, "//q73[@k = 'w']");
        assert_eq!(cache.shapes(), SHAPES);
        // A write to the document drops its templates, not another's.
        offer(1, "//r[@k = 'v']");
        assert_eq!(cache.shapes(), SHAPES);
        cache.invalidate_doc(0);
        assert_eq!(cache.shapes(), 1);
        cache.clear();
        assert_eq!(cache.shapes(), 0);
    }
}
