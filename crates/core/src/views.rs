//! The query cache: one table of `(document, XPath text)` entries, each
//! holding the optimized plan and, once admitted, the query's answer; and
//! beside them the document's templates, each the plan optimized for one
//! text of a shape.
//!
//! Every query text is run through one [`crate::QueryStream`]: the
//! [`crate::Engine::stream`] that [`crate::Engine::query_doc`] and the
//! server's `QUERY` open too. Opening it probes the cache
//! ([`crate::Engine::lookup`]) before parsing: a kept answer is the reply
//! and nothing is compiled or run; a cached plan skips parse and optimize.
//! A text not found is lexed into its shape ([`vamana_xpath::lexer::shape`]:
//! its tokens with every string literal lifted into a slot); when the shape
//! has a template for literals as frequent as the text's (below), the
//! text's literals are bound into a copy of it and nothing is parsed or
//! optimized. Otherwise the text is compiled and optimized, and its plan
//! becomes that template. Either way the text gets an entry. Finishing the
//! stream ([`crate::QueryStream::finish`]) offers the answer it computed
//! ("Admission"); a stream dropped unfinished or cut off by its deadline
//! offers nothing. An update's target ([`crate::Engine::apply_update`]) is
//! run through a stream resolved the same way — an entry's plan or answer,
//! else its shape's template, else a compile offered as the template — but
//! gets no entry and offers nothing: a `DELETE` target is asked once.
//! A scalar text's plan is found the same way; it keeps no answer. EXPLAIN,
//! ANALYZE and `query_from` never read the cache.
//!
//! # Shapes
//!
//! `//person[@id='person17']/name` and `//person[@id='person18']/name`
//! share a shape. The optimizer chose the shape's plan on index counts:
//! `COUNT` of each node test and numeric range, which no literal changes,
//! and `TC` of each literal, which the literal does. So a template is filed
//! under its shape and, per literal, the order of magnitude of the
//! literal's `TC` in the document, `⌊log₂(TC + one page of tuples)⌋` (a
//! binary search each). Literals filed together have counts within 2× of
//! each other, widened by a page of tuples — counts that close price the
//! same page reads — and a literal with many occurrences gets its own
//! template beside the rare ones'.
//!
//! # Validity
//!
//! The optimizer applies only rewrites that keep a query's meaning, so a
//! plan answers correctly at every generation of its document; the counts
//! decide only whether it is still a good plan. An answer is valid until a
//! write it can see: a write inserts or deletes whole subtrees, and the
//! FLEX keys of every other node stay, so an answer, a list of keys, stays
//! exact across a write whose nodes its query cannot reach.
//!
//! So a write drops only answers. An update or a follower's replayed batch
//! ([`crate::Engine::apply_update`], [`crate::Engine::apply_replicated`])
//! checks each query against what it inserted or deleted
//! ([`vamana_mass::Footprint`]; the check is the `reach` module's, once
//! per parsed query — a template's texts share theirs) and carries the
//! answers it cannot see to the new generation; the rest are dropped, all
//! of them when the write failed after its apply began. Each plan and
//! template records, when it is made, the magnitude (as above) of every
//! count it was priced on: `COUNT` of each node test and numeric range in
//! its operators and `TC` of each literal.
//! The first lookup or bind after the document's generation changes reads
//! those counts again: if every magnitude holds, the plan is restamped
//! with the new generation, and an answer carried to it is handed back;
//! if one moved, the plan is optimized afresh ([`QueryCache::replans`]).
//! While the generation holds a lookup reads no count. Snapshot installs
//! ([`crate::Engine::replace_store`]), option changes
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
//! [`crate::EngineOptions::view_admit_after`]-th time it is computed since
//! a write it could see — a point lookup asked once never is — unless it
//! alone exceeds the budget; then the entry is marked oversize and not
//! counted again until such a write.
//!
//! # Kept replies
//!
//! A kept answer also keeps what the last reply showed of it
//! ([`Shown`]: its first rows with their values cut to a width, as the
//! server wrote them). The server hands it to [`crate::Engine::keep_shown`]
//! with the answer it rendered, which keeps it only while that very
//! answer is kept, and reads it back with the lookup that finds the answer
//! ([`crate::Lookup::shown`]), so a repeated request renders nothing and
//! reading the reply counts no extra lookup. There is one slot per answer:
//! a reply at another row count or width takes its place. It lives and
//! dies with its answer — a write the answer can see, an eviction or a
//! clear drops both — save that a write of text drops it alone (text
//! below a shown row changes its value), and its bytes count with the
//! answer's in [`VIEW_BUDGET_BYTES`].

use crate::cost::count_nodetest;
use crate::engine::Lookup;
use crate::plan::{OpId, Operator, QueryPlan, RangeCmp, TestSpec};
use crate::reach;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vamana_flex::{Axis, KeyRange};
use vamana_mass::{Footprint, MassStore, NodeEntry};
use vamana_xpath::lexer::Shape;
use vamana_xpath::Expr;

/// Point-in-time answer counters (served through `STATS` as `view_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStatsSnapshot {
    /// Lookups answered from a kept answer.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Kept answers dropped: writes they could see, stale generations,
    /// budget and LRU evictions, clears.
    pub evictions: u64,
    /// Kept answers carried across a write they could not see.
    pub carried: u64,
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

/// `⌊log₂(count + one page of tuples)⌋`: counts less than a page of tuples
/// apart price the same page reads.
fn magnitude(count: u64, store: &MassStore) -> u8 {
    (count + store.tuples_per_page() as u64).max(1).ilog2() as u8
}

/// One index count the cost model reads for an operator.
#[derive(Debug, Clone, PartialEq)]
enum Count {
    /// `COUNT` of a node test on an axis of the attribute principal node
    /// kind (`Axis::Attribute`) or the element one (`Axis::Child`): the
    /// only thing about the axis the count depends on.
    Nodes(Axis, TestSpec),
    /// `TC` of a literal.
    Text(Box<str>),
    /// `COUNT` of a numeric range.
    Range(RangeCmp, f64),
}

impl Count {
    fn read(&self, store: &MassStore, scope: &KeyRange) -> u64 {
        match self {
            Count::Nodes(axis, test) => count_nodetest(store, *axis, test, scope),
            Count::Text(value) => store.text_count_in(value, scope),
            Count::Range(op, bound) => store.numeric_count_in(op.to_mass(), *bound, scope),
        }
    }
}

/// The counts a plan or template was priced on, each with its magnitude
/// when it was made ([`crate::views`], "Validity").
#[derive(Debug, Clone, Default)]
pub(crate) struct Priced {
    /// `COUNT`s of node tests and numeric ranges: a template shares them
    /// with every plan bound from it.
    counts: Arc<[(Count, u8)]>,
    /// `TC`s of literals.
    literals: Vec<(Count, u8)>,
}

impl Priced {
    /// Every count `plan`'s operators are priced on: as the optimizer
    /// stamped them on the plan, else read on `store` within `scope` (the
    /// document).
    pub(crate) fn of(plan: &QueryPlan, store: &MassStore, scope: &KeyRange) -> Priced {
        let (mut counts, mut literals) = (Vec::new(), Vec::new());
        for id in plan.live_ops() {
            let (count, list) = match plan.op(id) {
                Operator::Step { axis, test, .. } => {
                    let principal = match axis.principal_is_attribute() {
                        true => Axis::Attribute,
                        false => Axis::Child,
                    };
                    (Count::Nodes(principal, test.clone()), &mut counts)
                }
                Operator::RangeStep { op, bound, .. } => (Count::Range(*op, *bound), &mut counts),
                Operator::Literal { value } | Operator::ValueStep { value, .. } => {
                    (Count::Text(value.clone()), &mut literals)
                }
                _ => continue,
            };
            if list.iter().any(|(c, _)| *c == count) {
                continue;
            }
            let stamped = plan.estimate(id).and_then(|card| card.count.or(card.tc));
            debug_assert!(stamped.is_none_or(|n| n == count.read(store, scope)));
            let n = stamped.unwrap_or_else(|| count.read(store, scope));
            list.push((count, magnitude(n, store)));
        }
        Priced {
            counts: counts.into(),
            literals,
        }
    }

    /// Whether every count is still of the magnitude it was priced at.
    pub(crate) fn holds(&self, store: &MassStore, scope: &KeyRange) -> bool {
        self.counts
            .iter()
            .chain(&self.literals)
            .all(|(c, m)| magnitude(c.read(store, scope), store) == *m)
    }

    /// A template's counts with `literals` at `magnitudes`, their key's:
    /// the counts of the plan they are bound into.
    fn with_literals(&self, literals: Vec<Box<str>>, magnitudes: &[u8]) -> Priced {
        let literals = literals
            .into_iter()
            .map(Count::Text)
            .zip(magnitudes.iter().copied());
        Priced {
            counts: Arc::clone(&self.counts),
            literals: literals.collect(),
        }
    }
}

/// What a reply showed of a kept answer: its first `rows` rows, each
/// value cut at `width` characters, as the reply wrote them
/// ([`crate::Engine::keep_shown`], "Kept replies" in the module docs).
#[derive(Debug)]
pub struct Shown {
    /// Rows shown.
    pub rows: usize,
    /// Characters of each row's value shown.
    pub width: usize,
    /// The rows, as written.
    pub text: Box<str>,
}

impl Shown {
    /// Approximate bytes held, a round 64 for the rest as for an answer.
    fn footprint(&self) -> u64 {
        self.text.len() as u64 + 64
    }
}

/// What an entry knows of its query's answer.
enum Answer {
    /// Not kept (yet).
    None,
    /// Larger than the whole budget: not counted again.
    Oversize,
    /// The kept node-set and what the last reply showed of it; `bytes`
    /// counts both.
    Kept {
        entries: Arc<Vec<NodeEntry>>,
        shown: Option<Arc<Shown>>,
        bytes: u64,
        hits: u64,
    },
}

/// One query text on one document.
struct Entry {
    plan: Arc<QueryPlan>,
    priced: Arc<Priced>,
    /// The parsed query a write is checked against: the text's own, or
    /// shared with the template the plan was bound from.
    expr: Arc<Expr>,
    /// Document generation the plan was last priced or checked at.
    checked: u64,
    /// Last-used clock stamp, for both LRU orders.
    stamp: u64,
    /// Times its answer has been computed since a write it could see, or
    /// an eviction, last dropped what was known of it.
    computed: u32,
    answer: Answer,
}

impl Entry {
    /// The kept answer and the reply kept with it, counted as one more
    /// hit on it.
    fn answer(&mut self) -> (Option<Arc<Vec<NodeEntry>>>, Option<Arc<Shown>>) {
        match &mut self.answer {
            Answer::Kept {
                entries,
                shown,
                hits,
                ..
            } => {
                *hits += 1;
                (Some(Arc::clone(entries)), shown.clone())
            }
            _ => (None, None),
        }
    }
}

/// One document's entries and templates; its kept answers are valid at
/// `generation`.
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
        let magnitudes = shape
            .literals
            .iter()
            .map(|value| magnitude(store.text_count_in(value, scope), store))
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
    /// The text it was made for, parsed: a write is checked the same way
    /// against every text of its shape.
    expr: Arc<Expr>,
    /// Every operator holding a literal, with the slot it holds.
    slots: Vec<(OpId, usize)>,
    /// The counts it was priced on but its literals'.
    priced: Priced,
}

impl Template {
    /// `plan`, optimized for `literals` and priced on `priced`, as its
    /// shape's template — or `None` when a slot cannot be told from the
    /// plan: two literals of one value, or one the plan holds in no literal
    /// operator (a `processing-instruction('t')` target).
    fn new(
        plan: Arc<QueryPlan>,
        expr: Arc<Expr>,
        literals: &[Box<str>],
        priced: &Priced,
    ) -> Option<Template> {
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
        // A text's literals are counted for its key instead.
        let priced = Priced {
            counts: Arc::clone(&priced.counts),
            literals: Vec::new(),
        };
        Some(Template {
            plan,
            expr,
            slots,
            priced,
        })
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
    /// Document generation the template was last priced or checked at.
    checked: u64,
    /// Last-used clock stamp.
    stamp: u64,
}

/// What [`Inner::probe`] found for a text.
enum Probe {
    /// An entry checked at the generation asked.
    Found(Lookup),
    /// An entry of an older generation, to be checked.
    Stale(Arc<QueryPlan>, Arc<Priced>),
    Missing,
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
    carried: u64,
    /// Plans and templates found priced on a count that changed
    /// magnitude.
    replans: u64,
}

impl Inner {
    /// `doc`'s entries and templates, made at `generation` when new.
    fn doc(&mut self, doc: u32, generation: u64) -> &mut DocEntries {
        self.docs
            .entry(doc)
            .or_insert_with(|| DocEntries::new(generation))
    }

    /// Moves `doc`'s kept answers from `from`, the generation before a
    /// write of `footprint`, to `to`, the one after it: an entry whose
    /// query cannot see the write ([`reach::sees`]) keeps its answer, its
    /// oversize mark and its admission count, and its kept reply unless
    /// the write held text; every other answer is dropped and its count
    /// restarted. Each distinct expression is checked once. Answers not
    /// valid at `from`, or moved by a write that failed (no `footprint`),
    /// are all dropped; answers already at `to` or past it stay.
    fn advance(&mut self, doc: u32, from: u64, to: u64, footprint: Option<&Footprint>) {
        let Some(d) = self.docs.get_mut(&doc).filter(|d| d.generation < to) else {
            return;
        };
        let footprint = footprint.filter(|_| d.generation == from);
        let text = footprint.is_some_and(|footprint| footprint.text);
        d.generation = to;
        let mut verdicts: HashMap<*const Expr, bool> = HashMap::new();
        let (mut dropped, mut bytes, mut carried) = (0, 0, 0);
        for e in d.entries.values_mut() {
            let sees = footprint.is_none_or(|footprint| {
                *verdicts
                    .entry(Arc::as_ptr(&e.expr))
                    .or_insert_with(|| reach::sees(&e.expr, footprint))
            });
            if sees {
                e.computed = 0;
                if let Answer::Kept { bytes: b, .. } =
                    std::mem::replace(&mut e.answer, Answer::None)
                {
                    dropped += 1;
                    bytes += b;
                }
            } else if let Answer::Kept {
                shown, bytes: b, ..
            } = &mut e.answer
            {
                carried += 1;
                // Text written below a shown row changes its value.
                if let Some(freed) = shown.take_if(|_| text).map(|s| s.footprint()) {
                    *b -= freed;
                    bytes += freed;
                }
            }
        }
        self.kept -= dropped;
        self.bytes -= bytes;
        self.evictions += dropped;
        self.carried += carried;
    }

    /// `xpath`'s entry on `doc` when the document's answers are valid at
    /// `generation` and the entry was checked at it.
    fn current(&mut self, doc: u32, xpath: &str, generation: u64) -> Option<&mut Entry> {
        let d = self.docs.get_mut(&doc)?;
        let e = d.entries.get_mut(xpath)?;
        (d.generation == generation && e.checked == generation).then_some(e)
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

    /// The entry for `xpath` on `doc` at `generation`, stamped used.
    fn probe(&mut self, doc: u32, xpath: &str, generation: u64) -> Probe {
        self.clock += 1;
        let clock = self.clock;
        let Some(d) = self.docs.get_mut(&doc) else {
            return Probe::Missing;
        };
        let current = d.generation == generation;
        let Some(e) = d.entries.get_mut(xpath) else {
            return Probe::Missing;
        };
        e.stamp = clock;
        if e.checked != generation {
            return Probe::Stale(Arc::clone(&e.plan), Arc::clone(&e.priced));
        }
        let (answer, shown) = match current {
            true => e.answer(),
            false => (None, None),
        };
        Probe::Found(Lookup {
            plan: Arc::clone(&e.plan),
            answer,
            shown,
            cached: true,
            bound: false,
        })
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

    /// The entry for `xpath` on `doc` at `generation`: its plan and any
    /// kept answer, or `None`. An entry made at an older generation is
    /// checked first — `holds` answers whether its counts kept their
    /// magnitudes, outside the lock — and restamped, or `None` (a replan).
    /// A `read` is counted as a hit or a miss; an update's target is not.
    pub(crate) fn lookup(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        read: bool,
        holds: impl FnOnce(&Priced) -> bool,
    ) -> Option<Lookup> {
        let (plan, priced) = {
            let mut inner = self.lock();
            match inner.probe(doc, xpath, generation) {
                Probe::Found(found) => {
                    if read {
                        inner.hits += 1;
                        inner.answered += u64::from(found.answer.is_some());
                    }
                    return Some(found);
                }
                Probe::Missing => {
                    inner.misses += u64::from(read);
                    return None;
                }
                Probe::Stale(plan, priced) => (plan, priced),
            }
        };
        let held = holds(&priced);
        self.restamp(doc, xpath, generation, read, plan, held)
    }

    /// Counts a stale entry's check, and restamps the entry with
    /// `generation` when `plan`, its plan, `held` its counts; hands back
    /// the answer it keeps at `generation`, one carried across writes it
    /// could not see.
    fn restamp(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        read: bool,
        plan: Arc<QueryPlan>,
        held: bool,
    ) -> Option<Lookup> {
        let mut inner = self.lock();
        if !held {
            inner.replans += 1;
            inner.misses += u64::from(read);
            return None;
        }
        inner.hits += u64::from(read);
        let current = inner
            .docs
            .get(&doc)
            .is_some_and(|d| d.generation == generation);
        let (mut answer, mut shown) = (None, None);
        if let Some(e) = inner.entry(doc, xpath) {
            if Arc::ptr_eq(&e.plan, &plan) {
                e.checked = e.checked.max(generation);
                // An answer carried across the writes since it was checked.
                if current && e.checked == generation {
                    (answer, shown) = e.answer();
                }
            }
        }
        if read {
            inner.answered += u64::from(answer.is_some());
        }
        Some(Lookup {
            plan,
            answer,
            shown,
            cached: true,
            bound: false,
        })
    }

    /// Keeps `plan`, priced on `priced`, for `xpath` on `doc` at
    /// `generation`, in place of an entry of an older generation and
    /// evicting least-recently-used entries to fit. An entry another thread
    /// made meanwhile is kept as it is.
    pub(crate) fn insert(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        plan: Arc<QueryPlan>,
        priced: Priced,
        expr: Arc<Expr>,
    ) {
        if xpath.len() > KEY_BYTES {
            return;
        }
        let mut inner = self.lock();
        let priced = Arc::new(priced);
        if let Some(e) = inner.doc(doc, generation).entries.get_mut(xpath) {
            if e.checked < generation {
                (e.plan, e.priced, e.expr, e.checked) = (plan, priced, expr, generation);
            }
            return;
        }
        inner.make_room(xpath.len());
        inner.clock += 1;
        let entry = Entry {
            plan,
            priced,
            expr,
            checked: generation,
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
    /// `text`'s literals bound in, the counts the bound plan is priced on
    /// and the template's parsed text; `text` back when there is none. A
    /// template made at an older generation is checked first, as
    /// [`QueryCache::lookup`] checks an entry. The plan is copied outside
    /// the lock.
    pub(crate) fn bind(
        &self,
        doc: u32,
        generation: u64,
        text: ShapedText,
        holds: impl FnOnce(&Priced) -> bool,
    ) -> Result<(QueryPlan, Priced, Arc<Expr>), ShapedText> {
        let found = {
            let mut inner = self.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let found = inner.doc(doc, generation).templates.get_mut(&text.key);
            found.map(|found| {
                found.stamp = clock;
                (Arc::clone(&found.template), found.checked == generation)
            })
        };
        let Some((template, checked)) = found else {
            return Err(text);
        };
        if !checked {
            let held = holds(&template.priced);
            let mut inner = self.lock();
            if !held {
                inner.replans += 1;
                return Err(text);
            }
            let found = inner
                .docs
                .get_mut(&doc)
                .and_then(|d| d.templates.get_mut(&text.key));
            if let Some(found) = found {
                if Arc::ptr_eq(&found.template, &template) {
                    found.checked = found.checked.max(generation);
                }
            }
        }
        self.bound.fetch_add(1, Ordering::Relaxed);
        let plan = template.bind(&text.literals);
        let priced = template
            .priced
            .with_literals(text.literals, &text.key.magnitudes);
        Ok((plan, priced, Arc::clone(&template.expr)))
    }

    /// Files `plan` — optimized for `text`, parsed as `expr`, on `doc` at
    /// `generation` and priced on `priced` — as the template `text` is
    /// filed under, in place of any, unless its slots cannot be told apart
    /// (two literals of one value, one held outside a literal operator) or
    /// the shape is longer than `KEY_BYTES / SHAPES`.
    pub(crate) fn offer_template(
        &self,
        doc: u32,
        generation: u64,
        text: ShapedText,
        plan: Arc<QueryPlan>,
        expr: Arc<Expr>,
        priced: &Priced,
    ) {
        if text.key.shape.len() > KEY_BYTES / SHAPES {
            return;
        }
        let Some(template) = Template::new(plan, expr, &text.literals, priced) else {
            return;
        };
        let mut inner = self.lock();
        if !inner.doc(doc, generation).templates.contains_key(&text.key) {
            if inner.shape_len >= SHAPES {
                inner.evict_shape();
            }
            inner.shape_len += 1;
        }
        inner.clock += 1;
        let shaped = Shaped {
            template: Arc::new(template),
            checked: generation,
            stamp: inner.clock,
        };
        inner
            .doc(doc, generation)
            .templates
            .insert(text.key, shaped);
    }

    /// Records one computed answer of `xpath` on `doc` at `generation` —
    /// `entries`, the finished node-set — and keeps it, shared, on its
    /// entry once the query has been computed `admit_after` times. Nothing
    /// is copied: a caller that wants its own vector copies outside the
    /// lock. An answer larger than the whole budget is neither kept nor
    /// counted again; a query with no entry checked at `generation` is not
    /// counted. Returns whether this call kept it.
    pub(crate) fn observe(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        admit_after: u32,
        entries: &Arc<Vec<NodeEntry>>,
    ) -> bool {
        let bytes = footprint(entries.len(), xpath);
        let mut inner = self.lock();
        let clock = inner.clock + 1;
        let Some(entry) = inner.current(doc, xpath, generation) else {
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
        entry.stamp = clock;
        entry.answer = Answer::Kept {
            entries: Arc::clone(entries),
            shown: None,
            bytes,
            hits: 0,
        };
        inner.clock = clock;
        inner.kept += 1;
        inner.bytes += bytes;
        inner.evict_answers_to(self.budget, (doc, xpath));
        true
    }

    /// Keeps `shown` with `xpath`'s kept answer on `doc` at `generation`,
    /// in place of what was kept with it, when `answer` is that answer
    /// (the same allocation); otherwise does nothing. Its bytes count with
    /// the answer's: least-recently-used answers are dropped to make room,
    /// and a reply that would take its answer past the whole budget is not
    /// kept. Counts no lookup and stamps nothing.
    pub(crate) fn keep_shown(
        &self,
        doc: u32,
        xpath: &str,
        generation: u64,
        answer: &Arc<Vec<NodeEntry>>,
        shown: Arc<Shown>,
    ) {
        let mut inner = self.lock();
        let Some(entry) = inner.current(doc, xpath, generation) else {
            return;
        };
        let Answer::Kept {
            entries,
            shown: slot,
            bytes,
            ..
        } = &mut entry.answer
        else {
            return;
        };
        let old = slot.as_ref().map_or(0, |s| s.footprint());
        let new = shown.footprint();
        if !Arc::ptr_eq(entries, answer) || *bytes - old + new > self.budget {
            return;
        }
        *slot = Some(shown);
        *bytes = *bytes - old + new;
        inner.bytes = inner.bytes - old + new;
        inner.evict_answers_to(self.budget, (doc, xpath));
    }

    /// Moves `doc`'s kept answers from generation `from` to `to` across
    /// the write between them, which inserted or deleted `footprint`, or
    /// failed (`None`): each answer its query cannot see is carried, the
    /// rest are dropped. Plans and templates stay, to be checked at their
    /// next use.
    pub(crate) fn advance(&self, doc: u32, from: u64, to: u64, footprint: Option<&Footprint>) {
        self.lock().advance(doc, from, to, footprint);
    }

    /// Drops every entry and template (snapshot installs, option changes,
    /// `CACHE CLEAR`).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let docs = std::mem::take(&mut inner.docs);
        for d in docs.into_values() {
            inner.shape_len -= d.templates.len();
            inner.forget(d.entries);
        }
    }

    /// Answer counters.
    pub fn stats(&self) -> ViewStatsSnapshot {
        let inner = self.lock();
        ViewStatsSnapshot {
            hits: inner.answered,
            misses: inner.hits + inner.misses - inner.answered,
            evictions: inner.evictions,
            carried: inner.carried,
            bytes: inner.bytes,
            views: inner.kept,
        }
    }

    /// `(hits, misses)` of lookups: one per query text and document asked.
    /// A text bound into its shape's template, or whose plan is optimized
    /// afresh, counts as a miss; an update's target counts as neither.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Texts bound into their shape's template.
    pub fn binds(&self) -> u64 {
        self.bound.load(Ordering::Relaxed)
    }

    /// Plans and templates optimized afresh because a count they were
    /// priced on changed magnitude.
    pub fn replans(&self) -> u64 {
        self.lock().replans
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
                            ..
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

    fn parsed(xpath: &str) -> Arc<Expr> {
        Arc::new(vamana_xpath::parse(xpath).unwrap())
    }

    /// An answer as the engine's streams hand it over.
    fn kept(rows: &[NodeEntry]) -> Arc<Vec<NodeEntry>> {
        Arc::new(rows.to_vec())
    }

    fn entry(n: u8) -> NodeEntry {
        NodeEntry {
            key: vamana_flex::FlexKey::from_flat(vec![n, 0]),
            kind: vamana_mass::RecordKind::Element,
            name: None,
        }
    }

    impl QueryCache {
        /// A read lookup whose plans always hold their counts.
        fn get(&self, doc: u32, xpath: &str, generation: u64) -> Option<Lookup> {
            self.lookup(doc, xpath, generation, true, |_| true)
        }

        /// An entry for `xpath` whose plan and parsed query are `//a`'s.
        fn put(&self, doc: u32, xpath: &str, generation: u64) {
            self.insert(
                doc,
                xpath,
                generation,
                plan(),
                Priced::default(),
                parsed("//a"),
            );
        }
    }

    /// A cache holding a plan for each of `keys` on document 0, generation 1.
    fn cache_with(budget: u64, keys: &[&str]) -> QueryCache {
        let cache = QueryCache::with_budget(budget);
        for key in keys {
            cache.put(0, key, 1);
        }
        cache
    }

    #[test]
    fn admission_waits_for_frequency_then_answers() {
        let cache = QueryCache::new();
        let rows = [entry(1)];
        assert!(cache.get(0, "//a", 1).is_none());
        // Nothing is counted for a query with no entry.
        assert!(!cache.observe(0, "//a", 1, 1, &kept(&rows)));
        cache.put(0, "//a", 1);
        assert!(cache.get(0, "//a", 1).unwrap().answer.is_none());
        assert!(!cache.observe(0, "//a", 1, 2, &kept(&rows)));
        assert!(cache.observe(0, "//a", 1, 2, &kept(&rows)));
        let answer = cache.get(0, "//a", 1).unwrap().answer;
        assert_eq!(answer.as_deref(), Some(&rows.to_vec()));
        // Kept answers stop being counted.
        assert!(!cache.observe(0, "//a", 1, 2, &kept(&rows)));
        let s = cache.stats();
        assert_eq!((s.views, s.hits, s.misses), (1, 1, 2));
        assert_eq!(cache.counters(), (2, 1));
        // Another document has no entry. Another generation has the plan,
        // not the answer; a write it can see drops that.
        assert!(cache.get(1, "//a", 1).is_none());
        let found = cache.get(0, "//a", 2).unwrap();
        assert!(found.cached && found.answer.is_none());
        assert_eq!(cache.stats().views, 1);
        cache.advance(0, 1, 2, Some(&written(&["a"], false)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters(), (3, 2));
        // Admission counts afresh at the new generation.
        assert!(!cache.observe(0, "//a", 2, 2, &kept(&rows)));
        assert!(cache.observe(0, "//a", 2, 2, &kept(&rows)));
    }

    #[test]
    fn a_stale_plan_is_checked_once_then_restamped_or_replanned() {
        let cache = cache_with(VIEW_BUDGET_BYTES, &["//a"]);
        let checks = std::cell::Cell::new(0);
        let check = |held: bool| {
            let checks = &checks;
            move |_: &Priced| {
                checks.set(checks.get() + 1);
                held
            }
        };
        // While the generation holds, no count is read.
        assert!(cache.lookup(0, "//a", 1, true, check(false)).is_some());
        assert_eq!(checks.get(), 0);
        // The first lookup at a newer one reads them; the plan held, so it
        // is restamped and the next lookup reads nothing.
        assert!(cache.lookup(0, "//a", 2, true, check(true)).is_some());
        assert!(cache.lookup(0, "//a", 2, true, check(false)).is_some());
        assert_eq!(checks.get(), 1);
        assert_eq!((cache.counters(), cache.replans()), ((3, 0), 0));
        // A count that moved is a miss and a replan; the entry waits for
        // its new plan, and an update's target is not counted.
        assert!(cache.lookup(0, "//a", 3, true, check(false)).is_none());
        assert!(cache.lookup(0, "//a", 3, false, check(false)).is_none());
        assert_eq!((cache.counters(), cache.replans()), ((3, 1), 2));
        let fresh = Arc::new(compiled("//a"));
        cache.insert(
            0,
            "//a",
            3,
            Arc::clone(&fresh),
            Priced::default(),
            parsed("//a"),
        );
        let found = cache.lookup(0, "//a", 3, false, check(false)).unwrap();
        assert!(Arc::ptr_eq(&found.plan, &fresh));
        assert_eq!(cache.len(), 1);
        assert_eq!(checks.get(), 3);
    }

    #[test]
    fn byte_budget_drops_least_recently_used_answers_but_keeps_plans() {
        let one = footprint(1, "//a");
        let cache = cache_with(one * 2, &["//a", "//b", "//c"]);
        assert!(cache.observe(0, "//a", 1, 1, &kept(&[entry(1)])));
        assert!(cache.observe(0, "//b", 1, 1, &kept(&[entry(1)])));
        cache.get(0, "//a", 1); // `//b` is now the least recently used
        assert!(cache.observe(0, "//c", 1, 1, &kept(&[entry(1)])));
        let s = cache.stats();
        assert_eq!(s.views, 2, "the third answer must evict one");
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= one * 2);
        let listed: Vec<String> = cache.list().into_iter().map(|v| v.xpath).collect();
        assert_eq!(listed, vec!["//c".to_string(), "//a".to_string()]);
        // `//b` keeps its plan and counts toward admission afresh.
        assert!(cache.get(0, "//b", 1).unwrap().answer.is_none());
        assert_eq!(cache.len(), 3);
        assert!(!cache.observe(0, "//b", 1, 2, &kept(&[entry(1)])));
    }

    #[test]
    fn lru_bounds_the_entries() {
        let cache = QueryCache::new();
        for i in 0..CAPACITY {
            cache.put(0, &format!("//q{i}"), 1);
        }
        assert!(cache.get(0, "//q0", 1).is_some()); // refresh the oldest
        cache.put(1, "//r", 1);
        assert_eq!(cache.len(), CAPACITY);
        assert!(cache.get(0, "//q0", 1).is_some(), "recently used survives");
        assert!(cache.get(0, "//q1", 1).is_none(), "LRU entry evicted");
        assert!(cache.get(1, "//r", 1).is_some());
    }

    #[test]
    fn oversize_answers_are_neither_kept_nor_counted_again() {
        let rows = vec![entry(1); 100];
        let cache = cache_with(footprint(10, "//big"), &["//big"]);
        assert!(!cache.observe(0, "//big", 1, 2, &kept(&rows)));
        assert!(!cache.observe(0, "//big", 1, 2, &kept(&rows)));
        let oversize = |cache: &QueryCache| {
            let mut inner = cache.lock();
            matches!(inner.entry(0, "//big").unwrap().answer, Answer::Oversize)
        };
        assert!(oversize(&cache));
        for _ in 0..3 {
            assert!(!cache.observe(0, "//big", 1, 2, &kept(&rows)));
        }
        assert!(oversize(&cache));
        assert_eq!(cache.stats().views, 0);
        // A write may shrink the answer: a new generation counts afresh.
        cache.advance(0, 1, 2, None);
        assert!(!oversize(&cache));
        cache.get(0, "//big", 2);
        assert!(!cache.observe(0, "//big", 2, 2, &kept(&rows[..1])));
        assert!(cache.observe(0, "//big", 2, 2, &kept(&rows[..1])));
    }

    #[test]
    fn every_key_stays_under_the_byte_cap() {
        let cache = QueryCache::new();
        let tail = "/a".repeat(30 << 10);
        for i in 0..10_000 {
            let xpath = format!("//q{i}{tail}");
            cache.put(0, &xpath, 1);
            cache.observe(0, &xpath, 1, 2, &kept(&[]));
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
        cache.put(0, &"/a".repeat(KEY_BYTES), 1);
        assert!(cache.lock().key_bytes <= KEY_BYTES);
    }

    #[test]
    fn a_write_heavy_loop_cannot_grow_the_map() {
        let cache = QueryCache::new();
        // Each generation asks two texts, keeps their answers, then a
        // write lands.
        for generation in 1..=100u64 {
            for xpath in ["//a", "//b"] {
                if cache.get(0, xpath, generation).is_none() {
                    cache.put(0, xpath, generation);
                }
                cache.observe(0, xpath, generation, 1, &kept(&[entry(1)]));
            }
            let seen = written(&["a"], false);
            cache.advance(0, generation, generation + 1, Some(&seen));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.counters(), (198, 2), "plans survive the writes");
        // Writes they cannot see carry both answers; a generation no write
        // announced hands out neither and keeps none.
        for xpath in ["//a", "//b"] {
            cache.get(0, xpath, 101);
            cache.observe(0, xpath, 101, 1, &kept(&[entry(1)]));
        }
        for generation in 101..=200u64 {
            let unseen = written(&["z"], false);
            cache.advance(0, generation, generation + 1, Some(&unseen));
            assert!(cache
                .get(0, "//a", generation + 1)
                .unwrap()
                .answer
                .is_some());
        }
        assert!(cache.get(0, "//b", 300).unwrap().answer.is_none());
        assert!(!cache.observe(0, "//b", 300, 1, &kept(&[entry(2)])));
        assert_eq!((cache.len(), cache.stats().views), (2, 2));
        assert_eq!(cache.stats().carried, 200);
    }

    #[test]
    fn dropping_answers_and_clearing_account_evictions() {
        let cache = QueryCache::new();
        for (doc, key) in [(0, "//a"), (0, "//b"), (1, "//a")] {
            cache.put(doc, key, 1);
            cache.observe(doc, key, 1, 1, &kept(&[entry(1)]));
        }
        cache.put(0, "//pending", 1);
        cache.advance(0, 1, 2, None);
        assert_eq!(cache.stats().views, 1);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.len(), 4, "plans stay");
        // A write the answers are already past drops nothing.
        cache.advance(1, 0, 1, None);
        assert_eq!(cache.stats().views, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.lock().key_bytes, 0);
    }

    fn shown(rows: usize, text: &str) -> Arc<Shown> {
        Arc::new(Shown {
            rows,
            width: 60,
            text: text.into(),
        })
    }

    #[test]
    fn a_kept_reply_lives_and_dies_with_its_answer() {
        let answer = kept(&[entry(1), entry(2)]);
        let bytes = footprint(2, "//a");
        let cache = cache_with(bytes + 200, &["//a", "//b"]);
        // Nothing is kept with an answer that is not kept, or not this one.
        cache.keep_shown(0, "//a", 1, &answer, shown(2, "ROW <a>\n"));
        assert!(cache.observe(0, "//a", 1, 1, &answer));
        cache.keep_shown(0, "//a", 1, &kept(&[entry(1), entry(2)]), shown(2, "x"));
        cache.keep_shown(1, "//a", 1, &answer, shown(2, "x"));
        assert!(cache.get(0, "//a", 1).unwrap().shown.is_none());
        assert_eq!(cache.stats().bytes, bytes);
        // Kept: found with the answer, counted with its bytes, replaced by
        // the next reply; one that would outgrow the budget is not kept.
        let (counters, views) = (cache.counters(), cache.stats());
        cache.keep_shown(0, "//a", 1, &answer, shown(1, "ROW <a>\n"));
        assert_eq!(
            (cache.counters(), cache.stats().hits),
            (counters, views.hits)
        );
        let found = cache.get(0, "//a", 1).unwrap();
        assert_eq!(
            found.shown.as_ref().map(|s| (s.rows, &*s.text)),
            Some((1, "ROW <a>\n"))
        );
        assert_eq!(cache.stats().bytes, bytes + 8 + 64);
        cache.keep_shown(0, "//a", 1, &answer, shown(2, "ROW <a>\nROW <b>\n"));
        assert_eq!(cache.stats().bytes, bytes + 16 + 64);
        assert_eq!(cache.list()[0].bytes, bytes + 16 + 64);
        cache.keep_shown(0, "//a", 1, &answer, shown(2, &"x".repeat(200)));
        assert_eq!(cache.get(0, "//a", 1).unwrap().shown.unwrap().rows, 2);
        assert_eq!(cache.stats().bytes, bytes + 16 + 64);
        // Making room for a reply drops the least recently used answer.
        assert!(cache.observe(0, "//b", 1, 1, &kept(&[entry(3)])));
        assert_eq!(cache.stats().views, 1, "{:?}", cache.stats());
        assert!(cache.get(0, "//a", 1).unwrap().answer.is_none());
        let b = cache.get(0, "//b", 1).unwrap().answer.unwrap();
        cache.keep_shown(0, "//b", 1, &b, shown(1, "ROW <c>\n"));
        assert!(cache.get(0, "//b", 1).unwrap().shown.is_some());
        // A write drops both.
        cache.advance(0, 1, 2, None);
        let found = cache.get(0, "//b", 2).unwrap();
        assert!(found.answer.is_none() && found.shown.is_none());
        assert_eq!(cache.stats().bytes, 0);
    }

    /// A write of elements named `names`, with text when `text`.
    fn written(names: &[&str], text: bool) -> Footprint {
        Footprint {
            elements: names.iter().map(|&n| n.into()).collect(),
            text,
            ..Footprint::default()
        }
    }

    #[test]
    fn a_write_carries_the_answers_it_cannot_see() {
        let small = footprint(1, "//big") + 72;
        let cache = QueryCache::with_budget(small);
        for xpath in ["//a", "//b", "//c", "//big"] {
            cache.insert(0, xpath, 1, plan(), Priced::default(), parsed(xpath));
        }
        let a = kept(&[entry(1)]);
        assert!(cache.observe(0, "//a", 1, 1, &a));
        cache.keep_shown(0, "//a", 1, &a, shown(1, "ROW <a>\n"));
        assert!(cache.observe(0, "//b", 1, 1, &kept(&[entry(2)])));
        assert_eq!(cache.stats().views, 1, "`//b` pushed `//a` out");
        assert!(cache.observe(0, "//a", 1, 1, &a));
        cache.keep_shown(0, "//a", 1, &a, shown(1, "ROW <a>\n"));
        assert!(!cache.observe(0, "//c", 1, 2, &kept(&[])));
        assert!(!cache.observe(0, "//big", 1, 1, &kept(&vec![entry(3); 3])));
        let oversize = |cache: &QueryCache| {
            let mut inner = cache.lock();
            matches!(inner.entry(0, "//big").unwrap().answer, Answer::Oversize)
        };
        assert!(oversize(&cache));
        let before = cache.stats();

        // `<c/>` under some `b`: `//c` sees it, the rest do not.
        cache.advance(0, 1, 2, Some(&written(&["c"], false)));
        let after = cache.stats();
        assert_eq!((after.views, after.carried), (1, 1));
        assert_eq!(
            (after.bytes, after.evictions),
            (before.bytes, before.evictions)
        );
        assert!(oversize(&cache));
        // The carried answer and its reply come back once its plan is
        // checked at the new generation; `//c` counts afresh.
        let (counters, hits) = (cache.counters(), after.hits);
        let found = cache.get(0, "//a", 2).unwrap();
        assert!(Arc::ptr_eq(&found.answer.unwrap(), &a));
        assert_eq!(found.shown.unwrap().rows, 1);
        assert_eq!(cache.counters(), (counters.0 + 1, counters.1));
        assert_eq!(cache.stats().hits, hits + 1);
        cache.get(0, "//c", 2);
        assert!(!cache.observe(0, "//c", 2, 2, &kept(&[])));

        // Text below a shown row changes its value: the reply goes, the
        // answer stays.
        cache.advance(0, 2, 3, Some(&written(&["i"], true)));
        let found = cache.get(0, "//a", 3).unwrap();
        assert!(found.answer.is_some() && found.shown.is_none());
        assert_eq!(cache.stats().bytes, footprint(1, "//a"));
        assert_eq!(cache.stats().carried, 2);

        // A write the document's answers did not see land first, or one
        // that deletes a document node, drops them all.
        cache.advance(0, 4, 5, Some(&written(&["z"], false)));
        assert_eq!(cache.stats().views, 0);
        cache.get(0, "//a", 5);
        assert!(cache.observe(0, "//a", 5, 1, &a));
        let document = Footprint {
            document: true,
            ..Footprint::default()
        };
        cache.advance(0, 5, 6, Some(&document));
        assert_eq!(cache.stats().views, 0);
        assert!(!oversize(&cache));
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
            let (plan, expr) = (Arc::new(compiled(xpath)), parsed(xpath));
            Template::new(plan, expr, &literals, &Priced::default())
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
    fn a_template_binds_texts_of_its_shape_and_magnitudes() {
        let cache = QueryCache::new();
        let offer = |xpath: &str, magnitude: u8, generation: u64| {
            let text = shaped(xpath, magnitude);
            let plan = Arc::new(compiled(xpath));
            cache.offer_template(0, generation, text, plan, parsed(xpath), &Priced::default());
        };
        let bind = |xpath: &str, magnitude: u8, generation: u64, held: bool| {
            let text = shaped(xpath, magnitude);
            cache
                .bind(0, generation, text, |_| held)
                .ok()
                .map(|(plan, ..)| plan)
        };
        offer("//a[@k = 'x']", 3, 1);
        let bound = bind("//a[@k='y']", 3, 1, false);
        assert_eq!(bound, Some(compiled("//a[@k = 'y']")));
        assert_eq!(cache.binds(), 1);
        // Another magnitude, document or shape has no template.
        assert!(bind("//a[@k = 'y']", 4, 1, true).is_none());
        assert!(cache
            .bind(1, 1, shaped("//a[@k = 'y']", 3), |_| true)
            .is_err());
        assert!(bind("//b[@k = 'y']", 3, 1, true).is_none());
        // Another generation checks the template's counts: held, it binds;
        // moved, it is a replan, and the template waits for a new plan.
        assert!(bind("//a[@k = 'z']", 3, 2, true).is_some());
        assert!(bind("//a[@k = 'z']", 3, 3, false).is_none());
        assert_eq!((cache.binds(), cache.replans(), cache.shapes()), (2, 1, 1));
        offer("//a[@k = 'z']", 3, 3);
        assert!(bind("//a[@k = 'w']", 3, 3, false).is_some());
        assert_eq!(cache.shapes(), 1);
    }

    #[test]
    fn a_template_is_priced_without_its_literals() {
        let mut store = MassStore::open_memory();
        store.load_xml("d", "<r><a k='x'/><a k='y'/></r>").unwrap();
        let scope = KeyRange::all();
        let xpath = "//a[@k = 'x']";
        // Unoptimized, so nothing is stamped: every count is read.
        let plan = Arc::new(compiled(xpath));
        let priced = Priced::of(&plan, &store, &scope);
        let text = ShapedText::new(shape(xpath).unwrap(), &store, &scope);
        let x = (Count::Text("x".into()), text.key.magnitudes[0]);
        assert_eq!(priced.literals, vec![x]);
        assert!(priced.holds(&store, &scope));
        let template = Template::new(plan, parsed(xpath), &text.literals, &priced).unwrap();
        assert!(template.priced.literals.is_empty());
        assert!(Arc::ptr_eq(&template.priced.counts, &priced.counts));
        let other = ShapedText::new(shape("//a[@k = 'y']").unwrap(), &store, &scope);
        let y = (Count::Text("y".into()), other.key.magnitudes[0]);
        let bound = template
            .priced
            .with_literals(other.literals, &other.key.magnitudes);
        assert_eq!(bound.literals, vec![y]);
        assert_eq!(bound.counts, priced.counts);
    }

    #[test]
    fn templates_are_bounded_and_cleared() {
        let cache = QueryCache::new();
        let offer = |doc: u32, xpath: &str| {
            let text = shaped(xpath, 0);
            let plan = Arc::new(compiled(xpath));
            cache.offer_template(doc, 1, text, plan, parsed(xpath), &Priced::default());
        };
        let bind = |doc: u32, xpath: &str| cache.bind(doc, 1, shaped(xpath, 0), |_| true).ok();
        for i in 0..SHAPES + 10 {
            offer(0, &format!("//q{i}[@k = 'v']"));
        }
        assert_eq!(cache.shapes(), SHAPES);
        assert_eq!(cache.lock().docs[&0].templates.len(), SHAPES);
        // The oldest went first; offering a held shape again replaces it.
        assert!(bind(0, "//q0[@k = 'v']").is_none());
        assert!(bind(0, "//q73[@k = 'v']").is_some());
        offer(0, "//q73[@k = 'w']");
        assert_eq!(cache.shapes(), SHAPES);
        // A write keeps the document's templates.
        offer(1, "//r[@k = 'v']");
        assert_eq!(cache.shapes(), SHAPES);
        cache.advance(0, 1, 2, None);
        assert_eq!(cache.shapes(), SHAPES);
        cache.clear();
        assert_eq!(cache.shapes(), 0);
    }
}
