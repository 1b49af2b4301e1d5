//! Semantic result caching: materialized views + containment rewriting.
//!
//! The plan cache answers "have I *compiled* this query before"; this
//! module answers "have I *answered* this query (or a superset of it)
//! before". A [`ViewCache`] stores the materialized results of hot
//! queries as index-native FLEX key sets — ordered, deduplicated, and
//! directly scannable by the executor's [`Operator::ViewScan`] — and the
//! view-rewrite pass in [`crate::engine::Engine::optimize_plan`] answers
//! new queries from them when *containment* holds and the Table I cost
//! model says it pays.
//!
//! # The decidable fragment
//!
//! Containment of XPath is undecidable in general; for the tree-pattern
//! fragment below it is decidable via homomorphism (Miklau & Suciu, and
//! the tractability map of "Rewriting XPath Queries using View
//! Intersections"):
//!
//! * spine and predicate axes: `child` and `descendant` only,
//! * node tests: names, `*`, `text()`, `node()`,
//! * predicates: conjunctions of existential relative paths.
//!
//! Anything else — `position()`/`last()`/bare numbers, value
//! comparisons, functions, reverse or sideways axes, `|`, filters — is
//! *rejected* by [`extract`] rather than guessed at: a query outside the
//! fragment is never rewritten and never materialized.
//!
//! # Soundness
//!
//! [`contains`]`(v, q)` searches for a homomorphism from view pattern
//! `v` into query pattern `q` (root to root, output to output, label
//! subsumption, child edges onto child edges, descendant edges onto any
//! downward path). Any document embedding of `q` composes with the
//! homomorphism to an embedding of `v`, so every `q` result is a `v`
//! result: the view's materialized set is a *superset* of the query
//! prefix it covers. The rewrite then compensates:
//!
//! * **equivalent** patterns (`contains` both ways): the view *is* the
//!   prefix result — scan it directly, no compensation;
//! * **strict** containment on a `//`-rooted prefix: a `self` step over
//!   the view re-applies the prefix's output test and predicates plus a
//!   synthesized `parent`/`ancestor` `Exists` chain encoding the spine,
//!   which together characterize prefix membership exactly (every
//!   condition of a `//`-rooted pattern is relative to the output node);
//! * strict containment on a `/`-rooted prefix is *not* compensatable
//!   this way (the depth anchor is lost), so it is rejected.
//!
//! The homomorphism test is sound but incomplete (it can miss
//! containments involving `*`/`//` interaction); incompleteness only
//! costs cache hits, never correctness.
//!
//! # Invalidation
//!
//! Views are stamped with the document generation they were materialized
//! at (PR 5's counters). Lookups drop entries whose generation no longer
//! matches — primary writes bump the counter via
//! [`crate::engine::Engine::apply_update`] (which also evicts eagerly),
//! and replica WAL replay bumps it store-side, so followers expire views
//! lazily with no extra machinery. Snapshot installs
//! ([`crate::engine::Engine::replace_store`]) clear the cache outright.

use crate::plan::{BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vamana_flex::Axis;
use vamana_mass::NodeEntry;

/// A node test inside a tree pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatTest {
    /// The document root (pattern node 0 only).
    Root,
    /// An element name.
    Named(Box<str>),
    /// `*` — any element.
    Wildcard,
    /// `text()`.
    Text,
    /// `node()` — any node.
    Any,
}

/// The edge connecting a pattern node to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatEdge {
    /// `child`.
    Child,
    /// `descendant`.
    Descendant,
}

/// One node of a tree pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// Edge from the parent (meaningless on the root node).
    pub edge: PatEdge,
    /// The node test.
    pub test: PatTest,
    /// Children: the next spine node and/or predicate branches.
    pub children: Vec<usize>,
}

/// A tree pattern in the decidable containment fragment: a rooted tree
/// of child/descendant edges with one distinguished output node at the
/// end of the *spine* (the result path); all other branches are
/// existential predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Arena; `nodes[0]` is the document root.
    pub nodes: Vec<PatternNode>,
    /// The output node (equals `*spine.last()`).
    pub output: usize,
    /// Spine node indices, root side first.
    pub spine: Vec<usize>,
}

impl Pattern {
    /// The pattern covering only the first `j` spine steps (with their
    /// predicate branches); `j` must be in `1..=spine.len()`.
    pub fn prefix(&self, j: usize) -> Pattern {
        let mut nodes = self.nodes.clone();
        if j < self.spine.len() {
            let cut = self.spine[j];
            nodes[self.spine[j - 1]].children.retain(|&c| c != cut);
        }
        Pattern {
            nodes,
            output: self.spine[j - 1],
            spine: self.spine[..j].to_vec(),
        }
    }

    /// True when the spine starts with a descendant edge (`//`-rooted) —
    /// the only shape whose strict-containment compensation is complete.
    pub fn descendant_rooted(&self) -> bool {
        matches!(self.nodes[self.spine[0]].edge, PatEdge::Descendant)
    }

    /// Canonical serialization — the cache key. Structurally equal
    /// patterns (predicate order, axis spelling) serialize identically:
    /// branches are sorted, and `b/c` vs `b[c]` branch nesting both
    /// render as nested brackets (they are the same existential).
    pub fn key(&self) -> String {
        let mut out = String::new();
        for (i, &n) in self.spine.iter().enumerate() {
            let next = self.spine.get(i + 1).copied();
            self.push_node(n, &mut out);
            let mut branches: Vec<String> = self.nodes[n]
                .children
                .iter()
                .filter(|&&c| Some(c) != next)
                .map(|&c| self.branch_key(c))
                .collect();
            branches.sort();
            for b in branches {
                out.push('[');
                out.push_str(&b);
                out.push(']');
            }
        }
        out
    }

    fn push_node(&self, n: usize, out: &mut String) {
        out.push_str(match self.nodes[n].edge {
            PatEdge::Child => "/",
            PatEdge::Descendant => "//",
        });
        match &self.nodes[n].test {
            PatTest::Root => out.push('^'),
            PatTest::Named(name) => out.push_str(name),
            PatTest::Wildcard => out.push('*'),
            PatTest::Text => out.push_str("text()"),
            PatTest::Any => out.push_str("node()"),
        }
    }

    fn branch_key(&self, n: usize) -> String {
        let mut out = String::new();
        self.push_node(n, &mut out);
        let mut branches: Vec<String> = self.nodes[n]
            .children
            .iter()
            .map(|&c| self.branch_key(c))
            .collect();
        branches.sort();
        for b in branches {
            out.push('[');
            out.push_str(&b);
            out.push(']');
        }
        out
    }
}

/// A fragment query's identity in the view cache: its tree pattern and the
/// pattern's canonical [`Pattern::key`]. The optimizer derives it once and
/// stamps it on the plan ([`QueryPlan::view_key`]), so observing the
/// plan's result never goes back to the query text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewKey {
    /// [`Pattern::key`] of `pattern`.
    pub key: String,
    /// The query's tree pattern.
    pub pattern: Pattern,
}

fn pat_edge(axis: Axis) -> Option<PatEdge> {
    match axis {
        Axis::Child => Some(PatEdge::Child),
        Axis::Descendant => Some(PatEdge::Descendant),
        _ => None,
    }
}

fn pat_test(test: &TestSpec) -> Option<PatTest> {
    match test {
        TestSpec::Named(n) => Some(PatTest::Named(n.clone())),
        TestSpec::Wildcard => Some(PatTest::Wildcard),
        TestSpec::Text => Some(PatTest::Text),
        TestSpec::AnyNode => Some(PatTest::Any),
        TestSpec::Comment | TestSpec::Pi(_) => None,
    }
}

fn push_node(nodes: &mut Vec<PatternNode>, parent: usize, edge: PatEdge, test: PatTest) -> usize {
    let id = nodes.len();
    nodes.push(PatternNode {
        edge,
        test,
        children: Vec::new(),
    });
    nodes[parent].children.push(id);
    id
}

/// Extracts the tree pattern of a *cleaned* compiled plan, or `None`
/// when any part of the query falls outside the decidable fragment.
/// Must run on the plan before optimizer rules (push-downs introduce
/// reverse-axis predicates that are executable but not comparable).
pub fn extract(plan: &QueryPlan) -> Option<Pattern> {
    let Operator::Root { child: Some(_) } = plan.op(plan.root()) else {
        return None;
    };
    let path = plan.context_path();
    if path.is_empty() {
        return None;
    }
    let mut nodes = vec![PatternNode {
        edge: PatEdge::Child,
        test: PatTest::Root,
        children: Vec::new(),
    }];
    let mut spine = Vec::new();
    let mut parent = 0usize;
    // `context_path` returns the output step first; walk root side first.
    for &id in path.iter().rev() {
        let Operator::Step {
            axis,
            test,
            context,
            source,
            predicates,
        } = plan.op(id)
        else {
            return None;
        };
        if context.is_none() && *source != ContextSource::QueryRoot {
            return None;
        }
        let node = push_node(&mut nodes, parent, pat_edge(*axis)?, pat_test(test)?);
        spine.push(node);
        for &p in predicates {
            add_predicate(plan, p, node, &mut nodes)?;
        }
        parent = node;
    }
    Some(Pattern {
        output: *spine.last()?,
        nodes,
        spine,
    })
}

fn add_predicate(plan: &QueryPlan, p: OpId, at: usize, nodes: &mut Vec<PatternNode>) -> Option<()> {
    match plan.op(p) {
        Operator::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            add_predicate(plan, *left, at, nodes)?;
            add_predicate(plan, *right, at, nodes)
        }
        Operator::Exists { path } => add_branch(plan, *path, at, nodes),
        Operator::Step { .. } => add_branch(plan, p, at, nodes),
        _ => None,
    }
}

fn add_branch(plan: &QueryPlan, head: OpId, at: usize, nodes: &mut Vec<PatternNode>) -> Option<()> {
    // `head` is the branch's output step; collect down to the leaf.
    let mut chain = Vec::new();
    let mut cur = Some(head);
    while let Some(id) = cur {
        let Operator::Step {
            axis,
            test,
            context,
            source,
            predicates,
        } = plan.op(id)
        else {
            return None;
        };
        if context.is_none() && *source != ContextSource::OuterTuple {
            return None;
        }
        chain.push((*axis, test, predicates));
        cur = *context;
    }
    let mut parent = at;
    for (axis, test, preds) in chain.into_iter().rev() {
        let node = push_node(nodes, parent, pat_edge(axis)?, pat_test(test)?);
        for &p in preds {
            add_predicate(plan, p, node, nodes)?;
        }
        parent = node;
    }
    Some(())
}

/// True when the view pattern `sup` *contains* the query pattern `sub`
/// (every `sub` result on every document is a `sup` result), decided by
/// homomorphism search. Sound; incomplete (a `false` may still be
/// contained — that only costs a cache hit).
pub fn contains(sup: &Pattern, sub: &Pattern) -> bool {
    embed(sup, sub, 0, 0)
}

fn embed(sup: &Pattern, sub: &Pattern, u: usize, x: usize) -> bool {
    sup.nodes[u].children.iter().all(|&v| {
        let cands: Vec<usize> = match sup.nodes[v].edge {
            PatEdge::Child => sub.nodes[x]
                .children
                .iter()
                .copied()
                .filter(|&y| sub.nodes[y].edge == PatEdge::Child)
                .collect(),
            PatEdge::Descendant => descendants(sub, x),
        };
        cands.into_iter().any(|y| {
            subsumes(&sup.nodes[v].test, &sub.nodes[y].test)
                && (v != sup.output || y == sub.output)
                && embed(sup, sub, v, y)
        })
    })
}

/// All proper descendants of `x` reachable through the pattern.
fn descendants(p: &Pattern, x: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack: Vec<usize> = p.nodes[x].children.clone();
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend(p.nodes[n].children.iter().copied());
    }
    out
}

/// Does a node matching `sub` necessarily match `sup`?
fn subsumes(sup: &PatTest, sub: &PatTest) -> bool {
    match (sup, sub) {
        (PatTest::Any, PatTest::Root) => false,
        (PatTest::Any, _) => true,
        (PatTest::Wildcard, PatTest::Wildcard | PatTest::Named(_)) => true,
        (PatTest::Named(a), PatTest::Named(b)) => a == b,
        (PatTest::Text, PatTest::Text) => true,
        _ => false,
    }
}

/// The view a plan reads from and the document generation it was
/// materialized at, if the plan holds a [`Operator::ViewScan`]. The
/// rewrite replaces spine steps, so one only ever sits on the context
/// path — which is all this walks, once per run of every plan.
pub(crate) fn plan_view_scan(plan: &QueryPlan) -> Option<(&str, u64)> {
    plan.context_path()
        .into_iter()
        .find_map(|id| match plan.op(id) {
            Operator::ViewScan {
                view, generation, ..
            } => Some((&**view, *generation)),
            _ => None,
        })
}

/// The view a plan reads from, if any.
pub fn plan_view(plan: &QueryPlan) -> Option<&str> {
    plan_view_scan(plan).map(|(view, _)| view)
}

/// Builds the rewritten plan: a clone of the cleaned `probe` plan whose
/// first `j` spine steps are replaced by a [`Operator::ViewScan`] over
/// `view`, plus compensation when the containment is strict (see the
/// module docs for the soundness argument). Callers guarantee
/// `contains(view, prefix_j)` and, for `equivalent == false`, that the
/// prefix is `//`-rooted.
pub(crate) fn rewrite_with_view(
    probe: &QueryPlan,
    j: usize,
    equivalent: bool,
    view: &ViewCandidate,
) -> QueryPlan {
    let mut plan = probe.clone();
    let path = plan.context_path();
    let m = path.len();
    let covered_top = path[m - j];
    let scan = Operator::ViewScan {
        view: view.xpath.as_str().into(),
        generation: view.generation,
        entries: Arc::clone(&view.entries),
    };
    if equivalent {
        *plan.op_mut(covered_top) = scan;
        return plan;
    }
    // Covered spine steps, root side first.
    let covered: Vec<(Axis, TestSpec, Vec<OpId>)> = (0..j)
        .map(|i| {
            let Operator::Step {
                axis,
                test,
                predicates,
                ..
            } = plan.op(path[m - 1 - i]).clone()
            else {
                unreachable!("extract admitted a non-step spine operator");
            };
            (axis, test, predicates)
        })
        .collect();
    // The ancestry chain: nested Exists checks from the output node back
    // down the spine. The original predicate subtrees are reattached by
    // id — within a predicate, `OuterTuple` is the node being filtered,
    // which is exactly the spine node they constrained before.
    let mut inner_exists: Option<OpId> = None;
    for k in 1..j {
        let rev_axis = match covered[k].0 {
            Axis::Child => Axis::Parent,
            _ => Axis::Ancestor,
        };
        let mut preds = covered[k - 1].2.clone();
        if let Some(e) = inner_exists {
            preds.push(e);
        }
        let step = plan.push(Operator::Step {
            axis: rev_axis,
            test: covered[k - 1].1.clone(),
            context: None,
            source: ContextSource::OuterTuple,
            predicates: preds,
        });
        inner_exists = Some(plan.push(Operator::Exists { path: step }));
    }
    let view_op = plan.push(scan);
    let mut preds = covered[j - 1].2.clone();
    if let Some(e) = inner_exists {
        preds.push(e);
    }
    *plan.op_mut(covered_top) = Operator::Step {
        axis: Axis::SelfAxis,
        test: covered[j - 1].1.clone(),
        context: Some(view_op),
        source: ContextSource::QueryRoot,
        predicates: preds,
    };
    plan
}

/// Convenience: the pattern of an XPath string (parse → compile →
/// clean-up → [`extract`]). `None` when the query is outside the
/// fragment (or fails to compile).
pub fn pattern_for(xpath: &str) -> Option<Pattern> {
    let expr = vamana_xpath::parse(xpath).ok()?;
    let mut plan = crate::plan::builder::build_plan(&expr).ok()?;
    crate::opt::cleanup::cleanup(&mut plan);
    extract(&plan)
}

/// Point-in-time view-cache counters (served through `STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStatsSnapshot {
    /// Queries answered through a `ViewScan`.
    pub hits: u64,
    /// Queries executed without one.
    pub misses: u64,
    /// Entries dropped: stale generations, budget evictions, clears.
    pub evictions: u64,
    /// Approximate bytes currently materialized.
    pub bytes: u64,
    /// Materialized views currently resident.
    pub views: u64,
}

/// One row of [`ViewCache::list`] (the `CACHE` verb / `.views` output).
#[derive(Debug, Clone)]
pub struct ViewInfo {
    /// Document the view belongs to.
    pub doc: u32,
    /// The materialized query.
    pub xpath: String,
    /// Result rows.
    pub rows: u64,
    /// Approximate bytes held.
    pub bytes: u64,
    /// Document generation the view is valid for.
    pub generation: u64,
    /// Times a rewrite read this view.
    pub hits: u64,
}

/// A valid view considered by the rewrite pass.
#[derive(Debug, Clone)]
pub(crate) struct ViewCandidate {
    pub key: String,
    pub xpath: String,
    pub pattern: Pattern,
    pub generation: u64,
    pub entries: Arc<Vec<NodeEntry>>,
}

struct ViewEntry {
    xpath: String,
    pattern: Pattern,
    generation: u64,
    entries: Arc<Vec<NodeEntry>>,
    bytes: u64,
    stamp: u64,
    hits: u64,
}

#[derive(Default)]
struct ViewInner {
    views: HashMap<(u32, String), ViewEntry>,
    /// Admission counters for fragment queries not yet materialized.
    pending: HashMap<(u32, String), u32>,
    clock: u64,
    bytes: u64,
}

/// Byte budget for materialized views; least-recently-used views are
/// evicted past it.
pub const VIEW_BUDGET_BYTES: u64 = 64 << 20;

/// Cap on distinct queries tracked for admission before the counters are
/// reset wholesale — bounds memory under adversarial unique-query floods.
const PENDING_LIMIT: usize = 4096;

/// Approximate bytes one materialized entry holds. `NodeEntry` owns a
/// heap-allocated FLEX key; 16 bytes is a deliberate round figure for
/// its payload — the budget bounds order of magnitude, not allocator
/// truth.
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<NodeEntry>() + 16) as u64;

/// The materialized-view cache: admission by observed frequency,
/// eviction by byte-budgeted LRU, invalidation by document generation.
/// Interior-mutable so the engine can consult it under shared access on
/// the query path.
pub struct ViewCache {
    inner: Mutex<ViewInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ViewCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ViewCache {
    /// An empty cache.
    pub fn new() -> Self {
        ViewCache {
            inner: Mutex::new(ViewInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ViewInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Valid views for `doc` at `generation`. Stale entries found along
    /// the way are dropped and counted as evictions — this is the lazy
    /// invalidation path replica replay rides (replay bumps the store's
    /// generation without going through `apply_update`).
    pub(crate) fn candidates(&self, doc: u32, generation: u64) -> Vec<ViewCandidate> {
        let mut inner = self.lock();
        let stale: Vec<(u32, String)> = inner
            .views
            .iter()
            .filter(|((d, _), e)| *d == doc && e.generation != generation)
            .map(|(k, _)| k.clone())
            .collect();
        for k in stale {
            if let Some(e) = inner.views.remove(&k) {
                inner.bytes = inner.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner
            .views
            .iter()
            .filter(|((d, _), _)| *d == doc)
            .map(|((_, key), e)| ViewCandidate {
                key: key.clone(),
                xpath: e.xpath.clone(),
                pattern: e.pattern.clone(),
                generation,
                entries: Arc::clone(&e.entries),
            })
            .collect()
    }

    /// Records one execution of a fragment query and decides admission:
    /// `true` once the query has been seen `admit_after` times (and is
    /// not already materialized at this generation).
    pub(crate) fn observe(&self, doc: u32, generation: u64, key: &str, admit_after: u32) -> bool {
        let mut inner = self.lock();
        if let Some(e) = inner.views.get(&(doc, key.to_string())) {
            if e.generation == generation {
                return false;
            }
        }
        if inner.pending.len() >= PENDING_LIMIT {
            inner.pending.clear();
        }
        let count = inner.pending.entry((doc, key.to_string())).or_insert(0);
        *count += 1;
        *count >= admit_after.max(1)
    }

    /// Materializes a view. Entries must be the query's set-semantics
    /// result (sorted, deduplicated). Evicts least-recently-used views
    /// until the cache fits `budget` bytes; a single view larger than
    /// the whole budget is not admitted. Returns whether the view is now
    /// resident.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &self,
        doc: u32,
        generation: u64,
        key: String,
        xpath: String,
        pattern: Pattern,
        entries: Arc<Vec<NodeEntry>>,
        budget: u64,
    ) -> bool {
        let bytes = entries.len() as u64 * ENTRY_OVERHEAD + xpath.len() as u64 + 64;
        if bytes > budget {
            return false;
        }
        let mut inner = self.lock();
        inner.pending.remove(&(doc, key.clone()));
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.views.insert(
            (doc, key.clone()),
            ViewEntry {
                xpath,
                pattern,
                generation,
                entries,
                bytes,
                stamp,
                hits: 0,
            },
        ) {
            inner.bytes = inner.bytes.saturating_sub(old.bytes);
        }
        inner.bytes += bytes;
        while inner.bytes > budget {
            let victim = inner
                .views
                .iter()
                .filter(|(k, _)| **k != (doc, key.clone()))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = inner.views.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Marks a view as just used by an accepted rewrite (LRU recency +
    /// per-view hit count).
    pub(crate) fn touch(&self, doc: u32, key: &str) {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = inner.views.get_mut(&(doc, key.to_string())) {
            e.stamp = stamp;
            e.hits += 1;
        }
    }

    /// Counts a query answered through a `ViewScan`.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a query executed without one.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every view of `doc` (the eager write path).
    pub fn invalidate_doc(&self, doc: u32) {
        let mut inner = self.lock();
        let keys: Vec<(u32, String)> = inner
            .views
            .keys()
            .filter(|(d, _)| *d == doc)
            .cloned()
            .collect();
        for k in keys {
            if let Some(e) = inner.views.remove(&k) {
                inner.bytes = inner.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.pending.retain(|(d, _), _| *d != doc);
    }

    /// Drops everything (snapshot installs, `CACHE CLEAR`).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let n = inner.views.len() as u64;
        inner.views.clear();
        inner.pending.clear();
        inner.bytes = 0;
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> ViewStatsSnapshot {
        let inner = self.lock();
        ViewStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: inner.bytes,
            views: inner.views.len() as u64,
        }
    }

    /// Resident views, most-recently-used first.
    pub fn list(&self) -> Vec<ViewInfo> {
        let inner = self.lock();
        let mut out: Vec<(u64, ViewInfo)> = inner
            .views
            .iter()
            .map(|((doc, _), e)| {
                (
                    e.stamp,
                    ViewInfo {
                        doc: *doc,
                        xpath: e.xpath.clone(),
                        rows: e.entries.len() as u64,
                        bytes: e.bytes,
                        generation: e.generation,
                        hits: e.hits,
                    },
                )
            })
            .collect();
        out.sort_by_key(|v| std::cmp::Reverse(v.0));
        out.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(x: &str) -> Pattern {
        pattern_for(x).unwrap_or_else(|| panic!("{x} should be inside the fragment"))
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
            assert!(pattern_for(q).is_some(), "{q} should be accepted");
        }
    }

    #[test]
    fn fragment_rejects_undecidable_shapes() {
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
            assert!(pattern_for(q).is_none(), "{q} should be rejected");
        }
    }

    #[test]
    fn containment_truth_table() {
        let cases = [
            ("//person//*", "//person/address", true),
            ("//person", "//person", true),
            ("//a//b", "//a/b", true),
            ("//a/b", "//a//b", false),
            ("//a", "//a/b", false), // outputs differ
            ("//a", "//a[b]", true),
            ("//a[b]", "//a", false),
            ("//*", "//person", true),
            ("//person", "//*", false),
            ("//a//c", "//a/b/c", true),
            ("//a/c", "//a/b/c", false),
            ("//node()", "//person/text()", true),
            ("//*", "//person/text()", false), // `*` is element-only
            ("//a[b][c]", "//a[b][c][d]", true),
            ("//a[b/d]", "//a[b[d]]", true),
            ("/a/b", "/a/b", true),
            ("/a/b", "//a/b", false), // `//` may match deeper
            ("//a/b", "/a/b", true),
        ];
        for (sup, sub, expect) in cases {
            assert_eq!(
                contains(&pat(sup), &pat(sub)),
                expect,
                "contains({sup}, {sub})"
            );
        }
    }

    #[test]
    fn canonical_keys_identify_equal_patterns() {
        assert_eq!(
            pat("//person/address").key(),
            pat("/descendant::person/child::address").key()
        );
        assert_eq!(pat("//a[b][c]").key(), pat("//a[c][b]").key());
        assert_eq!(pat("//a[b/d]").key(), pat("//a[b[d]]").key());
        assert_ne!(pat("//a/b").key(), pat("//a//b").key());
        assert_ne!(pat("/a").key(), pat("//a").key());
    }

    #[test]
    fn prefix_truncates_spine_and_keeps_branches() {
        let p = pat("//a[x]/b[y]/c");
        let p2 = p.prefix(2);
        assert_eq!(p2.spine.len(), 2);
        assert_eq!(p2.key(), pat("//a[x]/b[y]").key());
        assert!(p.descendant_rooted());
        assert!(!pat("/a/b").descendant_rooted());
    }

    fn entry(n: u8) -> NodeEntry {
        NodeEntry {
            key: vamana_flex::FlexKey::from_flat(vec![n, 0]),
            kind: vamana_mass::RecordKind::Element,
            name: None,
        }
    }

    #[test]
    fn admission_waits_for_frequency_then_materializes() {
        let cache = ViewCache::new();
        let budget = 1 << 20;
        assert!(!cache.observe(0, 1, "//a", 2));
        assert!(cache.observe(0, 1, "//a", 2));
        let p = pat("//a");
        assert!(cache.admit(
            0,
            1,
            "//a".into(),
            "//a".into(),
            p.clone(),
            Arc::new(vec![entry(1)]),
            budget
        ));
        // Materialized views stop being observed.
        assert!(!cache.observe(0, 1, "//a", 2));
        assert_eq!(cache.stats().views, 1);
        // A stale generation makes it observable (and evictable) again.
        assert!(cache.candidates(0, 2).is_empty());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().views, 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let cache = ViewCache::new();
        let one = ENTRY_OVERHEAD + 3 + 64;
        let budget = one * 2;
        let p = pat("//a");
        for key in ["//a", "//b", "//c"] {
            assert!(cache.admit(
                0,
                1,
                key.into(),
                key.into(),
                p.clone(),
                Arc::new(vec![entry(1)]),
                budget
            ));
        }
        let s = cache.stats();
        assert_eq!(s.views, 2, "third admit must evict the oldest");
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= budget);
        let listed: Vec<String> = cache.list().into_iter().map(|v| v.xpath).collect();
        assert_eq!(listed, vec!["//c".to_string(), "//b".to_string()]);
        // An entry bigger than the whole budget is refused outright.
        assert!(!cache.admit(
            0,
            1,
            "//d".into(),
            "//d".into(),
            p.clone(),
            Arc::new(vec![entry(1); 100]),
            budget
        ));
    }

    #[test]
    fn invalidate_and_clear_account_evictions() {
        let cache = ViewCache::new();
        let p = pat("//a");
        for (doc, key) in [(0, "//a"), (0, "//b"), (1, "//a")] {
            cache.admit(
                doc,
                1,
                key.into(),
                key.into(),
                p.clone(),
                Arc::new(vec![entry(1)]),
                1 << 20,
            );
        }
        cache.invalidate_doc(0);
        assert_eq!(cache.stats().views, 1);
        assert_eq!(cache.stats().evictions, 2);
        cache.clear();
        assert_eq!(cache.stats().views, 0);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, 3);
    }
}
