//! The [`Engine`] facade: parse → compile → optimize → execute.
//!
//! This is the public face of VAMANA (paper Fig 2): it owns a
//! [`MassStore`], compiles XPath text through the XPath compiler and plan
//! builder, runs the cost-driven optimizer, and executes plans with the
//! pipelined engine.

use crate::cost::estimate;
use crate::error::{EngineError, Result};
use crate::exec::parallel::{host_cpus, ParallelHooks, ParallelScanStats, PoolCell};
use crate::exec::stats::{ExecStats, OrderVerdict};
use crate::exec::{self, value::Value, Env, BATCH_SIZE};
use crate::explain::{Analysis, Explain, QueryProfile};
use crate::opt::{self, OptEvent, OptimizeOutcome, OptimizerOptions};
use crate::plan::{builder::build_plan, display, Operator, QueryPlan};
use crate::views::{self, Priced, ShapedText, Shown};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vamana_flex::{FlexKey, KeyRange};
use vamana_mass::{
    DocId, Footprint, MassError, MassStore, NodeEntry, RecordKind, ReplicationLog, WalRecord,
    WalStats,
};
use vamana_xpath::parse;

/// Engine configuration. Every read-path feature engages through its cost
/// gate; what is configurable is the paper's optimizer switch, two
/// resource bounds, and one override that lets tests drive a path the
/// gate would decline.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Run the cost-driven optimizer (`false` = execute default plans,
    /// the paper's "VQP" configuration; `true` = "VQP-OPT").
    pub optimize: bool,
    /// Threads one scan may use, the calling thread included (the pool
    /// runs one fewer). `0` means one per available core; `1` keeps every
    /// scan on the calling thread. A plan whose output step is a
    /// splittable page scan is sized when it runs — from the context
    /// count and page span of that run — and fans out only from the
    /// measured break-even up (`cost::PARALLEL_BREAK_EVEN`), never wider
    /// than the host has cores unless forced. Identical output either way.
    pub parallel_workers: usize,
    /// Fan every eligible scan out as wide as `parallel_workers` allows
    /// regardless of its size or the document's — for differential testing
    /// and for measuring the parallel path itself.
    pub parallel_force: bool,
    /// How many times a query's answer must be computed before the query
    /// cache keeps it ([`crate::views`]); `u32::MAX` keeps none. A write to
    /// the document drops what it can change of what was kept, not the
    /// plans.
    pub view_admit_after: u32,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            optimize: true,
            parallel_workers: 0,
            parallel_force: false,
            view_admit_after: 2,
        }
    }
}

/// A logical update routed through [`Engine::apply_update`]: targets are
/// named by XPath, content arrives as an XML fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Append `fragment` as the last child of the first node matching
    /// `target`.
    Insert {
        /// XPath selecting the insertion parent (first match wins).
        target: String,
        /// XML fragment with a single root element.
        fragment: String,
    },
    /// Delete the subtrees of *all* nodes matching `target`.
    Delete {
        /// XPath selecting the nodes to remove.
        target: String,
    },
}

/// What an [`Engine::apply_update`] did.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Document the update ran against.
    pub doc: DocId,
    /// Nodes matched by the target XPath.
    pub matched: u64,
    /// Records inserted (fragment size, attributes and text included).
    pub inserted: u64,
    /// Records deleted (whole subtrees).
    pub deleted: u64,
    /// WAL commit LSN of the last logged operation (0 for volatile
    /// stores).
    pub lsn: u64,
    /// The document's generation *after* the update, the stamp the query
    /// cache's answers for it now need.
    pub doc_generation: u64,
    /// Time spent resolving the target: finding or making its plan and
    /// running it.
    pub resolve: Duration,
}

/// What [`Engine::lookup`] found for a query text on a document.
pub struct Lookup {
    /// The plan to run: cached, or compiled for this lookup.
    pub plan: Arc<QueryPlan>,
    /// The answer the query cache kept: the reply, nothing to run.
    pub answer: Option<Arc<Vec<NodeEntry>>>,
    /// What the last reply showed of the kept answer, kept with it
    /// ([`crate::views`], "Kept replies").
    pub shown: Option<Arc<Shown>>,
    /// Whether the entry was found in the cache.
    pub cached: bool,
    /// Whether the plan is its shape's, with this text's literals bound
    /// in: nothing was parsed or optimized for it ([`crate::views`]).
    pub bound: bool,
}

/// What [`Engine::evaluation`] makes of an expression.
pub enum Evaluation<'s> {
    /// A node-set expression, opened as its [`Engine::stream`].
    Nodes(QueryStream<'s>),
    /// A scalar expression, evaluated.
    Scalar(Value),
}

/// Where a [`QueryStream`]'s plan came from, most reused first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanSource {
    /// The query cache's entry for the text: its plan, or its kept answer.
    Cached,
    /// The text's shape's plan with the text's literals bound in.
    Bound,
    /// Compiled for this run, or the caller's.
    Compiled,
}

impl PlanSource {
    /// `cached`, `bound` or `compiled`, as the server's `plan=` says it.
    pub fn as_str(self) -> &'static str {
        ["cached", "bound", "compiled"][self as usize]
    }
}

/// One run of a query, the only kind: opened on a text through the query
/// cache by [`Engine::stream`] (behind [`Engine::query_doc`], the server's
/// `QUERY` and an update's target), or on a plan of the caller's. It pulls
/// tuples through the pipelined executor on demand, in pipeline order —
/// for most plans document order ([`QueryStream::in_document_order`]) — or
/// hands out the answer the cache kept. [`QueryStream::finish`] makes the
/// whole a node-set and offers what it computed for a text to the cache; a
/// stream dropped unfinished or cut off by its deadline offers nothing.
pub struct QueryStream<'s> {
    engine: &'s Engine,
    doc: DocId,
    plan: Held<'s>,
    source: PlanSource,
    /// The text a finished run's answer is offered under: a read's, not an
    /// update target's.
    offer: Option<&'s str>,
    pull: Pull<'s>,
}

/// A stream's plan: the query cache's, or the caller's.
enum Held<'s> {
    Shared(Arc<QueryPlan>),
    Borrowed(&'s QueryPlan),
}

impl Held<'_> {
    fn get(&self) -> &QueryPlan {
        match self {
            Held::Shared(plan) => plan,
            Held::Borrowed(plan) => plan,
        }
    }
}

enum Pull<'s> {
    /// The plan, running; `stats` is `EXPLAIN ANALYZE`'s collector and
    /// when the run began.
    Run {
        root_ctx: NodeEntry,
        iter: exec::OpIter<'s>,
        done: bool,
        stats: Option<(&'s ExecStats, Instant)>,
    },
    /// An answer the query cache kept, how much of it was handed out,
    /// and what the last reply showed of it.
    Kept(Arc<Vec<NodeEntry>>, usize, Option<Arc<Shown>>),
}

impl<'s> QueryStream<'s> {
    /// A stream offering nothing, its plan taken as compiled.
    fn new(engine: &'s Engine, doc: DocId, plan: Held<'s>, pull: Pull<'s>) -> Self {
        QueryStream {
            engine,
            doc,
            plan,
            source: PlanSource::Compiled,
            offer: None,
            pull,
        }
    }

    /// Pulls up to `max` tuples into `out`, returning how many were
    /// appended; fewer than `max` means the stream is exhausted, and stays
    /// so. The one pull: `max = 1` makes the pipeline produce one tuple,
    /// and a caller draining the stream takes whole batches without
    /// per-tuple dispatch.
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        match &mut self.pull {
            Pull::Kept(answer, at, _) => {
                let rest = &answer[*at..];
                let n = rest.len().min(max);
                out.extend_from_slice(&rest[..n]);
                *at += n;
                Ok(n)
            }
            Pull::Run { done: true, .. } => Ok(0),
            Pull::Run {
                root_ctx,
                iter,
                done,
                stats,
            } => {
                let env = self
                    .engine
                    .env(self.plan.get(), root_ctx, stats.map(|s| s.0));
                let n = iter.next_batch(env, out, max)?;
                *done = n < max;
                Ok(n)
            }
        }
    }

    /// Whether everything pulled so far came in document order, each node
    /// once: a kept answer, or the plan emits that way
    /// ([`QueryPlan::emits_in_order`]) and its output step has met no
    /// context that nests in the one before ([`exec::OpIter::order_broken`]).
    /// It can turn `false` as the stream is pulled and never turns back;
    /// what it says of an exhausted stream is final.
    pub fn in_document_order(&self) -> bool {
        match &self.pull {
            Pull::Kept(..) => true,
            Pull::Run { iter, .. } => self.by_construction() && !iter.order_broken(),
        }
    }

    /// Whether the plan's output emits a node-set as it runs
    /// ([`QueryPlan::emits_in_order`]).
    fn by_construction(&self) -> bool {
        let plan = self.plan.get();
        plan.top().is_none_or(|top| plan.emits_in_order(top))
    }

    /// Pulls what is left after `pulled` — what the caller pulled from this
    /// stream — and returns the whole as a node-set ([`exec::finish_node_set`],
    /// a no-op when [`QueryStream::in_document_order`]). What a stream of a
    /// text computed is offered to the query cache, which shares it once
    /// the text has been answered [`EngineOptions::view_admit_after`] times
    /// at the document's generation; a kept answer comes back as it is.
    pub fn finish(self, pulled: Vec<NodeEntry>) -> Result<Arc<Vec<NodeEntry>>> {
        Ok(self
            .finish_by(pulled, None)?
            .expect("only a deadline cuts a run off"))
    }

    /// [`QueryStream::finish`], cut off once `deadline` (if any) has passed
    /// — asked after every batch — when it returns `None` and offers
    /// nothing.
    pub fn finish_by(
        mut self,
        mut out: Vec<NodeEntry>,
        deadline: Option<Instant>,
    ) -> Result<Option<Arc<Vec<NodeEntry>>>> {
        let stats = match self.pull {
            Pull::Kept(answer, 0, _) if out.is_empty() => return Ok(Some(answer)),
            Pull::Kept(answer, at, _) => {
                out.extend_from_slice(&answer[at..]);
                return Ok(Some(Arc::new(out)));
            }
            Pull::Run { stats, .. } => stats,
        };
        let passed = || deadline.is_some_and(|at| Instant::now() >= at);
        while self.next_batch(&mut out, BATCH_SIZE)? > 0 {
            if passed() {
                return Ok(None);
            }
        }
        if passed() {
            return Ok(None);
        }
        let ordered = self.in_document_order();
        let pulled = out.len() as u64;
        let sort_started = stats.map(|_| Instant::now());
        exec::finish_node_set(&mut out, ordered);
        if let (Some((stats, started)), Some(sorted)) = (stats, sort_started) {
            let plan = self.plan.get();
            let by_construction = self.by_construction();
            stats.set_order(OrderVerdict {
                by_construction,
                witness_tripped: by_construction && !ordered,
                sorted_rows: if ordered { 0 } else { pulled },
                duplicates: pulled - out.len() as u64,
                sort_nanos: sorted.elapsed().as_nanos() as u64,
            });
            // The root operator's actuals are the run's: post-dedup output
            // cardinality and the whole run's wall time. Guarded so a plan
            // whose root *is* the top step does not double-count.
            let root = plan.root();
            if matches!(plan.op(root), Operator::Root { .. }) {
                stats.add_invocation(root);
                stats.add_rows(root, out.len() as u64);
                stats.add_nanos(root, started.elapsed().as_nanos() as u64);
            }
        }
        let answer = Arc::new(out);
        if let Some(xpath) = self.offer {
            let (engine, doc) = (self.engine, self.doc);
            let generation = engine.store.doc_generation(doc);
            let admit_after = engine.options.view_admit_after;
            engine
                .views
                .observe(doc.0, xpath, generation, admit_after, &answer);
        }
        Ok(Some(answer))
    }

    /// [`QueryStream::finish`] as a vector of the caller's own: copied only
    /// when the query cache holds it.
    fn into_vec(self) -> Result<Vec<NodeEntry>> {
        self.finish(Vec::new()).map(Arc::unwrap_or_clone)
    }

    /// What the last reply showed of the kept answer this stream hands
    /// out, if the query cache kept any with it.
    pub fn kept_shown(&self) -> Option<&Arc<Shown>> {
        match &self.pull {
            Pull::Kept(_, _, shown) => shown.as_ref(),
            Pull::Run { .. } => None,
        }
    }

    /// The (possibly optimized) plan this stream executes.
    pub fn plan(&self) -> &QueryPlan {
        self.plan.get()
    }

    /// Where the plan came from.
    pub fn source(&self) -> PlanSource {
        self.source
    }
}

/// The VAMANA XPath engine.
pub struct Engine {
    /// Shared so parallel scan workers can hold the store across their
    /// morsel; a scan's clones are gone once its stream is dropped, which
    /// keeps the store writable between queries.
    pub(crate) store: Arc<MassStore>,
    options: EngineOptions,
    /// Engine-level worker pool, created when a scan first fans out,
    /// reused across queries and rebuilt only when the configured width
    /// changes.
    scan_pool: PoolCell,
    /// Cumulative microseconds writers waited for the engine's write lock
    /// ([`crate::SharedEngine::write`]).
    pub(crate) writer_wait_us: AtomicU64,
    /// The query cache, shared by `Arc` so a server can hand it out.
    views: Arc<views::QueryCache>,
}

impl Engine {
    /// Wraps a store with default options (optimizer on).
    pub fn new(store: MassStore) -> Self {
        Self::with_options(store, EngineOptions::default())
    }

    /// Wraps a store with explicit options.
    pub fn with_options(store: MassStore, options: EngineOptions) -> Self {
        Engine {
            store: Arc::new(store),
            options,
            scan_pool: PoolCell::default(),
            writer_wait_us: AtomicU64::new(0),
            views: Arc::default(),
        }
    }

    /// The query cache (counters, listing, manual clears).
    pub fn views(&self) -> &Arc<views::QueryCache> {
        &self.views
    }

    /// The underlying store.
    pub fn store(&self) -> &MassStore {
        &self.store
    }

    /// The store, to write: the engine is its only writer ([`Engine::write`]).
    /// `&mut self` already excludes every open stream, and a fanned-out
    /// scan's workers let go of the store before its stream's drop returns,
    /// so the store is the engine's alone — unless a stream was leaked
    /// (`mem::forget`) mid-scan, when the caller gets
    /// [`MassError::WriterConflict`] and the store is untouched.
    fn store_mut(&mut self) -> Result<&mut MassStore> {
        Arc::get_mut(&mut self.store).ok_or(EngineError::Storage(MassError::WriterConflict))
    }

    /// The one step every update and replayed batch takes: runs `apply` and
    /// moves each document whose generation it moved through the query
    /// cache, carrying the answers that cannot see what it inserted or
    /// deleted ([`crate::views`], "Validity") — none when it failed, as a
    /// commit can after its apply began.
    fn write(
        &mut self,
        apply: impl FnOnce(&mut MassStore) -> vamana_mass::Result<Footprint>,
    ) -> Result<()> {
        let before: Vec<u64> = (0..self.store.documents().len() as u32)
            .map(|doc| self.store.doc_generation(DocId(doc)))
            .collect();
        let written = apply(self.store_mut()?);
        for (doc, from) in (0..).zip(before) {
            let to = self.store.doc_generation(DocId(doc));
            if to != from {
                self.views.advance(doc, from, to, written.as_ref().ok());
            }
        }
        Ok(written.map(drop)?)
    }

    /// Total time writers have waited for this engine's write lock
    /// ([`crate::SharedEngine::write`]).
    pub fn writer_wait_total(&self) -> Duration {
        Duration::from_micros(self.writer_wait_us.load(Ordering::Relaxed))
    }

    /// Swaps the underlying store wholesale — a replica installing a
    /// snapshot shipped from its primary. Fails with
    /// [`MassError::WriterConflict`] while a leaked stream holds the store,
    /// and clears the query cache: the new store's document generations
    /// restart at zero.
    pub fn replace_store(&mut self, store: MassStore) -> Result<()> {
        self.store_mut()?;
        self.store = Arc::new(store);
        self.views.clear();
        Ok(())
    }

    /// Threads one scan may use on this engine, the calling thread
    /// included: the configured [`EngineOptions::parallel_workers`], or
    /// one per available core.
    pub fn effective_workers(&self) -> usize {
        if self.options.parallel_workers > 0 {
            self.options.parallel_workers
        } else {
            host_cpus()
        }
    }

    /// Cumulative parallel-scan counters (all zero until the first scan
    /// that fans out creates the pool).
    pub fn parallel_stats(&self) -> ParallelScanStats {
        self.scan_pool.stats()
    }

    /// Current options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Mutable options (toggle the optimizer between runs). Clears the
    /// query cache: a plan depends on `optimize` and `parallel_force`.
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        self.views.clear();
        &mut self.options
    }

    /// Convenience: parse and load an XML string as a document.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        Ok(self.store_mut()?.load_xml(name, xml)?)
    }

    /// Applies a logical update to `doc`: resolves the target XPath
    /// through the query cache without adding an entry to it (an entry's
    /// plan or kept answer, else its shape's template, else a compile
    /// offered as the template; see [`crate::views`]), plans the write's
    /// WAL records, commits them as one operation
    /// ([`MassStore::commit`]) and moves the document's kept answers past
    /// what they inserted or deleted ([`crate::views`], "Validity").
    /// Inserts append the fragment to the *first* match; deletes remove
    /// the subtrees of *every* match in one commit, a match inside an
    /// earlier one going with it.
    pub fn apply_update(&mut self, doc: DocId, op: &UpdateOp) -> Result<UpdateOutcome> {
        let start = Instant::now();
        let target = match op {
            UpdateOp::Insert { target, .. } | UpdateOp::Delete { target } => target,
        };
        // A `DELETE` target is asked once: an entry for it would only push
        // readers' entries out.
        let found = self.find(doc, target, false)?;
        let matched = self
            .open_text(doc, target, found, false)?
            .finish(Vec::new())?;
        let resolve = start.elapsed();
        let records = match op {
            UpdateOp::Insert { fragment, .. } => match matched.first() {
                Some(first)
                    if !matches!(first.kind, RecordKind::Element | RecordKind::Document) =>
                {
                    return Err(EngineError::Unsupported(
                        "insert target must be an element or document node".into(),
                    ));
                }
                Some(first) => self.store.plan_fragment(&first.key, fragment)?,
                None => Vec::new(),
            },
            // Matches come in document order: one inside an earlier match
            // comes before any match outside it, so the last match kept
            // is the only one to test.
            UpdateOp::Delete { .. } => {
                let mut records = Vec::new();
                let mut outer: Option<&FlexKey> = None;
                for entry in matched.iter() {
                    if outer.is_some_and(|o| o.is_ancestor_or_self_of(&entry.key)) {
                        continue;
                    }
                    outer = Some(&entry.key);
                    records.push(WalRecord::DeleteSubtree {
                        key: entry.key.clone(),
                    });
                }
                records
            }
        };
        let before = self.store.stats().tuples;
        self.write(|store| store.commit(&records))?;
        let after = self.store.stats().tuples;
        Ok(UpdateOutcome {
            doc,
            matched: matched.len() as u64,
            inserted: after.saturating_sub(before),
            deleted: before.saturating_sub(after),
            lsn: self.store.wal_stats().last_lsn,
            doc_generation: self.store.doc_generation(doc),
            resolve,
        })
    }

    /// Applies one committed batch shipped from a primary
    /// ([`MassStore::apply_replicated`]) and moves the query cache past it
    /// as [`Engine::apply_update`] does, so a follower keeps the answers a
    /// replayed write cannot see.
    pub fn apply_replicated(&mut self, batch: &[(u64, WalRecord)]) -> Result<()> {
        self.write(|store| store.apply_replicated(batch))
    }

    /// Attaches a replication ring retaining `retain` committed frames to
    /// the (durable) store ([`MassStore::attach_replication`]).
    pub fn attach_replication(&mut self, retain: usize) -> Result<ReplicationLog> {
        Ok(self.store_mut()?.attach_replication(retain)?)
    }

    /// Folds the WAL into the page store and truncates it (see
    /// [`MassStore::checkpoint`]). Returns the post-checkpoint WAL
    /// counters.
    pub fn checkpoint(&mut self) -> Result<WalStats> {
        let store = self.store_mut()?;
        store.checkpoint()?;
        Ok(store.wal_stats())
    }

    fn doc_entry(&self, doc: DocId) -> Result<NodeEntry> {
        let info = self.store.document(doc).ok_or(EngineError::NoDocuments)?;
        Ok(NodeEntry {
            key: info.doc_key.clone(),
            kind: RecordKind::Document,
            name: None,
        })
    }

    fn doc_scope(&self, doc: DocId) -> Result<KeyRange> {
        let info = self.store.document(doc).ok_or(EngineError::NoDocuments)?;
        Ok(KeyRange::subtree(&info.doc_key))
    }

    /// Compiles an XPath expression to its default plan.
    pub fn compile(&self, xpath: &str) -> Result<QueryPlan> {
        let expr = parse(xpath)?;
        build_plan(&expr)
    }

    /// Optimizes a plan for `doc` and reports the outcome: the rule
    /// library, each rewrite kept only when re-estimation says it pays.
    /// Parallel eligibility is recorded on the resulting plan so
    /// precompiled/cached plans carry it.
    pub fn optimize_plan(&self, plan: QueryPlan, doc: DocId) -> Result<OptimizeOutcome> {
        self.optimize_in(plan, &self.doc_scope(doc)?)
    }

    /// [`Engine::optimize_plan`] within `scope`, the document.
    fn optimize_in(&self, plan: QueryPlan, scope: &KeyRange) -> Result<OptimizeOutcome> {
        let mut outcome = opt::optimize(plan, self.store(), scope, &OptimizerOptions::default())?;
        let choice = opt::parallel::decide(
            &outcome.plan,
            self.store(),
            scope,
            self.options.parallel_force,
        );
        outcome.opt_trace.events.push(OptEvent::Parallel {
            estimated: choice.ok().map(|c| c.estimated),
            reason: choice.err().unwrap_or("priced when the plan runs"),
        });
        outcome.plan.set_parallel(choice.ok());
        Ok(outcome)
    }

    /// What is left of the fused-scan counters: the frozen `trajectory`
    /// package reads them (`workloads.rs`, `Counters::read`) for its
    /// `core.exec.fused_chains_per_op` metric, so the name stays and
    /// answers zero. Goes when that package is next opened.
    #[doc(hidden)]
    pub fn fused_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// What the query cache holds for `xpath` on `doc` at the document's
    /// current generation — its plan and any kept answer — or, on a miss,
    /// the plan of `xpath`'s shape with its literals bound in, or else the
    /// plan just compiled (and, with `options.optimize`, optimized); the
    /// plan is inserted either way. A plan made at an older generation is
    /// used once the counts it was priced on are found of the same
    /// magnitudes, and optimized afresh otherwise. One lookup, counted as
    /// a hit or a miss; checking, binding and compiling run outside the
    /// cache's lock (see [`crate::views`]).
    pub fn lookup(&self, doc: DocId, xpath: &str) -> Result<Lookup> {
        self.find(doc, xpath, true)
    }

    /// [`Engine::lookup`]; only a `read` is counted and inserted.
    fn find(&self, doc: DocId, xpath: &str, read: bool) -> Result<Lookup> {
        let info = self.store.document(doc).ok_or(EngineError::NoDocuments)?;
        let generation = self.store.doc_generation(doc);
        // Made once, and only when a count is read or a plan made.
        let cell = OnceCell::new();
        let scope = || cell.get_or_init(|| KeyRange::subtree(&info.doc_key));
        let holds = |priced: &Priced| priced.holds(self.store(), scope());
        if let Some(found) = self.views.lookup(doc.0, xpath, generation, read, holds) {
            return Ok(found);
        }
        let scope = scope();
        // Only a text with a quote has string literals to lift; one that
        // does not lex has no shape, and its compile says why.
        let shape = xpath
            .contains(['\'', '"'])
            .then(|| vamana_xpath::lexer::shape(xpath).ok())
            .flatten();
        let text = shape.map(|shape| ShapedText::new(shape, self.store(), scope));
        let holds = |priced: &Priced| priced.holds(self.store(), scope);
        let bound = text.map(|text| self.views.bind(doc.0, generation, text, holds));
        let (plan, priced, expr, bound) = match bound {
            Some(Ok((plan, priced, expr))) => (Arc::new(plan), priced, expr, true),
            unbound => {
                let expr = Arc::new(parse(xpath)?);
                let plan = Arc::new(self.prepare(build_plan(&expr)?, scope)?);
                // A default plan is not priced: no count changes it.
                let priced = match self.options.optimize {
                    true => Priced::of(&plan, self.store(), scope),
                    false => Priced::default(),
                };
                if let Some(Err(text)) = unbound {
                    let (plan, expr) = (Arc::clone(&plan), Arc::clone(&expr));
                    self.views
                        .offer_template(doc.0, generation, text, plan, expr, &priced);
                }
                (plan, priced, expr, false)
            }
        };
        if read {
            self.views
                .insert(doc.0, xpath, generation, Arc::clone(&plan), priced, expr);
        }
        Ok(Lookup {
            plan,
            answer: None,
            shown: None,
            cached: false,
            bound,
        })
    }

    /// Executes a plan against `doc`.
    pub fn execute_plan(&self, plan: &QueryPlan, doc: DocId) -> Result<Vec<NodeEntry>> {
        self.open(doc, Held::Borrowed(plan), None, None)?.into_vec()
    }

    /// With `options.optimize`, optimizes `plan` within `scope`, its
    /// document.
    fn prepare(&self, plan: QueryPlan, scope: &KeyRange) -> Result<QueryPlan> {
        match self.options.optimize {
            true => Ok(self.optimize_in(plan, scope)?.plan),
            false => Ok(plan),
        }
    }

    /// Executes `xpath` on `doc`: its [`Engine::stream`], finished.
    pub fn query_doc(&self, doc: DocId, xpath: &str) -> Result<Vec<NodeEntry>> {
        self.stream(doc, xpath)?.into_vec()
    }

    /// Evaluates `xpath` with the context node set to `ctx` (relative
    /// paths start there; absolute paths still start at the containing
    /// document's root). This is the §VII XQuery hook: "the context node
    /// could be provided from another XPath expression".
    pub fn query_from(&self, ctx: &NodeEntry, xpath: &str) -> Result<Vec<NodeEntry>> {
        let plan = crate::plan::builder::build_relative_plan(&parse(xpath)?)?;
        let doc = self
            .store
            .document_of(&ctx.key)
            .ok_or_else(|| EngineError::Unsupported("context node is not stored".into()))?;
        let plan = self.prepare(plan, &self.doc_scope(doc)?)?;
        self.open(doc, Held::Borrowed(&plan), Some(ctx), None)?
            .into_vec()
    }

    /// Runs `xpath` against every loaded document, concatenating results
    /// in document order.
    pub fn query(&self, xpath: &str) -> Result<Vec<NodeEntry>> {
        if self.store.documents().is_empty() {
            return Err(EngineError::NoDocuments);
        }
        let mut out = Vec::new();
        for i in 0..self.store.documents().len() {
            out.extend(self.query_doc(DocId(i as u32), xpath)?);
        }
        Ok(out)
    }

    /// Opens a *streaming* cursor over `xpath` on `doc`, the one way a query
    /// text is run: tuples are produced a `next_batch` at a time, without
    /// materializing the result set (the paper's §VII execution model as a
    /// public API). The plan comes through the query cache
    /// ([`Engine::lookup`]), and an answer the cache kept is streamed as it
    /// is.
    pub fn stream<'a>(&'a self, doc: DocId, xpath: &'a str) -> Result<QueryStream<'a>> {
        self.open_text(doc, xpath, self.find(doc, xpath, true)?, true)
    }

    /// [`Engine::stream`] of `found`, what [`Engine::find`] found for
    /// `xpath`; only a `read` is offered.
    fn open_text<'a>(
        &'a self,
        doc: DocId,
        xpath: &'a str,
        found: Lookup,
        read: bool,
    ) -> Result<QueryStream<'a>> {
        let source = match (found.cached, found.bound) {
            (true, _) => PlanSource::Cached,
            (false, true) => PlanSource::Bound,
            (false, false) => PlanSource::Compiled,
        };
        let plan = Held::Shared(found.plan);
        let mut stream = match found.answer {
            Some(kept) => QueryStream::new(self, doc, plan, Pull::Kept(kept, 0, found.shown)),
            None => self.open(doc, plan, None, None)?,
        };
        stream.source = source;
        stream.offer = read.then_some(xpath);
        Ok(stream)
    }

    /// Opens `plan` on `doc`, relative paths anchored at `outer` and
    /// actuals recorded into `stats` ([`exec::open`]); a plan whose top
    /// yields a value, not nodes, is refused.
    fn open<'a>(
        &'a self,
        doc: DocId,
        plan: Held<'a>,
        outer: Option<&NodeEntry>,
        stats: Option<&'a ExecStats>,
    ) -> Result<QueryStream<'a>> {
        let top = plan.get().top();
        if top.is_some_and(|top| !plan.get().op(top).yields_nodes()) {
            return Err(EngineError::Unsupported(
                "the expression yields a value, which cannot produce a node-set stream; \
                 EVAL evaluates it"
                    .into(),
            ));
        }
        let stats = stats.map(|stats| (stats, Instant::now()));
        let root_ctx = self.doc_entry(doc)?;
        let env = self.env(plan.get(), &root_ctx, stats.map(|s| s.0));
        // What a parallel scan needs: a plan the optimizer found eligible,
        // and a second thread to give.
        let width = self.effective_workers();
        let hooks = (width > 1 && plan.get().parallel().is_some()).then_some(ParallelHooks {
            store: &self.store,
            pool: &self.scan_pool,
            width,
            force: self.options.parallel_force,
        });
        let iter = exec::open(env, outer, hooks.as_ref())?;
        let run = Pull::Run {
            root_ctx,
            iter,
            done: false,
            stats,
        };
        Ok(QueryStream::new(self, doc, plan, run))
    }

    /// What the executor runs `plan` with from `root_ctx`.
    fn env<'p>(
        &self,
        plan: &'p QueryPlan,
        root_ctx: &'p NodeEntry,
        stats: Option<&'p ExecStats>,
    ) -> Env<'p, '_> {
        Env {
            plan,
            store: self.store(),
            root_ctx,
            stats,
            deadline: None,
        }
    }

    /// Keeps `shown`, what a reply showed of `answer` — the answer a
    /// stream of `xpath` on `doc` finished with — with that answer while
    /// the query cache keeps it ([`crate::views`], "Kept replies"); a
    /// computed answer the cache did not keep is not asked after.
    pub fn keep_shown(
        &self,
        doc: DocId,
        xpath: &str,
        answer: &Arc<Vec<NodeEntry>>,
        shown: Arc<Shown>,
    ) {
        // The cache holds a clone of every answer it keeps.
        if Arc::strong_count(answer) > 1 {
            let generation = self.store.doc_generation(doc);
            self.views
                .keep_shown(doc.0, xpath, generation, answer, shown);
        }
    }

    /// Resolves the string values of a result set (element string-value,
    /// attribute/text value).
    pub fn string_values(&self, entries: &[NodeEntry]) -> Result<Vec<String>> {
        entries
            .iter()
            .map(|e| Ok(self.store.string_value(&e.key)?))
            .collect()
    }

    /// Resolves the names of a result set (empty string for unnamed
    /// nodes). A value-index tuple's name is recovered from its record.
    pub fn names_of(&self, entries: &[NodeEntry]) -> Result<Vec<String>> {
        entries
            .iter()
            .map(|e| {
                if let Some(n) = e.name {
                    return Ok(self.store.names().resolve(n).to_string());
                }
                match self.store.get(&e.key)? {
                    Some(rec) => Ok(rec
                        .name
                        .map(|n| self.store.names().resolve(n).to_string())
                        .unwrap_or_default()),
                    None => Ok(String::new()),
                }
            })
            .collect()
    }

    /// `EXPLAIN`: `xpath`'s default and optimized plans on `doc`, drawn
    /// with their estimate cards (the paper's Figs 6–9 as text).
    pub fn explain(&self, doc: DocId, xpath: &str) -> Result<Explain> {
        let (default, default_cost, outcome) = self.report_plans(doc, xpath, true)?;
        Ok(Explain {
            xpath: xpath.to_string(),
            default_plan: display::render(&default, None),
            optimized_plan: display::render(&outcome.plan, None),
            default_cost,
            optimized_cost: outcome.final_cost,
            applied: outcome.applied,
            iterations: outcome.iterations,
            opt_trace: outcome.opt_trace,
        })
    }

    /// Where [`Engine::explain`] and [`Engine::analyze_doc`] start:
    /// `xpath`'s default plan on `doc`, cleaned up (clean-up is part of the
    /// default pipeline in the paper's figures) and stamped with its
    /// estimates, and its Σ tuple volume; then, with `optimize`, what the
    /// optimizer makes of it, and otherwise the default plan again, with
    /// the two passes that ran.
    fn report_plans(
        &self,
        doc: DocId,
        xpath: &str,
        optimize: bool,
    ) -> Result<(QueryPlan, u64, OptimizeOutcome)> {
        let scope = self.doc_scope(doc)?;
        let mut plan = self.compile(xpath)?;
        opt::cleanup::cleanup(&mut plan);
        let costs = estimate(&plan, self.store(), &scope)?;
        let total = costs.total();
        plan.set_estimates(costs.cards);
        let outcome = match optimize {
            true => self.optimize_in(plan.clone(), &scope)?,
            false => OptimizeOutcome {
                plan: plan.clone(),
                initial_cost: total,
                final_cost: total,
                applied: Vec::new(),
                iterations: 0,
                opt_trace: opt::OptTrace {
                    events: vec![OptEvent::Cleanup, OptEvent::CostGathering { total }],
                },
            },
        };
        Ok((plan, total, outcome))
    }

    /// `EXPLAIN ANALYZE`: compiles, (optionally) optimizes, and executes
    /// `xpath` on `doc` with per-operator instrumentation enabled,
    /// returning an [`Analysis`] holding the estimate-stamped plan, the
    /// optimizer's pass log, and the recorded actuals.
    ///
    /// Execution is exactly what [`Engine::query_doc`] would do, a
    /// parallel fan-out included — the actual row counts are the same
    /// either way; only pull counts and timings differ.
    pub fn analyze_doc(&self, doc: DocId, xpath: &str) -> Result<Analysis> {
        Ok(self
            .analyze_by(doc, xpath, None)?
            .expect("only a deadline cuts a run off"))
    }

    /// [`Engine::analyze_doc`], its run cut off once `deadline` (if any)
    /// has passed — asked after every batch, as a `QUERY`'s is — when it
    /// returns `None`.
    pub fn analyze_by(
        &self,
        doc: DocId,
        xpath: &str,
        deadline: Option<Instant>,
    ) -> Result<Option<Analysis>> {
        let before = self.store().buffer_pool().stats();
        let par_before = self.parallel_stats();
        let start = Instant::now();
        let (_, default_cost, outcome) = self.report_plans(doc, xpath, self.options.optimize)?;
        let OptimizeOutcome {
            plan,
            final_cost,
            applied,
            mut opt_trace,
            ..
        } = outcome;
        let stats = ExecStats::new(plan.len());
        let Some(out) = self
            .open(doc, Held::Borrowed(&plan), None, Some(&stats))?
            .finish_by(Vec::new(), deadline)?
        else {
            return Ok(None);
        };
        let elapsed = start.elapsed();
        let actuals = stats.snapshot();
        if let Some(verdict) = stats.parallel() {
            opt_trace.events.push(OptEvent::ParallelRun(verdict));
        }
        if let Some(verdict) = stats.order() {
            opt_trace.events.push(OptEvent::OrderRun(verdict));
        }
        let pool = self.store().buffer_pool().stats().since(&before);
        let par = self.parallel_stats().since(&par_before);
        let profile = QueryProfile {
            elapsed,
            buffer_hits: pool.hits,
            buffer_misses: pool.misses,
            batch_pins: pool.batch_pins,
            pins_saved: pool.pins_saved,
            morsels: par.morsels,
            worker_batches: par.worker_batches,
            merge_stalls: par.merge_stalls,
            decodes_v1: pool.decodes_v1,
            decodes_v2: pool.decodes_v2,
        };
        Ok(Some(Analysis {
            xpath: xpath.to_string(),
            plan,
            optimized: self.options.optimize,
            default_cost,
            final_cost,
            applied,
            opt_trace,
            actuals,
            rows: out.len() as u64,
            profile,
        }))
    }

    /// Evaluates an arbitrary XPath expression on `doc`, returning an
    /// XPath [`Value`] — scalar results like `count(//person)` included:
    /// [`Engine::evaluation`], a node-set's stream finished.
    pub fn evaluate(&self, doc: DocId, xpath: &str) -> Result<Value> {
        let evaluation = self.evaluation(doc, xpath, None)?;
        match evaluation.expect("only a deadline cuts a run off") {
            Evaluation::Nodes(stream) => Ok(Value::Nodes(stream.into_vec()?)),
            Evaluation::Scalar(value) => Ok(value),
        }
    }

    /// An arbitrary XPath expression on `doc`, its plan found as any text's
    /// is ([`Engine::lookup`]): a node-set expression opened as its
    /// [`Engine::stream`], for the caller to finish (by `deadline`:
    /// [`QueryStream::finish_by`]), or any other evaluated at the document
    /// node, each path pulled only as far as its function needs
    /// (`count(//name)` is read off the name index) and cut off once
    /// `deadline` (if any) has passed — asked after every batch — when it
    /// returns `None`.
    pub fn evaluation<'a>(
        &'a self,
        doc: DocId,
        xpath: &'a str,
        deadline: Option<Instant>,
    ) -> Result<Option<Evaluation<'a>>> {
        let found = self.find(doc, xpath, true)?;
        let plan = Arc::clone(&found.plan);
        let Some(top) = plan.top().filter(|&top| !plan.op(top).yields_nodes()) else {
            return Ok(Some(Evaluation::Nodes(
                self.open_text(doc, xpath, found, true)?,
            )));
        };
        let root_ctx = self.doc_entry(doc)?;
        let env = Env {
            deadline,
            ..self.env(&plan, &root_ctx, None)
        };
        let value = exec::eval_expr(env, top, &root_ctx, 1, 1, &mut exec::Probes::default())?;
        Ok((!env.passed()).then_some(Evaluation::Scalar(value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people>
      <person id="p0"><name>Ann</name></person>
      <person id="p1"><name>Bob</name><watches><watch/><watch/></watches></person>
      <person id="p2"><name>Cyd</name><address><province>Vermont</province></address></person>
    </people></site>"#;

    fn engine() -> Engine {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        Engine::new(store)
    }

    #[test]
    fn query_returns_document_order_nodeset() {
        let e = engine();
        let r = e.query("//person").unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn optimized_and_default_agree() {
        let mut e = engine();
        for q in [
            "//person/address",
            "//watches/watch/ancestor::person",
            "/descendant::name/parent::*/self::person/address",
            "//province[text()='Vermont']/ancestor::person",
            "//person[@id='p1']/watches/watch",
            "//name",
        ] {
            e.options_mut().optimize = true;
            let opt = e.query(q).unwrap();
            e.options_mut().optimize = false;
            let dflt = e.query(q).unwrap();
            assert_eq!(opt, dflt, "optimizer changed semantics of {q}");
        }
    }

    #[test]
    fn string_values_and_names_resolve() {
        let e = engine();
        let r = e.query("//name").unwrap();
        let vals = e.string_values(&r).unwrap();
        assert_eq!(vals, vec!["Ann", "Bob", "Cyd"]);
        let names = e.names_of(&r).unwrap();
        assert!(names.iter().all(|n| n == "name"));
    }

    #[test]
    fn explain_shows_costs_and_rules() {
        let e = engine();
        let doc = DocId(0);
        let ex = e.explain(doc, "//person/address").unwrap();
        assert!(ex.default_plan.contains("COUNT="), "{}", ex.default_plan);
        assert!(ex.optimized_cost <= ex.default_cost);
        assert!(!ex.applied.is_empty());
    }

    #[test]
    fn evaluate_scalar_expressions() {
        let e = engine();
        let doc = DocId(0);
        match e.evaluate(doc, "count(//person)").unwrap() {
            Value::Num(n) => assert_eq!(n, 3.0),
            other => panic!("wrong: {other:?}"),
        }
        match e.evaluate(doc, "1 + 2 * 3").unwrap() {
            Value::Num(n) => assert_eq!(n, 7.0),
            other => panic!("wrong: {other:?}"),
        }
        match e.evaluate(doc, "concat('a', 'b')").unwrap() {
            Value::Str(s) => assert_eq!(s, "ab"),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn stream_yields_same_tuples_as_query() {
        let e = engine();
        let mut stream = e.stream(DocId(0), "//person/name").unwrap();
        let mut streamed = Vec::new();
        while stream.next_batch(&mut streamed, 1).unwrap() == 1 {}
        assert!(stream.in_document_order());
        // Exhausted streams stay exhausted.
        assert_eq!(stream.next_batch(&mut streamed, 1).unwrap(), 0);
        // The stream's plan is the optimized one.
        assert!(!stream.plan().is_empty());
        let streamed = stream.finish(streamed).unwrap();
        assert_eq!(*streamed, e.query("//person/name").unwrap());
    }

    #[test]
    fn stream_is_lazy() {
        // Pulling one tuple from a large result must not touch the whole
        // store.
        let mut xml = String::from("<r>");
        for i in 0..20_000 {
            xml.push_str(&format!("<e>{i}</e>"));
        }
        xml.push_str("</r>");
        let mut store = MassStore::open_memory();
        store.load_xml("big", &xml).unwrap();
        let e = Engine::new(store);
        e.store().buffer_pool().reset_stats();
        let mut stream = e.stream(DocId(0), "//e").unwrap();
        assert_eq!(stream.next_batch(&mut Vec::new(), 1).unwrap(), 1);
        let b = e.store().stats().buffer;
        let total = e.store().stats().pages as u64;
        assert!(
            b.hits + b.misses < total / 2,
            "first tuple touched {} of {} pages",
            b.hits + b.misses,
            total
        );
        // Nor may a value that one row decides.
        let q = "boolean(//e[. != 'x'])";
        e.store().buffer_pool().reset_stats();
        assert!(e.evaluation(DocId(0), q, None).unwrap().is_some());
        let b = e.store().stats().buffer;
        assert!(b.hits + b.misses < total / 2, "{q} touched {b:?}");
        // A value past its deadline stops its path at the first batch.
        let touched = |deadline: Option<Instant>| {
            e.store().buffer_pool().reset_stats();
            let evaluated = e.evaluation(DocId(0), "sum(//e)", deadline).unwrap();
            assert_eq!(evaluated.is_some(), deadline.is_none());
            let b = e.store().stats().buffer;
            b.hits + b.misses
        };
        let (all, cut) = (touched(None), touched(Some(Instant::now())));
        assert!(cut * 10 < all, "{cut} of {all} pages");
    }

    #[test]
    fn count_fast_path_matches_execution() {
        let e = engine();
        let doc = DocId(0);
        let num = |q: &str| match e.evaluate(doc, q).unwrap() {
            Value::Num(n) => n,
            other => panic!("{q}: {other:?}"),
        };
        // A bare descendant step is counted in the name index: no page read.
        e.store().buffer_pool().reset_stats();
        assert_eq!(num("count(//person)"), 3.0);
        let pool = e.store().buffer_pool().stats();
        assert_eq!((pool.hits, pool.misses), (0, 0), "{pool:?}");
        // Other paths are pulled and counted, with the same answers as
        // their node-sets.
        for (q, expect) in [
            ("count(//watch)", 2.0),
            ("count(//@id)", 3.0),
            ("count(//person[address])", 1.0),
            ("count(//watch/ancestor::*)", 4.0),
            ("count(/site//person/descendant-or-self::person)", 3.0),
        ] {
            assert_eq!(num(q), expect, "{q}");
            let path = &q["count(".len()..q.len() - 1];
            assert_eq!(e.query_doc(doc, path).unwrap().len() as f64, expect, "{q}");
        }
        // Per outer tuple the index counts from the tuple: the counted step
        // is never pulled.
        let q = "//person[count(.//watch) = 2]";
        let a = e.analyze_doc(doc, q).unwrap();
        assert_eq!(a.rows, 1);
        let counted = a.plan.live_ops().into_iter().find(|&id| {
            matches!(a.plan.op(id), Operator::Step { test: crate::plan::TestSpec::Named(n), .. } if &**n == "watch")
        });
        let pulls = a.actuals.op(counted.unwrap()).unwrap().invocations;
        assert_eq!(pulls, 0, "{}", a.render_report());
        // A descendant count leaves its anchor out; `-or-self` counts it.
        for q in [
            "//watch[count(.//watch) = 0]",
            "//watch[count(descendant-or-self::watch) = 1]",
        ] {
            assert_eq!(e.query_doc(doc, q).unwrap().len(), 2, "{q}");
        }
    }

    #[test]
    fn no_documents_is_an_error() {
        let e = Engine::new(MassStore::open_memory());
        assert!(matches!(e.query("//a"), Err(EngineError::NoDocuments)));
    }

    #[test]
    fn repeated_queries_are_answered_from_the_memo() {
        let e = engine();
        let doc = DocId(0);
        let cold = e.query_doc(doc, "//name").unwrap();
        let warm = e.query_doc(doc, "//name").unwrap(); // second answer is kept
        assert_eq!(e.views().stats().views, 1);
        let hot = e.query_doc(doc, "//name").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, hot);
        let stats = e.views().stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
        assert_eq!(e.views().counters(), (2, 1));
    }

    /// `n` persons, each with an id, a name and a city. At 3 000 a page
    /// holds ≈ 800 tuples, the slack of a count's magnitude, over enough
    /// pages that a split barely moves it.
    fn people(n: usize) -> Engine {
        let mut xml = String::from("<site><people>");
        for i in 0..n {
            xml.push_str(&format!(
                "<person id='p{i}'><name>Person number {i}</name><city>C{}</city></person>",
                i % 7
            ));
        }
        xml.push_str("</people></site>");
        let mut store = MassStore::open_memory();
        store.load_xml("people", &xml).unwrap();
        Engine::new(store)
    }

    fn insert(target: &str, fragment: &str) -> UpdateOp {
        UpdateOp::Insert {
            target: target.into(),
            fragment: fragment.into(),
        }
    }

    #[test]
    fn plans_survive_writes_until_an_option_change() {
        let mut e = people(3000);
        let doc = DocId(0);
        let q = "//person[city != 'C3']/name";
        let first = e.lookup(doc, q).unwrap();
        assert!(!first.cached);
        let again = e.lookup(doc, q).unwrap();
        assert!(again.cached && again.answer.is_none());
        assert!(Arc::ptr_eq(&first.plan, &again.plan));
        assert_eq!(e.query_doc(doc, q).unwrap().len(), 2571);
        assert_eq!(e.views().len(), 1);

        let fragment = "<person id='p3000'><name>Dee</name><city>C0</city></person>";
        e.apply_update(doc, &insert("//people", fragment)).unwrap();
        assert_eq!(e.views().len(), 1, "a write keeps the document's plans");
        let after = e.lookup(doc, q).unwrap();
        assert!(after.cached && after.answer.is_none());
        assert!(Arc::ptr_eq(&first.plan, &after.plan));
        assert_eq!(e.query_doc(doc, q).unwrap().len(), 2572);
        assert_eq!(e.views().replans(), 0);

        e.options_mut().optimize = false;
        assert!(e.views().is_empty(), "an option change drops every plan");
        assert_eq!(e.query_doc(doc, q).unwrap().len(), 2572);
    }

    #[test]
    fn a_count_that_changes_magnitude_replans() {
        let mut e = people(3000);
        let doc = DocId(0);
        let q = "//person[notes/note]/name";
        assert!(e.query_doc(doc, q).unwrap().is_empty());
        // One note is not a new magnitude; two thousand are.
        e.apply_update(doc, &insert("//person[@id='p7']", "<notes><note/></notes>"))
            .unwrap();
        assert!(e.lookup(doc, q).unwrap().cached);
        let notes = format!("<notes>{}</notes>", "<note/>".repeat(2000));
        e.apply_update(doc, &insert("//person[@id='p8']", &notes))
            .unwrap();
        let found = e.lookup(doc, q).unwrap();
        assert!(!found.cached && !found.bound);
        assert_eq!(e.views().replans(), 1);
        assert_eq!(e.views().len(), 1);
        let fresh = e.optimize_plan(e.compile(q).unwrap(), doc).unwrap().plan;
        assert_eq!(*found.plan, fresh);
        assert_eq!(e.query_doc(doc, q).unwrap().len(), 2);
        assert!(e.lookup(doc, q).unwrap().cached);
    }

    #[test]
    fn update_targets_bind_into_their_shapes_template_and_add_no_entry() {
        let mut e = people(3000);
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        // `<note/>` is a child of a person, so the first read sees it; the
        // second selects no note, so its answer is carried across it.
        let (read, carried) = ("//person/*", "//person/name");
        assert_eq!(e.query_doc(doc, read).unwrap().len(), 6000);
        let names = e.query_doc(doc, carried).unwrap();
        let entries = e.views().len();
        const N: u64 = 6;
        for i in 0..N {
            // Targets of one shape: the first compiles, the rest bind.
            let target = format!("//person[@id='p{}']", i % 4);
            let outcome = e.apply_update(doc, &insert(&target, "<note/>")).unwrap();
            assert_eq!(outcome.matched, 1);
            assert_eq!(e.views().len(), entries, "write {i} added an entry");
            // The first read after the write finds the plan, not an answer.
            let found = e.lookup(doc, read).unwrap();
            assert!(found.cached && found.answer.is_none(), "write {i}");
            e.query_doc(doc, read).unwrap();
            assert!(e.lookup(doc, read).unwrap().answer.is_some());
            // The other finds the answer it kept before the write.
            let found = e.lookup(doc, carried).unwrap();
            assert_eq!(found.answer.as_deref(), Some(&names), "write {i}");
        }
        assert_eq!(e.views().stats().carried, N);
        assert_eq!(e.views().binds(), N - 1);
        assert_eq!(e.views().shapes(), 1);
        assert_eq!(e.views().replans(), 0);
        assert_eq!(e.query_doc(doc, "//person/note").unwrap().len(), N as usize);
    }

    #[test]
    fn a_new_literal_is_bound_into_its_shapes_plan() {
        let e = engine();
        let doc = DocId(0);
        let first = e.lookup(doc, "//person[@id='p1']/name").unwrap();
        assert!(!first.cached && !first.bound);
        // One shape: other literals, other quotes and spacing. Each text is
        // bound, equals what optimizing it gives, and is kept under itself.
        for q in ["//person[ @id = \"p2\" ]/name", "//person[@id='p0']/name"] {
            let found = e.lookup(doc, q).unwrap();
            assert!(found.bound && !found.cached, "{q}");
            let fresh = e.optimize_plan(e.compile(q).unwrap(), doc).unwrap().plan;
            assert_eq!(*found.plan, fresh, "{q}");
            assert!(e.lookup(doc, q).unwrap().cached, "{q}");
        }
        assert_eq!(e.views().binds(), 2);
        assert_eq!(e.views().shapes(), 1);
        // An absent literal is bound too, and answers nothing.
        assert!(e.lookup(doc, "//person[@id='p9']/name").unwrap().bound);
        assert!(e
            .query_doc(doc, "//person[@id='p9']/name")
            .unwrap()
            .is_empty());
        // Numbers are part of the shape.
        assert!(!e.lookup(doc, "//watches/watch[1]").unwrap().bound);
        assert!(!e.lookup(doc, "//watches/watch[2]").unwrap().bound);
    }

    #[test]
    fn a_literal_of_another_magnitude_gets_its_own_template() {
        // `x` is the value of 2 000 text nodes and of one `k`; `u0`…`u5` of
        // one `k` each. Items are few, so `[@k='x']` is best filtered in
        // place and `[@k='u0']` read from the value index.
        let mut xml = String::from("<r>");
        for i in 0..6 {
            xml.push_str(&format!("<item k='u{i}'/>"));
        }
        xml.push_str(&format!("<item k='x'/>{}</r>", "<t>x</t>".repeat(2000)));
        let mut store = MassStore::open_memory();
        store.load_xml("d", &xml).unwrap();
        let mut e = Engine::new(store);
        let doc = DocId(0);
        let indexed = |plan: &QueryPlan| {
            plan.live_ops()
                .iter()
                .any(|&id| matches!(plan.op(id), Operator::ValueStep { .. }))
        };
        // The common literal first: its plan is no template for the rare
        // ones, which get their own.
        let common = e.lookup(doc, "//item[@k='x']").unwrap();
        assert!(!common.bound && !indexed(&common.plan));
        assert_eq!(e.query_doc(doc, "//item[@k='x']").unwrap().len(), 1);
        let rare = e.lookup(doc, "//item[@k='u0']").unwrap();
        assert!(!rare.bound && indexed(&rare.plan));
        for q in ["//item[@k='u1']", "//item[@k='u2']", "//item[@k='u3']"] {
            let found = e.lookup(doc, q).unwrap();
            assert!(found.bound && indexed(&found.plan), "{q}");
            let fresh = e.optimize_plan(e.compile(q).unwrap(), doc).unwrap().plan;
            assert_eq!(*found.plan, fresh, "{q}");
        }
        assert_eq!(e.views().shapes(), 2);
        assert_eq!(e.views().binds(), 3);
        // A write that multiplies the items moves a count the templates
        // were priced on: the next text is optimized on the new counts, the
        // one after bound to it.
        let items = format!("<more>{}</more>", "<item/>".repeat(3000));
        e.apply_update(doc, &insert("/r", &items)).unwrap();
        assert!(!e.lookup(doc, "//item[@k='u4']").unwrap().bound);
        let found = e.lookup(doc, "//item[@k='u5']").unwrap();
        assert!(found.bound);
        let fresh = e.optimize_plan(e.compile("//item[@k='u5']").unwrap(), doc);
        assert_eq!(*found.plan, fresh.unwrap().plan);
        assert_eq!(e.views().binds(), 4);
        assert_eq!(e.query_doc(doc, "//item[@k='u5']").unwrap().len(), 1);
        e.options_mut().optimize = false;
        assert_eq!(e.views().shapes(), 0, "an option change drops templates");
    }

    #[test]
    fn any_query_is_kept_on_its_second_computation() {
        let e = engine();
        let doc = DocId(0);
        for (i, q) in [
            "//person[@id='p1']/name",            // value comparison
            "//name/parent::person",              // reverse axis
            "//watch[1]",                         // position
            "//watch[last()]",                    // positional function
            "//name | //province",                // union
            "//person[count(watches/watch) = 2]", // function
        ]
        .into_iter()
        .enumerate()
        {
            let plan = e.optimize_plan(e.compile(q).unwrap(), doc).unwrap().plan;
            let fresh = e.execute_plan(&plan, doc).unwrap();
            assert!(!fresh.is_empty(), "{q}");
            for run in 0..2 {
                assert_eq!(e.query_doc(doc, q).unwrap(), fresh, "{q} run {run}");
                assert_eq!(e.views().stats().views, (i + run) as u64, "{q} run {run}");
            }
            let third = e.lookup(doc, q).unwrap().answer;
            assert_eq!(third.as_deref(), Some(&fresh), "{q}: not answered");
        }
    }

    #[test]
    fn update_invalidates_views() {
        let mut e = engine();
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        assert_eq!(e.query_doc(doc, "//name").unwrap().len(), 3);
        assert_eq!(e.views().stats().views, 1);
        e.apply_update(
            doc,
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person id='p3'><name>Dee</name></person>".into(),
            },
        )
        .unwrap();
        let stats = e.views().stats();
        assert_eq!(stats.views, 0, "{stats:?}");
        assert!(stats.evictions >= 1, "{stats:?}");
        assert_eq!(e.query_doc(doc, "//name").unwrap().len(), 4);
    }

    #[test]
    fn analyze_runs_the_plan_when_the_memo_holds_the_answer() {
        let mut e = engine();
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        e.query_doc(doc, "//name").unwrap();
        assert_eq!(e.views().stats().views, 1);
        let a = e.analyze_doc(doc, "//name").unwrap();
        assert_eq!(a.rows, 3);
        let top = a.plan.top().unwrap();
        assert_eq!(a.actuals.op(top).map(|act| act.rows), Some(3));
        assert_eq!(e.views().stats().hits, 0);
    }

    #[test]
    fn node_tests_select_the_document_node() {
        // XPath 1.0: `node()` matches any node, the document node included;
        // the default plan of `//site` (`descendant-or-self::node()/
        // child::site`) reaches the root element through it. The document
        // node has no siblings, though other documents follow its key.
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        store.load_xml("next", "<r/>").unwrap();
        let mut e = Engine::new(store);
        for optimize in [true, false] {
            e.options_mut().optimize = optimize;
            for (q, rows) in [
                ("/self::node()", [1, 1]),
                ("//site", [1, 0]),
                ("//r", [0, 1]),
                ("//descendant::site", [1, 0]),
                ("/site/parent::node()", [1, 0]),
                ("//province/ancestor::node()", [5, 0]),
                ("/following-sibling::node()", [0, 0]),
                ("/preceding-sibling::node()", [0, 0]),
            ] {
                for (doc, want) in [DocId(0), DocId(1)].into_iter().zip(rows) {
                    assert_eq!(e.query_doc(doc, q).unwrap().len(), want, "{q} on {doc:?}");
                }
            }
            let top = e.query_doc(DocId(0), "/self::node()").unwrap();
            assert_eq!(top[0].kind, RecordKind::Document);
        }
    }

    #[test]
    fn multiple_documents_queried_in_order() {
        let mut store = MassStore::open_memory();
        store.load_xml("a", "<r><x>1</x></r>").unwrap();
        store.load_xml("b", "<r><x>2</x><x>3</x></r>").unwrap();
        let e = Engine::new(store);
        let r = e.query("//x").unwrap();
        assert_eq!(e.string_values(&r).unwrap(), vec!["1", "2", "3"]);
        let r = e.query_doc(DocId(1), "//x").unwrap();
        assert_eq!(r.len(), 2);
    }
}
