//! The pipelined, iterative query execution engine (paper §VII).
//!
//! Execution is pull-based along the context path: each operator is a
//! cursor in one of the paper's three states — INITIAL, FETCHING,
//! OUT_OF_TUPLES (Algorithm 1/2). There is one pull,
//! `next_batch(env, out, max)`: append up to `max` tuples to `out`; a
//! short count means the cursor is exhausted, and it stays exhausted.
//! The paper's tuple-at-a-time `next()` is the `max = 1` case, and a
//! cursor never asks its context for more tuples than it was asked for
//! itself, so a one-row pull does one row's work all the way down.
//! Tuples are FLEX-keyed [`NodeEntry`]s; node values are fetched lazily
//! only when a predicate or the caller actually needs them.
//!
//! Predicate trees re-run per tuple with dynamically set context
//! (paper §V-B): leaf steps with [`ContextSource::OuterTuple`] anchor at
//! the tuple under test; absolute paths anchor back at the query root.

pub mod parallel;
pub mod stats;
pub mod value;

use crate::error::{EngineError, Result};
use crate::plan::{ArithOp, BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use stats::{ExecStats, OrderVerdict};
use value::Value;
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{AxisStream, KindFilter, NodeFilter};
use vamana_mass::name_index::NO_FINGER;
use vamana_mass::{MassStore, NameId, NodeEntry, RecordKind};

/// Tuples per pull when the caller wants everything. Large enough to
/// amortize per-pull dispatch to noise, small enough that a batch of
/// entries (key bytes included) stays within L1/L2 cache.
pub const BATCH_SIZE: usize = 256;

/// The paper's operator states (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Not yet asked for a tuple.
    Initial,
    /// Producing tuples.
    Fetching,
    /// Exhausted.
    OutOfTuples,
}

/// Execution environment shared by all operator cursors of one run.
///
/// Two lifetimes keep the plan borrow (`'p`) independent from the store
/// borrow (`'s`): operator cursors only capture store references, so an
/// owning [`crate::engine::QueryStream`] can hold the plan itself and
/// hand out a fresh `Env` per pull.
#[derive(Clone, Copy)]
pub struct Env<'p, 's> {
    /// The plan being executed.
    pub plan: &'p QueryPlan,
    /// The store.
    pub store: &'s MassStore,
    /// The query root context (document node), set by the engine before
    /// execution begins (§V-B).
    pub root_ctx: &'p NodeEntry,
    /// Per-operator actuals collector for `EXPLAIN ANALYZE`. `None` on
    /// the normal query path — cursors then touch no counters at all.
    pub stats: Option<&'p ExecStats>,
}

impl<'p, 's> Env<'p, 's> {
    fn node_filter(&self, axis: Axis, test: &TestSpec) -> Option<NodeFilter> {
        // `None` means "provably empty" (unknown name).
        Some(match test {
            TestSpec::Named(name) => {
                let id = self.store.name_id(name)?;
                if axis.principal_is_attribute() {
                    NodeFilter::attribute(id)
                } else {
                    NodeFilter::element(id)
                }
            }
            TestSpec::Wildcard => {
                if axis.principal_is_attribute() {
                    NodeFilter {
                        kind: KindFilter::Attribute,
                        name: None,
                    }
                } else {
                    NodeFilter::any_element()
                }
            }
            TestSpec::AnyNode => NodeFilter::any(),
            TestSpec::Text => NodeFilter::text(),
            TestSpec::Comment => NodeFilter {
                kind: KindFilter::Comment,
                name: None,
            },
            TestSpec::Pi(target) => NodeFilter {
                kind: KindFilter::Pi,
                name: target.as_ref().and_then(|t| self.store.name_id(t)),
            },
        })
    }
}

/// Makes a tuple sequence a node-set — document order, each node once
/// (XPath node-set semantics) — and is the one place that does.
///
/// `ordered` is the caller's knowledge that the sequence already is one
/// ([`QueryPlan::emits_in_order`] and a witness that held, see
/// [`OpIter::order_broken`]): nothing is done then, and a debug build
/// checks the claim, so every debug test run proves it of every result
/// it produces. Without it the sequence is sorted and deduplicated.
pub fn finish_node_set(out: &mut Vec<NodeEntry>, ordered: bool) {
    if ordered {
        debug_assert!(
            out.windows(2).all(|w| w[0].key < w[1].key),
            "a sequence claimed to be in document order is not"
        );
    } else {
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out.dedup_by(|a, b| a.key == b.key);
    }
}

/// Runs `plan` to completion, returning the result node-set: document
/// order, duplicates removed (XPath node-set semantics). A plan that
/// emits in that order ([`QueryPlan::emits_in_order`]) is sorted only if
/// its output step met contexts that nest ([`OpIter::order_broken`]).
///
/// Leaf operators with [`ContextSource::OuterTuple`] anchor at `outer` —
/// the paper's §VII hook for XQuery: "the context node could be provided
/// from another XPath expression".
///
/// When `par` is provided (engine gating: a second thread to give, a
/// plan the optimizer found eligible, top-level run), the plan's output
/// step is sized at this point and fans out over the engine's scan pool
/// if it is above the break-even; otherwise it runs serially. Output is
/// identical in all cases — parallelism only reorders *work*, never
/// tuples.
pub fn run_plan(
    env: Env<'_, '_>,
    outer: Option<&NodeEntry>,
    par: Option<&parallel::ParallelHooks>,
) -> Result<Vec<NodeEntry>> {
    let Some(top) = env.plan.top() else {
        return Ok(Vec::new());
    };
    let started = env.stats.map(|_| std::time::Instant::now());
    let mut iter = match par {
        Some(hooks) if outer.is_none() => match parallel::build_parallel(env, top, hooks)? {
            Some(it) => it,
            None => build_iter(env, top, outer)?,
        },
        _ => build_iter(env, top, outer)?,
    };
    let mut out = Vec::new();
    while iter.next_batch(env, &mut out, BATCH_SIZE)? == BATCH_SIZE {}
    let by_construction = env.plan.emits_in_order();
    let witness_tripped = by_construction && iter.order_broken();
    let ordered = by_construction && !witness_tripped;
    let pulled = out.len() as u64;
    let sort_started = env.stats.map(|_| std::time::Instant::now());
    finish_node_set(&mut out, ordered);
    if let Some(stats) = env.stats {
        stats.set_order(OrderVerdict {
            by_construction,
            witness_tripped,
            sorted_rows: if ordered { 0 } else { pulled },
            duplicates: pulled - out.len() as u64,
            sort_nanos: sort_started.map_or(0, |t| t.elapsed().as_nanos() as u64),
        });
        // The root operator's actuals are the run's: post-dedup output
        // cardinality and the whole run's wall time. Guarded so a plan
        // whose root *is* the top step does not double-count.
        let root = env.plan.root();
        if matches!(env.plan.op(root), Operator::Root { .. }) {
            stats.add_invocation(root);
            stats.add_rows(root, out.len() as u64);
            if let Some(t0) = started {
                stats.add_nanos(root, t0.elapsed().as_nanos() as u64);
            }
        }
    }
    Ok(out)
}

/// One operator cursor.
pub enum OpIter<'s> {
    /// Yields a single anchored context tuple (leaf context source).
    Anchor(Option<NodeEntry>),
    /// A step operator.
    Step(Box<StepIter<'s>>),
    /// A value-index step.
    ValueStep(Box<ValueStepIter<'s>>),
    /// Set union: left stream then right stream (dedup happens at the
    /// top under set semantics). Carries its plan [`OpId`] so analyze
    /// runs can attribute the merged output.
    Union(OpId, Box<OpIter<'s>>, Box<OpIter<'s>>),
    /// Tuples already in hand: a value semi-join's or a filter's output,
    /// or the context list the parallel gate sized and kept serial.
    Join(std::vec::IntoIter<NodeEntry>),
    /// Morsel-parallel scan with ordered merge: the calling thread scans
    /// through this borrow, pool workers through `Arc` clones of the store.
    Parallel(Box<parallel::ParallelIter<'s>>),
    /// Scan over a materialized view's cached result set (already in
    /// document order, deduplicated). Carries its plan [`OpId`] and a
    /// cursor position into the shared entry vector.
    View {
        /// The `ViewScan` operator this cursor executes.
        op: OpId,
        /// The view's materialized entries.
        entries: std::sync::Arc<Vec<NodeEntry>>,
        /// Next entry to yield.
        pos: usize,
    },
}

/// Builds the cursor tree for a node-set operator. `outer` is the tuple
/// being filtered when inside a predicate path.
pub fn build_iter<'s>(env: Env<'_, 's>, id: OpId, outer: Option<&NodeEntry>) -> Result<OpIter<'s>> {
    match env.plan.op(id) {
        Operator::Step {
            axis,
            test,
            context,
            source,
            predicates,
        } => {
            let ctx_iter = match context {
                Some(c) => build_iter(env, *c, outer)?,
                None => OpIter::Anchor(Some(anchor_for(env, *source, outer))),
            };
            Ok(OpIter::Step(Box::new(StepIter::new(
                env.store,
                id,
                *axis,
                // Resolve the node test once — an unknown name means the
                // step is provably empty for every context.
                env.node_filter(*axis, test),
                predicates.clone(),
                ctx_iter,
            ))))
        }
        Operator::RangeStep {
            context, source, ..
        }
        | Operator::ValueStep {
            context, source, ..
        } => {
            let ctx_iter = match context {
                Some(c) => build_iter(env, *c, outer)?,
                None => OpIter::Anchor(Some(anchor_for(env, *source, outer))),
            };
            Ok(OpIter::ValueStep(Box::new(ValueStepIter {
                op: id,
                context: ctx_iter,
                state: OpState::Initial,
                ctx: Vec::new(),
                buffer: Vec::new(),
                buffer_pos: 0,
            })))
        }
        Operator::Union { left, right } => Ok(OpIter::Union(
            id,
            Box::new(build_iter(env, *left, outer)?),
            Box::new(build_iter(env, *right, outer)?),
        )),
        Operator::Filter { input, predicates } => {
            // Whole-node-set positional filtering: materialize the input
            // in document order (deduplicated), then filter.
            let mut group = drain_set(env, build_iter(env, *input, outer)?)?;
            let mut probes = Probes::default();
            for pred in predicates {
                group = apply_predicate(env, *pred, group, false, &mut probes)?;
            }
            if let Some(stats) = env.stats {
                stats.add_invocation(id);
                stats.add_rows(id, group.len() as u64);
            }
            Ok(OpIter::Join(group.into_iter()))
        }
        Operator::Join { op, left, right } => {
            let lefts = drain(env, build_iter(env, *left, outer)?)?;
            let mut rights = Vec::new();
            for t in drain(env, build_iter(env, *right, outer)?)? {
                rights.push(value::node_string_value(env.store, &t)?);
            }
            let mut out = Vec::new();
            for t in lefts {
                let lv = value::node_string_value(env.store, &t)?;
                let hit = rights.iter().any(|rv| {
                    let l = Value::Str(lv.clone());
                    let r = Value::Str(rv.clone());
                    value::compare(env.store, *op, &l, &r).unwrap_or(false)
                });
                if hit {
                    out.push(t);
                }
            }
            if let Some(stats) = env.stats {
                stats.add_invocation(id);
                stats.add_rows(id, out.len() as u64);
            }
            Ok(OpIter::Join(out.into_iter()))
        }
        Operator::ViewScan { entries, .. } => Ok(OpIter::View {
            op: id,
            entries: std::sync::Arc::clone(entries),
            pos: 0,
        }),
        other => Err(EngineError::Unsupported(format!(
            "operator {other:?} cannot produce a node-set stream"
        ))),
    }
}

/// Everything `iter` has left, in pipeline order.
fn drain<'s>(env: Env<'_, 's>, mut iter: OpIter<'s>) -> Result<Vec<NodeEntry>> {
    let mut nodes = Vec::new();
    iter.next_batch(env, &mut nodes, usize::MAX)?;
    Ok(nodes)
}

/// Drains `iter` into a node-set: document order, duplicates removed.
fn drain_set<'s>(env: Env<'_, 's>, iter: OpIter<'s>) -> Result<Vec<NodeEntry>> {
    let mut nodes = drain(env, iter)?;
    finish_node_set(&mut nodes, false);
    Ok(nodes)
}

fn anchor_for(env: Env<'_, '_>, source: ContextSource, outer: Option<&NodeEntry>) -> NodeEntry {
    match (source, outer) {
        (ContextSource::OuterTuple, Some(t)) => t.clone(),
        _ => env.root_ctx.clone(),
    }
}

impl<'s> OpIter<'s> {
    /// The run-time half of [`QueryPlan::emits_in_order`], asked of the
    /// plan's output cursor once it is drained (or of what it has yielded
    /// so far): whether that is *not* one strictly ascending sequence
    /// after all.
    ///
    /// A downward step's output lies in its contexts' subtrees, so it
    /// ascends exactly when the contexts arrive one whole subtree after
    /// another — a fact about the data (`a` inside `a`) and about
    /// whatever produced the contexts, which no plan shape settles. The
    /// step's stream watches for it as it is re-opened
    /// ([`AxisStream::nested`]); a fanned-out scan checked its context
    /// list when it was cut. Nothing below the output step needs asking:
    /// disorder there either shows in the contexts it hands up or does
    /// not reach the output.
    pub fn order_broken(&self) -> bool {
        match self {
            OpIter::Step(s) => s.stream.as_ref().is_some_and(AxisStream::nested),
            OpIter::Parallel(p) => p.order_broken,
            // One anchor; a set kept sorted; a leaf's index run.
            OpIter::Anchor(_) | OpIter::View { .. } | OpIter::ValueStep(_) => false,
            OpIter::Union(..) | OpIter::Join(_) => true,
        }
    }

    /// Pulls up to `max` tuples into `out`, returning how many were
    /// appended. A short (or zero) count means the operator is exhausted.
    pub fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        match self {
            OpIter::Anchor(item) => {
                if max > 0 {
                    if let Some(t) = item.take() {
                        out.push(t);
                        return Ok(1);
                    }
                }
                Ok(0)
            }
            OpIter::Step(s) => s.next_batch(env, out, max),
            OpIter::ValueStep(s) => s.next_batch(env, out, max),
            OpIter::Union(id, l, r) => {
                // Left stream first; a short left batch means the left
                // side is exhausted, so top up from the right.
                let mut n = l.next_batch(env, out, max)?;
                if n < max {
                    n += r.next_batch(env, out, max - n)?;
                }
                if let Some(stats) = env.stats {
                    stats.add_invocation(*id);
                    stats.add_rows(*id, n as u64);
                }
                Ok(n)
            }
            OpIter::Join(items) => {
                let start = out.len();
                out.extend(items.by_ref().take(max));
                Ok(out.len() - start)
            }
            OpIter::Parallel(p) => match env.stats {
                None => p.next_batch(out, max),
                Some(stats) => {
                    // The merge point sees every tuple regardless of
                    // which worker produced it, so attributing rows here
                    // matches the serial pipeline's totals exactly; the
                    // pool delta credits worker page traffic to the scan.
                    let (p0, pin0) = env.store.buffer_pool().probe_pin_counts();
                    let t0 = std::time::Instant::now();
                    let n = p.next_batch(out, max)?;
                    let (p1, pin1) = env.store.buffer_pool().probe_pin_counts();
                    stats.add_invocation(p.op);
                    stats.add_rows(p.op, n as u64);
                    stats.add_nanos(p.op, t0.elapsed().as_nanos() as u64);
                    stats.add_probe_pins(p.op, p1.saturating_sub(p0), pin1.saturating_sub(pin0));
                    Ok(n)
                }
            },
            OpIter::View { op, entries, pos } => {
                let t0 = env.stats.map(|_| std::time::Instant::now());
                let end = pos.saturating_add(max).min(entries.len());
                let n = end - *pos;
                out.extend_from_slice(&entries[*pos..end]);
                *pos = end;
                if let Some(stats) = env.stats {
                    stats.add_invocation(*op);
                    stats.add_rows(*op, n as u64);
                    if let Some(t0) = t0 {
                        stats.add_nanos(*op, t0.elapsed().as_nanos() as u64);
                    }
                }
                Ok(n)
            }
        }
    }
}

/// Cursor for a step operator — Algorithm 1 of the paper.
pub struct StepIter<'s> {
    /// The plan operator this cursor executes (analyze attribution).
    op: OpId,
    axis: Axis,
    predicates: Vec<OpId>,
    context: OpIter<'s>,
    /// Paper state machine.
    state: OpState,
    /// Context tuples pulled but not yet opened (reused between pulls);
    /// `contexts[ctx_pos - 1]` is the current one.
    contexts: Vec<NodeEntry>,
    ctx_pos: usize,
    /// The step's axis stream, re-opened on one context after another: it
    /// is the step's finger into the posting list of its node test and
    /// into the clustered index, and the witness of its contexts' order
    /// ([`AxisStream`]). `None` when the node test names nothing.
    stream: Option<AxisStream<'s>>,
    /// Rows of the current context come straight from `stream` (no
    /// predicates), and it may have more.
    streaming: bool,
    /// Filtered group of the current context (predicate path).
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
    /// Probe state of this step's exist-predicates.
    probes: Probes,
}

impl<'s> StepIter<'s> {
    /// A step cursor in its initial state over the `context` cursor.
    fn new(
        store: &'s MassStore,
        op: OpId,
        axis: Axis,
        filter: Option<NodeFilter>,
        predicates: Vec<OpId>,
        context: OpIter<'s>,
    ) -> Self {
        StepIter {
            op,
            axis,
            predicates,
            context,
            state: OpState::Initial,
            contexts: Vec::new(),
            ctx_pos: 0,
            stream: filter.map(|filter| AxisStream::new(store, axis, filter)),
            streaming: false,
            buffer: Vec::new(),
            buffer_pos: 0,
            probes: Probes::default(),
        }
    }

    /// `GetNextContext()` — Algorithm 2: moves to the next context tuple
    /// and opens its axis stream (or filtered group). When the pulled
    /// contexts are used up it pulls at most `budget` more — the rows
    /// this step still owes its caller — so a one-row pull never makes
    /// the context path produce more than one tuple.
    fn next_context(&mut self, env: Env<'_, 's>, budget: usize) -> Result<bool> {
        if self.ctx_pos == self.contexts.len() {
            self.contexts.clear();
            self.ctx_pos = 0;
            self.context
                .next_batch(env, &mut self.contexts, budget.min(BATCH_SIZE))?;
            if self.contexts.is_empty() {
                self.state = OpState::OutOfTuples;
                if let Some(stream) = &mut self.stream {
                    stream.release();
                }
                return Ok(false);
            }
        }
        let ctx = &self.contexts[self.ctx_pos];
        self.ctx_pos += 1;
        self.state = OpState::Fetching;
        self.streaming = false;
        self.buffer.clear();
        self.buffer_pos = 0;
        // Unknown name: provably empty for every context.
        let Some(stream) = &mut self.stream else {
            return Ok(true);
        };
        stream.open(&ctx.key, ctx.kind)?;
        if self.predicates.is_empty() {
            self.streaming = true;
        } else {
            // Materialize the group so position()/last() are available,
            // then filter through each predicate in order.
            let mut group = std::mem::take(&mut self.buffer);
            stream.next_batch(&mut group, usize::MAX)?;
            for pred in &self.predicates {
                let reverse = self.axis.is_reverse();
                group = apply_predicate(env, *pred, group, reverse, &mut self.probes)?;
            }
            self.buffer = group;
        }
        Ok(true)
    }

    /// The paper's INITIAL/FETCHING/OUT_OF_TUPLES machine advanced under
    /// a row budget. Without predicates the rows come straight from the
    /// axis stream, so page pinning and record decoding are amortized in
    /// `vamana-mass`; with predicates the group is materialized per
    /// context (position()/last() need the whole group) and copied out in
    /// chunks. One pull may span several contexts.
    fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let Some(stats) = env.stats else {
            return self.next_batch_inner(env, out, max);
        };
        // Inclusive attribution per pull: the pool delta and the clock
        // cover the context pulls made during it.
        let (p0, pin0) = env.store.buffer_pool().probe_pin_counts();
        let t0 = std::time::Instant::now();
        let got = self.next_batch_inner(env, out, max)?;
        let (p1, pin1) = env.store.buffer_pool().probe_pin_counts();
        stats.add_invocation(self.op);
        stats.add_rows(self.op, got as u64);
        stats.add_nanos(self.op, t0.elapsed().as_nanos() as u64);
        stats.add_probe_pins(self.op, p1.saturating_sub(p0), pin1.saturating_sub(pin0));
        Ok(got)
    }

    fn next_batch_inner(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        loop {
            let want = max - (out.len() - start);
            if want == 0 || self.state == OpState::OutOfTuples {
                return Ok(out.len() - start);
            }
            if let (true, Some(stream)) = (self.streaming, &mut self.stream) {
                // A full count may leave more behind; a short one cannot
                // (the `next_batch` contract), so the context is
                // exhausted without another probe.
                if stream.next_batch(out, want)? >= want {
                    continue;
                }
            } else if self.buffer_pos < self.buffer.len() {
                let take = (self.buffer.len() - self.buffer_pos).min(want);
                out.extend_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + take]);
                self.buffer_pos += take;
                continue;
            }
            // INITIAL, or the current context is exhausted.
            self.next_context(env, want)?;
        }
    }
}

/// Cursor for the value-index steps (`φ value::'v'` and its numeric
/// range form).
pub struct ValueStepIter<'s> {
    op: OpId,
    context: OpIter<'s>,
    state: OpState,
    /// The current context tuple (a reused one-slot pull buffer).
    ctx: Vec<NodeEntry>,
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
}

impl<'s> ValueStepIter<'s> {
    /// Drains the current context's value-index hits in chunks and
    /// refills from the next context when they run dry.
    fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let Some(stats) = env.stats else {
            return self.next_batch_inner(env, out, max);
        };
        let (p0, pin0) = env.store.buffer_pool().probe_pin_counts();
        let t0 = std::time::Instant::now();
        let got = self.next_batch_inner(env, out, max)?;
        let (p1, pin1) = env.store.buffer_pool().probe_pin_counts();
        stats.add_invocation(self.op);
        stats.add_rows(self.op, got as u64);
        stats.add_nanos(self.op, t0.elapsed().as_nanos() as u64);
        stats.add_probe_pins(self.op, p1.saturating_sub(p0), pin1.saturating_sub(pin0));
        Ok(got)
    }

    fn next_batch_inner(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        loop {
            let produced = out.len() - start;
            if produced >= max || self.state == OpState::OutOfTuples {
                return Ok(produced);
            }
            if self.buffer_pos < self.buffer.len() {
                let take = (self.buffer.len() - self.buffer_pos).min(max - produced);
                out.extend_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + take]);
                self.buffer_pos += take;
                continue;
            }
            self.refill(env)?;
        }
    }

    /// Pulls the next context tuple and rebuilds the value-index buffer
    /// for it; flips to OUT_OF_TUPLES when the context stream is
    /// exhausted.
    fn refill(&mut self, env: Env<'_, 's>) -> Result<()> {
        self.ctx.clear();
        if self.context.next_batch(env, &mut self.ctx, 1)? == 0 {
            self.state = OpState::OutOfTuples;
            return Ok(());
        }
        let ctx = &self.ctx[0];
        self.state = OpState::Fetching;
        enum Source {
            Eq(Box<str>, Option<bool>),
            Range(crate::plan::RangeCmp, f64, bool),
        }
        let (source, attr_name) = match env.plan.op(self.op) {
            Operator::ValueStep {
                value,
                text_only,
                attr_name,
                ..
            } => (Source::Eq(value.clone(), *text_only), attr_name.clone()),
            Operator::RangeStep {
                op,
                bound,
                text_only,
                attr_name,
                ..
            } => (Source::Range(*op, *bound, *text_only), attr_name.clone()),
            _ => unreachable!("ValueStepIter over non-value-step"),
        };
        let attr_name_id = attr_name.as_deref().map(|n| env.store.name_id(n));
        let range = if ctx.key.is_root() {
            KeyRange::all()
        } else {
            KeyRange::subtree(&ctx.key)
        };
        let (keys, text_only): (Vec<&[u8]>, Option<bool>) = match &source {
            Source::Eq(value, text_only) => {
                (env.store.value_index().keys_eq(value, &range), *text_only)
            }
            Source::Range(op, bound, text_only) => (
                env.store
                    .value_index()
                    .keys_numeric(op.to_mass(), *bound, &range),
                Some(*text_only),
            ),
        };
        let mut buffer = Vec::new();
        for flat in keys {
            let entry = entry_from_value_key(flat);
            let kind_ok = match text_only {
                Some(true) => entry.kind == RecordKind::Text,
                Some(false) => entry.kind == RecordKind::Attribute,
                None => true,
            };
            if !kind_ok {
                continue;
            }
            // Attribute rewrites must also match the attribute
            // name; one point lookup resolves it.
            if let Some(wanted) = &attr_name_id {
                let Some(wanted) = wanted else { continue };
                match env.store.get_entry(&entry.key)? {
                    Some(e) if e.name == Some(*wanted) => {}
                    _ => continue,
                }
            }
            buffer.push(entry);
        }
        self.buffer = buffer;
        self.buffer_pos = 0;
        Ok(())
    }
}

/// Builds a [`NodeEntry`] from a value-index key without touching data
/// pages: attribute keys are recognizable from their reserved label range
/// (first byte of the last label `< 0x40`).
fn entry_from_value_key(flat: &[u8]) -> NodeEntry {
    let key = FlexKey::from_flat_slice(flat);
    let kind = match key.last_label().and_then(|l| l.first()) {
        Some(&b) if b < 0x40 => RecordKind::Attribute,
        _ => RecordKind::Text,
    };
    NodeEntry {
        key,
        kind,
        name: None,
    }
}

/// What a cursor keeps between the tuples it tests against its
/// exist-predicates: per index-answerable predicate path, the name test
/// resolved once and a finger into that name's posting list. The tuples
/// a step tests arrive mostly in document order, so each probe starts
/// where the last one landed ([`SortedKeys::lower_bound_from`]: any
/// finger is correct, a near one is fast). The state belongs to the
/// cursor — every morsel worker and every nested path has its own —
/// never to the shared index.
///
/// [`SortedKeys::lower_bound_from`]: vamana_mass::name_index::SortedKeys::lower_bound_from
#[derive(Default)]
pub struct Probes(Vec<(OpId, Probe)>);

struct Probe {
    /// The path's name test; `None` when the store has no such name.
    name: Option<NameId>,
    finger: usize,
}

impl Probes {
    /// The state of predicate path `path`, made on first use.
    fn of(&mut self, store: &MassStore, path: OpId, name: &str) -> &mut Probe {
        let at = match self.0.iter().position(|(id, _)| *id == path) {
            Some(at) => at,
            None => {
                let probe = Probe {
                    name: store.name_id(name),
                    finger: NO_FINGER,
                };
                self.0.push((path, probe));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }
}

/// Whether `tuple`, at `position` of a group of `size`, passes predicate
/// `pred`: a number selects by position, anything else by its boolean.
fn keeps(
    env: Env<'_, '_>,
    pred: OpId,
    tuple: &NodeEntry,
    position: usize,
    size: usize,
    probes: &mut Probes,
) -> Result<bool> {
    Ok(match eval_expr(env, pred, tuple, position, size, probes)? {
        Value::Num(n) => position as f64 == n,
        other => other.boolean(),
    })
}

/// Applies one predicate to a materialized group with XPath position
/// semantics (reverse axes count from the end).
pub fn apply_predicate(
    env: Env<'_, '_>,
    pred: OpId,
    group: Vec<NodeEntry>,
    reverse: bool,
    probes: &mut Probes,
) -> Result<Vec<NodeEntry>> {
    let size = group.len();
    let mut out = Vec::with_capacity(size);
    for (i, tuple) in group.into_iter().enumerate() {
        let position = if reverse { size - i } else { i + 1 };
        if keeps(env, pred, &tuple, position, size, probes)? {
            out.push(tuple);
        }
    }
    if let Some(stats) = env.stats {
        stats.add_predicate(pred, size as u64, out.len() as u64);
    }
    Ok(out)
}

/// Index-only evaluation of the exist-predicates the optimizer generates
/// (`[parent::S]`, `[child::S]`, `[attribute::S]` with a name test): the
/// answer comes from FLEX key arithmetic plus a finger probe of the name
/// index — no data page is touched. A parent is one node at most, so
/// `[parent::S[p]]` tests `p` on it in place, as position 1 of 1. Returns
/// `None` when the predicate shape is more general and the cursor
/// machinery must run.
fn exists_fast_path(
    env: Env<'_, '_>,
    path: OpId,
    ctx: &NodeEntry,
    probes: &mut Probes,
) -> Result<Option<bool>> {
    let Operator::Step {
        axis: axis @ (Axis::Parent | Axis::Child | Axis::Attribute),
        test: TestSpec::Named(name),
        context: None,
        source: ContextSource::OuterTuple,
        predicates,
    } = env.plan.op(path)
    else {
        return Ok(None);
    };
    if !predicates.is_empty() && *axis != Axis::Parent {
        return Ok(None);
    }
    let probe = probes.of(env.store, path, name);
    let Some(name) = probe.name else {
        return Ok(Some(false));
    };
    let index = env.store.name_index();
    if *axis == Axis::Parent {
        // The document node has no parent; its own (empty) key is in no list.
        let parent = ctx.key.parent().unwrap_or_default();
        let list = index.elements(name);
        probe.finger = list.lower_bound_from(probe.finger, parent.as_flat());
        let mut found = probe.finger < list.len() && list.get(probe.finger) == parent.as_flat();
        if predicates.is_empty() {
            return Ok(Some(found));
        }
        let node = NodeEntry {
            key: parent,
            kind: RecordKind::Element,
            name: Some(name),
        };
        for pred in predicates {
            let tested = u64::from(found);
            found = found && keeps(env, *pred, &node, 1, 1, probes)?;
            if let Some(stats) = env.stats {
                stats.add_predicate(*pred, tested, u64::from(found));
            }
        }
        return Ok(Some(found));
    }
    let list = match axis {
        Axis::Child => index.elements(name),
        _ => index.attributes(name),
    };
    // Descendants follow the context in the list for as long as they
    // carry its key as a prefix; a child is one level down.
    let flat = ctx.key.as_flat();
    probe.finger = list.lower_bound_from(probe.finger, flat);
    let want_level = ctx.key.level() + 1;
    Ok(Some(
        list.iter_from(probe.finger)
            .skip_while(|k| *k == flat)
            .take_while(|k| k.starts_with(flat))
            .any(|k| vamana_flex::flat_level(k) == want_level),
    ))
}

/// Evaluates an expression operator against a context tuple.
pub fn eval_expr(
    env: Env<'_, '_>,
    id: OpId,
    ctx: &NodeEntry,
    position: usize,
    size: usize,
    probes: &mut Probes,
) -> Result<Value> {
    match env.plan.op(id) {
        Operator::Exists { path } => {
            if let Some(answer) = exists_fast_path(env, *path, ctx, probes)? {
                // The actuals the step's own cursor would have reported:
                // one pull that stopped at its first hit.
                if let Some(stats) = env.stats {
                    stats.add_invocation(*path);
                    stats.add_rows(*path, u64::from(answer));
                }
                return Ok(Value::Bool(answer));
            }
            // One tuple decides it: a `max = 1` pull stops the whole
            // path at its first hit.
            let mut hit = Vec::new();
            let found = build_iter(env, *path, Some(ctx))?.next_batch(env, &mut hit, 1)?;
            Ok(Value::Bool(found == 1))
        }
        Operator::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval_expr(env, *left, ctx, position, size, probes)?;
                if !l.boolean() {
                    return Ok(Value::Bool(false));
                }
                let r = eval_expr(env, *right, ctx, position, size, probes)?;
                Ok(Value::Bool(r.boolean()))
            }
            BinOp::Or => {
                let l = eval_expr(env, *left, ctx, position, size, probes)?;
                if l.boolean() {
                    return Ok(Value::Bool(true));
                }
                let r = eval_expr(env, *right, ctx, position, size, probes)?;
                Ok(Value::Bool(r.boolean()))
            }
            cmp => {
                let l = eval_expr(env, *left, ctx, position, size, probes)?;
                let r = eval_expr(env, *right, ctx, position, size, probes)?;
                Ok(Value::Bool(value::compare(env.store, *cmp, &l, &r)?))
            }
        },
        Operator::Literal { value } => Ok(Value::Str(value.to_string())),
        Operator::Number { value } => Ok(Value::Num(*value)),
        Operator::Arith { op, left, right } => {
            let l = eval_expr(env, *left, ctx, position, size, probes)?.number(env.store)?;
            let r = eval_expr(env, *right, ctx, position, size, probes)?.number(env.store)?;
            Ok(Value::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
                ArithOp::Mod => l % r,
            }))
        }
        Operator::Neg { child } => {
            let v = eval_expr(env, *child, ctx, position, size, probes)?.number(env.store)?;
            Ok(Value::Num(-v))
        }
        Operator::Function { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(env, *a, ctx, position, size, probes)?);
            }
            value::call_function(env.store, name, &vals, ctx, position, size)
        }
        Operator::Step { .. }
        | Operator::ValueStep { .. }
        | Operator::RangeStep { .. }
        | Operator::Union { .. }
        | Operator::Filter { .. }
        | Operator::Join { .. }
        | Operator::ViewScan { .. } => {
            // A path in expression position: collect its node-set,
            // deduplicated in document order.
            let iter = build_iter(env, id, Some(ctx))?;
            Ok(Value::Nodes(drain_set(env, iter)?))
        }
        Operator::Root { .. } => Err(EngineError::Unsupported(
            "nested root operator in expression".into(),
        )),
    }
}
