//! The pipelined, iterative query execution engine (paper §VII).
//!
//! Execution is pull-based along the context path: each operator is a
//! cursor in one of the paper's three states — INITIAL, FETCHING,
//! OUT_OF_TUPLES (Algorithm 1/2). Tuples are FLEX-keyed [`NodeEntry`]s;
//! node values are fetched lazily only when a predicate or the caller
//! actually needs them.
//!
//! Predicate trees re-run per tuple with dynamically set context
//! (paper §V-B): leaf steps with [`ContextSource::OuterTuple`] anchor at
//! the tuple under test; absolute paths anchor back at the query root.

pub mod fused;
pub mod parallel;
pub mod stats;
pub mod value;

use crate::error::{EngineError, Result};
use crate::plan::{ArithOp, BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use stats::ExecStats;
use std::collections::HashSet;
use value::Value;
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, AxisStream, KindFilter, NodeFilter};
use vamana_mass::{MassStore, NodeEntry, RecordKind};

/// Tuples per batch in the batched pipeline. Large enough to amortize
/// per-batch dispatch to noise, small enough that a batch of entries
/// (key bytes included) stays within L1/L2 cache.
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

/// Runs `plan` to completion, returning the result node-set.
///
/// Under `set_semantics` (XPath node-set semantics) the result is sorted
/// into document order with duplicates removed; otherwise tuples are
/// returned in pipeline order, duplicates included.
pub fn run(env: Env<'_, '_>, set_semantics: bool) -> Result<Vec<NodeEntry>> {
    run_from(env, None, set_semantics)
}

/// Like [`run`], but leaf operators with [`ContextSource::OuterTuple`]
/// anchor at `outer` — the paper's §VII hook for XQuery: "the context
/// node could be provided from another XPath expression".
pub fn run_from(
    env: Env<'_, '_>,
    outer: Option<&NodeEntry>,
    set_semantics: bool,
) -> Result<Vec<NodeEntry>> {
    run_from_mode(env, outer, set_semantics, true)
}

/// [`run_from`] with an explicit execution mode: `batched` pulls
/// [`BATCH_SIZE`]-tuple batches through the pipeline, `!batched` pulls
/// one tuple at a time. Both produce the identical tuple sequence; the
/// scalar mode exists as the measured baseline and differential oracle
/// for the batched one.
pub fn run_from_mode(
    env: Env<'_, '_>,
    outer: Option<&NodeEntry>,
    set_semantics: bool,
    batched: bool,
) -> Result<Vec<NodeEntry>> {
    run_plan(env, outer, set_semantics, batched, None)
}

/// [`run_from_mode`] with an optional parallel-scan hookup. When `par`
/// is provided (engine gating: `EngineOptions.parallel`, a plan the
/// optimizer found eligible, batched mode, top-level run), the plan's
/// output step is sized at this point and fans out over the engine's
/// scan pool if it is above the break-even; otherwise it runs serially. Output is
/// identical in all cases — parallelism only reorders *work*, never
/// tuples.
pub fn run_plan(
    env: Env<'_, '_>,
    outer: Option<&NodeEntry>,
    set_semantics: bool,
    batched: bool,
    par: Option<&parallel::ParallelHooks>,
) -> Result<Vec<NodeEntry>> {
    let top = match env.plan.op(env.plan.root()) {
        Operator::Root { child } => *child,
        _ => Some(env.plan.root()),
    };
    let Some(top) = top else {
        return Ok(Vec::new());
    };
    let started = env.stats.map(|_| std::time::Instant::now());
    let mut iter = match par {
        Some(hooks) if outer.is_none() && batched => {
            match parallel::build_parallel(env, top, hooks)? {
                Some(it) => it,
                None => build_iter(env, top, outer)?,
            }
        }
        _ => build_iter(env, top, outer)?,
    };
    let mut out = Vec::new();
    if batched {
        while iter.next_batch(env, &mut out, BATCH_SIZE)? > 0 {}
    } else {
        while let Some(t) = iter.next(env)? {
            out.push(t);
        }
    }
    if set_semantics {
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out.dedup_by(|a, b| a.key == b.key);
    }
    if let Some(stats) = env.stats {
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
    /// A fused step chain: the whole chain evaluated per record inside
    /// one page-pinned clustered scan.
    Fused(Box<fused::FusedIter<'s>>),
    /// Set union: left stream then right stream (dedup happens at the
    /// top under set semantics). Carries its plan [`OpId`] so analyze
    /// runs can attribute the merged output.
    Union(OpId, Box<OpIter<'s>>, Box<OpIter<'s>>),
    /// Value semi-join (algebra completeness): yields left tuples whose
    /// string value matches some right tuple under the condition.
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
                id,
                *axis,
                // Resolve the node test once — an unknown name means the
                // step is provably empty for every context.
                env.node_filter(*axis, test),
                predicates.clone(),
                ctx_iter,
                outer.cloned(),
            ))))
        }
        Operator::RangeStep {
            context, source, ..
        } => {
            let ctx_iter = match context {
                Some(c) => build_iter(env, *c, outer)?,
                None => OpIter::Anchor(Some(anchor_for(env, *source, outer))),
            };
            Ok(OpIter::ValueStep(Box::new(ValueStepIter {
                op: id,
                context: Box::new(ctx_iter),
                state: OpState::Initial,
                buffer: Vec::new(),
                buffer_pos: 0,
            })))
        }
        Operator::ValueStep {
            context, source, ..
        } => {
            let ctx_iter = match context {
                Some(c) => build_iter(env, *c, outer)?,
                None => OpIter::Anchor(Some(anchor_for(env, *source, outer))),
            };
            Ok(OpIter::ValueStep(Box::new(ValueStepIter {
                op: id,
                context: Box::new(ctx_iter),
                state: OpState::Initial,
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
            let mut iter = build_iter(env, *input, outer)?;
            let mut group = Vec::new();
            let mut seen = HashSet::new();
            while let Some(t) = iter.next(env)? {
                if seen.insert(t.key.clone()) {
                    group.push(t);
                }
            }
            group.sort_by(|a, b| a.key.cmp(&b.key));
            for pred in predicates {
                group = apply_predicate(env, *pred, group, false, outer)?;
            }
            if let Some(stats) = env.stats {
                stats.add_invocation(id);
                stats.add_rows(id, group.len() as u64);
            }
            Ok(OpIter::Join(group.into_iter()))
        }
        Operator::Join { op, left, right } => {
            let mut l_iter = build_iter(env, *left, outer)?;
            let mut r_iter = build_iter(env, *right, outer)?;
            let mut rights = Vec::new();
            while let Some(t) = r_iter.next(env)? {
                rights.push(value::node_string_value(env.store, &t)?);
            }
            let mut out = Vec::new();
            while let Some(t) = l_iter.next(env)? {
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
        Operator::FusedScan { .. } => Ok(OpIter::Fused(Box::new(fused::FusedIter::build(
            env, id, outer,
        )?))),
        other => Err(EngineError::Unsupported(format!(
            "operator {other:?} cannot produce a node-set stream"
        ))),
    }
}

fn anchor_for(env: Env<'_, '_>, source: ContextSource, outer: Option<&NodeEntry>) -> NodeEntry {
    match (source, outer) {
        (ContextSource::OuterTuple, Some(t)) => t.clone(),
        _ => env.root_ctx.clone(),
    }
}

impl<'s> OpIter<'s> {
    /// Pulls the next tuple.
    pub fn next(&mut self, env: Env<'_, 's>) -> Result<Option<NodeEntry>> {
        match self {
            OpIter::Anchor(item) => Ok(item.take()),
            OpIter::Step(s) => s.next(env),
            OpIter::ValueStep(s) => s.next(env),
            OpIter::Fused(f) => f.next(env),
            OpIter::Union(id, l, r) => {
                let t = match l.next(env)? {
                    Some(t) => Some(t),
                    None => r.next(env)?,
                };
                if let Some(stats) = env.stats {
                    stats.add_invocation(*id);
                    if t.is_some() {
                        stats.add_rows(*id, 1);
                    }
                }
                Ok(t)
            }
            OpIter::Join(items) => Ok(items.next()),
            OpIter::Parallel(p) => {
                let t = p.next()?;
                if let Some(stats) = env.stats {
                    stats.add_invocation(p.op);
                    if t.is_some() {
                        stats.add_rows(p.op, 1);
                    }
                }
                Ok(t)
            }
            OpIter::View { op, entries, pos } => {
                let t = entries.get(*pos).cloned();
                if t.is_some() {
                    *pos += 1;
                }
                if let Some(stats) = env.stats {
                    stats.add_invocation(*op);
                    if t.is_some() {
                        stats.add_rows(*op, 1);
                    }
                }
                Ok(t)
            }
        }
    }

    /// Pulls up to `max` tuples into `out`, returning how many were
    /// appended — the same tuple sequence [`OpIter::next`] would produce,
    /// chunked. A short (or zero) count means the operator is exhausted.
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
            OpIter::Fused(f) => f.next_batch(env, out, max),
            OpIter::Union(id, l, r) => {
                // Left stream first; a short left batch means the left
                // side is exhausted, so top up from the right.
                let mut n = l.next_batch(env, out, max)?;
                if n < max {
                    n += r.next_batch(env, out, max - n)?;
                }
                if let Some(stats) = env.stats {
                    stats.add_invocation(*id);
                    stats.add_batch(*id);
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
                    stats.add_batch(p.op);
                    stats.add_rows(p.op, n as u64);
                    stats.add_nanos(p.op, t0.elapsed().as_nanos() as u64);
                    stats.add_probe_pins(p.op, p1.saturating_sub(p0), pin1.saturating_sub(pin0));
                    Ok(n)
                }
            },
            OpIter::View { op, entries, pos } => {
                let t0 = env.stats.map(|_| std::time::Instant::now());
                let end = (*pos + max).min(entries.len());
                let n = end - *pos;
                out.extend_from_slice(&entries[*pos..end]);
                *pos = end;
                if let Some(stats) = env.stats {
                    stats.add_invocation(*op);
                    stats.add_batch(*op);
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
    /// Node test resolved once at build time; `None` means the name does
    /// not occur in the store, so the step is provably empty.
    filter: Option<NodeFilter>,
    predicates: Vec<OpId>,
    context: OpIter<'s>,
    /// Paper state machine.
    state: OpState,
    /// Lazy axis stream (fast path: no predicates).
    stream: Option<AxisStream<'s>>,
    current_ctx: Option<NodeEntry>,
    /// Filtered group (predicate path).
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
    outer: Option<NodeEntry>,
}

impl<'s> StepIter<'s> {
    /// A step cursor in its initial state over the `context` cursor.
    fn new(
        op: OpId,
        axis: Axis,
        filter: Option<NodeFilter>,
        predicates: Vec<OpId>,
        context: OpIter<'s>,
        outer: Option<NodeEntry>,
    ) -> Self {
        StepIter {
            op,
            axis,
            filter,
            predicates,
            context,
            state: OpState::Initial,
            stream: None,
            current_ctx: None,
            buffer: Vec::new(),
            buffer_pos: 0,
            outer,
        }
    }

    /// `GetNextContext()` — Algorithm 2.
    fn advance_context(&mut self, env: Env<'_, 's>) -> Result<bool> {
        match self.context.next(env)? {
            Some(ctx) => {
                self.current_ctx = Some(ctx);
                self.state = OpState::Fetching;
                Ok(true)
            }
            None => {
                self.state = OpState::OutOfTuples;
                Ok(false)
            }
        }
    }

    fn open_stream(&mut self, env: Env<'_, 's>) -> Result<bool> {
        let Some(ctx) = self.current_ctx.clone() else {
            return Ok(false);
        };
        let Some(filter) = self.filter else {
            // Unknown name: provably empty for this context.
            self.stream = None;
            self.buffer.clear();
            self.buffer_pos = 0;
            return Ok(true);
        };
        let stream = axis_stream(env.store, &ctx.key, ctx.kind, self.axis, filter)?;
        if self.predicates.is_empty() {
            self.stream = Some(stream);
        } else {
            // Materialize the group so position()/last() are available,
            // then filter through each predicate in order.
            let mut group = stream.collect()?;
            for pred in &self.predicates {
                group = apply_predicate(
                    env,
                    *pred,
                    group,
                    self.axis.is_reverse(),
                    self.outer.as_ref(),
                )?;
            }
            self.buffer = group;
            self.buffer_pos = 0;
            self.stream = None;
        }
        Ok(true)
    }

    fn next(&mut self, env: Env<'_, 's>) -> Result<Option<NodeEntry>> {
        let t = self.next_inner(env)?;
        if let Some(stats) = env.stats {
            stats.add_invocation(self.op);
            if t.is_some() {
                stats.add_rows(self.op, 1);
            }
        }
        Ok(t)
    }

    fn next_inner(&mut self, env: Env<'_, 's>) -> Result<Option<NodeEntry>> {
        loop {
            match self.state {
                OpState::OutOfTuples => return Ok(None),
                OpState::Initial => {
                    if !self.advance_context(env)? {
                        return Ok(None);
                    }
                    self.open_stream(env)?;
                }
                OpState::Fetching => {
                    if let Some(stream) = &mut self.stream {
                        if let Some(t) = stream.next()? {
                            return Ok(Some(t));
                        }
                    } else if self.buffer_pos < self.buffer.len() {
                        let t = self.buffer[self.buffer_pos].clone();
                        self.buffer_pos += 1;
                        return Ok(Some(t));
                    }
                    // Current context exhausted: pull the next one.
                    if !self.advance_context(env)? {
                        return Ok(None);
                    }
                    self.open_stream(env)?;
                }
            }
        }
    }

    /// Batched pull — the paper's INITIAL/FETCHING/OUT_OF_TUPLES machine
    /// advanced at batch granularity. The fast (no-predicate) path fills
    /// the batch straight from the axis stream, so page pinning and
    /// record decoding are amortized in `vamana-mass`; the predicate path
    /// stays scalar-materialized per context (position()/last() need the
    /// whole group) and only the copy-out is chunked. Contexts are still
    /// pulled one at a time, so the tuple sequence is byte-identical to
    /// [`StepIter::next`]'s. One batch may span several contexts.
    fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let Some(stats) = env.stats else {
            return self.next_batch_inner(env, out, max);
        };
        // Inclusive attribution at batch granularity: the pool delta and
        // the clock cover child context pulls made during this batch.
        let (p0, pin0) = env.store.buffer_pool().probe_pin_counts();
        let t0 = std::time::Instant::now();
        let got = self.next_batch_inner(env, out, max)?;
        let (p1, pin1) = env.store.buffer_pool().probe_pin_counts();
        stats.add_invocation(self.op);
        stats.add_batch(self.op);
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
            if produced >= max {
                return Ok(produced);
            }
            match self.state {
                OpState::OutOfTuples => return Ok(produced),
                OpState::Initial => {
                    if !self.advance_context(env)? {
                        return Ok(produced);
                    }
                    self.open_stream(env)?;
                }
                OpState::Fetching => {
                    if let Some(stream) = &mut self.stream {
                        let want = max - produced;
                        let got = stream.next_batch(out, want)?;
                        // A full batch may leave more behind; a short one
                        // cannot (the `next_batch` contract), so the
                        // context is exhausted without another probe.
                        if got >= want {
                            continue;
                        }
                    } else if self.buffer_pos < self.buffer.len() {
                        let take = (self.buffer.len() - self.buffer_pos).min(max - produced);
                        out.extend_from_slice(
                            &self.buffer[self.buffer_pos..self.buffer_pos + take],
                        );
                        self.buffer_pos += take;
                        continue;
                    }
                    // Current context exhausted: pull the next one.
                    if !self.advance_context(env)? {
                        return Ok(out.len() - start);
                    }
                    self.open_stream(env)?;
                }
            }
        }
    }
}

/// Cursor for the value-index step (`φ value::'v'`).
pub struct ValueStepIter<'s> {
    op: OpId,
    context: Box<OpIter<'s>>,
    state: OpState,
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
}

impl<'s> ValueStepIter<'s> {
    fn next(&mut self, env: Env<'_, 's>) -> Result<Option<NodeEntry>> {
        let t = self.next_inner(env)?;
        if let Some(stats) = env.stats {
            stats.add_invocation(self.op);
            if t.is_some() {
                stats.add_rows(self.op, 1);
            }
        }
        Ok(t)
    }

    fn next_inner(&mut self, env: Env<'_, 's>) -> Result<Option<NodeEntry>> {
        loop {
            match self.state {
                OpState::OutOfTuples => return Ok(None),
                OpState::Initial | OpState::Fetching => {
                    if self.buffer_pos < self.buffer.len() {
                        let t = self.buffer[self.buffer_pos].clone();
                        self.buffer_pos += 1;
                        return Ok(Some(t));
                    }
                    if !self.refill(env)? {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Batched pull: drains the current buffer in chunks and refills from
    /// the next context when it runs dry. Short count means exhausted.
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
        stats.add_batch(self.op);
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
            if !self.refill(env)? {
                return Ok(out.len() - start);
            }
        }
    }

    /// Pulls the next context tuple and rebuilds the value-index buffer
    /// for it. Returns `false` (and flips to OUT_OF_TUPLES) when the
    /// context stream is exhausted.
    fn refill(&mut self, env: Env<'_, 's>) -> Result<bool> {
        let Some(ctx) = self.context.next(env)? else {
            self.state = OpState::OutOfTuples;
            return Ok(false);
        };
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
        Ok(true)
    }
}

/// Builds a [`NodeEntry`] from a value-index key without touching data
/// pages: attribute keys are recognizable from their reserved label range
/// (first byte of the last label `< 0x40`).
fn entry_from_value_key(flat: &[u8]) -> NodeEntry {
    let key = FlexKey::from_flat(flat.to_vec());
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

/// Applies one predicate to a materialized group with XPath position
/// semantics (reverse axes count from the end).
pub fn apply_predicate(
    env: Env<'_, '_>,
    pred: OpId,
    group: Vec<NodeEntry>,
    reverse: bool,
    _outer: Option<&NodeEntry>,
) -> Result<Vec<NodeEntry>> {
    let size = group.len();
    let mut out = Vec::with_capacity(size);
    for (i, tuple) in group.into_iter().enumerate() {
        let position = if reverse { size - i } else { i + 1 };
        let v = eval_expr(env, pred, &tuple, position, size)?;
        let keep = match v {
            Value::Num(n) => position as f64 == n,
            other => other.boolean(),
        };
        if keep {
            out.push(tuple);
        }
    }
    if let Some(stats) = env.stats {
        stats.add_predicate(pred, size as u64, out.len() as u64);
    }
    Ok(out)
}

/// Index-only evaluation of the exist-predicates the optimizer generates
/// (`[parent::S]`, `[child::S]`, `[attribute::S]` with a bare name test):
/// the answer comes from FLEX key arithmetic plus a name-index binary
/// search — no data page is touched. Returns `None` when the predicate
/// shape is more general and the cursor machinery must run.
fn exists_fast_path(env: Env<'_, '_>, path: OpId, ctx: &NodeEntry) -> Option<bool> {
    let Operator::Step {
        axis,
        test: TestSpec::Named(name),
        context: None,
        source: ContextSource::OuterTuple,
        predicates,
    } = env.plan.op(path)
    else {
        return None;
    };
    if !predicates.is_empty() {
        return None;
    }
    let Some(name_id) = env.store.name_id(name) else {
        return Some(false);
    };
    match axis {
        Axis::Parent => {
            let parent = ctx.key.parent()?;
            if parent.is_root() {
                return Some(false);
            }
            Some(
                env.store
                    .name_index()
                    .elements(name_id)
                    .contains(parent.as_flat()),
            )
        }
        Axis::Child => {
            let want_level = ctx.key.level() + 1;
            let range = KeyRange::descendants(&ctx.key);
            Some(
                env.store
                    .name_index()
                    .elements(name_id)
                    .iter_in(&range)
                    .any(|flat| flat.iter().filter(|&&b| b == 0).count() == want_level),
            )
        }
        Axis::Attribute => {
            let want_level = ctx.key.level() + 1;
            let range = KeyRange::descendants(&ctx.key);
            Some(
                env.store
                    .name_index()
                    .attributes(name_id)
                    .iter_in(&range)
                    .any(|flat| flat.iter().filter(|&&b| b == 0).count() == want_level),
            )
        }
        _ => None,
    }
}

/// Evaluates an expression operator against a context tuple.
pub fn eval_expr(
    env: Env<'_, '_>,
    id: OpId,
    ctx: &NodeEntry,
    position: usize,
    size: usize,
) -> Result<Value> {
    match env.plan.op(id) {
        Operator::Exists { path } => {
            if let Some(answer) = exists_fast_path(env, *path, ctx) {
                return Ok(Value::Bool(answer));
            }
            let mut iter = build_iter(env, *path, Some(ctx))?;
            Ok(Value::Bool(iter.next(env)?.is_some()))
        }
        Operator::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                if !l.boolean() {
                    return Ok(Value::Bool(false));
                }
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(r.boolean()))
            }
            BinOp::Or => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                if l.boolean() {
                    return Ok(Value::Bool(true));
                }
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(r.boolean()))
            }
            cmp => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(value::compare(env.store, *cmp, &l, &r)?))
            }
        },
        Operator::Literal { value } => Ok(Value::Str(value.to_string())),
        Operator::Number { value } => Ok(Value::Num(*value)),
        Operator::Arith { op, left, right } => {
            let l = eval_expr(env, *left, ctx, position, size)?.number(env.store)?;
            let r = eval_expr(env, *right, ctx, position, size)?.number(env.store)?;
            Ok(Value::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
                ArithOp::Mod => l % r,
            }))
        }
        Operator::Neg { child } => {
            let v = eval_expr(env, *child, ctx, position, size)?.number(env.store)?;
            Ok(Value::Num(-v))
        }
        Operator::Function { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(env, *a, ctx, position, size)?);
            }
            value::call_function(env.store, name, &vals, ctx, position, size)
        }
        Operator::Step { .. }
        | Operator::ValueStep { .. }
        | Operator::RangeStep { .. }
        | Operator::Union { .. }
        | Operator::Filter { .. }
        | Operator::Join { .. }
        | Operator::ViewScan { .. }
        | Operator::FusedScan { .. } => {
            // A path in expression position: collect its node-set,
            // deduplicated in document order.
            let mut iter = build_iter(env, id, Some(ctx))?;
            let mut nodes = Vec::new();
            let mut seen = HashSet::new();
            while let Some(t) = iter.next(env)? {
                if seen.insert(t.key.clone()) {
                    nodes.push(t);
                }
            }
            nodes.sort_by(|a, b| a.key.cmp(&b.key));
            Ok(Value::Nodes(nodes))
        }
        Operator::Root { .. } => Err(EngineError::Unsupported(
            "nested root operator in expression".into(),
        )),
    }
}
