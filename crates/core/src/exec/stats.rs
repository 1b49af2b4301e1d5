//! Per-operator runtime actuals for `EXPLAIN ANALYZE`.
//!
//! An [`ExecStats`] tree is one atomic-counter slot per plan operator,
//! indexed by [`OpId`]. It is opt-in per run: [`super::Env::stats`] is
//! `None` on the normal query path (no counter traffic at all — the
//! zero-cost-when-disabled contract) and `Some` only under
//! `Engine::analyze`, where cursors record what they actually did:
//!
//! - `rows` — tuples produced by the operator. The same whether or not
//!   the output step fanned out (a parallel scan produces the serial
//!   tuple sequence), which is what the DOM-oracle tests pin down.
//! - `invocations` — cursor pulls (`next_batch` calls; for predicate
//!   operators, context tuples tested).
//! - `nanos` — inclusive wall time per pull (a pull's clock includes
//!   the context pulls it triggers).
//! - `probes` / `pins` — buffer-pool page requests and batched page
//!   pins, attributed inclusively per pull from pool counter deltas.
//!
//! Every step cursor records all of them on every pull, context
//! operators and predicate paths included.
//!
//! Counters are relaxed atomics so morsel workers on the parallel path
//! aggregate correctly without synchronization beyond the store's own;
//! a finished run is read through [`ExecStats::snapshot`].

use crate::opt::parallel::ParallelVerdict;
use crate::plan::OpId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// How one run's output became a node-set: what the plan promised, what
/// the run saw, and what the sort — if there was one — cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderVerdict {
    /// The plan emits in document order by construction
    /// ([`crate::plan::QueryPlan::emits_in_order`]).
    pub by_construction: bool,
    /// The output step met a context inside or before the last one's
    /// subtree, so this run's output was sorted after all
    /// ([`super::OpIter::order_broken`]).
    pub witness_tripped: bool,
    /// Rows that went into the sort; 0 when none ran.
    pub sorted_rows: u64,
    /// Rows the sort's dedup removed.
    pub duplicates: u64,
    /// Wall time of sort and dedup (of the debug check, when none ran).
    pub sort_nanos: u64,
}

impl OrderVerdict {
    /// Whether the output was sorted.
    pub fn sorted(&self) -> bool {
        !self.by_construction || self.witness_tripped
    }

    /// One line for the optimizer trace.
    pub fn render(&self) -> String {
        if !self.sorted() {
            return "order at run time: by construction, witness held — no sort".to_string();
        }
        format!(
            "order at run time: sorted {} row(s), {} duplicate(s) dropped, in {:.1?} ({})",
            self.sorted_rows,
            self.duplicates,
            std::time::Duration::from_nanos(self.sort_nanos),
            if self.witness_tripped {
                "witness tripped: the output step's contexts nest"
            } else {
                "the plan promises no order"
            }
        )
    }
}

/// Live counters for one operator (all relaxed atomics).
#[derive(Debug, Default)]
pub struct OpActuals {
    /// Cursor pulls (or, for predicates, context tuples tested).
    pub invocations: AtomicU64,
    /// Tuples produced — the actual cardinality.
    pub rows: AtomicU64,
    /// Inclusive wall time, nanoseconds.
    pub nanos: AtomicU64,
    /// Buffer-pool page requests attributed to this operator (inclusive).
    pub probes: AtomicU64,
    /// Batched page pins attributed to this operator (inclusive).
    pub pins: AtomicU64,
}

impl OpActuals {
    fn snapshot(&self) -> OpActualsSnapshot {
        OpActualsSnapshot {
            invocations: self.invocations.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            pins: self.pins.load(Ordering::Relaxed),
        }
    }
}

/// The per-operator actuals tree for one run. One slot per plan
/// operator, parallel to the plan's arena.
#[derive(Debug, Default)]
pub struct ExecStats {
    ops: Vec<OpActuals>,
    /// What the parallel gate did with this run's output step, if the
    /// plan was eligible and the executor got as far as pricing it.
    parallel: OnceLock<ParallelVerdict>,
    /// How the run's output was finished.
    order: OnceLock<OrderVerdict>,
}

impl ExecStats {
    /// A stats tree with `len` zeroed slots (`len` = `QueryPlan::len()`).
    pub fn new(len: usize) -> Self {
        ExecStats {
            ops: (0..len).map(|_| OpActuals::default()).collect(),
            parallel: OnceLock::new(),
            order: OnceLock::new(),
        }
    }

    /// Records how the run's output became a node-set.
    pub fn set_order(&self, verdict: OrderVerdict) {
        let _ = self.order.set(verdict);
    }

    /// How the run's output became a node-set, once it has.
    pub fn order(&self) -> Option<OrderVerdict> {
        self.order.get().copied()
    }

    /// Records the run-time verdict of the parallel gate (first one wins;
    /// a plan has one output step).
    pub fn set_parallel(&self, verdict: ParallelVerdict) {
        let _ = self.parallel.set(verdict);
    }

    /// The parallel gate's run-time verdict, if it priced this run.
    pub fn parallel(&self) -> Option<ParallelVerdict> {
        self.parallel.get().copied()
    }

    /// Number of operator slots.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The live counters for `id`, if the slot exists.
    #[inline]
    pub fn op(&self, id: OpId) -> Option<&OpActuals> {
        self.ops.get(id.index())
    }

    /// Adds `n` produced tuples to `id`.
    #[inline]
    pub fn add_rows(&self, id: OpId, n: u64) {
        if let Some(op) = self.op(id) {
            op.rows.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one cursor pull of `id`.
    #[inline]
    pub fn add_invocation(&self, id: OpId) {
        if let Some(op) = self.op(id) {
            op.invocations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds inclusive wall time to `id`.
    #[inline]
    pub fn add_nanos(&self, id: OpId, n: u64) {
        if let Some(op) = self.op(id) {
            op.nanos.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds inclusive buffer-pool probe/pin deltas to `id`.
    #[inline]
    pub fn add_probe_pins(&self, id: OpId, probes: u64, pins: u64) {
        if let Some(op) = self.op(id) {
            op.probes.fetch_add(probes, Ordering::Relaxed);
            op.pins.fetch_add(pins, Ordering::Relaxed);
        }
    }

    /// Adds predicate bookkeeping to `id`: `tested` context tuples in,
    /// `kept` tuples out.
    #[inline]
    pub fn add_predicate(&self, id: OpId, tested: u64, kept: u64) {
        if let Some(op) = self.op(id) {
            op.invocations.fetch_add(tested, Ordering::Relaxed);
            op.rows.fetch_add(kept, Ordering::Relaxed);
        }
    }

    /// A plain-value snapshot of every slot.
    pub fn snapshot(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot {
            ops: self.ops.iter().map(OpActuals::snapshot).collect(),
        }
    }
}

/// Plain-value counters for one operator (see [`OpActuals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActualsSnapshot {
    /// Cursor pulls (or context tuples tested for predicates).
    pub invocations: u64,
    /// Tuples produced.
    pub rows: u64,
    /// Inclusive wall time in nanoseconds.
    pub nanos: u64,
    /// Inclusive buffer-pool page requests.
    pub probes: u64,
    /// Inclusive batched page pins.
    pub pins: u64,
}

/// Frozen per-operator actuals of a finished run, indexed like the plan
/// arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    /// One entry per plan operator, in arena order.
    pub ops: Vec<OpActualsSnapshot>,
}

impl ExecStatsSnapshot {
    /// The counters for `id`, if the slot exists.
    pub fn op(&self, id: OpId) -> Option<&OpActualsSnapshot> {
        self.ops.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_ids_are_ignored() {
        let stats = ExecStats::new(2);
        stats.add_rows(OpId(7), 5);
        stats.add_invocation(OpId(7));
        let snap = stats.snapshot();
        assert_eq!(snap.ops.len(), 2);
        assert!(snap.op(OpId(7)).is_none());
        assert_eq!(snap.op(OpId(0)).unwrap().rows, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = ExecStats::new(3);
        let id = OpId(1);
        stats.add_rows(id, 4);
        stats.add_rows(id, 6);
        stats.add_invocation(id);
        stats.add_nanos(id, 100);
        stats.add_probe_pins(id, 3, 1);
        stats.add_predicate(OpId(2), 10, 7);
        let snap = stats.snapshot();
        let op = snap.op(id).unwrap();
        assert_eq!(op.rows, 10);
        assert_eq!(op.invocations, 1);
        assert_eq!(op.nanos, 100);
        assert_eq!(op.probes, 3);
        assert_eq!(op.pins, 1);
        let pred = snap.op(OpId(2)).unwrap();
        assert_eq!(pred.invocations, 10);
        assert_eq!(pred.rows, 7);
    }
}
