//! Execution of [`Operator::FusedScan`]: a whole step chain evaluated
//! in one page-pinned scan.
//!
//! Instead of materializing a node set per location step, the fused
//! cursor walks the clustered index once (per context anchor) and runs
//! a small path-matching automaton over every record, entirely on FLEX
//! flat-key arithmetic:
//!
//! * the automaton keeps the stack of element ancestors of the current
//!   scan position; each stack entry carries a bitmask of the spine
//!   levels that ancestor matched, plus the OR over the masks of *its*
//!   ancestors — so "some ancestor matched level `l-1`" (descendant
//!   edge) and "my parent matched level `l-1`" (child edge) are both
//!   O(1) bit tests;
//! * child vs descendant containment is flat-key prefix arithmetic
//!   ([`FlexKey::is_ancestor_of`], level = terminator count) — no data
//!   page is touched beyond the single clustered scan;
//! * existential predicate branches (`[b[c]]`) are verified per
//!   matching record through the name index
//!   (`verify_pred`), the same index-only probe
//!   `exists_fast_path` uses for pushed-down predicates.
//!
//! The record feed itself goes through
//! [`MassCursor::next_batch_where`], so every page the chain touches is
//! pinned exactly once regardless of how many steps were collapsed.

use super::{anchor_for, build_iter, finish_node_set, Env, OpIter, OpState};
use crate::error::{EngineError, Result};
use crate::plan::{ContextSource, FusedNode, OpId, Operator, TestSpec};
use vamana_flex::{flat_is_ancestor, Axis, FlexKey, KeyRange};
use vamana_mass::axes::NodeFilter;
use vamana_mass::page::RecordView;
use vamana_mass::{MassCursor, MassStore, NodeEntry, RecordKind};

/// One resolved spine level of the fused chain.
struct LevelSpec {
    /// Descendant (`true`) or child (`false`) edge from the previous
    /// level (or the scan anchor for level 0).
    descendant: bool,
    /// Node test resolved against the store's name table.
    filter: NodeFilter,
    /// For level 0 only: the element name id, used to narrow the scan
    /// range to the envelope of the name's clustered keys.
    name: Option<vamana_mass::NameId>,
    /// Resolved existential predicate branches.
    preds: Vec<PredNode>,
}

/// A resolved predicate branch node (Named tests only — the fusion
/// pass admits nothing else into predicates).
struct PredNode {
    descendant: bool,
    name: vamana_mass::NameId,
    children: Vec<PredNode>,
}

/// Number of terminator bytes in a flat key = the key's level.
pub(super) fn flat_level(flat: &[u8]) -> usize {
    flat.iter().filter(|&&b| b == 0).count()
}

/// Index-only existential check: does `base` have a descendant/child
/// subtree matching the branch? Every probe is a name-index range scan
/// plus flat-key level arithmetic.
fn verify_pred(store: &MassStore, base: &FlexKey, node: &PredNode) -> bool {
    let range = KeyRange::descendants(base);
    let want_level = (!node.descendant).then(|| base.level() + 1);
    store
        .name_index()
        .elements(node.name)
        .iter_in(&range)
        .any(|flat| {
            if let Some(wl) = want_level {
                if flat_level(flat) != wl {
                    return false;
                }
            }
            node.children.is_empty() || {
                let key = FlexKey::from_flat_slice(flat);
                node.children.iter().all(|c| verify_pred(store, &key, c))
            }
        })
}

/// One ancestor on the automaton's stack.
struct StackEntry {
    /// Flat key, copied off the page (inline up to 23 bytes).
    key: FlexKey,
    /// Spine levels this element matched.
    mask: u32,
    /// OR of `mask` over this entry and all its stacked ancestors.
    cum: u32,
}

/// The per-anchor path-matching automaton.
struct Matcher {
    anchor_level: usize,
    stack: Vec<StackEntry>,
}

impl Matcher {
    fn reset(&mut self, anchor_level: usize) {
        self.anchor_level = anchor_level;
        self.stack.clear();
    }

    /// Feeds one record in document order; returns whether it matched
    /// the full spine (and thus is an output tuple).
    fn feed(&mut self, store: &MassStore, levels: &[LevelSpec], rec: RecordView<'_>) -> bool {
        if rec.kind == RecordKind::Attribute {
            return false;
        }
        while let Some(top) = self.stack.last() {
            if flat_is_ancestor(top.key.as_flat(), rec.key) {
                break;
            }
            self.stack.pop();
        }
        let (cum, parent_mask, parent_level) = match self.stack.last() {
            Some(top) => (top.cum, top.mask, top.key.level()),
            None => (0, 0, self.anchor_level),
        };
        let rec_level = flat_level(rec.key);
        let mut mask = 0u32;
        for (l, level) in levels.iter().enumerate() {
            let reachable = if l == 0 {
                // Edge from the anchor: every record in the scan range is
                // a descendant of it; child edges additionally pin the
                // level.
                level.descendant || rec_level == self.anchor_level + 1
            } else if level.descendant {
                cum & (1 << (l - 1)) != 0
            } else {
                // The stack top is the record's parent exactly when its
                // level is one less (the stack holds all element
                // ancestors seen in range).
                parent_level + 1 == rec_level && parent_mask & (1 << (l - 1)) != 0
            };
            if !reachable || !level.filter.matches_parts(rec.kind, rec.name) {
                continue;
            }
            if !level.preds.is_empty() {
                let key = FlexKey::from_flat_slice(rec.key);
                if !level.preds.iter().all(|p| verify_pred(store, &key, p)) {
                    continue;
                }
            }
            mask |= 1 << l;
        }
        let emit = mask & (1 << (levels.len() - 1)) != 0;
        // Only elements can have children, so only they go on the stack.
        if rec.kind == RecordKind::Element {
            self.stack.push(StackEntry {
                key: FlexKey::from_flat_slice(rec.key),
                mask,
                cum: cum | mask,
            });
        }
        emit
    }
}

/// Cursor for a [`Operator::FusedScan`]: one clustered scan per context
/// anchor, the whole chain matched per record.
pub struct FusedIter<'s> {
    op: OpId,
    state: OpState,
    /// Context stream, drained once at initialization.
    context: Option<Box<OpIter<'s>>>,
    /// `true` when a spine or predicate name does not occur in the
    /// store — the chain is provably empty.
    empty: bool,
    levels: Vec<LevelSpec>,
    contexts: Vec<NodeEntry>,
    ctx_pos: usize,
    /// The scan's one cursor, re-bound to each anchor's range in turn
    /// (the anchors are sorted, so it moves forward only).
    cursor: MassCursor<'s>,
    /// `cursor` is inside an anchor's range.
    scanning: bool,
    matcher: Matcher,
    /// Fallback for nested (overlapping) context anchors: the full
    /// result, sorted and deduplicated, served in chunks.
    materialized: Option<Vec<NodeEntry>>,
    mat_pos: usize,
}

impl<'s> FusedIter<'s> {
    /// Builds the cursor: resolves every spine test and predicate name
    /// once, then waits for the first pull to drain contexts.
    pub fn build(env: Env<'_, 's>, id: OpId, outer: Option<&NodeEntry>) -> Result<FusedIter<'s>> {
        let Operator::FusedScan { spine, context } = env.plan.op(id) else {
            return Err(EngineError::Unsupported(
                "FusedIter over a non-fused operator".into(),
            ));
        };
        let context_iter = match context {
            Some(c) => Some(Box::new(build_iter(env, *c, outer)?)),
            None => None,
        };
        let mut empty = false;
        let mut levels = Vec::with_capacity(spine.len());
        for node in spine {
            let filter = match env.node_filter(Axis::Child, &node.test) {
                Some(f) => f,
                None => {
                    empty = true;
                    NodeFilter::any()
                }
            };
            let name = match &node.test {
                TestSpec::Named(n) => env.store.name_id(n),
                _ => None,
            };
            let mut preds = Vec::with_capacity(node.predicates.len());
            for p in &node.predicates {
                match resolve_pred(env.store, p) {
                    Some(Some(resolved)) => preds.push(resolved),
                    Some(None) => empty = true,
                    None => {
                        return Err(EngineError::Unsupported(
                            "fused predicate branch with a non-name test".into(),
                        ))
                    }
                }
            }
            levels.push(LevelSpec {
                descendant: node.descendant,
                filter,
                name,
                preds,
            });
        }
        if levels.is_empty() || levels.len() > 32 {
            return Err(EngineError::Unsupported(
                "fused chain length outside 1..=32".into(),
            ));
        }
        Ok(FusedIter {
            op: id,
            state: OpState::Initial,
            context: context_iter,
            empty,
            levels,
            contexts: Vec::new(),
            ctx_pos: 0,
            cursor: MassCursor::unbound(env.store),
            scanning: false,
            matcher: Matcher {
                anchor_level: 0,
                stack: Vec::new(),
            },
            materialized: None,
            mat_pos: 0,
        })
    }

    /// Drains the context stream (or anchors at the query root), picks
    /// streaming vs materialized mode, and opens the first scan.
    fn init(&mut self, env: Env<'_, 's>) -> Result<()> {
        self.state = OpState::Fetching;
        if self.empty {
            self.state = OpState::OutOfTuples;
            return Ok(());
        }
        match self.context.take() {
            Some(mut ctx) => {
                ctx.next_batch(env, &mut self.contexts, usize::MAX)?;
                finish_node_set(&mut self.contexts, false);
            }
            None => self
                .contexts
                .push(anchor_for(env, ContextSource::QueryRoot, None)),
        }
        if self.contexts.is_empty() {
            self.state = OpState::OutOfTuples;
            return Ok(());
        }
        // Nested anchors would emit the same record from two scans (with
        // chain matches relative to different anchors), out of global
        // document order — materialize and dedup in that rare case.
        let nested = self
            .contexts
            .windows(2)
            .any(|w| w[0].key.is_ancestor_of(&w[1].key));
        if nested {
            let mut all = Vec::new();
            self.fill_streaming(env, &mut all, usize::MAX)?;
            finish_node_set(&mut all, false);
            self.materialized = Some(all);
        }
        Ok(())
    }

    /// Opens the scan for the next context anchor. Returns `false` when
    /// every anchor is exhausted (and lets go of the cursor's page).
    fn advance_context(&mut self, env: Env<'_, 's>) -> bool {
        while self.ctx_pos < self.contexts.len() {
            let anchor = &self.contexts[self.ctx_pos];
            self.ctx_pos += 1;
            let base = KeyRange::descendants(&anchor.key);
            let range = match self.narrow_range(env, anchor, &base) {
                Some(r) => r,
                None => continue, // provably empty below this anchor
            };
            if range.is_empty() {
                continue;
            }
            self.matcher.reset(anchor.key.level());
            self.cursor.rebound(&range);
            self.scanning = true;
            return true;
        }
        self.cursor.release();
        false
    }

    /// Narrows the scan to the envelope of level 0's clustered name keys
    /// below `anchor` — a chain headed by a named step only ever
    /// produces records between the first matching element and the end
    /// of the last one's subtree. Returns `None` when the name does not
    /// occur below the anchor at all.
    fn narrow_range(
        &self,
        env: Env<'_, 's>,
        anchor: &NodeEntry,
        base: &KeyRange,
    ) -> Option<KeyRange> {
        let Some(name) = self.levels[0].name else {
            return Some(base.clone());
        };
        let keys = env.store.name_index().elements(name).slice_in(base);
        let (first, last) = if self.levels[0].descendant {
            let first = keys.first()?;
            let deepest_last = keys.last()?;
            // Matches can nest: an earlier, shallower match's subtree
            // may extend past the last match's. Any match reaching
            // beyond `subtree_upper(last)` must contain `last` (a
            // disjoint earlier subtree ends before `last` starts), so
            // the widest subtree belongs to the first ancestor-or-self
            // of `last` in the slice — flat ancestor keys are byte
            // prefixes of their descendants'.
            let outer = keys
                .iter()
                .find(|k| deepest_last.starts_with(k))
                .unwrap_or(deepest_last);
            (first, outer)
        } else {
            // Child edge: every match sits at the anchor's child level,
            // so subtrees are disjoint and the last one ends the range.
            let want = anchor.key.level() + 1;
            let first = keys.iter().find(|k| flat_level(k) == want)?;
            let last = keys.iter().rfind(|k| flat_level(k) == want)?;
            (first, last)
        };
        let envelope = KeyRange {
            lo: first.to_vec(),
            hi: FlexKey::from_flat_slice(last).subtree_upper(),
        };
        Some(envelope.intersect(base))
    }

    /// The streaming engine: fills `out` with up to `max` matches,
    /// advancing through context anchors as scans drain. A short count
    /// means every anchor is exhausted.
    fn fill_streaming(
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
            if !self.scanning {
                if !self.advance_context(env) {
                    return Ok(out.len() - start);
                }
                continue;
            }
            let want = max - produced;
            let store = env.store;
            let matcher = &mut self.matcher;
            let levels = &self.levels;
            let got =
                self.cursor
                    .next_batch_where(|rec| matcher.feed(store, levels, rec), out, want)?;
            // Short count: this anchor's scan is exhausted.
            self.scanning = got >= want;
        }
    }

    fn next_batch_inner(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        if self.state == OpState::Initial {
            self.init(env)?;
        }
        if self.state == OpState::OutOfTuples {
            return Ok(0);
        }
        if let Some(all) = &self.materialized {
            let end = self.mat_pos.saturating_add(max).min(all.len());
            let n = end - self.mat_pos;
            out.extend_from_slice(&all[self.mat_pos..end]);
            self.mat_pos = end;
            if n < max {
                self.state = OpState::OutOfTuples;
            }
            return Ok(n);
        }
        let n = self.fill_streaming(env, out, max)?;
        if n < max {
            self.state = OpState::OutOfTuples;
        }
        Ok(n)
    }

    /// The pull, with the standard analyze instrumentation (pool
    /// probe/pin deltas credit the scan's page traffic to this operator).
    pub fn next_batch(
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
}

/// Resolves one predicate branch. `None` = branch holds a non-name
/// test (a planner bug — the fusion pass never emits it);
/// `Some(None)` = a name that does not occur in the store, so the
/// branch (and thus its spine level) is provably unsatisfiable.
#[allow(clippy::option_option)]
fn resolve_pred(store: &MassStore, node: &FusedNode) -> Option<Option<PredNode>> {
    let TestSpec::Named(name) = &node.test else {
        return None;
    };
    let Some(id) = store.name_id(name) else {
        return Some(None);
    };
    let mut children = Vec::with_capacity(node.predicates.len());
    for c in &node.predicates {
        match resolve_pred(store, c)? {
            Some(r) => children.push(r),
            None => return Some(None),
        }
    }
    Some(Some(PredNode {
        descendant: node.descendant,
        name: id,
        children,
    }))
}
