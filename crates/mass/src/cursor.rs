//! Forward cursor over the clustered index.
//!
//! A [`MassCursor`] iterates records in document order within a
//! [`KeyRange`], crossing page boundaries through the buffer pool. A
//! subtree ends on the pinned page at the first record that shares less
//! than the subtree key's length with its predecessor (`Page::shared`),
//! so neither a child/sibling scan's leap over a whole subtree (MASS's
//! sibling jump) nor the end of a subtree range — every downward axis
//! range is one — compares keys; only a jump that runs off the page
//! [`MassCursor::seek`]s its `subtree_upper` bound.
//!
//! A cursor is also a *finger*: it keeps its place — sparse-index
//! position, pinned page, record slot — when its range runs out, and
//! [`MassCursor::rebound`] gives it the next range. A step that opens
//! one range per context tuple, in document order, finds the next range
//! on the page it already holds (a gallop of a few slots from where it
//! stands) or on the page after; only a range further off pays for the
//! bisect of the sparse index and a buffer-pool request. Contexts that
//! follow one another — siblings — are a single forward *sweep*
//! (`MassCursor::sweep`): the next context's record is the one the last
//! subtree ended on, so its range starts one slot on, without a search.
//! Where the cursor stood never changes what it yields, only what finding
//! it costs.

use crate::axes::NodeEntry;
use crate::error::Result;
use crate::names::NameId;
use crate::page::{Page, RecordView};
use crate::record::{NodeRecord, RecordKind};
use crate::store::MassStore;
use std::sync::Arc;
use vamana_flex::{flat_is_ancestor, FlexKey, KeyRange};

/// Document-order record cursor bounded by a key range.
pub struct MassCursor<'a> {
    store: &'a MassStore,
    hi: Option<Vec<u8>>,
    /// On a subtree range, the length of the key every record in it
    /// starts with ([`MassCursor::admits`]); 0 on other ranges.
    under: usize,
    /// The record before `rec_pos` on the pinned page starts with that
    /// key: the next record's shared-prefix length says whether it does
    /// too.
    anchored: bool,
    /// Position in the store's sparse index.
    page_pos: usize,
    rec_pos: usize,
    /// The pinned page, held from pull to pull and from one range to the
    /// next; `None` with `page_pos` set is "at the start of that page,
    /// not loaded yet".
    page: Option<Arc<Page>>,
    /// Id of the page last pinned, and the records examined under that
    /// pin which the pool has not counted yet: they are added under the
    /// shard lock of the next page request (or on release), so a pin
    /// costs one lock however many pulls and ranges it serves.
    page_id: u32,
    scanned: u64,
    /// The last seek target (a range's lower bound), in a buffer every
    /// seek reuses.
    target: Vec<u8>,
    /// Set by a seek that leaves the pinned page; the target is resolved
    /// to `rec_pos` when the page is loaded.
    seeking: bool,
    done: bool,
}

fn entry(rec: RecordView<'_>) -> NodeEntry {
    NodeEntry {
        key: FlexKey::from_flat_slice(rec.key),
        kind: rec.kind,
        name: rec.name,
    }
}

impl<'a> MassCursor<'a> {
    /// A cursor over no range yet: exhausted, nothing pinned.
    pub fn unbound(store: &'a MassStore) -> Self {
        MassCursor {
            store,
            hi: None,
            under: 0,
            anchored: false,
            page_pos: 0,
            rec_pos: 0,
            page: None,
            page_id: 0,
            scanned: 0,
            target: Vec::new(),
            seeking: false,
            done: true,
        }
    }

    /// A cursor positioned at the first record inside `range`: an
    /// [unbound](MassCursor::unbound) one, [re-bound](MassCursor::rebound).
    pub fn new(store: &'a MassStore, range: KeyRange) -> Self {
        let mut c = Self::unbound(store);
        c.rebound(&range);
        c
    }

    /// Gives the cursor a new range and positions it at the range's
    /// first record, from wherever it stands (see the module docs). What
    /// it then yields is what a new cursor over `range` yields.
    pub fn rebound(&mut self, range: &KeyRange) {
        self.target.clone_from(&range.lo);
        self.hi.clone_from(&range.hi);
        self.under = subtree_prefix(range);
        self.reseek();
    }

    /// [`MassCursor::rebound`] to the subtree of `ctx` — its descendants
    /// if `past` — without a search, when `ctx`'s record is where the last
    /// subtree range ends on the pinned page (as its key's next sibling
    /// is); the rest of that range, if the cursor was left inside it, is
    /// stepped over by shared-prefix lengths. Returns `false`, changing
    /// nothing, when `ctx` is not there (or is the document node).
    pub(crate) fn sweep(&mut self, ctx: &[u8], past: bool) -> bool {
        let Some(page) = &self.page else {
            return false;
        };
        let mut at = self.rec_pos;
        if self.anchored && self.under > 0 {
            at = page.run_end(at, self.under);
        }
        if ctx.is_empty() || at >= page.len() || page.key(at) != ctx {
            return false;
        }
        self.rec_pos = at + usize::from(past);
        // `FlexKey::subtree_upper`, in place.
        let hi = self.hi.get_or_insert_with(Vec::new);
        hi.clear();
        hi.extend_from_slice(ctx);
        *hi.last_mut().expect("not the document node") = 1;
        self.under = ctx.len();
        // The record before a descendants range is `ctx` itself.
        self.anchored = past;
        self.done = false;
        true
    }

    /// The range's upper bound (`None`: the end of the index).
    pub(crate) fn end(&self) -> &Option<Vec<u8>> {
        &self.hi
    }

    /// Repositions the cursor at the first record with key `>= flat`
    /// (which may be before or after the current position). The upper
    /// bound is unchanged.
    pub fn seek(&mut self, flat: &[u8]) {
        self.target.clear();
        self.target.extend_from_slice(flat);
        self.reseek();
    }

    /// The kind and name of the record keyed `flat`, if one is stored: a
    /// point seek ([`MassCursor::seek`]) from where the cursor stands, so a
    /// key on the pinned page costs a gallop over its slots and no page
    /// request. The cursor is left on the record (or where it would be).
    pub(crate) fn lookup(&mut self, flat: &[u8]) -> Result<Option<(RecordKind, Option<NameId>)>> {
        self.seek(flat);
        if !self.load()? {
            return Ok(None);
        }
        let page = self.page.as_ref().expect("loaded");
        let at = self.rec_pos;
        if page.key(at) != flat {
            return Ok(None);
        }
        self.scanned += 1;
        Ok(Some((page.kind(at), page.name(at))))
    }

    /// [`MassCursor::seek`] to the key already in `self.target`: on the
    /// page at hand, a gallop from the current slot; on the page after
    /// it, a step; anywhere else, a bisect of the sparse index.
    fn reseek(&mut self) {
        let index = &self.store.index;
        self.seeking = false;
        self.anchored = false;
        self.done = index.is_empty();
        if self.done {
            return;
        }
        let target = self.target.as_slice();
        // Whether page `at` starts above the target (as a page past the
        // end does): then the target lies on an earlier page.
        let above = |at: usize| {
            index
                .get(at)
                .is_none_or(|(first, _)| target < first.as_slice())
        };
        // The first page also holds whatever sorts before its first key.
        let here = self.page_pos;
        let reaches_back = |at: usize| at == 0 || !above(at);
        match &self.page {
            Some(page) => {
                // Landing between two of its records settles that the
                // target is on the pinned page; only at its edges does
                // the sparse index have to say.
                let slot = page.lower_bound_from(self.rec_pos, target);
                let on_page = match slot {
                    0 => reaches_back(here),
                    at if at == page.len() => above(here + 1),
                    _ => true,
                };
                if on_page {
                    self.rec_pos = slot;
                    return;
                }
            }
            None if reaches_back(here) && above(here + 1) => {
                self.seeking = true;
                return;
            }
            None => {}
        }
        self.page = None;
        self.seeking = true;
        self.page_pos = if !above(here + 1) && above(here + 2) {
            here + 1
        } else {
            index
                .partition_point(|(first, _)| first.as_slice() <= target)
                .saturating_sub(1)
        };
    }

    /// Lets go of the pinned page and has the pool count what was
    /// examined under it. The cursor keeps its place and range. Its owner
    /// calls this when it is out of ranges to give it; a cursor dropped
    /// without it leaves that one last pin out of
    /// [`crate::BufferStats::batch_pins`] and `pins_saved` (page requests
    /// are counted when made, and are exact either way). There is no
    /// `Drop` to do it: a destructor on a type that borrows the store
    /// would keep every stream's engine borrowed until the stream goes
    /// out of scope.
    pub fn release(&mut self) {
        self.page = None;
        if self.scanned > 0 {
            let scanned = std::mem::take(&mut self.scanned);
            self.store.pool.note_pin(self.page_id, scanned);
        }
    }

    /// Loads pages until the cursor rests on a record — whether below the
    /// upper bound is the caller's to find out. Returns `false` at the end
    /// of the index.
    fn load(&mut self) -> Result<bool> {
        loop {
            if self.done {
                return Ok(false);
            }
            if self.page.is_none() {
                let Some(&(_, id)) = self.store.index.get(self.page_pos) else {
                    self.done = true;
                    return Ok(false);
                };
                let left = std::mem::take(&mut self.scanned);
                let page = self.store.pool.get_noting(id, left)?;
                self.page_id = id;
                self.anchored = false;
                self.rec_pos = if std::mem::take(&mut self.seeking) {
                    match page.find(&self.target) {
                        Ok(i) | Err(i) => i,
                    }
                } else {
                    0
                };
                self.page = Some(page);
            }
            if self.rec_pos < self.page.as_ref().expect("just loaded").len() {
                return Ok(true);
            }
            self.page = None;
            self.page_pos += 1;
        }
    }

    /// Loads pages until the cursor rests on an in-range record.
    /// Returns `false` when the range is exhausted.
    fn position(&mut self) -> Result<bool> {
        if !self.load()? {
            return Ok(false);
        }
        let page = self.page.as_ref().expect("loaded");
        if let Some(hi) = &self.hi {
            if page.key(self.rec_pos) >= hi.as_slice() {
                self.done = true;
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Steps to the next record and lends it in place — the page it lies
    /// on and its index there — or `None` when the range is exhausted.
    /// Nothing is copied: callers read what they need through the page's
    /// accessors.
    pub fn next_in_place(&mut self) -> Result<Option<(&Page, usize)>> {
        if !self.position()? {
            return Ok(None);
        }
        let i = self.rec_pos;
        self.rec_pos += 1;
        Ok(Some((self.page.as_deref().expect("positioned"), i)))
    }

    /// Pulls the next record as an owned [`NodeRecord`], or `None` when
    /// the range is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible, so not Iterator
    pub fn next(&mut self) -> Result<Option<NodeRecord>> {
        match self.next_in_place()? {
            Some((page, i)) => page.record(i).map(Some),
            None => Ok(None),
        }
    }

    /// Pulls up to `max` records as [`crate::axes::NodeEntry`]s (values
    /// are not looked at — axis scans never need them) into `out`,
    /// pinning each page once and walking every qualifying slot on it
    /// in one pass. Returns the number of entries appended; a short (or
    /// zero) count means the range is exhausted.
    ///
    /// The per-record work is a key copy and a push; page lookup, shard
    /// locking, and the upper bound are amortized across the whole page
    /// (only the page the bound falls on is searched for it, once).
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        self.batch_scan(out, max, |_| true)
    }

    /// Like [`MassCursor::next_batch`], but applies the axis-level record
    /// checks inline before materializing an entry — the backing of
    /// [`crate::axes::AxisStream::next_batch`] for clustered scans.
    pub(crate) fn next_batch_filtered(
        &mut self,
        filter: &crate::axes::NodeFilter,
        skip_attrs: bool,
        not_ancestor_of: Option<&FlexKey>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let ctx = not_ancestor_of.map(FlexKey::as_flat);
        self.batch_scan(out, max, |rec| {
            if skip_attrs && rec.kind == RecordKind::Attribute {
                return false;
            }
            if ctx.is_some_and(|ctx| flat_is_ancestor(rec.key, ctx)) {
                return false;
            }
            filter.matches_parts(rec.kind, rec.name)
        })
    }

    /// Sibling-jump scan: like [`MassCursor::next_batch_filtered`] but
    /// after visiting a record it skips the record's whole subtree (the
    /// MASS sibling jump), so only nodes at the scan level are visited —
    /// the backing of the `JumpScan` axis mode.
    ///
    /// A jump that lands on the *same* page reads its target off the
    /// shared-prefix lengths of the slots after the record
    /// (`Page::subtree_end`: past a leaf, one look); one that leaves the
    /// page seeks the subtree's `subtree_upper`, which looks at the sparse
    /// index first and steps to the next page when the subtree ends there.
    /// Sibling runs cluster on few pages, so most jumps stay in-page and
    /// most others are that step.
    pub(crate) fn next_batch_jump(
        &mut self,
        filter: &crate::axes::NodeFilter,
        skip_attrs: bool,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        while out.len() - start < max {
            if !self.load()? {
                break;
            }
            // Taken out for the walk (no reference count traffic) and put
            // back below unless the walk used the page up.
            let page = self.page.take().expect("loaded");
            let bounded = self.falls_on(&page);
            let mut i = self.rec_pos;
            let mut off_page = false;
            let mut ended = false;
            while i < page.len() && out.len() - start < max {
                if bounded && !self.admits(&page, i, i > self.rec_pos || self.anchored) {
                    ended = true;
                    break;
                }
                let rec = page.view(i);
                self.scanned += 1;
                if (!skip_attrs || rec.kind != RecordKind::Attribute)
                    && filter.matches_parts(rec.kind, rec.name)
                {
                    out.push(entry(rec));
                }
                // Jump past this record's subtree to its next sibling.
                if rec.key.is_empty() {
                    i += 1;
                    continue;
                }
                let next = page.subtree_end(i);
                if next == page.len() {
                    // The subtree may continue past this page: seek its
                    // `subtree_upper` (the key with its final terminator
                    // bumped), built in the cursor's own buffer. A seek
                    // preserves the upper bound.
                    self.target.clear();
                    self.target.extend_from_slice(rec.key);
                    *self.target.last_mut().expect("non-root") = 1;
                    off_page = true;
                    break;
                }
                i = next;
            }
            self.anchored |= i > self.rec_pos;
            self.rec_pos = i;
            if off_page {
                self.page = Some(page);
                self.reseek();
            } else if !self.keep_or_pass(page, ended) {
                break;
            }
        }
        Ok(out.len() - start)
    }

    /// Shared scan: walks whole pinned pages, appending entries
    /// for records that pass `keep`, until `max` entries were produced or
    /// the range is exhausted.
    fn batch_scan(
        &mut self,
        out: &mut Vec<NodeEntry>,
        max: usize,
        mut keep: impl FnMut(RecordView<'_>) -> bool,
    ) -> Result<usize> {
        let start = out.len();
        while out.len() - start < max {
            if !self.load()? {
                break;
            }
            let page = self.page.take().expect("loaded");
            let end = self.walk_end(&page);
            let mut i = self.rec_pos;
            for rec in page.views(i..end) {
                if out.len() - start >= max {
                    break;
                }
                i += 1;
                if keep(rec) {
                    out.push(entry(rec));
                }
            }
            self.scanned += (i - self.rec_pos) as u64;
            self.anchored |= i > self.rec_pos;
            self.rec_pos = i;
            let ended = i == end && end < page.len();
            if !self.keep_or_pass(page, ended) {
                break;
            }
        }
        Ok(out.len() - start)
    }

    /// Whether the upper bound falls on `page` (its last key reaches it):
    /// only then are the records walked held against it.
    fn falls_on(&self, page: &Page) -> bool {
        let hi = self.hi.as_deref();
        hi.is_some_and(|hi| page.last_key().is_some_and(|last| last >= hi))
    }

    /// Whether record `i` of `page` lies below the upper bound. When record
    /// `i - 1` does (`after_in`) and the range is a subtree, no key is
    /// compared: record `i` is in it exactly when it shares the subtree
    /// key's length with its predecessor (`Page::shared`) — the first
    /// record the subtree's key is not a prefix of ends the range.
    fn admits(&self, page: &Page, i: usize, after_in: bool) -> bool {
        if after_in && self.under > 0 {
            page.shared(i) >= self.under
        } else {
            self.hi.as_deref().is_none_or(|hi| page.key(i) < hi)
        }
    }

    /// The first record of `page` from `rec_pos` on that the upper bound
    /// does not admit (`len()` if it does not fall on the page): on a
    /// subtree range read off the shared-prefix lengths, on others
    /// galloped for.
    fn walk_end(&self, page: &Page) -> usize {
        let from = self.rec_pos;
        match self.hi.as_deref() {
            Some(hi) if self.falls_on(page) => {
                if self.under == 0 {
                    page.lower_bound_after(from, hi)
                } else if self.anchored || self.admits(page, from, false) {
                    page.run_end(from + usize::from(!self.anchored), self.under)
                } else {
                    from
                }
            }
            _ => page.len(),
        }
    }

    /// After a walk of `page` stopped at `rec_pos`: keeps it pinned when
    /// the walk stopped on it — at the upper bound (`ended`; the range is
    /// exhausted, and the next range most likely starts on this page) or
    /// at the pull's end — and otherwise unpins it and moves on. Returns
    /// `false` when the range is exhausted.
    fn keep_or_pass(&mut self, page: Arc<Page>, ended: bool) -> bool {
        if ended || self.rec_pos < page.len() {
            self.page = Some(page);
        } else {
            self.page_pos += 1;
        }
        self.done = ended;
        !ended
    }
}

/// The length of the key every record of `range` starts with, if it is a
/// subtree range — it ends at a key's `subtree_upper` and starts at or
/// under that key — else 0.
fn subtree_prefix(range: &KeyRange) -> usize {
    match range.hi.as_deref().and_then(<[u8]>::split_last) {
        Some((&1, stem)) if range.lo.starts_with(stem) && range.lo.get(stem.len()) == Some(&0) => {
            stem.len() + 1
        }
        _ => 0,
    }
}

// Cursor behavior is tested together with the loader in
// `crate::loader::tests` (a cursor needs a populated store), re-bounding
// against new cursors in `tests/axes.rs`.
