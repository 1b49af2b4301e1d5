//! Forward cursor over the clustered index.
//!
//! A [`MassCursor`] iterates records in document order within a
//! [`KeyRange`], crossing page boundaries through the buffer pool. Its
//! [`MassCursor::seek`] method is the primitive behind MASS's
//! sibling-jump evaluation: a child/sibling scan leaps over whole
//! subtrees by seeking their `subtree_upper` bound instead of reading
//! through them.
//!
//! A cursor is also a *finger*: it keeps its place — sparse-index
//! position, pinned page, record slot — when its range runs out, and
//! [`MassCursor::rebound`] gives it the next range. A step that opens
//! one range per context tuple, in document order, finds the next range
//! on the page it already holds (a gallop of a few slots from where it
//! stands) or on the page after; only a range further off pays for the
//! bisect of the sparse index and a buffer-pool request. Where the
//! cursor stood never changes what it yields, only what finding it
//! costs.

use crate::axes::NodeEntry;
use crate::error::Result;
use crate::page::{Page, RecordView};
use crate::record::{NodeRecord, RecordKind};
use crate::store::MassStore;
use std::sync::Arc;
use vamana_flex::{flat_is_ancestor, FlexKey, KeyRange};

/// Document-order record cursor bounded by a key range.
pub struct MassCursor<'a> {
    store: &'a MassStore,
    hi: Option<Vec<u8>>,
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
        self.reseek();
    }

    /// Repositions the cursor at the first record with key `>= flat`
    /// (which may be before or after the current position). The upper
    /// bound is unchanged.
    pub fn seek(&mut self, flat: &[u8]) {
        self.target.clear();
        self.target.extend_from_slice(flat);
        self.reseek();
    }

    /// [`MassCursor::seek`] to the key already in `self.target`: on the
    /// page at hand, a gallop from the current slot; on the page after
    /// it, a step; anywhere else, a bisect of the sparse index.
    fn reseek(&mut self) {
        let index = &self.store.index;
        self.seeking = false;
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
    /// upper bound is the caller's to find out ([`MassCursor::position`],
    /// [`MassCursor::page_end`]). Returns `false` at the end of the index.
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
    /// locking, and the upper bound comparison are amortized across the
    /// whole page (the bound is resolved once per page by binary search
    /// instead of once per record).
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

    /// Index one past the last record of `page`, from `self.rec_pos` on,
    /// that lies below the cursor's upper bound (`rec_pos` itself when
    /// none does): the page's length when its last key does, else a
    /// gallop from `rec_pos` — a context's range ends a few records on,
    /// and everything before `rec_pos` is below the bound or the range.
    fn page_end(&self, page: &Page) -> usize {
        match &self.hi {
            Some(hi) if page.last_key().is_some_and(|last| last >= hi.as_slice()) => {
                page.lower_bound_after(self.rec_pos, hi)
            }
            _ => page.len(),
        }
    }

    /// Sibling-jump scan: like [`MassCursor::next_batch_filtered`] but
    /// after visiting a record it skips the record's whole subtree (the
    /// MASS sibling jump), so only nodes at the scan level are visited —
    /// the backing of the `JumpScan` axis mode.
    ///
    /// A jump whose target lands on the *same* page is resolved by binary
    /// search over the already-pinned slots; one that leaves the page
    /// looks at the sparse index first, and steps to the next page when
    /// the subtree ends there. Sibling runs cluster on few pages, so most
    /// jumps stay in-page and most others are that step.
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
            let end = self.page_end(&page);
            let mut i = self.rec_pos;
            let mut off_page = false;
            while i < end && out.len() - start < max {
                let rec = page.view(i);
                self.scanned += 1;
                if (!skip_attrs || rec.kind != RecordKind::Attribute)
                    && filter.matches_parts(rec.kind, rec.name)
                {
                    out.push(entry(rec));
                }
                // Jump past this record's subtree to its next sibling.
                // A descendant's flat key extends its ancestor's, so the
                // subtree is exactly the run of records whose keys start
                // with this one — partitioned without materializing the
                // `subtree_upper` bound.
                let flat = rec.key;
                if flat.is_empty() {
                    i += 1;
                } else {
                    let target = page.partition_point(i + 1..end, |k| k.starts_with(flat));
                    if target >= end && end == page.len() {
                        // The subtree may continue past this page: seek
                        // its `subtree_upper` (the key with its final
                        // terminator bumped), built in the cursor's own
                        // buffer. A seek preserves the upper bound.
                        self.target.clear();
                        self.target.extend_from_slice(flat);
                        *self.target.last_mut().expect("non-root") = 1;
                        off_page = true;
                        break;
                    }
                    i = target;
                }
            }
            self.rec_pos = i;
            if off_page {
                self.page = Some(page);
                self.reseek();
            } else if i < end {
                self.page = Some(page);
            } else if end < page.len() {
                // The upper bound falls inside this page, which the next
                // range most likely starts on.
                self.page = Some(page);
                self.done = true;
                break;
            } else {
                // Page fully consumed: unpin and move on.
                self.page_pos += 1;
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
            // Resolve the upper bound once for the whole page instead of
            // comparing keys record by record.
            let end = self.page_end(&page);
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
            self.rec_pos = i;
            if i < end {
                self.page = Some(page);
            } else if end < page.len() {
                // The upper bound falls inside this page, which the next
                // range most likely starts on.
                self.page = Some(page);
                self.done = true;
                break;
            } else {
                // Page fully consumed: unpin and move on.
                self.page_pos += 1;
            }
        }
        Ok(out.len() - start)
    }
}

// Cursor behavior is tested together with the loader in
// `crate::loader::tests` (a cursor needs a populated store), re-bounding
// against new cursors in `tests/axes.rs`.
