//! Forward cursor over the clustered index.
//!
//! A [`MassCursor`] iterates records in document order within a
//! [`KeyRange`], crossing page boundaries through the buffer pool. Its
//! [`MassCursor::seek`] method is the primitive behind MASS's
//! sibling-jump evaluation: a child/sibling scan leaps over whole
//! subtrees by seeking their `subtree_upper` bound instead of reading
//! through them.

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
    page: Option<Arc<Page>>,
    /// The last `seek` target, in a buffer every seek reuses.
    target: Vec<u8>,
    /// Set by `seek`; the target is resolved to `rec_pos` when the page
    /// is loaded.
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
    /// A cursor positioned at the first record inside `range`.
    pub fn new(store: &'a MassStore, range: KeyRange) -> Self {
        let mut c = MassCursor {
            store,
            hi: range.hi,
            page_pos: 0,
            rec_pos: 0,
            page: None,
            target: range.lo,
            seeking: false,
            done: false,
        };
        c.seek_target();
        c
    }

    /// Repositions the cursor at the first record with key `>= flat`
    /// (which may be before or after the current position). The upper
    /// bound is unchanged.
    pub fn seek(&mut self, flat: &[u8]) {
        self.target.clear();
        self.target.extend_from_slice(flat);
        self.seek_target();
    }

    /// [`MassCursor::seek`] to the key already in `self.target`.
    fn seek_target(&mut self) {
        self.page = None;
        self.done = self.store.index.is_empty();
        if self.done {
            return;
        }
        let pos = self
            .store
            .index
            .partition_point(|(first, _)| first.as_slice() <= self.target.as_slice());
        self.page_pos = pos.saturating_sub(1);
        self.seeking = true;
    }

    /// Loads pages until the cursor rests on an in-range record.
    /// Returns `false` when the range is exhausted.
    fn position(&mut self) -> Result<bool> {
        loop {
            if self.done {
                return Ok(false);
            }
            if self.page.is_none() {
                if self.page_pos >= self.store.index.len() {
                    self.done = true;
                    return Ok(false);
                }
                let page = self.store.pool.get(self.store.index[self.page_pos].1)?;
                self.rec_pos = if std::mem::take(&mut self.seeking) {
                    match page.find(&self.target) {
                        Ok(i) | Err(i) => i,
                    }
                } else {
                    0
                };
                self.page = Some(page);
            }
            let page = self.page.as_ref().expect("just loaded");
            if self.rec_pos >= page.len() {
                self.page = None;
                self.page_pos += 1;
                continue;
            }
            if let Some(hi) = &self.hi {
                if page.key(self.rec_pos) >= hi.as_slice() {
                    self.done = true;
                    return Ok(false);
                }
            }
            return Ok(true);
        }
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

    /// Like [`MassCursor::next_batch`], but with a caller-supplied
    /// stateful predicate deciding which records materialize an entry.
    ///
    /// This is the entry point for whole-query fused scans in
    /// `vamana-core`: the closure threads a path-matching automaton over
    /// the records of every pinned page, so an entire step chain is
    /// evaluated under one page pin per page instead of one scan per
    /// location step.
    pub fn next_batch_where(
        &mut self,
        keep: impl FnMut(RecordView<'_>) -> bool,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        self.batch_scan(out, max, keep)
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
    /// that lies below the cursor's upper bound.
    fn page_end(&self, page: &Page) -> usize {
        match &self.hi {
            Some(hi) => page.partition_point(self.rec_pos..page.len(), |k| k < hi.as_slice()),
            None => page.len(),
        }
    }

    /// Sibling-jump scan: like [`MassCursor::next_batch_filtered`] but
    /// after visiting a record it skips the record's whole subtree (the
    /// MASS sibling jump), so only nodes at the scan level are visited —
    /// the backing of the `JumpScan` axis mode.
    ///
    /// A jump whose target lands on the *same* page is resolved by binary
    /// search over the already-pinned slots; only jumps that leave the
    /// page pay for a buffer-pool lookup. Sibling runs cluster on few
    /// pages, so most jumps stay in-page.
    pub(crate) fn next_batch_jump(
        &mut self,
        filter: &crate::axes::NodeFilter,
        skip_attrs: bool,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        while out.len() - start < max {
            if !self.position()? {
                break;
            }
            let page_id = self.store.index[self.page_pos].1;
            let page = self.page.clone().expect("positioned");
            let end = self.page_end(&page);
            let mut i = self.rec_pos;
            let mut visited = 0u64;
            let mut sought = false;
            while i < end && out.len() - start < max {
                let rec = page.view(i);
                visited += 1;
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
                        // The subtree may continue past this page: fall
                        // back to a full seek of its `subtree_upper`
                        // (the key with its final terminator bumped),
                        // built in the cursor's own buffer. `seek`
                        // preserves the upper bound.
                        self.rec_pos = i + 1;
                        self.target.clear();
                        self.target.extend_from_slice(flat);
                        *self.target.last_mut().expect("non-root") = 1;
                        self.seek_target();
                        sought = true;
                        break;
                    }
                    i = target;
                }
            }
            if visited > 0 {
                self.store.pool.note_batch(page_id, visited);
            }
            if sought {
                continue;
            }
            self.rec_pos = i;
            if i >= end {
                if end < page.len() {
                    // The upper bound falls inside this page.
                    self.done = true;
                    break;
                }
                self.page = None;
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
            if !self.position()? {
                break;
            }
            let page_id = self.store.index[self.page_pos].1;
            let page = self.page.clone().expect("positioned");
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
            let scanned = (i - self.rec_pos) as u64;
            self.rec_pos = i;
            if scanned > 0 {
                self.store.pool.note_batch(page_id, scanned);
            }
            if i >= end {
                if end < page.len() {
                    // The upper bound falls inside this page.
                    self.done = true;
                    break;
                }
                // Page fully consumed: unpin and move on.
                self.page = None;
                self.page_pos += 1;
            }
        }
        Ok(out.len() - start)
    }

    /// Key of the record `next` would return, without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<Vec<u8>>> {
        if !self.position()? {
            return Ok(None);
        }
        let page = self.page.as_ref().expect("positioned");
        Ok(Some(page.key(self.rec_pos).to_vec()))
    }
}

// Cursor behavior is tested together with the loader in
// `crate::loader::tests` (a cursor needs a populated store).
