//! [`MassStore`]: the clustered, multi-document MASS index.
//!
//! Records of every loaded document live in FLEX-key order across
//! fixed-size pages; an in-memory sparse index maps each page's first key
//! to its page id. Name and value indexes hang off the store and answer
//! the counting queries that drive VAMANA's cost model.
//!
//! Each document `i` is rooted at a *document record* with key
//! `[seq_label(i)]` (kind [`RecordKind::Document`]); the whole database is
//! the subtree of the empty key, so "cost over the entire database, one
//! document, or a specific point" (paper §I.A) are all the same range
//! query with different bounds.

use crate::buffer::BufferPool;
use crate::compress::{StoreFormat, ValueDict};
use crate::cursor::MassCursor;
use crate::error::{MassError, Result};
use crate::footprint::Footprint;
use crate::name_index::{NameIndex, SortedKeys};
use crate::names::{NameId, NameTable};
use crate::page::PageBuf;
use crate::pager::{FilePager, MemoryPager, PageStore};
use crate::record::{NodeRecord, RecordKind, ValueRef, ValueView};
use crate::stats::StoreStats;
use crate::value_index::{RangeOp, ValueIndex};
use crate::wal::{FileWalBackend, FsyncPolicy, Wal, WalBackend, WalRecord, WalStats};
use std::path::Path;
use vamana_flex::{attr_label, label_between, seq_label, FlexKey, KeyRange};

/// Values longer than this go to the overflow blob heap.
pub const INLINE_VALUE_MAX: usize = 1024;

/// Identifier of a loaded document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocId(pub u32);

/// Registry entry for one document.
#[derive(Debug, Clone)]
pub struct DocInfo {
    /// Caller-supplied document name.
    pub name: Box<str>,
    /// Key of the document record (the XPath document node).
    pub doc_key: FlexKey,
}

/// The MASS storage structure.
pub struct MassStore {
    pub(crate) pool: BufferPool,
    /// Sparse index: (first flat key on page, page id), key-ordered.
    pub(crate) index: Vec<(Vec<u8>, u32)>,
    pub(crate) names: NameTable,
    pub(crate) name_index: NameIndex,
    pub(crate) value_index: ValueIndex,
    pub(crate) docs: Vec<DocInfo>,
    pub(crate) tuples: u64,
    /// Page ids emptied by deletes, reused by later inserts.
    pub(crate) free_pages: Vec<u32>,
    /// Bumped on every mutation (loads, inserts, deletes). Cached
    /// artifacts derived from store contents — compiled plans, cost
    /// estimates — key on this to detect staleness.
    pub(crate) generation: u64,
    /// Per-document mutation counters, parallel to `docs`. A plan cached
    /// for one document stays valid while *other* documents change.
    pub(crate) doc_gens: Vec<u64>,
    /// Write-ahead log for durable stores; `None` = volatile store.
    pub(crate) wal: Option<Wal>,
    /// Checkpoint LSN read back from the catalog during recovery; floors
    /// LSN assignment when the log header itself was lost.
    pub(crate) checkpoint_lsn_floor: u64,
    /// Replication ring: committed frames retained for follower catch-up,
    /// independent of checkpoint truncation. `None` until
    /// [`MassStore::attach_replication`].
    pub(crate) repl: Option<crate::repl::ReplicationLog>,
    /// Format new pages are written in (existing pages keep theirs).
    pub(crate) format: StoreFormat,
    /// Per-store dictionary of hot values ([`ValueRef::Dict`] targets).
    pub(crate) dict: ValueDict,
    /// On-disk format of each live data page (tracked at write/decode
    /// time, so stats never have to touch the pages).
    pub(crate) page_formats: std::collections::HashMap<u32, StoreFormat>,
    /// Sum of the v1 encodings of every stored record — the uncompressed
    /// footprint the compression ratio is measured against.
    pub(crate) logical_bytes: u64,
}

impl std::fmt::Debug for MassStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MassStore")
            .field("pages", &self.index.len())
            .field("tuples", &self.tuples)
            .field("documents", &self.docs.len())
            .finish_non_exhaustive()
    }
}

impl MassStore {
    /// An empty in-memory store with the default buffer-pool size.
    pub fn open_memory() -> Self {
        Self::with_pager(Box::new(MemoryPager::new()), BufferPool::DEFAULT_CAPACITY)
    }

    /// An empty in-memory store with `capacity` cached pages.
    pub fn open_memory_with_capacity(capacity: usize) -> Self {
        Self::with_pager(Box::new(MemoryPager::new()), capacity)
    }

    /// Creates a new file-backed store at `path` (truncates existing).
    pub fn create_file<P: AsRef<Path>>(path: P, capacity: usize) -> Result<Self> {
        Ok(Self::with_pager(
            Box::new(FilePager::create(path)?),
            capacity,
        ))
    }

    /// Wraps an arbitrary pager.
    pub fn with_pager(pager: Box<dyn PageStore>, capacity: usize) -> Self {
        MassStore {
            pool: BufferPool::new(pager, capacity),
            index: Vec::new(),
            names: NameTable::new(),
            name_index: NameIndex::new(),
            value_index: ValueIndex::new(),
            docs: Vec::new(),
            tuples: 0,
            free_pages: Vec::new(),
            generation: 0,
            doc_gens: Vec::new(),
            wal: None,
            checkpoint_lsn_floor: 0,
            repl: None,
            format: StoreFormat::V2,
            dict: ValueDict::new(),
            page_formats: std::collections::HashMap::new(),
            logical_bytes: 0,
        }
    }

    /// Format new pages are written in.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Selects the page format for this store. Must be called before any
    /// data is loaded: existing pages keep the format they were written
    /// in, and flipping mid-life would make the dictionary admission
    /// non-deterministic under WAL replay.
    pub fn set_format(&mut self, format: StoreFormat) -> Result<()> {
        if self.tuples != 0 || !self.docs.is_empty() {
            return Err(MassError::InvalidUpdate(
                "store format must be chosen before loading data".into(),
            ));
        }
        self.format = format;
        // Persist the choice right away on durable stores: without this a
        // crash before the first post-load checkpoint would reopen the
        // store with the catalog's (default) format.
        if self.wal.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The value dictionary (read-only).
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Creates a new durable store at `path` (truncates existing): a
    /// file-backed pager plus a write-ahead log at `<path>.wal`. Every
    /// update commits to the log before touching pages, so the store
    /// reopens to exactly the committed state after any crash.
    pub fn create_durable<P: AsRef<Path>>(
        path: P,
        capacity: usize,
        policy: FsyncPolicy,
    ) -> Result<Self> {
        let wal_path = FilePager::wal_path(path.as_ref());
        let pager = FilePager::create(path)?;
        let backend = FileWalBackend::create(&wal_path)?;
        Self::create_with_wal(Box::new(pager), capacity, Box::new(backend), policy)
    }

    /// Reopens a durable store created with [`MassStore::create_durable`]:
    /// rebuilds the in-memory indexes from the catalog and pages, then
    /// replays the log's committed suffix (discarding any torn tail).
    pub fn open_durable<P: AsRef<Path>>(
        path: P,
        capacity: usize,
        policy: FsyncPolicy,
    ) -> Result<Self> {
        let wal_path = FilePager::wal_path(path.as_ref());
        let pager = FilePager::open(path)?;
        let backend = FileWalBackend::open(&wal_path)?;
        Self::open_with_wal(Box::new(pager), capacity, Box::new(backend), policy)
    }

    /// [`MassStore::create_durable`] over arbitrary backends (tests,
    /// fault injection).
    pub fn create_with_wal(
        pager: Box<dyn PageStore>,
        capacity: usize,
        backend: Box<dyn WalBackend>,
        policy: FsyncPolicy,
    ) -> Result<Self> {
        let mut store = Self::with_pager(pager, capacity);
        store.wal = Some(Wal::create(backend, policy)?);
        // A durable empty catalog, so a crash before the first load still
        // reopens cleanly.
        store.checkpoint()?;
        Ok(store)
    }

    /// [`MassStore::open_durable`] over arbitrary backends (tests, fault
    /// injection).
    pub fn open_with_wal(
        pager: Box<dyn PageStore>,
        capacity: usize,
        backend: Box<dyn WalBackend>,
        policy: FsyncPolicy,
    ) -> Result<Self> {
        let mut store = Self::with_pager(pager, capacity);
        store.recover()?;
        let (wal, records) = Wal::open(backend, policy, store.checkpoint_lsn_floor)?;
        store.wal = Some(wal);
        store.replay_wal(records)?;
        Ok(store)
    }

    /// Applies the committed records handed back by [`Wal::open`] on top
    /// of the catalog, in replay mode ([`MassStore::apply`]).
    fn replay_wal(&mut self, records: Vec<(u64, WalRecord)>) -> Result<()> {
        self.apply(records.iter().map(|(_, rec)| rec), true)?;
        if let Some(w) = self.wal.as_mut() {
            let last = records.last().map_or(0, |(lsn, _)| *lsn);
            w.note_replayed(last, records.len() as u64);
        }
        Ok(())
    }

    /// True when updates are logged to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Write-ahead-log counters; all-zero for volatile stores.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(Wal::stats).unwrap_or_default()
    }

    /// Mutation counter: changes whenever store contents change, so
    /// callers can cheaply validate cached plans or statistics.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mutation counter for one document. Kept answers and the checks of
    /// cached plans key on `(doc, doc_generation)`, so an update to one
    /// document touches only that document's.
    pub fn doc_generation(&self, doc: DocId) -> u64 {
        self.doc_gens.get(doc.0 as usize).copied().unwrap_or(0)
    }

    // ---- names ---------------------------------------------------------

    /// The name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Interns a name (update/load path).
    pub fn intern(&mut self, name: &str) -> NameId {
        self.names.intern(name)
    }

    /// Id for `name` if it occurs anywhere in the store.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.names.lookup(name)
    }

    // ---- documents ------------------------------------------------------

    /// Loaded documents.
    pub fn documents(&self) -> &[DocInfo] {
        &self.docs
    }

    /// Document info by id.
    pub fn document(&self, id: DocId) -> Option<&DocInfo> {
        self.docs.get(id.0 as usize)
    }

    /// Looks a document up by name.
    pub fn document_by_name(&self, name: &str) -> Option<(DocId, &DocInfo)> {
        self.docs
            .iter()
            .enumerate()
            .find(|(_, d)| &*d.name == name)
            .map(|(i, d)| (DocId(i as u32), d))
    }

    /// The document that contains `key` (by its first label).
    pub fn document_of(&self, key: &FlexKey) -> Option<DocId> {
        let first = key.labels().next()?;
        let doc_key = FlexKey::root().child(first);
        self.docs
            .iter()
            .position(|d| d.doc_key == doc_key)
            .map(|i| DocId(i as u32))
    }

    // ---- point access ---------------------------------------------------

    /// Position in the sparse index of the page that could hold `flat`.
    pub(crate) fn page_pos_for(&self, flat: &[u8]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let pos = self
            .index
            .partition_point(|(first, _)| first.as_slice() <= flat);
        if pos == 0 {
            None // before the first page's first key
        } else {
            Some(pos - 1)
        }
    }

    /// Fetches the record at `key`, if present.
    pub fn get(&self, key: &FlexKey) -> Result<Option<NodeRecord>> {
        let flat = key.as_flat();
        let Some(pos) = self.page_pos_for(flat) else {
            // Could still be on page 0 if it starts exactly at `flat`.
            return Ok(None);
        };
        let page = self.pool.get(self.index[pos].1)?;
        match page.find(flat) {
            Ok(i) => page.record(i).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// True if `key` is stored.
    pub fn contains(&self, key: &FlexKey) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Point lookup returning a lightweight entry (key/kind/name) without
    /// looking at the record's value — the hot path for parent/ancestor
    /// navigation, which never needs values.
    pub fn get_entry(&self, key: &FlexKey) -> Result<Option<crate::axes::NodeEntry>> {
        let flat = key.as_flat();
        let Some(pos) = self.page_pos_for(flat) else {
            return Ok(None);
        };
        let page = self.pool.get(self.index[pos].1)?;
        match page.find(flat) {
            Ok(i) => Ok(Some(crate::axes::NodeEntry {
                key: key.clone(),
                kind: page.kind(i),
                name: page.name(i),
            })),
            Err(_) => Ok(None),
        }
    }

    /// Appends a value to `out`, following overflow and dictionary
    /// references (one lookup each; an inline value is copied straight
    /// from where it lies). Returns `false` for [`ValueView::None`].
    pub(crate) fn append_value(&self, value: ValueView<'_>, out: &mut String) -> Result<bool> {
        match value {
            ValueView::None => return Ok(false),
            ValueView::Inline(s) => out.push_str(s),
            ValueView::Overflow { offset, len } => {
                let bytes = self.pool.read_blob(offset, len)?;
                out.push_str(
                    std::str::from_utf8(&bytes)
                        .map_err(|_| MassError::CorruptRecord("non-UTF8 overflow value".into()))?,
                );
            }
            ValueView::Dict(id) => out.push_str(
                self.dict
                    .resolve(id)
                    .ok_or_else(|| MassError::CorruptRecord(format!("dangling dict id {id}")))?,
            ),
        }
        Ok(true)
    }

    /// Resolves a record's value, following overflow references.
    pub fn resolve_value(&self, rec: &NodeRecord) -> Result<Option<String>> {
        let mut out = String::new();
        Ok(self
            .append_value(rec.value.view(), &mut out)?
            .then_some(out))
    }

    /// XPath string-value of the node at `key`: direct value for leaves,
    /// concatenated descendant text for elements/documents; empty when no
    /// record has the key. Values are appended from the pages they lie on;
    /// no record is materialized.
    pub fn string_value(&self, key: &FlexKey) -> Result<String> {
        let mut out = String::new();
        let mut cur = MassCursor::unbound(self);
        self.walk_value(&mut cur, &mut KeyRange::all(), key, usize::MAX, &mut out)?;
        Ok(out)
    }

    /// The name of each of `keys`' records (`None` for an unnamed node or
    /// a key no record has) and the first `max_chars + 1` characters of
    /// its [string-value](MassStore::string_value): enough to tell whether
    /// a cut at `max_chars` leaves anything out, however long the value.
    /// One cursor is re-bound to each key's subtree in turn — a finger, so
    /// keys in document order cost a gallop on the page at hand — and an
    /// element's walk over its descendants stops once it holds the
    /// characters asked for.
    pub fn value_prefixes<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k FlexKey>,
        max_chars: usize,
    ) -> Result<Vec<(Option<NameId>, String)>> {
        let mut cur = MassCursor::unbound(self);
        let mut range = KeyRange::all();
        let cap = max_chars.saturating_add(1);
        let prefixes = keys
            .into_iter()
            .map(|key| {
                let mut value = String::new();
                let name = self.walk_value(&mut cur, &mut range, key, cap, &mut value)?;
                Ok((name, value))
            })
            .collect();
        cur.release();
        prefixes
    }

    /// The one string-value walk: appends the string-value of the node
    /// keyed `key` to `out` (which it expects empty), cut after `cap`
    /// characters, and returns the node's name. `cur` is re-bound to the
    /// node's subtree (`range` is the bound buffer it reuses), whose first
    /// record is the node's own, so kind and name come from the same pull
    /// as the values after it.
    fn walk_value(
        &self,
        cur: &mut MassCursor<'_>,
        range: &mut KeyRange,
        key: &FlexKey,
        cap: usize,
        out: &mut String,
    ) -> Result<Option<NameId>> {
        range.set_subtree(key);
        cur.rebound(range);
        let Some((page, i)) = cur.next_in_place()? else {
            return Ok(None);
        };
        if page.key(i) != key.as_flat() {
            return Ok(None);
        }
        let name = page.name(i);
        if !matches!(page.kind(i), RecordKind::Element | RecordKind::Document) {
            self.append_value(page.value(i)?, out)?;
        } else {
            let mut chars = 0;
            while chars < cap {
                let Some((page, i)) = cur.next_in_place()? else {
                    break;
                };
                if page.kind(i) == RecordKind::Text {
                    let from = out.len();
                    self.append_value(page.value(i)?, out)?;
                    if cap < usize::MAX {
                        chars += out[from..].chars().count();
                    }
                }
            }
        }
        if cap < usize::MAX {
            if let Some((at, _)) = out.char_indices().nth(cap) {
                out.truncate(at);
            }
        }
        Ok(name)
    }

    // ---- counting (the cost-model API) -----------------------------------

    /// Count of elements named `name` inside `range` — index-only.
    pub fn count_elements_in(&self, name: NameId, range: &KeyRange) -> u64 {
        self.name_index.elements(name).count_in(range)
    }

    /// Database-wide element count for `name`.
    pub fn count_elements(&self, name: NameId) -> u64 {
        self.count_elements_in(name, &KeyRange::all())
    }

    /// Count of attributes named `name` inside `range`.
    pub fn count_attributes_in(&self, name: NameId, range: &KeyRange) -> u64 {
        self.name_index.attributes(name).count_in(range)
    }

    /// Count of all elements (any name) inside `range`.
    pub fn count_all_elements_in(&self, range: &KeyRange) -> u64 {
        self.name_index.all_elements().count_in(range)
    }

    /// Count of text nodes inside `range`.
    pub fn count_text_in(&self, range: &KeyRange) -> u64 {
        self.name_index.text().count_in(range)
    }

    /// Count of comment nodes inside `range`.
    pub fn count_comments_in(&self, range: &KeyRange) -> u64 {
        self.name_index.comments().count_in(range)
    }

    /// Count of processing instructions inside `range`.
    pub fn count_pis_in(&self, range: &KeyRange) -> u64 {
        self.name_index.pis().count_in(range)
    }

    /// `TC(value)`: exact occurrences of `value` database-wide.
    pub fn text_count(&self, value: &str) -> u64 {
        self.value_index.text_count(value)
    }

    /// `TC(value)` within `range`.
    pub fn text_count_in(&self, value: &str, range: &KeyRange) -> u64 {
        self.value_index.text_count_in(value, range)
    }

    /// Count of nodes whose numeric value satisfies `op bound` in `range`.
    pub fn numeric_count_in(&self, op: RangeOp, bound: f64, range: &KeyRange) -> u64 {
        self.value_index.numeric_count_in(op, bound, range)
    }

    // ---- morsel partitioning (parallel scans) -----------------------------

    /// Positions `[start, end)` in the sparse index of the pages a scan
    /// of `range` pins; empty for an empty range or store.
    fn page_run(&self, range: &KeyRange) -> (usize, usize) {
        if range.is_empty() || self.index.is_empty() {
            return (0, 0);
        }
        let start = self.page_pos_for(&range.lo).unwrap_or(0);
        let end = match &range.hi {
            Some(hi) => self
                .index
                .partition_point(|(first, _)| first.as_slice() < hi.as_slice()),
            None => self.index.len(),
        };
        (start, end.max(start))
    }

    /// How many pages a scan of `range` pins — two binary searches of the
    /// sparse index, no page touched. Multiplied by
    /// [`MassStore::tuples_per_page`] it is the scan's tuple volume, which
    /// is what the executor prices a parallel scan with at run time.
    pub fn page_span(&self, range: &KeyRange) -> usize {
        let (start, end) = self.page_run(range);
        end - start
    }

    /// Splits `range` into at most `n` disjoint sub-ranges whose
    /// concatenation covers it exactly: equi-depth runs of the pages it
    /// spans, each interior boundary the first key of a page in the sparse
    /// index. A cursor over one sub-range therefore never pins a page that
    /// a sibling sub-range's cursor reads past its first record — parallel
    /// workers don't fight over pins, and the per-page batch amortization
    /// of [`crate::cursor::MassCursor::next_batch`] is preserved.
    ///
    /// Returns `vec![range]` when there is nothing to split (`n <= 1`,
    /// empty range/store, or the range spans a single page). Boundaries
    /// are derived from the live index: callers holding a consistent
    /// read view (same [`MassStore::generation`]) get morsels that
    /// exactly tile the serial scan.
    pub fn partition_range(&self, range: &KeyRange, n: usize) -> Vec<KeyRange> {
        let (start, end) = self.page_run(range);
        if n <= 1 || end <= start + 1 {
            return vec![range.clone()];
        }
        let pages = end - start;
        let m = n.min(pages);
        // Every cut is the first key of a page after the run's first and
        // before its end, so it lies strictly inside `range`.
        let mut parts = Vec::with_capacity(m);
        let mut lo = range.lo.clone();
        for k in 1..m {
            let cut = self.index[start + k * pages / m].0.clone();
            parts.push(KeyRange {
                lo: std::mem::replace(&mut lo, cut.clone()),
                hi: Some(cut),
            });
        }
        parts.push(KeyRange {
            lo,
            hi: range.hi.clone(),
        });
        parts
    }

    /// The name index (read-only).
    pub fn name_index(&self) -> &NameIndex {
        &self.name_index
    }

    /// The value index (read-only).
    pub fn value_index(&self) -> &ValueIndex {
        &self.value_index
    }

    /// Storage statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        let mut compressed = 0u32;
        let mut uncompressed = 0u32;
        for f in self.page_formats.values() {
            match f {
                StoreFormat::V2 => compressed += 1,
                StoreFormat::V1 => uncompressed += 1,
            }
        }
        StoreStats {
            pages: self.index.len() as u32,
            tuples: self.tuples,
            distinct_names: self.names.len(),
            distinct_values: self.value_index.distinct_values(),
            documents: self.docs.len(),
            buffer: self.pool.stats(),
            format: self.format,
            compressed_pages: compressed,
            uncompressed_pages: uncompressed,
            dict_entries: self.dict.len(),
            logical_bytes: self.logical_bytes,
        }
    }

    /// Average tuples per live clustered-index page — the blocking
    /// factor the cost model divides by to turn tuple estimates into
    /// page-I/O estimates. Reflects measured compression: v2 pages pack
    /// more records, so the same tuple count costs fewer pages.
    pub fn tuples_per_page(&self) -> f64 {
        if self.index.is_empty() {
            0.0
        } else {
            self.tuples as f64 / self.index.len() as f64
        }
    }

    /// The buffer pool (for stats reset / cache clearing in experiments).
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    // ---- bulk-load internals (used by the loader) -------------------------

    /// Converts a value string to a [`ValueRef`], spilling long values to
    /// the blob heap. On v2 stores, values already in the dictionary
    /// become [`ValueRef::Dict`] references; the dictionary is never
    /// *grown* here (admission happens only during bulk loads), so WAL
    /// replay and replication reproduce identical refs.
    pub(crate) fn make_value(&mut self, value: &str) -> Result<ValueRef> {
        if self.format == StoreFormat::V2 {
            if let Some(id) = self.dict.lookup(value) {
                return Ok(ValueRef::Dict(id));
            }
        }
        self.inline_value(value)
    }

    /// `value` in the record itself, or in the blob heap when long.
    pub(crate) fn inline_value(&mut self, value: &str) -> Result<ValueRef> {
        if value.len() <= INLINE_VALUE_MAX {
            Ok(ValueRef::Inline(value.into()))
        } else {
            let offset = self.pool.append_blob(value.as_bytes())?;
            Ok(ValueRef::Overflow {
                offset,
                len: value.len() as u32,
            })
        }
    }

    /// Bytes `rec` would occupy in the v1 record encoding (dictionary
    /// refs expanded to their inline value) — the uncompressed footprint.
    fn v1_logical_len(&self, rec: &NodeRecord) -> u64 {
        let len = match &rec.value {
            ValueRef::Dict(id) => {
                let vlen = self.dict.resolve(*id).map_or(0, str::len);
                rec.encoded_len() - 4 + vlen
            }
            _ => rec.encoded_len(),
        };
        len as u64
    }

    /// Registers a freshly created record in the secondary indexes.
    pub(crate) fn index_record(&mut self, rec: &NodeRecord, value: Option<&str>, ordered: bool) {
        let flat = rec.key.as_flat();
        let add = |list: &mut SortedKeys| {
            if ordered {
                list.push_ordered(flat)
            } else {
                list.insert(flat)
            }
        };
        match rec.kind {
            RecordKind::Element => {
                add(self.name_index.all_elements_mut());
                add(self
                    .name_index
                    .elements_mut(rec.name.expect("element has a name")));
            }
            RecordKind::Attribute => {
                add(self
                    .name_index
                    .attributes_mut(rec.name.expect("attribute has a name")));
            }
            RecordKind::Text => add(self.name_index.text_mut()),
            RecordKind::Comment => add(self.name_index.comments_mut()),
            RecordKind::Pi => add(self.name_index.pis_mut()),
            RecordKind::Document => {}
        }
        if let (RecordKind::Attribute | RecordKind::Text, Some(v)) = (rec.kind, value) {
            if ordered {
                self.value_index.insert_ordered(v, flat);
            } else {
                self.value_index.insert(v, flat);
            }
        }
        self.logical_bytes += self.v1_logical_len(rec);
        self.tuples += 1;
    }

    /// Removes a record from the secondary indexes.
    fn unindex_record(&mut self, rec: &NodeRecord) -> Result<()> {
        self.logical_bytes = self.logical_bytes.saturating_sub(self.v1_logical_len(rec));
        let flat = rec.key.as_flat();
        match rec.kind {
            RecordKind::Element => {
                let name = rec.name.expect("element has a name");
                self.name_index.elements_mut(name).remove(flat);
                self.name_index.all_elements_mut().remove(flat);
            }
            RecordKind::Attribute => {
                let name = rec.name.expect("attribute has a name");
                self.name_index.attributes_mut(name).remove(flat);
                if let Some(v) = self.resolve_value(rec)? {
                    self.value_index.remove(&v, flat);
                }
            }
            RecordKind::Text => {
                self.name_index.text_mut().remove(flat);
                if let Some(v) = self.resolve_value(rec)? {
                    self.value_index.remove(&v, flat);
                }
            }
            RecordKind::Comment => {
                self.name_index.comments_mut().remove(flat);
            }
            RecordKind::Pi => {
                self.name_index.pis_mut().remove(flat);
            }
            RecordKind::Document => {}
        }
        self.tuples -= 1;
        Ok(())
    }

    // ---- updates ----------------------------------------------------------

    /// Allocates a page, preferring ids freed by earlier deletes.
    pub(crate) fn allocate_page(&mut self) -> Result<u32> {
        match self.free_pages.pop() {
            Some(id) => Ok(id),
            None => self.pool.allocate(),
        }
    }

    /// Writes a data page through the pool, tracking the on-disk format
    /// actually used (a v2 page can fall back to v1 — the overflow rule).
    pub(crate) fn put_data_page(&mut self, id: u32, page: &PageBuf) -> Result<()> {
        let written = self.pool.put(id, page)?;
        self.page_formats.insert(id, written);
        Ok(())
    }

    /// Releases a page emptied by deletes: drops its format entry and
    /// puts the id on the free list for reuse.
    pub(crate) fn release_page(&mut self, id: u32) {
        self.page_formats.remove(&id);
        self.free_pages.push(id);
    }

    /// Writes the mutated page at sparse-index position `pos` back,
    /// splitting it first when removals pushed its (v2) payload past
    /// capacity — removing a record can lengthen its successor's
    /// front-coding. Returns the number of index entries added, so
    /// callers iterating the index can skip the new pages (their records
    /// were already examined).
    pub(crate) fn put_page_at(&mut self, pos: usize, page: PageBuf) -> Result<usize> {
        let page_id = self.index[pos].1;
        if !page.overflowed() {
            self.put_data_page(page_id, &page)?;
            return Ok(0);
        }
        let mut parts = vec![page];
        while let Some(i) = parts.iter().position(PageBuf::overflowed) {
            let upper = parts[i].split();
            parts.insert(i + 1, upper);
        }
        let mut lower = parts.remove(0);
        // In the pathological case the *lower* half is a single record
        // too big for any format; nothing to do but surface the error
        // when encoding (cannot happen for records built by this crate).
        let mut entries = Vec::with_capacity(parts.len());
        // Crash ordering, as in `insert_record`: write the new upper
        // pages before rewriting the shrunk original — duplicates are
        // repairable on recovery, loss is not.
        for part in parts {
            let first = part
                .first_key()
                .ok_or_else(|| MassError::InvalidUpdate("split produced empty page".into()))?
                .to_vec();
            let id = self.allocate_page()?;
            self.put_data_page(id, &part)?;
            entries.push((first, id));
        }
        if lower.is_empty() {
            // Cannot happen (split never empties the lower half), but
            // keep the index consistent if it ever did.
            lower = PageBuf::new(self.format);
        }
        self.put_data_page(page_id, &lower)?;
        let added = entries.len();
        for (i, e) in entries.into_iter().enumerate() {
            self.index.insert(pos + 1 + i, e);
        }
        Ok(added)
    }

    /// Inserts a record into the clustered index at its key position,
    /// splitting the target page if needed.
    pub(crate) fn insert_record(&mut self, rec: NodeRecord) -> Result<()> {
        let flat = rec.key.as_flat().to_vec();
        if self.index.is_empty() {
            let id = self.allocate_page()?;
            let mut page = PageBuf::new(self.format);
            page.insert(rec)?;
            self.put_data_page(id, &page)?;
            self.index.push((flat, id));
            return Ok(());
        }
        let pos = match self.page_pos_for(&flat) {
            Some(p) => p,
            None => {
                // New key sorts before the first page: extend page 0's range.
                self.index[0].0 = flat.clone();
                0
            }
        };
        let page_id = self.index[pos].1;
        let mut page = self.pool.get(page_id)?.to_buf()?;
        if page.fits_record(&rec) {
            page.insert(rec)?;
            self.put_data_page(page_id, &page)?;
        } else {
            let mut upper = page.split();
            let upper_first = upper
                .first_key()
                .ok_or_else(|| MassError::InvalidUpdate("split produced empty page".into()))?
                .to_vec();
            if flat.as_slice() < upper_first.as_slice() {
                page.insert(rec)?;
            } else {
                upper.insert(rec)?;
            }
            let new_id = self.allocate_page()?;
            // Write the new upper page before rewriting the lower one: a
            // crash between the two leaves duplicated records (the old
            // image plus the upper copy), which recovery repairs, rather
            // than losing the upper half outright.
            self.put_data_page(new_id, &upper)?;
            self.put_data_page(page_id, &page)?;
            self.index.insert(pos + 1, (upper_first, new_id));
        }
        Ok(())
    }

    /// The key of `parent`'s last child (any node kind), if it has one.
    pub fn last_child_key(&self, parent: &FlexKey) -> Result<Option<FlexKey>> {
        let range = KeyRange::descendants(parent);
        let Some(last) = self.last_key_in(&range)? else {
            return Ok(None);
        };
        // Truncate the descendant to the child level.
        let child_level = parent.level() + 1;
        let mut key = FlexKey::root();
        for (i, label) in last.labels().enumerate() {
            if i >= child_level {
                break;
            }
            key = key.child(label);
        }
        Ok(Some(key))
    }

    /// Largest stored key inside `range`.
    pub(crate) fn last_key_in(&self, range: &KeyRange) -> Result<Option<FlexKey>> {
        if self.index.is_empty() || range.is_empty() {
            return Ok(None);
        }
        // Find the last page whose first key is below the upper bound.
        let page_pos = match &range.hi {
            Some(hi) => {
                let p = self
                    .index
                    .partition_point(|(first, _)| first.as_slice() < hi.as_slice());
                if p == 0 {
                    return Ok(None);
                }
                p - 1
            }
            None => self.index.len() - 1,
        };
        // Scan backwards through pages (usually just one).
        for pos in (0..=page_pos).rev() {
            let page = self.pool.get(self.index[pos].1)?;
            let idx = match &range.hi {
                Some(hi) => match page.find(hi) {
                    Ok(i) | Err(i) => i,
                },
                None => page.len(),
            };
            if idx > 0 {
                let last = page.key(idx - 1);
                return Ok((last >= range.lo.as_slice()).then(|| FlexKey::from_flat_slice(last)));
            }
        }
        Ok(None)
    }

    /// The next sibling key of `key` (any kind), if one exists.
    pub fn next_sibling_key(&self, key: &FlexKey) -> Result<Option<FlexKey>> {
        let Some(parent) = key.parent() else {
            return Ok(None);
        };
        let Some(upper) = key.subtree_upper() else {
            return Ok(None);
        };
        let bound = if parent.is_root() {
            None
        } else {
            parent.subtree_upper()
        };
        let mut cursor = crate::cursor::MassCursor::new(
            self,
            KeyRange {
                lo: upper,
                hi: bound,
            },
        );
        Ok(cursor
            .next_in_place()?
            .map(|(page, i)| FlexKey::from_flat_slice(page.key(i))))
    }

    /// Logs `recs` as one atomic operation and applies them: the one way
    /// a write reaches a loaded store, and the one apply path (`apply`)
    /// that recovery and replication also run. A list that could not
    /// apply in order is refused before anything is logged: a record
    /// other than a node insert or a subtree delete, an insert onto a
    /// stored key, or one under a missing parent. An empty list logs and
    /// changes nothing. Returns the nodes the records inserted and
    /// removed.
    pub fn commit(&mut self, recs: &[WalRecord]) -> Result<Footprint> {
        if recs.is_empty() {
            return Ok(Footprint::default());
        }
        self.check_commit(recs)?;
        self.log_records(recs)?;
        self.apply(recs, false)
    }

    /// Rejects a list of records that would not apply cleanly, in order,
    /// to this store: a record other than an insert or a subtree delete
    /// (a document is loaded by `load_document`), an insert onto a key
    /// that is stored or inserted earlier in the list, and an insert
    /// under a parent that is neither. A key inside a subtree the list
    /// deleted earlier counts as absent.
    fn check_commit(&self, recs: &[WalRecord]) -> Result<()> {
        let reject = |why: &str| Err(MassError::InvalidUpdate(why.into()));
        let mut inserted: std::collections::HashSet<&FlexKey> = Default::default();
        let mut deleted: Vec<&FlexKey> = Vec::new();
        for rec in recs {
            let key = match rec {
                WalRecord::DeleteSubtree { key } => {
                    inserted.retain(|k| !key.is_ancestor_or_self_of(k));
                    deleted.push(key);
                    continue;
                }
                WalRecord::LoadDocument { .. } | WalRecord::Commit => {
                    return reject("a commit holds inserts and subtree deletes only");
                }
                _ => rec.key().expect("an insert has a key"),
            };
            let Some(parent) = key.parent() else {
                return reject("cannot insert the root");
            };
            // A stored key under a parent fresh in this list would be an
            // orphan, which the store never holds: only an insert under a
            // stored parent probes the pages for its own key.
            if !inserted.contains(&parent) {
                let gone = |k: &FlexKey| deleted.iter().any(|d| d.is_ancestor_or_self_of(k));
                if gone(&parent) || !self.contains(&parent)? {
                    return reject("parent does not exist");
                }
                if !gone(key) && self.contains(key)? {
                    return reject("key exists");
                }
            }
            if !inserted.insert(key) {
                return reject("key exists");
            }
        }
        Ok(())
    }

    /// Applies logged records to the store — the only code that does,
    /// run by [`MassStore::commit`], by recovery and by a follower
    /// ([`MassStore::apply_replicated`]). There (`replay == true`) a
    /// record may be applied already: an insert whose key survived in the
    /// page file and a load of a document that exists are skipped, and a
    /// delete of an absent subtree removes nothing. Names are interned
    /// before the existence check, so the interned-id sequence is the same
    /// on every path. Returns the nodes the records inserted or removed,
    /// and moves the store's generation and that of each document they
    /// changed, once per call, also when a record fails partway.
    pub(crate) fn apply<'r>(
        &mut self,
        recs: impl IntoIterator<Item = &'r WalRecord>,
        replay: bool,
    ) -> Result<Footprint> {
        let mut footprint = Footprint::default();
        let mut changed = false;
        let mut docs: Vec<DocId> = Vec::new();
        let mut outcome = Ok(());
        for rec in recs {
            let written = match self.apply_record(rec, replay, &mut footprint) {
                Ok(written) => written,
                // The record may have changed pages before it failed, and
                // the records before it have: the generations below still
                // move, so no kept answer outlives what was applied.
                Err(e) => {
                    outcome = Err(e);
                    true
                }
            };
            if written {
                changed = true;
                footprint.note_insert(rec);
                let doc = rec.key().and_then(|key| self.document_of(key));
                if let Some(doc) = doc.filter(|d| !docs.contains(d)) {
                    docs.push(doc);
                }
            }
            if outcome.is_err() {
                break;
            }
        }
        if changed {
            self.generation += 1;
            for doc in docs {
                self.doc_gens[doc.0 as usize] += 1;
            }
        }
        outcome.map(|()| footprint)
    }

    /// Applies one record for [`MassStore::apply`], noting a removed node
    /// in `footprint`. Returns whether it changed the store.
    fn apply_record(
        &mut self,
        rec: &WalRecord,
        replay: bool,
        footprint: &mut Footprint,
    ) -> Result<bool> {
        Ok(match rec {
            WalRecord::InsertElement { key, name } => {
                self.insert_node(key, RecordKind::Element, Some(name), None, replay)?
            }
            WalRecord::InsertText { key, value } => {
                self.insert_node(key, RecordKind::Text, None, Some(value), replay)?
            }
            WalRecord::InsertAttribute { key, name, value } => {
                let kind = RecordKind::Attribute;
                self.insert_node(key, kind, Some(name), Some(value), replay)?
            }
            WalRecord::DeleteSubtree { key } => self.remove_subtree(key, footprint)? > 0,
            // A live load is logged (for replication) and checkpointed
            // right after, so replay finds it in the page file. The
            // loader assigns keys from the document's structure and
            // load ordinal, so a follower reproduces the primary's key
            // space. A new document's generation is 0.
            WalRecord::LoadDocument { name, xml }
                if !(replay && self.document_by_name(name).is_some()) =>
            {
                let doc = vamana_xml::parse(xml)
                    .map_err(|e| MassError::InvalidUpdate(format!("load replay parse: {e}")))?;
                self.load_document_unlogged(name, &doc)?;
                true
            }
            WalRecord::LoadDocument { .. } | WalRecord::Commit => false,
        })
    }

    /// Inserts the node at `key` into the pages and the secondary indexes
    /// — unless `replay` finds it stored already. Returns whether it
    /// inserted.
    fn insert_node(
        &mut self,
        key: &FlexKey,
        kind: RecordKind,
        name: Option<&str>,
        value: Option<&str>,
        replay: bool,
    ) -> Result<bool> {
        let name = name.map(|name| self.intern(name));
        if replay && self.contains(key)? {
            return Ok(false);
        }
        let value_ref = match value {
            Some(value) => self.make_value(value)?,
            None => ValueRef::None,
        };
        let node = NodeRecord {
            key: key.clone(),
            kind,
            name,
            value: value_ref,
        };
        self.insert_record(node.clone())?;
        self.index_record(&node, value, false);
        Ok(true)
    }

    /// Logs `recs` plus a commit marker to the WAL, returning the commit
    /// LSN (0 for volatile stores). On any failure the uncommitted frames
    /// are rolled back so the log never exposes a torn operation. Once
    /// committed, the batch is published to the replication ring (if one
    /// is attached) under the exact LSNs the log assigned.
    pub(crate) fn log_records(&mut self, recs: &[WalRecord]) -> Result<u64> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(0);
        };
        let mut lsns = Vec::with_capacity(recs.len());
        for rec in recs {
            match wal.append(rec) {
                Ok(lsn) => lsns.push(lsn),
                Err(e) => {
                    wal.rollback().ok();
                    return Err(e);
                }
            }
        }
        let commit_lsn = match wal.commit() {
            Ok(lsn) => lsn,
            Err(e) => {
                wal.rollback().ok();
                return Err(e);
            }
        };
        if let Some(log) = &self.repl {
            let mut frames: Vec<(u64, std::sync::Arc<Vec<u8>>)> = lsns
                .into_iter()
                .zip(recs)
                .map(|(lsn, rec)| (lsn, std::sync::Arc::new(rec.encode())))
                .collect();
            frames.push((commit_lsn, std::sync::Arc::new(WalRecord::Commit.encode())));
            log.publish(&frames);
        }
        Ok(commit_lsn)
    }

    /// Inserts a new element under `parent` after all existing children,
    /// returning its key.
    pub fn append_element(&mut self, parent: &FlexKey, name: &str) -> Result<FlexKey> {
        let key = self.append_key(parent)?;
        self.commit(&[WalRecord::InsertElement {
            key: key.clone(),
            name: name.to_string(),
        }])?;
        Ok(key)
    }

    /// Inserts a new text node under `parent` after all existing children.
    pub fn append_text(&mut self, parent: &FlexKey, value: &str) -> Result<FlexKey> {
        let key = self.append_key(parent)?;
        self.commit(&[WalRecord::InsertText {
            key: key.clone(),
            value: value.to_string(),
        }])?;
        Ok(key)
    }

    /// Inserts a new element *between* two adjacent sibling subtrees.
    pub fn insert_element_after(&mut self, sibling: &FlexKey, name: &str) -> Result<FlexKey> {
        let parent = sibling
            .parent()
            .ok_or_else(|| MassError::InvalidUpdate("cannot insert sibling of root".into()))?;
        let key = match self.next_sibling_key(sibling)? {
            Some(next) => {
                let label = label_between(
                    sibling.last_label().expect("non-root"),
                    next.last_label().expect("non-root"),
                )?;
                parent.child(&label)
            }
            None => self.next_child_key(&parent)?,
        };
        self.commit(&[WalRecord::InsertElement {
            key: key.clone(),
            name: name.to_string(),
        }])?;
        Ok(key)
    }

    /// The key a new last child of `parent` gets; an error when `parent`
    /// does not exist.
    fn append_key(&self, parent: &FlexKey) -> Result<FlexKey> {
        if self.get(parent)?.is_none() {
            return Err(MassError::InvalidUpdate("parent does not exist".into()));
        }
        self.next_child_key(parent)
    }

    fn next_child_key(&self, parent: &FlexKey) -> Result<FlexKey> {
        match self.last_child_key(parent)? {
            Some(last) => {
                let label = label_after(last.last_label().expect("child key has label"));
                Ok(parent.child(&label))
            }
            None => Ok(parent.child(&seq_label(0))),
        }
    }

    /// Inserts a parsed XML fragment as the last child of `parent`,
    /// returning the key of the fragment's root element: the records of
    /// [`MassStore::plan_fragment`], committed as one atomic operation, so
    /// a crash mid-fragment recovers to either none or all of it.
    pub fn append_fragment(&mut self, parent: &FlexKey, xml: &str) -> Result<FlexKey> {
        let recs = self.plan_fragment(parent, xml)?;
        self.commit(&recs)?;
        Ok(recs[0].key().expect("a fragment's root record").clone())
    }

    /// The records that insert the XML fragment `xml`, which must have a
    /// single root element, as the last child of `parent`, the root's
    /// first: every key assigned, the store untouched. A fragment that
    /// does not parse, has no root element or holds a node other than an
    /// element, attribute or text is rejected, and so is a `parent` that
    /// does not exist.
    pub fn plan_fragment(&self, parent: &FlexKey, xml: &str) -> Result<Vec<WalRecord>> {
        let doc = vamana_xml::parse(xml)
            .map_err(|e| MassError::InvalidUpdate(format!("fragment parse failed: {e}")))?;
        let root = doc
            .root_element()
            .ok_or_else(|| MassError::InvalidUpdate("fragment has no root element".into()))?;
        let root_key = self.append_key(parent)?;
        let mut recs = Vec::new();
        Self::plan_node(&doc, root, &root_key, &mut recs)?;
        Ok(recs)
    }

    /// Plans the WAL records for inserting `node` (and its subtree) at
    /// `key`, without touching the store. Fresh elements get attribute
    /// ordinals `0..n` and child labels chained with [`label_after`] from
    /// the last attribute label — exactly the keys the sequential
    /// append path would assign. Unsupported node kinds are rejected here,
    /// before anything is logged.
    fn plan_node(
        doc: &vamana_xml::Document,
        node: vamana_xml::NodeId,
        key: &FlexKey,
        out: &mut Vec<WalRecord>,
    ) -> Result<()> {
        use vamana_xml::NodeKind;
        match doc.kind(node) {
            NodeKind::Element { name } => {
                out.push(WalRecord::InsertElement {
                    key: key.clone(),
                    name: name.to_string(),
                });
                let mut n_attrs = 0u64;
                for attr in doc.attributes(node) {
                    let aname = doc.name(attr).expect("attribute name").to_string();
                    let avalue = doc.value(attr).expect("attribute value").to_string();
                    out.push(WalRecord::InsertAttribute {
                        key: key.child(&attr_label(n_attrs)),
                        name: aname,
                        value: avalue,
                    });
                    n_attrs += 1;
                }
                let mut last_label = if n_attrs > 0 {
                    Some(attr_label(n_attrs - 1))
                } else {
                    None
                };
                for child in doc.children(node) {
                    let label = match &last_label {
                        Some(prev) => label_after(prev),
                        None => seq_label(0),
                    };
                    Self::plan_node(doc, child, &key.child(&label), out)?;
                    last_label = Some(label);
                }
                Ok(())
            }
            NodeKind::Text { value } => {
                out.push(WalRecord::InsertText {
                    key: key.clone(),
                    value: value.to_string(),
                });
                Ok(())
            }
            other => Err(MassError::InvalidUpdate(format!(
                "unsupported fragment node kind {other:?}"
            ))),
        }
    }

    /// Attaches an attribute to an existing element.
    pub fn append_attribute(
        &mut self,
        element: &FlexKey,
        name: &str,
        value: &str,
    ) -> Result<FlexKey> {
        let Some(rec) = self.get(element)? else {
            return Err(MassError::InvalidUpdate("element does not exist".into()));
        };
        if rec.kind != RecordKind::Element {
            return Err(MassError::InvalidUpdate(
                "attributes attach to elements".into(),
            ));
        }
        // Find the next free attribute ordinal by scanning existing
        // attribute children (they cluster first).
        let mut ordinal = 0u64;
        let mut cursor = crate::cursor::MassCursor::new(self, KeyRange::descendants(element));
        while let Some(r) = cursor.next()? {
            if r.kind == RecordKind::Attribute && element.is_parent_of(&r.key) {
                ordinal += 1;
            } else {
                break;
            }
        }
        let key = element.child(&attr_label(ordinal));
        self.commit(&[WalRecord::InsertAttribute {
            key: key.clone(),
            name: name.to_string(),
            value: value.to_string(),
        }])?;
        Ok(key)
    }

    /// Deletes the node at `key` and its whole subtree. Returns the number
    /// of records removed.
    pub fn delete_subtree(&mut self, key: &FlexKey) -> Result<u64> {
        let before = self.tuples;
        self.commit(&[WalRecord::DeleteSubtree { key: key.clone() }])?;
        Ok(before - self.tuples)
    }

    /// Removes the node at `key` and its subtree from the pages and the
    /// indexes, noting each node in `footprint` — the delete arm of
    /// [`MassStore::apply`]. Returns the number of records removed.
    fn remove_subtree(&mut self, key: &FlexKey, footprint: &mut Footprint) -> Result<u64> {
        let range = KeyRange::subtree(key);
        if self.index.is_empty() {
            return Ok(0);
        }
        let start = self.page_pos_for(&range.lo).unwrap_or(0);
        let mut removed = 0u64;
        // A subtree repeats a few names: each is resolved and noted once.
        let mut noted: Vec<(RecordKind, NameId)> = Vec::new();
        let mut pos = start;
        let mut dead_pages = Vec::new();
        while pos < self.index.len() {
            if let Some(hi) = &range.hi {
                if self.index[pos].0.as_slice() >= hi.as_slice() {
                    break;
                }
            }
            let page_id = self.index[pos].1;
            let mut page = self.pool.get(page_id)?.to_buf()?;
            let mut i = 0;
            let mut touched = false;
            while i < page.len() {
                let in_range = range.contains(page.records()[i].key.as_flat());
                if in_range {
                    let rec = page.remove(i);
                    match rec.name {
                        Some(id) if noted.contains(&(rec.kind, id)) => {}
                        Some(id) => {
                            noted.push((rec.kind, id));
                            footprint.note(rec.kind, Some(self.names.resolve(id)));
                        }
                        None => footprint.note(rec.kind, None),
                    }
                    self.unindex_record(&rec)?;
                    removed += 1;
                    touched = true;
                } else {
                    i += 1;
                }
            }
            if touched {
                if page.is_empty() {
                    dead_pages.push(pos);
                    self.put_data_page(page_id, &page)?;
                } else {
                    self.index[pos].0 = page.first_key().expect("non-empty").to_vec();
                    // Removing records can *grow* a v2 page (the
                    // successor's front-coding lengthens); split before
                    // write-out and skip the new pages — their records
                    // were already examined.
                    pos += self.put_page_at(pos, page)?;
                }
            }
            pos += 1;
        }
        // Remove emptied pages from the sparse index and put their ids on
        // the free list for reuse.
        for p in dead_pages.into_iter().rev() {
            let (_, page_id) = self.index.remove(p);
            self.release_page(page_id);
        }
        Ok(removed)
    }
}

/// A label strictly greater than `label`, for appending after the last
/// sibling. Never ends in `0x00`/`0x01`.
fn label_after(label: &[u8]) -> Vec<u8> {
    let mut out = label.to_vec();
    let last = *out.last().expect("labels are non-empty");
    if last < 0xFF {
        *out.last_mut().expect("non-empty") = last + 1;
    } else {
        out.push(0x80);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_after_increments() {
        assert_eq!(label_after(&[0x40]), vec![0x41]);
        assert_eq!(label_after(&[0x80, 0x02]), vec![0x80, 0x03]);
    }

    #[test]
    fn label_after_extends_at_max() {
        assert_eq!(label_after(&[0xFF]), vec![0xFF, 0x80]);
        assert!(label_after(&[0xFF]).as_slice() > &[0xFF][..]);
    }

    #[test]
    fn empty_store_basics() {
        let store = MassStore::open_memory();
        assert_eq!(store.stats().tuples, 0);
        assert_eq!(store.documents().len(), 0);
        assert!(store
            .get(&FlexKey::root().child(&seq_label(0)))
            .unwrap()
            .is_none());
    }
    // Full store behavior is exercised via the loader tests in
    // `crate::loader` and the integration tests.

    /// A store whose clustered index spans many pages.
    fn multi_page_store() -> MassStore {
        let mut xml = String::from("<root>");
        for i in 0..8000 {
            xml.push_str(&format!("<e><v>{i}</v></e>"));
        }
        xml.push_str("</root>");
        let mut store = MassStore::open_memory();
        store.load_xml("doc", &xml).unwrap();
        assert!(
            store.stats().pages >= 16,
            "need a multi-page store, got {} pages",
            store.stats().pages
        );
        store
    }

    /// Flat keys of every record a cursor yields over `range`.
    fn scan_keys(store: &MassStore, range: &KeyRange) -> Vec<Vec<u8>> {
        let mut cur = crate::cursor::MassCursor::new(store, range.clone());
        let mut entries = Vec::new();
        cur.next_batch(&mut entries, usize::MAX).unwrap();
        entries.iter().map(|e| e.key.as_flat().to_vec()).collect()
    }

    #[test]
    fn partition_range_tiles_the_serial_scan() {
        let store = multi_page_store();
        let doc_key = store.documents()[0].doc_key.clone();
        let range = KeyRange::descendants(&doc_key);
        let full = scan_keys(&store, &range);
        for n in [2, 3, 4, 8, 64] {
            let parts = store.partition_range(&range, n);
            assert!(!parts.is_empty() && parts.len() <= n);
            assert_eq!(parts[0].lo, range.lo);
            assert_eq!(parts.last().unwrap().hi, range.hi);
            for w in parts.windows(2) {
                assert_eq!(w[0].hi.as_ref().unwrap(), &w[1].lo);
            }
            // Concatenating the morsel scans reproduces the full scan.
            let tiled: Vec<_> = parts.iter().flat_map(|p| scan_keys(&store, p)).collect();
            assert_eq!(tiled, full);
        }
    }

    #[test]
    fn partition_range_boundaries_are_page_firsts() {
        let store = multi_page_store();
        let doc_key = store.documents()[0].doc_key.clone();
        let range = KeyRange::subtree(&doc_key);
        let parts = store.partition_range(&range, 4);
        assert!(parts.len() >= 2, "multi-page range must actually split");
        for p in &parts[1..] {
            assert!(
                store.index.iter().any(|(first, _)| first == &p.lo),
                "interior boundary must be a page-first key"
            );
        }
        // Morsels are balanced: no morsel hogs the page budget.
        let pages = store.index.len();
        let runs: Vec<usize> = parts.iter().map(|p| scan_keys(&store, p).len()).collect();
        assert!(runs.iter().all(|&r| r > 0));
        assert!(pages >= parts.len());
    }

    #[test]
    fn partition_range_unbounded_uses_index_depth() {
        let store = multi_page_store();
        // Descendants-of-root is unbounded above; the index still knows
        // where the data ends, so the split must cover everything.
        let range = KeyRange::descendants(&FlexKey::root());
        assert_eq!(range.hi, None);
        let full = scan_keys(&store, &range);
        let parts = store.partition_range(&range, 4);
        assert!(parts.len() >= 2);
        assert_eq!(parts.last().unwrap().hi, None);
        let tiled: Vec<_> = parts.iter().flat_map(|p| scan_keys(&store, p)).collect();
        assert_eq!(tiled, full);
    }

    #[test]
    fn partition_range_degenerate_cases() {
        let empty = MassStore::open_memory();
        let all = KeyRange::all();
        assert_eq!(empty.partition_range(&all, 4), vec![all.clone()]);

        let mut small = MassStore::open_memory();
        small.load_xml("doc", "<a><b/></a>").unwrap();
        // Single page: nothing to split.
        assert_eq!(small.partition_range(&all, 4), vec![all.clone()]);
        assert_eq!(small.partition_range(&all, 1), vec![all.clone()]);
        assert_eq!(
            small.partition_range(&KeyRange::empty(), 4),
            vec![KeyRange::empty()]
        );
        assert_eq!(empty.page_span(&all), 0);
        assert_eq!(small.page_span(&all), 1);
        assert_eq!(small.page_span(&KeyRange::empty()), 0);
    }

    #[test]
    fn page_span_counts_the_pages_a_range_scan_pins() {
        let store = multi_page_store();
        let doc_key = store.documents()[0].doc_key.clone();
        let whole = KeyRange::subtree(&doc_key);
        assert_eq!(store.page_span(&whole), store.index.len());
        // The spans of a partition add up to the whole (boundaries are
        // page firsts, so no page is counted twice).
        let parts = store.partition_range(&whole, 4);
        let sum: usize = parts.iter().map(|p| store.page_span(p)).sum();
        assert_eq!(sum, store.index.len());
    }
}
