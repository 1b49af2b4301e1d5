//! Slotted pages of the clustered MASS index.
//!
//! Records are clustered in document order (FLEX-key order). Two on-disk
//! images exist, self-described by the header magic:
//!
//! * **v1** (`"MA"`): records back to back in their fixed-field encoding;
//! * **v2** (`"MC"`): records front-coded against their on-page
//!   predecessor with varint fields (see [`crate::compress`]).
//!
//! Both share the `[magic u16][count u16][reserved u32]` header, and a
//! store may hold a mix. In memory a page has two forms:
//!
//! * [`Page`], what the buffer pool caches and every reader walks: the
//!   disk image it was read from plus a *slot table* built over it in one
//!   pass — per record where its key lies, how long it is and how much of
//!   it the record before shares, its kind, its name id, and its value's
//!   tag with an offset and length (or the dictionary id). V1 keys and all inline values are read in place from
//!   the image; v2 keys, which exist on disk only as suffixes, are rebuilt
//!   back to back into one key arena per page. Decoding allocates the
//!   slot table and (v2) the arena, nothing per record, and eviction
//!   frees as little. Readers use the borrowing accessors ([`Page::key`],
//!   [`Page::kind`], [`Page::name`], [`Page::value`], [`Page::find`],
//!   [`RecordView`]).
//! * [`PageBuf`], the edit buffer of the loader and the update path: a
//!   `Vec<NodeRecord>` with size accounting (`encoded_size`, `fits_record`)
//!   that is exact per format, which is what lets v2 pages pack several×
//!   more records into `PAGE_SIZE`. An update is [`Page::to_buf`] → mutate
//!   → [`crate::buffer::BufferPool::put`], which encodes the buffer and
//!   caches the [`Page`] decoded from that image.

use crate::compress::{
    common_prefix, read_varint, v2_encode_record, v2_record_len, StoreFormat, HAS_NAME, KIND_MASK,
    TAG_MASK, TAG_SHIFT,
};
use crate::error::{MassError, Result};
use crate::names::NameId;
use crate::record::{NodeRecord, RecordKind, ValueView};
use std::ops::Range;
use vamana_flex::FlexKey;

/// Fixed page size in bytes, disk image and capacity accounting.
pub const PAGE_SIZE: usize = 8192;
/// Bytes reserved for the page header.
pub const PAGE_HEADER: usize = 8;
/// Payload capacity of one page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER;

const MAGIC: u16 = 0x4D41; // "MA"
const MAGIC_V2: u16 = 0x4D43; // "MC"

/// The smallest record either format can hold (v2: two key varints and
/// the meta byte); bounds the header's `count` before anything is
/// allocated for it.
const MIN_RECORD: usize = 3;

// Value tags, the same numbers in both formats.
const TAG_NONE: u8 = 0;
const TAG_INLINE: u8 = 1;
const TAG_OVERFLOW: u8 = 2;
const TAG_DICT: u8 = 3;

/// Where one record lies in its page.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Key bytes: offset into the image (v1) or the key arena (v2).
    key_off: u32,
    /// Raw name id, [`NameId::NONE_RAW`] for none.
    name: u32,
    /// Inline and overflow values: image offset of the payload.
    /// Dictionary values: the id itself.
    val: u32,
    key_len: u16,
    /// Byte length of an inline value.
    val_len: u16,
    /// Bytes the key shares with its predecessor on the page (0 for the
    /// first record; see `Page::shared`). V2 images carry it, v1
    /// decoding works it out.
    shared: u16,
    kind: RecordKind,
    tag: u8,
}

impl Slot {
    /// The key, given where this page's keys lie ([`Page::key_bytes`]).
    #[inline]
    fn key<'a>(&self, keys: &'a [u8]) -> &'a [u8] {
        &keys[self.key_off as usize..][..usize::from(self.key_len)]
    }

    #[inline]
    fn name(&self) -> Option<NameId> {
        (self.name != NameId::NONE_RAW).then_some(NameId(self.name))
    }

    #[inline]
    fn view<'a>(&self, keys: &'a [u8]) -> RecordView<'a> {
        RecordView {
            key: self.key(keys),
            kind: self.kind,
            name: self.name(),
        }
    }
}

/// What a scan sees of one record without touching its value: the flat
/// key borrowed from the page, the kind and the name.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Flat FLEX key.
    pub key: &'a [u8],
    /// Node kind.
    pub kind: RecordKind,
    /// Interned name for elements/attributes/PI targets.
    pub name: Option<NameId>,
}

/// A page as the buffer pool caches it: its disk image plus a slot table
/// (see the module docs). Immutable; records are sorted by key.
pub struct Page {
    image: Vec<u8>,
    slots: Vec<Slot>,
    /// V2 only: every key rebuilt from its front-coding, back to back.
    keys: Vec<u8>,
    encoded: usize,
    format: StoreFormat,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("format", &self.format)
            .field("records", &self.slots.len())
            .field("encoded", &self.encoded)
            .finish_non_exhaustive()
    }
}

fn bad(what: &str) -> MassError {
    MassError::CorruptRecord(what.into())
}

/// Builds the slot table of a v1 body, returning the offset it ends at.
fn slots_v1(image: &[u8], count: usize, slots: &mut Vec<Slot>) -> Result<usize> {
    let mut at = PAGE_HEADER;
    let mut prev: &[u8] = &[];
    for i in 0..count {
        let head = image
            .get(at..at + 2)
            .ok_or_else(|| bad("record truncated"))?;
        let key_len = usize::from(u16::from_le_bytes([head[0], head[1]]));
        let key_off = at + 2;
        // key + kind(1) + name(4) + value_tag(1) + value_len(4)
        let val_off = key_off + key_len + 10;
        let (key, fixed) = image
            .get(key_off..val_off)
            .ok_or_else(|| bad("record truncated"))?
            .split_at(key_len);
        if !FlexKey::is_valid_flat(key) {
            return Err(bad("malformed flat key"));
        }
        let shared = common_prefix(prev, key);
        // Past the shared head, the key must go on and differ upward.
        if i > 0 && key.get(shared) <= prev.get(shared) {
            return Err(bad("keys out of order"));
        }
        let kind = RecordKind::from_u8(fixed[0])?;
        let name = u32::from_le_bytes(fixed[1..5].try_into().expect("4 bytes"));
        let tag = fixed[5];
        let val_len = u32::from_le_bytes(fixed[6..10].try_into().expect("4 bytes")) as usize;
        let payload = val_off
            .checked_add(val_len)
            .and_then(|end| image.get(val_off..end))
            .ok_or_else(|| bad("record truncated"))?;
        let val = match (tag, val_len) {
            (TAG_NONE, 0) => 0,
            (TAG_INLINE, _) | (TAG_OVERFLOW, 12) => val_off as u32,
            (TAG_DICT, 4) => u32::from_le_bytes(payload.try_into().expect("4 bytes")),
            _ => return Err(bad("bad value tag or length")),
        };
        slots.push(Slot {
            key_off: key_off as u32,
            name,
            val,
            key_len: key_len as u16,
            val_len: val_len as u16, // the payload lies inside the page
            shared: shared as u16,
            kind,
            tag,
        });
        prev = key;
        at = val_off + val_len;
    }
    Ok(at)
}

/// Builds the slot table of a v2 body and rebuilds its keys into `keys`,
/// returning the offset the body ends at.
fn slots_v2(
    image: &[u8],
    count: usize,
    slots: &mut Vec<Slot>,
    keys: &mut Vec<u8>,
) -> Result<usize> {
    let varint = |at: &mut usize| -> Result<u64> {
        let (v, n) = read_varint(&image[*at..])?;
        *at += n;
        Ok(v)
    };
    // The `len` bytes at `at`, a length read from the image.
    let take = |at: &mut usize, len: u64| -> Result<&[u8]> {
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|n| at.checked_add(n))
            .and_then(|end| image.get(*at..end))
            .ok_or_else(|| bad("v2 record truncated"))?;
        *at += bytes.len();
        Ok(bytes)
    };
    // `at` never passes the end of the image: every advance is either a
    // varint read from it or a range `get` has just returned.
    let mut at = PAGE_HEADER;
    // A typical XMark key is 12–20 bytes; deeper documents grow the arena.
    keys.reserve(count * 20);
    let (mut prev_off, mut prev_len) = (0usize, 0usize);
    for i in 0..count {
        let lcp = varint(&mut at)?;
        let suffix_len = varint(&mut at)?;
        if lcp > prev_len as u64 {
            return Err(bad("v2 shared prefix exceeds predecessor key"));
        }
        let lcp = lcp as usize;
        let suffix = take(&mut at, suffix_len)?;
        // The shared head was validated with the predecessor: only the
        // suffix can break well-formedness or the order.
        let in_label = lcp > 0 && keys[prev_off + lcp - 1] != 0;
        if !FlexKey::is_valid_flat_tail(in_label, suffix) {
            return Err(bad("malformed front-coded key"));
        }
        // The suffix must differ upward from where it parts from the
        // predecessor, at its first byte: a shared head the encoder could
        // have made longer is refused, so `shared` is exact.
        if i > 0 && suffix.first() <= keys[prev_off..prev_off + prev_len].get(lcp) {
            return Err(bad("keys out of order or front-coding not maximal"));
        }
        let key_off = keys.len();
        keys.extend_from_within(prev_off..prev_off + lcp);
        keys.extend_from_slice(suffix);
        let key_len = lcp + suffix.len();
        (prev_off, prev_len) = (key_off, key_len);

        let meta = *image.get(at).ok_or_else(|| bad("v2 record truncated"))?;
        at += 1;
        let kind = RecordKind::from_u8(meta & KIND_MASK)?;
        let name = if meta & HAS_NAME != 0 {
            let raw = varint(&mut at)?;
            if raw >= u64::from(NameId::NONE_RAW) {
                return Err(bad("name id out of range"));
            }
            raw as u32
        } else {
            NameId::NONE_RAW
        };
        let tag = (meta >> TAG_SHIFT) & TAG_MASK;
        let (mut val, mut val_len) = (at as u32, 0u16);
        match tag {
            TAG_NONE => {}
            TAG_INLINE => {
                let len = varint(&mut at)?;
                val = at as u32;
                val_len = take(&mut at, len)?.len() as u16;
            }
            TAG_OVERFLOW => {
                varint(&mut at)?;
                if varint(&mut at)? > u64::from(u32::MAX) {
                    return Err(bad("overflow length too large"));
                }
            }
            _ => {
                let id = varint(&mut at)?;
                val = u32::try_from(id).map_err(|_| bad("dict id too large"))?;
            }
        }
        slots.push(Slot {
            key_off: u32::try_from(key_off).map_err(|_| bad("key arena too large"))?,
            name,
            val,
            // A key is no longer than the suffixes before it: it fits.
            key_len: key_len as u16,
            val_len,
            shared: lcp as u16,
            kind,
            tag,
        });
    }
    Ok(at)
}

impl Page {
    /// Builds the read form of a disk image, taking ownership of it; the
    /// page remembers the image's format. Everything a reader will slice
    /// is bounds-checked here and keys are checked to be well-formed and
    /// strictly ascending; only the UTF-8 check of an inline value waits
    /// for [`Page::value`], so a scan that never looks at values never
    /// pays for it.
    pub fn decode(image: Vec<u8>, page_id: u32) -> Result<Page> {
        let corrupt = |reason: String| MassError::CorruptPage {
            page: page_id,
            reason,
        };
        if image.len() != PAGE_SIZE {
            return Err(corrupt(format!("bad length {}", image.len())));
        }
        let format = match u16::from_le_bytes([image[0], image[1]]) {
            MAGIC => StoreFormat::V1,
            MAGIC_V2 => StoreFormat::V2,
            // An all-zero header is a page that was allocated (backends
            // zero-extend eagerly) but never written — e.g. a crash
            // between a split's allocation and its first write-out.
            // Decode it as empty so recovery can reclaim it.
            _ if image[..PAGE_HEADER].iter().all(|&b| b == 0) => StoreFormat::V1,
            _ => return Err(corrupt("bad magic".into())),
        };
        let count = usize::from(u16::from_le_bytes([image[2], image[3]]));
        if count > PAGE_CAPACITY / MIN_RECORD {
            return Err(corrupt(format!("record count {count} exceeds the page")));
        }
        let mut slots = Vec::with_capacity(count);
        let mut keys = Vec::new();
        let end = match format {
            StoreFormat::V1 => slots_v1(&image, count, &mut slots),
            StoreFormat::V2 => slots_v2(&image, count, &mut slots, &mut keys),
        }
        .map_err(|e| corrupt(e.to_string()))?;
        Ok(Page {
            image,
            slots,
            keys,
            encoded: end - PAGE_HEADER,
            format,
        })
    }

    /// The format of the image this page was read from.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Payload bytes the records occupy in the image.
    pub fn encoded_size(&self) -> usize {
        self.encoded
    }

    /// Where this format's keys lie.
    #[inline]
    fn key_bytes(&self) -> &[u8] {
        match self.format {
            StoreFormat::V1 => &self.image,
            StoreFormat::V2 => &self.keys,
        }
    }

    /// Flat key of record `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        self.slots[i].key(self.key_bytes())
    }

    /// Kind of record `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> RecordKind {
        self.slots[i].kind
    }

    /// Name of record `i`.
    #[inline]
    pub fn name(&self, i: usize) -> Option<NameId> {
        self.slots[i].name()
    }

    /// Key, kind and name of record `i`.
    #[inline]
    pub fn view(&self, i: usize) -> RecordView<'_> {
        self.slots[i].view(self.key_bytes())
    }

    /// The views of records `range`, in key order.
    pub fn views(&self, range: Range<usize>) -> impl Iterator<Item = RecordView<'_>> {
        let keys = self.key_bytes();
        self.slots[range].iter().map(move |s| s.view(keys))
    }

    /// Value of record `i`, an inline one borrowed from the image. The
    /// only error is an inline value that is not UTF-8.
    pub fn value(&self, i: usize) -> Result<ValueView<'_>> {
        let s = &self.slots[i];
        let at = s.val as usize;
        Ok(match s.tag {
            TAG_NONE => ValueView::None,
            TAG_INLINE => ValueView::Inline(
                std::str::from_utf8(&self.image[at..at + usize::from(s.val_len)])
                    .map_err(|_| bad("non-UTF8 value"))?,
            ),
            TAG_OVERFLOW => {
                let (offset, len) = match self.format {
                    StoreFormat::V1 => (
                        u64::from_le_bytes(self.image[at..at + 8].try_into().expect("8 bytes")),
                        u32::from_le_bytes(
                            self.image[at + 8..at + 12].try_into().expect("4 bytes"),
                        ),
                    ),
                    StoreFormat::V2 => {
                        let (offset, n) = read_varint(&self.image[at..])?;
                        let (len, _) = read_varint(&self.image[at + n..])?;
                        (offset, len as u32) // range-checked by `decode`
                    }
                };
                ValueView::Overflow { offset, len }
            }
            _ => ValueView::Dict(s.val),
        })
    }

    /// Record `i` as an owned [`NodeRecord`].
    pub fn record(&self, i: usize) -> Result<NodeRecord> {
        Ok(NodeRecord {
            key: FlexKey::from_flat_slice(self.key(i)),
            kind: self.kind(i),
            name: self.name(i),
            value: self.value(i)?.into_owned(),
        })
    }

    /// Every record, owned, in key order.
    pub fn to_records(&self) -> Result<Vec<NodeRecord>> {
        (0..self.len()).map(|i| self.record(i)).collect()
    }

    /// The page as an edit buffer in the same format.
    pub fn to_buf(&self) -> Result<PageBuf> {
        Ok(PageBuf {
            records: self.to_records()?,
            encoded: self.encoded,
            format: self.format,
        })
    }

    /// First key on the page (flat encoding).
    pub fn first_key(&self) -> Option<&[u8]> {
        (!self.is_empty()).then(|| self.key(0))
    }

    /// Last key on the page (flat encoding).
    pub fn last_key(&self) -> Option<&[u8]> {
        self.len().checked_sub(1).map(|i| self.key(i))
    }

    /// Binary search for `flat`: `Ok(i)` if present at `i`, `Err(i)` for
    /// the insertion point.
    pub fn find(&self, flat: &[u8]) -> std::result::Result<usize, usize> {
        let keys = self.key_bytes();
        self.slots.binary_search_by(|s| s.key(keys).cmp(flat))
    }

    /// Index one past the subtree of record `i` on this page: the first
    /// record after it whose key does not extend record `i`'s (`len()` if
    /// the subtree runs to the page's end). Read off the shared-prefix
    /// lengths alone — no key is compared — so a leaf costs one look.
    pub(crate) fn subtree_end(&self, i: usize) -> usize {
        self.run_end(i + 1, usize::from(self.slots[i].key_len))
    }

    /// The first record from `from` on that shares fewer than `prefix`
    /// bytes with its predecessor (`len()` if none does): if the record
    /// before `from` starts with a key `prefix` bytes long, where that
    /// key's subtree ends on this page.
    pub(crate) fn run_end(&self, from: usize, prefix: usize) -> usize {
        let run = self.slots[from..].iter();
        from + run.take_while(|s| usize::from(s.shared) >= prefix).count()
    }

    /// Bytes the key of record `i` shares with the key before it on the
    /// page (0 for the first record). When the key before starts with
    /// some key `k` — is `k`, or lies in its subtree — record `i` lies in
    /// `k`'s subtree exactly when this reaches `k`'s length.
    #[inline]
    pub(crate) fn shared(&self, i: usize) -> usize {
        usize::from(self.slots[i].shared)
    }

    /// Index of the first record with key `>= flat` (`len()` if none),
    /// searched from a finger: `hint` is where the caller already stands.
    /// The result is the same for every `hint`; the cost is logarithmic
    /// in the distance from a hint at or before the answer
    /// ([`Page::lower_bound_after`]) — a cursor re-bound to the next
    /// context in document order lands a few records on. A key before
    /// the hint costs a bisect of the records before it.
    pub fn lower_bound_from(&self, hint: usize, flat: &[u8]) -> usize {
        let from = hint.min(self.slots.len());
        if from > 0 && self.key(from - 1) >= flat {
            let keys = self.key_bytes();
            return self.slots[..from - 1].partition_point(|s| s.key(keys) < flat);
        }
        self.lower_bound_after(from, flat)
    }

    /// [`Page::lower_bound_from`] for a caller that knows every record
    /// before `from` sorts before `flat` (the end of a range, sought from
    /// inside it): gallop forward, then bisect the last stride.
    pub fn lower_bound_after(&self, from: usize, flat: &[u8]) -> usize {
        let keys = self.key_bytes();
        let before = |s: &Slot| s.key(keys) < flat;
        let len = self.slots.len();
        let mut lo = from.min(len);
        let mut step = 1;
        while lo + step <= len && before(&self.slots[lo + step - 1]) {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step - 1).min(len);
        lo + self.slots[lo..hi].partition_point(before)
    }
}

/// A page being built or edited: owned records sorted by key, with the
/// payload size they will encode to.
#[derive(Debug, Clone)]
pub struct PageBuf {
    records: Vec<NodeRecord>,
    encoded: usize,
    format: StoreFormat,
}

impl PageBuf {
    /// An empty page in `format`.
    pub fn new(format: StoreFormat) -> Self {
        PageBuf {
            records: Vec::new(),
            encoded: 0,
            format,
        }
    }

    /// The format this page encodes to.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// The records, in key order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Payload bytes currently used. Exact for both formats; may
    /// transiently exceed [`PAGE_CAPACITY`] after a [`PageBuf::remove`] on
    /// a v2 page (removing a record can lengthen its successor's
    /// front-coding) — callers split before writing out.
    pub fn encoded_size(&self) -> usize {
        self.encoded
    }

    /// True when the page payload exceeds capacity (possible only after
    /// v2 removals); such a page must be split before write-out.
    pub fn overflowed(&self) -> bool {
        self.encoded > PAGE_CAPACITY
    }

    /// Cost of `rec` encoded after the record at `prev_idx` (None = first).
    fn cost_after(&self, rec: &NodeRecord, prev_idx: Option<usize>) -> usize {
        match self.format {
            StoreFormat::V1 => rec.encoded_len(),
            StoreFormat::V2 => {
                let prev = prev_idx.map(|i| self.records[i].key.as_flat());
                v2_record_len(rec, prev)
            }
        }
    }

    /// Exact payload delta of inserting `rec` at its sorted position.
    /// Positive unless the insert is rejected; accounts for the successor
    /// re-coding on v2 pages.
    fn insert_delta(&self, rec: &NodeRecord, pos: usize) -> usize {
        let prev_idx = pos.checked_sub(1);
        let own = self.cost_after(rec, prev_idx);
        match self.format {
            StoreFormat::V1 => own,
            StoreFormat::V2 => {
                let succ = match self.records.get(pos) {
                    Some(next) => {
                        let new_cost = v2_record_len(next, Some(rec.key.as_flat()));
                        let old_cost = self.cost_after(next, prev_idx);
                        new_cost as isize - old_cost as isize
                    }
                    None => 0,
                };
                (own as isize + succ).max(0) as usize
            }
        }
    }

    /// True if `rec` still fits at its sorted position — exact for the
    /// page's format (v2 front-coding makes a record's size depend on its
    /// neighbors, so a flat `encoded_len` check would over-reject).
    pub fn fits_record(&self, rec: &NodeRecord) -> bool {
        let pos = match self.find(rec.key.as_flat()) {
            Ok(_) => return true, // duplicate: insert will reject anyway
            Err(p) => p,
        };
        self.encoded + self.insert_delta(rec, pos) <= PAGE_CAPACITY
    }

    /// First key on the page (flat encoding).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.records.first().map(|r| r.key.as_flat())
    }

    /// Last key on the page (flat encoding).
    pub fn last_key(&self) -> Option<&[u8]> {
        self.records.last().map(|r| r.key.as_flat())
    }

    /// Binary search for `flat`: `Ok(i)` if present at `i`, `Err(i)` for
    /// the insertion point.
    pub fn find(&self, flat: &[u8]) -> std::result::Result<usize, usize> {
        self.records.binary_search_by(|r| r.key.as_flat().cmp(flat))
    }

    /// Appends a record that must sort after the current last record
    /// (bulk-load path).
    ///
    /// # Panics
    /// Panics (debug) if order would be violated; returns an error if the
    /// record does not fit.
    pub fn append(&mut self, rec: NodeRecord) -> Result<()> {
        let len = self.cost_after(&rec, self.records.len().checked_sub(1));
        if self.encoded + len > PAGE_CAPACITY {
            return Err(MassError::InvalidUpdate("page full".into()));
        }
        debug_assert!(
            self.last_key().is_none_or(|k| k < rec.key.as_flat()),
            "append out of order"
        );
        self.encoded += len;
        self.records.push(rec);
        Ok(())
    }

    /// Inserts a record at its sorted position (update path). The caller
    /// splits the page first if it does not fit.
    pub fn insert(&mut self, rec: NodeRecord) -> Result<()> {
        match self.find(rec.key.as_flat()) {
            Ok(_) => Err(MassError::InvalidUpdate("duplicate key".into())),
            Err(pos) => {
                let delta = self.insert_delta(&rec, pos);
                if self.encoded + delta > PAGE_CAPACITY {
                    return Err(MassError::InvalidUpdate("page full".into()));
                }
                self.encoded += delta;
                self.records.insert(pos, rec);
                Ok(())
            }
        }
    }

    /// Removes the record at `idx`, returning it. On v2 pages the
    /// successor's front-coding can lengthen, so `encoded_size` may grow
    /// past capacity — check [`PageBuf::overflowed`] before write-out.
    pub fn remove(&mut self, idx: usize) -> NodeRecord {
        let prev_idx = idx.checked_sub(1);
        let own = self.cost_after(&self.records[idx], prev_idx) as isize;
        let succ = match self.format {
            StoreFormat::V1 => 0,
            StoreFormat::V2 => match self.records.get(idx + 1) {
                Some(next) => {
                    let old_cost = v2_record_len(next, Some(self.records[idx].key.as_flat()));
                    let new_cost = self.cost_after(next, prev_idx);
                    new_cost as isize - old_cost as isize
                }
                None => 0,
            },
        };
        let rec = self.records.remove(idx);
        self.encoded = (self.encoded as isize - own + succ).max(0) as usize;
        rec
    }

    /// Recomputes `encoded` from scratch (after bulk record surgery).
    fn recompute(&mut self) {
        self.encoded = match self.format {
            StoreFormat::V1 => self.records.iter().map(NodeRecord::encoded_len).sum(),
            StoreFormat::V2 => {
                let mut prev: Option<&[u8]> = None;
                let mut total = 0;
                for r in &self.records {
                    total += v2_record_len(r, prev);
                    prev = Some(r.key.as_flat());
                }
                total
            }
        };
    }

    /// Splits the page in half (by payload bytes), returning the upper
    /// half as a new page in the same format.
    pub fn split(&mut self) -> PageBuf {
        let target = self.encoded / 2;
        let mut acc = 0usize;
        let mut cut = self.records.len();
        for (i, r) in self.records.iter().enumerate() {
            acc += self.cost_after(r, i.checked_sub(1));
            if acc >= target && i + 1 < self.records.len() {
                cut = i + 1;
                break;
            }
        }
        let upper_records: Vec<NodeRecord> = self.records.split_off(cut);
        let mut upper = PageBuf {
            records: upper_records,
            encoded: 0,
            format: self.format,
        };
        // Both halves recompute: the upper half's first record loses its
        // predecessor (v2), and the lower half simply shrank.
        self.recompute();
        upper.recompute();
        upper
    }

    fn encode_body(&self, format: StoreFormat, out: &mut Vec<u8>) {
        match format {
            StoreFormat::V1 => {
                for r in &self.records {
                    r.encode(out);
                }
            }
            StoreFormat::V2 => {
                let mut prev: Option<&[u8]> = None;
                for r in &self.records {
                    v2_encode_record(r, prev, out);
                    prev = Some(r.key.as_flat());
                }
            }
        }
    }

    /// Encodes the page into a `PAGE_SIZE` disk image, reporting the
    /// format actually written. A v2 page whose front-coded body would
    /// not fit (pathological keys) falls back to the uncompressed image
    /// when that one fits — the "overflow page" rule.
    pub fn encode_with_format(&self) -> Result<(Vec<u8>, StoreFormat)> {
        for format in [self.format, StoreFormat::V1] {
            let magic = match format {
                StoreFormat::V1 => MAGIC,
                StoreFormat::V2 => MAGIC_V2,
            };
            let mut out = Vec::with_capacity(PAGE_SIZE);
            out.extend_from_slice(&magic.to_le_bytes());
            out.extend_from_slice(&(self.records.len() as u16).to_le_bytes());
            out.extend_from_slice(&[0u8; 4]);
            self.encode_body(format, &mut out);
            if out.len() <= PAGE_SIZE {
                out.resize(PAGE_SIZE, 0);
                return Ok((out, format));
            }
            if format == StoreFormat::V1 {
                break;
            }
        }
        Err(MassError::InvalidUpdate("page over capacity".into()))
    }

    /// Encodes the page into a `PAGE_SIZE` disk image.
    pub fn encode(&self) -> Result<Vec<u8>> {
        Ok(self.encode_with_format()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::NameId;
    use crate::record::ValueRef;
    use vamana_flex::{seq_label, FlexKey};

    fn rec(i: u64) -> NodeRecord {
        NodeRecord::element(FlexKey::root().child(&seq_label(i)), NameId(i as u32))
    }

    fn deep_rec(path: &[u64]) -> NodeRecord {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        NodeRecord::element(k, NameId(7))
    }

    #[test]
    fn append_and_encode_round_trip() {
        let mut p = PageBuf::new(StoreFormat::V1);
        for i in 0..20 {
            p.append(rec(i)).unwrap();
        }
        let img = p.encode().unwrap();
        assert_eq!(img.len(), PAGE_SIZE);
        let back = Page::decode(img, 0).unwrap();
        assert_eq!(back.len(), 20);
        assert_eq!(back.to_records().unwrap(), p.records());
        assert_eq!(back.encoded_size(), p.encoded_size());
    }

    #[test]
    fn v2_round_trip_preserves_records_and_accounting() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = PageBuf::new(fmt);
            for i in 0..40 {
                p.append(deep_rec(&[0, 1, 2, i])).unwrap();
            }
            let (img, written) = p.encode_with_format().unwrap();
            assert_eq!(written, fmt);
            let back = Page::decode(img, 0).unwrap();
            assert_eq!(back.format(), fmt);
            assert_eq!(back.to_records().unwrap(), p.records());
            assert_eq!(back.encoded_size(), p.encoded_size());
        }
    }

    #[test]
    fn v2_packs_more_records_than_v1() {
        let fill = |fmt| {
            let mut p = PageBuf::new(fmt);
            let mut i = 0u64;
            loop {
                let r = deep_rec(&[0, 1, 2, 3, i]);
                if !p.fits_record(&r) {
                    break;
                }
                p.append(r).unwrap();
                i += 1;
            }
            p.len()
        };
        let v1 = fill(StoreFormat::V1);
        let v2 = fill(StoreFormat::V2);
        assert!(
            v2 as f64 >= v1 as f64 * 2.0,
            "v2 page holds {v2} records vs v1 {v1}; expected ≥ 2×"
        );
    }

    #[test]
    fn v2_insert_and_remove_keep_exact_accounting() {
        let mut p = PageBuf::new(StoreFormat::V2);
        for i in (0..60).step_by(2) {
            p.append(deep_rec(&[0, 1, i])).unwrap();
        }
        p.insert(deep_rec(&[0, 1, 31])).unwrap();
        p.insert(deep_rec(&[0, 0])).unwrap(); // new first record
        p.remove(5);
        p.remove(0);
        let mut check = p.clone();
        check.recompute();
        assert_eq!(p.encoded_size(), check.encoded_size());
        // And the image round-trips.
        let back = Page::decode(p.encode().unwrap(), 0).unwrap();
        assert_eq!(back.to_records().unwrap(), p.records());
        assert_eq!(back.encoded_size(), p.encoded_size());
    }

    #[test]
    fn v2_split_recomputes_both_halves() {
        let mut p = PageBuf::new(StoreFormat::V2);
        for i in 0..300 {
            p.append(deep_rec(&[0, 1, 2, i])).unwrap();
        }
        let upper = p.split();
        assert_eq!(upper.format(), StoreFormat::V2);
        let mut lo = p.clone();
        let mut hi = upper.clone();
        lo.recompute();
        hi.recompute();
        assert_eq!(p.encoded_size(), lo.encoded_size());
        assert_eq!(upper.encoded_size(), hi.encoded_size());
        assert!(p.last_key().unwrap() < upper.first_key().unwrap());
    }

    #[test]
    fn dict_values_round_trip_in_both_formats() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = PageBuf::new(fmt);
            p.append(NodeRecord {
                key: FlexKey::root().child(&seq_label(0)),
                kind: crate::record::RecordKind::Text,
                name: None,
                value: ValueRef::Dict(12345),
            })
            .unwrap();
            let back = Page::decode(p.encode().unwrap(), 0).unwrap();
            assert_eq!(back.value(0).unwrap(), ValueView::Dict(12345));
        }
    }

    #[test]
    fn find_locates_keys() {
        let mut p = PageBuf::new(StoreFormat::V1);
        for i in (0..30).step_by(3) {
            p.append(rec(i)).unwrap();
        }
        assert_eq!(p.find(rec(6).key.as_flat()), Ok(2));
        // Missing key yields the insertion point.
        assert!(p.find(rec(7).key.as_flat()).is_err());
    }

    #[test]
    fn lower_bound_from_any_hint_is_the_plain_lower_bound() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = PageBuf::new(fmt);
            for i in (0..90).step_by(3) {
                p.append(rec(i)).unwrap();
            }
            let page = Page::decode(p.encode().unwrap(), 0).unwrap();
            for probe in 0..95 {
                let flat = rec(probe).key;
                let want = match page.find(flat.as_flat()) {
                    Ok(i) | Err(i) => i,
                };
                for hint in (0..=page.len() + 2).chain([usize::MAX]) {
                    assert_eq!(
                        page.lower_bound_from(hint, flat.as_flat()),
                        want,
                        "{fmt:?}: key {probe} from hint {hint}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_lengths_end_subtrees_in_both_formats() {
        let mut paths = Vec::new();
        for a in 0..4 {
            paths.push(vec![a]);
            for b in 0..3 {
                paths.push(vec![a, b]);
                paths.extend((0..2).map(|c| vec![a, b, c]));
            }
        }
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = PageBuf::new(fmt);
            for path in &paths {
                p.append(deep_rec(path)).unwrap();
            }
            let page = Page::decode(p.encode().unwrap(), 0).unwrap();
            for i in 0..page.len() {
                let before = i.checked_sub(1).map_or(&[][..], |j| page.key(j));
                assert_eq!(page.shared(i), common_prefix(before, page.key(i)));
                let end = (i + 1..page.len())
                    .find(|&j| !page.key(j).starts_with(page.key(i)))
                    .unwrap_or(page.len());
                assert_eq!(page.subtree_end(i), end, "{fmt:?}: record {i}");
            }
        }
    }

    #[test]
    fn v2_refuses_a_shared_prefix_it_could_have_made_longer() {
        // Two keys that share their first label, the second front-coded
        // as if they shared nothing.
        let mut image = MAGIC_V2.to_le_bytes().to_vec();
        image.extend_from_slice(&2u16.to_le_bytes());
        image.extend_from_slice(&[0u8; 4]);
        v2_encode_record(&deep_rec(&[0, 1]), None, &mut image);
        v2_encode_record(&deep_rec(&[0, 2]), None, &mut image);
        image.resize(PAGE_SIZE, 0);
        assert!(Page::decode(image, 0).is_err());
    }

    #[test]
    fn insert_keeps_order() {
        let mut p = PageBuf::new(StoreFormat::V1);
        p.append(rec(0)).unwrap();
        p.append(rec(10)).unwrap();
        p.insert(rec(5)).unwrap();
        let keys: Vec<_> = p.records().iter().map(|r| r.key.clone()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut p = PageBuf::new(StoreFormat::V1);
        p.append(rec(1)).unwrap();
        assert!(p.insert(rec(1)).is_err());
    }

    #[test]
    fn remove_updates_size() {
        let mut p = PageBuf::new(StoreFormat::V1);
        p.append(rec(0)).unwrap();
        p.append(rec(1)).unwrap();
        let before = p.encoded_size();
        let r = p.remove(0);
        assert_eq!(p.encoded_size(), before - r.encoded_len());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn page_rejects_overflow() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = PageBuf::new(fmt);
            let mut i = 0;
            loop {
                let r = rec(i);
                if !p.fits_record(&r) {
                    assert!(p.append(r).is_err());
                    break;
                }
                p.append(r).unwrap();
                i += 1;
            }
            assert!(p.encoded_size() <= PAGE_CAPACITY);
            assert!(i > 100, "page should hold many small records, held {i}");
        }
    }

    #[test]
    fn split_halves_payload() {
        let mut p = PageBuf::new(StoreFormat::V1);
        for i in 0..200 {
            p.append(rec(i)).unwrap();
        }
        let total = p.encoded_size();
        let upper = p.split();
        assert!(p.encoded_size() > 0 && upper.encoded_size() > 0);
        assert_eq!(p.encoded_size() + upper.encoded_size(), total);
        assert!(p.last_key().unwrap() < upper.first_key().unwrap());
        let diff = p.encoded_size().abs_diff(upper.encoded_size());
        assert!(
            diff < total / 4,
            "unbalanced split: {} vs {}",
            p.encoded_size(),
            upper.encoded_size()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Page::decode(vec![0u8; 16], 0).is_err());
        let mut img = PageBuf::new(StoreFormat::V1).encode().unwrap();
        img[0] = 0xFF;
        assert!(Page::decode(img, 3).is_err());
    }

    #[test]
    fn empty_page_has_no_keys() {
        let p = PageBuf::new(StoreFormat::V1);
        assert_eq!(p.first_key(), None);
        assert_eq!(p.last_key(), None);
        assert!(p.is_empty());
    }
}
