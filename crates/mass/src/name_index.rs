//! The name (node-test) index.
//!
//! For every interned name MASS keeps the sorted list of FLEX keys of the
//! elements (and, separately, attributes) bearing that name, plus global
//! lists per node kind (text, comment, PI). Because the lists are sorted
//! in document order, the count of nodes satisfying a node test *within
//! any structural range* is two binary searches — the paper's "count on
//! the index level without going to data", which powers `COUNT(opᵢ)`.

use crate::error::{MassError, Result};
use crate::names::NameId;
use vamana_flex::KeyRange;

/// A sorted (document-order) list of flat keys — the posting list of one
/// name, kind or value.
///
/// The keys live back to back in one byte arena; `ends[i]` is the offset
/// one past key `i`, so key `i` is `bytes[ends[i - 1]..ends[i]]`. A probe
/// is a binary search over `ends` that touches two contiguous
/// allocations, not one heap block per key.
///
/// Probes take an optional *finger*: a position the caller remembers
/// from its previous probe ([`SortedKeys::lower_bound_from`]). Any hint
/// is correct; a good hint is fast. The list itself holds no probe
/// state — it is shared by every reader of the store.
#[derive(Debug, Default, Clone)]
pub struct SortedKeys {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

/// The one place a byte offset into a key arena becomes a `u32`: a list
/// whose key bytes would pass 4 GiB is an error, never a wrapped offset.
fn arena_offset(bytes: usize) -> Result<u32> {
    u32::try_from(bytes).map_err(|_| {
        MassError::InvalidUpdate("index posting list would exceed 4 GiB of key bytes".into())
    })
}

/// The finger of a cursor that has not probed yet. It lies past every
/// list, so the first probe is a plain search of the whole list rather
/// than a gallop up from the front.
pub const NO_FINGER: usize = usize::MAX;

/// What a name that never occurred resolves to.
static EMPTY: SortedKeys = SortedKeys {
    bytes: Vec::new(),
    ends: Vec::new(),
};

impl SortedKeys {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Offset of key `i`'s first byte (`i == len` gives the arena's end).
    #[inline]
    fn start(&self, i: usize) -> u32 {
        match i {
            0 => 0,
            _ => self.ends[i - 1],
        }
    }

    /// Key `i`, in document order. Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i) as usize..self.ends[i] as usize]
    }

    /// First index in `lo..hi` whose key fails `before`, which must hold
    /// for a prefix of that run and for none after it.
    #[inline]
    fn partition(&self, mut lo: usize, mut hi: usize, before: impl Fn(&[u8]) -> bool) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends a key that must sort after every existing key (bulk load).
    pub fn push_ordered(&mut self, flat: &[u8]) -> Result<()> {
        debug_assert!(
            self.is_empty() || self.get(self.len() - 1) < flat,
            "out-of-order push"
        );
        let end = arena_offset(self.bytes.len() + flat.len())?;
        self.bytes.extend_from_slice(flat);
        self.ends.push(end);
        Ok(())
    }

    /// Inserts a key at its sorted position (update path). Duplicate
    /// inserts are ignored.
    pub fn insert(&mut self, flat: &[u8]) -> Result<()> {
        let pos = self.lower_bound(flat);
        if pos < self.len() && self.get(pos) == flat {
            return Ok(());
        }
        // The arena's new end fits, so every offset below it does.
        let old_len = self.bytes.len();
        arena_offset(old_len + flat.len())?;
        let width = arena_offset(flat.len())?;
        let at = self.start(pos);
        let (from, to) = (at as usize, at as usize + flat.len());
        self.bytes.resize(old_len + flat.len(), 0);
        self.bytes.copy_within(from..old_len, to);
        self.bytes[from..to].copy_from_slice(flat);
        for end in &mut self.ends[pos..] {
            *end += width;
        }
        self.ends.insert(pos, at + width);
        Ok(())
    }

    /// Removes a key if present; returns whether it was there.
    pub fn remove(&mut self, flat: &[u8]) -> bool {
        let pos = self.lower_bound(flat);
        if pos == self.len() || self.get(pos) != flat {
            return false;
        }
        let (from, to) = (self.start(pos), self.ends[pos]);
        self.bytes.drain(from as usize..to as usize);
        self.ends.remove(pos);
        for end in &mut self.ends[pos..] {
            *end -= to - from;
        }
        true
    }

    /// Index of the first key `>= flat`.
    pub fn lower_bound(&self, flat: &[u8]) -> usize {
        self.partition(0, self.len(), |k| k < flat)
    }

    /// [`SortedKeys::lower_bound`] started from a finger: `hint` is where
    /// the caller's previous probe landed. The result is the same for
    /// every `hint`; the cost is logarithmic in the distance from a hint
    /// at or before the answer (gallop forward, then bisect the last
    /// stride). A key that sorts before the hint costs one comparison
    /// with the first key — an ancestor above every posting, the usual
    /// miss of a reverse-axis probe — and otherwise a search of the keys
    /// before the hint.
    pub fn lower_bound_from(&self, hint: usize, flat: &[u8]) -> usize {
        let len = self.len();
        let mut lo = hint.min(len);
        if lo > 0 && self.get(lo - 1) >= flat {
            if self.get(0) >= flat {
                return 0;
            }
            return self.partition(1, lo - 1, |k| k < flat);
        }
        // Every key before `lo` sorts before `flat`.
        let mut step = 1;
        while lo + step <= len && self.get(lo + step - 1) < flat {
            lo += step;
            step *= 2;
        }
        self.partition(lo, (lo + step - 1).min(len), |k| k < flat)
    }

    /// Membership test — one binary search, no data access.
    pub fn contains(&self, flat: &[u8]) -> bool {
        let pos = self.lower_bound(flat);
        pos < self.len() && self.get(pos) == flat
    }

    /// Number of keys inside `range` — two binary searches, no data access.
    pub fn count_in(&self, range: &KeyRange) -> u64 {
        self.slice_in(range).len() as u64
    }

    /// Iterator over the keys inside `range`, in document order.
    pub fn iter_in<'a>(&'a self, range: &KeyRange) -> KeyIter<'a> {
        self.slice_in(range).iter()
    }

    /// View of the keys inside `range` (zero-copy scans).
    pub fn slice_in(&self, range: &KeyRange) -> KeySlice<'_> {
        let lo = self.lower_bound(&range.lo);
        let hi = match &range.hi {
            Some(h) => self.partition(lo, self.len(), |k| k < h.as_slice()),
            None => self.len(),
        };
        KeySlice { keys: self, lo, hi }
    }

    /// [`SortedKeys::slice_in`] with both bounds found from a finger: the
    /// lower from `hint`, the upper from the lower (an axis range is a
    /// short run of the list). [`KeySlice::start`] is the next hint.
    pub fn slice_in_from(&self, hint: usize, range: &KeyRange) -> KeySlice<'_> {
        let lo = self.lower_bound_from(hint, &range.lo);
        let hi = match &range.hi {
            // An empty range (`hi <= lo`) bounds nothing.
            Some(h) => self.lower_bound_from(lo, h).max(lo),
            None => self.len(),
        };
        KeySlice { keys: self, lo, hi }
    }

    /// All keys, in document order.
    pub fn iter(&self) -> KeyIter<'_> {
        self.iter_from(0)
    }

    /// The keys from position `lo` (clamped to the list) on — where a
    /// probe landed — in document order.
    pub fn iter_from(&self, lo: usize) -> KeyIter<'_> {
        let hi = self.len();
        KeyIter(KeySlice {
            keys: self,
            lo: lo.min(hi),
            hi,
        })
    }
}

/// A borrowed run of consecutive keys of a [`SortedKeys`] list.
#[derive(Debug, Clone, Copy)]
pub struct KeySlice<'a> {
    keys: &'a SortedKeys,
    lo: usize,
    hi: usize,
}

impl<'a> KeySlice<'a> {
    /// Number of keys in the run.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the run holds no key.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Position of the run's first key in its list — the finger a
    /// document-ordered caller passes to its next probe.
    pub fn start(&self) -> usize {
        self.lo
    }

    /// Key `i` of the run. Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> &'a [u8] {
        assert!(i < self.len(), "key {i} outside a run of {}", self.len());
        self.keys.get(self.lo + i)
    }

    /// The run's first key.
    pub fn first(&self) -> Option<&'a [u8]> {
        (!self.is_empty()).then(|| self.keys.get(self.lo))
    }

    /// The run's last key.
    pub fn last(&self) -> Option<&'a [u8]> {
        (!self.is_empty()).then(|| self.keys.get(self.hi - 1))
    }

    /// The keys of the run, in document order (double-ended).
    pub fn iter(&self) -> KeyIter<'a> {
        KeyIter(*self)
    }
}

/// Iterator over a [`KeySlice`].
#[derive(Debug, Clone)]
pub struct KeyIter<'a>(KeySlice<'a>);

impl<'a> Iterator for KeyIter<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let key = self.0.first()?;
        self.0.lo += 1;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl DoubleEndedIterator for KeyIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let key = self.0.last()?;
        self.0.hi -= 1;
        Some(key)
    }
}

impl ExactSizeIterator for KeyIter<'_> {}

/// Per-name and per-kind key lists.
#[derive(Debug, Default, Clone)]
pub struct NameIndex {
    elements: Vec<SortedKeys>,
    attributes: Vec<SortedKeys>,
    all_elements: SortedKeys,
    text: SortedKeys,
    comments: SortedKeys,
    pis: SortedKeys,
}

impl NameIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(list: &mut Vec<SortedKeys>, name: NameId) -> &mut SortedKeys {
        let idx = name.0 as usize;
        if list.len() <= idx {
            list.resize_with(idx + 1, SortedKeys::default);
        }
        &mut list[idx]
    }

    /// Element list for `name` (empty if never seen).
    pub fn elements(&self, name: NameId) -> &SortedKeys {
        self.elements.get(name.0 as usize).unwrap_or(&EMPTY)
    }

    /// Attribute list for `name`.
    pub fn attributes(&self, name: NameId) -> &SortedKeys {
        self.attributes.get(name.0 as usize).unwrap_or(&EMPTY)
    }

    /// Keys of *all* elements regardless of name (wildcard node tests).
    pub fn all_elements(&self) -> &SortedKeys {
        &self.all_elements
    }

    /// All text-node keys.
    pub fn text(&self) -> &SortedKeys {
        &self.text
    }

    /// All comment keys.
    pub fn comments(&self) -> &SortedKeys {
        &self.comments
    }

    /// All processing-instruction keys.
    pub fn pis(&self) -> &SortedKeys {
        &self.pis
    }

    /// Mutable element list (loader/update path).
    pub fn elements_mut(&mut self, name: NameId) -> &mut SortedKeys {
        Self::slot(&mut self.elements, name)
    }

    /// Mutable all-elements list.
    pub fn all_elements_mut(&mut self) -> &mut SortedKeys {
        &mut self.all_elements
    }

    /// Mutable attribute list.
    pub fn attributes_mut(&mut self, name: NameId) -> &mut SortedKeys {
        Self::slot(&mut self.attributes, name)
    }

    /// Mutable text list.
    pub fn text_mut(&mut self) -> &mut SortedKeys {
        &mut self.text
    }

    /// Mutable comment list.
    pub fn comments_mut(&mut self) -> &mut SortedKeys {
        &mut self.comments
    }

    /// Mutable PI list.
    pub fn pis_mut(&mut self) -> &mut SortedKeys {
        &mut self.pis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_flex::{seq_label, FlexKey};

    fn key(path: &[u64]) -> FlexKey {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k
    }

    fn flat(path: &[u64]) -> Vec<u8> {
        key(path).into_flat()
    }

    #[test]
    fn count_in_subtree_range() {
        let mut s = SortedKeys::default();
        for p in [&[0, 0][..], &[0, 1], &[0, 1, 2], &[0, 2], &[1, 0]] {
            s.push_ordered(&flat(p)).unwrap();
        }
        let r = KeyRange::subtree(&key(&[0, 1]));
        assert_eq!(s.count_in(&r), 2); // [0,1] and [0,1,2]
        assert_eq!(s.count_in(&KeyRange::all()), 5);
        assert_eq!(s.count_in(&KeyRange::subtree(&key(&[7]))), 0);
    }

    #[test]
    fn iter_in_matches_count() {
        let mut s = SortedKeys::default();
        for i in 0..50 {
            s.push_ordered(&flat(&[i / 10, i % 10])).unwrap();
        }
        let r = KeyRange::subtree(&key(&[2]));
        let items: Vec<_> = s.iter_in(&r).collect();
        assert_eq!(items.len() as u64, s.count_in(&r));
        assert_eq!(items.len(), 10);
    }

    #[test]
    fn insert_and_remove_keep_order() {
        let mut s = SortedKeys::default();
        s.push_ordered(&flat(&[0])).unwrap();
        s.push_ordered(&flat(&[2])).unwrap();
        s.insert(&flat(&[1])).unwrap();
        let keys: Vec<_> = s.iter().map(|k| k.to_vec()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(s.remove(&flat(&[1])));
        assert!(!s.remove(&flat(&[1])));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut s = SortedKeys::default();
        s.insert(&flat(&[3])).unwrap();
        s.insert(&flat(&[3])).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arena_offsets_are_checked() {
        assert_eq!(arena_offset(0).unwrap(), 0);
        assert_eq!(arena_offset(u32::MAX as usize).unwrap(), u32::MAX);
        // One byte past what a `u32` addresses: an error, not offset 0.
        let err = arena_offset(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, MassError::InvalidUpdate(_)), "{err}");
    }

    #[test]
    fn finger_probes_agree_with_plain_ones() {
        let mut s = SortedKeys::default();
        for i in 0..40 {
            s.push_ordered(&flat(&[i / 8, 2 * (i % 8)])).unwrap();
        }
        for probe in [&[0][..], &[0, 0], &[0, 1], &[2, 6], &[2, 7], &[4, 14], &[9]] {
            let k = flat(probe);
            for hint in 0..=s.len() + 1 {
                assert_eq!(s.lower_bound_from(hint, &k), s.lower_bound(&k));
            }
        }
        let r = KeyRange::subtree(&key(&[3]));
        for hint in 0..=s.len() + 1 {
            let run = s.slice_in_from(hint, &r);
            assert_eq!((run.start(), run.len()), (24, 8));
            assert_eq!(run.first(), Some(&flat(&[3, 0])[..]));
            assert_eq!(run.iter().next_back(), run.last());
        }
        assert!(s.slice_in_from(30, &KeyRange::empty()).is_empty());
    }

    #[test]
    fn name_index_separates_elements_and_attributes() {
        let mut idx = NameIndex::new();
        let name = NameId(0);
        idx.elements_mut(name).push_ordered(&flat(&[0])).unwrap();
        idx.attributes_mut(name)
            .push_ordered(&flat(&[0, 0]))
            .unwrap();
        assert_eq!(idx.elements(name).len(), 1);
        assert_eq!(idx.attributes(name).len(), 1);
        // Unknown names resolve to the empty list, not a panic.
        assert_eq!(idx.elements(NameId(99)).len(), 0);
    }

    #[test]
    fn kind_lists_are_independent() {
        let mut idx = NameIndex::new();
        idx.text_mut().push_ordered(&flat(&[0, 0])).unwrap();
        idx.comments_mut().push_ordered(&flat(&[0, 1])).unwrap();
        idx.pis_mut().push_ordered(&flat(&[0, 2])).unwrap();
        assert_eq!(idx.text().len(), 1);
        assert_eq!(idx.comments().len(), 1);
        assert_eq!(idx.pis().len(), 1);
    }
}
