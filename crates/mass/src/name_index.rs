//! The name (node-test) index.
//!
//! For every interned name MASS keeps the sorted list of FLEX keys of the
//! elements (and, separately, attributes) bearing that name, plus global
//! lists per node kind (text, comment, PI). Because the lists are sorted
//! in document order, the count of nodes satisfying a node test *within
//! any structural range* is two binary searches — the paper's "count on
//! the index level without going to data", which powers `COUNT(opᵢ)`.

use crate::names::NameId;
use vamana_flex::KeyRange;

/// Most keys one block of a posting list holds. A write shifts at most
/// this many offsets and their key bytes, whatever the list's length.
pub const BLOCK_KEYS: usize = 128;

/// A sorted (document-order) list of flat keys — the posting list of one
/// name, kind or value.
///
/// The keys lie in blocks of at most [`BLOCK_KEYS`]. A block is one byte
/// arena with the offset one past each key (`ends[i]`), so key `i` of a
/// block is `bytes[ends[i - 1]..ends[i]]`. A list that fits in one block is
/// that block alone: two contiguous allocations. A longer one adds a
/// directory holding each block's first key and how many keys come before
/// it, so a probe searches the directory, then one block, and a write
/// changes one block and shifts the directory's counts.
///
/// Positions are global: key `i` of the list, whichever block holds it.
/// Probes take an optional *finger*: a position the caller remembers
/// from its previous probe ([`SortedKeys::lower_bound_from`]). Any hint
/// is correct; a good hint is fast. The list itself holds no probe
/// state — it is shared by every reader of the store.
#[derive(Debug, Clone)]
pub struct SortedKeys {
    layout: Layout,
}

#[derive(Debug, Clone)]
enum Layout {
    /// At most one block's keys (possibly none).
    One(Block),
    /// Two blocks or more, none empty.
    Many(Box<Directory>),
}

/// Keys back to back in one arena, with `u32` offsets.
#[derive(Debug, Default, Clone)]
struct Block {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

/// The blocks of a long list, with what a probe needs to pick one.
#[derive(Debug, Clone)]
struct Directory {
    blocks: Vec<Block>,
    /// `firsts[b]`: block `b`'s first key.
    firsts: Vec<Box<[u8]>>,
    /// `before[b]`: the keys in the blocks before block `b`; the last
    /// entry is the list's length.
    before: Vec<usize>,
}

/// A position as the block holding it and its offset there; the list's
/// end is the end of the last block.
type Spot = (usize, usize);

/// The finger of a cursor that has not probed yet. It lies past every
/// list, so the first probe is a plain search of the whole list rather
/// than a gallop up from the front.
pub const NO_FINGER: usize = usize::MAX;

/// What a name that never occurred resolves to.
static EMPTY: SortedKeys = SortedKeys {
    layout: Layout::One(Block {
        bytes: Vec::new(),
        ends: Vec::new(),
    }),
};

/// First index in `lo..hi` at which `before` fails; it must hold for a
/// prefix of that run and for none after it.
#[inline]
fn partition(mut lo: usize, mut hi: usize, before: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition`] of `lo..len` when `before` holds for every index below
/// `lo`: gallop up from `lo`, then bisect the last stride — logarithmic in
/// the distance from `lo` to the answer.
#[inline]
fn gallop(mut lo: usize, len: usize, before: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo + step <= len && before(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    partition(lo, (lo + step - 1).min(len), before)
}

/// The one place a block's arena length becomes a `u32` offset. A record,
/// key included, fits in one page, so a block's [`BLOCK_KEYS`] keys stay far
/// below 4 GiB; if they ever did not, this stops rather than wraps.
fn arena_end(bytes: &[u8]) -> u32 {
    u32::try_from(bytes.len()).expect("a posting block's keys fit in 4 GiB")
}

impl Block {
    /// An empty block with room for a full one's offsets and `bytes` of
    /// key bytes.
    fn with_capacity(bytes: usize) -> Self {
        Block {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(BLOCK_KEYS),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Offset of key `i`'s first byte (`i == len` gives the arena's end).
    #[inline]
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    fn lower_bound(&self, flat: &[u8]) -> usize {
        partition(0, self.len(), |i| self.get(i) < flat)
    }

    /// [`Block::lower_bound`] from offset `hint`: a gallop forward, or, for
    /// a key before the hint, one comparison with the first key and then a
    /// search of the keys before the hint.
    fn lower_bound_from(&self, hint: usize, flat: &[u8]) -> usize {
        let lo = hint.min(self.len());
        if lo > 0 && self.get(lo - 1) >= flat {
            if self.get(0) >= flat {
                return 0;
            }
            return partition(1, lo - 1, |i| self.get(i) < flat);
        }
        gallop(lo, self.len(), |i| self.get(i) < flat)
    }

    /// Whether the key at offset `at` is `flat`.
    #[inline]
    fn holds(&self, at: usize, flat: &[u8]) -> bool {
        at < self.len() && self.get(at) == flat
    }

    /// Offset of `flat` if the block holds it.
    fn find(&self, flat: &[u8]) -> Option<usize> {
        let at = self.lower_bound(flat);
        self.holds(at, flat).then_some(at)
    }

    fn push(&mut self, flat: &[u8]) {
        self.bytes.extend_from_slice(flat);
        self.ends.push(arena_end(&self.bytes));
    }

    /// Puts `flat` at offset `at`, shifting the keys after it.
    fn insert(&mut self, at: usize, flat: &[u8]) {
        let from = self.start(at);
        self.bytes.splice(from..from, flat.iter().copied());
        // The arena's end fits, so every offset below it does.
        arena_end(&self.bytes);
        let width = flat.len() as u32;
        for end in &mut self.ends[at..] {
            *end += width;
        }
        self.ends.insert(at, from as u32 + width);
    }

    fn remove(&mut self, at: usize) {
        let (from, to) = (self.start(at), self.ends[at] as usize);
        self.bytes.drain(from..to);
        self.ends.remove(at);
        for end in &mut self.ends[at..] {
            *end -= (to - from) as u32;
        }
    }

    /// Moves the keys from offset `at` on into a new block.
    fn split_off(&mut self, at: usize) -> Block {
        let from = self.start(at);
        let bytes = self.bytes.split_off(from);
        let ends = self.ends.split_off(at);
        Block {
            bytes,
            ends: ends.into_iter().map(|end| end - from as u32).collect(),
        }
    }
}

impl Directory {
    /// A directory over `blocks`, none of them empty.
    fn new(blocks: Vec<Block>) -> Self {
        let firsts = blocks.iter().map(|b| b.get(0).into()).collect();
        let before = std::iter::once(0)
            .chain(blocks.iter().scan(0, |n, b| {
                *n += b.len();
                Some(*n)
            }))
            .collect();
        Directory {
            blocks,
            firsts,
            before,
        }
    }

    fn len(&self) -> usize {
        self.before[self.blocks.len()]
    }

    /// The block `flat` belongs in: the last one whose first key is not
    /// after it, or the first.
    fn block_for(&self, flat: &[u8]) -> usize {
        self.firsts
            .partition_point(|first| **first <= *flat)
            .saturating_sub(1)
    }

    /// The block holding position `pos`, and `pos`'s offset in it; the
    /// list's length, and any position past it, is the end of the last
    /// block. No block holds more than [`BLOCK_KEYS`], so that block is
    /// `pos / BLOCK_KEYS` or a later one: a gallop up from there, one
    /// comparison while no block split.
    #[inline]
    fn locate(&self, pos: usize) -> Spot {
        let last = self.blocks.len() - 1;
        let mut b = (pos / BLOCK_KEYS).min(last);
        if b < last && self.before[b + 1] <= pos {
            b = gallop(b + 2, last + 1, |i| self.before[i] <= pos) - 1;
        }
        (b, (pos - self.before[b]).min(self.blocks[b].len()))
    }

    #[inline]
    fn position(&self, (b, at): Spot) -> usize {
        self.before[b] + at
    }

    /// The first key not before `flat` as a [`Spot`], searched from the
    /// spot `from`: in `from`'s block first, in the directory only when
    /// the answer lies outside it.
    fn seek(&self, (mut b, mut at): Spot, flat: &[u8]) -> Spot {
        // The key before a spot that starts a block ends the one before.
        if at == 0 && b > 0 {
            b -= 1;
            at = self.blocks[b].len();
        }
        let block = &self.blocks[b];
        let below = |i: usize| *self.firsts[i] < *flat;
        if at > 0 && block.get(at - 1) >= flat {
            if block.get(0) < flat {
                return (b, partition(1, at - 1, |i| block.get(i) < flat));
            }
            if b == 0 || !below(0) {
                return (0, 0);
            }
            // The last earlier block starting before `flat` holds it.
            return self.bound_in(partition(1, b, below) - 1, flat);
        }
        // Every key before the spot sorts before `flat`.
        let within = gallop(at, block.len(), |i| block.get(i) < flat);
        if within < block.len() {
            return (b, within);
        }
        // So does the rest of this block: the answer lies in the last
        // block starting before `flat`, or starts the one after it.
        self.bound_in(gallop(b + 1, self.blocks.len(), below) - 1, flat)
    }

    /// The first key not before `flat` in block `b` or, past its end, the
    /// next block's first: the spot of a block's end is the next start.
    fn bound_in(&self, b: usize, flat: &[u8]) -> Spot {
        match self.blocks[b].lower_bound(flat) {
            at if at == self.blocks[b].len() && b + 1 < self.blocks.len() => (b + 1, 0),
            at => (b, at),
        }
    }

    fn push(&mut self, flat: &[u8]) {
        let last = self.blocks.last_mut().expect("a directory has blocks");
        if last.len() < BLOCK_KEYS {
            last.push(flat);
        } else {
            let mut block = Block::with_capacity(last.bytes.len());
            block.push(flat);
            // The new block starts where the list ends.
            self.before.push(self.len());
            self.blocks.push(block);
            self.firsts.push(flat.into());
        }
        *self.before.last_mut().expect("a directory has counts") += 1;
    }

    fn insert(&mut self, flat: &[u8]) {
        let mut b = self.block_for(flat);
        let mut at = self.blocks[b].lower_bound(flat);
        if self.blocks[b].holds(at, flat) {
            return;
        }
        if self.blocks[b].len() == BLOCK_KEYS {
            // Split the full block in two halves.
            let half = BLOCK_KEYS / 2;
            let right = self.blocks[b].split_off(half);
            self.firsts.insert(b + 1, right.get(0).into());
            self.before.insert(b + 1, self.before[b] + half);
            self.blocks.insert(b + 1, right);
            if at > half {
                (b, at) = (b + 1, at - half);
            }
        }
        self.blocks[b].insert(at, flat);
        if at == 0 {
            self.firsts[b] = flat.into();
        }
        for n in &mut self.before[b + 1..] {
            *n += 1;
        }
    }

    fn remove(&mut self, flat: &[u8]) -> bool {
        let b = self.block_for(flat);
        let Some(at) = self.blocks[b].find(flat) else {
            return false;
        };
        self.blocks[b].remove(at);
        for n in &mut self.before[b + 1..] {
            *n -= 1;
        }
        if self.blocks[b].len() == 0 {
            self.blocks.remove(b);
            self.firsts.remove(b);
            self.before.remove(b + 1);
        } else if at == 0 {
            self.firsts[b] = self.blocks[b].get(0).into();
        }
        true
    }
}

impl Default for SortedKeys {
    fn default() -> Self {
        SortedKeys {
            layout: Layout::One(Block::default()),
        }
    }
}

impl SortedKeys {
    /// Number of keys.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::One(block) => block.len(),
            Layout::Many(dir) => dir.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn blocks(&self) -> &[Block] {
        match &self.layout {
            Layout::One(block) => std::slice::from_ref(block),
            Layout::Many(dir) => &dir.blocks,
        }
    }

    /// Position `pos` (at most `len`) as a [`Spot`].
    #[inline]
    fn locate(&self, pos: usize) -> Spot {
        match &self.layout {
            Layout::One(_) => (0, pos),
            Layout::Many(dir) => dir.locate(pos),
        }
    }

    /// The position a [`Spot`] names.
    #[inline]
    fn position(&self, spot: Spot) -> usize {
        match &self.layout {
            Layout::One(_) => spot.1,
            Layout::Many(dir) => dir.position(spot),
        }
    }

    /// The first key not before `flat`, searched from the spot `from`.
    fn seek(&self, from: Spot, flat: &[u8]) -> Spot {
        match &self.layout {
            Layout::One(block) => (0, block.lower_bound_from(from.1, flat)),
            Layout::Many(dir) => dir.seek(from, flat),
        }
    }

    /// The first key not before `flat`, by a plain search.
    fn bound(&self, flat: &[u8]) -> Spot {
        match &self.layout {
            Layout::One(block) => (0, block.lower_bound(flat)),
            Layout::Many(dir) => dir.bound_in(dir.block_for(flat), flat),
        }
    }

    /// Key `i`, in document order. Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        match &self.layout {
            Layout::One(block) => block.get(i),
            Layout::Many(dir) => {
                let (b, at) = dir.locate(i);
                dir.blocks[b].get(at)
            }
        }
    }

    /// Appends a key that must sort after every existing key (bulk load).
    pub fn push_ordered(&mut self, flat: &[u8]) {
        debug_assert!(
            self.is_empty() || self.get(self.len() - 1) < flat,
            "out-of-order push"
        );
        match &mut self.layout {
            Layout::One(block) if block.len() < BLOCK_KEYS => block.push(flat),
            Layout::One(block) => {
                let mut next = Block::with_capacity(block.bytes.len());
                next.push(flat);
                let blocks = vec![std::mem::take(block), next];
                self.layout = Layout::Many(Box::new(Directory::new(blocks)));
            }
            Layout::Many(dir) => dir.push(flat),
        }
    }

    /// Inserts a key at its sorted position (update path). Duplicate
    /// inserts are ignored.
    pub fn insert(&mut self, flat: &[u8]) {
        if let Layout::One(block) = &mut self.layout {
            let at = block.lower_bound(flat);
            if block.holds(at, flat) {
                return;
            }
            if block.len() < BLOCK_KEYS {
                return block.insert(at, flat);
            }
            let mut left = std::mem::take(block);
            let right = left.split_off(BLOCK_KEYS / 2);
            self.layout = Layout::Many(Box::new(Directory::new(vec![left, right])));
        }
        if let Layout::Many(dir) = &mut self.layout {
            dir.insert(flat);
        }
    }

    /// Removes a key if present; returns whether it was there.
    pub fn remove(&mut self, flat: &[u8]) -> bool {
        match &mut self.layout {
            Layout::One(block) => match block.find(flat) {
                Some(at) => {
                    block.remove(at);
                    true
                }
                None => false,
            },
            Layout::Many(dir) => {
                let removed = dir.remove(flat);
                if dir.blocks.len() == 1 {
                    let block = dir.blocks.pop().expect("one block left");
                    self.layout = Layout::One(block);
                }
                removed
            }
        }
    }

    /// Index of the first key `>= flat`.
    pub fn lower_bound(&self, flat: &[u8]) -> usize {
        self.position(self.bound(flat))
    }

    /// [`SortedKeys::lower_bound`] started from a finger: `hint` is where
    /// the caller's previous probe landed. The result is the same for
    /// every `hint`; the cost is logarithmic in the distance from a hint
    /// at or before the answer (gallop forward in the hint's block, then
    /// over the directory, and bisect the last stride). A key that sorts
    /// before the hint costs a comparison with the first key of the
    /// hint's block and then of the list — an ancestor above every
    /// posting, the usual miss of a reverse-axis probe — and otherwise a
    /// search of the keys before the hint.
    pub fn lower_bound_from(&self, hint: usize, flat: &[u8]) -> usize {
        match &self.layout {
            Layout::One(block) => block.lower_bound_from(hint, flat),
            Layout::Many(dir) => dir.position(dir.seek(dir.locate(hint), flat)),
        }
    }

    /// [`SortedKeys::lower_bound_from`], and whether the key there is
    /// `flat` — a membership probe that leaves a finger, in one search.
    pub fn find_from(&self, hint: usize, flat: &[u8]) -> (usize, bool) {
        match &self.layout {
            Layout::One(block) => {
                let at = block.lower_bound_from(hint, flat);
                (at, block.holds(at, flat))
            }
            Layout::Many(dir) => {
                let (b, at) = dir.seek(dir.locate(hint), flat);
                (dir.position((b, at)), dir.blocks[b].holds(at, flat))
            }
        }
    }

    /// Membership test — one search, no data access.
    pub fn contains(&self, flat: &[u8]) -> bool {
        let (b, at) = self.bound(flat);
        self.blocks()[b].holds(at, flat)
    }

    /// Number of keys inside `range` — two searches, no data access.
    pub fn count_in(&self, range: &KeyRange) -> u64 {
        self.slice_in(range).len() as u64
    }

    /// Iterator over the keys inside `range`, in document order.
    pub fn iter_in<'a>(&'a self, range: &KeyRange) -> KeyIter<'a> {
        self.slice_in(range).iter()
    }

    /// View of the keys inside `range` (zero-copy scans).
    pub fn slice_in(&self, range: &KeyRange) -> KeySlice<'_> {
        self.slice_from(self.bound(&range.lo), range)
    }

    /// [`SortedKeys::slice_in`] with both bounds found from a finger: the
    /// lower from `hint`, the upper from the lower (an axis range is a
    /// short run of the list). [`KeySlice::start`] is the next hint.
    pub fn slice_in_from(&self, hint: usize, range: &KeyRange) -> KeySlice<'_> {
        let front = match &self.layout {
            Layout::One(block) => (0, block.lower_bound_from(hint, &range.lo)),
            Layout::Many(dir) => dir.seek(dir.locate(hint), &range.lo),
        };
        self.slice_from(front, range)
    }

    /// The keys inside `range`, whose first is at `front`.
    fn slice_from(&self, front: Spot, range: &KeyRange) -> KeySlice<'_> {
        let lo = self.position(front);
        let hi = match &range.hi {
            // An empty range (`hi <= lo`) bounds nothing.
            Some(h) => self.position(self.seek(front, h)).max(lo),
            None => self.len(),
        };
        KeySlice {
            keys: self,
            lo,
            hi,
            front,
        }
    }

    /// All keys, in document order.
    pub fn iter(&self) -> KeyIter<'_> {
        self.iter_from(0)
    }

    /// The keys from position `lo` (clamped to the list) on — where a
    /// probe landed — in document order.
    pub fn iter_from(&self, lo: usize) -> KeyIter<'_> {
        let (lo, hi) = (lo.min(self.len()), self.len());
        KeySlice {
            keys: self,
            lo,
            hi,
            front: self.locate(lo),
        }
        .iter()
    }
}

/// A borrowed run of consecutive keys of a [`SortedKeys`] list.
#[derive(Debug, Clone, Copy)]
pub struct KeySlice<'a> {
    keys: &'a SortedKeys,
    lo: usize,
    hi: usize,
    /// Where `lo` lies.
    front: Spot,
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
        let (b, at) = self.front;
        let blocks = self.keys.blocks();
        KeyIter {
            run: *self,
            bytes: &blocks[b].bytes,
            ends: &blocks[b].ends,
            at,
            rest: &blocks[b + 1..],
        }
    }
}

/// Iterator over a [`KeySlice`]: block by block from the front, by
/// position from the back.
#[derive(Debug, Clone)]
pub struct KeyIter<'a> {
    /// What is left to yield.
    run: KeySlice<'a>,
    /// The arena and key ends of the block the front lies in.
    bytes: &'a [u8],
    ends: &'a [u32],
    /// The front's offset in that block.
    at: usize,
    /// The blocks after it.
    rest: &'a [Block],
}

impl<'a> Iterator for KeyIter<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.run.is_empty() {
            return None;
        }
        if self.at == self.ends.len() {
            let (block, rest) = self.rest.split_first()?;
            (self.bytes, self.ends, self.at, self.rest) = (&block.bytes, &block.ends, 0, rest);
        }
        let start = match self.at {
            0 => 0,
            at => self.ends[at - 1] as usize,
        };
        let key = &self.bytes[start..self.ends[self.at] as usize];
        self.at += 1;
        self.run.lo += 1;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.run.len(), Some(self.run.len()))
    }
}

impl DoubleEndedIterator for KeyIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let key = self.run.last()?;
        self.run.hi -= 1;
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
            s.push_ordered(&flat(p));
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
            s.push_ordered(&flat(&[i / 10, i % 10]));
        }
        let r = KeyRange::subtree(&key(&[2]));
        let items: Vec<_> = s.iter_in(&r).collect();
        assert_eq!(items.len() as u64, s.count_in(&r));
        assert_eq!(items.len(), 10);
    }

    #[test]
    fn insert_and_remove_keep_order() {
        let mut s = SortedKeys::default();
        s.push_ordered(&flat(&[0]));
        s.push_ordered(&flat(&[2]));
        s.insert(&flat(&[1]));
        let keys: Vec<_> = s.iter().map(|k| k.to_vec()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(s.remove(&flat(&[1])));
        assert!(!s.remove(&flat(&[1])));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn a_list_splits_past_one_block_and_shrinks_back() {
        let keys: Vec<Vec<u8>> = (0..2 * BLOCK_KEYS as u64).map(|i| flat(&[i])).collect();
        let evens = || keys.iter().step_by(2);
        let mut s = SortedKeys::default();
        for key in evens() {
            s.push_ordered(key);
        }
        assert!(matches!(s.layout, Layout::One(_)));
        // A full block splits when a key goes into it, then takes more.
        for key in keys.iter().skip(1).step_by(2) {
            s.insert(key);
        }
        assert!(matches!(s.layout, Layout::Many(_)));
        assert!(s.iter().eq(keys.iter().map(Vec::as_slice)));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!((s.get(i), s.lower_bound(key)), (&key[..], i));
        }
        // Emptied blocks go; the last one left is the whole list again.
        let (gone, kept) = keys.split_at(keys.len() - 3);
        for key in evens()
            .filter(|k| gone.contains(k))
            .chain(gone.iter().skip(1).step_by(2))
        {
            assert!(s.remove(key));
        }
        assert!(matches!(s.layout, Layout::One(_)), "one block left");
        assert!(s.iter().eq(kept.iter().map(Vec::as_slice)));
        // Pushed in order, a list grows block by block.
        let mut p = SortedKeys::default();
        for key in &keys {
            p.push_ordered(key);
        }
        let Layout::Many(dir) = &p.layout else {
            panic!("two blocks")
        };
        assert_eq!(dir.before, [0, BLOCK_KEYS, 2 * BLOCK_KEYS]);
    }

    #[test]
    fn a_short_list_is_two_vectors() {
        // The directory's variant hides in the block's niche, so a list
        // of one block (most value lists) is no larger than its arena.
        let vec = std::mem::size_of::<Vec<u8>>();
        assert_eq!(std::mem::size_of::<SortedKeys>(), 2 * vec);
    }

    #[test]
    fn duplicate_insert_ignored() {
        let mut s = SortedKeys::default();
        s.insert(&flat(&[3]));
        s.insert(&flat(&[3]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn finger_probes_agree_with_plain_ones() {
        let mut s = SortedKeys::default();
        for i in 0..40 {
            s.push_ordered(&flat(&[i / 8, 2 * (i % 8)]));
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
        idx.elements_mut(name).push_ordered(&flat(&[0]));
        idx.attributes_mut(name).push_ordered(&flat(&[0, 0]));
        assert_eq!(idx.elements(name).len(), 1);
        assert_eq!(idx.attributes(name).len(), 1);
        // Unknown names resolve to the empty list, not a panic.
        assert_eq!(idx.elements(NameId(99)).len(), 0);
    }

    #[test]
    fn kind_lists_are_independent() {
        let mut idx = NameIndex::new();
        idx.text_mut().push_ordered(&flat(&[0, 0]));
        idx.comments_mut().push_ordered(&flat(&[0, 1]));
        idx.pis_mut().push_ordered(&flat(&[0, 2]));
        assert_eq!(idx.text().len(), 1);
        assert_eq!(idx.comments().len(), 1);
        assert_eq!(idx.pis().len(), 1);
    }
}
