//! The [`FlexKey`] type: a flattened, order-preserving structural key.

use crate::component::{label_between, LabelError};
use std::fmt;

/// The longest flat key kept inline.
const INLINE_MAX: usize = 23;

/// Keys up to [`INLINE_MAX`] bytes live inline — XMark-depth keys never
/// touch the heap on the execution hot path.
///
/// The inline form is its own `Copy` struct aligned to 8, so cloning a key
/// is three word moves. Do not fold it back into a bare `{ len: u8, buf:
/// [u8; 23] }` variant: that layout sits at byte offset 1, its clone is an
/// unaligned byte-array move, and copying a kept Q1 answer measured
/// 17.5–19.9 ns a row that way against 2.6–3.1 ns aligned
/// (`kept_answer/clone_q1` in the `queries` bench; EXPERIMENTS.md, "Where
/// `embed_point`'s time goes"). Every batch, operator hand-off and kept
/// answer copies keys.
#[derive(Clone)]
enum Repr {
    Inline(Inline),
    Heap(Vec<u8>),
}

#[derive(Clone, Copy)]
#[repr(C, align(8))]
struct Inline {
    len: u8,
    buf: [u8; INLINE_MAX],
}

impl Inline {
    /// `flat` copied in; the caller checks that it fits.
    #[inline]
    fn new(flat: &[u8]) -> Inline {
        let mut inline = Inline {
            len: flat.len() as u8,
            buf: [0; INLINE_MAX],
        };
        inline.buf[..flat.len()].copy_from_slice(flat);
        inline
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// A FLEX key identifying one node of one document.
///
/// Internally the key is stored in its *flat encoding*: each level's label
/// followed by a `0x00` terminator, inline for keys up to 23 bytes and on
/// the heap beyond. The document node is the empty key. `Ord` on
/// `FlexKey` is document order (ancestors first).
#[derive(Clone)]
pub struct FlexKey {
    repr: Repr,
}

impl Default for FlexKey {
    fn default() -> Self {
        FlexKey::root()
    }
}

impl PartialEq for FlexKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_flat() == other.as_flat()
    }
}

impl Eq for FlexKey {}

impl PartialOrd for FlexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FlexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_flat().cmp(other.as_flat())
    }
}

impl std::hash::Hash for FlexKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_flat().hash(state);
    }
}

impl FlexKey {
    /// Rebuilds a key from a borrowed flat encoding (an index posting, a
    /// page image): keys up to 23 bytes are copied inline and allocate
    /// nothing. Well-formedness is the caller's, as for
    /// [`FlexKey::from_flat`].
    #[inline] // once per tuple a scan produces, from another crate
    pub fn from_flat_slice(flat: &[u8]) -> Self {
        debug_assert!(
            flat.is_empty() || flat.last() == Some(&0),
            "flat key must end in terminator"
        );
        let repr = if flat.len() <= INLINE_MAX {
            Repr::Inline(Inline::new(flat))
        } else {
            Repr::Heap(flat.to_vec())
        };
        FlexKey { repr }
    }

    /// The key of the document node: the empty key, ancestor of everything.
    pub fn root() -> Self {
        FlexKey {
            repr: Repr::Inline(Inline::new(&[])),
        }
    }

    /// Rebuilds a key from its flat encoding.
    ///
    /// The bytes must be a well-formed flat key (labels over `1..=255`,
    /// each followed by `0x00`); this is checked in debug builds only.
    pub fn from_flat(flat: Vec<u8>) -> Self {
        debug_assert!(
            flat.is_empty() || flat.last() == Some(&0),
            "flat key must end in terminator"
        );
        if flat.len() <= INLINE_MAX {
            Self::from_flat_slice(&flat)
        } else {
            FlexKey {
                repr: Repr::Heap(flat),
            }
        }
    }

    /// True when `flat` is a well-formed flat key: a sequence of
    /// non-empty labels over `1..=255`, each terminated by `0x00`.
    pub fn is_valid_flat(flat: &[u8]) -> bool {
        Self::is_valid_flat_tail(false, flat)
    }

    /// True when `tail` completes a well-formed flat key, given whether
    /// the (already validated) bytes before it stop inside a label. A
    /// front-coded key shares its head with a key that was checked when
    /// it was rebuilt, so only its suffix needs this walk.
    pub fn is_valid_flat_tail(mut in_label: bool, tail: &[u8]) -> bool {
        for &b in tail {
            if b == 0 {
                if !in_label {
                    return false; // empty label
                }
                in_label = false;
            } else {
                in_label = true;
            }
        }
        !in_label // must end on a terminator (or be empty)
    }

    /// The flat encoding (label bytes with `0x00` terminators).
    #[inline]
    pub fn as_flat(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline(inline) => inline.as_slice(),
            Repr::Heap(v) => v,
        }
    }

    /// Consumes the key, returning the flat encoding.
    pub fn into_flat(self) -> Vec<u8> {
        match self.repr {
            Repr::Inline(inline) => inline.as_slice().to_vec(),
            Repr::Heap(v) => v,
        }
    }

    /// Number of levels (labels). The document node has level 0, the root
    /// element level 1.
    pub fn level(&self) -> usize {
        flat_level(self.as_flat())
    }

    /// True for the document node.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.as_flat().is_empty()
    }

    /// Returns the key extended by one child label.
    pub fn child(&self, label: &[u8]) -> FlexKey {
        debug_assert!(!label.is_empty() && !label.contains(&0));
        let me = self.as_flat();
        let total = me.len() + label.len() + 1;
        if total <= INLINE_MAX {
            let mut inline = Inline::new(me);
            inline.buf[me.len()..total - 1].copy_from_slice(label);
            // terminator byte is already 0
            inline.len = total as u8;
            return FlexKey {
                repr: Repr::Inline(inline),
            };
        }
        let mut flat = Vec::with_capacity(total);
        flat.extend_from_slice(me);
        flat.extend_from_slice(label);
        flat.push(0);
        FlexKey {
            repr: Repr::Heap(flat),
        }
    }

    /// Parent key, or `None` for the document node.
    pub fn parent(&self) -> Option<FlexKey> {
        flat_parent(self.as_flat()).map(Self::from_flat_slice)
    }

    /// The last label of the key (its position among siblings), or `None`
    /// for the document node.
    pub fn last_label(&self) -> Option<&[u8]> {
        let flat = self.as_flat();
        let cut = flat_parent(flat)?.len();
        Some(&flat[cut..flat.len() - 1])
    }

    /// Ancestor key `n` levels up (`ancestor(0)` is the key itself).
    pub fn ancestor(&self, n: usize) -> Option<FlexKey> {
        let mut k = self.clone();
        for _ in 0..n {
            k = k.parent()?;
        }
        Some(k)
    }

    /// True if `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &FlexKey) -> bool {
        flat_is_ancestor(self.as_flat(), other.as_flat())
    }

    /// True if `self` is `other` or an ancestor of it.
    pub fn is_ancestor_or_self_of(&self, other: &FlexKey) -> bool {
        other.as_flat().starts_with(self.as_flat())
    }

    /// True if `self` is the parent of `other`.
    pub fn is_parent_of(&self, other: &FlexKey) -> bool {
        self.is_ancestor_of(other) && other.level() == self.level() + 1
    }

    /// True if both keys share a parent (the document node counts).
    pub fn is_sibling_of(&self, other: &FlexKey) -> bool {
        !self.is_root() && !other.is_root() && self.parent() == other.parent()
    }

    /// Iterator over the labels of the key, outermost first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        LabelIter {
            rest: self.as_flat(),
        }
    }

    /// The exclusive upper bound of this key's subtree in flat encoding:
    /// the smallest flat key greater than every descendant-or-self key.
    ///
    /// All descendants of `k` have `k`'s flat bytes as a strict prefix, so
    /// bumping the final terminator from `0x00` to `0x01` yields the
    /// tightest exclusive bound. For the document node this is `None`
    /// (every key is a descendant).
    pub fn subtree_upper(&self) -> Option<Vec<u8>> {
        let flat = self.as_flat();
        if flat.is_empty() {
            return None;
        }
        let mut upper = flat.to_vec();
        *upper.last_mut().expect("non-empty") = 1;
        Some(upper)
    }

    /// Key for a new node inserted between two existing siblings.
    pub fn between_siblings(lo: &FlexKey, hi: &FlexKey) -> Result<FlexKey, LabelError> {
        let parent = lo.parent().ok_or(LabelError::NotBetween)?;
        if hi.parent().as_ref() != Some(&parent) {
            return Err(LabelError::NotBetween);
        }
        let label = label_between(
            lo.last_label().ok_or(LabelError::NotBetween)?,
            hi.last_label().ok_or(LabelError::NotBetween)?,
        )?;
        Ok(parent.child(&label))
    }
}

/// [`FlexKey::is_ancestor_of`] on flat encodings, for keys read in place
/// (a page, an index posting): a descendant's key strictly extends its
/// ancestor's.
#[inline]
pub fn flat_is_ancestor(ancestor: &[u8], descendant: &[u8]) -> bool {
    descendant.len() > ancestor.len() && descendant.starts_with(ancestor)
}

/// [`FlexKey::parent`] on a flat encoding, borrowed: the key with its final
/// label dropped — a prefix of it — or `None` for the document node.
#[inline]
pub fn flat_parent(flat: &[u8]) -> Option<&[u8]> {
    let (_, head) = flat.split_last()?;
    let cut = head.iter().rposition(|&b| b == 0).map_or(0, |p| p + 1);
    Some(&flat[..cut])
}

/// [`FlexKey::level`] on a flat encoding: every label ends in one zero
/// byte and holds no other.
#[inline]
pub fn flat_level(flat: &[u8]) -> usize {
    flat.iter().filter(|&&b| b == 0).count()
}

struct LabelIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let end = self
            .rest
            .iter()
            .position(|&b| b == 0)
            .expect("terminated label");
        let label = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        Some(label)
    }
}

/// Renders a key in the paper's dotted style: single in-range bytes map to
/// letters (`0x40` → `a`), everything else to hex.
fn fmt_key(key: &FlexKey, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if key.is_root() {
        return write!(f, "(/)");
    }
    let mut first = true;
    for label in key.labels() {
        if !first {
            write!(f, ".")?;
        }
        first = false;
        if label.len() == 1 && (0x40..0x5A).contains(&label[0]) {
            write!(f, "{}", (b'a' + (label[0] - 0x40)) as char)?;
        } else {
            for b in label {
                write!(f, "{b:02x}")?;
            }
        }
    }
    Ok(())
}

impl fmt::Debug for FlexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_key(self, f)
    }
}

impl fmt::Display for FlexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_key(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{attr_label, seq_label};
    use proptest::prelude::*;

    fn key(path: &[u64]) -> FlexKey {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k
    }

    #[test]
    fn document_order_matches_preorder() {
        // site > person(0) > name, email ; person(1)
        let site = key(&[0]);
        let p0 = key(&[0, 0]);
        let name = key(&[0, 0, 0]);
        let email = key(&[0, 0, 1]);
        let p1 = key(&[0, 1]);
        let mut keys = vec![
            p1.clone(),
            email.clone(),
            site.clone(),
            name.clone(),
            p0.clone(),
        ];
        keys.sort();
        assert_eq!(keys, vec![site, p0, name, email, p1]);
    }

    #[test]
    fn root_is_before_everything() {
        assert!(FlexKey::root() < key(&[0]));
        assert!(FlexKey::root().is_ancestor_of(&key(&[5, 3])));
    }

    #[test]
    fn parent_round_trip() {
        let k = key(&[3, 1, 4, 1]);
        assert_eq!(k.parent().unwrap(), key(&[3, 1, 4]));
        assert_eq!(k.parent().unwrap().parent().unwrap(), key(&[3, 1]));
        assert_eq!(key(&[0]).parent().unwrap(), FlexKey::root());
        assert_eq!(FlexKey::root().parent(), None);
    }

    #[test]
    fn level_counts_labels() {
        assert_eq!(FlexKey::root().level(), 0);
        assert_eq!(key(&[0]).level(), 1);
        assert_eq!(key(&[0, 100, 2]).level(), 3);
    }

    #[test]
    fn ancestry_predicates() {
        let a = key(&[0, 1]);
        let d = key(&[0, 1, 2, 3]);
        assert!(a.is_ancestor_of(&d));
        assert!(!d.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(a.is_ancestor_or_self_of(&a));
        assert!(a.is_parent_of(&key(&[0, 1, 7])));
        assert!(!a.is_parent_of(&d));
    }

    #[test]
    fn sibling_predicate() {
        assert!(key(&[0, 1]).is_sibling_of(&key(&[0, 9])));
        assert!(!key(&[0, 1]).is_sibling_of(&key(&[1, 1])));
        assert!(!FlexKey::root().is_sibling_of(&key(&[0])));
    }

    #[test]
    fn subtree_upper_bounds_subtree_tightly() {
        let k = key(&[0, 1]);
        let upper = k.subtree_upper().unwrap();
        // Every descendant sorts below the bound...
        assert!(key(&[0, 1, 0]).as_flat() < upper.as_slice());
        assert!(key(&[0, 1, 999]).as_flat() < upper.as_slice());
        assert!(key(&[0, 1, 5, 5, 5]).as_flat() < upper.as_slice());
        // ...and the following node sorts at/above it.
        assert!(key(&[0, 2]).as_flat() >= upper.as_slice());
        // The bound is tight: no flat key fits between the last descendant
        // pattern and it.
        assert!(k.as_flat() < upper.as_slice());
        assert_eq!(FlexKey::root().subtree_upper(), None);
    }

    #[test]
    fn attribute_keys_sort_before_children() {
        let elem = key(&[0, 4]);
        let attr = elem.child(&attr_label(0));
        let child = elem.child(&seq_label(0));
        assert!(elem < attr);
        assert!(attr < child);
        assert!(attr.as_flat() < elem.subtree_upper().unwrap().as_slice());
    }

    #[test]
    fn labels_iterator_round_trips() {
        let k = key(&[3, 64, 70000]);
        let labels: Vec<Vec<u8>> = k.labels().map(|l| l.to_vec()).collect();
        assert_eq!(labels.len(), 3);
        let mut rebuilt = FlexKey::root();
        for l in &labels {
            rebuilt = rebuilt.child(l);
        }
        assert_eq!(rebuilt, k);
    }

    #[test]
    fn between_siblings_inserts_in_order() {
        let lo = key(&[0, 3]);
        let hi = key(&[0, 4]);
        let mid = FlexKey::between_siblings(&lo, &hi).unwrap();
        assert!(lo < mid && mid < hi);
        assert_eq!(mid.parent(), lo.parent());
        // And the inserted node's subtree stays between them too.
        let mid_child = mid.child(&seq_label(0));
        assert!(lo < mid_child && mid_child < hi);
    }

    #[test]
    fn between_siblings_rejects_non_siblings() {
        assert!(FlexKey::between_siblings(&key(&[0, 1]), &key(&[1, 0])).is_err());
        assert!(FlexKey::between_siblings(&FlexKey::root(), &key(&[0])).is_err());
    }

    #[test]
    fn display_uses_dotted_letters() {
        let k = key(&[0, 3, 24]);
        assert_eq!(format!("{k}"), "a.d.y");
        assert_eq!(format!("{}", FlexKey::root()), "(/)");
    }

    #[test]
    fn from_flat_round_trip() {
        let k = key(&[1, 2, 3]);
        let flat = k.as_flat().to_vec();
        assert_eq!(FlexKey::from_flat(flat), k);
    }

    #[test]
    fn last_label_matches_allocation() {
        let k = key(&[7, 9]);
        assert_eq!(k.last_label().unwrap(), seq_label(9).as_slice());
        assert_eq!(FlexKey::root().last_label(), None);
    }

    #[test]
    fn key_is_four_aligned_words() {
        assert_eq!(std::mem::size_of::<FlexKey>(), 32);
        assert_eq!(std::mem::align_of::<FlexKey>(), 8);
    }

    fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
    }

    /// Labels of 1–3 bytes from few ordinals, so keys share prefixes.
    fn label_strategy() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![0u64..4, 63u64..67, 16_065u64..16_069].prop_map(seq_label)
    }

    proptest! {
        /// Keys built level by level up to 14 labels deep (flat lengths 0
        /// to 56, across the 23-byte inline limit) agree with their flat
        /// bytes as a plain `Vec<u8>` at every level.
        #[test]
        fn prop_key_agrees_with_flat_model_across_inline_limit(
            a in proptest::collection::vec(label_strategy(), 0..15),
            shared in 0usize..15,
            tail in proptest::collection::vec(label_strategy(), 0..15),
        ) {
            let b: Vec<Vec<u8>> = a[..shared.min(a.len())].iter().chain(&tail).cloned().collect();
            let mut models: [Vec<Vec<u8>>; 2] = Default::default();
            for (path, out) in [&a, &b].into_iter().zip(&mut models) {
                let (mut key, mut model) = (FlexKey::root(), Vec::new());
                for label in path {
                    // `key` matched the model one level up.
                    let child = key.child(label);
                    model.extend_from_slice(label);
                    model.push(0);
                    prop_assert_eq!(child.as_flat(), model.as_slice());
                    prop_assert_eq!(child.parent(), Some(key.clone()));
                    key = child;
                    let copy = key.clone();
                    prop_assert_eq!(copy.as_flat(), model.as_slice());
                    prop_assert!(copy == key);
                    prop_assert_eq!(hash_of(&key), hash_of(&model));
                    prop_assert_eq!(FlexKey::from_flat(model.clone()), key.clone());
                    prop_assert_eq!(FlexKey::from_flat_slice(&model), key.clone());
                    prop_assert_eq!(copy.into_flat(), model.clone());
                    out.push(model.clone());
                }
            }
            let flats: Vec<&Vec<u8>> = models.iter().flatten().collect();
            for x in &flats {
                for y in &flats {
                    let (kx, ky) = (FlexKey::from_flat_slice(x), FlexKey::from_flat_slice(y));
                    prop_assert_eq!(kx.cmp(&ky), x.cmp(y));
                    prop_assert_eq!(kx == ky, x == y);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_order_isomorphic_to_path_order(
            a in proptest::collection::vec(0u64..500, 1..6),
            b in proptest::collection::vec(0u64..500, 1..6),
        ) {
            // Pre-order on paths: lexicographic with prefix-first.
            let ka = key(&a);
            let kb = key(&b);
            let path_cmp = a.cmp(&b);
            prop_assert_eq!(ka.cmp(&kb), path_cmp);
        }

        #[test]
        fn prop_parent_of_child_is_identity(
            path in proptest::collection::vec(0u64..100_000, 0..5),
            label in 0u64..100_000,
        ) {
            let k = key(&path);
            let c = k.child(&seq_label(label));
            prop_assert_eq!(c.parent().unwrap(), k.clone());
            prop_assert!(k.is_parent_of(&c));
            prop_assert_eq!(c.level(), k.level() + 1);
            prop_assert_eq!(flat_level(k.as_flat()), k.level());
        }

        #[test]
        fn prop_subtree_upper_separates(
            path in proptest::collection::vec(0u64..1000, 1..5),
            tail in proptest::collection::vec(0u64..1000, 0..4),
            sib in 0u64..1000,
        ) {
            let k = key(&path);
            let upper = k.subtree_upper().unwrap();
            // A descendant built from any tail is below the bound.
            let mut d = k.clone();
            for &t in &tail { d = d.child(&seq_label(t)); }
            prop_assert!(d.as_flat() < upper.as_slice() || tail.is_empty());
            // A following sibling of any ancestor level is at/above it.
            if let Some(p) = k.parent() {
                let last = path[path.len() - 1];
                let next = p.child(&seq_label(last + 1 + sib));
                prop_assert!(next.as_flat() >= upper.as_slice());
            }
        }
    }
}
