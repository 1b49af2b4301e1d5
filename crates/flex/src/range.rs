//! Flat-key scan ranges for the XPath axes.
//!
//! MASS evaluates axes as bounded scans over the clustered (document-order)
//! index. [`KeyRange`] captures one such scan: a half-open interval over
//! flat key encodings. The constructors here turn a context key into the
//! tightest interval that *contains* the axis result; kind/level filtering
//! (e.g. excluding attribute nodes from `child`) happens in the cursor.

use crate::key::FlexKey;

/// A half-open interval `[lo, hi)` over flat key encodings.
/// `hi == None` means unbounded above (to the end of the document index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound (flat encoding).
    pub lo: Vec<u8>,
    /// Exclusive upper bound, or `None` for "end of index".
    pub hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// The full index: every node of every document.
    pub fn all() -> Self {
        KeyRange {
            lo: Vec::new(),
            hi: None,
        }
    }

    /// An empty range.
    pub fn empty() -> Self {
        KeyRange {
            lo: vec![0],
            hi: Some(vec![0]),
        }
    }

    /// True if `flat` falls inside the range.
    pub fn contains(&self, flat: &[u8]) -> bool {
        flat >= self.lo.as_slice() && self.hi.as_ref().is_none_or(|h| flat < h.as_slice())
    }

    /// True if the range can match nothing.
    pub fn is_empty(&self) -> bool {
        self.hi
            .as_ref()
            .is_some_and(|h| h.as_slice() <= self.lo.as_slice())
    }

    /// Descendant-or-self of `ctx`: the whole subtree including `ctx`.
    pub fn subtree(ctx: &FlexKey) -> Self {
        KeyRange {
            lo: ctx.as_flat().to_vec(),
            hi: ctx.subtree_upper(),
        }
    }

    /// Strict descendants of `ctx` (subtree minus the context itself).
    ///
    /// The smallest flat key greater than `ctx` but still inside the
    /// subtree is `ctx`'s flat bytes followed by anything; since labels
    /// start at byte `0x01`, `flat ++ [0x01]` is a safe inclusive lower
    /// bound below every real child (whose label terminator follows).
    pub fn descendants(ctx: &FlexKey) -> Self {
        let mut lo = ctx.as_flat().to_vec();
        lo.push(1);
        KeyRange {
            lo,
            hi: ctx.subtree_upper(),
        }
    }

    /// Makes `self` [`KeyRange::subtree`] of `ctx` in place, reusing both
    /// bound buffers — a cursor opening one range per context tuple
    /// allocates nothing after the first.
    pub fn set_subtree(&mut self, ctx: &FlexKey) {
        let flat = ctx.as_flat();
        self.lo.clear();
        self.lo.extend_from_slice(flat);
        match flat.split_last() {
            // The document node: every key is a descendant.
            None => self.hi = None,
            Some((_, stem)) => {
                let hi = self.hi.get_or_insert_with(Vec::new);
                hi.clear();
                hi.extend_from_slice(stem);
                hi.push(1);
            }
        }
    }

    /// Makes `self` [`KeyRange::descendants`] of `ctx` in place (see
    /// [`KeyRange::set_subtree`]).
    pub fn set_descendants(&mut self, ctx: &FlexKey) {
        self.set_subtree(ctx);
        self.lo.push(1);
    }

    /// Everything after `ctx`'s subtree in document order — the
    /// `following` axis (descendants excluded by construction; ancestors
    /// sort before `ctx` so they are excluded too).
    pub fn following(ctx: &FlexKey) -> Self {
        match ctx.subtree_upper() {
            Some(upper) => KeyRange {
                lo: upper,
                hi: None,
            },
            None => KeyRange::empty(), // document node: nothing follows
        }
    }

    /// Everything strictly before `ctx` in document order. This
    /// *over-approximates* the `preceding` axis: ancestors of `ctx` fall in
    /// the interval and must be filtered by the cursor.
    pub fn before(ctx: &FlexKey) -> Self {
        KeyRange {
            lo: Vec::new(),
            hi: Some(ctx.as_flat().to_vec()),
        }
    }

    /// Following siblings of `ctx`: from the end of `ctx`'s subtree to the
    /// end of the parent's subtree. Deeper nodes (nephews) fall inside and
    /// are skipped by the cursor's sibling-jump.
    pub fn following_siblings(ctx: &FlexKey) -> Self {
        let Some(parent) = ctx.parent() else {
            return KeyRange::empty();
        };
        match ctx.subtree_upper() {
            Some(upper) => KeyRange {
                lo: upper,
                hi: if parent.is_root() {
                    None
                } else {
                    parent.subtree_upper()
                },
            },
            None => KeyRange::empty(),
        }
    }

    /// Preceding siblings of `ctx` (over-approximate: contains their
    /// subtrees; the cursor jumps sibling-to-sibling).
    pub fn preceding_siblings(ctx: &FlexKey) -> Self {
        let Some(parent) = ctx.parent() else {
            return KeyRange::empty();
        };
        let mut lo = parent.as_flat().to_vec();
        lo.push(1);
        KeyRange {
            lo,
            hi: Some(ctx.as_flat().to_vec()),
        }
    }

    /// Splits the range into up to `n` contiguous, disjoint sub-ranges
    /// whose concatenation covers it exactly — the key-space proposal
    /// behind morsel-parallel scans. Returns `vec![self]` for `n <= 1`,
    /// empty ranges, and ranges unbounded above (those are partitioned
    /// from the pager's index instead, which knows where the data ends).
    ///
    /// Cut points are synthesized by interpolating between the bounds
    /// viewed as base-256 fractions, so they need not be (and usually are
    /// not) valid flat keys — they are only comparison bounds. Every
    /// interior cut is strictly inside `(lo, hi)`; adjacent sub-ranges
    /// share their boundary (`parts[i].hi == parts[i+1].lo`), the first
    /// starts at `self.lo` and the last ends at `self.hi`, so any key in
    /// the range falls in exactly one part. Fewer than `n` parts come
    /// back when the bounds are too close to fit `n - 1` distinct cuts.
    ///
    /// Even key-space cuts are *not* even data cuts: flat keys cluster
    /// near the low end of the byte space (labels are dense small
    /// values), so callers that care about balance refine the proposal
    /// against the actual key distribution (see
    /// `MassStore::partition_range` in `vamana-mass`).
    pub fn split_even(&self, n: usize) -> Vec<KeyRange> {
        if n <= 1 || self.is_empty() {
            return vec![self.clone()];
        }
        let Some(hi) = self.hi.clone() else {
            return vec![self.clone()];
        };
        let mut cuts: Vec<Vec<u8>> = (1..n)
            .filter_map(|k| interpolate(&self.lo, &hi, k as u64, n as u64))
            .collect();
        cuts.dedup();
        let mut parts = Vec::with_capacity(n);
        let mut lo = self.lo.clone();
        for cut in cuts {
            if cut.as_slice() <= lo.as_slice() || cut.as_slice() >= hi.as_slice() {
                continue;
            }
            parts.push(KeyRange {
                lo: std::mem::replace(&mut lo, cut.clone()),
                hi: Some(cut),
            });
        }
        parts.push(KeyRange { lo, hi: Some(hi) });
        parts
    }

    /// Intersects two ranges.
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        let lo = if self.lo >= other.lo {
            self.lo.clone()
        } else {
            other.lo.clone()
        };
        let hi = match (&self.hi, &other.hi) {
            (None, None) => None,
            (Some(h), None) | (None, Some(h)) => Some(h.clone()),
            (Some(a), Some(b)) => Some(if a <= b { a.clone() } else { b.clone() }),
        };
        KeyRange { lo, hi }
    }
}

/// The point `lo + (hi - lo) * k / n`, with both byte strings read as
/// base-256 fractions in `[0, 1)` (digit `i` has weight `256^-(i+1)`;
/// absent digits are zero, matching lexicographic order on byte
/// strings). Returns `None` when `hi <= lo` as fractions or when the
/// result collapses onto `lo` (bounds too close for this precision).
///
/// Two extra digits beyond the longer bound keep the quotient exact
/// enough that `n` up to a few hundred still yields distinct cuts for
/// any bounds differing in their common-length prefix.
fn interpolate(lo: &[u8], hi: &[u8], k: u64, n: u64) -> Option<Vec<u8>> {
    debug_assert!(0 < k && k < n);
    let len = lo.len().max(hi.len()) + 2;
    let digit = |s: &[u8], i: usize| *s.get(i).unwrap_or(&0) as i64;
    // diff = hi - lo (schoolbook subtraction, right to left).
    let mut diff = vec![0u64; len];
    let mut borrow = 0i64;
    for i in (0..len).rev() {
        let mut d = digit(hi, i) - digit(lo, i) - borrow;
        borrow = if d < 0 {
            d += 256;
            1
        } else {
            0
        };
        diff[i] = d as u64;
    }
    if borrow != 0 {
        return None; // hi <= lo as fractions
    }
    // prod = diff * k; the carry off the top is the integer part, which
    // is < k < n because diff < 1.
    let mut carry = 0u64;
    for d in diff.iter_mut().rev() {
        let v = *d * k + carry;
        *d = v % 256;
        carry = v / 256;
    }
    // quot = prod / n by long division, left to right. Each digit is
    // < 256 because the running remainder stays < n.
    let mut rem = carry;
    let mut quot = vec![0u8; len];
    for (q, d) in quot.iter_mut().zip(diff.iter()) {
        let cur = rem * 256 + d;
        *q = (cur / n) as u8;
        rem = cur % n;
    }
    // cut = lo + quot (schoolbook addition). Cannot carry past the
    // integer point: lo + (hi - lo) * k / n < hi < 1.
    let mut cut = vec![0u8; len];
    let mut carry = 0i64;
    for i in (0..len).rev() {
        let v = digit(lo, i) + quot[i] as i64 + carry;
        cut[i] = (v % 256) as u8;
        carry = v / 256;
    }
    if carry != 0 {
        return None;
    }
    // Trailing zero digits don't change the fraction's value but do
    // affect lexicographic comparison ("x" < "x\0"); trim to canonical
    // form so a cut that rounded down to `lo` compares equal to it (and
    // is then discarded by the caller).
    while cut.last() == Some(&0) {
        cut.pop();
    }
    if cut.as_slice() <= lo {
        None
    } else {
        Some(cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::seq_label;
    use proptest::prelude::*;

    fn key(path: &[u64]) -> FlexKey {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k
    }

    #[test]
    fn subtree_contains_self_and_descendants() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::subtree(&ctx);
        assert!(r.contains(ctx.as_flat()));
        assert!(r.contains(key(&[0, 1, 5]).as_flat()));
        assert!(!r.contains(key(&[0, 2]).as_flat()));
        assert!(!r.contains(key(&[0]).as_flat()));
    }

    #[test]
    fn descendants_excludes_self() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::descendants(&ctx);
        assert!(!r.contains(ctx.as_flat()));
        assert!(r.contains(key(&[0, 1, 0]).as_flat()));
        assert!(r.contains(key(&[0, 1, 0, 0]).as_flat()));
        assert!(!r.contains(key(&[0, 2]).as_flat()));
    }

    #[test]
    fn descendants_of_root_is_everything_but_root() {
        let r = KeyRange::descendants(&FlexKey::root());
        assert!(!r.contains(FlexKey::root().as_flat()));
        assert!(r.contains(key(&[0]).as_flat()));
        assert!(r.contains(key(&[500, 3]).as_flat()));
        assert_eq!(r.hi, None);
    }

    #[test]
    fn in_place_setters_equal_the_constructors() {
        let mut r = KeyRange::all();
        for path in [&[0u64, 1][..], &[], &[7], &[0, 1, 300, 2], &[]] {
            let ctx = key(path);
            r.set_subtree(&ctx);
            assert_eq!(r, KeyRange::subtree(&ctx), "{path:?}");
            r.set_descendants(&ctx);
            assert_eq!(r, KeyRange::descendants(&ctx), "{path:?}");
        }
    }

    #[test]
    fn following_skips_subtree_and_ancestors() {
        let ctx = key(&[1, 1]);
        let r = KeyRange::following(&ctx);
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[1, 1, 9]).as_flat())); // descendant
        assert!(!r.contains(key(&[1]).as_flat())); // ancestor
        assert!(!r.contains(key(&[0, 5]).as_flat())); // preceding
        assert!(r.contains(key(&[1, 2]).as_flat())); // following sibling
        assert!(r.contains(key(&[2]).as_flat())); // parent's sibling
        assert!(r.contains(key(&[1, 2, 0]).as_flat()));
    }

    #[test]
    fn following_of_document_node_is_empty() {
        assert!(KeyRange::following(&FlexKey::root()).is_empty());
    }

    #[test]
    fn before_contains_ancestors_which_cursor_filters() {
        let ctx = key(&[1, 1]);
        let r = KeyRange::before(&ctx);
        assert!(r.contains(key(&[1]).as_flat())); // ancestor — over-approx
        assert!(r.contains(key(&[0, 9]).as_flat())); // true preceding
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[1, 2]).as_flat()));
    }

    #[test]
    fn following_siblings_bounded_by_parent() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::following_siblings(&ctx);
        assert!(r.contains(key(&[0, 2]).as_flat()));
        assert!(r.contains(key(&[0, 2, 5]).as_flat())); // nephew, cursor skips
        assert!(!r.contains(key(&[1]).as_flat())); // parent's sibling
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[0, 0]).as_flat()));
    }

    #[test]
    fn following_siblings_of_top_level_unbounded() {
        // Children of the document node: range extends to end of index.
        let r = KeyRange::following_siblings(&key(&[0]));
        assert_eq!(r.hi, None);
        assert!(r.contains(key(&[3]).as_flat()));
    }

    #[test]
    fn preceding_siblings_bounded_by_self() {
        let ctx = key(&[0, 2]);
        let r = KeyRange::preceding_siblings(&ctx);
        assert!(r.contains(key(&[0, 0]).as_flat()));
        assert!(r.contains(key(&[0, 1]).as_flat()));
        assert!(r.contains(key(&[0, 1, 4]).as_flat())); // nephew, cursor skips
        assert!(!r.contains(key(&[0]).as_flat())); // parent
        assert!(!r.contains(ctx.as_flat()));
    }

    #[test]
    fn sibling_ranges_of_document_node_are_empty() {
        assert!(KeyRange::following_siblings(&FlexKey::root()).is_empty());
        assert!(KeyRange::preceding_siblings(&FlexKey::root()).is_empty());
    }

    #[test]
    fn intersect_narrows() {
        let a = KeyRange::subtree(&key(&[0]));
        let b = KeyRange::following(&key(&[0, 1]));
        let i = a.intersect(&b);
        assert!(i.contains(key(&[0, 2]).as_flat()));
        assert!(!i.contains(key(&[1]).as_flat())); // outside a
        assert!(!i.contains(key(&[0, 0]).as_flat())); // outside b
    }

    #[test]
    fn all_and_empty() {
        assert!(KeyRange::all().contains(key(&[9, 9]).as_flat()));
        assert!(KeyRange::all().contains(FlexKey::root().as_flat()));
        assert!(KeyRange::empty().is_empty());
        assert!(!KeyRange::all().is_empty());
    }

    #[test]
    fn split_even_degenerate_cases() {
        let r = KeyRange::subtree(&key(&[0]));
        assert_eq!(r.split_even(0), vec![r.clone()]);
        assert_eq!(r.split_even(1), vec![r.clone()]);
        // Unbounded above: left for the pager's index to partition.
        let unbounded = KeyRange::descendants(&FlexKey::root());
        assert_eq!(unbounded.split_even(4), vec![unbounded.clone()]);
        assert_eq!(KeyRange::empty().split_even(4), vec![KeyRange::empty()]);
    }

    #[test]
    fn split_even_partitions_cover_contiguously() {
        let r = KeyRange::subtree(&key(&[0]));
        for n in 2..10 {
            let parts = r.split_even(n);
            assert!(!parts.is_empty() && parts.len() <= n);
            assert_eq!(parts[0].lo, r.lo);
            assert_eq!(parts.last().unwrap().hi, r.hi);
            for w in parts.windows(2) {
                assert_eq!(w[0].hi.as_ref().unwrap(), &w[1].lo);
            }
            for p in &parts {
                assert!(!p.is_empty());
            }
        }
    }

    #[test]
    fn split_even_with_adjacent_bounds_degrades_gracefully() {
        // Bounds one byte apart: nowhere to cut, or very few cuts — the
        // result must still be a valid contiguous cover.
        let lo = key(&[0, 1]).as_flat().to_vec();
        let mut hi = lo.clone();
        *hi.last_mut().unwrap() = 1;
        let r = KeyRange {
            lo: lo.clone(),
            hi: Some(hi.clone()),
        };
        let parts = r.split_even(8);
        assert_eq!(parts[0].lo, lo);
        assert_eq!(parts.last().unwrap().hi, Some(hi));
        for w in parts.windows(2) {
            assert_eq!(w[0].hi.as_ref().unwrap(), &w[1].lo);
        }
    }

    proptest! {
        #[test]
        fn prop_split_even_disjoint_and_order_covering(
            a_path in proptest::collection::vec(0u64..50, 1..4),
            b_path in proptest::collection::vec(0u64..50, 1..4),
            probe_path in proptest::collection::vec(0u64..50, 1..5),
            n in 2usize..9,
        ) {
            let (a, b) = (key(&a_path), key(&b_path));
            let (lo, hi) = if a.as_flat() <= b.as_flat() { (a, b) } else { (b, a) };
            // `[lo, subtree_upper(hi))` is non-empty and bounded.
            let range = KeyRange {
                lo: lo.as_flat().to_vec(),
                hi: hi.subtree_upper(),
            };
            let parts = range.split_even(n);
            // Contiguous cover of the original range, no part empty.
            prop_assert!(!parts.is_empty() && parts.len() <= n);
            prop_assert_eq!(&parts[0].lo, &range.lo);
            prop_assert_eq!(&parts.last().unwrap().hi, &range.hi);
            for w in parts.windows(2) {
                prop_assert_eq!(w[0].hi.as_ref().unwrap(), &w[1].lo);
                prop_assert!(!w[0].is_empty());
            }
            // Any key falls in exactly one part iff it is in the range —
            // the parts are disjoint and cover document order.
            let probe = key(&probe_path);
            let hits = parts.iter().filter(|p| p.contains(probe.as_flat())).count();
            prop_assert_eq!(hits, usize::from(range.contains(probe.as_flat())));
        }

        #[test]
        fn prop_between_siblings_key_lands_in_one_partition(
            parent_path in proptest::collection::vec(0u64..20, 0..3),
            sib in 0u64..100,
            n in 2usize..9,
        ) {
            // A key synthesized *between* two siblings (variable-length
            // label arithmetic) must land in exactly one partition of a
            // range covering both siblings.
            let parent = key(&parent_path);
            let lo_sib = parent.child(&seq_label(sib));
            let hi_sib = parent.child(&seq_label(sib + 1));
            let mid = FlexKey::between_siblings(&lo_sib, &hi_sib).unwrap();
            let range = KeyRange {
                lo: lo_sib.as_flat().to_vec(),
                hi: hi_sib.subtree_upper(),
            };
            prop_assume!(range.contains(mid.as_flat()));
            let parts = range.split_even(n);
            let hits = parts.iter().filter(|p| p.contains(mid.as_flat())).count();
            prop_assert_eq!(hits, 1);
        }

        #[test]
        fn prop_partition_of_document_order(
            ctx_path in proptest::collection::vec(0u64..50, 1..4),
            other_path in proptest::collection::vec(0u64..50, 1..4),
        ) {
            // Every node is in exactly one of: before, subtree, following.
            let ctx = key(&ctx_path);
            let other = key(&other_path);
            let zones = [
                KeyRange::before(&ctx).contains(other.as_flat()),
                KeyRange::subtree(&ctx).contains(other.as_flat()),
                KeyRange::following(&ctx).contains(other.as_flat()),
            ];
            prop_assert_eq!(zones.iter().filter(|z| **z).count(), 1);
        }
    }
}
