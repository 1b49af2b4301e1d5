//! The value index.
//!
//! MASS indexes the full string value of every text node and attribute,
//! plus a numeric projection for values that parse as numbers. This gives
//! VAMANA two things the paper leans on:
//!
//! * `TC(value)` — the exact occurrence count of a literal, in one lookup
//!   (drives Case 5 of the OUT estimation and the `value::` rewrite), and
//! * value-based location steps: `value::'Yung Flach'` enumerates the
//!   keys of matching text/attribute nodes directly, without touching the
//!   clustered data pages.

use crate::name_index::SortedKeys;
use std::collections::BTreeMap;
use std::ops::Bound;
use vamana_flex::KeyRange;

/// Total-ordered f64 wrapper (IEEE total order) used as a BTreeMap key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Comparison operator for numeric range scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Exact-value and numeric indexes over text/attribute values.
#[derive(Debug, Default, Clone)]
pub struct ValueIndex {
    exact: BTreeMap<Box<str>, Postings>,
    numeric: BTreeMap<OrdF64, SortedKeys>,
}

/// The occurrences of one distinct value, with its numeric projection,
/// parsed when the value was first indexed.
#[derive(Debug, Clone)]
struct Postings {
    keys: SortedKeys,
    number: Option<OrdF64>,
}

impl ValueIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes `value` at `flat` (bulk load: keys arrive in document
    /// order per distinct value).
    pub fn insert_ordered(&mut self, value: &str, flat: &[u8]) {
        self.add(value, |keys| keys.push_ordered(flat));
    }

    /// Indexes `value` at `flat` at an arbitrary position (update path).
    pub fn insert(&mut self, value: &str, flat: &[u8]) {
        self.add(value, |keys| keys.insert(flat));
    }

    /// Adds an occurrence of `value` to its lists with `add`. Only a value
    /// not indexed yet is copied and parsed.
    fn add(&mut self, value: &str, add: impl Fn(&mut SortedKeys)) {
        let number = match self.exact.get_mut(value) {
            Some(postings) => {
                add(&mut postings.keys);
                postings.number
            }
            None => {
                let mut keys = SortedKeys::default();
                add(&mut keys);
                let number = value.trim().parse::<f64>().ok().map(OrdF64);
                self.exact.insert(value.into(), Postings { keys, number });
                number
            }
        };
        if let Some(n) = number {
            add(self.numeric.entry(n).or_default());
        }
    }

    /// Removes the entry for `value` at `flat`.
    pub fn remove(&mut self, value: &str, flat: &[u8]) {
        let Some(postings) = self.exact.get_mut(value) else {
            return;
        };
        postings.keys.remove(flat);
        let number = postings.number;
        if postings.keys.is_empty() {
            self.exact.remove(value);
        }
        if let Some(n) = number {
            if let Some(list) = self.numeric.get_mut(&n) {
                list.remove(flat);
                if list.is_empty() {
                    self.numeric.remove(&n);
                }
            }
        }
    }

    /// `TC(value)`: exact occurrence count of a literal, database-wide.
    pub fn text_count(&self, value: &str) -> u64 {
        self.exact.get(value).map_or(0, |p| p.keys.len() as u64)
    }

    /// `TC(value)` within a structural range.
    pub fn text_count_in(&self, value: &str, range: &KeyRange) -> u64 {
        self.exact.get(value).map_or(0, |p| p.keys.count_in(range))
    }

    /// Keys of nodes whose value equals `value`, within `range`, in
    /// document order.
    pub fn keys_eq<'a>(&'a self, value: &str, range: &KeyRange) -> Vec<&'a [u8]> {
        self.exact
            .get(value)
            .map(|p| p.keys.iter_in(range).collect())
            .unwrap_or_default()
    }

    /// Count of nodes whose *numeric* value satisfies `op bound`, within
    /// `range` (the paper's range predicates).
    pub fn numeric_count_in(&self, op: RangeOp, bound: f64, range: &KeyRange) -> u64 {
        self.numeric_lists(op, bound)
            .map(|l| l.count_in(range))
            .sum()
    }

    /// Keys whose numeric value satisfies `op bound`, within `range`,
    /// merged into document order.
    pub fn keys_numeric(&self, op: RangeOp, bound: f64, range: &KeyRange) -> Vec<&[u8]> {
        let mut out: Vec<&[u8]> = Vec::new();
        for list in self.numeric_lists(op, bound) {
            out.extend(list.iter_in(range));
        }
        out.sort_unstable();
        out
    }

    fn numeric_lists(&self, op: RangeOp, bound: f64) -> impl Iterator<Item = &SortedKeys> {
        let (lo, hi): (Bound<OrdF64>, Bound<OrdF64>) = match op {
            RangeOp::Lt => (Bound::Unbounded, Bound::Excluded(OrdF64(bound))),
            RangeOp::Le => (Bound::Unbounded, Bound::Included(OrdF64(bound))),
            RangeOp::Gt => (Bound::Excluded(OrdF64(bound)), Bound::Unbounded),
            RangeOp::Ge => (Bound::Included(OrdF64(bound)), Bound::Unbounded),
        };
        self.numeric.range((lo, hi)).map(|(_, l)| l)
    }

    /// Number of distinct indexed string values.
    pub fn distinct_values(&self) -> usize {
        self.exact.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_flex::{seq_label, FlexKey};

    fn flat(path: &[u64]) -> Vec<u8> {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k.into_flat()
    }

    fn sample() -> ValueIndex {
        let mut v = ValueIndex::new();
        v.insert_ordered("Vermont", &flat(&[0, 1]));
        v.insert_ordered("12", &flat(&[0, 2]));
        v.insert_ordered("Vermont", &flat(&[0, 3]));
        v.insert_ordered("42.5", &flat(&[0, 4]));
        v.insert_ordered("7", &flat(&[1, 0]));
        v
    }

    #[test]
    fn text_count_is_exact() {
        let v = sample();
        assert_eq!(v.text_count("Vermont"), 2);
        assert_eq!(v.text_count("12"), 1);
        assert_eq!(v.text_count("Texas"), 0);
    }

    #[test]
    fn text_count_in_range() {
        let v = sample();
        let doc0 = KeyRange::subtree(&FlexKey::root().child(&seq_label(0)));
        assert_eq!(v.text_count_in("Vermont", &doc0), 2);
        assert_eq!(v.text_count_in("7", &doc0), 0);
    }

    #[test]
    fn keys_eq_in_document_order() {
        let v = sample();
        let keys = v.keys_eq("Vermont", &KeyRange::all());
        assert_eq!(keys.len(), 2);
        assert!(keys[0] < keys[1]);
    }

    #[test]
    fn numeric_range_scans() {
        let v = sample();
        let all = KeyRange::all();
        assert_eq!(v.numeric_count_in(RangeOp::Lt, 10.0, &all), 1); // 7
        assert_eq!(v.numeric_count_in(RangeOp::Le, 12.0, &all), 2); // 7, 12
        assert_eq!(v.numeric_count_in(RangeOp::Gt, 12.0, &all), 1); // 42.5
        assert_eq!(v.numeric_count_in(RangeOp::Ge, 12.0, &all), 2);
        // Non-numeric values never appear in numeric scans.
        assert_eq!(v.numeric_count_in(RangeOp::Ge, f64::NEG_INFINITY, &all), 3);
    }

    #[test]
    fn keys_numeric_merged_sorted() {
        let v = sample();
        let keys = v.keys_numeric(RangeOp::Ge, 0.0, &KeyRange::all());
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn remove_prunes_empty_lists() {
        let mut v = sample();
        v.remove("12", &flat(&[0, 2]));
        assert_eq!(v.text_count("12"), 0);
        assert_eq!(v.numeric_count_in(RangeOp::Le, 12.0, &KeyRange::all()), 1);
        // Removing one of two occurrences keeps the other.
        v.remove("Vermont", &flat(&[0, 1]));
        assert_eq!(v.text_count("Vermont"), 1);
    }

    #[test]
    fn insert_unordered_then_query() {
        let mut v = ValueIndex::new();
        v.insert("x", &flat(&[5]));
        v.insert("x", &flat(&[1]));
        v.insert("x", &flat(&[3]));
        let keys = v.keys_eq("x", &KeyRange::all());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn distinct_values_counts_strings() {
        assert_eq!(sample().distinct_values(), 4);
    }

    #[test]
    fn whitespace_tolerant_numeric_parse() {
        let mut v = ValueIndex::new();
        v.insert_ordered(" 19 ", &flat(&[0]));
        assert_eq!(v.numeric_count_in(RangeOp::Ge, 19.0, &KeyRange::all()), 1);
    }
}
