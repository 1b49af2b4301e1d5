//! Model-based property test of the index posting list: after any
//! sequence of bulk appends, inserts and removes, [`SortedKeys`] must
//! answer every probe — plain or from any finger — exactly as a
//! `BTreeSet` of the same keys does.

use proptest::prelude::*;
use std::collections::BTreeSet;
use vamana_flex::{seq_label, FlexKey, KeyRange};
use vamana_mass::name_index::SortedKeys;

/// One step against the list. Keys are drawn from a space small enough
/// that duplicates, absent keys and neighbours are all common.
#[derive(Debug, Clone)]
enum Op {
    /// `push_ordered` when the key sorts after every other, else `insert`.
    Add(Vec<u8>),
    /// Remove a key that may or may not be there.
    Remove(Vec<u8>),
    /// Insert again the key at this position (a duplicate; ignored).
    AddAgain(usize),
    /// Remove the key at this position (first, middle, last).
    RemoveAt(usize),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u64..5, 1..4).prop_map(|path| {
        let mut key = FlexKey::root();
        for p in path {
            key = key.child(&seq_label(p));
        }
        key.into_flat()
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let at = || any::<proptest::sample::Index>().prop_map(|i| i.index(1 << 16));
    proptest::collection::vec(
        prop_oneof![
            arb_key().prop_map(Op::Add),
            arb_key().prop_map(Op::Add),
            arb_key().prop_map(Op::Remove),
            at().prop_map(Op::AddAgain),
            at().prop_map(Op::RemoveAt),
        ],
        0..48,
    )
}

/// The model's answer to `slice_in(range)`.
fn model_slice(model: &BTreeSet<Vec<u8>>, range: &KeyRange) -> Vec<Vec<u8>> {
    model
        .iter()
        .filter(|k| range.contains(k))
        .cloned()
        .collect()
}

fn check(list: &SortedKeys, model: &BTreeSet<Vec<u8>>, probes: &[Vec<u8>]) {
    assert_eq!(list.len(), model.len());
    assert_eq!(list.is_empty(), model.is_empty());
    let keys: Vec<Vec<u8>> = list.iter().map(<[u8]>::to_vec).collect();
    assert!(keys.iter().eq(model.iter()), "iteration order");
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(list.get(i), key.as_slice());
    }
    let hints = 0..=list.len() + 1;
    for probe in probes {
        let expected = model.range::<Vec<u8>, _>(..probe).count();
        assert_eq!(list.lower_bound(probe), expected, "lower_bound {probe:?}");
        assert_eq!(list.contains(probe), model.contains(probe), "{probe:?}");
        for hint in hints.clone() {
            assert_eq!(
                list.lower_bound_from(hint, probe),
                expected,
                "lower_bound_from({hint}, {probe:?})"
            );
        }
        assert!(list.iter_from(expected).eq(keys[expected..].iter()));
    }
    let mut ranges = vec![KeyRange::all(), KeyRange::empty()];
    for (i, a) in probes.iter().enumerate() {
        let key = FlexKey::from_flat_slice(a);
        ranges.push(KeyRange::subtree(&key));
        ranges.push(KeyRange::descendants(&key));
        ranges.push(KeyRange::following(&key));
        ranges.push(KeyRange::before(&key));
        // Arbitrary pairs, inverted (empty) ones included.
        let b = &probes[(i * 7 + 3) % probes.len()];
        ranges.push(KeyRange {
            lo: a.clone(),
            hi: Some(b.clone()),
        });
    }
    for range in &ranges {
        let expected = model_slice(model, range);
        assert_eq!(list.count_in(range), expected.len() as u64, "{range:?}");
        assert!(list.iter_in(range).eq(expected.iter()), "{range:?}");
        let run = list.slice_in(range);
        assert_eq!(run.len(), expected.len(), "{range:?}");
        assert_eq!(run.is_empty(), expected.is_empty());
        assert_eq!(run.first(), expected.first().map(Vec::as_slice));
        assert_eq!(run.last(), expected.last().map(Vec::as_slice));
        assert!(run.iter().eq(expected.iter()));
        assert!(run.iter().rev().eq(expected.iter().rev()));
        assert_eq!(run.iter().len(), expected.len());
        for (i, key) in expected.iter().enumerate() {
            assert_eq!(run.get(i), key.as_slice());
        }
        // From any finger: the same run (an empty one may sit anywhere).
        for hint in hints.clone() {
            let fingered = list.slice_in_from(hint, range);
            assert_eq!(fingered.len(), run.len(), "{range:?} from {hint}");
            assert_eq!(fingered.first(), run.first(), "{range:?} from {hint}");
            if !run.is_empty() {
                assert_eq!(fingered.start(), run.start(), "{range:?} from {hint}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn posting_list_agrees_with_a_btree_set(ops in arb_ops(), extra in proptest::collection::vec(arb_key(), 1..6)) {
        let mut list = SortedKeys::default();
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        // The empty list answers too.
        check(&list, &model, &extra);
        for op in &ops {
            let pick = |at: &usize| model.iter().nth(at % model.len().max(1)).cloned();
            match op {
                Op::Add(key) => {
                    if model.last().is_none_or(|last| last < key) {
                        list.push_ordered(key).unwrap();
                    } else {
                        list.insert(key).unwrap();
                    }
                    model.insert(key.clone());
                }
                Op::Remove(key) => {
                    prop_assert_eq!(list.remove(key), model.remove(key));
                }
                Op::AddAgain(at) => {
                    if let Some(key) = pick(at) {
                        list.insert(&key).unwrap();
                    }
                }
                Op::RemoveAt(at) => {
                    // `at % len` reaches the first and the last key as
                    // often as any other.
                    if let Some(key) = pick(at) {
                        prop_assert!(list.remove(&key));
                        prop_assert!(!list.remove(&key), "already gone");
                        model.remove(&key);
                    }
                }
            }
            // Probe with every key present, the keys this run touched
            // (present or not), and the empty key.
            let mut probes: Vec<Vec<u8>> = model.iter().cloned().collect();
            probes.extend(extra.iter().cloned());
            if let Op::Add(key) | Op::Remove(key) = op {
                probes.push(key.clone());
            }
            probes.push(Vec::new());
            check(&list, &model, &probes);
        }
    }
}
