//! Model-based property tests of the index posting list: after any
//! sequence of bulk appends, inserts and removes, [`SortedKeys`] must
//! answer every probe — plain or from any finger — exactly as a
//! `BTreeSet` of the same keys does. The first test keeps lists short
//! (one block); the second starts each case several blocks long and
//! aims its writes at block edges.

use proptest::prelude::*;
use std::collections::BTreeSet;
use vamana_flex::{seq_label, FlexKey, KeyRange};
use vamana_mass::name_index::{SortedKeys, BLOCK_KEYS};

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
            assert_eq!(
                list.find_from(hint, probe),
                (expected, model.contains(probe)),
                "find_from({hint}, {probe:?})"
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
            // Its iterator starts where the probe left it: in full from
            // every sixteenth finger, its first keys from the others.
            let keys = if hint % 16 == 0 { run.len() } else { 3 };
            assert!(
                fingered.iter().take(keys).eq(run.iter().take(keys)),
                "{range:?} from {hint}"
            );
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
                        list.push_ordered(key);
                    } else {
                        list.insert(key);
                    }
                    model.insert(key.clone());
                }
                Op::Remove(key) => {
                    prop_assert_eq!(list.remove(key), model.remove(key));
                }
                Op::AddAgain(at) => {
                    if let Some(key) = pick(at) {
                        list.insert(&key);
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

/// Children `0..LONG_SPAN` of parents `0..LONG_PARENTS`, each parent's
/// key before its children: the key space of the long lists, in order.
const LONG_PARENTS: u64 = 4;
const LONG_SPAN: u64 = 400;

fn long_space() -> Vec<Vec<u8>> {
    let mut keys = Vec::new();
    for a in 0..LONG_PARENTS {
        let parent = FlexKey::root().child(&seq_label(a));
        keys.push(parent.as_flat().to_vec());
        for b in 0..LONG_SPAN {
            keys.push(parent.child(&seq_label(b)).into_flat());
        }
    }
    keys
}

/// One write against a list several blocks long.
#[derive(Debug, Clone)]
enum LongOp {
    /// Insert the `n` keys of the key space from this position on (those
    /// present are duplicates): fills a block and splits it.
    InsertRun(usize, usize),
    /// Insert the next absent key of the space after the key at position
    /// `k * BLOCK_KEYS + EDGES[e] - 1`: on a full bulk-loaded block, a
    /// split with the new key at each edge of either half.
    InsertAt(usize, usize),
    /// Remove `n` present keys from this position of the list on: empties
    /// a block.
    RemoveRun(usize, usize),
    /// Remove the key at position `k * BLOCK_KEYS / 2` (wrapped): the
    /// first key of a bulk-loaded block or of a split half, whose
    /// directory entry must change.
    RemoveEdge(usize),
    /// Remove the key at this position.
    RemoveAt(usize),
    /// `push_ordered` the next `n` keys of the space after the last.
    Push(usize),
}

/// Offsets into a block where a split's two halves meet or end.
const EDGES: [usize; 7] = [
    0,
    1,
    BLOCK_KEYS / 2 - 1,
    BLOCK_KEYS / 2,
    BLOCK_KEYS / 2 + 1,
    BLOCK_KEYS - 1,
    BLOCK_KEYS,
];

fn arb_long_ops() -> impl Strategy<Value = Vec<LongOp>> {
    let at = || any::<proptest::sample::Index>().prop_map(|i| i.index(1 << 16));
    proptest::collection::vec(
        prop_oneof![
            (at(), 1..2 * BLOCK_KEYS + 1).prop_map(|(at, n)| LongOp::InsertRun(at, n)),
            (0..5usize, 0..EDGES.len()).prop_map(|(k, e)| LongOp::InsertAt(k, e)),
            (at(), 1..2 * BLOCK_KEYS + 1).prop_map(|(at, n)| LongOp::RemoveRun(at, n)),
            (0..16usize).prop_map(LongOp::RemoveEdge),
            at().prop_map(LongOp::RemoveAt),
            (1..BLOCK_KEYS + 1).prop_map(LongOp::Push),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn long_posting_list_agrees_with_a_btree_set(
        blocks in 3..6usize,
        offset in 0..3usize,
        edge in 0..EDGES.len(),
        ops in arb_long_ops(),
    ) {
        let space = long_space();
        // Every third key of the space, `blocks` full blocks of them and
        // a part block, appended in order as the loader does.
        let mut list = SortedKeys::default();
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        for key in space.iter().skip(offset).step_by(3).take(blocks * BLOCK_KEYS + 17) {
            list.push_ordered(key);
            model.insert(key.clone());
        }
        check(&list, &model, &[Vec::new(), space[0].clone(), space[space.len() / 2].clone()]);
        // First split every full block, each at another edge (last block
        // first, so each still starts where the bulk load put it).
        let splits = (0..blocks).rev().map(|k| LongOp::InsertAt(k, (edge + k) % EDGES.len()));
        for op in &splits.chain(ops.iter().cloned()).collect::<Vec<_>>() {
            // Keys whose neighbourhood the write touched.
            let mut touched: Vec<Vec<u8>> = Vec::new();
            let mut remove_at = |list: &mut SortedKeys, model: &mut BTreeSet<Vec<u8>>, at: usize| {
                if let Some(key) = model.iter().nth(at % model.len().max(1)).cloned() {
                    assert!(list.remove(&key), "present key");
                    assert!(!list.remove(&key), "already gone");
                    model.remove(&key);
                    touched.push(key);
                }
            };
            match *op {
                LongOp::InsertRun(at, n) => {
                    let from = at % space.len();
                    for key in space.iter().skip(from).take(n) {
                        list.insert(key);
                        model.insert(key.clone());
                    }
                    touched.push(space[from].clone());
                    touched.push(space[(from + n).min(space.len()) - 1].clone());
                }
                LongOp::InsertAt(k, e) => {
                    let at = (k * BLOCK_KEYS + EDGES[e]).min(model.len());
                    let after = match at {
                        0 => Vec::new(),
                        _ => model.iter().nth(at - 1).cloned().expect("in range"),
                    };
                    if let Some(key) = space.iter().find(|k| **k > after && !model.contains(*k)) {
                        list.insert(key);
                        model.insert(key.clone());
                        touched.push(key.clone());
                    }
                }
                LongOp::RemoveRun(at, n) => {
                    let from = at % model.len().max(1);
                    for _ in 0..n.min(model.len().saturating_sub(from)) {
                        remove_at(&mut list, &mut model, from);
                    }
                }
                LongOp::RemoveEdge(k) => remove_at(&mut list, &mut model, k * BLOCK_KEYS / 2),
                LongOp::RemoveAt(at) => remove_at(&mut list, &mut model, at),
                LongOp::Push(n) => {
                    let after = model.last().cloned().unwrap_or_default();
                    for key in space.iter().filter(|k| **k > after).take(n) {
                        list.push_ordered(key);
                        model.insert(key.clone());
                        touched.push(key.clone());
                    }
                }
            }
            // Probe with the touched keys, the list's ends, block starts, a
            // parent whose subtree spans blocks, and the empty key.
            touched.truncate(2);
            let mut probes = touched;
            probes.extend(model.first().cloned());
            probes.extend(model.last().cloned());
            // Keys where a bulk-loaded block or a split half begins.
            probes.extend(model.iter().skip(BLOCK_KEYS).step_by(BLOCK_KEYS / 2).take(3).cloned());
            probes.push(space[(LONG_SPAN as usize + 1) * (ops.len() % LONG_PARENTS as usize)].clone());
            probes.push(Vec::new());
            check(&list, &model, &probes);
        }
    }
}
