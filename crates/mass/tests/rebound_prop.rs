//! A cursor that keeps its place is a cursor that starts over: for
//! random context sequences — ascending, shuffled, nested, repeated, and
//! the runs a stream sweeps through (siblings, empty subtrees, a step up
//! a level, a context left part-way) — a stream re-opened on each context
//! ([`AxisStream::open`]) and a cursor re-bound to each range
//! ([`MassCursor::rebound`]) yield exactly what a new stream and a new
//! cursor yield, and never ask the buffer pool for more pages. On both
//! page formats, under a pool of eight pages over a document of dozens
//! (v1: ~75, v2: ~24), so that pins are evicted under the cursor.

use proptest::prelude::*;
use std::sync::OnceLock;
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, AxisStream, NodeFilter};
use vamana_mass::{KindFilter, MassCursor, MassStore, NodeEntry, RecordKind, StoreFormat};

/// `a` inside `a`, attributes, text, and enough of it to outgrow the pool
/// three times over even front-coded.
fn document() -> String {
    let mut xml = String::from("<r>");
    for i in 0..1800 {
        xml.push_str(&format!(
            "<a x='{i}'><b>t{i}</b><a y='1'><b/><c z='{i}'>deep {i}</c><a><b>x</b></a></a><b/></a>"
        ));
        if i % 7 == 0 {
            xml.push_str("<c><b>lone</b></c>");
        }
    }
    xml.push_str("</r>");
    xml
}

struct Fixture {
    store: MassStore,
    /// Every element key, in document order.
    elements: Vec<FlexKey>,
    /// Indices in `elements` of those with nothing below them (`<b/>`).
    leaves: Vec<usize>,
}

/// The longest sibling run a case opens: a run of the root's children
/// this long covers ~900 records, more than a v1 page and most of a v2
/// one.
const RUN: usize = 64;

fn fixture(format: StoreFormat) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; 2] = [OnceLock::new(), OnceLock::new()];
    FIXTURES[usize::from(format == StoreFormat::V2)].get_or_init(|| {
        let mut store = MassStore::open_memory_with_capacity(8);
        store.set_format(format).unwrap();
        store.load_xml("doc", &document()).unwrap();
        assert!(store.stats().pages >= 20, "{} pages", store.stats().pages);
        let elements: Vec<FlexKey> = store
            .name_index()
            .all_elements()
            .iter()
            .map(FlexKey::from_flat_slice)
            .collect();
        let leaves = (0..elements.len())
            .filter(|&i| {
                let below = axis_stream(
                    &store,
                    &elements[i],
                    RecordKind::Element,
                    Axis::Descendant,
                    NodeFilter::any(),
                );
                below.unwrap().collect().unwrap().is_empty()
            })
            .collect();
        Fixture {
            store,
            elements,
            leaves,
        }
    })
}

/// Element `first` and the siblings after it, in document order: at most
/// [`RUN`] of them.
fn siblings_from(f: &Fixture, first: usize) -> Vec<usize> {
    let parent = f.elements[first].parent();
    (first..f.elements.len())
        .take_while(|&i| {
            parent
                .as_ref()
                .is_some_and(|p| p.is_ancestor_of(&f.elements[i]))
        })
        .filter(|&i| f.elements[i].parent() == parent)
        .take(RUN)
        .collect()
}

/// The context sequence of a case: `picks` resolved against the element
/// list and arranged as `shape` says.
fn contexts(f: &Fixture, picks: &[usize], shape: u8) -> Vec<FlexKey> {
    let mut at: Vec<usize> = picks.iter().map(|p| p % f.elements.len()).collect();
    match shape {
        // Ascending, distinct: the order a forward plan delivers.
        0 => {
            at.sort_unstable();
            at.dedup();
        }
        // As drawn: shuffled, with whatever repeats came up.
        1 => {}
        // Nested: every pick followed by its parent and preceded by its
        // first descendant, where it has them.
        2 => {
            at.sort_unstable();
            let mut nested = Vec::new();
            for i in at {
                let key = &f.elements[i];
                if let Some(below) = f.elements.get(i + 1).filter(|k| key.is_ancestor_of(k)) {
                    nested.push(below.clone());
                }
                nested.push(key.clone());
                nested.extend(key.parent().filter(|p| !p.is_root()));
            }
            return nested;
        }
        // Repeated: each pick three times running.
        3 => at = at.iter().flat_map(|&i| [i, i, i]).collect(),
        // Sibling runs: the first pick and the siblings after it — or,
        // for odd draws, its top-level ancestor and the root's children
        // after that, a run across pages (shape 7 leaves every other
        // context part-way).
        4 | 7 => {
            let mut first = at[0];
            if picks.len() % 2 == 1 {
                let key = &f.elements[first];
                let top = key.ancestor(key.level().saturating_sub(2));
                let top = top.expect("an element's ancestor");
                first = f.elements.binary_search(&top).expect("an element");
            }
            at = siblings_from(f, first);
        }
        // Empty subtrees: all the children of a leaf's parent, so that the
        // sweep must stop at the sibling after the leaf, not swallow it.
        5 => {
            let leaf = f.leaves[picks[0] % f.leaves.len()];
            let parent = f.elements[leaf].parent().expect("an element");
            let first = (0..=leaf)
                .rev()
                .find(|&i| !parent.is_ancestor_of(&f.elements[i]))
                .map_or(0, |i| i + 1);
            at = siblings_from(f, first);
        }
        // A step up a level: each pick, then the first element after its
        // parent's subtree — the parent's next sibling, or an ancestor's.
        _ => {
            at.sort_unstable();
            at.dedup();
            at = at
                .into_iter()
                .flat_map(|i| {
                    let parent = f.elements[i].parent();
                    let next = (i..f.elements.len()).find(|&j| {
                        parent
                            .as_ref()
                            .is_some_and(|p| !p.is_ancestor_of(&f.elements[j]))
                    });
                    std::iter::once(i).chain(next)
                })
                .collect();
        }
    }
    at.into_iter().map(|i| f.elements[i].clone()).collect()
}

fn filter_for(store: &MassStore, axis: Axis, test: u8) -> NodeFilter {
    let attribute = axis.principal_is_attribute();
    match test {
        0 => NodeFilter::any(),
        1 if attribute => NodeFilter {
            kind: KindFilter::Attribute,
            name: None,
        },
        1 => NodeFilter::any_element(),
        2 => NodeFilter::text(),
        _ if attribute => NodeFilter::attribute(store.name_id("x").unwrap()),
        _ => NodeFilter::element(store.name_id("b").unwrap()),
    }
}

/// The pool's counters are the stores', and both properties read them:
/// one case at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn probes(store: &MassStore) -> u64 {
    let s = store.buffer_pool().stats();
    s.hits + s.misses
}

/// Pulls `stream` dry, `max` entries at a time.
fn drain(stream: &mut AxisStream<'_>, max: usize) -> Vec<NodeEntry> {
    let mut out = Vec::new();
    while stream.next_batch(&mut out, max).unwrap() == max {}
    out
}

const FORWARD: [Axis; 7] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Attribute,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::FollowingSibling,
    Axis::Following,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every forward axis, every stream shape: the re-opened stream is
    /// the new stream, context by context, for no more page requests —
    /// and its witness says whether the contexts came one whole subtree
    /// after another.
    #[test]
    fn a_reopened_stream_is_a_new_stream(
        picks in proptest::collection::vec(0usize..1_000_000, 1..24),
        shape in 0u8..8,
        axis in 0usize..FORWARD.len(),
        test in 0u8..4,
        max in prop_oneof![Just(1usize), Just(3), Just(64), Just(usize::MAX)],
        abandon in 0usize..5,
    ) {
        let axis = FORWARD[axis];
        let _serial = serial();
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let f = fixture(format);
            let store = &f.store;
            let mut contexts = contexts(f, &picks, shape);
            if axis == Axis::Following {
                // A whole-document tail per context: a few will do.
                contexts.truncate(3);
            }
            let filter = filter_for(store, axis, test);
            let abandon = if shape == 7 { 2 } else { abandon };
            let before = probes(store);
            let fresh: Vec<Vec<NodeEntry>> = contexts
                .iter()
                .map(|ctx| {
                    let mut s = axis_stream(store, ctx, RecordKind::Element, axis, filter).unwrap();
                    drain(&mut s, max)
                })
                .collect();
            let fresh_probes = probes(store) - before;
            let before = probes(store);
            let mut stream = AxisStream::new(store, axis, filter);
            for (turn, (ctx, want)) in contexts.iter().zip(&fresh).enumerate() {
                stream.open(ctx, RecordKind::Element).unwrap();
                if abandon > 1 && turn % abandon == 1 {
                    // Leave this context after its first entry.
                    let mut first = Vec::new();
                    stream.next_batch(&mut first, 1).unwrap();
                    prop_assert_eq!(&first[..], &want[..want.len().min(1)]);
                    continue;
                }
                prop_assert_eq!(&drain(&mut stream, max), want, "{:?} {} turn {}", format, axis, turn);
            }
            let reopened_probes = probes(store) - before;
            prop_assert!(
                reopened_probes <= fresh_probes,
                "{:?} {}: {} page requests re-opened, {} new", format, axis, reopened_probes, fresh_probes
            );
            // The self axis yields nothing below its context: nesting is
            // no harm to it.
            let one_after_another = contexts.windows(2).all(|w| {
                w[0] < w[1] && (axis == Axis::SelfAxis || !w[0].is_ancestor_of(&w[1]))
            });
            prop_assert_eq!(stream.nested(), axis.is_downward() && !one_after_another);
        }
    }

    /// The clustered cursor itself, over arbitrary ranges (not only the
    /// subtrees an axis asks for), some of them empty, some unbounded,
    /// abandoned part-way or drained.
    #[test]
    fn a_rebound_cursor_is_a_new_cursor(
        bounds in proptest::collection::vec((0usize..1_000_000, 0usize..1_000_000, 0u8..4), 1..16),
        max in prop_oneof![Just(1usize), Just(5), Just(200), Just(usize::MAX)],
        pulls in 1usize..4,
    ) {
        let _serial = serial();
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let f = fixture(format);
            let store = &f.store;
            let n = f.elements.len();
            let ranges: Vec<KeyRange> = bounds
                .iter()
                .map(|&(a, b, kind)| {
                    let (a, b) = (&f.elements[a % n], &f.elements[b % n]);
                    match kind {
                        0 => KeyRange::subtree(a),
                        1 => KeyRange::descendants(a),
                        2 => KeyRange { lo: a.as_flat().to_vec(), hi: None },
                        // Empty when `b` sorts before `a`.
                        _ => KeyRange { lo: a.as_flat().to_vec(), hi: b.subtree_upper() },
                    }
                })
                .collect();
            // `pulls` pulls of `max` each: the cursor is left mid-range
            // more often than not.
            let walk = |cursor: &mut MassCursor<'_>| {
                let mut out = Vec::new();
                for _ in 0..pulls {
                    if cursor.next_batch(&mut out, max).unwrap() < max {
                        break;
                    }
                }
                out
            };
            let before = probes(store);
            let fresh: Vec<Vec<NodeEntry>> = ranges
                .iter()
                .map(|r| walk(&mut MassCursor::new(store, r.clone())))
                .collect();
            let fresh_probes = probes(store) - before;
            let before = probes(store);
            let mut cursor = MassCursor::unbound(store);
            for (range, want) in ranges.iter().zip(&fresh) {
                cursor.rebound(range);
                prop_assert_eq!(&walk(&mut cursor), want, "{:?} {:?}", format, range);
            }
            let rebound_probes = probes(store) - before;
            prop_assert!(
                rebound_probes <= fresh_probes,
                "{:?}: {} page requests re-bound, {} new", format, rebound_probes, fresh_probes
            );
        }
    }
}
