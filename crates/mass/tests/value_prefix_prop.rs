//! One string-value walk, capped or not: on random documents — nested
//! elements, attributes, comments, multi-byte text, values long enough
//! for the overflow heap and repeated enough for the value dictionary —
//! [`MassStore::value_prefixes`] returns for every key its record's name
//! and the first `width + 1` characters of its string-value, and
//! [`MassStore::string_value`] the whole of it, both checked against an
//! oracle computed from a plain scan of the records. Keys come in
//! document order, shuffled and repeated, with ancestors beside their
//! descendants, document nodes, value-index tuples and keys no record
//! has; widths 0, 1, 60 and random; on both page formats under a pool of
//! two pages, so that a sweep loses its pin to the next page it needs.

use proptest::prelude::*;
use vamana_flex::{seq_label, FlexKey, KeyRange};
use vamana_mass::{MassCursor, MassStore, NameId, NodeRecord, RecordKind, StoreFormat};

/// Text with one-, two-, three- and four-byte characters.
const TEXT: &str = "[ab\u{e9}\u{4e2d}\u{1f600} ]{0,12}";

/// One step of the document builder.
fn arb_step() -> impl Strategy<Value = (u8, String)> {
    (0u8..8, TEXT)
}

/// A document built from `steps`: open an element (some with an
/// attribute), close one, add text (some of it long), or a comment.
fn document(steps: &[(u8, String)]) -> String {
    let mut xml = String::from("<r>");
    let mut open = vec!["r"];
    for (action, text) in steps {
        match action {
            0 => {
                xml.push_str("<a>");
                open.push("a");
            }
            1 => {
                xml.push_str(&format!("<b x=\"{text}\">"));
                open.push("b");
            }
            2 if open.len() > 1 => {
                xml.push_str(&format!("</{}>", open.pop().unwrap()));
            }
            3 => xml.push_str(&format!("<!--{text}-->")),
            4 => xml.push_str(&text.repeat(120)),
            5 => xml.push_str("<c/>"),
            _ => xml.push_str(text),
        }
    }
    while let Some(name) = open.pop() {
        xml.push_str(&format!("</{name}>"));
    }
    xml
}

/// Every record of `store`, in document order, values resolved.
fn records(store: &MassStore) -> Vec<(NodeRecord, String)> {
    let mut cur = MassCursor::new(store, KeyRange::all());
    let mut out = Vec::new();
    while let Some(rec) = cur.next().unwrap() {
        let value = store.resolve_value(&rec).unwrap().unwrap_or_default();
        out.push((rec, value));
    }
    out
}

/// The string-value of record `i`, from the scan: its own value, or the
/// text below it in document order.
fn oracle_value(all: &[(NodeRecord, String)], i: usize) -> String {
    let rec = &all[i].0;
    if !matches!(rec.kind, RecordKind::Element | RecordKind::Document) {
        return all[i].1.clone();
    }
    all[i + 1..]
        .iter()
        .take_while(|(r, _)| rec.key.is_ancestor_of(&r.key))
        .filter(|(r, _)| r.kind == RecordKind::Text)
        .map(|(_, v)| v.as_str())
        .collect()
}

fn head(s: &str, chars: usize) -> String {
    s.chars().take(chars).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn value_prefixes_are_the_heads_of_string_values(
        steps in proptest::collection::vec(arb_step(), 1..600),
        other in proptest::collection::vec(arb_step(), 0..30),
        picks in proptest::collection::vec(0usize..10_000, 0..40),
        arrange in 0u8..3,
        v2 in any::<bool>(),
        width in 0usize..30,
    ) {
        let mut store = MassStore::open_memory_with_capacity(2);
        store.set_format(if v2 { StoreFormat::V2 } else { StoreFormat::V1 }).unwrap();
        store.load_xml("one", &document(&steps)).unwrap();
        store.load_xml("two", &document(&other)).unwrap();
        let all = &records(&store);
        let mut at: Vec<usize> = picks.iter().map(|p| p % all.len()).collect();
        match arrange {
            // Document order, each once: what a node-set is.
            0 => {
                at.sort_unstable();
                at.dedup();
            }
            // Each pick with every ancestor of it, in document order.
            1 => {
                let mut nested: Vec<usize> = at
                    .iter()
                    .flat_map(|&i| {
                        let key = &all[i].0.key;
                        (0..=i).filter(move |&j| all[j].0.key.is_ancestor_of(key) || j == i)
                    })
                    .collect();
                nested.sort_unstable();
                nested.dedup();
                at = nested;
            }
            // As drawn: out of order, with repeats.
            _ => {}
        }
        let mut keys: Vec<FlexKey> = at.iter().map(|&i| all[i].0.key.clone()).collect();
        let mut want: Vec<(Option<NameId>, String)> =
            at.iter().map(|&i| (all[i].0.name, oracle_value(all, i))).collect();
        // The document nodes; a value-index tuple of a picked text; a key
        // no record has, below a picked one.
        for doc in store.documents() {
            let i = all.iter().position(|(r, _)| r.key == doc.doc_key).unwrap();
            keys.push(doc.doc_key.clone());
            want.push((all[i].0.name, oracle_value(all, i)));
        }
        if let Some(&i) = at.iter().find(|&&i| all[i].0.kind == RecordKind::Text) {
            let value = all[i].1.clone();
            let tuples: Vec<FlexKey> = store
                .value_index()
                .keys_eq(&value, &KeyRange::all())
                .into_iter()
                .map(FlexKey::from_flat_slice)
                .collect();
            for key in tuples {
                let j = all.iter().position(|(r, _)| r.key == key).unwrap();
                keys.push(key);
                want.push((all[j].0.name, oracle_value(all, j)));
            }
        }
        if let Some(&i) = at.first() {
            keys.push(all[i].0.key.child(&seq_label(9_999)));
            want.push((None, String::new()));
        }
        // The empty key, whose subtree is every record but which no record has.
        keys.push(FlexKey::root());
        want.push((None, String::new()));

        for (key, (_, value)) in keys.iter().zip(&want) {
            prop_assert_eq!(&store.string_value(key).unwrap(), value, "{:?}", key);
        }
        for width in [0, 1, 60, width] {
            let got = store.value_prefixes(&keys, width).unwrap();
            prop_assert_eq!(got.len(), keys.len());
            for ((name, prefix), (want_name, value)) in got.iter().zip(&want) {
                prop_assert_eq!(name, want_name);
                prop_assert_eq!(prefix, &head(value, width + 1), "width {}", width);
            }
        }
    }
}
