//! Property tests for MASS: encode/decode round trips and model-based
//! testing of structural updates (the store must agree with a trivial
//! reference model after any operation sequence).

use proptest::prelude::*;
use vamana_flex::{FlexKey, KeyRange};
use vamana_mass::record::{NodeRecord, RecordKind, ValueRef};
use vamana_mass::{MassCursor, MassStore, NameId};

fn arb_value() -> impl Strategy<Value = ValueRef> {
    prop_oneof![
        Just(ValueRef::None),
        "[a-zA-Z0-9 ]{0,40}".prop_map(|s| ValueRef::Inline(s.into())),
        (any::<u64>(), any::<u32>()).prop_map(|(offset, len)| ValueRef::Overflow { offset, len }),
        (0u32..100_000).prop_map(ValueRef::Dict),
    ]
}

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (
        proptest::collection::vec(0u64..5000, 1..5),
        0u8..5,
        proptest::option::of(0u32..100),
        arb_value(),
    )
        .prop_map(|(path, kind, name, value)| {
            let mut key = FlexKey::root();
            for p in &path {
                key = key.child(&vamana_flex::seq_label(*p));
            }
            let kind = match kind {
                0 => RecordKind::Element,
                1 => RecordKind::Attribute,
                2 => RecordKind::Text,
                3 => RecordKind::Comment,
                _ => RecordKind::Pi,
            };
            NodeRecord {
                key,
                kind,
                name: name.map(NameId),
                value,
            }
        })
}

proptest! {
    #[test]
    fn record_encode_decode_round_trips(rec in arb_record()) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        prop_assert_eq!(buf.len(), rec.encoded_len());
        let (back, used) = NodeRecord::decode(&buf).unwrap();
        prop_assert_eq!(back, rec);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn record_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = NodeRecord::decode(&bytes);
    }

    /// Front-coded (v2) record chains round-trip against the same
    /// predecessor key, byte-for-byte length-accounted.
    #[test]
    fn v2_record_chain_round_trips(recs in proptest::collection::vec(arb_record(), 1..20)) {
        let mut sorted = recs;
        sorted.sort_by(|a, b| a.key.as_flat().cmp(b.key.as_flat()));
        sorted.dedup_by(|a, b| a.key.as_flat() == b.key.as_flat());
        let mut prev: Option<Vec<u8>> = None;
        for rec in &sorted {
            let mut buf = Vec::new();
            vamana_mass::compress::v2_encode_record(rec, prev.as_deref(), &mut buf);
            prop_assert_eq!(buf.len(), vamana_mass::compress::v2_record_len(rec, prev.as_deref()));
            let (back, used) = vamana_mass::compress::v2_decode_record(&buf, prev.as_deref()).unwrap();
            prop_assert_eq!(&back, rec);
            prop_assert_eq!(used, buf.len());
            prev = Some(rec.key.as_flat().to_vec());
        }
    }

    /// v2 decode rejects garbage without panicking, with or without a
    /// predecessor key.
    #[test]
    fn v2_record_decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        prev in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..30)),
    ) {
        let _ = vamana_mass::compress::v2_decode_record(&bytes, prev.as_deref());
    }

    /// A full page of sorted records encodes and decodes identically in
    /// both formats, and the v2 image is never larger than claimed.
    #[test]
    fn page_round_trips_in_both_formats(recs in proptest::collection::vec(arb_record(), 1..40)) {
        let mut sorted = recs;
        sorted.sort_by(|a, b| a.key.as_flat().cmp(b.key.as_flat()));
        sorted.dedup_by(|a, b| a.key.as_flat() == b.key.as_flat());
        for format in [vamana_mass::StoreFormat::V1, vamana_mass::StoreFormat::V2] {
            let mut page = vamana_mass::page::PageBuf::new(format);
            let mut kept = Vec::new();
            for rec in &sorted {
                if page.fits_record(rec) {
                    page.append(rec.clone()).unwrap();
                    kept.push(rec.clone());
                }
            }
            let (bytes, written) = page.encode_with_format().unwrap();
            prop_assert_eq!(written, format, "no fallback expected for fitting pages");
            prop_assert!(bytes.len() <= vamana_mass::page::PAGE_SIZE);
            let back = vamana_mass::page::Page::decode(bytes, 0).unwrap();
            prop_assert_eq!(back.format(), format);
            prop_assert_eq!(back.to_records().unwrap(), kept);
        }
    }
}

/// One random structural operation.
#[derive(Debug, Clone)]
enum Op {
    /// Append an element named `e<n>` under the element picked by index.
    Append(usize, u8),
    /// Append a text child with the given small value.
    Text(usize, u8),
    /// Delete the subtree of the picked element (never the root).
    Delete(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<proptest::sample::Index>(), 0u8..6)
                .prop_map(|(i, n)| Op::Append(i.index(1 << 16), n)),
            (any::<proptest::sample::Index>(), 0u8..6)
                .prop_map(|(i, n)| Op::Text(i.index(1 << 16), n)),
            any::<proptest::sample::Index>().prop_map(|i| Op::Delete(i.index(1 << 16))),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Apply a random op sequence to the store and to a naive model;
    /// counts per name and full document-order iteration must agree.
    #[test]
    fn store_updates_agree_with_reference_model(ops in arb_ops()) {
        let mut store = MassStore::open_memory_with_capacity(4);
        store.load_xml("m", "<root><a/><b/></root>").unwrap();

        // Model: sorted map flat-key → (kind-tag, label string).
        use std::collections::BTreeMap;
        let mut model: BTreeMap<Vec<u8>, String> = BTreeMap::new();
        {
            let mut cur = MassCursor::new(&store, KeyRange::all());
            while let Some(rec) = cur.next().unwrap() {
                let label = describe(&store, &rec);
                model.insert(rec.key.as_flat().to_vec(), label);
            }
        }

        for op in &ops {
            // Current elements in model order (stable pick space).
            let elements: Vec<Vec<u8>> = model
                .iter()
                .filter(|(_, v)| v.starts_with("elem:") || v.starts_with("doc"))
                .map(|(k, _)| k.clone())
                .collect();
            match op {
                Op::Append(i, n) => {
                    let parent = FlexKey::from_flat(elements[i % elements.len()].clone());
                    let name = format!("e{n}");
                    let key = store.append_element(&parent, &name).unwrap();
                    model.insert(key.as_flat().to_vec(), format!("elem:{name}"));
                }
                Op::Text(i, n) => {
                    let parent = FlexKey::from_flat(elements[i % elements.len()].clone());
                    let value = format!("v{n}");
                    let key = store.append_text(&parent, &value).unwrap();
                    model.insert(key.as_flat().to_vec(), format!("text:{value}"));
                }
                Op::Delete(i) => {
                    // Skip the document node and root element so the store
                    // stays queryable.
                    let candidates: Vec<Vec<u8>> = elements
                        .iter()
                        .filter(|k| {
                            FlexKey::from_flat((*k).clone()).level() >= 2
                        })
                        .cloned()
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let target = FlexKey::from_flat(candidates[i % candidates.len()].clone());
                    store.delete_subtree(&target).unwrap();
                    let upper = target.subtree_upper().unwrap();
                    let doomed: Vec<Vec<u8>> = model
                        .range(target.as_flat().to_vec()..upper)
                        .map(|(k, _)| k.clone())
                        .collect();
                    for k in doomed {
                        model.remove(&k);
                    }
                }
            }
        }

        // Full iteration agrees.
        let mut cur = MassCursor::new(&store, KeyRange::all());
        let mut seen: Vec<(Vec<u8>, String)> = Vec::new();
        while let Some(rec) = cur.next().unwrap() {
            seen.push((rec.key.as_flat().to_vec(), describe(&store, &rec)));
        }
        let expected: Vec<(Vec<u8>, String)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(seen, expected);

        // Per-name counts agree.
        for n in 0u8..6 {
            let name = format!("e{n}");
            let model_count =
                model.values().filter(|v| **v == format!("elem:{name}")).count() as u64;
            let store_count = store
                .name_id(&name)
                .map(|id| store.count_elements(id))
                .unwrap_or(0);
            prop_assert_eq!(store_count, model_count, "count mismatch for {}", name);
        }
        prop_assert_eq!(
            store.count_text_in(&KeyRange::all()),
            model.values().filter(|v| v.starts_with("text:")).count() as u64
        );
        prop_assert_eq!(store.stats().tuples, model.len() as u64);
    }
}

fn describe(store: &MassStore, rec: &NodeRecord) -> String {
    match rec.kind {
        RecordKind::Document => "doc".to_string(),
        RecordKind::Element => {
            format!("elem:{}", store.names().resolve(rec.name.expect("named")))
        }
        RecordKind::Text => {
            format!(
                "text:{}",
                store.resolve_value(rec).unwrap().unwrap_or_default()
            )
        }
        other => format!("{other:?}"),
    }
}
