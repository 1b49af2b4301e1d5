//! End-to-end tests for the compressed (v2) page tier: v1/v2 behavioral
//! equivalence under loads and updates, real compression on repetitive
//! documents, durability (catalog format + dictionary survive reopen), and
//! dictionary admission against a reference model.

use proptest::prelude::*;
use std::collections::HashMap;
use vamana_mass::compress::{DICT_MAX_VALUE_LEN, DICT_MIN_FREQ};
use vamana_mass::export::export_subtree_xml;
use vamana_mass::fault::SharedPager;
use vamana_mass::pager::PageStore;
use vamana_mass::{FsyncPolicy, MassStore, MemWalBackend, StoreFormat};
use vamana_xml::{Document, NodeKind};

const CAP: usize = 256;

/// A repetitive auction-like document: deep sibling runs (front-coding
/// fodder) and a handful of hot attribute/text values (dictionary fodder).
fn synthetic_doc(items: usize) -> String {
    let mut xml = String::from("<site><regions><namerica>");
    let cats = ["sports", "books", "music", "garden"];
    for i in 0..items {
        let cat = cats[i % cats.len()];
        xml.push_str(&format!(
            "<item category=\"{cat}\" featured=\"yes\"><name>item-{i}</name>\
             <quantity>1</quantity><location>United States</location>\
             <description>the usual lorem assortment of words</description></item>"
        ));
    }
    xml.push_str("</namerica></regions></site>");
    xml
}

fn fingerprint(store: &MassStore) -> (String, u64, u32) {
    let doc_key = store.documents()[0].doc_key.clone();
    let xml = export_subtree_xml(store, &doc_key).expect("export");
    let stats = store.stats();
    (xml, stats.tuples, stats.pages)
}

#[test]
fn v2_store_answers_exactly_like_v1() {
    // 85 v1 pages and 19 v2 under the smallest pool there is (8 pages,
    // one per shard): the export below is a cold scan of either.
    let xml = synthetic_doc(2000);
    let mut v1 = MassStore::open_memory_with_capacity(8);
    let mut v2 = MassStore::open_memory_with_capacity(8);
    v1.set_format(StoreFormat::V1).unwrap();
    v1.load_xml("auction", &xml).unwrap();
    v2.load_xml("auction", &xml).unwrap();

    let loaded = [v1.stats().buffer.misses, v2.stats().buffer.misses];
    let (x1, t1, p1) = fingerprint(&v1);
    let (x2, t2, p2) = fingerprint(&v2);
    assert_eq!(x1, x2, "exported XML must be byte-identical");
    assert_eq!(t1, t2);
    assert!(p2 < p1, "v2 should use fewer pages than v1 ({p2} vs {p1})");
    let m1 = v1.stats().buffer.misses - loaded[0];
    let m2 = v2.stats().buffer.misses - loaded[1];
    assert!(
        m2 < m1,
        "the same scan should miss less on v2 ({m2} vs {m1})"
    );

    // Secondary indexes see through the dictionary.
    let item = v1.name_id("item").unwrap();
    assert_eq!(v1.count_elements(item), v2.count_elements(item));
    assert_eq!(
        v1.text_count("United States"),
        v2.text_count("United States")
    );
    assert_eq!(v2.text_count("United States"), 2000);

    let s2 = v2.stats();
    assert_eq!(s2.format, StoreFormat::V2);
    assert_eq!(
        s2.uncompressed_pages, 0,
        "bulk load should emit only v2 pages"
    );
    assert_eq!(s2.compressed_pages, s2.pages);
    assert!(
        s2.dict_entries > 0,
        "hot values should be dictionary-admitted"
    );
    assert!(
        s2.compression_ratio() > 1.5,
        "repetitive doc should compress well, got {:.2}",
        s2.compression_ratio()
    );
    assert!(s2.buffer.writes_v2 > 0);
}

#[test]
fn v2_updates_track_v1_updates() {
    let xml = synthetic_doc(120);
    let mut v1 = MassStore::open_memory();
    let mut v2 = MassStore::open_memory();
    v1.set_format(StoreFormat::V1).unwrap();
    v1.load_xml("auction", &xml).unwrap();
    v2.load_xml("auction", &xml).unwrap();

    for store in [&mut v1, &mut v2] {
        let doc_key = store.documents()[0].doc_key.clone();
        // document -> site -> regions -> namerica
        let site = store.last_child_key(&doc_key).unwrap().unwrap();
        let regions = store.last_child_key(&site).unwrap().unwrap();
        let namerica = store.last_child_key(&regions).unwrap().unwrap();
        // Delete a run of items, then append new structure with both
        // dictionary-known and fresh values.
        for _ in 0..30 {
            let victim = store.last_child_key(&namerica).unwrap().unwrap();
            store.delete_subtree(&victim).unwrap();
        }
        for i in 0..10 {
            let item = store.append_element(&namerica, "item").unwrap();
            store.append_attribute(&item, "category", "sports").unwrap();
            let name = store.append_element(&item, "name").unwrap();
            store.append_text(&name, &format!("late-{i}")).unwrap();
        }
        store
            .append_fragment(
                &namerica,
                "<item category=\"books\"><name>frag</name></item>",
            )
            .unwrap();
    }

    let (x1, t1, _) = fingerprint(&v1);
    let (x2, t2, _) = fingerprint(&v2);
    assert_eq!(x1, x2, "updates must leave identical logical content");
    assert_eq!(t1, t2);
    assert_eq!(v1.text_count("frag"), v2.text_count("frag"));
}

#[test]
fn durable_v2_survives_reopen_with_dict_and_format() {
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    let xml = synthetic_doc(200);
    let before;
    let dict_before;
    {
        let mut s = MassStore::create_with_wal(
            Box::new(pager.clone()),
            CAP,
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        )
        .unwrap();
        s.load_xml("auction", &xml).unwrap();
        let doc_key = s.documents()[0].doc_key.clone();
        let site = s.last_child_key(&doc_key).unwrap().unwrap();
        s.append_element(&site, "closed_auctions").unwrap();
        before = fingerprint(&s);
        dict_before = s.dict().len();
        assert!(dict_before > 0);
    }
    let s = MassStore::open_with_wal(
        Box::new(pager.clone()),
        CAP,
        Box::new(wal.clone()),
        FsyncPolicy::Always,
    )
    .unwrap();
    assert_eq!(s.format(), StoreFormat::V2, "format must survive reopen");
    assert_eq!(
        s.dict().len(),
        dict_before,
        "dictionary must survive reopen"
    );
    assert_eq!(fingerprint(&s), before);
    let stats = s.stats();
    assert_eq!(stats.uncompressed_pages, 0);
    assert!(stats.compression_ratio() > 1.0);
}

#[test]
fn format_choice_is_durable_before_first_load() {
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    {
        let mut s = MassStore::create_with_wal(
            Box::new(pager.clone()),
            CAP,
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        )
        .unwrap();
        s.set_format(StoreFormat::V1).unwrap();
        // Crash here: no load, no explicit checkpoint.
    }
    let s =
        MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Always).unwrap();
    assert_eq!(s.format(), StoreFormat::V1);
}

#[test]
fn catalog_without_compressed_trailer_reopens_as_v1() {
    let mut pager = SharedPager::new();
    let wal = MemWalBackend::new();
    {
        let mut s = MassStore::create_with_wal(
            Box::new(pager.clone()),
            CAP,
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        )
        .unwrap();
        s.set_format(StoreFormat::V1).unwrap();
        s.load_xml("a", "<r><a>x</a></r>").unwrap();
    }
    // Cut the trailer (format byte + empty dictionary count): the catalog
    // of a store written before the compressed tier existed.
    let catalog = pager.read_catalog().unwrap();
    pager.write_catalog(&catalog[..catalog.len() - 5]).unwrap();
    let mut s =
        MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Always).unwrap();
    assert_eq!(s.format(), StoreFormat::V1);
    s.load_xml("b", "<r><b>y</b></r>").unwrap();
    let stats = s.stats();
    assert_eq!(stats.compressed_pages, 0, "{stats:?}");
    assert_eq!(stats.uncompressed_pages, stats.pages, "{stats:?}");
}

#[test]
fn set_format_rejected_after_load() {
    let mut s = MassStore::open_memory();
    s.load_xml("d", "<a><b>x</b></a>").unwrap();
    assert!(s.set_format(StoreFormat::V1).is_err());
}

/// Reference model of dictionary admission: the two-walk algorithm. Per
/// document, one document-order walk counts every non-empty text and
/// attribute value of at most `DICT_MAX_VALUE_LEN` bytes; a second walk
/// interns, in document order, each value counted `DICT_MIN_FREQ` times
/// or more. `dict` holds the entries in id order.
fn model_admit(dict: &mut Vec<String>, doc: &Document) {
    fn values(doc: &Document) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack: Vec<_> = doc.children(Document::ROOT).collect();
        stack.reverse();
        while let Some(id) = stack.pop() {
            match doc.kind(id) {
                NodeKind::Element { .. } => {
                    out.extend(doc.attributes(id).map(|a| doc.value(a).unwrap()));
                    let kids: Vec<_> = doc.children(id).collect();
                    stack.extend(kids.into_iter().rev());
                }
                NodeKind::Text { value } => out.push(value),
                _ => {}
            }
        }
        out
    }
    let values = values(doc);
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for v in values
        .iter()
        .filter(|v| !v.is_empty() && v.len() <= DICT_MAX_VALUE_LEN)
    {
        *counts.entry(v).or_insert(0) += 1;
    }
    for v in values {
        if counts.get(v).is_some_and(|&n| n >= DICT_MIN_FREQ) && !dict.iter().any(|d| d == v) {
            dict.push(v.to_string());
        }
    }
}

/// Value lengths on both sides of `DICT_MAX_VALUE_LEN`.
const LENGTHS: [usize; 8] = [0, 1, 3, 7, 63, 64, 65, 90];

/// One document: each entry is `(letter, length, kind, repeats)` and adds
/// `repeats` occurrences (1–6) of that letter repeated to that length as
/// text (kind 0), an attribute value (1) or a comment (2). The same value
/// recurs across entries and documents, so first occurrences and the
/// occurrence that reaches the admission count interleave.
fn arb_document() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..5, 0..LENGTHS.len(), 0u8..3, 1usize..7), 1..20).prop_map(
        |entries| {
            let mut xml = String::from("<r>");
            for (letter, len, kind, repeats) in entries {
                let value = char::from(b'a' + letter).to_string().repeat(LENGTHS[len]);
                for _ in 0..repeats {
                    match kind {
                        0 => xml.push_str(&format!("<t>{value}</t>")),
                        1 => xml.push_str(&format!("<e v=\"{value}\"/>")),
                        _ => xml.push_str(&format!("<!--{value}-->")),
                    }
                }
            }
            xml.push_str("</r>");
            xml
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Bulk loads admit exactly the model's dictionary, ids in the same
    /// order, and a durable store reopened after the loads holds it too.
    #[test]
    fn dictionary_admission_matches_the_two_walk_model(
        docs in proptest::collection::vec(arb_document(), 1..4),
    ) {
        let pager = SharedPager::new();
        let wal = MemWalBackend::new();
        let mut model = Vec::new();
        {
            let mut s = MassStore::create_with_wal(
                Box::new(pager.clone()),
                CAP,
                Box::new(wal.clone()),
                FsyncPolicy::Never,
            )
            .unwrap();
            for (i, xml) in docs.iter().enumerate() {
                let doc = vamana_xml::parse(xml).unwrap();
                model_admit(&mut model, &doc);
                s.load_xml(&format!("d{i}"), xml).unwrap();
            }
            prop_assert_eq!(s.dict().iter().map(String::from).collect::<Vec<_>>(), model.clone());
        }
        let s = MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Never)
            .unwrap();
        prop_assert_eq!(s.dict().iter().map(String::from).collect::<Vec<_>>(), model);
    }
}
