//! End-to-end tests for the compressed (v2) page tier: v1/v2 behavioral
//! equivalence under loads and updates, real compression on repetitive
//! documents, and durability (catalog format + dictionary survive reopen).

use vamana_mass::export::export_subtree_xml;
use vamana_mass::fault::SharedPager;
use vamana_mass::{FsyncPolicy, MassStore, MemWalBackend, StoreFormat};

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
    v2.set_format(StoreFormat::V2).unwrap();
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
    v2.set_format(StoreFormat::V2).unwrap();
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
        s.set_format(StoreFormat::V2).unwrap();
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
        s.set_format(StoreFormat::V2).unwrap();
        // Crash here: no load, no explicit checkpoint.
    }
    let s =
        MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Always).unwrap();
    assert_eq!(s.format(), StoreFormat::V2);
}

#[test]
fn set_format_rejected_after_load() {
    let mut s = MassStore::open_memory();
    s.load_xml("d", "<a><b>x</b></a>").unwrap();
    assert!(s.set_format(StoreFormat::V2).is_err());
}
