//! A damaged catalog is an error, never a panic.
//!
//! The catalog (name table, document registry, checkpoint LSN, format and
//! value dictionary) is the one image recovery trusts before it reads any
//! page. Each case takes a valid image of a checkpointed two-document
//! store with logged writes after the checkpoint, then truncates it, flips
//! bytes in it and appends bytes to it. [`MassStore::open_with_wal`] must
//! return `Err`, or a store that answers: a full scan, every document
//! exported, names and values counted — each of which may itself be an
//! `Err`, and none of which may panic. CI runs this in release as well as
//! debug: the debug build asserts key well-formedness that release does
//! not.

use proptest::prelude::*;
use vamana_flex::{FlexKey, KeyRange};
use vamana_mass::export::export_subtree_xml;
use vamana_mass::pager::PageStore;
use vamana_mass::wal::MemWalBackend;
use vamana_mass::{FsyncPolicy, MassCursor, MassStore, SharedPager};

const CAP: usize = 16;

const PEOPLE: &str = "<site><people><person id='p0'><name>Ada</name><city>Oslo</city></person>\
                      <person id='p1'><name>Bo</name><city>Oslo</city></person></people></site>";

/// A durable store on a shared pager and log: two documents, a
/// checkpoint, then two logged writes the catalog does not cover.
fn image() -> (SharedPager, MemWalBackend) {
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    let mut store = MassStore::create_with_wal(
        Box::new(pager.clone()),
        CAP,
        Box::new(wal.clone()),
        FsyncPolicy::Never,
    )
    .expect("create");
    store.load_xml("people", PEOPLE).expect("load");
    store
        .load_xml("notes", "<notes><note n='1'>Oslo</note></notes>")
        .expect("load");
    store.checkpoint().expect("checkpoint");
    let person = store.name_id("person").expect("persons");
    let first = store
        .name_index()
        .elements(person)
        .iter()
        .next()
        .expect("a person");
    let first = FlexKey::from_flat(first.to_vec());
    store
        .append_fragment(&first, "<note>Bergen</note>")
        .expect("insert");
    store.delete_subtree(&first).expect("delete");
    (pager, wal)
}

/// Everything a reader asks of a store. Errors are answers.
fn ask(store: &MassStore) {
    let mut scan = MassCursor::new(store, KeyRange::all());
    while let Ok(Some(rec)) = scan.next() {
        if let Some(name) = rec.name {
            let _ = store.names().resolve(name);
        }
        let _ = store.resolve_value(&rec);
    }
    for doc in store.documents() {
        let _ = export_subtree_xml(store, &doc.doc_key);
        let scope = KeyRange::subtree(&doc.doc_key);
        for name in ["site", "person", "name", "note", "n", "absent"] {
            if let Some(id) = store.name_id(name) {
                store.count_elements_in(id, &scope);
                store.count_attributes_in(id, &scope);
            }
        }
        for value in ["Oslo", "Ada", "Bergen", "absent"] {
            store.text_count_in(value, &scope);
        }
    }
    let _ = store.stats();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn a_damaged_catalog_is_an_error_or_a_store_that_answers(
        cut in proptest::option::of(any::<usize>()),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        tail in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let (pager, wal) = image();
        let mut catalog = pager.clone().read_catalog().unwrap();
        if let Some(cut) = cut {
            catalog.truncate(cut % (catalog.len() + 1));
        }
        for (at, mask) in flips {
            if !catalog.is_empty() {
                let at = at % catalog.len();
                catalog[at] ^= mask;
            }
        }
        catalog.extend(tail);
        pager.clone().write_catalog(&catalog).unwrap();
        let reopened = MassStore::open_with_wal(
            Box::new(pager),
            CAP,
            Box::new(wal),
            FsyncPolicy::Never,
        );
        if let Ok(store) = reopened {
            ask(&store);
        }
    }
}
