//! Differential correctness of the compressed (v2) page tier over the
//! full XMark query suite: a v2-format store must return byte-identical
//! results to a v1 store for every query, in every execution mode
//! (serial, morsel-parallel) and under every pull size, and both
//! must agree with the `vamana-baseline` DOM engine. FLEX keys are deterministic for a
//! given load order, so whole [`NodeEntry`] sequences are comparable
//! across stores.
//!
//! Below the queries, the same fixture pins the page layer itself: the
//! read form of every page image equals what the record-level codecs
//! decode from it, and re-encodes to the image byte for byte. And the
//! `cold_scan` fixture of the trajectory benchmark (scale 0.21, on disk,
//! v2, a 32-page pool) answers the three whole-document scans like the
//! oracle.

use vamana_baseline::XPathEngine as _;
use vamana_bench::{drain_stream_set, PULL_SIZES, QUERIES, ROOT_QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, MassStore, NodeEntry};
use vamana_mass::page::{Page, PAGE_HEADER};
use vamana_mass::pager::PageStore as _;
use vamana_mass::{NodeRecord, SharedPager, StoreFormat};

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES
        .iter()
        .chain(SCAN_QUERIES)
        .chain(ROOT_QUERIES)
        .copied()
}

fn engine_with_format(xml: &str, format: StoreFormat) -> Engine {
    let mut store = MassStore::open_memory();
    store.set_format(format).expect("fresh store");
    store.load_xml("auction.xml", xml).expect("load");
    let mut engine = Engine::new(store);
    // Every mode must read the pages again, not a view of the last mode's
    // result.
    engine.options_mut().view_admit_after = u32::MAX;
    engine
}

/// (mode label, configure closure) for every execution mode.
type ModeSetup = (&'static str, fn(&mut Engine));

const MODES: [ModeSetup; 2] = [
    ("serial", |e| {
        e.options_mut().parallel_workers = 1;
    }),
    ("parallel", |e| {
        let o = e.options_mut();
        o.parallel_workers = 2;
        o.parallel_force = true;
    }),
];

fn identities(engine: &Engine, result: &[NodeEntry]) -> Vec<vamana_baseline::NodeIdentity> {
    let names = engine.names_of(result).expect("names");
    let values = engine.string_values(result).expect("values");
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| vamana_baseline::NodeIdentity { name, value })
        .collect()
}

#[test]
fn v2_results_equal_v1_in_every_mode_and_match_oracle() {
    let xml = vamana_bench::document(0.4);
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let mut v1 = engine_with_format(&xml, StoreFormat::V1);
    let mut v2 = engine_with_format(&xml, StoreFormat::V2);
    assert!(
        v2.store().stats().compressed_pages > 0,
        "v2 engine must actually run on compressed pages"
    );
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        for (mode, setup) in MODES {
            setup(&mut v1);
            setup(&mut v2);
            let r1 = v1.query_doc(DocId(0), xpath).unwrap();
            let r2 = v2.query_doc(DocId(0), xpath).unwrap();
            assert_eq!(r2, r1, "{name} ({mode}): v2 != v1 results");
            assert_eq!(
                identities(&v2, &r2),
                oracle,
                "{name} ({mode}): v2 disagrees with DOM oracle"
            );
            // The same result as a stream over compressed pages, pulled
            // from one tuple at a time to all at once.
            for max in PULL_SIZES {
                let streamed = drain_stream_set(&v2, xpath, max);
                assert_eq!(streamed, r2, "{name} ({mode}): v2 pulled by {max}");
            }
        }
    }
}

/// Value-returning evaluation (counts, string functions) goes through
/// `resolve_value` and therefore the dictionary on v2 — both formats
/// must agree on full `evaluate` output too.
#[test]
fn v2_evaluate_matches_v1() {
    let xml = vamana_bench::document(0.2);
    let v1 = engine_with_format(&xml, StoreFormat::V1);
    let v2 = engine_with_format(&xml, StoreFormat::V2);
    for xpath in [
        "count(//person)",
        "count(//item)",
        "string(//person[1]/name)",
        "//province[text()='Vermont']",
        "count(//incategory)",
    ] {
        let a = format!("{:?}", v1.evaluate(DocId(0), xpath).unwrap());
        let b = format!("{:?}", v2.evaluate(DocId(0), xpath).unwrap());
        assert_eq!(a, b, "{xpath}: v2 evaluate != v1");
    }
}

/// The records of a page image as the record-level codecs
/// (`NodeRecord::decode`, `v2_decode_record`) read them one by one — the
/// decoders every page went through before pages kept their image.
fn reference_records(image: &[u8]) -> Vec<NodeRecord> {
    let count = u16::from_le_bytes([image[2], image[3]]);
    let mut records: Vec<NodeRecord> = Vec::new();
    let mut at = PAGE_HEADER;
    for _ in 0..count {
        let (rec, used) = match &image[..2] {
            b"AM" => NodeRecord::decode(&image[at..]),
            b"CM" => {
                let prev = records.last().map(|r| r.key.as_flat());
                vamana_mass::compress::v2_decode_record(&image[at..], prev)
            }
            magic => panic!("unexpected magic {magic:?}"),
        }
        .expect("reference decode");
        at += used;
        records.push(rec);
    }
    records
}

#[test]
fn every_page_reads_like_the_record_codecs_and_re_encodes_byte_for_byte() {
    let xml = vamana_bench::document(0.4);
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let mut pager = SharedPager::new();
        let mut store = MassStore::with_pager(Box::new(pager.clone()), 64);
        store.set_format(format).expect("fresh store");
        store.load_xml("auction.xml", &xml).expect("load");
        let mut tuples = 0;
        for id in 0..pager.page_count() {
            let image = pager.read_page(id).expect("page");
            let page = Page::decode(image.clone(), id).expect("decode");
            assert_eq!(page.format(), format, "page {id}");
            let reference = reference_records(&image);
            assert_eq!(page.to_records().expect("records"), reference, "page {id}");
            for (i, rec) in reference.iter().enumerate() {
                assert_eq!(page.key(i), rec.key.as_flat(), "page {id} key {i}");
                assert_eq!((page.kind(i), page.name(i)), (rec.kind, rec.name));
                assert_eq!(page.value(i).expect("value"), rec.value.view());
                assert_eq!(page.find(rec.key.as_flat()), Ok(i));
            }
            let again = page
                .to_buf()
                .expect("edit buffer")
                .encode()
                .expect("encode");
            assert!(
                again == image,
                "{format:?} page {id} re-encodes differently"
            );
            tuples += page.len() as u64;
        }
        assert_eq!(
            tuples,
            store.stats().tuples,
            "{format:?}: every record seen"
        );
    }
}

/// `//*`, `//text()` and `//@*` on the `cold_scan` fixture, prepared and
/// executed the way that workload runs its scans, against the DOM oracle:
/// row counts, names and string-values, in memory (v1, v2) and on disk
/// under a pool nine times smaller than the data.
#[test]
fn whole_document_scans_on_the_cold_scan_fixture_match_the_oracle() {
    let mut buf = Vec::new();
    vamana_xmark::generate_to(&vamana_xmark::XmarkConfig::with_scale(0.21), &mut buf).unwrap();
    let xml = String::from_utf8(buf).unwrap();
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let dir = std::env::temp_dir().join(format!("vamana-cold-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut disk = MassStore::create_file(dir.join("store.mass"), 32).expect("create");
    disk.set_format(StoreFormat::V2).expect("fresh store");
    disk.load_xml("auction.xml", &xml).expect("load");
    let engines = [
        ("mem-v1", engine_with_format(&xml, StoreFormat::V1)),
        ("mem-v2", engine_with_format(&xml, StoreFormat::V2)),
        ("disk-v2", Engine::new(disk)),
    ];
    for (xpath, rows) in [("//*", 126_410), ("//text()", 66_549), ("//@*", 42_560)] {
        let oracle = dom.identities(xpath).unwrap();
        assert_eq!(oracle.len(), rows, "{xpath}: oracle row count");
        for (label, engine) in &engines {
            let plan = engine
                .optimize_plan(engine.compile(xpath).unwrap(), DocId(0))
                .unwrap()
                .plan;
            let result = engine.execute_plan(&plan, DocId(0)).unwrap();
            assert_eq!(result.len(), rows, "{xpath} on {label}: row count");
            assert!(
                identities(engine, &result) == oracle,
                "{xpath} on {label}: names or string-values differ from the oracle"
            );
        }
    }
    let misses = engines[2].1.store().stats().buffer.misses;
    assert!(misses > 1_000, "the disk store ran cold ({misses} misses)");
    drop(engines);
    std::fs::remove_dir_all(&dir).ok();
}
