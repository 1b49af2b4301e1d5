//! Differential correctness of the compressed (v2) page tier over the
//! full XMark query suite: a v2-format store must return byte-identical
//! results to a v1 store for every query, in every execution mode
//! (serial, morsel-parallel, fused) and under every pull size, and both
//! must agree with the `vamana-baseline` DOM engine. FLEX keys are deterministic for a
//! given load order, so whole [`NodeEntry`] sequences are comparable
//! across stores.

use vamana_baseline::XPathEngine as _;
use vamana_bench::{drain_stream_set, PULL_SIZES, QUERIES, ROOT_QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, MassStore, NodeEntry};
use vamana_mass::StoreFormat;

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

const MODES: [ModeSetup; 3] = [
    ("serial", |e| {
        e.options_mut().parallel_workers = 1;
    }),
    ("parallel", |e| {
        let o = e.options_mut();
        o.parallel_workers = 2;
        o.parallel_force = true;
    }),
    ("fused", |e| {
        let o = e.options_mut();
        o.fuse = true;
        o.fuse_force = true;
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
