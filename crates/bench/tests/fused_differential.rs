//! Differential correctness of whole-query fusion over the full XMark
//! query suite: with fusion *forced* (every extractable candidate
//! accepted, bypassing the cost gate so the fused executor is actually
//! exercised), every query — under every pull size — must be
//! byte-identical to a plain engine and agree with the DOM oracle.
//! Queries outside the fusable fragment (reverse axes, sibling axes,
//! value predicates) must pass through untouched.

use vamana_baseline::XPathEngine;
use vamana_bench::{drain_stream_set, VamanaBench, PULL_SIZES, QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, MassStore, NodeEntry};
use vamana_xmark::scale::config_for_megabytes;

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES.iter().chain(SCAN_QUERIES).copied()
}

fn fused_engine(xml: &str) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", xml).expect("load");
    let mut engine = Engine::new(store);
    let options = engine.options_mut();
    options.fuse = true;
    options.fuse_force = true;
    engine
}

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
fn fused_results_equal_unfused_and_oracle() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let unfused = VamanaBench::optimized(&xml);
    let subject = fused_engine(&xml);
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        let reference = unfused.engine().query(xpath).unwrap();
        assert_eq!(
            identities(unfused.engine(), &reference),
            oracle,
            "{name}: unfused engine disagrees with DOM oracle"
        );
        let got = subject.query_doc(DocId(0), xpath).unwrap();
        assert_eq!(got, reference, "{name}: fused != plain");
        // A fused scan emits each node once, in document order: its
        // stream is the result itself, whatever the pull size.
        for max in PULL_SIZES {
            let streamed = drain_stream_set(&subject, xpath, max);
            assert_eq!(streamed, reference, "{name}: fused pulled by {max}");
        }
    }
    // The suite must actually exercise fused operators, not pass
    // vacuously: the scan queries are all multi-step forward chains.
    let (chains, steps) = subject.fused_stats();
    assert!(
        chains >= 4,
        "only {chains} fused chains ran across the suite"
    );
    assert!(steps > chains, "fused chains collapsed no extra steps");
}

#[test]
fn fusion_under_parallel_scans_is_order_preserving() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let mut plain = VamanaBench::optimized(&xml);
    let mut subject = fused_engine(&xml);
    subject.options_mut().parallel_force = true;
    for (name, xpath) in SCAN_QUERIES {
        let reference = plain.engine_mut().query(xpath).unwrap();
        let got = subject.query_doc(DocId(0), xpath).unwrap();
        assert_eq!(got, reference, "{name}: fused+parallel != plain");
        assert!(
            got.windows(2).all(|w| w[0].key < w[1].key),
            "{name}: fused+parallel output out of document order"
        );
    }
}
