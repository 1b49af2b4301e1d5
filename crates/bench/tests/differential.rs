//! Differential correctness of the batched pipeline over the full XMark
//! query suite: batched execution must be byte-identical to the scalar
//! path — same nodes, same order — and both must agree with the
//! `vamana-baseline` DOM engine.

use vamana_baseline::XPathEngine;
use vamana_bench::{VamanaBench, QUERIES, ROOT_QUERIES, SCAN_QUERIES};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, NodeEntry};
use vamana_xmark::scale::config_for_megabytes;

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES
        .iter()
        .chain(SCAN_QUERIES)
        .chain(ROOT_QUERIES)
        .copied()
}

fn drain_stream(engine: &Engine, xpath: &str, batched: bool) -> Vec<NodeEntry> {
    let mut stream = engine.stream(DocId(0), xpath).unwrap();
    let mut out = Vec::new();
    if batched {
        while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
    } else {
        while let Some(t) = stream.next().unwrap() {
            out.push(t);
        }
    }
    out
}

/// Materialized results (set semantics) are identical in both modes for
/// every query of the evaluation and scan suites.
#[test]
fn batched_results_equal_scalar_results() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let mut bench = VamanaBench::optimized(&xml);
    for (name, xpath) in all_queries() {
        let scalar = {
            let engine = bench.engine_mut();
            engine.options_mut().batched = false;
            engine.query(xpath).unwrap()
        };
        let batched = {
            let engine = bench.engine_mut();
            engine.options_mut().batched = true;
            engine.query(xpath).unwrap()
        };
        assert!(!batched.is_empty(), "{name} returned nothing");
        assert_eq!(batched, scalar, "{name}: batched != scalar results");
    }
}

/// Raw pipeline tuple sequences (before duplicate elimination) are also
/// identical — batching must not reorder tuples anywhere in the plan.
#[test]
fn batched_streams_equal_scalar_streams() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let mut bench = VamanaBench::optimized(&xml);
    for (name, xpath) in all_queries() {
        bench.engine_mut().options_mut().batched = false;
        let scalar = drain_stream(bench.engine(), xpath, false);
        bench.engine_mut().options_mut().batched = true;
        let batched = drain_stream(bench.engine(), xpath, true);
        assert_eq!(batched, scalar, "{name}: batched != scalar tuple order");
    }
}

/// Both modes agree with the DOM oracle on names and string values, in
/// document order.
#[test]
fn both_modes_agree_with_dom_baseline() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let mut bench = VamanaBench::optimized(&xml);
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        for batched in [false, true] {
            bench.engine_mut().options_mut().batched = batched;
            let got = bench.identities(xpath).unwrap();
            assert_eq!(
                got, oracle,
                "{name}: vamana (batched={batched}) != DOM oracle"
            );
        }
    }
}
