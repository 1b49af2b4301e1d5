//! Differential correctness of the executor over the full XMark query
//! suite: every query agrees with the `vamana-baseline` DOM engine, and
//! its stream is the same tuple sequence — same nodes, same order —
//! whatever the pull size.

use vamana_baseline::XPathEngine;
use vamana_bench::{
    drain_stream, drain_stream_set, VamanaBench, PULL_SIZES, QUERIES, ROOT_QUERIES, SCAN_QUERIES,
};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::DocId;
use vamana_xmark::scale::config_for_megabytes;

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES
        .iter()
        .chain(SCAN_QUERIES)
        .chain(ROOT_QUERIES)
        .copied()
}

/// Materialized results (set semantics) agree with the DOM oracle on
/// names and string values, in document order.
#[test]
fn results_agree_with_dom_baseline() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let bench = VamanaBench::optimized(&xml);
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        assert_eq!(
            bench.identities(xpath).unwrap(),
            oracle,
            "{name}: vamana != DOM oracle"
        );
    }
}

/// Raw pipeline tuple sequences (before duplicate elimination) do not
/// depend on the pull size — from the tuple-at-a-time `max = 1` to
/// drain-all — and reduce to the materialized (DOM-checked) result.
#[test]
fn streams_are_one_sequence_under_every_pull_size() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let bench = VamanaBench::optimized(&xml);
    for (name, xpath) in all_queries() {
        let reference = drain_stream(bench.engine(), xpath, usize::MAX);
        for max in PULL_SIZES {
            assert_eq!(
                drain_stream(bench.engine(), xpath, max),
                reference,
                "{name}: pulled by {max}"
            );
        }
        assert_eq!(
            drain_stream_set(bench.engine(), xpath, BATCH_SIZE),
            bench.engine().query(xpath).unwrap(),
            "{name}"
        );
    }
}

/// A `max = 1` pull does one tuple's work all the way down: on a store
/// of a few hundred pages, the first tuple of a scan costs a handful of
/// buffer-pool probes, not the scan's page span.
#[test]
fn a_one_tuple_pull_touches_a_constant_number_of_pages() {
    let xml = vamana_bench::document(1.0);
    let mut bench = VamanaBench::optimized(&xml);
    let pages = bench.engine().store().stats().pages;
    assert!(pages >= 200, "store has only {pages} pages");
    // An eligible plan sizes its whole context list for the parallel
    // gate when the stream opens; the pull protocol is what is under
    // test here.
    bench.engine_mut().options_mut().parallel_workers = 1;
    let engine = bench.engine();
    let probes = || engine.store().buffer_pool().probe_pin_counts().0;
    for xpath in [
        "/site/regions//item",      // name test: index-only
        "/site/regions//*",         // clustered scan
        "/site/regions/*/item/*",   // sibling jumps under context pulls
        "//item/description//text", // contexts by the batch, budget 1
    ] {
        let mut stream = engine.stream(DocId(0), xpath).unwrap();
        let before = probes();
        let mut out = Vec::new();
        assert_eq!(stream.next_batch(&mut out, 1).unwrap(), 1, "{xpath}");
        let first = probes() - before;
        while stream.next_batch(&mut out, BATCH_SIZE).unwrap() == BATCH_SIZE {}
        let all = probes() - before;
        assert!(
            first <= 6,
            "{xpath}: the first tuple cost {first} page probes"
        );
        if xpath.ends_with('*') {
            assert!(
                all >= 40,
                "{xpath}: the whole scan cost only {all} page probes"
            );
        }
    }
}
