//! Differential correctness of morsel-parallel execution over the full
//! XMark query suites: parallel must be byte-identical to serial-batched
//! and scalar execution, and all three must agree with the DOM oracle.
//!
//! The fan-out is forced, so every eligible scan runs parallel even on
//! the small test document, with at least two morsels per thread: which
//! thread scans which morsel is a race, and the order must not be.

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

/// Force the parallel decision on a small document, at a fixed width.
fn force_parallel(engine: &mut Engine, workers: usize) {
    let opts = engine.options_mut();
    opts.parallel_workers = workers;
    opts.parallel_force = true;
}

fn set_mode(engine: &mut Engine, parallel: bool, batched: bool) {
    engine.options_mut().parallel = parallel;
    engine.options_mut().batched = batched;
}

/// Materialized results (set semantics) are identical across all three
/// execution modes for every query of both suites, at 2 and 4 workers.
#[test]
fn parallel_results_equal_batched_and_scalar() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    for workers in [2, 4] {
        let mut bench = VamanaBench::optimized(&xml);
        force_parallel(bench.engine_mut(), workers);
        for (name, xpath) in all_queries() {
            set_mode(bench.engine_mut(), true, true);
            let parallel = bench.engine().query(xpath).unwrap();
            set_mode(bench.engine_mut(), false, true);
            let batched = bench.engine().query(xpath).unwrap();
            set_mode(bench.engine_mut(), false, false);
            let scalar = bench.engine().query(xpath).unwrap();
            assert!(!parallel.is_empty(), "{name} returned nothing");
            assert_eq!(
                parallel, batched,
                "{name} ({workers}w): parallel != serial-batched"
            );
            assert_eq!(batched, scalar, "{name} ({workers}w): batched != scalar");
        }
    }
}

/// Raw pipeline tuple sequences agree too: the ordered merge must
/// reproduce the serial batched stream exactly, not merely up to
/// reordering fixed by set semantics.
#[test]
fn parallel_streams_equal_serial_streams() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let mut bench = VamanaBench::optimized(&xml);
    // Two threads, four morsels or more a scan: the caller scans some
    // straight into its batch and drains the rest from the worker.
    force_parallel(bench.engine_mut(), 2);
    for (name, xpath) in all_queries() {
        set_mode(bench.engine_mut(), false, true);
        let serial = drain(bench.engine(), xpath);
        set_mode(bench.engine_mut(), true, true);
        let parallel = drain(bench.engine(), xpath);
        assert_eq!(parallel, serial, "{name}: parallel != serial tuple order");
    }
    let stats = bench.engine().parallel_stats();
    assert!(
        stats.morsels > stats.workers,
        "scan suite must have fanned out beyond the pool width: {stats:?}"
    );
}

/// All three modes agree with the DOM oracle on names and string values,
/// in document order.
#[test]
fn all_modes_agree_with_dom_baseline() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let mut bench = VamanaBench::optimized(&xml);
    force_parallel(bench.engine_mut(), 4);
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        for (parallel, batched) in [(true, true), (false, true), (false, false)] {
            set_mode(bench.engine_mut(), parallel, batched);
            let got = bench.identities(xpath).unwrap();
            assert_eq!(
                got, oracle,
                "{name}: vamana (parallel={parallel}, batched={batched}) != DOM oracle"
            );
        }
    }
}

fn drain(engine: &Engine, xpath: &str) -> Vec<NodeEntry> {
    let mut stream = engine.stream(DocId(0), xpath).unwrap();
    let mut out = Vec::new();
    while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
    out
}
