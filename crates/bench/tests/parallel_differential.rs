//! Differential correctness of morsel-parallel execution over the full
//! XMark query suites: a fanned-out scan must be byte-identical to the
//! serial one under every pull size, and both must agree with the DOM
//! oracle.
//!
//! The fan-out is forced, so every eligible scan runs parallel even on
//! the small test document, with at least two morsels per thread: which
//! thread scans which morsel is a race, and the order must not be.

use vamana_baseline::XPathEngine;
use vamana_bench::{drain_stream, VamanaBench, PULL_SIZES, QUERIES, ROOT_QUERIES, SCAN_QUERIES};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::Engine;
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

/// Materialized results (set semantics) are identical fanned out and
/// serial, and agree with the DOM oracle on names and string values in
/// document order, for every query of the suites, at 2 and 4 workers.
#[test]
fn parallel_results_equal_serial_and_dom_baseline() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    for workers in [2, 4] {
        let mut bench = VamanaBench::optimized(&xml);
        force_parallel(bench.engine_mut(), workers);
        for (name, xpath) in all_queries() {
            let oracle = dom.identities(xpath).unwrap();
            assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
            bench.engine_mut().options_mut().parallel_workers = 1;
            let serial = bench.engine().query(xpath).unwrap();
            assert_eq!(
                bench.identities(xpath).unwrap(),
                oracle,
                "{name}: serial != DOM oracle"
            );
            bench.engine_mut().options_mut().parallel_workers = workers;
            let parallel = bench.engine().query(xpath).unwrap();
            assert_eq!(parallel, serial, "{name} ({workers}w): parallel != serial");
            assert_eq!(
                bench.identities(xpath).unwrap(),
                oracle,
                "{name} ({workers}w): parallel != DOM oracle"
            );
        }
    }
}

/// Raw pipeline tuple sequences agree too: the ordered merge must
/// reproduce the serial stream exactly, not merely up to reordering
/// fixed by set semantics — whatever the pull size, from one tuple at a
/// time (every chunk a worker hands over is cut) to all at once.
#[test]
fn parallel_streams_equal_serial_streams() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let mut bench = VamanaBench::optimized(&xml);
    // Two threads, four morsels or more a scan: the caller scans some
    // straight into its batch and drains the rest from the worker.
    force_parallel(bench.engine_mut(), 2);
    for (name, xpath) in all_queries() {
        bench.engine_mut().options_mut().parallel_workers = 1;
        let serial = drain_stream(bench.engine(), xpath, BATCH_SIZE);
        bench.engine_mut().options_mut().parallel_workers = 2;
        for max in PULL_SIZES {
            assert_eq!(
                drain_stream(bench.engine(), xpath, max),
                serial,
                "{name}: parallel pulled by {max} != serial tuple order"
            );
        }
    }
    let stats = bench.engine().parallel_stats();
    assert!(
        stats.morsels > stats.workers,
        "scan suite must have fanned out beyond the pool width: {stats:?}"
    );
}
