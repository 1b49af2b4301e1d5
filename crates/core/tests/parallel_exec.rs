//! Differential correctness of morsel-parallel scans, and the behaviour
//! of the hand-off and the run-time gate.
//!
//! A fanned-out scan must be observably identical to the serial one,
//! under every pull size: same nodes, same order, for both morsel shapes (page runs of one descendant scan and
//! slices of a context list). Which thread scans a morsel is a race by
//! design — the caller takes whatever is unclaimed — so tests that need
//! a worker's output open a stream and hold off pulling until a worker
//! has pushed a chunk (`stream_after_worker_output`).

use std::sync::Arc;
use std::time::{Duration, Instant};
use vamana_core::exec::parallel::host_cpus;
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, EngineOptions, MassStore, NodeEntry, QueryStream, UpdateOp};

/// `sections` × `items` items of two children each under one root.
fn doc(sections: usize, items: usize) -> String {
    let mut xml = String::from("<site>");
    for s in 0..sections {
        xml.push_str(&format!("<section id='s{s}'>"));
        for i in 0..items {
            xml.push_str(&format!(
                "<item><name>n{s}_{i}</name><price>{}</price></item>",
                i % 17
            ));
        }
        xml.push_str("</section>");
    }
    xml.push_str("</site>");
    xml
}

fn engine_over(xml: &str, options: EngineOptions) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", xml).unwrap();
    Engine::with_options(store, options)
}

/// ~3600 elements, every eligible scan forced out over `workers` threads.
/// No view is ever admitted: a repeated query must reach the scan again,
/// not a materialized copy of its result.
fn engine(workers: usize) -> Engine {
    engine_over(
        &doc(12, 100),
        EngineOptions {
            parallel_workers: workers,
            parallel_force: true,
            view_admit_after: u32::MAX,
            ..Default::default()
        },
    )
}

/// Queries over `doc(12, 100)` with the row count its construction gives.
const QUERIES: &[(&str, usize)] = &[
    ("//*", 3613),                  // range morsels: whole-document descendant scan
    ("/site//*", 3612),             // range morsels under an element subtree
    ("//node()", 6013),             // AnyNode test through the same scan
    ("//item/*", 2400),             // context slices: thousands of item contexts
    ("//section/item", 1200),       // named test: must stay serial, still correct
    ("//item[price='3']/name", 72), // predicates below the output step
];

/// Opens a stream and returns once a pool worker has pushed a chunk of
/// it (the caller has claimed only morsel 0 and pulls nothing, so the
/// workers run ahead to the claim window).
fn stream_after_worker_output<'e>(e: &'e Engine, xpath: &str) -> QueryStream<'e> {
    let before = e.parallel_stats();
    let stream = e.stream(DocId(0), xpath).unwrap();
    assert!(
        e.parallel_stats().morsels > before.morsels,
        "{xpath} did not fan out"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while e.parallel_stats().worker_batches == before.worker_batches {
        assert!(Instant::now() < deadline, "{xpath}: no worker output");
        std::thread::yield_now();
    }
    stream
}

fn drain(mut stream: QueryStream<'_>) -> Vec<NodeEntry> {
    let mut out = Vec::new();
    while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
    out
}

#[test]
fn parallel_equals_serial_under_every_pull_size() {
    for workers in [2, 4] {
        let mut e = engine(workers);
        for &(xpath, rows) in QUERIES {
            e.options_mut().parallel_workers = 1;
            let serial = e.query(xpath).unwrap();
            e.options_mut().parallel_workers = workers;
            assert_eq!(serial.len(), rows, "{xpath}");
            assert!(serial.windows(2).all(|w| w[0].key < w[1].key), "{xpath}");
            assert_eq!(e.query(xpath).unwrap(), serial, "{xpath} ({workers}w)");
            for max in [1, 2, 3, 7, BATCH_SIZE, usize::MAX] {
                let mut stream = e.stream(DocId(0), xpath).unwrap();
                let mut out = Vec::new();
                while stream.next_batch(&mut out, max).unwrap() == max {}
                assert_eq!(stream.next_batch(&mut out, max).unwrap(), 0);
                assert_eq!(out, serial, "{xpath} ({workers}w) pulled by {max}");
            }
        }
    }
}

#[test]
fn parallel_streams_preserve_document_order() {
    // The ordered merge must re-emit strict document order tuple by
    // tuple, not just after set-semantics sorting — with the workers'
    // chunks in the sequence, not only the caller's own morsels.
    let e = engine(4);
    for xpath in ["//*", "/site//*", "//item/*"] {
        let mut stream = stream_after_worker_output(&e, xpath);
        let mut out = Vec::new();
        while let Some(t) = stream.next().unwrap() {
            out.push(t);
        }
        assert!(
            out.windows(2).all(|w| w[0].key < w[1].key),
            "{xpath}: stream out of document order"
        );
        assert_eq!(out, e.query(xpath).unwrap(), "{xpath}");
    }
}

#[test]
fn two_threads_cut_more_morsels_than_threads() {
    // Two morsels per thread at least, so a thread that starts late
    // leaves the other something to take.
    let e = engine(2);
    let before = e.parallel_stats();
    assert_eq!(before.morsels, 0, "pool must start idle");
    let rows = drain(stream_after_worker_output(&e, "//*"));
    assert!(rows.len() > 3000);
    let after = e.parallel_stats();
    assert!(
        after.morsels > 2,
        "expected more morsels than the 2 threads, got {}",
        after.morsels
    );
    assert_eq!(after.workers, 2);
}

#[test]
fn contexts_are_coalesced_into_full_chunks() {
    // 4800 item contexts of two rows each: a batch per context (what the
    // hand-off used to do) is thousands of batches; coalesced, a morsel
    // of 1200 contexts crosses two chunk boundaries and hands over three.
    let e = engine_over(
        &doc(12, 400),
        EngineOptions {
            parallel_workers: 2,
            parallel_force: true,
            ..Default::default()
        },
    );
    let before = e.parallel_stats();
    let rows = drain(stream_after_worker_output(&e, "//item/*"));
    assert_eq!(rows.len(), 9600);
    let after = e.parallel_stats();
    let morsels = after.morsels - before.morsels;
    let batches = after.worker_batches - before.worker_batches;
    assert!(batches > 0);
    assert!(
        batches <= rows.len() as u64 / BATCH_SIZE as u64 + morsels,
        "{batches} batches for {} rows in {morsels} morsels",
        rows.len()
    );
    let mut serial = e;
    serial.options_mut().parallel_workers = 1;
    assert_eq!(rows, serial.query("//item/*").unwrap());
}

#[test]
fn small_subtree_stays_serial_where_the_whole_document_fans_out() {
    if host_cpus() < 2 {
        eprintln!("skipped: one CPU, the gate never fans out");
        return;
    }
    // Default options: the gate sizes each run. Same plan shape, same
    // plan-time COUNT (the whole document's); what differs is the page
    // span the executor sees once it holds the context.
    let e = engine_over(&doc(40, 400), EngineOptions::default());
    let whole = e.analyze_doc(DocId(0), "/site//*").unwrap();
    assert!(whole.profile.morsels > 0, "{}", whole.opt_trace.render());
    assert!(whole.opt_trace.render().contains("✓ fanned out"));
    let small = e
        .analyze_doc(DocId(0), "/site/section[@id='s7']//*")
        .unwrap();
    assert_eq!(small.rows, 1200);
    assert_eq!(small.profile.morsels, 0, "{}", small.opt_trace.render());
    let trace = small.opt_trace.render();
    assert!(trace.contains("✓ eligible"), "{trace}");
    assert!(trace.contains("✗ declined at run time"), "{trace}");
    assert!(trace.contains("below break-even"), "{trace}");
    assert!(small.render_json().contains("\"fanned_out\":false"));
    // Context lists likewise, by the pages from their first context's
    // subtree to their last's.
    let whole = e.analyze_doc(DocId(0), "//item/*").unwrap();
    assert!(whole.profile.morsels > 0, "{}", whole.opt_trace.render());
    let small = e
        .analyze_doc(DocId(0), "/site/section[@id='s7']/item/*")
        .unwrap();
    assert_eq!(small.rows, 800);
    let trace = small.opt_trace.render();
    assert!(trace.contains("contexts=400 "), "{trace}");
    assert!(trace.contains("✗ declined at run time"), "{trace}");
}

#[test]
fn one_worker_means_serial_and_no_pool() {
    let e = engine(1);
    for xpath in ["//*", "//item/*"] {
        assert!(!e.query(xpath).unwrap().is_empty());
    }
    // No pool was ever created, let alone a thread.
    assert_eq!(e.parallel_stats(), Default::default());
}

#[test]
fn profile_reports_parallel_counters() {
    let e = engine(4);
    let (rows, profile) = e.query_doc_profiled(DocId(0), "//*").unwrap();
    assert_eq!(profile.rows, rows.len() as u64);
    assert!(profile.morsels > 0, "parallel query reported no morsels");
    // Whether a worker got to a morsel before the caller had scanned
    // them all is a race; over enough runs one does.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut profile = profile;
    while profile.worker_batches == 0 {
        assert!(Instant::now() < deadline, "no run reported a worker batch");
        profile = e.query_doc_profiled(DocId(0), "//*").unwrap().1;
    }
    assert!(profile.worker_batches <= rows.len() as u64);
    // A serial query on the same engine reports zero parallel work.
    let (_, serial) = e.query_doc_profiled(DocId(0), "//section/item").unwrap();
    assert_eq!(serial.morsels, 0);
    assert_eq!(serial.worker_batches, 0);
}

#[test]
fn dropped_stream_releases_the_store_at_once() {
    // Abandoning a parallel stream mid-scan, with workers inside their
    // morsels, must leave no store clone behind: the drop itself waits
    // for them (on a condvar), so the writer that follows does not.
    let mut e = engine(4);
    {
        let mut stream = stream_after_worker_output(&e, "//*");
        assert!(stream.next().unwrap().is_some());
        // Drop with thousands of tuples unconsumed.
    }
    let handle = e.store_handle();
    assert_eq!(Arc::strong_count(&handle), 2, "engine + this handle");
    drop(handle);
    let outcome = e
        .apply_update(
            DocId(0),
            &UpdateOp::Insert {
                target: "/site".into(),
                fragment: "<extra/>".into(),
            },
        )
        .unwrap();
    // The epoch gate polls in 1 ms steps when it has to wait at all.
    assert!(outcome.profile.writer_wait < Duration::from_millis(1));
    let doc2 = e.load_xml("second", "<r><x>1</x></r>").unwrap();
    assert_eq!(e.query_doc(doc2, "//x").unwrap().len(), 1);
}

#[test]
fn a_serial_engine_keeps_the_plan_annotation() {
    // The optimizer records eligibility even on an engine with one scan
    // thread, so cached plans fan out once it is given more.
    let mut e = engine(4);
    e.options_mut().parallel_workers = 1;
    let plan = e.compile("//*").unwrap();
    let outcome = e.optimize_plan(plan, DocId(0)).unwrap();
    let choice = outcome.plan.parallel().expect("choice must be recorded");
    assert!(choice.estimated > 3000);
    // Executing on one thread stays serial...
    let before = e.parallel_stats();
    let serial_rows = e.execute_plan(&outcome.plan, DocId(0)).unwrap();
    assert_eq!(e.parallel_stats().morsels, before.morsels);
    // ...and a wider engine fans the *same* plan out with equal results.
    e.options_mut().parallel_workers = 4;
    let parallel_rows = e.execute_plan(&outcome.plan, DocId(0)).unwrap();
    assert!(e.parallel_stats().morsels > before.morsels);
    assert_eq!(parallel_rows, serial_rows);
}
