//! Concurrency stress: many client threads firing parallel queries at
//! one [`SharedEngine`] while a writer interleaves document loads.
//!
//! Every query thread holds a read lock, so each query sees a stable
//! store; inside that guard, parallel and serial execution of
//! the same query must agree exactly. The writer takes the write lock
//! between loads, exercising pool reuse across store generations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vamana_core::{DocId, Engine, EngineOptions, MassStore, SharedEngine};

fn shared_engine() -> Arc<SharedEngine> {
    let mut xml = String::from("<site>");
    for s in 0..8 {
        xml.push_str(&format!("<section id='s{s}'>"));
        for i in 0..120 {
            xml.push_str(&format!("<item><name>n{s}_{i}</name></item>"));
        }
        xml.push_str("</section>");
    }
    xml.push_str("</site>");
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &xml).unwrap();
    let engine = Engine::with_options(
        store,
        EngineOptions {
            parallel_workers: 4,
            parallel_force: true,
            // Every round must scan, not read a view of an earlier round.
            view_admit_after: u32::MAX,
            ..Default::default()
        },
    );
    Arc::new(SharedEngine::new(engine))
}

#[test]
fn eight_threads_of_parallel_queries_with_interleaved_loads() {
    let shared = shared_engine();
    let stop = Arc::new(AtomicBool::new(false));
    const QUERIES: &[&str] = &["//*", "/site//*", "//item/*", "//section/item"];

    std::thread::scope(|scope| {
        for t in 0..8 {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let xpath = QUERIES[(t + round) % QUERIES.len()];
                    // One read guard for the whole comparison: the store
                    // cannot change between the two runs.
                    let engine = shared.read();
                    let parallel = engine.query_doc(DocId(0), xpath).unwrap();
                    let mut serial = Vec::new();
                    let mut stream = engine.stream(DocId(0), xpath).unwrap();
                    while let Some(e) = stream.next().unwrap() {
                        serial.push(e);
                    }
                    serial.sort_by(|a, b| a.key.cmp(&b.key));
                    serial.dedup();
                    assert_eq!(parallel, serial, "thread {t}, round {round}: {xpath}");
                    assert!(!parallel.is_empty(), "{xpath} returned nothing");
                    drop(engine);
                    round += 1;
                }
                assert!(round > 0, "thread {t} never completed a round");
            });
        }
        // Writer: interleave loads, each bumping the store generation and
        // requiring exclusive store access (all worker Arcs reaped).
        let writer_shared = Arc::clone(&shared);
        let writer_stop = Arc::clone(&stop);
        scope.spawn(move || {
            for i in 0..10 {
                let g0 = writer_shared.generation();
                writer_shared
                    .load_xml(&format!("extra{i}"), "<r><x>1</x><x>2</x></r>")
                    .unwrap();
                assert!(writer_shared.generation() > g0);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            writer_stop.store(true, Ordering::Relaxed);
        });
    });

    // The pool actually ran parallel work during the stress.
    let stats = shared.read().parallel_stats();
    assert!(stats.morsels > 0, "no parallel scans ran under stress");
    assert!(stats.worker_batches > 0);
    // And all interleaved documents arrived intact.
    assert_eq!(shared.read().store().documents().len(), 11);
}
