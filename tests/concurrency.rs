//! Concurrent read access: queries take `&Engine`, and the MASS buffer
//! pool synchronizes internally, so many threads can query the same
//! store simultaneously. These tests pin that property down (including
//! the `Send + Sync` bounds) and check results stay correct under
//! parallel load, and through the query cache beside a writer.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use vamana::baseline::{dom::DomEngine, NodeIdentity, XPathEngine};
use vamana::core::UpdateOp;
use vamana::xmark::{generate_string, XmarkConfig};
use vamana::{DocId, Engine, MassStore, SharedEngine};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn store_and_engine_are_send_and_sync() {
    assert_send_sync::<MassStore>();
    assert_send_sync::<Engine>();
    assert_send_sync::<SharedEngine>();
}

#[test]
fn parallel_queries_agree_with_serial_execution() {
    let xml = generate_string(&XmarkConfig::with_scale(0.005));
    let mut store = MassStore::open_memory_with_capacity(16); // force pool contention
    store.load_xml("auction.xml", &xml).unwrap();
    let engine = Engine::new(store);

    let queries = [
        "//person/address",
        "//watches/watch/ancestor::person",
        "//province[text()='Vermont']/ancestor::person",
        "//itemref/following-sibling::price/parent::*",
        "//person[@id='person3']",
    ];
    let expected: Vec<usize> = queries
        .iter()
        .map(|q| engine.query(q).unwrap().len())
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for round in 0..5 {
                    for (q, want) in queries.iter().zip(&expected) {
                        let got = engine.query(q).unwrap().len();
                        assert_eq!(got, *want, "{q} differed in round {round}");
                    }
                }
            });
        }
    });
}

/// Serving-layer acceptance: eight threads issuing a mixed query load
/// against one shared engine must each see exactly the node sets (keys,
/// not just cardinalities) that single-threaded execution produces.
#[test]
fn eight_threads_mixed_queries_match_single_threaded_results() {
    let xml = generate_string(&XmarkConfig::with_scale(0.005));
    let mut store = MassStore::open_memory_with_capacity(16); // force pool contention
    store.load_xml("auction.xml", &xml).unwrap();
    let engine = Arc::new(Engine::new(store));

    let queries = [
        "//person/name",
        "//open_auction/bidder",
        "//address[province]",
        "//closed_auction/itemref",
        "//category",
        "//person[watches]",
    ];
    let expected: Vec<_> = queries.iter().map(|q| engine.query(q).unwrap()).collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = Arc::clone(&engine);
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..6 {
                    // Each thread starts at a different query so the mix
                    // genuinely interleaves.
                    let i = (t + round) % queries.len();
                    let got = engine.query(queries[i]).unwrap();
                    assert_eq!(got, expected[i], "{} in round {round}", queries[i]);
                }
            });
        }
    });
}

/// A load adds a document and changes none: the store generation moves,
/// but the cached plans of the documents already loaded stay valid (their
/// generations do not) and the new document gets entries of its own. A
/// write to a document is what drops its entries.
#[test]
fn plan_cache_entries_are_invalidated_by_load_xml() {
    let mut store = MassStore::open_memory();
    store.load_xml("first", "<r><a>1</a></r>").unwrap();
    let shared = SharedEngine::new(Engine::new(store));
    // The counters count lookups: an entry found is a hit whether it holds
    // a kept answer or only a plan.
    let q = "//a";
    assert_eq!(shared.read().query(q).unwrap().len(), 1);
    let cache = Arc::clone(shared.read().views());
    assert_eq!(cache.counters(), (0, 1));

    let generation = shared.generation();
    shared.load_xml("second", "<r><a>2</a></r>").unwrap();
    assert!(
        shared.generation() > generation,
        "load_xml must bump the store generation"
    );
    assert_eq!(shared.read().query(q).unwrap().len(), 2);
    assert_eq!(
        cache.counters(),
        (1, 2),
        "the first document's plan is reused, the second's compiled"
    );
    assert_eq!(cache.len(), 2);

    let delete = UpdateOp::Delete {
        target: "//a".into(),
    };
    shared.write().apply_update(DocId(0), &delete).unwrap();
    assert_eq!(cache.len(), 2, "the write keeps the first document's entry");
    assert_eq!(shared.read().query(q).unwrap().len(), 1);
    // The delete took the first document's count of `a` past a magnitude
    // (a page of tuples is the whole store here), so its plan was made
    // afresh: a miss; the second document's plan held.
    assert_eq!(cache.replans(), 1);
    assert_eq!(cache.counters(), (2, 3));
}

/// Readers query through the engine's cache between the inserts of one
/// writer: a barrier makes every generation one phase in which three
/// readers, concurrently, ask every query twice (so the second finds the
/// entry the first made). Each read takes the document's generation under
/// the same guard as its query and must see exactly the DOM answer of the
/// document at that generation: no plan or kept answer outlives the write
/// that made it stale.
#[test]
fn cached_reads_beside_a_writer_match_the_dom_at_their_generation() {
    const WRITES: usize = 24;
    const QUERIES: [&str; 3] = [
        "//person/name",
        "//person[name != 'p0']/name", // value comparison
        "//name/parent::person",       // reverse step
    ];
    let xml = |persons: usize| {
        let people: String = (0..persons)
            .map(|i| format!("<person><name>p{i}</name></person>"))
            .collect();
        format!("<site><people>{people}</people></site>")
    };
    let insert = |i: usize| UpdateOp::Insert {
        target: "/site/people".into(),
        fragment: format!("<person><name>p{i}</name></person>"),
    };
    let engine_of = |xml: &str| {
        let mut store = MassStore::open_memory();
        store.load_xml("d", xml).unwrap();
        Engine::new(store)
    };
    let doc = DocId(0);

    // The DOM answer of every query at every generation the writer passes
    // through, the generations read off a second engine given the same
    // writes.
    let mut reference = engine_of(&xml(1));
    let mut expected: HashMap<u64, Vec<Vec<NodeIdentity>>> = HashMap::new();
    for persons in 1..=WRITES + 1 {
        if persons > 1 {
            reference.apply_update(doc, &insert(persons - 1)).unwrap();
        }
        let dom = DomEngine::from_xml(&xml(persons)).unwrap();
        let answers = QUERIES.iter().map(|q| dom.identities(q).unwrap()).collect();
        expected.insert(reference.store().doc_generation(doc), answers);
    }
    assert_eq!(
        expected.len(),
        WRITES + 1,
        "every write moves the generation"
    );

    let shared = SharedEngine::new(engine_of(&xml(1)));
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let (shared, barrier, expected) = (&shared, &barrier, &expected);
            scope.spawn(move || {
                for _ in 0..=WRITES {
                    for round in 0..2 * QUERIES.len() {
                        let q = (t + round) % QUERIES.len();
                        let engine = shared.read();
                        let generation = engine.store().doc_generation(doc);
                        let got = engine.query_doc(doc, QUERIES[q]).unwrap();
                        let got: Vec<NodeIdentity> = engine
                            .names_of(&got)
                            .unwrap()
                            .into_iter()
                            .zip(engine.string_values(&got).unwrap())
                            .map(|(name, value)| NodeIdentity { name, value })
                            .collect();
                        assert_eq!(
                            got, expected[&generation][q],
                            "{} at generation {generation}",
                            QUERIES[q]
                        );
                    }
                    barrier.wait(); // this generation's reads are done
                    barrier.wait(); // the next write has landed
                }
            });
        }
        for i in 1..=WRITES + 1 {
            barrier.wait();
            if i <= WRITES {
                shared.write().apply_update(doc, &insert(i)).unwrap();
            }
            barrier.wait();
        }
    });
    let (hits, _) = shared.read().views().counters();
    assert!(hits >= (9 * (WRITES + 1)) as u64, "{hits} lookups hit");
}

#[test]
fn parallel_mixed_queries_and_scalar_evaluation() {
    let xml = generate_string(&XmarkConfig::with_scale(0.005));
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).unwrap();
    let engine = Engine::new(store);
    let persons = engine.query("//person").unwrap().len() as f64;

    std::thread::scope(|scope| {
        let count_thread = scope.spawn(|| {
            for _ in 0..20 {
                match engine.evaluate(DocId(0), "count(//person)").unwrap() {
                    vamana::Value::Num(n) => assert_eq!(n, persons),
                    other => panic!("{other:?}"),
                }
            }
        });
        let query_thread = scope.spawn(|| {
            for _ in 0..20 {
                assert!(!engine.query("//name").unwrap().is_empty());
            }
        });
        count_thread.join().unwrap();
        query_thread.join().unwrap();
    });
}
