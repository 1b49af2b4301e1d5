//! The engine's durable-update path: `apply_update` routing mutations
//! through the WAL-logged store, the epoch gate draining in-flight
//! readers instead of panicking, and per-document generation bumps.

use std::sync::Arc;
use std::time::Duration;
use vamana_core::{DocId, Engine, EngineError, EngineOptions, MassStore, SharedEngine, UpdateOp};
use vamana_mass::{FsyncPolicy, MassError};

fn seeded_engine() -> Engine {
    let mut store = MassStore::open_memory();
    store
        .load_xml(
            "auction",
            "<site><people><person id='p0'><name>Ada</name></person>\
             <person id='p1'><name>Grace</name></person></people></site>",
        )
        .unwrap();
    Engine::new(store)
}

#[test]
fn insert_appends_fragment_to_first_match_and_bumps_generation() {
    let mut engine = seeded_engine();
    let doc = DocId(0);
    let gen0 = engine.store().doc_generation(doc);
    let outcome = engine
        .apply_update(
            doc,
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person id='p2'><name>Edsger</name></person>".into(),
            },
        )
        .unwrap();
    assert_eq!(outcome.matched, 1);
    assert!(outcome.inserted >= 4, "element+attr+name+text inserted");
    assert_eq!(outcome.deleted, 0);
    assert!(
        outcome.doc_generation > gen0,
        "update must bump the doc generation"
    );
    assert_eq!(engine.query("//person").unwrap().len(), 3);
    assert_eq!(engine.query("//person[name='Edsger']").unwrap().len(), 1);
}

#[test]
fn delete_removes_every_match() {
    let mut engine = seeded_engine();
    let doc = DocId(0);
    let outcome = engine
        .apply_update(
            doc,
            &UpdateOp::Delete {
                target: "//person".into(),
            },
        )
        .unwrap();
    assert_eq!(outcome.matched, 2);
    assert!(outcome.deleted >= 2);
    assert_eq!(engine.query("//person").unwrap().len(), 0);
    assert_eq!(engine.query("//people").unwrap().len(), 1);
}

#[test]
fn delete_overlapping_matches_skips_already_removed_subtrees() {
    let mut engine = seeded_engine();
    let doc = DocId(0);
    // `//*` matches both `people` and the persons inside it; deleting the
    // `people` subtree removes the persons, and the walk must skip them.
    let outcome = engine
        .apply_update(
            doc,
            &UpdateOp::Delete {
                target: "//people | //person".into(),
            },
        )
        .or_else(|_| {
            // Union syntax may be unsupported; ancestor-then-descendant
            // overlap is equally exercised by //* under people.
            engine.apply_update(
                doc,
                &UpdateOp::Delete {
                    target: "//people/descendant-or-self::*".into(),
                },
            )
        })
        .unwrap();
    assert!(outcome.matched >= 2);
    assert_eq!(engine.query("//person").unwrap().len(), 0);
}

#[test]
fn insert_into_text_node_is_rejected_before_logging() {
    let mut engine = seeded_engine();
    let err = engine
        .apply_update(
            DocId(0),
            &UpdateOp::Insert {
                target: "//name/text()".into(),
                fragment: "<x/>".into(),
            },
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
    // Nothing was applied.
    assert_eq!(engine.query("//x").unwrap().len(), 0);
}

#[test]
fn writer_waits_for_pinned_reader_then_succeeds() {
    let mut engine = seeded_engine();
    let handle = engine.store_handle();
    let pin = std::thread::spawn(move || {
        // Simulate an in-flight parallel reader holding the store.
        std::thread::sleep(Duration::from_millis(60));
        drop(handle);
    });
    let outcome = engine
        .apply_update(
            DocId(0),
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person><name>Late</name></person>".into(),
            },
        )
        .unwrap();
    pin.join().unwrap();
    assert!(
        outcome.profile.writer_wait >= Duration::from_millis(20),
        "writer should have parked at the epoch gate: {:?}",
        outcome.profile.writer_wait
    );
    assert!(engine.writer_wait_total() >= Duration::from_millis(20));
    assert_eq!(engine.query("//person").unwrap().len(), 3);
}

#[test]
fn held_reader_past_deadline_degrades_to_writer_conflict() {
    let mut store = MassStore::open_memory();
    store.load_xml("d", "<r><a/></r>").unwrap();
    let mut engine = Engine::new(store);
    let _pin = engine.store_handle();
    let err = engine
        .apply_update(
            DocId(0),
            &UpdateOp::Delete {
                target: "//a".into(),
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Storage(MassError::WriterConflict)),
        "{err:?}"
    );
    drop(_pin);
    // Once the reader drains, the same update goes through.
    engine
        .apply_update(
            DocId(0),
            &UpdateOp::Delete {
                target: "//a".into(),
            },
        )
        .unwrap();
    assert_eq!(engine.query("//a").unwrap().len(), 0);
}

#[test]
fn concurrent_parallel_readers_see_consistent_results_across_update() {
    // A big document so queries actually fan out to the scan pool.
    let mut xml = String::from("<site>");
    for _ in 0..8 {
        xml.push_str("<section>");
        for i in 0..120 {
            xml.push_str(&format!("<item><price>{}</price></item>", i % 13));
        }
        xml.push_str("</section>");
    }
    xml.push_str("</site>");

    let mut store = MassStore::open_memory();
    store.load_xml("big", &xml).unwrap();
    let options = EngineOptions {
        parallel_workers: 4,
        ..EngineOptions::default()
    };
    let shared = Arc::new(SharedEngine::new(Engine::with_options(store, options)));

    let before = shared.read().query("//item").unwrap().len();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for _ in 0..30 {
                    let n = shared.read().query("//item").unwrap().len();
                    // Readers observe either the pre- or post-update
                    // count, never a torn in-between state.
                    assert!(n == before || n == before + 1, "torn read: {n}");
                }
            });
        }
        let shared = Arc::clone(&shared);
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            shared
                .write()
                .apply_update(
                    DocId(0),
                    &UpdateOp::Insert {
                        target: "/site/section[1]".into(),
                        fragment: "<item><price>999</price></item>".into(),
                    },
                )
                .unwrap();
        });
    });
    assert_eq!(shared.read().query("//item").unwrap().len(), before + 1);
}

/// A plan prepared while a view was valid holds that view's rows. Run
/// after a write it must say so — never hand back the pre-write node set —
/// and a fresh optimize answers from the document again.
#[test]
fn a_prepared_view_plan_is_refused_after_a_write() {
    let mut engine = seeded_engine();
    engine.options_mut().view_admit_after = 1;
    let doc = DocId(0);
    let q = "//person/name";
    assert_eq!(engine.query_doc(doc, q).unwrap().len(), 2); // admits the view
    let prepare = |engine: &Engine| {
        engine
            .optimize_plan(engine.compile(q).unwrap(), doc)
            .unwrap()
            .plan
    };
    let prepared = prepare(&engine);
    assert_eq!(vamana_core::plan_view(&prepared), Some(q));
    assert_eq!(engine.execute_plan(&prepared, doc).unwrap().len(), 2);

    engine
        .apply_update(
            doc,
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person id=\"p9\"><name>Zed</name></person>".into(),
            },
        )
        .unwrap();
    assert!(matches!(
        engine.execute_plan(&prepared, doc),
        Err(EngineError::StalePlan)
    ));
    assert!(matches!(
        engine.stream_plan(prepared, doc).err(),
        Some(EngineError::StalePlan)
    ));
    let fresh = prepare(&engine);
    assert_eq!(vamana_core::plan_view(&fresh), None);
    assert_eq!(engine.execute_plan(&fresh, doc).unwrap().len(), 3);
}

#[test]
fn update_is_wal_logged_on_durable_stores() {
    let dir = std::env::temp_dir().join(format!("vamana-upd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("upd.mass");
    let _ = std::fs::remove_file(&path);

    let doc;
    {
        let store = MassStore::create_durable(&path, 512, FsyncPolicy::Always).unwrap();
        let mut engine = Engine::new(store);
        doc = engine
            .load_xml("d", "<r><list><i>1</i></list></r>")
            .unwrap();
        let outcome = engine
            .apply_update(
                doc,
                &UpdateOp::Insert {
                    target: "//list".into(),
                    fragment: "<i>2</i>".into(),
                },
            )
            .unwrap();
        assert!(outcome.lsn > 0, "durable update must advance the WAL");
        assert!(engine.store().wal_stats().records > 0);
        // Dropped without checkpoint: recovery must replay the update.
    }
    {
        let store = MassStore::open_durable(&path, 512, FsyncPolicy::Always).unwrap();
        let engine = Engine::new(store);
        assert_eq!(engine.query_doc(doc, "//i").unwrap().len(), 2);
    }
    {
        // Checkpoint folds the log into pages and empties it.
        let store = MassStore::open_durable(&path, 512, FsyncPolicy::Always).unwrap();
        let mut engine = Engine::new(store);
        let stats = engine.checkpoint().unwrap();
        assert_eq!(stats.records, 0, "checkpoint must empty the WAL");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
