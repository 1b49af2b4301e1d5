//! The engine's durable-update path: `apply_update` routing mutations
//! through the WAL-logged store, a leaked stream refusing a write instead
//! of racing it, and per-document generation bumps.

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

/// The engine's write lock keeps writers from readers, and a stream's
/// drop returns the store clones its scan's workers held. A stream that
/// is never dropped keeps them: the next write is refused, not run.
#[test]
fn a_leaked_parallel_stream_refuses_the_next_write() {
    let mut xml = String::from("<r>");
    for i in 0..2000 {
        xml.push_str(&format!("<a>{i}</a>"));
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("d", &xml).unwrap();
    let options = EngineOptions {
        parallel_workers: 2,
        parallel_force: true,
        ..EngineOptions::default()
    };
    let mut engine = Engine::with_options(store, options);
    let delete = UpdateOp::Delete {
        target: "//a[1]".into(),
    };
    {
        let mut stream = engine.stream(DocId(0), "//*").unwrap();
        assert_eq!(stream.next_batch(&mut Vec::new(), 1).unwrap(), 1);
        assert!(
            engine.parallel_stats().morsels > 0,
            "the scan did not fan out"
        );
        std::mem::forget(stream);
    }
    let err = engine.apply_update(DocId(0), &delete).unwrap_err();
    assert!(
        matches!(err, EngineError::Storage(MassError::WriterConflict)),
        "{err:?}"
    );
    assert_eq!(engine.query("//a").unwrap().len(), 2000, "nothing applied");
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

/// A query the result memo keeps is answered from it until a write to
/// its document; the next run returns the post-write set, and a plan
/// prepared before the write runs against the document as it is now.
#[test]
fn a_repeated_query_after_a_write_returns_the_post_write_set() {
    let mut engine = seeded_engine();
    engine.options_mut().view_admit_after = 1;
    let doc = DocId(0);
    let q = "//person/name";
    let before = engine.query_doc(doc, q).unwrap();
    assert_eq!(before.len(), 2);
    assert_eq!(engine.query_doc(doc, q).unwrap(), before);
    assert_eq!(engine.views().stats().hits, 1);
    let prepared = engine
        .optimize_plan(engine.compile(q).unwrap(), doc)
        .unwrap()
        .plan;

    engine
        .apply_update(
            doc,
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person id=\"p9\"><name>Zed</name></person>".into(),
            },
        )
        .unwrap();
    let after = engine.query_doc(doc, q).unwrap();
    assert_eq!(after.len(), 3);
    assert_eq!(engine.string_values(&after).unwrap()[2], "Zed");
    assert_eq!(engine.query_doc(doc, q).unwrap(), after);
    assert_eq!(engine.views().stats().hits, 2);
    assert_eq!(engine.execute_plan(&prepared, doc).unwrap(), after);
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

/// A `DELETE` whose target matches nested and sibling nodes removes each
/// subtree once, as one logged operation, and the store reopens to it.
#[test]
fn a_multi_match_delete_is_one_logged_operation() {
    let dir = std::env::temp_dir().join(format!("vamana-multi-del-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("del.mass");
    let _ = std::fs::remove_file(&path);
    let doc;
    {
        let store = MassStore::create_durable(&path, 512, FsyncPolicy::Never).unwrap();
        let mut engine = Engine::new(store);
        doc = engine
            .load_xml("d", "<r><s><t><s/></t></s><s/><k/></r>")
            .unwrap();
        let (wal, tuples) = (engine.store().wal_stats(), engine.store().stats().tuples);
        let generation = engine.store().doc_generation(doc);
        let outcome = engine
            .apply_update(
                doc,
                &UpdateOp::Delete {
                    target: "//s".into(),
                },
            )
            .unwrap();
        assert_eq!(outcome.matched, 3);
        // The outer `s` with its `t` and inner `s`, and the sibling `s`.
        assert_eq!(outcome.deleted, 4);
        assert_eq!(tuples - engine.store().stats().tuples, 4);
        let after = engine.store().wal_stats();
        assert_eq!(after.commits - wal.commits, 1, "one commit");
        assert_eq!(after.records - wal.records, 2, "one record per subtree");
        assert_eq!(outcome.doc_generation, generation + 1);
        assert!(engine.query_doc(doc, "//s | //t").unwrap().is_empty());
    }
    let engine = Engine::new(MassStore::open_durable(&path, 512, FsyncPolicy::Never).unwrap());
    assert!(engine.query_doc(doc, "//s | //t").unwrap().is_empty());
    assert_eq!(engine.query_doc(doc, "//k").unwrap().len(), 1);
    assert_eq!(engine.store().stats().tuples, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
