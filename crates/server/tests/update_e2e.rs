//! End-to-end tests for the server write path: `INSERT`/`DELETE`/
//! `CHECKPOINT` over real sockets, per-document plan-cache
//! invalidation, WAL counters in `STATS`, and the durable round trip —
//! update, kill the server, reopen the file-backed store, query again.

use std::time::Duration;

use vamana_core::Engine;
use vamana_mass::{FsyncPolicy, MassStore};
use vamana_server::testkit::{stat_value, Client};
use vamana_server::{Server, ServerConfig, ServerHandle};

fn spawn_memory_server() -> ServerHandle {
    let mut store = MassStore::open_memory();
    store
        .load_xml(
            "auction",
            "<site><people><person id='p0'><name>Ada</name></person></people></site>",
        )
        .expect("load");
    Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn")
}

#[test]
fn insert_and_delete_round_trip_with_counters() {
    let handle = spawn_memory_server();
    let mut client = Client::connect(&handle);

    let reply =
        client.round_trip("INSERT auction //people <person id='p1'><name>Grace</name></person>");
    assert!(reply[0].starts_with("OK update matched=1"), "{reply:?}");
    assert!(reply[0].contains("deleted=0"), "{reply:?}");
    assert!(reply[0].contains("generation=1"), "{reply:?}");

    let rows = client.round_trip("QUERY //person");
    assert!(rows.last().unwrap().starts_with("OK 2 row(s)"), "{rows:?}");

    // Documents resolve by numeric id too.
    let reply = client.round_trip("DELETE 0 //person[name='Ada']");
    assert!(reply[0].starts_with("OK update matched=1"), "{reply:?}");
    assert!(!reply[0].contains("deleted=0"), "{reply:?}");

    let rows = client.round_trip("QUERY //person");
    assert!(rows.last().unwrap().starts_with("OK 1 row(s)"), "{rows:?}");
    assert!(
        rows.iter().any(|l| l.contains("Grace")),
        "survivor must be Grace: {rows:?}"
    );

    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "updates_total"), 2);
    assert_eq!(stat_value(&stats, "store_durable"), 0);

    // Protocol errors for malformed updates.
    let err = client.round_trip("INSERT auction //people");
    assert!(err[0].starts_with("ERR proto"), "{err:?}");
    let err = client.round_trip("DELETE nosuchdoc //person");
    assert!(err[0].starts_with("ERR query no such document"), "{err:?}");
    handle.stop();
}

#[test]
fn update_invalidates_only_the_target_documents_cached_plans() {
    let handle = spawn_memory_server();
    let mut client = Client::connect(&handle);
    client.round_trip("LOADXML second <r><person><name>Lin</name></person></r>");

    // Warm the cache (one plan per document), then verify a repeat hits.
    // The comparison keeps the query out of the view fragment, so no view
    // admitted on the repeat supersedes the plans this test counts.
    client.round_trip("QUERY //person[name != '']");
    let reply = client.round_trip("QUERY //person[name != '']");
    assert!(reply.last().unwrap().contains("plan=cached"), "{reply:?}");
    let stats = client.round_trip("STATS");
    let hits_before = stat_value(&stats, "plan_cache_hits");
    let misses_before = stat_value(&stats, "plan_cache_misses");

    // Update document 1: its plan is stale, document 0's stays warm.
    let reply = client.round_trip("INSERT second /r <person><name>May</name></person>");
    assert!(reply[0].starts_with("OK update"), "{reply:?}");
    let reply = client.round_trip("QUERY //person[name != '']");
    assert!(
        reply.last().unwrap().contains("plan=compiled"),
        "stale plan for the updated document must recompile: {reply:?}"
    );
    assert!(
        reply.last().unwrap().starts_with("OK 3 row(s)"),
        "{reply:?}"
    );

    let stats = client.round_trip("STATS");
    assert_eq!(
        stat_value(&stats, "plan_cache_hits"),
        hits_before + 1,
        "document 0's plan must still validate: {stats:?}"
    );
    assert_eq!(
        stat_value(&stats, "plan_cache_misses"),
        misses_before + 1,
        "exactly the updated document misses: {stats:?}"
    );
    handle.stop();
}

#[test]
fn durable_update_survives_server_kill_and_reopen() {
    let dir = std::env::temp_dir().join(format!("vamana-srv-upd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.mass");
    let _ = std::fs::remove_file(&path);

    {
        let mut store = MassStore::create_durable(&path, 512, FsyncPolicy::Always).unwrap();
        store
            .load_xml(
                "auction",
                "<site><people><person><name>Ada</name></person></people></site>",
            )
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut client = Client::connect(&handle);
        let reply =
            client.round_trip("INSERT auction //people <person><name>Grace</name></person>");
        assert!(reply[0].starts_with("OK update"), "{reply:?}");
        let reply = client.round_trip("QUERY //person");
        assert!(
            reply.last().unwrap().starts_with("OK 2 row(s)"),
            "{reply:?}"
        );
        let stats = client.round_trip("STATS");
        assert_eq!(stat_value(&stats, "store_durable"), 1);
        assert!(stat_value(&stats, "wal_records") > 0, "{stats:?}");
        assert!(stat_value(&stats, "wal_last_lsn") > 0, "{stats:?}");
        // Kill the server without checkpointing: pages may be stale on
        // disk, the WAL is not.
        handle.stop();
    }

    {
        // Recovery replays the committed update; the engine serves it.
        let store = MassStore::open_durable(&path, 512, FsyncPolicy::Always).unwrap();
        assert!(
            store.wal_stats().replayed_records > 0,
            "must replay the insert"
        );
        let handle = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut client = Client::connect(&handle);
        let reply = client.round_trip("QUERY //person");
        assert!(
            reply.last().unwrap().starts_with("OK 2 row(s)"),
            "{reply:?}"
        );
        assert!(reply.iter().any(|l| l.contains("Grace")), "{reply:?}");
        let stats = client.round_trip("STATS");
        assert!(stat_value(&stats, "wal_replayed_lsn") > 0, "{stats:?}");

        // CHECKPOINT folds the log; a reopen then replays nothing.
        let reply = client.round_trip("CHECKPOINT");
        assert!(reply[0].starts_with("OK checkpoint records=0"), "{reply:?}");
        let stats = client.round_trip("STATS");
        assert_eq!(stat_value(&stats, "wal_depth"), 0);
        assert_eq!(stat_value(&stats, "checkpoints_total"), 1);
        handle.stop();
    }

    {
        let store = MassStore::open_durable(&path, 512, FsyncPolicy::Always).unwrap();
        assert_eq!(
            store.wal_stats().replayed_records,
            0,
            "post-checkpoint reopen must replay nothing"
        );
        let engine = Engine::new(store);
        assert_eq!(engine.query("//person").unwrap().len(), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_run_while_a_writer_holds_the_lane() {
    let handle = spawn_memory_server();
    // One client streams updates while others query; nobody panics,
    // every reply is well-formed, and the final state reflects all
    // updates exactly once.
    let mut seed = Client::connect(&handle);
    for i in 0..4 {
        let reply = seed.round_trip(&format!(
            "INSERT auction //people <person><name>w{i}</name></person>"
        ));
        assert!(reply[0].starts_with("OK update"), "{reply:?}");
    }
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut client = Client::connect(&handle);
                for _ in 0..20 {
                    let reply = client.round_trip("QUERY //person");
                    let ok = reply.last().unwrap();
                    assert!(ok.starts_with("OK"), "{reply:?}");
                }
            });
        }
        scope.spawn(|| {
            let mut client = Client::connect(&handle);
            for i in 4..12 {
                let reply = client.round_trip(&format!(
                    "INSERT auction //people <person><name>w{i}</name></person>"
                ));
                assert!(reply[0].starts_with("OK update matched=1"), "{reply:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    let reply = seed.round_trip("QUERY //person");
    assert!(
        reply.last().unwrap().starts_with("OK 13 row(s)"),
        "{reply:?}"
    );
    let stats = seed.round_trip("STATS");
    assert_eq!(stat_value(&stats, "updates_total"), 12);
    assert_eq!(stat_value(&stats, "errors_total"), 0);
    handle.stop();
}
