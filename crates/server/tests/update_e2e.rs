//! End-to-end tests for the server write path: `INSERT`/`DELETE`/
//! `CHECKPOINT` over real sockets, per-document plan-cache
//! invalidation, WAL counters in `STATS`, and the durable round trip —
//! update, kill the server, reopen the file-backed store, query again.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

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
fn update_drops_only_the_target_documents_answers() {
    let handle = spawn_memory_server();
    let mut client = Client::connect(&handle);
    client.round_trip("LOADXML second <r><person><name>Lin</name></person></r>");

    // Warm the cache (one entry per document, each answer kept on the
    // repeat). The counters count lookups: an entry found is a hit whether
    // it serves the answer kept or only its plan.
    client.round_trip("QUERY //person");
    let reply = client.round_trip("QUERY //person");
    assert!(reply.last().unwrap().contains("plan=cached"), "{reply:?}");
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_views"), 2, "{stats:?}");
    let hits_before = stat_value(&stats, "plan_cache_hits");
    let misses_before = stat_value(&stats, "plan_cache_misses");

    // Update document 1: its answer goes, document 0's stays, and both
    // plans stay.
    let reply = client.round_trip("INSERT second /r <person><name>May</name></person>");
    assert!(reply[0].starts_with("OK update"), "{reply:?}");
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_views"), 1, "{stats:?}");
    assert_eq!(stat_value(&stats, "plan_cache_size"), 2, "{stats:?}");

    // A page of tuples is the whole store here, so the insert moved the
    // counts document 1's plan was priced on: it is made afresh.
    let reply = client.round_trip("QUERY //person");
    assert!(
        reply.last().unwrap().contains("plan=compiled"),
        "a plan priced on counts that moved must be made afresh: {reply:?}"
    );
    assert!(
        reply.last().unwrap().starts_with("OK 3 row(s)"),
        "{reply:?}"
    );

    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "plan_cache_replans"), 1, "{stats:?}");
    assert_eq!(
        stat_value(&stats, "plan_cache_hits"),
        hits_before + 1,
        "document 0's entry must still be found: {stats:?}"
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

/// An update waits for the engine's readers to leave, and says so: the
/// reply's `writer_wait=` and `STAT writer_wait_us` are that wait.
#[test]
fn an_update_behind_a_reader_reports_its_wait() {
    let handle = spawn_memory_server();
    let shared = handle.shared();
    let reply = std::thread::scope(|scope| {
        let reader = shared.engine().read();
        let insert = scope.spawn(|| {
            let mut client = Client::connect(&handle);
            client.round_trip("INSERT auction //people <person><name>Late</name></person>")
        });
        // Hold the engine 30 ms from the moment the update is running.
        let until = Instant::now() + Duration::from_secs(5);
        while shared.metrics().active_workers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < until, "the update never started");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        drop(reader);
        insert.join().unwrap()
    });
    let waited: u64 = reply[0]
        .split_once("writer_wait=")
        .and_then(|(_, rest)| rest.split_once("us "))
        .and_then(|(us, _)| us.parse().ok())
        .unwrap_or_else(|| panic!("no writer_wait in {reply:?}"));
    assert!(waited >= 1000, "{reply:?}");
    let mut client = Client::connect(&handle);
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "writer_wait_us") >= waited, "{stats:?}");
    handle.stop();
}
