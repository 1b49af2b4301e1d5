//! Replication end-to-end tests: a real primary server, real follower
//! processes (the `vamana-replica` binary) and in-process replicas,
//! covering the acceptance criteria of the replication issue —
//! `kill -9` a follower mid-stream, restart it, and watch it resume
//! from its applied LSN and converge to a byte-identical store; a
//! checkpoint while a follower is disconnected must not strand it; and
//! multiple followers converge after a write burst.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vamana_core::Engine;
use vamana_mass::{FsyncPolicy, MassStore, StoreFormat};
use vamana_replica::{Replica, ReplicaConfig, ReplicaHandle};
use vamana_server::testkit::{lag_value, stat_value, Client};
use vamana_server::{Server, ServerConfig, ServerHandle};

const DEADLINE: Duration = Duration::from_secs(20);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vamana-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A primary with one small document loaded before the server binds
/// (so a fresh follower must take the snapshot path).
fn spawn_primary(path: &Path, config: ServerConfig) -> ServerHandle {
    spawn_primary_as(path, config, StoreFormat::default())
}

/// [`spawn_primary`] with its pages in `format`.
fn spawn_primary_as(path: &Path, config: ServerConfig, format: StoreFormat) -> ServerHandle {
    let mut store = MassStore::create_durable(path, 512, FsyncPolicy::Never).unwrap();
    store.set_format(format).unwrap();
    store
        .load_xml(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )
        .unwrap();
    Server::bind("127.0.0.1:0", Engine::new(store), config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn start_replica(primary: SocketAddr, data: &Path) -> ReplicaHandle {
    Replica::start(ReplicaConfig {
        primary: primary.to_string(),
        data: data.to_path_buf(),
        fsync: FsyncPolicy::Never,
        ..ReplicaConfig::default()
    })
    .expect("start replica")
}

fn primary_last_lsn(client: &mut Client) -> u64 {
    lag_value(&client.round_trip("LAG"), "last_lsn")
}

/// Polls the follower's `LAG` until `applied_lsn` reaches `target`.
fn wait_applied(client: &mut Client, target: u64) {
    let until = Instant::now() + DEADLINE;
    loop {
        let lag = client.round_trip("LAG");
        if lag_value(&lag, "applied_lsn") >= target {
            return;
        }
        assert!(
            Instant::now() < until,
            "no convergence to {target}: {lag:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Row-level fingerprint over the wire: full scans plus counts, taken
/// through the same protocol both roles serve.
fn wire_fingerprint(client: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    client.round_trip("LIMIT 0");
    for q in [
        "QUERY //person/name",
        "QUERY //people",
        "EVAL count(//person)",
        "EVAL count(//name)",
    ] {
        let mut lines = client.round_trip(q);
        let ok = lines.pop().unwrap();
        assert!(!ok.starts_with("ERR"), "{q}: {ok}");
        // Keep the stable prefix of the OK line (cardinality), drop the
        // per-run plan/latency details.
        let stable = if ok.starts_with("OK scalar") {
            "OK scalar".to_string()
        } else {
            ok.split(" plan=").next().unwrap().to_string()
        };
        lines.push(stable);
        out.extend(lines);
    }
    out
}

/// Store-level fingerprint: every document exported back to XML, in
/// catalog order, plus the replicated LSN. Byte-identical exports at
/// equal LSN are the strongest convergence check we have.
fn store_fingerprint(path: &Path) -> (u64, Vec<(String, String)>) {
    let store = MassStore::open_durable(path, 512, FsyncPolicy::Never).unwrap();
    let docs = store
        .documents()
        .iter()
        .map(|d| {
            let xml = vamana_mass::export::export_subtree_xml(&store, &d.doc_key).unwrap();
            (d.name.to_string(), xml)
        })
        .collect();
    (store.replicated_lsn(), docs)
}

#[test]
fn follower_streams_commits_serves_reads_and_redirects_writes() {
    let dir = temp_dir("stream");
    let handle = spawn_primary(&dir.join("primary.mass"), ServerConfig::default());
    let mut primary = Client::connect(&handle);

    let replica = start_replica(handle.addr(), &dir.join("replica.mass"));
    let mut follower = Client::connect_addr(replica.addr());

    // Fresh follower: the load predates the ring, so it snapshots.
    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    let stats = follower.round_trip("STATS");
    assert_eq!(stat_value(&stats, "repl_snapshots"), 1, "{stats:?}");

    // Prime the follower's plan cache, then write on the primary: the
    // replayed commit must bump the document generation and invalidate.
    let before = follower.round_trip("QUERY //person/name");
    assert!(
        before.last().unwrap().starts_with("OK 1 row(s)"),
        "{before:?}"
    );
    for i in 0..10 {
        let reply = primary.round_trip(&format!(
            "INSERT auction //people <person><name>w{i}</name></person>"
        ));
        assert!(reply[0].starts_with("OK update"), "{reply:?}");
    }
    // A document loaded mid-stream replicates as a logical record too.
    let reply = primary.round_trip("LOADXML tiny <r><name>late</name></r>");
    assert!(reply[0].starts_with("OK loaded"), "{reply:?}");

    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    assert_eq!(
        wire_fingerprint(&mut follower),
        wire_fingerprint(&mut primary),
        "follower must serve the primary's rows"
    );
    let after = follower.round_trip("QUERY //person/name");
    assert!(
        after.last().unwrap().starts_with("OK 11 row(s)"),
        "{after:?}"
    );

    // Writes are refused with a redirect naming the primary.
    let err = follower.round_trip("INSERT auction //people <person/>");
    assert!(err[0].starts_with("ERR readonly replica"), "{err:?}");
    assert!(err[0].contains(&handle.addr().to_string()), "{err:?}");
    for verb in ["LOADXML d <r/>", "DELETE 0 //person", "CHECKPOINT"] {
        let err = follower.round_trip(verb);
        assert!(err[0].starts_with("ERR readonly replica"), "{err:?}");
    }

    // LAG reports both sides of the pair.
    let lag = follower.round_trip("LAG");
    assert!(lag.contains(&"LAG role replica".to_string()), "{lag:?}");
    assert_eq!(lag_value(&lag, "behind"), 0, "{lag:?}");
    assert_eq!(lag_value(&lag, "connected"), 1, "{lag:?}");
    let lag = primary.round_trip("LAG");
    assert!(lag.contains(&"LAG role primary".to_string()), "{lag:?}");
    assert_eq!(lag_value(&lag, "feeds"), 1, "{lag:?}");

    replica.stop();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

struct FollowerProc {
    child: Child,
    addr: SocketAddr,
}

/// Spawns the real `vamana-replica` binary and waits for its port file.
fn spawn_follower_process(primary: SocketAddr, data: &Path) -> FollowerProc {
    let port_file = data.with_extension("port");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_vamana-replica"))
        .args([
            "--primary",
            &primary.to_string(),
            "--listen",
            "127.0.0.1:0",
            "--data",
            data.to_str().unwrap(),
            "--fsync",
            "never",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vamana-replica");
    let until = Instant::now() + DEADLINE;
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(Instant::now() < until, "follower never wrote {port_file:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    FollowerProc { child, addr }
}

#[test]
fn kill_nine_mid_stream_then_restart_resumes_from_applied_lsn() {
    let dir = temp_dir("kill9");
    let primary_path = dir.join("primary.mass");
    let handle = spawn_primary(&primary_path, ServerConfig::default());
    let mut primary = Client::connect(&handle);
    let data = dir.join("follower.mass");

    // Phase 1: follower sees the snapshot plus a first burst.
    let mut proc1 = spawn_follower_process(handle.addr(), &data);
    for i in 0..30 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>a{i}</name></person>"
        ));
    }
    {
        let mut follower = Client::connect_retry(proc1.addr, DEADLINE);
        wait_applied(&mut follower, primary_last_lsn(&mut primary));
    }

    // Phase 2: keep writing and kill -9 the follower mid-stream.
    for i in 0..20 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>b{i}</name></person>"
        ));
    }
    proc1.child.kill().expect("kill -9");
    proc1.child.wait().expect("reap");
    for i in 0..20 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>c{i}</name></person>"
        ));
    }

    // Phase 3: restart on the same data directory. The local WAL
    // recovered its applied LSN, so the feed resumes — no snapshot.
    let mut proc2 = spawn_follower_process(handle.addr(), &data);
    let mut follower = Client::connect_retry(proc2.addr, DEADLINE);
    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    let stats = follower.round_trip("STATS");
    assert_eq!(
        stat_value(&stats, "repl_snapshots"),
        0,
        "a restart with intact data must resume, not re-snapshot: {stats:?}"
    );
    assert_eq!(
        wire_fingerprint(&mut follower),
        wire_fingerprint(&mut primary)
    );
    let total = follower.round_trip("EVAL count(//person)");
    assert_eq!(total[0], "VAL 71", "{total:?}"); // 1 seed + 30 + 20 + 20

    // Store-level fingerprint at equal LSN: kill both processes and
    // compare the exported XML of every document byte for byte.
    proc2.child.kill().expect("kill");
    proc2.child.wait().expect("reap");
    handle.stop();
    let (primary_lsn, primary_docs) = store_fingerprint(&primary_path);
    let (follower_lsn, follower_docs) = store_fingerprint(&data);
    assert_eq!(primary_lsn, follower_lsn, "stores at different LSNs");
    assert_eq!(primary_docs, follower_docs, "exports diverge at equal LSN");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_while_disconnected_does_not_strand_the_follower() {
    let dir = temp_dir("ckpt");
    // A tiny retention ring: any disconnected follower falls behind the
    // floor almost immediately and must be caught by a snapshot.
    let handle = spawn_primary(
        &dir.join("primary.mass"),
        ServerConfig {
            repl_retain: 4,
            ..ServerConfig::default()
        },
    );
    let mut primary = Client::connect(&handle);
    let data = dir.join("replica.mass");

    // Follower connects, converges, disconnects.
    let replica = start_replica(handle.addr(), &data);
    {
        let mut follower = Client::connect_addr(replica.addr());
        wait_applied(&mut follower, primary_last_lsn(&mut primary));
    }
    replica.stop();

    // While it is away: a burst far past the 4-frame ring, and a
    // checkpoint that truncates the primary's own WAL.
    for i in 0..25 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>gap{i}</name></person>"
        ));
    }
    let reply = primary.round_trip("CHECKPOINT");
    assert!(reply[0].starts_with("OK checkpoint"), "{reply:?}");

    // The returning follower's resume LSN is below the ring floor; the
    // primary must ship a snapshot rather than an LSN gap.
    let replica = start_replica(handle.addr(), &data);
    let mut follower = Client::connect_addr(replica.addr());
    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    let stats = follower.round_trip("STATS");
    assert_eq!(stat_value(&stats, "repl_snapshots"), 1, "{stats:?}");
    assert_eq!(
        wire_fingerprint(&mut follower),
        wire_fingerprint(&mut primary)
    );
    // And it keeps streaming after the snapshot: one more write lands.
    primary.round_trip("INSERT auction //people <person><name>post</name></person>");
    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    let rows = follower.round_trip("QUERY //person[name='post']");
    assert!(rows.last().unwrap().starts_with("OK 1 row(s)"), "{rows:?}");

    replica.stop();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_writes_invalidate_follower_views() {
    let dir = temp_dir("views");
    let handle = spawn_primary(&dir.join("primary.mass"), ServerConfig::default());
    let mut primary = Client::connect(&handle);
    let data = dir.join("follower.mass");

    // A real follower process, as it comes: followers cache too.
    let mut proc1 = spawn_follower_process(handle.addr(), &data);
    let mut follower = Client::connect_retry(proc1.addr, DEADLINE);
    wait_applied(&mut follower, primary_last_lsn(&mut primary));
    follower.round_trip("LIMIT 0");

    // Two identical queries cross the admission threshold.
    let before = follower.round_trip("QUERY //person/name");
    assert!(
        before.last().unwrap().starts_with("OK 1 row(s)"),
        "{before:?}"
    );
    follower.round_trip("QUERY //person/name");
    let stats = follower.round_trip("STATS");
    assert!(
        stat_value(&stats, "view_views") >= 1,
        "follower never materialized a view: {stats:?}"
    );

    // A primary write replays on the follower through the WAL feed (no
    // engine-level update call there); the generation bump must still
    // drop the stale view before it can serve the next query.
    let reply = primary.round_trip("INSERT auction //people <person><name>fresh</name></person>");
    assert!(reply[0].starts_with("OK update"), "{reply:?}");
    wait_applied(&mut follower, primary_last_lsn(&mut primary));

    let after = follower.round_trip("QUERY //person/name");
    assert!(
        after.last().unwrap().starts_with("OK 2 row(s)"),
        "stale view served after replicated write: {after:?}"
    );
    assert!(
        after.iter().any(|l| l.contains("fresh")),
        "replicated insert missing from follower result: {after:?}"
    );
    let stats = follower.round_trip("STATS");
    assert!(
        stat_value(&stats, "view_evictions") >= 1,
        "stale view was never evicted: {stats:?}"
    );

    proc1.child.kill().expect("kill");
    proc1.child.wait().expect("reap");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayed write its query cannot see leaves the follower's kept
/// answer, and the reply kept with it, in place: the follower answers
/// from it, byte-equal to the primary.
#[test]
fn replayed_writes_a_query_cannot_see_keep_follower_views() {
    let dir = temp_dir("carry");
    let handle = spawn_primary(&dir.join("primary.mass"), ServerConfig::default());
    let mut primary = Client::connect(&handle);
    let replica = start_replica(handle.addr(), &dir.join("replica.mass"));
    let mut follower = Client::connect_addr(replica.addr());
    // Large enough that one more node moves no count the plan was priced
    // on past a magnitude: the plan stays, and with it the lookup.
    let people = "<person><name>p</name></person>".repeat(100);
    let reply = primary.round_trip(&format!(
        "LOADXML big <site><people>{people}</people></site>"
    ));
    assert!(reply[0].starts_with("OK loaded"), "{reply:?}");
    wait_applied(&mut follower, primary_last_lsn(&mut primary));

    let query = "QUERY DOC big //person/name";
    follower.round_trip(query);
    follower.round_trip(query);
    let before = follower.round_trip("STATS");
    assert_eq!(stat_value(&before, "view_views"), 1, "{before:?}");

    let reply = primary.round_trip("INSERT big //people <note/>");
    assert!(reply[0].starts_with("OK update"), "{reply:?}");
    wait_applied(&mut follower, primary_last_lsn(&mut primary));

    let mut on_follower = follower.round_trip(query);
    let mut on_primary = primary.round_trip(query);
    let stats = follower.round_trip("STATS");
    assert!(stat_value(&stats, "view_carried") >= 1, "{stats:?}");
    for key in ["view_evictions", "view_views"] {
        assert_eq!(stat_value(&stats, key), stat_value(&before, key), "{key}");
    }
    assert_eq!(
        stat_value(&stats, "view_hits"),
        stat_value(&before, "view_hits") + 1
    );
    // Rows byte for byte; the OK lines differ only past the row count.
    let (ok_f, ok_p) = (on_follower.pop().unwrap(), on_primary.pop().unwrap());
    assert_eq!(on_follower, on_primary);
    assert!(ok_f.starts_with("OK 100 row(s)"), "{ok_f}");
    assert!(ok_p.starts_with("OK 100 row(s)"), "{ok_p}");

    replica.stop();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compressed_follower_converges_with_v1_primary() {
    let dir = temp_dir("v2f");
    let primary_path = dir.join("primary.mass");
    let handle = spawn_primary_as(&primary_path, ServerConfig::default(), StoreFormat::V1);
    let mut primary = Client::connect(&handle);
    let data = dir.join("follower.mass");

    // A real follower process storing its replica in the compressed
    // (v2) page format new stores get, fed by a primary pinned to v1:
    // replication is logical, so formats may differ per node.
    let mut proc1 = spawn_follower_process(handle.addr(), &data);
    {
        let mut follower = Client::connect_retry(proc1.addr, DEADLINE);
        wait_applied(&mut follower, primary_last_lsn(&mut primary));
    }

    // A write burst with repetitive values (dictionary-friendly on a
    // bulk load, plain inline values through the WAL replay path) plus
    // a mid-stream document load.
    for i in 0..40 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>v{i}</name><city>Duluth</city></person>"
        ));
    }
    let reply = primary.round_trip("LOADXML extra <r><name>late</name></r>");
    assert!(reply[0].starts_with("OK loaded"), "{reply:?}");
    primary.round_trip("DELETE auction //person[name='v7']");

    let target = primary_last_lsn(&mut primary);
    let reference = wire_fingerprint(&mut primary);
    {
        let mut follower = Client::connect_retry(proc1.addr, DEADLINE);
        wait_applied(&mut follower, target);
        assert_eq!(
            wire_fingerprint(&mut follower),
            reference,
            "compressed follower must serve the primary's rows"
        );
    }

    // Store-level: byte-identical exports at equal LSN, and the
    // follower really holds compressed pages.
    proc1.child.kill().expect("kill");
    proc1.child.wait().expect("reap");
    handle.stop();
    let (primary_lsn, primary_docs) = store_fingerprint(&primary_path);
    let (follower_lsn, follower_docs) = store_fingerprint(&data);
    assert_eq!(primary_lsn, follower_lsn, "stores at different LSNs");
    assert_eq!(primary_docs, follower_docs, "exports diverge at equal LSN");
    for (path, format) in [(&primary_path, StoreFormat::V1), (&data, StoreFormat::V2)] {
        let store = MassStore::open_durable(path, 512, FsyncPolicy::Never).unwrap();
        assert_eq!(store.format(), format);
        let stats = store.stats();
        assert_eq!(
            stats.compressed_pages > 0,
            format == StoreFormat::V2,
            "{path:?} as {format:?}: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_followers_converge_after_a_write_burst() {
    let dir = temp_dir("pair");
    let handle = spawn_primary(&dir.join("primary.mass"), ServerConfig::default());
    let mut primary = Client::connect(&handle);

    let r1 = start_replica(handle.addr(), &dir.join("r1.mass"));
    let r2 = start_replica(handle.addr(), &dir.join("r2.mass"));

    for i in 0..40 {
        primary.round_trip(&format!(
            "INSERT auction //people <person><name>burst{i}</name></person>"
        ));
    }
    let target = primary_last_lsn(&mut primary);
    let reference = wire_fingerprint(&mut primary);
    for replica in [&r1, &r2] {
        let mut follower = Client::connect_addr(replica.addr());
        wait_applied(&mut follower, target);
        assert_eq!(wire_fingerprint(&mut follower), reference);
    }
    let lag = primary.round_trip("LAG");
    assert_eq!(lag_value(&lag, "feeds"), 2, "{lag:?}");

    r1.stop();
    r2.stop();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
