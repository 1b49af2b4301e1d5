//! Router end-to-end tests: real TCP servers behind a real router,
//! covering the front-tier acceptance criteria — consistent routing
//! (the same document always lands on the same shard), scatter-gather
//! results byte-equal to a single-node engine holding every document,
//! LAG-bounded read rejection falling back to the primary, replica
//! failover within the health-check window (`kill -9` of a real
//! follower process), and clean degradation when a primary dies
//! mid-stream.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vamana_core::Engine;
use vamana_mass::{FsyncPolicy, MassStore};
use vamana_router::{Router, RouterConfig, RouterHandle};
use vamana_server::event::{MAX_LINE, MAX_REPLY_LINE};
use vamana_server::testkit::{lag_value, stat_value, verb_soup, Client};
use vamana_server::{
    unescape_line, ReplicaRole, ReplicaStatus, Server, ServerConfig, ServerHandle,
};

const DEADLINE: Duration = Duration::from_secs(20);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vamana-router-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn memory_server() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Engine::new(MassStore::open_memory()),
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn")
}

fn start_router(shards: Vec<(String, Vec<String>)>, config: RouterConfig) -> RouterHandle {
    Router::start(RouterConfig { shards, ..config }).expect("start router")
}

/// The comparison baseline: ROW lines plus the stable `OK <n> row(s)`
/// prefix (plan/latency details differ between a router and a single
/// node by construction).
fn stable_rows(mut reply: Vec<String>) -> Vec<String> {
    let ok = reply.pop().expect("terminator");
    assert!(ok.starts_with("OK"), "{ok}");
    let stable = if ok.starts_with("OK scalar") {
        "OK scalar".to_string()
    } else {
        ok.split(" plan=")
            .next()
            .unwrap_or(&ok)
            .trim_end()
            .to_string()
    };
    reply.push(stable);
    reply
}

/// The router parses with the server's grammar: every line of the
/// parser's fuzz input that a server refuses as `ERR proto …`, the router
/// refuses with the same line.
#[test]
fn protocol_errors_match_the_server_on_verb_soup() {
    let server = memory_server();
    let router = start_router(
        vec![(server.addr().to_string(), Vec::new())],
        RouterConfig::default(),
    );
    let mut direct = Client::connect(&server);
    let mut routed = Client::connect_addr(router.addr());
    let mut refused = 0;
    for seed in 0..2000 {
        let line = verb_soup(seed);
        let reply = direct.round_trip(&line);
        if reply[0].starts_with("ERR proto") {
            assert_eq!(routed.round_trip(&line), reply, "{line:?}");
            refused += 1;
        }
    }
    assert!(refused > 200, "only {refused} of 2000 lines refused");
    // A refused line is still a request the router read; so is STATS.
    let stats = routed.round_trip("STATS");
    let requests = format!("STAT router_requests {}", refused + 1);
    assert!(stats.contains(&requests), "{requests}: {stats:?}");
    router.stop();
    server.stop();
}

const DOCS: [(&str, &str); 4] = [
    (
        "east",
        "<site><people><person><name>Ada</name></person><person><name>Alan</name></person></people></site>",
    ),
    (
        "west",
        "<site><people><person><name>Grace</name></person></people></site>",
    ),
    (
        "north",
        "<site><people><person><name>Edsger</name></person><person><name>Barbara</name></person></people></site>",
    ),
    (
        "south",
        "<site><people><person><name>Donald</name></person></people></site>",
    ),
];

#[test]
fn consistent_routing_and_scatter_gather_match_single_node() {
    // Two shards, no replicas; the same four documents loaded through
    // the router and into one single-node engine, in the same order.
    let shard0 = memory_server();
    let shard1 = memory_server();
    let router = start_router(
        vec![
            (shard0.addr().to_string(), vec![]),
            (shard1.addr().to_string(), vec![]),
        ],
        RouterConfig::default(),
    );
    let single = memory_server();

    let mut via_router = Client::connect_addr(router.addr());
    let mut via_single = Client::connect_addr(single.addr());
    for (name, xml) in DOCS {
        let reply = via_router.round_trip(&format!("LOADXML {name} {xml}"));
        assert!(reply[0].starts_with("OK loaded"), "{reply:?}");
        let reply = via_single.round_trip(&format!("LOADXML {name} {xml}"));
        assert!(reply[0].starts_with("OK loaded"), "{reply:?}");
    }

    // Both shards got documents (the ring spreads four names), and the
    // registry knows all four in load order.
    let topology = via_router.round_trip("TOPOLOGY");
    let placed: Vec<&String> = topology.iter().filter(|l| l.starts_with("DOC ")).collect();
    assert_eq!(placed.len(), 4, "{topology:?}");
    for (ordinal, (name, _)) in DOCS.iter().enumerate() {
        assert!(
            placed[ordinal].starts_with(&format!("DOC {ordinal} {name} ")),
            "registry out of load order: {placed:?}"
        );
    }

    // Scatter-gather equals the single node, row for row, across
    // limits, for node-set queries of different shapes.
    for limit in [0, 2, 20] {
        via_router.round_trip(&format!("LIMIT {limit}"));
        via_single.round_trip(&format!("LIMIT {limit}"));
        for q in [
            "QUERY //person/name",
            "QUERY //people",
            "QUERY //person[name='Grace']",
            "QUERY //nothing",
        ] {
            assert_eq!(
                stable_rows(via_router.round_trip(q)),
                stable_rows(via_single.round_trip(q)),
                "router and single node diverge on {q} at LIMIT {limit}"
            );
        }
    }

    // Doc-scoped reads and document-0 semantics survive routing.
    via_router.round_trip("LIMIT 0");
    via_single.round_trip("LIMIT 0");
    for q in [
        "QUERY DOC west //person/name",
        "QUERY DOC 2 //name",
        "EVAL count(//person)", // doc 0 = globally-first = "east"
        "EVAL DOC south count(//person)",
    ] {
        assert_eq!(
            stable_rows(via_router.round_trip(q)),
            stable_rows(via_single.round_trip(q)),
            "diverge on {q}"
        );
    }

    // Consistent routing: re-resolving every document hits the same
    // shard every time (the TOPOLOGY placement is stable).
    for _ in 0..3 {
        assert_eq!(
            via_router
                .round_trip("TOPOLOGY")
                .iter()
                .filter(|l| l.starts_with("DOC "))
                .collect::<Vec<_>>(),
            placed,
            "placement drifted between requests"
        );
    }

    // A routed write lands on the owning shard and is visible to the
    // next scatter — equal to the single node applying the same write.
    for target in [&mut via_router, &mut via_single] {
        let reply = target.round_trip("INSERT north //people <person><name>Tony</name></person>");
        assert!(reply[0].starts_with("OK update"), "{reply:?}");
    }
    assert_eq!(
        stable_rows(via_router.round_trip("QUERY //person/name")),
        stable_rows(via_single.round_trip("QUERY //person/name")),
        "post-write scatter diverges"
    );

    // EXPLAIN routes and returns a plan report.
    let plan = via_router.round_trip("EXPLAIN DOC east //person/name");
    assert!(plan.iter().any(|l| l.starts_with("PLAN ")), "{plan:?}");

    // Aggregated stats see both shards' engines.
    let stats = via_router.round_trip("STATS");
    assert_eq!(stat_value(&stats, "router_shards"), 2, "{stats:?}");
    assert_eq!(stat_value(&stats, "router_docs"), 4, "{stats:?}");
    assert_eq!(stat_value(&stats, "router_primaries_reporting"), 2);
    assert_eq!(stat_value(&stats, "documents"), 4, "summed over shards");
    assert!(stat_value(&stats, "router_scatters") >= 4, "{stats:?}");

    router.stop();
    shard0.stop();
    shard1.stop();
    single.stop();
}

#[test]
fn a_new_router_bootstraps_the_registry_from_running_shards() {
    let shard0 = memory_server();
    let shard1 = memory_server();
    let shards = vec![
        (shard0.addr().to_string(), vec![]),
        (shard1.addr().to_string(), vec![]),
    ];
    let first = start_router(shards.clone(), RouterConfig::default());
    let mut client = Client::connect_addr(first.addr());
    // These names alternate shards on the 2-ring (west/auction → one
    // shard, east/north → the other), so a bootstrapping router can
    // reconstruct the global load order exactly by interleaving the
    // shards' local orders — the property this test pins down.
    for (name, xml) in [
        ("west", DOCS[1].1),
        ("east", DOCS[0].1),
        ("auction", DOCS[3].1),
        ("north", DOCS[2].1),
    ] {
        client.round_trip(&format!("LOADXML {name} {xml}"));
    }
    let reference = stable_rows(client.round_trip("QUERY //person/name"));
    first.stop();

    // A second, stateless router instance over the same shards learns
    // the documents from DOCS and answers identically.
    let second = start_router(shards, RouterConfig::default());
    let mut client = Client::connect_addr(second.addr());
    let docs = client.round_trip("DOCS");
    assert!(
        docs.last().unwrap().starts_with("OK 4 document(s)"),
        "{docs:?}"
    );
    assert_eq!(
        stable_rows(client.round_trip("QUERY //person/name")),
        reference,
        "bootstrapped router diverges from the loading router"
    );
    second.stop();
    shard0.stop();
    shard1.stop();
}

#[test]
fn unknown_documents_route_to_a_clean_error() {
    let shard = memory_server();
    let router = start_router(
        vec![(shard.addr().to_string(), vec![])],
        RouterConfig::default(),
    );
    let mut client = Client::connect_addr(router.addr());
    client.round_trip("LOADXML known <r><a>1</a></r>");

    // A named unknown document is forwarded to its ring owner, which
    // answers exactly like a single node would.
    let err = client.round_trip("QUERY DOC missing //a");
    assert!(err[0].starts_with("ERR query no such document"), "{err:?}");
    // A numeric ordinal beyond the registry cannot be ring-placed and
    // is rejected at the router.
    let err = client.round_trip("EVAL DOC 7 count(//a)");
    assert!(err[0].starts_with("ERR query no such document"), "{err:?}");
    let err = client.round_trip("INSERT 99 //a <b/>");
    assert!(err[0].starts_with("ERR query no such document"), "{err:?}");
    // The connection survives every error.
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    router.stop();
    shard.stop();
}

/// A read-only "replica" whose LAG gauges the test controls directly:
/// a server with a replica role over an independent engine. The router
/// never trusts a replica's self-reported lag, but it does read its
/// `applied_lsn` — which this harness pins wherever the test wants.
fn fake_replica(
    primary: SocketAddr,
    xml_docs: &[(&str, &str)],
) -> (ServerHandle, Arc<ReplicaStatus>) {
    let mut store = MassStore::open_memory();
    for (name, xml) in xml_docs {
        store.load_xml(name, xml).unwrap();
    }
    let status = Arc::new(ReplicaStatus::default());
    status.connected.store(true, Ordering::Relaxed);
    let handle = Server::bind(
        "127.0.0.1:0",
        Engine::new(store),
        ServerConfig {
            replica: Some(ReplicaRole {
                primary: primary.to_string(),
                status: Arc::clone(&status),
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    (handle, status)
}

#[test]
fn stale_replica_is_rejected_by_the_lag_bound_and_reads_fall_back_to_primary() {
    let dir = temp_dir("lagbound");
    // A durable primary so writes advance a real LSN.
    let mut store =
        MassStore::create_durable(dir.join("primary.mass"), 512, FsyncPolicy::Never).unwrap();
    store
        .load_xml(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )
        .unwrap();
    let primary = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // The "replica" holds only the pre-write data and reports a pinned
    // applied LSN of 0.
    let (replica, _status) = fake_replica(
        primary.addr(),
        &[(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )],
    );

    let router = start_router(
        vec![(primary.addr().to_string(), vec![replica.addr().to_string()])],
        RouterConfig {
            max_lag: 1_000_000, // effectively unbounded for now
            health_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());

    // Write through the router: the primary's LSN advances; the fake
    // replica stays at applied_lsn 0 and still has the old data.
    let reply = client.round_trip("INSERT auction //people <person><name>New</name></person>");
    assert!(reply[0].starts_with("OK update"), "{reply:?}");

    // Give the health monitor a probe cycle to see the new LSNs.
    let until = Instant::now() + DEADLINE;
    loop {
        let lag = client.round_trip("LAG");
        if lag_value(&lag, "shard0_last_lsn") >= 2 && lag_value(&lag, "shard0_replica0_behind") >= 1
        {
            break;
        }
        assert!(Instant::now() < until, "health never converged: {lag:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // With the bound wide open, the replica serves reads — and its
    // answer is visibly stale (1 person, not 2). This proves the
    // replica really is in the read path.
    let stale = client.round_trip("EVAL count(//person)");
    assert_eq!(stale[0], "VAL 1", "expected the stale replica: {stale:?}");

    router.stop();

    // Same topology with max_lag 0: the stale replica is demoted and
    // every read falls back to the primary's fresh answer.
    let strict = start_router(
        vec![(primary.addr().to_string(), vec![replica.addr().to_string()])],
        RouterConfig {
            max_lag: 0,
            health_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(strict.addr());
    let until = Instant::now() + DEADLINE;
    loop {
        let lag = client.round_trip("LAG");
        if lag_value(&lag, "shard0_replica0_behind") >= 1 {
            break;
        }
        assert!(Instant::now() < until, "health never converged: {lag:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    for _ in 0..4 {
        let fresh = client.round_trip("EVAL count(//person)");
        assert_eq!(
            fresh[0], "VAL 2",
            "stale replica served under max_lag=0: {fresh:?}"
        );
    }
    let stats = client.round_trip("STATS");
    assert!(
        stat_value(&stats, "router_lag_rejections") >= 4,
        "{stats:?}"
    );
    let topo = client.round_trip("TOPOLOGY");
    assert!(
        topo.iter()
            .any(|l| l.starts_with("REPLICA 0.0") && l.ends_with("fresh=0")),
        "{topo:?}"
    );

    strict.stop();
    replica.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

struct FollowerProc {
    child: Child,
    addr: SocketAddr,
}

/// The `vamana-replica` binary, built once per run next to this test
/// binary and in its profile (tests of one crate do not build another
/// crate's binaries, and one left by an earlier build may be stale).
fn replica_bin() -> PathBuf {
    static BUILT: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    BUILT
        .get_or_init(|| {
            // The test binary sits in <target>/<profile dir>/deps/; build
            // the replica into that same directory, in the same profile.
            let mut dir = std::env::current_exe().expect("test binary path");
            dir.pop();
            dir.pop();
            let profile_dir = dir
                .file_name()
                .and_then(|n| n.to_str())
                .expect("profile dir");
            let profile = if profile_dir == "debug" {
                "dev"
            } else {
                profile_dir
            }
            .to_string();
            let target = dir.parent().expect("target dir").to_path_buf();
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let status = Command::new(cargo)
                .args(["build", "--profile", &profile, "--target-dir"])
                .arg(&target)
                .args(["-p", "vamana-replica", "--bin", "vamana-replica"])
                .status()
                .expect("run cargo build");
            assert!(status.success(), "building vamana-replica failed");
            let bin = dir.join("vamana-replica");
            assert!(
                bin.exists(),
                "built vamana-replica in the `{profile}` profile into {}, but {} is missing",
                target.display(),
                bin.display()
            );
            bin
        })
        .clone()
}

/// Spawns the real `vamana-replica` binary and waits for its port file.
fn spawn_follower_process(primary: SocketAddr, data: &Path) -> FollowerProc {
    let port_file = data.with_extension("port");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(replica_bin())
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
fn killed_replica_fails_over_within_the_health_window() {
    let dir = temp_dir("failover");
    let mut store =
        MassStore::create_durable(dir.join("primary.mass"), 512, FsyncPolicy::Never).unwrap();
    store
        .load_xml(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )
        .unwrap();
    let primary = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // Two real follower processes streaming the primary's WAL.
    let mut f1 = spawn_follower_process(primary.addr(), &dir.join("r1.mass"));
    let mut f2 = spawn_follower_process(primary.addr(), &dir.join("r2.mass"));
    for proc in [&f1, &f2] {
        let mut c = Client::connect_retry(proc.addr, DEADLINE);
        let until = Instant::now() + DEADLINE;
        loop {
            let lag = c.round_trip("LAG");
            if lag_value(&lag, "behind") == 0 && lag_value(&lag, "applied_lsn") >= 1 {
                break;
            }
            assert!(Instant::now() < until, "follower never converged: {lag:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let health_interval = Duration::from_millis(50);
    let router = start_router(
        vec![(
            primary.addr().to_string(),
            vec![f1.addr.to_string(), f2.addr.to_string()],
        )],
        RouterConfig {
            max_lag: 0,
            health_interval,
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());
    for _ in 0..4 {
        let reply = client.round_trip("EVAL count(//person)");
        assert_eq!(reply[0], "VAL 1", "{reply:?}");
    }

    // kill -9 one replica mid-service: every subsequent read must still
    // be answered (failover to the sibling replica or the primary), and
    // within the health window TOPOLOGY marks the corpse down.
    f1.child.kill().expect("kill -9");
    f1.child.wait().expect("reap");
    for _ in 0..10 {
        let reply = client.round_trip("EVAL count(//person)");
        assert_eq!(reply[0], "VAL 1", "read failed during failover: {reply:?}");
    }
    let until = Instant::now() + DEADLINE;
    loop {
        let topo = client.round_trip("TOPOLOGY");
        if topo
            .iter()
            .any(|l| l.starts_with("REPLICA 0.0") && l.contains(" up=0 "))
        {
            break;
        }
        assert!(
            Instant::now() < until,
            "dead replica never marked down: {topo:?}"
        );
        std::thread::sleep(health_interval);
    }
    // And reads still flow after the mark-down.
    let reply = client.round_trip("EVAL count(//person)");
    assert_eq!(reply[0], "VAL 1", "{reply:?}");

    router.stop();
    f2.child.kill().ok();
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_primary_errors_writes_cleanly_while_reads_keep_serving() {
    let dir = temp_dir("deadprimary");
    let mut store =
        MassStore::create_durable(dir.join("primary.mass"), 512, FsyncPolicy::Never).unwrap();
    store
        .load_xml(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )
        .unwrap();
    let primary = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (replica, status) = fake_replica(
        primary.addr(),
        &[(
            "auction",
            "<site><people><person><name>Ada</name></person></people></site>",
        )],
    );
    // The replica is fully caught up as far as the router knows.
    status.applied_lsn.store(1, Ordering::Relaxed);

    let router = start_router(
        vec![(primary.addr().to_string(), vec![replica.addr().to_string()])],
        RouterConfig {
            max_lag: 1_000_000,
            health_interval: Duration::from_millis(50),
            retries: 0,
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());
    let reply = client.round_trip("QUERY //person/name");
    assert!(
        reply.last().unwrap().starts_with("OK 1 row(s)"),
        "{reply:?}"
    );

    // Stop the primary. Writes must fail with a backend error — not
    // hang, not land on the read-only replica — while reads keep being
    // served by the replica, and the client connection stays usable.
    primary.stop();
    let err = client.round_trip("INSERT auction //people <person/>");
    assert!(err[0].starts_with("ERR backend"), "{err:?}");
    for _ in 0..5 {
        let reply = client.round_trip("EVAL count(//person)");
        assert_eq!(
            reply[0], "VAL 1",
            "read lost after primary death: {reply:?}"
        );
    }
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);

    router.stop();
    replica.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backend_death_mid_scatter_is_a_protocol_error_not_a_hang() {
    // Two single-primary shards; one dies between scatters. The
    // scatter that needs it must come back as one clean ERR line and
    // the client connection must survive.
    let shard0 = memory_server();
    let shard1 = memory_server();
    let router = start_router(
        vec![
            (shard0.addr().to_string(), vec![]),
            (shard1.addr().to_string(), vec![]),
        ],
        RouterConfig {
            retries: 0,
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());
    for (name, xml) in DOCS {
        client.round_trip(&format!("LOADXML {name} {xml}"));
    }
    let healthy = client.round_trip("QUERY //person/name");
    assert!(
        healthy.last().unwrap().starts_with("OK 6 row(s)"),
        "{healthy:?}"
    );

    // Find a document on shard 1 so we can prove per-shard behavior.
    let topology = client.round_trip("TOPOLOGY");
    let on_shard0 = topology
        .iter()
        .filter_map(|l| l.strip_prefix("DOC "))
        .find(|l| l.ends_with("shard=0"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("a document on shard 0")
        .to_string();

    shard1.stop();
    // The cross-document scatter needs the dead shard: clean error.
    let err = client.round_trip("QUERY //person/name");
    assert!(err[0].starts_with("ERR backend"), "{err:?}");
    assert_eq!(err.len(), 1, "one clean error line: {err:?}");
    // A doc-scoped read on the surviving shard still works.
    let ok = client.round_trip(&format!("QUERY DOC {on_shard0} //person/name"));
    assert!(ok.last().unwrap().starts_with("OK"), "{ok:?}");
    // The client connection survives the failure.
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);

    router.stop();
    shard0.stop();
}

/// A request held up at its backend occupies one connection thread: the
/// other answers a `PING` at once, and `stop` waits only for the held
/// request's reply.
#[test]
fn a_request_held_at_its_backend_blocks_neither_a_ping_nor_stop() {
    let backend = memory_server();
    let router = start_router(
        vec![(backend.addr().to_string(), Vec::new())],
        RouterConfig {
            workers: 2,
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());
    let loaded = client.round_trip("LOADXML d <r><a/></r>");
    assert!(loaded[0].starts_with("OK loaded"), "{loaded:?}");
    let mut other = Client::connect_addr(router.addr());
    assert_eq!(other.round_trip("PING"), vec!["OK pong"]);

    let shared = Arc::clone(backend.shared());
    let (held, holding) = std::sync::mpsc::channel();
    let writer = std::thread::spawn(move || {
        let _engine = shared.engine().write();
        held.send(()).expect("the test waits for this");
        std::thread::sleep(Duration::from_millis(300));
    });
    holding.recv().expect("the writer took the engine");
    let query = std::thread::spawn(move || client.round_trip("QUERY DOC d //a"));
    let until = Instant::now() + DEADLINE;
    let active = &backend.shared().metrics().active_workers;
    while active.load(Ordering::SeqCst) == 0 {
        assert!(
            Instant::now() < until,
            "the query never reached the backend"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));

    let start = Instant::now();
    assert_eq!(other.round_trip("PING"), vec!["OK pong"]);
    let waited = start.elapsed();
    assert!(waited < Duration::from_millis(50), "PING took {waited:?}");

    let start = Instant::now();
    router.stop();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    let reply = query.join().unwrap();
    assert!(
        reply.last().unwrap().starts_with("OK 1 row(s)"),
        "{reply:?}"
    );
    writer.join().unwrap();
    backend.stop();
}

/// Answers `DOCS` with the one document `d`, a `QUERY` that names `//long`
/// with a row longer than any line a server writes, any other `QUERY`
/// with one short row, and every other line with `OK`, until the peer
/// closes or is idle for [`DEADLINE`].
fn over_long_backend(stream: TcpStream) {
    stream.set_read_timeout(Some(DEADLINE)).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        let reply = if line.starts_with("DOCS") {
            "DOC 0 d\nOK 1 document(s)\n".to_string()
        } else if line.contains("//long") {
            format!("ROW {}\nOK 1 row(s)\n", "a".repeat(MAX_REPLY_LINE))
        } else if line.starts_with("QUERY") {
            "ROW <a> short\nOK 1 row(s)\n".to_string()
        } else {
            "OK\n".to_string()
        };
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
        line.clear();
    }
}

/// A backend line past the longest a server writes is a backend error,
/// not a buffer that grows with it; the router keeps serving, the same
/// backend included.
#[test]
fn an_over_long_backend_line_is_a_backend_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let accepting = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut connections = Vec::new();
            for stream in listener.incoming().flatten() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                connections.push(std::thread::spawn(move || over_long_backend(stream)));
            }
            for connection in connections {
                connection.join().expect("backend connection");
            }
        })
    };
    let router = start_router(
        vec![(addr.to_string(), Vec::new())],
        RouterConfig {
            retries: 0,
            ..RouterConfig::default()
        },
    );
    let mut client = Client::connect_addr(router.addr());
    let err = client.round_trip("QUERY DOC d //long");
    assert!(err[0].starts_with("ERR backend"), "{err:?}");
    assert_eq!(err.len(), 1, "one clean error line: {err:?}");
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    let ok = client.round_trip("QUERY DOC d //short");
    assert_eq!(ok[0], "ROW <a> short", "{ok:?}");
    assert!(ok[1].starts_with("OK 1 row(s)"), "{ok:?}");
    router.stop();
    stop.store(true, Ordering::SeqCst);
    // Wakes the accept loop to see the flag.
    drop(TcpStream::connect(addr));
    accepting.join().expect("fake backend");
}

/// A string value longer than any request line comes back through the
/// router whole: the reply line cap is sized for the `VAL` line a server
/// writes, not for a request text.
#[test]
fn a_long_string_value_comes_through_the_router_whole() {
    let backend = memory_server();
    let router = start_router(
        vec![(backend.addr().to_string(), Vec::new())],
        RouterConfig::default(),
    );
    let mut client = Client::connect_addr(router.addr());
    let text = "x".repeat(3 * MAX_LINE);
    let loaded = client.round_trip(&format!("LOADXML d <r><a>{text}</a></r>"));
    assert!(loaded[0].starts_with("OK loaded"), "{loaded:?}");
    let reply = client.round_trip("EVAL DOC d string(//a)");
    assert_eq!(reply.len(), 2, "one value line and OK");
    assert!(reply[0] == format!("VAL {text}"), "the value is whole");
    assert!(reply[1].starts_with("OK scalar"), "{}", reply[1]);
    router.stop();
    backend.stop();
}

/// A kept answer's text may run to the request cap, and escaping doubles
/// a backslash: its `VIEW` row still comes through the router whole.
#[test]
fn cache_list_through_the_router_carries_a_view_of_backslashes() {
    let backend = memory_server();
    let router = start_router(
        vec![(backend.addr().to_string(), Vec::new())],
        RouterConfig::default(),
    );
    let mut client = Client::connect_addr(router.addr());
    let loaded = client.round_trip("LOADXML d <r><a/></r>");
    assert!(loaded[0].starts_with("OK loaded"), "{loaded:?}");
    let request = "QUERY DOC d ";
    let shell = "//a[. != '']";
    let xpath = format!(
        "//a[. != '{}']",
        "\\".repeat(MAX_LINE - 64 - request.len() - shell.len())
    );
    for _ in 0..2 {
        let reply = client.round_trip(&format!("{request}{xpath}"));
        assert!(
            reply.last().unwrap().starts_with("OK 1 row(s)"),
            "{reply:?}"
        );
    }
    let listing = client.round_trip("CACHE LIST");
    let view = listing
        .iter()
        .find(|l| l.starts_with("VIEW "))
        .unwrap_or_else(|| panic!("no VIEW row: {:?}", listing.last()));
    assert!(view.len() > 2 * MAX_LINE - 256, "{}", view.len());
    let text = view.splitn(7, ' ').nth(6).expect("the view's text");
    assert_eq!(unescape_line(text), xpath);
    assert_eq!(listing.last().unwrap(), "OK 1 view(s)");
    router.stop();
    backend.stop();
}
