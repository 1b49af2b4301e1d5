//! Throughput benchmarks against one shared engine or a small cluster,
//! one mode per invocation.
//!
//! ```sh
//! cargo run --release -p vamana-bench --bin throughput \
//!     -- [<mb> [workers...]] [--window-ms N] [--out PATH] <mode>
//! ```
//!
//! `--fused on|off|both` runs the fusion benchmark: driver
//! threads replay the structural scan suite per query with whole-query
//! fusion forced and/or disabled, and the report (`BENCH_8.json`)
//! compares per-query throughput across the two configurations.
//!
//! `--router SxR` runs the sharded front-tier benchmark: it
//! stands up `S` shards × `R` streaming replicas behind a
//! `vamana-router` front tier, compares aggregate QPS against one
//! single-node server holding every document, with scatter-gather and
//! with doc-targeted traffic (`BENCH_9.json`).
//!
//! `--replicas N` runs the replicated-read benchmark (`BENCH_6.json`).
//!
//! Reads beside a writer are `trajectory`'s `serve_write` workload; the
//! serial-vs-parallel scan comparison is its `embed_scan` workload and
//! the `parallel_probe` example.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vamana_bench::SCAN_QUERIES;
use vamana_core::exec::BATCH_SIZE;
use vamana_core::plan::QueryPlan;
use vamana_core::{DocId, Engine, SharedEngine};
use vamana_mass::MassStore;

struct Args {
    megabytes: f64,
    workers: Vec<usize>,
    window: Duration,
    out: Option<String>,
    /// `Some(n)`: run the replicated-read benchmark instead — aggregate
    /// read QPS over a primary plus 0..=n replicas, and a lag-convergence
    /// histogram (`BENCH_6.json`).
    replicas: Option<usize>,
    /// `Some("on"|"off"|"both")`: run the fusion benchmark instead —
    /// per-query scan-suite throughput with whole-query fusion forced
    /// and/or disabled (`BENCH_8.json`).
    fused: Option<String>,
    /// `Some((shards, replicas_per_shard))`: run the sharded front-tier
    /// benchmark instead — aggregate QPS through a router over
    /// `shards`×`replicas` backends vs. one single-node server holding
    /// every document (`BENCH_9.json`).
    router: Option<(usize, usize)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        megabytes: 0.5,
        workers: Vec::new(),
        window: Duration::from_secs(2),
        out: None,
        replicas: None,
        fused: None,
        router: None,
    };
    let mut positional = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--window-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--window-ms needs a millisecond count");
                args.window = Duration::from_millis(ms);
            }
            "--out" => {
                args.out = Some(it.next().expect("--out needs a path"));
            }
            "--replicas" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--replicas needs a follower count (e.g. 2)");
                args.replicas = Some(n);
            }
            "--fused" => {
                let which = it.next().expect("--fused takes on|off|both");
                assert!(
                    matches!(which.as_str(), "on" | "off" | "both"),
                    "--fused takes on|off|both, got {which}"
                );
                args.fused = Some(which);
            }
            "--router" => {
                let spec = it
                    .next()
                    .expect("--router takes <shards>x<replicas>, e.g. 2x1");
                let (s, r) = spec
                    .split_once('x')
                    .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)))
                    .unwrap_or_else(|| panic!("--router takes <shards>x<replicas>, got {spec}"));
                assert!(s >= 1, "--router needs at least one shard");
                args.router = Some((s, r));
            }
            other => {
                if positional == 0 {
                    args.megabytes = other.parse().expect("first positional arg is <mb>");
                } else {
                    args.workers
                        .push(other.parse().expect("worker counts are integers"));
                }
                positional += 1;
            }
        }
    }
    if args.workers.is_empty() {
        args.workers = vec![1, 2, 4, 8];
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some((shards, replicas)) = args.router {
        run_router(&args, shards, replicas);
    } else if let Some(n) = args.replicas {
        run_replicas(&args, n);
    } else if let Some(which) = args.fused.clone() {
        run_fused(&args, &which);
    } else {
        eprintln!(
            "usage: throughput [<mb> [workers...]] [--window-ms N] [--out PATH] \
             (--fused on|off|both | --replicas N | --router SxR)"
        );
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------------
// Whole-query fusion: `--fused on|off|both`.
// ---------------------------------------------------------------------

/// One per-query measurement window of the fusion benchmark.
struct FusedSample {
    name: &'static str,
    xpath: &'static str,
    enabled: bool,
    queries: u64,
    rows: u64,
    elapsed: Duration,
    /// Fused chains executed during the window — zero when the query's
    /// chain has no scan-bound suffix (index-resolvable heads only).
    fused_chains: u64,
}

impl FusedSample {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64()
    }
}

/// `--fused on|off|both`: per-query throughput over the structural scan
/// suite with whole-query fusion forced (`on`) and/or disabled (`off`).
/// Fusion is *forced* in the `on` phase so the benchmark measures the
/// fused executor itself, not the cost gate's willingness to engage it;
/// queries whose chain is entirely index-resolvable keep their unfused
/// plans and report zero fused chains. Results go to `BENCH_8.json`
/// (override with `--out`).
fn run_fused(args: &Args, which: &str) {
    let drivers = args.workers.first().copied().unwrap_or(4);
    eprintln!("generating ~{} MB of XMark data…", args.megabytes);
    let xml = vamana_bench::document(args.megabytes);
    let phases: &[bool] = match which {
        "on" => &[true],
        "off" => &[false],
        _ => &[false, true],
    };
    eprintln!("fusion benchmark: {drivers} driver(s)");

    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>14} {:>8} {:>12}",
        "fused", "query", "drivers", "queries", "queries/sec", "chains", "speedup"
    );
    let mut samples: Vec<FusedSample> = Vec::new();
    for &enabled in phases {
        let mut store = MassStore::open_memory();
        store.load_xml("auction", &xml).expect("load xmark");
        let mut base = Engine::new(store);
        {
            let opts = base.options_mut();
            opts.fuse = enabled;
            opts.fuse_force = enabled;
        }
        let engine = Arc::new(SharedEngine::new(base));
        for (name, xpath) in SCAN_QUERIES {
            // Compile once (fusion is an optimize-time rewrite, as the
            // serving layer's plan cache would see it) and warm the
            // buffer pool.
            let plan = {
                let guard = engine.read();
                let plan = guard.compile(xpath).expect(name);
                let plan = guard.optimize_plan(plan, DocId(0)).expect(name).plan;
                let rows = guard.execute_plan(&plan, DocId(0)).expect(name).len();
                assert!(rows > 0, "{name} ({xpath}) returned no rows");
                plan
            };
            let chains_before = engine.read().fused_stats().0;
            let sample = {
                let (queries, rows, elapsed) = run_window(&engine, &plan, drivers, args.window);
                FusedSample {
                    name,
                    xpath,
                    enabled,
                    queries,
                    rows,
                    elapsed,
                    fused_chains: engine.read().fused_stats().0 - chains_before,
                }
            };
            let speedup = samples
                .iter()
                .find(|s| !s.enabled && s.name == *name)
                .filter(|_| enabled)
                .map(|off| format!("{:.2}x", sample.qps() / off.qps()))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "{:>6} {:>6} {:>8} {:>12} {:>14.1} {:>8} {:>12}",
                if enabled { "on" } else { "off" },
                name,
                drivers,
                sample.queries,
                sample.qps(),
                sample.fused_chains,
                speedup
            );
            samples.push(sample);
        }
    }

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"throughput_fused_chains\",\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"doc_megabytes\": {},\n", args.megabytes));
    out.push_str(&format!("  \"window_ms\": {},\n", args.window.as_millis()));
    out.push_str(&format!("  \"drivers\": {drivers},\n"));
    out.push_str("  \"results\": {\n");
    for (i, &enabled) in phases.iter().enumerate() {
        let key = if enabled { "fused_on" } else { "fused_off" };
        out.push_str(&format!("    \"{key}\": [\n"));
        let phase: Vec<&FusedSample> = samples.iter().filter(|s| s.enabled == enabled).collect();
        for (j, s) in phase.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"xpath\": \"{}\", \"queries\": {}, \"rows\": {}, \"qps\": {:.1}, \"fused_chains\": {}}}{}\n",
                s.name,
                s.xpath,
                s.queries,
                s.rows,
                s.qps(),
                s.fused_chains,
                if j + 1 < phase.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]{}\n",
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    out.push_str("  }");
    if phases.len() == 2 {
        let mut pairs = Vec::new();
        let mut best = 0.0f64;
        for (name, _) in SCAN_QUERIES {
            let on = samples.iter().find(|s| s.enabled && s.name == *name);
            let off = samples.iter().find(|s| !s.enabled && s.name == *name);
            if let (Some(on), Some(off)) = (on, off) {
                let ratio = on.qps() / off.qps();
                if on.fused_chains > 0 {
                    best = best.max(ratio);
                }
                pairs.push(format!("\"{name}\": {ratio:.2}"));
            }
        }
        out.push_str(",\n  \"speedup_fused_on_over_off\": {");
        out.push_str(&pairs.join(", "));
        out.push_str("},\n");
        out.push_str(&format!("  \"best_fused_speedup\": {best:.2}\n"));
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    let path = args.out.as_deref().unwrap_or("BENCH_8.json");
    std::fs::write(path, &out).expect("write json");
    eprintln!("wrote {path}");
}

/// Runs `plan` from `drivers` threads for `window`, draining each
/// stream; returns `(queries, rows, elapsed)`.
fn run_window(
    engine: &Arc<SharedEngine>,
    plan: &QueryPlan,
    drivers: usize,
    window: Duration,
) -> (u64, u64, Duration) {
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let rows = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..drivers.max(1) {
            scope.spawn(|| {
                let mut buf = Vec::with_capacity(BATCH_SIZE);
                while !stop.load(Ordering::Relaxed) {
                    let guard = engine.read();
                    let mut stream = guard.stream_plan(plan.clone(), DocId(0)).expect("stream");
                    let mut n = 0u64;
                    loop {
                        buf.clear();
                        let k = stream.next_batch(&mut buf, BATCH_SIZE).expect("batch");
                        n += k as u64;
                        if k < BATCH_SIZE {
                            break;
                        }
                    }
                    assert!(n > 0, "query produced no rows mid-bench");
                    queries.fetch_add(1, Ordering::Relaxed);
                    rows.fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    (
        queries.load(Ordering::Relaxed),
        rows.load(Ordering::Relaxed),
        start.elapsed(),
    )
}

// ---------------------------------------------------------------------
// Replicated reads: `--replicas n`.
// ---------------------------------------------------------------------

/// One window of replicated reads: aggregate QPS at a given fan-out.
struct ReplSample {
    replicas: usize,
    reads: u64,
    elapsed: Duration,
}

impl ReplSample {
    fn qps(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }
}

/// Number of reader threads driving queries, split round-robin over the
/// primary plus every replica. Held constant across fan-outs so the QPS
/// delta isolates what the extra serving processes buy.
const REPL_READERS: usize = 8;

/// Writes per lag burst and bursts per fan-out.
const LAG_BURST_WRITES: usize = 50;
const LAG_BURSTS: usize = 3;

/// `--replicas n`: for each fan-out 0..=n, stand up a durable primary
/// plus that many log-shipping replicas, measure aggregate read QPS with
/// a fixed reader pool spread over every endpoint, then burst writes at
/// the primary and time each replica's convergence back to zero lag.
/// Results go to `BENCH_6.json` (override with `--out`).
fn run_replicas(args: &Args, max_replicas: usize) {
    use vamana_mass::FsyncPolicy;
    use vamana_replica::{Replica, ReplicaConfig};
    use vamana_server::testkit::{lag_value, Client};
    use vamana_server::{Server, ServerConfig};

    eprintln!("generating ~{} MB of XMark data…", args.megabytes);
    let xml = vamana_bench::document(args.megabytes);
    let dir = std::env::temp_dir().join(format!("vamana-bench-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let queries: Vec<String> = SCAN_QUERIES
        .iter()
        .map(|(_, xpath)| format!("QUERY {xpath}"))
        .collect();

    let mut samples: Vec<ReplSample> = Vec::new();
    let mut convergence_us: Vec<u64> = Vec::new();

    for fanout in 0..=max_replicas {
        // Fresh primary per fan-out: identical starting state, no
        // carry-over from the previous window's lag bursts.
        let path = dir.join(format!("primary-{fanout}.mass"));
        let mut store = MassStore::create_durable(&path, 4096, FsyncPolicy::Never).expect("store");
        store.load_xml("auction", &xml).expect("load xmark");
        let primary = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let mut ctl = Client::connect(&primary);

        let replicas: Vec<_> = (0..fanout)
            .map(|i| {
                Replica::start(ReplicaConfig {
                    primary: primary.addr().to_string(),
                    data: dir.join(format!("replica-{fanout}-{i}.mass")),
                    fsync: FsyncPolicy::Never,
                    ..ReplicaConfig::default()
                })
                .expect("start replica")
            })
            .collect();

        // Every endpoint answers queries; wait until the replicas have
        // the snapshot applied before opening the taps.
        let target = lag_value(&ctl.round_trip("LAG"), "last_lsn");
        let mut endpoints = vec![primary.addr()];
        for r in &replicas {
            let mut follower = Client::connect_addr(r.addr());
            let deadline = Instant::now() + Duration::from_secs(30);
            while lag_value(&follower.round_trip("LAG"), "applied_lsn") < target {
                assert!(Instant::now() < deadline, "replica never caught up");
                std::thread::sleep(Duration::from_millis(10));
            }
            endpoints.push(r.addr());
        }

        // Measurement window: REPL_READERS threads round-robin over the
        // endpoints, each counting completed queries.
        let stop = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..REPL_READERS {
                let endpoint = endpoints[t % endpoints.len()];
                let stop = Arc::clone(&stop);
                let reads = Arc::clone(&reads);
                let queries = &queries;
                scope.spawn(move || {
                    let mut client = Client::connect_addr(endpoint);
                    client.round_trip("LIMIT 1");
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let reply = client.round_trip(&queries[i % queries.len()]);
                        assert!(reply.last().unwrap().starts_with("OK"), "{reply:?}");
                        reads.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            std::thread::sleep(args.window);
            stop.store(true, Ordering::Relaxed);
        });
        let sample = ReplSample {
            replicas: fanout,
            reads: reads.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
        };
        eprintln!(
            "fan-out {fanout}: {} reads in {:.2?} ({:.1} reads/sec over {} endpoint(s))",
            sample.reads,
            sample.elapsed,
            sample.qps(),
            endpoints.len()
        );
        samples.push(sample);

        // Lag convergence: burst writes at the primary, then time each
        // replica's walk back to zero lag.
        if fanout > 0 {
            for _ in 0..LAG_BURSTS {
                for i in 0..LAG_BURST_WRITES {
                    let reply = ctl.round_trip(&format!(
                        "INSERT auction //people <person><name>lag{i}</name></person>"
                    ));
                    assert!(reply[0].starts_with("OK update"), "{reply:?}");
                }
                let target = lag_value(&ctl.round_trip("LAG"), "last_lsn");
                for r in &replicas {
                    let mut follower = Client::connect_addr(r.addr());
                    let t0 = Instant::now();
                    let deadline = t0 + Duration::from_secs(30);
                    while lag_value(&follower.round_trip("LAG"), "applied_lsn") < target {
                        assert!(Instant::now() < deadline, "burst never converged");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    convergence_us.push(t0.elapsed().as_micros() as u64);
                }
            }
        }

        for r in replicas {
            r.stop();
        }
        primary.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Histogram of convergence times: cumulative millisecond buckets
    // over microsecond samples (streaming replicas usually converge in
    // well under a millisecond, so sub-ms fidelity matters).
    const BUCKETS: [(&str, u64); 6] = [
        ("le_1", 1_000),
        ("le_5", 5_000),
        ("le_10", 10_000),
        ("le_50", 50_000),
        ("le_100", 100_000),
        ("le_1000", 1_000_000),
    ];
    let mut hist: Vec<(&str, u64)> = BUCKETS
        .iter()
        .map(|(label, cap)| {
            (
                *label,
                convergence_us.iter().filter(|&&us| us <= *cap).count() as u64,
            )
        })
        .collect();
    hist.push((
        "gt_1000",
        convergence_us.iter().filter(|&&us| us > 1_000_000).count() as u64,
    ));

    println!("{:>10} {:>10} {:>13}", "replicas", "reads", "reads/sec");
    for s in &samples {
        println!("{:>10} {:>10} {:>13.1}", s.replicas, s.reads, s.qps());
    }
    println!("lag convergence (us): {convergence_us:?}");

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"throughput_replicated_reads\",\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"doc_megabytes\": {},\n", args.megabytes));
    out.push_str(&format!("  \"window_ms\": {},\n", args.window.as_millis()));
    out.push_str(&format!("  \"readers\": {REPL_READERS},\n"));
    out.push_str(&format!(
        "  \"lag_burst\": {{\"writes\": {LAG_BURST_WRITES}, \"bursts\": {LAG_BURSTS}}},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"replicas\": {}, \"reads\": {}, \"reads_per_sec\": {:.1}}}{}\n",
            s.replicas,
            s.reads,
            s.qps(),
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"lag_convergence_ms\": {\n");
    out.push_str(&format!(
        "    \"samples_us\": [{}],\n",
        convergence_us
            .iter()
            .map(|us| us.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("    \"histogram\": {");
    out.push_str(
        &hist
            .iter()
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.push_str("}\n  }\n}\n");
    let path = args.out.as_deref().unwrap_or("BENCH_6.json");
    std::fs::write(path, &out).expect("write json");
    eprintln!("wrote {path}");
}

// ---------------------------------------------------------------------
// Sharded front tier: `--router SxR`.
// ---------------------------------------------------------------------

/// Reader threads driving the router vs. single-node windows. Held
/// constant across both tiers so the QPS delta isolates the topology.
const ROUTER_READERS: usize = 8;

/// One measurement window of the router benchmark.
struct RouterWindow {
    tier: &'static str,
    traffic: &'static str,
    reads: u64,
    elapsed: Duration,
}

impl RouterWindow {
    fn qps(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `readers` client threads against `addr` replaying `queries`
/// round-robin for `window`, counting completed requests.
fn wire_window(
    addr: std::net::SocketAddr,
    queries: &[String],
    readers: usize,
    window: Duration,
) -> (u64, Duration) {
    use vamana_server::testkit::Client;
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..readers.max(1) {
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let mut client = Client::connect_addr(addr);
                client.round_trip("LIMIT 5");
                let mut i = t; // offset so readers interleave the mix
                while !stop.load(Ordering::Relaxed) {
                    let reply = client.round_trip(&queries[i % queries.len()]);
                    assert!(
                        reply.last().is_some_and(|l| l.starts_with("OK")),
                        "{reply:?}"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    (reads.load(Ordering::Relaxed), start.elapsed())
}

/// `--router SxR`: stand up `shards` durable primaries × `replicas`
/// streaming replicas behind a router, load the same XMark document
/// under `2×shards` names through the front tier, and compare aggregate
/// QPS against a single-node server holding every document — once with
/// scatter-gather traffic (`QUERY` with no `DOC`, fanned across every
/// shard and merged) and once with doc-targeted traffic (`QUERY DOC`,
/// routed to the owner and load-balanced over its fresh replicas).
/// Results go to `BENCH_9.json` (override with `--out`).
fn run_router(args: &Args, shards: usize, replicas: usize) {
    use vamana_mass::FsyncPolicy;
    use vamana_replica::{Replica, ReplicaConfig};
    use vamana_router::{Router, RouterConfig};
    use vamana_server::testkit::{lag_value, Client};
    use vamana_server::{Server, ServerConfig};

    eprintln!("generating ~{} MB of XMark data…", args.megabytes);
    let xml = vamana_bench::document(args.megabytes);
    let dir = std::env::temp_dir().join(format!("vamana-bench-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let xml_path = dir.join("xmark.xml");
    std::fs::write(&xml_path, &xml).expect("write xml");

    // Two documents per shard: enough that scatter-gather has real
    // fan-out and the hash placement puts work on every shard.
    let docs = (shards * 2).max(2);
    let names: Vec<String> = (0..docs).map(|i| format!("xmark-{i}")).collect();

    // Single node: every document on one process (the no-router tier).
    let mut store = MassStore::open_memory();
    for name in &names {
        store.load_xml(name, &xml).expect("load single");
    }
    let single = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind single")
        .spawn()
        .expect("spawn single");

    // Sharded tier: durable primaries (replication needs a WAL), then
    // the replicas, then the router over all of them.
    let primaries: Vec<_> = (0..shards)
        .map(|s| {
            let path = dir.join(format!("shard-{s}.mass"));
            let store =
                MassStore::create_durable(&path, 4096, FsyncPolicy::Never).expect("shard store");
            Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
                .expect("bind shard")
                .spawn()
                .expect("spawn shard")
        })
        .collect();
    let followers: Vec<_> = (0..shards)
        .flat_map(|s| {
            let primary = primaries[s].addr().to_string();
            let dir = &dir;
            (0..replicas).map(move |r| {
                Replica::start(ReplicaConfig {
                    primary: primary.clone(),
                    data: dir.join(format!("replica-{s}-{r}.mass")),
                    fsync: FsyncPolicy::Never,
                    ..ReplicaConfig::default()
                })
                .expect("start replica")
            })
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: (0..shards)
            .map(|s| {
                (
                    primaries[s].addr().to_string(),
                    followers[s * replicas..(s + 1) * replicas]
                        .iter()
                        .map(|f| f.addr().to_string())
                        .collect(),
                )
            })
            .collect(),
        health_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("start router");

    // Load every document through the front tier so the registry holds
    // the exact global order (and placement exercises the real ring).
    let mut ctl = Client::connect_addr(router.addr());
    for name in &names {
        let reply = ctl.round_trip(&format!("LOAD {name} {}", xml_path.display()));
        assert!(reply[0].starts_with("OK loaded"), "LOAD {name}: {reply:?}");
    }

    // Wait for every replica to apply the loads, then for the router's
    // health monitor to observe the convergence (reads only balance to
    // replicas the router has seen fresh).
    for (s, primary) in primaries.iter().enumerate() {
        let mut pc = Client::connect(primary);
        let target = lag_value(&pc.round_trip("LAG"), "last_lsn");
        for follower in &followers[s * replicas..(s + 1) * replicas] {
            let mut fc = Client::connect_addr(follower.addr());
            let deadline = Instant::now() + Duration::from_secs(30);
            while lag_value(&fc.round_trip("LAG"), "applied_lsn") < target {
                assert!(Instant::now() < deadline, "replica never caught up");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    if replicas > 0 {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let fresh = ctl
                .round_trip("TOPOLOGY")
                .iter()
                .filter(|l| l.contains(" fresh=1"))
                .count();
            if fresh >= shards * replicas {
                break;
            }
            assert!(Instant::now() < deadline, "router never saw replicas fresh");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // Traffic mixes. Scatter: no DOC, the router fans across shards and
    // merges; the single node walks its local registry. Targeted: DOC
    // by name, round-robin over documents and queries.
    let scatter: Vec<String> = SCAN_QUERIES
        .iter()
        .map(|(_, xpath)| format!("QUERY {xpath}"))
        .collect();
    let targeted: Vec<String> = names
        .iter()
        .flat_map(|name| {
            SCAN_QUERIES
                .iter()
                .map(move |(_, xpath)| format!("QUERY DOC {name} {xpath}"))
        })
        .collect();

    eprintln!(
        "router benchmark: {shards} shard(s) × {replicas} replica(s), {docs} document(s), \
         {ROUTER_READERS} reader(s)"
    );
    println!(
        "{:>12} {:>10} {:>10} {:>13}",
        "tier", "traffic", "reads", "reads/sec"
    );
    let mut windows: Vec<RouterWindow> = Vec::new();
    for (tier, addr) in [("single_node", single.addr()), ("router", router.addr())] {
        for (traffic, queries) in [("scatter", &scatter), ("targeted", &targeted)] {
            let (reads, elapsed) = wire_window(addr, queries, ROUTER_READERS, args.window);
            let w = RouterWindow {
                tier,
                traffic,
                reads,
                elapsed,
            };
            println!(
                "{:>12} {:>10} {:>10} {:>13.1}",
                w.tier,
                w.traffic,
                w.reads,
                w.qps()
            );
            windows.push(w);
        }
    }
    router.stop();
    for follower in followers {
        follower.stop();
    }
    for primary in primaries {
        primary.stop();
    }
    single.stop();

    let _ = std::fs::remove_dir_all(&dir);

    let find = |tier: &str, traffic: &str| {
        windows
            .iter()
            .find(|w| w.tier == tier && w.traffic == traffic)
            .expect("window")
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"throughput_router_scatter_gather\",\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"doc_megabytes\": {},\n", args.megabytes));
    out.push_str(&format!("  \"window_ms\": {},\n", args.window.as_millis()));
    out.push_str(&format!("  \"readers\": {ROUTER_READERS},\n"));
    out.push_str(&format!(
        "  \"topology\": {{\"shards\": {shards}, \"replicas_per_shard\": {replicas}, \"documents\": {docs}}},\n"
    ));
    out.push_str("  \"results\": {\n");
    for (i, tier) in ["single_node", "router"].iter().enumerate() {
        let s = find(tier, "scatter");
        let t = find(tier, "targeted");
        out.push_str(&format!(
            "    \"{tier}\": {{\"scatter_reads\": {}, \"scatter_qps\": {:.1}, \"targeted_reads\": {}, \"targeted_qps\": {:.1}}}{}\n",
            s.reads,
            s.qps(),
            t.reads,
            t.qps(),
            if i == 0 { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"scatter_ratio_router_over_single\": {:.2},\n",
        find("router", "scatter").qps() / find("single_node", "scatter").qps()
    ));
    out.push_str(&format!(
        "  \"targeted_ratio_router_over_single\": {:.2}\n",
        find("router", "targeted").qps() / find("single_node", "targeted").qps()
    ));
    out.push_str("}\n");
    let path = args.out.as_deref().unwrap_or("BENCH_9.json");
    std::fs::write(path, &out).expect("write json");
    eprintln!("wrote {path}");
}
