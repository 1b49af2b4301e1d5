//! End-to-end tests: a real TCP server, real sockets, concurrent
//! clients, and the acceptance criteria from the serving-layer issue —
//! ≥ 8 concurrent connections with results identical to single-threaded
//! execution, a plan cache that hits on repetition and invalidates on
//! load, and deadline enforcement.

use std::sync::Arc;
use std::time::Duration;

use vamana_core::Engine;
use vamana_mass::MassStore;
use vamana_server::testkit::{stat_value, Client};
use vamana_server::{Server, ServerConfig, ServerHandle};
use vamana_xmark::{generate_string, XmarkConfig};

fn xmark_engine() -> Engine {
    let xml = generate_string(&XmarkConfig::with_scale(0.003));
    let mut store = MassStore::open_memory();
    store.load_xml("auction", &xml).expect("load xmark");
    Engine::new(store)
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", xmark_engine(), config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

#[test]
fn ping_limit_and_unknown_verbs() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    assert_eq!(client.round_trip("LIMIT 3"), vec!["OK limit 3"]);
    let err = client.round_trip("LIMIT many");
    assert!(err[0].starts_with("ERR proto"), "{err:?}");
    let err = client.round_trip("FROBNICATE");
    assert!(err[0].starts_with("ERR proto unknown"), "{err:?}");
    let err = client.round_trip("QUERY");
    assert!(err[0].starts_with("ERR proto"), "{err:?}");
    assert_eq!(client.round_trip("QUIT"), vec!["OK bye"]);
    handle.stop();
}

#[test]
fn query_rows_match_direct_engine_and_limit_applies() {
    let handle = spawn_server(ServerConfig::default());
    // Reference: the same document queried directly, rendered by the
    // same shared rendering path the server uses.
    let engine = xmark_engine();
    let nodes = engine.query("//province").expect("direct query");
    let rendered = vamana_server::render_rows(
        &engine,
        &nodes,
        &vamana_server::RenderOptions {
            limit: 0,
            value_width: 200,
        },
    )
    .expect("render");

    let mut client = Client::connect(&handle);
    client.round_trip("LIMIT 0");
    let response = client.round_trip("QUERY //province");
    let (ok, rows) = response.split_last().expect("nonempty");
    assert!(
        ok.starts_with(&format!("OK {} row(s)", nodes.len())),
        "{ok}"
    );
    let expected: Vec<String> = rendered.lines.iter().map(|l| format!("ROW {l}")).collect();
    assert_eq!(rows, &expected[..]);

    // LIMIT caps rendered rows but reports full cardinality.
    client.round_trip("LIMIT 2");
    let response = client.round_trip("QUERY //province");
    assert_eq!(response.len() - 1, nodes.len().min(2));
    assert!(response
        .last()
        .unwrap()
        .starts_with(&format!("OK {} row(s)", nodes.len())));
    handle.stop();
}

#[test]
fn eval_returns_scalars() {
    let handle = spawn_server(ServerConfig::default());
    let engine = xmark_engine();
    let people = engine.query("//person").expect("count people").len();
    let mut client = Client::connect(&handle);
    let response = client.round_trip("EVAL count(//person)");
    assert_eq!(response[0], format!("VAL {people}"));
    assert!(response[1].starts_with("OK scalar"), "{response:?}");
    handle.stop();
}

#[test]
fn eight_concurrent_clients_get_single_threaded_results() {
    let handle = spawn_server(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    });
    const QUERIES: [&str; 4] = [
        "QUERY //person/name",
        "QUERY //open_auction",
        "QUERY //province",
        "QUERY /site/regions",
    ];
    // Reference answers fetched over one connection before any
    // concurrency: by acceptance criterion, concurrent execution must
    // produce exactly these (document-order, deduplicated) responses.
    let mut reference = Client::connect(&handle);
    reference.round_trip("LIMIT 0");
    let expected: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| {
            let mut lines = reference.round_trip(q);
            // The OK line carries plan/cache/latency details that vary
            // per run; compare rows plus the stable OK prefix.
            let ok = lines.pop().unwrap();
            lines.push(ok.split(" plan=").next().unwrap().to_string());
            lines
        })
        .collect();

    let handle = Arc::new(handle);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let handle = Arc::clone(&handle);
            let expected = expected.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&handle);
                client.round_trip("LIMIT 0");
                for round in 0..4 {
                    let pick = (t + round) % QUERIES.len();
                    let mut got = client.round_trip(QUERIES[pick]);
                    let ok = got.pop().unwrap();
                    assert!(!ok.starts_with("ERR"), "{ok}");
                    got.push(ok.split(" plan=").next().unwrap().to_string());
                    assert_eq!(got, expected[pick], "thread {t} round {round}");
                }
            });
        }
    });

    let mut client = Client::connect(&handle);
    let stats = client.round_trip("STATS");
    assert!(
        stat_value(&stats, "plan_cache_hits") > 0,
        "repeated queries must hit the plan cache: {stats:?}"
    );
    assert_eq!(stat_value(&stats, "errors_total"), 0);
    assert!(stat_value(&stats, "queries_total") >= 8 * 4);
    assert!(stat_value(&stats, "latency_p99_us") >= stat_value(&stats, "latency_p50_us"));
    Arc::into_inner(handle).unwrap().stop();
}

#[test]
fn load_invalidates_plan_cache_and_new_document_is_queryable() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);

    // First run compiles, second hits the cache. The comparison keeps the
    // query out of the view fragment: the plan cache is the only cache in
    // play (a view admitted on the repeat would supersede the plan).
    let first = client.round_trip("QUERY //province[. != '']");
    assert!(first.last().unwrap().contains("plan=compiled"), "{first:?}");
    let second = client.round_trip("QUERY //province[. != '']");
    assert!(second.last().unwrap().contains("plan=cached"), "{second:?}");

    let stats = client.round_trip("STATS");
    let generation_before = stat_value(&stats, "store_generation");
    assert!(stat_value(&stats, "plan_cache_size") > 0);

    // Loading a document bumps the store generation but leaves the
    // existing document's cached plans warm: invalidation is per
    // document, not store-wide.
    let loaded = client.round_trip("LOADXML tiny <r><province>Eden</province></r>");
    assert!(loaded[0].starts_with("OK loaded document 1"), "{loaded:?}");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "store_generation") > generation_before);
    assert!(
        stat_value(&stats, "plan_cache_size") > 0,
        "a load must not clear other documents' plans: {stats:?}"
    );

    // The next query compiles a plan only for the new document and sees
    // its rows (any per-document miss reports `plan=compiled`).
    let third = client.round_trip("QUERY //province[. != '']");
    assert!(third.last().unwrap().contains("plan=compiled"), "{third:?}");
    assert!(
        third.iter().any(|l| l.contains("Eden")),
        "new document's provinces must appear: {third:?}"
    );
    handle.stop();
}

#[test]
fn zero_timeout_reports_deadline_exceeded() {
    let handle = spawn_server(ServerConfig {
        query_timeout: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    let response = client.round_trip("QUERY //person");
    assert!(response[0].starts_with("ERR timeout"), "{response:?}");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "timeouts") >= 1);
    handle.stop();
}

#[test]
fn query_errors_are_reported_not_fatal() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let response = client.round_trip("QUERY //person[");
    assert!(response[0].starts_with("ERR query"), "{response:?}");
    // The connection survives an error.
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    handle.stop();
}

#[test]
fn scan_worker_config_and_parallel_stats_are_reported() {
    let handle = spawn_server(ServerConfig {
        scan_workers: 3,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "scan_workers"), 3);
    // Counters are present from the first STATS on (zero until a query
    // clears the parallel threshold and fans out).
    for key in [
        "pool_par_morsels",
        "pool_par_batches",
        "pool_par_merge_stalls",
    ] {
        stat_value(&stats, key);
    }
    handle.stop();
}

#[test]
fn explain_and_analyze_report_plans_over_the_wire() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);

    let response = client.round_trip("EXPLAIN //person/name");
    let (ok, lines) = response.split_last().expect("nonempty");
    assert!(ok.starts_with("OK") && ok.contains("line(s)"), "{ok}");
    assert!(lines.iter().all(|l| l.starts_with("PLAN ")), "{lines:?}");
    let text = lines.join("\n");
    assert!(text.contains("default plan"), "{text}");
    assert!(text.contains("optimized plan"), "{text}");
    assert!(text.contains("pass: clean-up"), "{text}");

    let response = client.round_trip("ANALYZE //person/name");
    let (ok, lines) = response.split_last().expect("nonempty");
    assert!(ok.starts_with("OK"), "{ok}");
    let text = lines.join("\n");
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("act="), "{text}");
    assert!(text.contains("misestimations"), "{text}");

    // JSON form: one PLAN line carrying a JSON object.
    let response = client.round_trip("ANALYZE JSON //person/name");
    assert_eq!(response.len(), 2, "{response:?}");
    assert!(response[0].starts_with("PLAN {"), "{response:?}");
    assert!(response[0].contains("\"operators\""), "{response:?}");
    let response = client.round_trip("EXPLAIN JSON //person/name");
    assert!(response[0].starts_with("PLAN {"), "{response:?}");
    assert!(response[0].contains("\"optimized_plan\""), "{response:?}");

    // Errors mirror QUERY's behavior and keep the connection alive.
    let err = client.round_trip("EXPLAIN");
    assert!(err[0].starts_with("ERR proto"), "{err:?}");
    let err = client.round_trip("ANALYZE //person[");
    assert!(err[0].starts_with("ERR query"), "{err:?}");
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    handle.stop();
}

#[test]
fn doc_scoped_verbs_and_docs_listing() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);
    client.round_trip("LIMIT 0");
    client.round_trip("LOADXML extra <r><province>Eden</province></r>");

    // DOCS lists both documents in load order with generations.
    let docs = client.round_trip("DOCS");
    assert!(docs[0].starts_with("DOC 0 auction generation="), "{docs:?}");
    assert!(docs[1].starts_with("DOC 1 extra generation="), "{docs:?}");
    assert!(
        docs.last().unwrap().starts_with("OK 2 document(s)"),
        "{docs:?}"
    );

    // A DOC-scoped QUERY sees only its document; the unscoped one sees
    // both. Name and ordinal resolve to the same document.
    let all = client.round_trip("QUERY //province");
    let scoped = client.round_trip("QUERY DOC extra //province");
    assert!(scoped.iter().any(|l| l.contains("Eden")), "{scoped:?}");
    assert!(scoped.len() < all.len(), "scoped must be a strict subset");
    let stable = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .map(|l| l.split(" plan=").next().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        stable(client.round_trip("QUERY DOC 1 //province")),
        stable(scoped.clone()),
        "ordinal and name scoping must agree"
    );

    // EVAL/EXPLAIN/ANALYZE accept the same scope.
    let count = client.round_trip("EVAL DOC extra count(//province)");
    assert_eq!(count[0], "VAL 1", "{count:?}");
    let plan = client.round_trip("EXPLAIN JSON DOC extra //province");
    assert!(plan[0].starts_with("PLAN {"), "{plan:?}");
    let analyzed = client.round_trip("ANALYZE DOC extra //province");
    assert!(
        analyzed.iter().any(|l| l.starts_with("PLAN ")),
        "{analyzed:?}"
    );

    // Unknown documents are a query error, not a protocol error.
    for q in [
        "QUERY DOC nosuch //province",
        "EVAL DOC 9 count(//province)",
    ] {
        let err = client.round_trip(q);
        assert!(err[0].starts_with("ERR query no such document"), "{err:?}");
    }
    handle.stop();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn_server(ServerConfig::default());
    // Raw socket: write a burst of requests in one syscall, then read
    // every response. The event core parses them pipelined; replies
    // must come back complete and in request order.
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(b"PING\nEVAL count(//province)\nPING\nLIMIT 3\nEVAL count(//province)\nQUIT\n")
        .expect("write burst");
    writer.flush().expect("flush");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        lines.push(line.expect("read"));
    }
    let expected_count = lines[1].clone();
    assert_eq!(lines[0], "OK pong");
    assert!(lines[1].starts_with("VAL "), "{lines:?}");
    assert!(lines[2].starts_with("OK scalar"), "{lines:?}");
    assert_eq!(lines[3], "OK pong");
    assert_eq!(lines[4], "OK limit 3");
    assert_eq!(lines[5], expected_count, "same query, same answer");
    assert!(lines[6].starts_with("OK scalar"), "{lines:?}");
    assert_eq!(lines[7], "OK bye");
    assert_eq!(lines.len(), 8, "{lines:?}");
}

#[test]
fn many_idle_connections_do_not_occupy_threads() {
    let handle = spawn_server(ServerConfig::default());
    // Park a crowd of idle connections on the event core...
    let idle: Vec<_> = (0..128)
        .map(|_| std::net::TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    // ...and the process thread count stays far below one-per-socket
    // (loop + workers + test harness, not 128 connection threads).
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse::<usize>().ok())
        })
        .expect("read thread count");
    assert!(
        threads < 64,
        "{threads} threads for 128 idle connections — thread-per-connection?"
    );
    // The connections are all live: each answers a request.
    for stream in &idle {
        use std::io::{BufRead, BufReader, Write};
        let mut w = stream.try_clone().expect("clone");
        w.write_all(b"PING\n").expect("write");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read");
        assert_eq!(line.trim_end(), "OK pong");
    }
    handle.stop();
}

#[test]
fn queries_too_deep_to_run_are_errors_not_aborts() {
    // 8 KB lines that used to overflow a worker's stack and abort the
    // whole process: nesting, and chains as deep as they are long.
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let lines = [
        format!("EVAL {}1{}", "(".repeat(4090), ")".repeat(4090)),
        format!("EVAL {}1", "-".repeat(8000)),
        format!("EVAL {}1", "1+".repeat(4000)),
        format!("QUERY //person{}", "[name".repeat(1600) + &"]".repeat(1600)),
        format!("QUERY {}a", "a/".repeat(4000)),
        format!("QUERY {}//a", "//a|".repeat(2000)),
        format!("ANALYZE {}a", "a/".repeat(4000)),
    ];
    for line in &lines {
        let reply = client.round_trip(line);
        assert!(
            reply[0].starts_with("ERR ") && reply[0].contains("levels deep"),
            "{}… → {reply:?}",
            &line[..24]
        );
        // The connection and the process survive.
        assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    }
    let response = client.round_trip("QUERY //province");
    assert!(response.last().unwrap().starts_with("OK "), "{response:?}");
    handle.stop();
}

/// One line bound on the one connection core: a line that carries no
/// document is refused a few tens of KB in — answered, closed, never
/// buffered — while the verbs that do carry one keep their room.
#[test]
fn over_long_lines_are_refused_but_documents_still_load() {
    use std::io::{Read, Write};
    let handle = spawn_server(ServerConfig::default());
    let refused = |line: &[u8]| {
        let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        // The server closes mid-line: count what it let the client send.
        let sent = line
            .chunks(64 << 10)
            .take_while(|chunk| stream.write_all(chunk).is_ok())
            .count()
            * (64 << 10);
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert_eq!(reply, "ERR line too long\n");
        sent
    };
    let mut line = b"QUERY ".to_vec();
    line.resize(1 << 20, b'a');
    refused(&line);
    // 64 MB would fit the document bound; the socket buffers between the
    // two ends hold a few MB at most, and the server took none of it in.
    line.resize(64 << 20, b'a');
    let sent = refused(&line);
    assert!(
        sent < 32 << 20,
        "the server let {sent} bytes of one line in"
    );

    // The process and its connection handling survive...
    let mut client = Client::connect(&handle);
    assert_eq!(client.round_trip("PING"), vec!["OK pong"]);
    // ...and an 8 MB document still loads inline.
    let mut xml = String::from("<big>");
    while xml.len() < 8 << 20 {
        xml.push_str("<row><cell>0123456789abcdef</cell></row>");
    }
    xml.push_str("</big>");
    let loaded = client.round_trip(&format!("LOADXML big {xml}"));
    assert!(loaded[0].starts_with("OK loaded document 1"), "{loaded:?}");
    let count = client.round_trip("EVAL DOC big count(//row)");
    assert_eq!(count[0], format!("VAL {}", xml.matches("<row>").count()));
    handle.stop();
}

#[test]
fn a_query_behind_a_writer_counts_its_wait() {
    let handle = spawn_server(ServerConfig::default());
    let mut client = Client::connect(&handle);
    let before = stat_value(&client.round_trip("STATS"), "reader_wait_us");
    let shared = handle.shared();
    let (held, holding) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let _engine = shared.engine().write();
            held.send(()).expect("the test waits for this");
            std::thread::sleep(Duration::from_millis(50));
        });
        // The query is sent only once the writer holds the engine.
        holding.recv().expect("the writer took the engine");
        let reply = client.round_trip("QUERY //person/name");
        assert!(
            reply.last().is_some_and(|ok| ok.starts_with("OK")),
            "{reply:?}"
        );
    });
    let after = stat_value(&client.round_trip("STATS"), "reader_wait_us");
    assert!(
        after - before >= 40_000,
        "reader_wait_us {before} -> {after}"
    );
    handle.stop();
}
