//! End-to-end result-memo tests: a real TCP server as it comes —
//! `Engine::new`, `ServerConfig::default()` — with repeated queries
//! kept by the memo, responses byte-equal before and after admission and
//! equal to the DOM oracle, `STATS` view counters, the `CACHE` verb, and
//! the write path, which drops the answers it can change and carries the
//! rest.

use std::time::Duration;
use vamana_baseline::dom::DomEngine;
use vamana_baseline::XPathEngine;
use vamana_core::Engine;
use vamana_mass::MassStore;
use vamana_server::testkit::{stat_value, view_count, Client};
use vamana_server::{Server, ServerConfig, ServerHandle};
use vamana_xmark::{generate_string, XmarkConfig};

fn xmark() -> String {
    generate_string(&XmarkConfig::with_scale(0.003))
}

fn spawn_views_server() -> ServerHandle {
    let mut store = MassStore::open_memory();
    store.load_xml("auction", &xmark()).expect("load xmark");
    Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn rows(response: &[String]) -> Vec<&String> {
    response.iter().filter(|l| l.starts_with("ROW ")).collect()
}

#[test]
fn repeated_queries_are_answered_from_the_memo() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip("LIMIT 0");

    let cold = client.round_trip("QUERY //person/name");
    let warm = client.round_trip("QUERY //person/name"); // admission point
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_views") >= 1, "{stats:?}");
    assert!(stat_value(&stats, "view_bytes") > 0, "{stats:?}");

    let hot = client.round_trip("QUERY //person/name");
    assert!(hot.last().unwrap().contains(" plan=cached "), "{hot:?}");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_hits") >= 1, "{stats:?}");

    // Answers from the memo must be byte-identical to the ones computed
    // before anything was kept, and those to the DOM oracle's.
    assert_eq!(rows(&cold), rows(&warm));
    assert_eq!(rows(&cold), rows(&hot));
    let oracle: Vec<String> = DomEngine::from_xml(&xmark())
        .unwrap()
        .identities("//person/name")
        .unwrap()
        .into_iter()
        .map(|n| format!("ROW <{}> {}", n.name, n.value))
        .collect();
    assert_eq!(rows(&hot), oracle.iter().collect::<Vec<_>>());

    // The CACHE verb lists the kept answer.
    let listing = client.round_trip("CACHE");
    assert!(view_count(&listing) >= 1, "{listing:?}");
    assert!(
        listing.iter().any(|l| l.contains("//person/name")),
        "{listing:?}"
    );

    handle.stop();
}

#[test]
fn writes_invalidate_views_and_later_queries_see_new_data() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip("LIMIT 0");

    let before = client.round_trip("QUERY //person/name");
    client.round_trip("QUERY //person/name");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_views") >= 1, "{stats:?}");

    let update =
        client.round_trip("INSERT auction /site/people <person id='pX'><name>Zed</name></person>");
    assert!(update[0].starts_with("OK update"), "{update:?}");

    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_views"), 0, "{stats:?}");
    assert!(stat_value(&stats, "view_evictions") >= 1, "{stats:?}");

    let after = client.round_trip("QUERY //person/name");
    assert_eq!(rows(&after).len(), rows(&before).len() + 1, "{after:?}");
    assert!(
        after.iter().any(|l| l.contains("Zed")),
        "inserted person missing: {after:?}"
    );

    handle.stop();
}

#[test]
fn cache_clear_drops_views() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip("QUERY //province");
    client.round_trip("QUERY //province");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_views") >= 1, "{stats:?}");

    assert_eq!(client.round_trip("CACHE CLEAR"), vec!["OK cache cleared"]);
    let listing = client.round_trip("CACHE LIST");
    assert_eq!(view_count(&listing), 0, "{listing:?}");
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_views"), 0, "{stats:?}");

    let err = client.round_trip("CACHE FROB");
    assert!(err[0].starts_with("ERR proto"), "{err:?}");

    handle.stop();
}

/// EXPLAIN and ANALYZE describe and run the plan that computes the
/// answer, whether or not the memo holds it.
#[test]
fn analyze_runs_the_plan_after_admission() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    let plan_lines = |reply: Vec<String>| -> Vec<String> {
        reply
            .into_iter()
            .filter(|l| l.starts_with("PLAN "))
            .collect()
    };
    let cold = plan_lines(client.round_trip("EXPLAIN //person/name"));
    client.round_trip("QUERY //person/name");
    client.round_trip("QUERY //person/name");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_views") >= 1, "{stats:?}");
    assert_eq!(plan_lines(client.round_trip("EXPLAIN //person/name")), cold);

    let report = client.round_trip("ANALYZE //person/name");
    assert!(report.iter().any(|l| l.contains("act=")), "{report:?}");
    assert!(!report.iter().any(|l| l.contains("view")), "{report:?}");
    let json = client.round_trip("ANALYZE JSON //person/name");
    assert!(!json[0].contains("\"view\""), "{}", &json[0]);

    handle.stop();
}

/// A query its deadline cuts off offers nothing to the cache: asked more
/// often than an answer needs to be computed to be kept, it keeps none.
#[test]
fn timed_out_queries_admit_nothing() {
    let mut store = MassStore::open_memory();
    store.load_xml("auction", &xmark()).expect("load xmark");
    let engine = Engine::new(store);
    let admit_after = engine.options().view_admit_after;
    let config = ServerConfig {
        query_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(&handle);
    for _ in 0..=admit_after {
        let reply = client.round_trip("QUERY //person/name");
        assert!(
            reply.len() == 1 && reply[0].starts_with("ERR timeout"),
            "{reply:?}"
        );
    }
    assert_eq!(client.round_trip("CACHE"), vec!["OK 0 view(s)"]);
    handle.stop();
}

/// `bytes=` of the `CACHE` line of the kept answer to `xpath`.
fn kept_bytes(listing: &[String], xpath: &str) -> u64 {
    let line = listing
        .iter()
        .find(|l| l.starts_with("VIEW ") && l.ends_with(&format!(" {xpath}")))
        .unwrap_or_else(|| panic!("{xpath} not kept: {listing:?}"));
    let bytes = line.split(" bytes=").nth(1).unwrap().split(' ').next();
    bytes.unwrap().parse().unwrap()
}

/// Bytes of a reply's `ROW` lines as written.
fn row_bytes(response: &[String]) -> u64 {
    rows(response).iter().map(|l| l.len() as u64 + 1).sum()
}

/// A kept answer keeps the reply it was last shown with. Asked again, the
/// reply's rows are written as they were, with no page read (`hits=0
/// misses=0`) and no lookup counted beyond the one that found the answer.
/// Another connection under another `LIMIT` gets its own rows; `CACHE`
/// counts the reply's bytes with the answer's. A write of text below a
/// shown row drops the reply, and the next reply shows the new value,
/// byte-equal to a fresh server's.
#[test]
fn a_kept_answer_keeps_its_reply_until_a_write() {
    const XPATH: &str = "//person/name";
    let query = format!("QUERY {XPATH}");
    let handle = spawn_views_server();
    let cache = handle.shared().cache();
    let mut client = Client::connect(&handle);
    let computed = client.round_trip(&query);
    let admitted = client.round_trip(&query);
    assert_eq!(rows(&computed), rows(&admitted));
    assert!(rows(&computed).len() == 20, "{computed:?}");

    let (counters, views) = (cache.counters(), cache.stats());
    let kept = client.round_trip(&query);
    assert_eq!(rows(&kept), rows(&computed));
    let ok = kept.last().unwrap();
    assert!(
        ok.contains(" plan=cached ") && ok.ends_with(" hits=0 misses=0"),
        "{ok}"
    );
    let (after, after_views) = (cache.counters(), cache.stats());
    assert_eq!((after.0 - counters.0, after.1 - counters.1), (1, 0));
    assert_eq!(
        (
            after_views.hits - views.hits,
            after_views.misses - views.misses
        ),
        (1, 0)
    );
    let bytes_20 = kept_bytes(&client.round_trip("CACHE"), XPATH);

    // Another row cap is another reply, in the one slot.
    let mut other = Client::connect(&handle);
    other.round_trip("LIMIT 3");
    let three = other.round_trip(&query);
    assert_eq!(rows(&three), rows(&kept)[..3]);
    assert_eq!(total(&three), total(&kept));
    let bytes_3 = kept_bytes(&client.round_trip("CACHE"), XPATH);
    assert_eq!(bytes_20 - bytes_3, row_bytes(&kept) - row_bytes(&three));
    assert_eq!(rows(&client.round_trip(&query)), rows(&kept));

    // A write that changes the first shown value; then one that restores it.
    let target = "/site/people/person[1]/name";
    let insert = format!("INSERT auction {target} <i>Zed</i>");
    assert!(client.round_trip(&insert)[0].starts_with("OK update"));
    let written = client.round_trip(&query);
    // The answer holds no `i`, so it is carried; its reply is re-rendered.
    assert_eq!(cache.stats().carried, 1);
    assert_ne!(rows(&written)[0], rows(&kept)[0]);
    assert!(rows(&written)[0].ends_with("Zed"), "{written:?}");
    assert_eq!(rows(&written)[1..], rows(&kept)[1..]);
    let fresh = spawn_views_server();
    let mut fresh_client = Client::connect(&fresh);
    assert!(fresh_client.round_trip(&insert)[0].starts_with("OK update"));
    assert_eq!(rows(&fresh_client.round_trip(&query)), rows(&written));

    let delete = format!("DELETE auction {target}/i");
    assert!(client.round_trip(&delete)[0].starts_with("OK update"));
    for _ in 0..3 {
        assert_eq!(rows(&client.round_trip(&query)), rows(&kept));
    }
    fresh.stop();
    handle.stop();
}

/// The `OK` line of a reply up to its plan source: the row total, which
/// does not vary with timing.
fn total(reply: &[String]) -> &str {
    reply.last().unwrap().split(" plan=").next().unwrap()
}

/// A write a kept answer cannot see carries it, and its reply: after a
/// text-free `INSERT` under a person, `QUERY //person/name` is written
/// from the stored reply (`hits=0 misses=0`), and `STATS` counts the
/// answer in `view_carried`. A `DELETE` of a person drops it, and the
/// next reply is byte-equal to a fresh server's after the same writes.
#[test]
fn a_write_an_answer_cannot_see_keeps_its_reply() {
    const QUERY: &str = "QUERY //person/name";
    const INSERT: &str = "INSERT auction /site/people/person[1] <note seq='1'/>";
    const DELETE: &str = "DELETE auction /site/people/person[2]";
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip(QUERY);
    client.round_trip(QUERY);
    let kept = client.round_trip(QUERY);
    assert!(
        kept.last().unwrap().ends_with(" hits=0 misses=0"),
        "{kept:?}"
    );

    assert!(client.round_trip(INSERT)[0].starts_with("OK update"));
    let carried = client.round_trip(QUERY);
    assert_eq!(rows(&carried), rows(&kept));
    assert_eq!(total(&carried), total(&kept));
    let ok = carried.last().unwrap();
    assert!(
        ok.contains(" plan=cached ") && ok.ends_with(" hits=0 misses=0"),
        "{ok}"
    );
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_carried"), 1, "{stats:?}");
    assert_eq!(stat_value(&stats, "view_views"), 1, "{stats:?}");

    assert!(client.round_trip(DELETE)[0].starts_with("OK update"));
    let stats = client.round_trip("STATS");
    assert_eq!(stat_value(&stats, "view_views"), 0, "{stats:?}");
    assert_eq!(stat_value(&stats, "view_carried"), 1, "{stats:?}");
    let after = client.round_trip(QUERY);
    assert_ne!(rows(&after), rows(&kept));
    let fresh = spawn_views_server();
    let mut fresh_client = Client::connect(&fresh);
    for write in [INSERT, DELETE] {
        assert!(fresh_client.round_trip(write)[0].starts_with("OK update"));
    }
    let want = fresh_client.round_trip(QUERY);
    assert_eq!(rows(&after), rows(&want));
    assert_eq!(total(&after), total(&want));
    fresh.stop();
    handle.stop();
}
