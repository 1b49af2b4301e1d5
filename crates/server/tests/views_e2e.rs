//! End-to-end semantic-cache tests: a real TCP server as it comes —
//! `Engine::new`, `ServerConfig::default()` — with repeated queries
//! admitted into the view cache, responses byte-equal before and after
//! admission and equal to the DOM oracle, `STATS` view counters, the
//! `CACHE` verb, and invalidation through the write path.

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
fn repeated_queries_are_answered_from_a_view() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip("LIMIT 0");

    let cold = client.round_trip("QUERY //person/name");
    let warm = client.round_trip("QUERY //person/name"); // admission point
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_views") >= 1, "{stats:?}");
    assert!(stat_value(&stats, "view_bytes") > 0, "{stats:?}");

    let hot = client.round_trip("QUERY //person/name");
    let stats = client.round_trip("STATS");
    assert!(stat_value(&stats, "view_hits") >= 1, "{stats:?}");

    // Answers from the view must be byte-identical to the ones computed
    // before anything was admitted, and those to the DOM oracle's.
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

    // The CACHE verb lists the materialized view.
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

#[test]
fn analyze_marks_view_answered_queries() {
    let handle = spawn_views_server();
    let mut client = Client::connect(&handle);
    client.round_trip("QUERY //person/name");
    client.round_trip("QUERY //person/name");

    let report = client.round_trip("ANALYZE //person/name");
    assert!(
        report
            .iter()
            .any(|l| l.contains("answered from view: //person/name")),
        "{report:?}"
    );
    assert!(report.iter().any(|l| l.contains("ViewScan")), "{report:?}");

    let json = client.round_trip("ANALYZE JSON //person/name");
    assert!(
        json[0].contains("\"view\":\"//person/name\""),
        "{:?}",
        &json[0][..json[0].len().min(300)]
    );

    handle.stop();
}
