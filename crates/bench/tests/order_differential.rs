//! Differential correctness of "document order is known, not re-derived"
//! on the documents it is hardest on: *recursive* ones, where `a` lies
//! inside `a`, so that the contexts of `//a//b` nest, its raw output
//! repeats nodes and `//a/b` comes out of order. A result is sorted only
//! when the plan does not emit in order or its output step saw contexts
//! nest; every result, sorted or not, must be the DOM oracle's — in all
//! three configurations the differential suites span — and the witness
//! must trip exactly when the contexts nest.
//!
//! In a debug build `finish_node_set` also asserts strict ascent of every
//! result it does not sort; CI runs this file in `--release` as well,
//! where the comparison with the oracle is the only guard.

use vamana_baseline::dom::DomEngine;
use vamana_baseline::XPathEngine;
use vamana_bench::{drain_stream_set, PULL_SIZES, QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, EngineOptions, MassStore, NodeEntry};
use vamana_xmark::scale::config_for_megabytes;

/// `groups` top-level `a`s; with `recursive`, each holds an `a` that holds
/// an `a`. Enough records for a dozen pages, so that scans cross them.
fn document(groups: usize, recursive: bool) -> String {
    let mut xml = String::from("<r>");
    for i in 0..groups {
        xml.push_str(&format!("<a x='{i}'><b>first {i}</b>"));
        if recursive {
            xml.push_str(&format!(
                "<a x='{i}.1' y='in'><b>inner {i}</b><c><b>deep {i}</b></c>\
                 <a x='{i}.1.1'><b>innermost {i}</b></a><b>after {i}</b></a>"
            ));
        } else {
            xml.push_str(&format!("<c><b>deep {i}</b></c><d y='in'>{i}</d>"));
        }
        xml.push_str(&format!("<b x='{i}'>last {i}</b><d/></a>"));
        if i % 5 == 0 {
            xml.push_str(&format!("<c><b>lone {i}</b></c>"));
        }
    }
    xml.push_str("</r>");
    xml
}

/// The three configurations: default plans; optimized on one thread;
/// optimized with every eligible scan fanned out.
fn configurations(xml: &str) -> Vec<(&'static str, Engine)> {
    let base = EngineOptions {
        parallel_workers: 1,
        view_admit_after: u32::MAX,
        ..Default::default()
    };
    [
        (
            "default plans",
            EngineOptions {
                optimize: false,
                ..base.clone()
            },
        ),
        ("optimized, one thread", base.clone()),
        (
            "optimized, fanned out",
            EngineOptions {
                parallel_workers: 2,
                parallel_force: true,
                ..base
            },
        ),
    ]
    .into_iter()
    .map(|(label, options)| {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", xml).expect("load");
        (label, Engine::with_options(store, options))
    })
    .collect()
}

fn identities(engine: &Engine, rows: &[NodeEntry]) -> Vec<vamana_baseline::NodeIdentity> {
    let names = engine.names_of(rows).expect("names");
    let values = engine.string_values(rows).expect("values");
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| vamana_baseline::NodeIdentity { name, value })
        .collect()
}

/// Downward chains whose contexts nest on the recursive document,
/// positional predicates, unions, reverse and sideways axes below and at
/// the output step, and wildcard steps the parallel gate can take; then
/// reverse and sideways steps under predicates, position-free ones (their
/// rows are filtered as they stream) beside positional ones (their group
/// is materialized).
const QUERIES_ON_A: [&str; 31] = [
    "//a//b",
    "//a/b",
    "//a/@x",
    "//a//@y",
    "//a/descendant-or-self::*",
    "//a/descendant-or-self::a/b",
    "/r/a/b",
    "/r/a//b",
    "//a/b[1]",
    "//a//b[2]",
    "//a[2]/b",
    "(//a)[3]//b",
    "//a[c]//b[last()]",
    "//a/b | //c/b",
    "//a//b | //b",
    "//b/parent::a",
    "//b/ancestor::a",
    "//b/ancestor::a/b",
    "//c/b/ancestor::a//b",
    "//a/b/preceding-sibling::*",
    "//a/b/following-sibling::b/parent::a/@x",
    "//a/*",
    "//a//*",
    "/r/*/*",
    "//b/ancestor::a[b][1]",
    "//b/ancestor::a[last()]",
    "//b/parent::*[c]",
    "//a/b[1+1]",
    "//b[not(c)]",
    "//b[parent::a and @x]",
    "//a/b/preceding-sibling::*[1]",
];

#[test]
fn recursive_documents_agree_with_the_dom_in_every_configuration() {
    for recursive in [true, false] {
        let xml = document(480, recursive);
        let dom = DomEngine::from_xml(&xml).unwrap();
        for (label, engine) in configurations(&xml) {
            assert!(engine.store().stats().pages >= 8, "{label}: too few pages");
            for xpath in QUERIES_ON_A {
                let what = format!("{xpath} ({label}, recursive: {recursive})");
                let oracle = dom.identities(xpath).expect(xpath);
                assert!(!oracle.is_empty(), "{what}: oracle returned nothing");
                let rows = engine.query_doc(DocId(0), xpath).expect(xpath);
                assert!(
                    rows.windows(2).all(|w| w[0].key < w[1].key),
                    "{what}: not a node-set"
                );
                assert_eq!(identities(&engine, &rows), oracle, "{what}");
                let reference = engine.query_doc(DocId(0), xpath).expect(xpath);
                for max in PULL_SIZES {
                    assert_eq!(
                        drain_stream_set(&engine, xpath, max),
                        reference,
                        "{what}: streamed by {max}"
                    );
                }
            }
            if label == "optimized, fanned out" {
                assert!(engine.parallel_stats().morsels > 0, "no scan fanned out");
            }
        }
    }
}

/// Whether `xpath`'s stream, drained, says it came in document order —
/// checked against what it delivered.
fn streams_in_order(engine: &Engine, xpath: &str) -> bool {
    let mut stream = engine.stream(DocId(0), xpath).expect(xpath);
    let mut out = Vec::new();
    while stream.next_batch(&mut out, 256).expect(xpath) == 256 {}
    let in_order = stream.in_document_order();
    if in_order {
        let plan = stream.plan();
        assert!(plan.emits_in_order(plan.top().unwrap()), "{xpath}");
        assert!(out.windows(2).all(|w| w[0].key < w[1].key), "{xpath}");
    }
    in_order
}

#[test]
fn the_witness_trips_exactly_when_the_output_steps_contexts_nest() {
    // (query; the query whose result is its output step's context list
    // under the optimized plan — clean-up makes `//a` one `descendant::a`
    // step, and none of these has a shape a rewrite rule takes; whether
    // those contexts nest on the recursive document).
    let downward = [
        ("//a//b", "//a", true),
        ("//a/@x", "//a", true),
        ("//a/descendant-or-self::*", "//a", true),
        ("//a//*", "//a", true),
        ("//a/*", "//a", true),
        ("//a/a//b", "//a/a", true),
        ("/r/a//b", "/r/a", false),
        ("/r/a/*", "/r/a", false),
        ("/r/*/*", "/r/*", false),
        ("//c//b", "//c", false),
    ];
    for recursive in [true, false] {
        let xml = document(220, recursive);
        for (label, engine) in configurations(&xml) {
            if !label.starts_with("optimized") {
                continue;
            }
            for (xpath, contexts, nest_when_recursive) in downward {
                if !recursive && contexts == "//a/a" {
                    continue; // no `a` in `a` to start from
                }
                let what = format!("{xpath} ({label}, recursive: {recursive})");
                let contexts = engine.query_doc(DocId(0), contexts).unwrap();
                let nest = contexts
                    .windows(2)
                    .any(|w| w[0].key.is_ancestor_of(&w[1].key));
                assert_eq!(nest, recursive && nest_when_recursive, "{what}: fixture");
                assert_eq!(streams_in_order(&engine, xpath), !nest, "{what}");
            }
            // Nothing is asked of a plan that promises nothing.
            for xpath in [
                "//b/ancestor::a",
                "//a/b | //c/b",
                "//a/b/preceding-sibling::*",
            ] {
                assert!(!streams_in_order(&engine, xpath), "{xpath} ({label})");
            }
        }
    }
}

/// Which benchmark requests sort (EXPERIMENTS.md, "Which requests
/// sort"). Optimized, none whose output step is a downward step or a
/// merge of morsels: the scans S1–S5, the six regions
/// and `/site/open_auctions//*`, Q1 and Q3, and the three lookups that
/// end in a child step. All whose output step is a reverse axis do: Q2,
/// Q4, Q5 and the province lookup. Default plans spell `//` as
/// `descendant-or-self::node()/child::`, whose output nests: a scan that
/// *ends* in `//*` is sorted there, while `//item/*`, `/site/*/*`, Q1 and
/// Q3 (items and persons do not nest) still are not.
#[test]
fn which_benchmark_requests_sort() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let q = |label: &str| {
        QUERIES
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no query {label}"))
            .1
    };
    let in_order: Vec<String> = SCAN_QUERIES
        .iter()
        .map(|(_, xpath)| xpath.to_string())
        .chain(
            [
                "africa",
                "asia",
                "australia",
                "europe",
                "namerica",
                "samerica",
            ]
            .map(|region| format!("/site/regions/{region}//*")),
        )
        .chain(
            [
                "/site/open_auctions//*",
                q("Q1"),
                q("Q3"),
                "//person[@id='person0']/name",
                "//item[@id='item0']/location",
                "//open_auction[@id='open_auction0']/bidder/increase",
            ]
            .map(str::to_string),
        )
        .collect();
    let sorted = [
        q("Q2"),
        q("Q4"),
        q("Q5"),
        "//province[text()='Vermont']/ancestor::person",
    ];
    for (label, engine) in configurations(&xml) {
        if label == "default plans" {
            for xpath in [q("Q1"), q("Q3"), "/site/*/*", "//item/*"] {
                assert!(streams_in_order(&engine, xpath), "{xpath} ({label}) sorts");
            }
            for xpath in sorted.into_iter().chain(["/site/people//*", "//person//*"]) {
                assert!(!streams_in_order(&engine, xpath), "{xpath} ({label})");
            }
            continue;
        }
        for xpath in &in_order {
            assert!(streams_in_order(&engine, xpath), "{xpath} ({label}) sorts");
        }
        for xpath in sorted {
            let plan = engine
                .optimize_plan(engine.compile(xpath).unwrap(), DocId(0))
                .unwrap()
                .plan;
            let top = plan.top().unwrap();
            assert!(!plan.emits_in_order(top), "{xpath} ({label}) does not sort");
            assert!(!streams_in_order(&engine, xpath), "{xpath} ({label})");
        }
    }
}
