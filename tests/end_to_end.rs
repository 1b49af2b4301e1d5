//! End-to-end integration: load XMark data into MASS, query through the
//! full compile → optimize → execute pipeline, and validate against the
//! independent DOM oracle.

use vamana::baseline::dom::DomEngine;
use vamana::baseline::XPathEngine;
use vamana::core::UpdateOp;
use vamana::xmark::{generate_string, XmarkConfig};
use vamana::{DocId, Engine, MassStore, VamanaAdapter};

fn xmark_xml() -> &'static str {
    use std::sync::OnceLock;
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| generate_string(&XmarkConfig::with_scale(0.01)))
}

fn engine() -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", xmark_xml()).unwrap();
    Engine::new(store)
}

/// Queries spanning every axis, predicate type and the core functions.
const CROSS_CHECK_QUERIES: &[&str] = &[
    // the paper's five evaluation queries
    "//person/address",
    "//watches/watch/ancestor::person",
    "/descendant::name/parent::*/self::person/address",
    "//itemref/following-sibling::price/parent::*",
    "//province[text()='Vermont']/ancestor::person",
    // every axis at least once
    "/site/people/person",
    "//person/child::name",
    "//city/parent::address",
    "//city/ancestor::person",
    "//city/ancestor-or-self::*",
    "//person[1]/following::open_auction",
    "//price/preceding::itemref",
    "//itemref/following-sibling::*",
    "//price/preceding-sibling::itemref",
    "//person/descendant-or-self::name",
    "//person/self::person",
    "//watch/@open_auction",
    "//person/attribute::id",
    // predicates: value, range, position, boolean, functions
    "//person[address]",
    "//person[not(address)]",
    "//person[address and watches]",
    "//person[address or watches]",
    "//person[@id='person3']",
    "//person[2]",
    "//person[last()]",
    "//person[position() <= 3]",
    "//closed_auction[price > 250]",
    "//closed_auction[price <= 250]",
    "//open_auction[count(bidder) >= 2]",
    "//person[contains(name, 'a')]",
    "//person[starts-with(name, 'Y')]",
    "//item[quantity = 1]",
    // range predicates rewritten onto the numeric value index
    "//price[text() > 250]",
    "//price[text() <= 250]",
    "//initial[text() < 50]",
    "//person[@id = 'person7']",
    "//profile[age > 40]/parent::person",
    "//person[profile/age >= 18]/name",
    "//item[mailbox]",
    "//interest/@category",
    "//person[name][address]",
    // nested predicates
    "//person[address[province]]",
    "//person[watches[watch]]",
    // unions & filters
    "//itemref | //price",
    "(//person)[1]/name",
    // kind tests
    "//name/text()",
    "//address/node()",
    // deep paths
    "/site/open_auctions/open_auction/bidder/increase",
    "//regions//item/location",
];

#[test]
fn vamana_matches_dom_oracle_on_broad_query_set() {
    let vamana_opt = VamanaAdapter::optimized(engine());
    let vamana_dflt = VamanaAdapter::default_plan(engine());
    let oracle = DomEngine::from_xml(xmark_xml()).unwrap();
    for q in CROSS_CHECK_QUERIES {
        let expected = oracle
            .identities(q)
            .unwrap_or_else(|e| panic!("oracle rejects {q}: {e}"));
        let got_opt = vamana_opt
            .identities(q)
            .unwrap_or_else(|e| panic!("vamana-opt rejects {q}: {e}"));
        let got_dflt = vamana_dflt
            .identities(q)
            .unwrap_or_else(|e| panic!("vamana rejects {q}: {e}"));
        assert_eq!(got_opt, expected, "optimized engine differs on {q}");
        assert_eq!(got_dflt, expected, "default engine differs on {q}");
    }
}

#[test]
fn all_thirteen_axes_execute() {
    let e = engine();
    for axis in vamana::flex::Axis::ALL {
        let q = format!("//person/{}::node()", axis.as_str());
        let r = e.query(&q);
        assert!(r.is_ok(), "axis {axis} failed: {:?}", r.err());
    }
}

#[test]
fn optimizer_output_is_always_equivalent_and_never_slower_in_cost() {
    let e = engine();
    for q in CROSS_CHECK_QUERIES {
        let plan = e.compile(q).unwrap();
        let outcome = e.optimize_plan(plan, DocId(0)).unwrap();
        assert!(
            outcome.final_cost <= outcome.initial_cost,
            "{q}: cost rose {} -> {}",
            outcome.initial_cost,
            outcome.final_cost
        );
    }
}

#[test]
fn scalar_evaluation_matches_oracle() {
    let e = engine();
    let oracle = DomEngine::from_xml(xmark_xml()).unwrap();
    for q in [
        "count(//person)",
        "count(//watch)",
        "sum(//closed_auction/price)",
        "count(//person[address])",
        "string-length(string(//person[1]/name))",
    ] {
        let ours = match e.evaluate(DocId(0), q).unwrap() {
            vamana::Value::Num(n) => n,
            other => panic!("expected number from {q}, got {other:?}"),
        };
        let theirs = oracle.eval_number(q).unwrap();
        assert!((ours - theirs).abs() < 1e-6, "{q}: {ours} vs {theirs}");
    }
}

#[test]
fn updates_are_visible_to_queries_and_statistics() {
    let mut e = engine();
    let before = e.query("//person").unwrap().len();
    let insert = UpdateOp::Insert {
        target: "//people".into(),
        fragment: "<person><name>Edge Case</name></person>".into(),
    };
    e.apply_update(DocId(0), &insert).unwrap();

    assert_eq!(e.query("//person").unwrap().len(), before + 1);
    assert_eq!(e.query("//person[name='Edge Case']").unwrap().len(), 1);

    // The optimizer's value-index rewrite works against the fresh value.
    let explain = e.explain(DocId(0), "//name[text()='Edge Case']").unwrap();
    assert!(
        explain.applied.contains(&"value-index-step"),
        "{:?}",
        explain.applied
    );

    let target = "//person[name='Edge Case']".into();
    e.apply_update(DocId(0), &UpdateOp::Delete { target })
        .unwrap();
    assert_eq!(e.query("//person").unwrap().len(), before);
    assert_eq!(e.query("//person[name='Edge Case']").unwrap().len(), 0);
}

#[test]
fn file_backed_store_round_trips_queries() {
    let dir = std::env::temp_dir().join(format!("vamana-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("auction.mass");
    let mut store = MassStore::create_file(&path, 256).unwrap();
    store.load_xml("auction.xml", xmark_xml()).unwrap();
    let engine = Engine::new(store);
    let in_memory = self::engine();
    for q in [
        "//person/address",
        "//province[text()='Vermont']/ancestor::person",
    ] {
        assert_eq!(
            engine.query(q).unwrap().len(),
            in_memory.query(q).unwrap().len(),
            "{q} differs between file-backed and memory store"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_buffer_pool_still_answers_correctly() {
    // Force heavy eviction: 4-page pool over a multi-hundred-page store.
    let mut store = MassStore::open_memory_with_capacity(4);
    store.load_xml("auction.xml", xmark_xml()).unwrap();
    let e = Engine::new(store);
    let full = engine();
    for q in ["//person/address", "//watches/watch/ancestor::person"] {
        assert_eq!(e.query(q).unwrap(), full.query(q).unwrap(), "{q}");
    }
    let stats = e.store().stats();
    assert!(
        stats.buffer.evictions > 0,
        "expected evictions with a tiny pool"
    );
}

#[test]
fn multi_document_stores_answer_per_document() {
    let mut store = MassStore::open_memory();
    store
        .load_xml("a", "<site><person><name>OnlyA</name></person></site>")
        .unwrap();
    store.load_xml("b", xmark_xml()).unwrap();
    let e = Engine::new(store);
    assert_eq!(e.query_doc(DocId(0), "//person").unwrap().len(), 1);
    assert!(e.query_doc(DocId(1), "//person").unwrap().len() > 100);
    // Cross-document query unions both.
    let total = e.query("//person").unwrap().len();
    assert_eq!(total, 1 + e.query_doc(DocId(1), "//person").unwrap().len());
}
