//! Differential correctness of the semantic cache over the full XMark
//! query suite: every run of every query — cold (materializing), warm
//! (answered from a view), under every pull size — must be byte-identical
//! to an engine that never admits a view and to the DOM oracle.
//! Queries outside the containment fragment (reverse axes, positional
//! predicates) must pass untouched.

use vamana_baseline::XPathEngine;
use vamana_bench::{drain_stream_set, VamanaBench, PULL_SIZES, QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, MassStore, NodeEntry, UpdateOp};
use vamana_xmark::scale::config_for_megabytes;

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES.iter().chain(SCAN_QUERIES).copied()
}

fn default_engine(xml: &str) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", xml).expect("load");
    Engine::new(store)
}

/// An engine with immediate admission so the second run of any cacheable
/// query is answered from a materialized view.
fn views_engine(xml: &str, greedy: bool) -> Engine {
    let mut engine = default_engine(xml);
    let options = engine.options_mut();
    options.view_admit_after = 1;
    options.view_greedy = greedy;
    engine
}

fn identities(engine: &Engine, result: &[NodeEntry]) -> Vec<vamana_baseline::NodeIdentity> {
    let names = engine.names_of(result).expect("names");
    let values = engine.string_values(result).expect("values");
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| vamana_baseline::NodeIdentity { name, value })
        .collect()
}

/// The node-set `xpath` streams to on `engine`, once per pull size.
fn streamed_sets(engine: &Engine, xpath: &str) -> Vec<Vec<NodeEntry>> {
    PULL_SIZES
        .iter()
        .map(|&max| drain_stream_set(engine, xpath, max))
        .collect()
}

/// No switch: an engine as `Engine::new` makes it materializes a fragment
/// query it keeps seeing, answers the next run from the view — the same
/// rows the DOM oracle gives — and a write to the document drops the view.
#[test]
fn default_engine_answers_a_repeated_fragment_query_from_a_view() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let oracle = vamana_baseline::dom::DomEngine::from_xml(&xml)
        .unwrap()
        .identities("//person/address")
        .unwrap();
    let mut engine = default_engine(&xml);
    let doc = DocId(0);
    let explain = |engine: &Engine| engine.explain(doc, "//person/address").unwrap();
    for run in 0..3 {
        if run < 2 {
            let plan = explain(&engine).optimized_plan;
            assert!(!plan.contains("ViewScan"), "run {run}: {plan}");
        }
        let got = engine.query_doc(doc, "//person/address").unwrap();
        assert_eq!(identities(&engine, &got), oracle, "run {run}");
    }
    let ex = explain(&engine);
    assert!(
        ex.optimized_plan.contains("ViewScan"),
        "{}",
        ex.optimized_plan
    );
    assert!(
        ex.opt_trace.render().contains("✓ applied (equivalent"),
        "{}",
        ex.opt_trace.render()
    );
    assert!(engine.views().stats().hits >= 1);

    engine
        .apply_update(
            doc,
            &UpdateOp::Delete {
                target: "//person[address][1]".into(),
            },
        )
        .unwrap();
    assert_eq!(engine.views().stats().views, 0);
    let plan = explain(&engine).optimized_plan;
    assert!(!plan.contains("ViewScan"), "after the write: {plan}");
    let after = engine.query_doc(doc, "//person/address").unwrap().len();
    assert_eq!(
        after,
        oracle.len() - 1,
        "one person with an address is gone"
    );
}

/// Cold, warm and hot runs all equal the uncached answer and the DOM
/// oracle for every query of the suite, and so does the warm plan as a
/// stream under every pull size.
#[test]
fn cached_results_equal_uncached_and_oracle() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let uncached = VamanaBench::optimized(&xml);
    let subject = views_engine(&xml, false);
    for (name, xpath) in all_queries() {
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        let reference = uncached.engine().query(xpath).unwrap();
        assert_eq!(
            identities(uncached.engine(), &reference),
            oracle,
            "{name}: uncached engine disagrees with DOM oracle"
        );
        // Run 1 materializes, runs 2-3 may be view-answered; all
        // three must be byte-identical to the uncached result.
        for run in 0..3 {
            let got = subject.query_doc(DocId(0), xpath).unwrap();
            assert_eq!(got, reference, "{name} run {run}: cached != uncached");
        }
        assert_eq!(
            streamed_sets(&subject, xpath),
            vec![reference; PULL_SIZES.len()],
            "{name}: warm stream != uncached"
        );
    }
    // The suite must actually exercise the cache, not pass vacuously.
    let stats = subject.views().stats();
    assert!(stats.views >= 1, "no view was ever materialized: {stats:?}");
    assert!(stats.hits >= 1, "no query was view-answered: {stats:?}");
}

/// Compensation correctness: materialize deliberately general views,
/// then answer tighter queries through them (greedy acceptance forces
/// the rewrite even when the cost model would keep the index plan) and
/// compare against the DOM oracle.
#[test]
fn compensated_rewrites_agree_with_oracle() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let subject = views_engine(&xml, true);
    let doc = DocId(0);
    for view in ["//person", "//item", "//person/address"] {
        subject.query_doc(doc, view).unwrap(); // materialize
    }
    for (name, xpath) in [
        ("specialized pred", "//person[address]"),
        ("specialized nested pred", "//person[address/province]"),
        ("exact view", "//person/address"),
        ("item pred", "//item[mailbox]"),
        ("residual chain past a prefix view", "//person/*//*"),
    ] {
        let result = subject.query_doc(doc, xpath).unwrap();
        let got = identities(&subject, &result);
        let oracle = dom.identities(xpath).unwrap();
        assert_eq!(got, oracle, "{name}: rewrite disagrees with oracle");
        assert_eq!(
            streamed_sets(&subject, xpath),
            vec![result; PULL_SIZES.len()],
            "{name}: rewritten stream != rewritten result"
        );
    }
    let stats = subject.views().stats();
    assert!(stats.hits >= 1, "no rewrite was ever applied: {stats:?}");
}
