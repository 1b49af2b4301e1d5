//! Differential correctness of the result memo over the full XMark
//! query suite: every run of every query — cold (computed and kept),
//! warm (answered from the memo), streamed under every pull size — must
//! be byte-identical to an engine that keeps nothing and to the DOM
//! oracle. Every query of the suite, reverse and sideways axes and value
//! predicates included, is kept and answered.

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

/// An engine with immediate admission so the second run of any query is
/// answered from the memo.
fn views_engine(xml: &str) -> Engine {
    let mut engine = default_engine(xml);
    engine.options_mut().view_admit_after = 1;
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

/// No switch: an engine as `Engine::new` makes it keeps the answer of a
/// query it keeps seeing and returns it for the next run — the same rows
/// the DOM oracle gives — EXPLAIN still shows the plan that computes it,
/// and a write to the document drops it.
#[test]
fn default_engine_answers_a_repeated_query_from_the_memo() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let oracle = vamana_baseline::dom::DomEngine::from_xml(&xml)
        .unwrap()
        .identities("//person/address")
        .unwrap();
    let mut engine = default_engine(&xml);
    let doc = DocId(0);
    let explain = |engine: &Engine| engine.explain(doc, "//person/address").unwrap();
    let cold = explain(&engine).optimized_plan;
    for run in 0..3 {
        let got = engine.query_doc(doc, "//person/address").unwrap();
        assert_eq!(identities(&engine, &got), oracle, "run {run}");
    }
    let stats = engine.views().stats();
    assert_eq!((stats.views, stats.hits), (1, 1), "{stats:?}");
    assert_eq!(explain(&engine).optimized_plan, cold);

    engine
        .apply_update(
            doc,
            &UpdateOp::Delete {
                target: "//person[address][1]".into(),
            },
        )
        .unwrap();
    assert_eq!(engine.views().stats().views, 0);
    let after = engine.query_doc(doc, "//person/address").unwrap().len();
    assert_eq!(
        after,
        oracle.len() - 1,
        "one person with an address is gone"
    );
}

/// Cold, warm and hot runs all equal the uncached answer and the DOM
/// oracle for every query of the suite, and so does the kept answer as a
/// stream under every pull size.
#[test]
fn cached_results_equal_uncached_and_oracle() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let uncached = VamanaBench::optimized(&xml);
    let subject = views_engine(&xml);
    for (name, xpath) in all_queries() {
        let before = subject.views().stats();
        let oracle = dom.identities(xpath).unwrap();
        assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
        let reference = uncached.engine().query(xpath).unwrap();
        assert_eq!(
            identities(uncached.engine(), &reference),
            oracle,
            "{name}: uncached engine disagrees with DOM oracle"
        );
        // Run 1 computes and keeps, runs 2-3 come from the memo; all
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
        // Every query is kept once and then answers every later run, so
        // no comparison above passed without the memo.
        let after = subject.views().stats();
        assert_eq!(after.views, before.views + 1, "{name}: not kept");
        assert_eq!(
            after.hits - before.hits,
            2 + PULL_SIZES.len() as u64,
            "{name}: not answered from the memo"
        );
    }
}
