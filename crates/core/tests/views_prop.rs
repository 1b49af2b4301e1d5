//! Property test for the result memo (see `vamana_core::views`).
//!
//! Random fragment queries, asked again and again over a random document
//! with inserts and deletes through `apply_update` in between, must always
//! answer what an engine that keeps nothing answers and what the DOM
//! oracle answers on the document as it stands — from `query_doc`,
//! whether the memo answered or not, and as a stream at every pull size.

use proptest::prelude::*;
use vamana_baseline::{dom::DomEngine, NodeIdentity, XPathEngine};
use vamana_core::{DocId, Engine, EngineOptions, MassStore, NodeEntry, UpdateOp};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

const PULL_SIZES: [usize; 6] = [1, 2, 3, 7, 256, usize::MAX];

/// One spine step: descendant edge?, node test, optional predicate path.
type StepSpec = (bool, String, Option<String>);

fn test_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("*".to_string()),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("b/c".to_string()),
        Just("c[a]".to_string()),
    ])
}

fn steps_strategy() -> impl Strategy<Value = Vec<StepSpec>> {
    proptest::collection::vec((any::<bool>(), test_strategy(), pred_strategy()), 1..4)
}

fn render(steps: &[StepSpec]) -> String {
    let mut s = String::new();
    for (descendant, test, pred) in steps {
        s.push_str(if *descendant { "//" } else { "/" });
        s.push_str(test);
        if let Some(p) = pred {
            s.push('[');
            s.push_str(p);
            s.push(']');
        }
    }
    s
}

/// Builds a small XML document from a stack-machine tape: open a child,
/// close the current element, or emit a leaf — names drawn from the
/// same alphabet the queries use so matches are likely.
fn build_doc(ops: &[(u8, u8)]) -> String {
    let mut xml = String::from("<a>");
    let mut stack = vec!["a"];
    for &(n, action) in ops {
        let name = NAMES[(n % 4) as usize];
        match action % 3 {
            0 if stack.len() < 5 => {
                xml.push('<');
                xml.push_str(name);
                xml.push('>');
                stack.push(name);
            }
            1 if stack.len() > 1 => {
                let t = stack.pop().unwrap();
                xml.push_str("</");
                xml.push_str(t);
                xml.push('>');
            }
            _ => {
                xml.push('<');
                xml.push_str(name);
                xml.push_str("/>");
            }
        }
    }
    while let Some(t) = stack.pop() {
        xml.push_str("</");
        xml.push_str(t);
        xml.push('>');
    }
    xml
}

/// The write of one script step: an insert under the first `parent`, a
/// delete of every `name` child of a `parent` (never the root), or none.
fn update(action: u8, parent: &str, name: &str) -> Option<UpdateOp> {
    match action % 3 {
        0 => Some(UpdateOp::Insert {
            target: format!("//{parent}"),
            fragment: format!("<{name}><{parent}/></{name}>"),
        }),
        1 => Some(UpdateOp::Delete {
            target: format!("//{parent}/{name}"),
        }),
        _ => None,
    }
}

fn engine_for(xml: &str, view_admit_after: u32) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("d", xml).expect("load generated doc");
    Engine::with_options(
        store,
        EngineOptions {
            view_admit_after,
            ..EngineOptions::default()
        },
    )
}

fn identities(engine: &Engine, result: &[NodeEntry]) -> Vec<NodeIdentity> {
    let names = engine.names_of(result).unwrap();
    let values = engine.string_values(result).unwrap();
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| NodeIdentity { name, value })
        .collect()
}

/// The document as the store holds it now, for the oracle to re-parse.
fn exported(engine: &Engine) -> String {
    let store = engine.store();
    vamana_mass::export::export_subtree_xml(store, &store.documents()[0].doc_key).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn memo_answers_equal_direct_evaluation_across_writes(
        queries in proptest::collection::vec(steps_strategy(), 1..4),
        script in proptest::collection::vec((any::<u8>(), 0usize..4, 0usize..4), 1..8),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let xml = build_doc(&ops);
        // Subject keeps every fragment answer the first time it computes
        // it; the reference keeps nothing.
        let mut subject = engine_for(&xml, 1);
        let mut reference = engine_for(&xml, u32::MAX);
        let xpaths: Vec<String> = queries.iter().map(|q| render(q)).collect();
        let doc = DocId(0);
        for (step, &(action, parent, name)) in script.iter().enumerate() {
            if let Some(op) = update(action, NAMES[parent], NAMES[name]) {
                subject.apply_update(doc, &op).unwrap();
                reference.apply_update(doc, &op).unwrap();
            }
            let dom = DomEngine::from_xml(&exported(&subject)).unwrap();
            for xpath in &xpaths {
                let want = reference.query_doc(doc, xpath).unwrap();
                prop_assert_eq!(
                    identities(&reference, &want),
                    dom.identities(xpath).unwrap(),
                    "{} at step {} disagrees with the DOM oracle",
                    xpath,
                    step
                );
                // Twice: the second is answered from the memo.
                for run in 0..2 {
                    let got = subject.query_doc(doc, xpath).unwrap();
                    prop_assert_eq!(&got, &want, "{} at step {}, run {}", xpath, step, run);
                }
                for max in PULL_SIZES {
                    let mut stream = subject.stream(doc, xpath).unwrap();
                    let mut streamed = Vec::new();
                    while stream.next_batch(&mut streamed, max).unwrap() == max {}
                    stream.finish(&mut streamed);
                    prop_assert_eq!(
                        &streamed,
                        &want,
                        "{} at step {} pulled by {}",
                        xpath,
                        step,
                        max
                    );
                }
            }
        }
        let hits = subject.views().stats().hits;
        prop_assert!(hits >= (xpaths.len() * script.len()) as u64, "{} memo hits", hits);
        prop_assert_eq!(reference.views().stats().views, 0);
    }
}
