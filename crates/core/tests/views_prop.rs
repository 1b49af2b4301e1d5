//! Property tests for the semantic cache (see `vamana_core::views`).
//!
//! Two properties pin the correctness spine down:
//!
//! 1. **Containment soundness** — whenever the homomorphism checker
//!    says `contains(V, Q)`, evaluating both on an arbitrary generated
//!    document must give `result(Q) ⊆ result(V)`. Checked both for
//!    independently random pattern pairs and for pairs built by
//!    *generalizing* a query (drop predicates, widen tests, widen
//!    edges), where the checker must also succeed (the identity mapping
//!    is a homomorphism).
//!
//! 2. **Rewrite exactness** — with greedy acceptance and no admission
//!    delay, materializing a view and then answering a contained query
//!    must return exactly what an engine that never admits a view
//!    returns — and what the DOM oracle returns — whatever the pull size.

use std::collections::HashSet;

use proptest::prelude::*;
use vamana_baseline::{dom::DomEngine, NodeIdentity, XPathEngine};
use vamana_core::{contains, pattern_for, DocId, Engine, EngineOptions, MassStore, NodeEntry};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

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

/// Widens each step of `steps` according to its mask: drop the
/// predicate, replace the name test with `*`, and/or turn the edge into
/// a descendant edge. The result contains the original by construction
/// (the identity mapping on spine nodes is a homomorphism).
fn generalize(steps: &[StepSpec], masks: &[(bool, bool, bool)]) -> Vec<StepSpec> {
    steps
        .iter()
        .zip(
            masks
                .iter()
                .chain(std::iter::repeat(&(false, false, false))),
        )
        .map(
            |((descendant, test, pred), (drop_pred, widen_test, widen_edge))| {
                (
                    *descendant || *widen_edge,
                    if *widen_test {
                        "*".to_string()
                    } else {
                        test.clone()
                    },
                    if *drop_pred { None } else { pred.clone() },
                )
            },
        )
        .collect()
}

/// Builds a small XML document from a stack-machine tape: open a child,
/// close the current element, or emit a leaf — names drawn from the
/// same alphabet the patterns use so matches are likely.
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

fn engine_for(xml: &str, options: EngineOptions) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("d", xml).expect("load generated doc");
    let mut engine = Engine::new(store);
    *engine.options_mut() = options;
    engine
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Soundness on independently random pairs: a `contains` verdict on
    /// two unrelated patterns implies the subset relation on data.
    #[test]
    fn random_containment_verdicts_are_sound(
        v_steps in steps_strategy(),
        q_steps in steps_strategy(),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let v_xpath = render(&v_steps);
        let q_xpath = render(&q_steps);
        let (vp, qp) = match (pattern_for(&v_xpath), pattern_for(&q_xpath)) {
            (Some(v), Some(q)) => (v, q),
            _ => return Ok(()), // outside the fragment — nothing to check
        };
        prop_assume!(contains(&vp, &qp));
        let e = engine_for(&build_doc(&ops), EngineOptions::default());
        let vres = e.query_doc(DocId(0), &v_xpath).unwrap();
        let qres = e.query_doc(DocId(0), &q_xpath).unwrap();
        let vset: HashSet<_> = vres.iter().map(|n| n.key.clone()).collect();
        for n in &qres {
            prop_assert!(
                vset.contains(&n.key),
                "contains({v_xpath}, {q_xpath}) held but a {q_xpath} result is not in {v_xpath}"
            );
        }
    }

    /// Generalizing a query (drop predicates, widen tests/edges) always
    /// yields a containing view, the checker proves it, and the subset
    /// relation holds on data.
    #[test]
    fn generalized_views_contain_their_query(
        q_steps in steps_strategy(),
        masks in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 3),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let v_steps = generalize(&q_steps, &masks);
        let v_xpath = render(&v_steps);
        let q_xpath = render(&q_steps);
        let (vp, qp) = match (pattern_for(&v_xpath), pattern_for(&q_xpath)) {
            (Some(v), Some(q)) => (v, q),
            _ => return Ok(()),
        };
        prop_assert!(
            contains(&vp, &qp),
            "checker missed the by-construction containment of {q_xpath} in {v_xpath}"
        );
        let e = engine_for(&build_doc(&ops), EngineOptions::default());
        let vres = e.query_doc(DocId(0), &v_xpath).unwrap();
        let qres = e.query_doc(DocId(0), &q_xpath).unwrap();
        let vset: HashSet<_> = vres.iter().map(|n| n.key.clone()).collect();
        for n in &qres {
            prop_assert!(
                vset.contains(&n.key),
                "{q_xpath} ⊆ {v_xpath} violated on generated document"
            );
        }
    }

    /// Materializing a view and answering a contained query through the
    /// rewrite gives exactly the answer of an engine without views and of
    /// the DOM oracle, under any pull size.
    #[test]
    fn view_rewrites_match_direct_evaluation(
        q_steps in steps_strategy(),
        masks in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 3),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        pull in 0usize..6,
    ) {
        let v_xpath = render(&generalize(&q_steps, &masks));
        let q_xpath = render(&q_steps);
        if pattern_for(&v_xpath).is_none() || pattern_for(&q_xpath).is_none() {
            return Ok(());
        }
        let xml = build_doc(&ops);
        // Reference: an engine that never admits a view.
        let oracle = engine_for(&xml, EngineOptions {
            view_admit_after: u32::MAX,
            ..EngineOptions::default()
        });
        // Subject: greedy view acceptance, immediate admission.
        let subject = engine_for(&xml, EngineOptions {
            view_admit_after: 1,
            view_greedy: true,
            ..EngineOptions::default()
        });
        let doc = DocId(0);
        subject.query_doc(doc, &v_xpath).unwrap(); // materializes the view
        let expected = oracle.query_doc(doc, &q_xpath).unwrap();
        prop_assert_eq!(
            identities(&oracle, &expected),
            DomEngine::from_xml(&xml).unwrap().identities(&q_xpath).unwrap(),
            "{} without views disagrees with the DOM oracle",
            &q_xpath
        );
        // The rewritten plan as a stream, pulled `max` tuples at a time.
        let max = [1, 2, 3, 7, 256, usize::MAX][pull];
        let mut streamed = Vec::new();
        let mut stream = subject.stream(doc, &q_xpath).unwrap();
        while stream.next_batch(&mut streamed, max).unwrap() == max {}
        streamed.sort_by(|a, b| a.key.cmp(&b.key));
        streamed.dedup_by(|a, b| a.key == b.key);
        prop_assert_eq!(
            &streamed,
            &expected,
            "stream of {} against view {} changed the result (pulled by {})",
            &q_xpath,
            &v_xpath,
            max
        );
        let got = subject.query_doc(doc, &q_xpath).unwrap();
        prop_assert_eq!(
            got,
            expected,
            "rewrite of {} against view {} changed the result",
            q_xpath,
            v_xpath
        );
    }
}

#[test]
fn generator_yield_sanity() {
    // The properties above skip cases outside the fragment; make sure a
    // healthy share of generated inputs actually participates, so the
    // suite cannot rot into vacuous passes.
    let mut in_fragment = 0;
    let mut contained = 0;
    for i in 0..200u64 {
        let steps: Vec<StepSpec> = (0..1 + (i % 3))
            .map(|j| {
                let k = i.wrapping_mul(31).wrapping_add(j * 7);
                (
                    k % 2 == 0,
                    NAMES[(k % 4) as usize].to_string(),
                    (k % 3 == 0).then(|| NAMES[(k % 4) as usize].to_string()),
                )
            })
            .collect();
        let q = render(&steps);
        let masks = vec![(i % 2 == 0, i % 3 == 0, i % 5 == 0); 3];
        let v = render(&generalize(&steps, &masks));
        if let (Some(vp), Some(qp)) = (pattern_for(&v), pattern_for(&q)) {
            in_fragment += 1;
            if contains(&vp, &qp) {
                contained += 1;
            }
        }
    }
    assert!(in_fragment >= 150, "only {in_fragment}/200 in fragment");
    assert!(contained >= 150, "only {contained}/200 proven contained");
}
