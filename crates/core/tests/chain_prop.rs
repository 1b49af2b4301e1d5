//! Property tests for the step pipeline on random forward chains.
//!
//! One property pins the executor down: for arbitrary forward
//! child/descendant chains with existential predicates over arbitrary
//! generated documents, the default plan and the optimized plan must
//! both return exactly what the `vamana-baseline` DOM engine returns,
//! whatever the pull size. The generators are shared in spirit with
//! `views_prop.rs`: same alphabet, same document tape, so the chains see
//! deep recursion (contexts that nest), repeated names, and empty
//! matches. A second property runs the same generator against forced
//! morsel-parallel scans (`vamana_core::exec::parallel`).
//!
//! In a debug build a result the executor does not sort is asserted to
//! ascend strictly; CI also runs this file in `--release`, where the
//! comparison with the oracle is the only guard.

use proptest::prelude::*;
use vamana_baseline::{dom::DomEngine, NodeIdentity, XPathEngine};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, EngineOptions, MassStore, NodeEntry};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// One spine step: descendant edge?, node test, optional predicate path.
type StepSpec = (bool, String, Option<String>);

fn test_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("*".to_string()),
        Just("text()".to_string()),
        Just("node()".to_string()),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("b/c".to_string()),
        Just("c[a]".to_string()),
        Just(".//b".to_string()),
    ])
}

fn steps_strategy() -> impl Strategy<Value = Vec<StepSpec>> {
    proptest::collection::vec((any::<bool>(), test_strategy(), pred_strategy()), 2..5)
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

/// Builds a small XML document from a stack-machine tape (same scheme
/// as `views_prop.rs`): open a child, close the current element, or
/// emit a leaf — names drawn from the pattern alphabet so matches are
/// likely; odd tape values add text so `text()` steps have targets.
fn build_doc(ops: &[(u8, u8)]) -> String {
    let mut xml = String::from("<a>");
    let mut stack = vec!["a"];
    for &(n, action) in ops {
        let name = NAMES[(n % 4) as usize];
        match action % 4 {
            0 if stack.len() < 6 => {
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
            2 => {
                xml.push('t');
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
    let names = engine.names_of(result).expect("names");
    let values = engine.string_values(result).expect("values");
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| NodeIdentity { name, value })
        .collect()
}

/// An engine that runs the step pipeline every time: no view of an
/// earlier run answers a later one.
fn pipeline_engine(xml: &str, optimize: bool) -> Engine {
    engine_for(
        xml,
        EngineOptions {
            optimize,
            view_admit_after: u32::MAX,
            ..EngineOptions::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Default plan = optimized plan = DOM oracle on random forward
    /// chains over random documents, and each plan's stream finishes to
    /// the same node-set under every pull size.
    #[test]
    fn chains_match_the_dom_oracle_under_every_pull_size(
        steps in steps_strategy(),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
    ) {
        let xpath = render(&steps);
        let xml = build_doc(&ops);
        let doc = DocId(0);
        let oracle = DomEngine::from_xml(&xml).unwrap().identities(&xpath).unwrap();
        for optimize in [false, true] {
            let engine = pipeline_engine(&xml, optimize);
            let expected = engine.query_doc(doc, &xpath).unwrap();
            prop_assert_eq!(
                &identities(&engine, &expected),
                &oracle,
                "{} (optimize={}) disagrees with the DOM oracle",
                &xpath,
                optimize
            );
            for max in [1, 2, 3, 7, BATCH_SIZE, usize::MAX] {
                let mut stream = engine.stream(doc, &xpath).unwrap();
                let mut out = Vec::new();
                while stream.next_batch(&mut out, max).unwrap() == max {}
                stream.finish(&mut out);
                prop_assert_eq!(
                    &out,
                    &expected,
                    "{} (optimize={}) pulled by {}",
                    &xpath,
                    optimize,
                    max
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Morsel-parallel scans are invisible on the same generator: the
    /// chain's last step is made a predicate-free `*` or
    /// `node()` (what the parallel gate accepts) and the generated
    /// fragment repeated until the output is several hand-off chunks
    /// long, so context-list morsels coalesce rows across contexts and
    /// chunk boundaries. The *pipeline-order* tuple sequence of a forced
    /// fan-out, duplicates included, must be the serial one.
    #[test]
    fn forced_parallel_streams_match_the_serial_pipeline(
        steps in steps_strategy(),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 8..60),
        any_node in any::<bool>(),
        workers in 2usize..5,
    ) {
        let mut steps = steps;
        let last = steps.last_mut().expect("at least two steps");
        last.1 = if any_node { "node()" } else { "*" }.to_string();
        last.2 = None;
        let xpath = render(&steps);
        let xml = format!("<a>{}</a>", build_doc(&ops).repeat(400));
        let drain = |engine: &Engine| {
            let mut stream = engine.stream(DocId(0), &xpath).unwrap();
            let mut out = Vec::new();
            while stream.next_batch(&mut out, 100).unwrap() > 0 {}
            out
        };
        let expected = drain(&engine_for(&xml, EngineOptions {
            parallel_workers: 1,
            ..EngineOptions::default()
        }));
        let subject = engine_for(&xml, EngineOptions {
            parallel_workers: workers,
            parallel_force: true,
            ..EngineOptions::default()
        });
        for round in 0..2 {
            prop_assert_eq!(
                &drain(&subject),
                &expected,
                "parallel changed {} ({} threads, round {})",
                xpath,
                workers,
                round
            );
        }
    }
}

/// The oracle property is vacuous if the generated chains match nothing:
/// check that a healthy share of deterministic samples returns rows.
#[test]
fn generator_yield_sanity() {
    let mut with_rows = 0;
    let total = 60u64;
    for i in 0..total {
        let steps: Vec<StepSpec> = (0..2 + (i % 3))
            .map(|j| {
                let k = i.wrapping_mul(31).wrapping_add(j * 7);
                (
                    k % 2 == 0,
                    ["a", "b", "c", "*", "text()", "node()"][(k % 6) as usize].to_string(),
                    (k % 3 == 0).then(|| NAMES[(k % 4) as usize].to_string()),
                )
            })
            .collect();
        let xpath = render(&steps);
        let ops: Vec<(u8, u8)> = (0..40u64)
            .map(|j| {
                let k = i.wrapping_mul(131).wrapping_add(j * 17);
                (k as u8, (k / 7) as u8)
            })
            .collect();
        let subject = pipeline_engine(&build_doc(&ops), true);
        if !subject.query_doc(DocId(0), &xpath).unwrap().is_empty() {
            with_rows += 1;
        }
    }
    assert!(
        with_rows >= total / 4,
        "only {with_rows}/{total} sample chains returned rows"
    );
}
