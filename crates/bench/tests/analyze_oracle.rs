//! `EXPLAIN ANALYZE` actuals vs the DOM oracle, per operator.
//!
//! With the optimizer off, the pipeline's step chain mirrors the parsed
//! location path one-to-one, so every `Step` operator's recorded row
//! count must equal what a careful tree-walk produces for the same step
//! — *without* between-step duplicate elimination, which the pipeline
//! does not perform (only the root deduplicates, under set semantics).
//! [`DomEngine::eval_step`] exposes exactly that single-step evaluation.

use vamana_baseline::dom::DomEngine;
use vamana_bench::{vamana_engine, QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine, OpId, Operator};
use vamana_flex::Axis;
use vamana_xmark::scale::config_for_megabytes;
use vamana_xml::{Document, NodeId};
use vamana_xpath::{Expr, LocationPath, NodeTest, Step};

/// Mirrors the plan clean-up pass on the parsed step list: collapse
/// `descendant-or-self::node()/child::T` into `descendant::T` and merge
/// `self::T` into the preceding step — so each remaining AST step pairs
/// with exactly one `Step` operator of the default plan.
fn desugared_steps(path: &LocationPath) -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    for s in &path.steps {
        if s.axis == Axis::Child {
            if let Some(prev) = steps.last() {
                if prev.axis == Axis::DescendantOrSelf
                    && matches!(prev.test, NodeTest::Node)
                    && prev.predicates.is_empty()
                {
                    let mut collapsed = s.clone();
                    collapsed.axis = Axis::Descendant;
                    steps.pop();
                    steps.push(collapsed);
                    continue;
                }
            }
        }
        if s.axis == Axis::SelfAxis {
            if let Some(prev) = steps.last_mut() {
                // `Some(new_test)` = mergeable; inner `Some` = the
                // self step narrows the previous step's test.
                let merged = match (&prev.test, &s.test) {
                    (NodeTest::Wildcard, NodeTest::Name(n)) => {
                        Some(Some(NodeTest::Name(n.clone())))
                    }
                    (NodeTest::Name(a), NodeTest::Name(b)) if a == b => Some(None),
                    (_, NodeTest::Wildcard) => Some(None),
                    _ => None,
                };
                if let Some(new_test) = merged {
                    if let Some(t) = new_test {
                        prev.test = t;
                    }
                    prev.predicates.extend(s.predicates.iter().cloned());
                    continue;
                }
            }
        }
        steps.push(s.clone());
    }
    steps
}

/// The plan's step-operator chain in path order (root's context chain,
/// innermost first), excluding predicate subtrees.
fn step_chain(plan: &vamana_core::QueryPlan) -> Vec<OpId> {
    let Operator::Root { child } = plan.op(plan.root()) else {
        panic!("top operator is not Root");
    };
    let mut chain = Vec::new();
    let mut cur = *child;
    while let Some(id) = cur {
        match plan.op(id) {
            Operator::Step { context, .. } => {
                chain.push(id);
                cur = *context;
            }
            other => panic!("unexpected operator in default step chain: {other:?}"),
        }
    }
    chain.reverse();
    chain
}

fn assert_actuals_match_oracle(engine: &Engine, dom: &DomEngine, name: &str, xpath: &str) {
    let analysis = engine.analyze_doc(DocId(0), xpath).expect(name);
    let expr = vamana_xpath::parse(xpath).expect(name);
    let Expr::Path(path) = &expr else {
        panic!("{name}: suite query is not a bare location path");
    };
    assert!(path.absolute, "{name}: suite queries are absolute");

    let chain = step_chain(&analysis.plan);
    let steps = desugared_steps(path);
    assert_eq!(
        chain.len(),
        steps.len(),
        "{name}: default plan has one Step operator per desugared step"
    );

    // Replay the path step by step, keeping duplicates between steps as
    // the pipeline does; each step's emitted-tuple total must match.
    let mut contexts: Vec<NodeId> = vec![Document::ROOT];
    for (step, op) in steps.iter().zip(&chain) {
        let mut next = Vec::new();
        for ctx in &contexts {
            next.extend(dom.eval_step(step, *ctx).expect(name));
        }
        let actual = analysis
            .actuals
            .op(*op)
            .unwrap_or_else(|| panic!("{name}: no actuals for op {op:?}"))
            .rows;
        assert_eq!(
            actual,
            next.len() as u64,
            "{name}: op {op:?} ({step:?}) emitted {actual} row(s), oracle says {}",
            next.len()
        );
        contexts = next;
    }

    // The root deduplicates under set semantics: its actual equals the
    // oracle's final answer.
    let oracle = dom.eval(xpath).expect(name);
    assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
    assert_eq!(analysis.rows, oracle.len() as u64, "{name}: result rows");
    let root = analysis
        .actuals
        .op(analysis.plan.root())
        .expect("root actuals")
        .rows;
    assert_eq!(root, oracle.len() as u64, "{name}: root actuals");
}

/// Every XMark suite query's per-operator actuals match the DOM oracle.
#[test]
fn analyze_actuals_match_dom_oracle_per_operator() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = DomEngine::from_xml(&xml).unwrap();
    let engine = vamana_engine(&xml, false); // default plans mirror the path
    for (name, xpath) in QUERIES.iter().chain(SCAN_QUERIES) {
        assert_actuals_match_oracle(&engine, &dom, name, xpath);
    }
}

/// The `Exists` operators reachable from predicate root `id` without
/// passing through a path (those are tested per tuple of that path).
fn exists_under(plan: &vamana_core::QueryPlan, id: OpId, out: &mut Vec<OpId>) {
    match plan.op(id) {
        Operator::Exists { path } => out.push(*path),
        Operator::Binary { .. }
        | Operator::Arith { .. }
        | Operator::Function { .. }
        | Operator::Neg { .. } => {
            for child in plan.children_of(id) {
                exists_under(plan, child, out);
            }
        }
        _ => {}
    }
}

/// One existence path of an analyzed plan: what its predicate tested and
/// kept, and the rows each step of the path produced, output step first.
struct ExistencePath {
    tested: u64,
    kept: u64,
    /// The predicate is the bare existence test (no `and`/`or`/`not`).
    bare: bool,
    rows: Vec<u64>,
}

/// An existence test is a `max = 1` pull: every step of an `Exists`
/// path, the leaf included, produces at most one tuple per tuple its
/// predicate tested, and the output step of a bare existence predicate
/// exactly one per tuple kept.
fn existence_paths(engine: &Engine, xpath: &str) -> Vec<ExistencePath> {
    let analysis = engine.analyze_doc(DocId(0), xpath).expect(xpath);
    let plan = &analysis.plan;
    let mut found = Vec::new();
    for op in plan.live_ops() {
        let predicates = match plan.op(op) {
            Operator::Step { predicates, .. } | Operator::Filter { predicates, .. } => predicates,
            _ => continue,
        };
        for pred in predicates {
            let actual = analysis.actuals.op(*pred).expect("predicate actuals");
            let mut paths = Vec::new();
            exists_under(plan, *pred, &mut paths);
            for path in paths {
                let mut rows = Vec::new();
                let mut cur = Some(path);
                while let Some(id) = cur {
                    rows.push(analysis.actuals.op(id).expect("step actuals").rows);
                    cur = match plan.op(id) {
                        Operator::Step { context, .. }
                        | Operator::ValueStep { context, .. }
                        | Operator::RangeStep { context, .. } => *context,
                        _ => None,
                    };
                }
                let found_path = ExistencePath {
                    tested: actual.invocations,
                    kept: actual.rows,
                    bare: matches!(plan.op(*pred), Operator::Exists { .. }),
                    rows,
                };
                assert!(
                    found_path.rows.iter().all(|r| *r <= found_path.tested),
                    "{xpath}: an existence path produced {:?} tuple(s) for {} test(s)\n{}",
                    found_path.rows,
                    found_path.tested,
                    analysis.render()
                );
                found.push(found_path);
            }
        }
    }
    found
}

#[test]
fn existence_tests_pull_at_most_one_tuple_per_tested_tuple() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    for optimize in [false, true] {
        let engine = vamana_engine(&xml, optimize);
        // Two-step paths run as cursors; a one-step path is answered by
        // the index-only probe, which reports the same actuals. A watcher
        // watches several auctions and an auction has several bidders,
        // each with an increase: pulling more than the first hit would
        // show in either step.
        for (xpath, steps) in [
            ("//person[watches/watch]", 2),
            ("//item[mailbox/mail]", 2),
            ("//open_auction[bidder/increase]", 2),
            ("//person[address]", 1),
            ("//item[@id]", 1),
            ("//name[parent::person]", 1),
        ] {
            let paths = existence_paths(&engine, xpath);
            assert_eq!(paths.len(), 1, "{xpath} (optimize={optimize})");
            let path = &paths[0];
            assert!(
                path.bare && path.kept > 1 && path.rows.len() == steps,
                "{xpath}"
            );
            assert_eq!(path.rows[0], path.kept, "{xpath}: one hit per kept tuple");
            if xpath.contains("bidder") {
                assert_eq!(path.rows[1], path.kept, "{xpath}: first bidder decides");
            }
        }
        for (_, xpath) in QUERIES {
            existence_paths(&engine, xpath);
        }
    }
}
