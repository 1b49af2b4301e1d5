//! The cost-driven optimizer (paper §VI).
//!
//! Each iteration runs three phases: **clean-up** ([`cleanup`]),
//! **cost gathering** ([`crate::cost::estimate`]) and **re-writing**.
//! Re-writing walks the selectivity-ordered operator list `L(P)`
//! (most selective first) and tries the transformation library on each
//! operator; a candidate is kept only if re-estimation shows its total
//! cost does not increase — which is what guarantees the paper's claim
//! that the optimized plan is never slower than the default plan.

pub mod cleanup;
pub mod parallel;
pub mod rules;

use crate::cost::{estimate, EstimateCard};
use crate::error::Result;
use crate::plan::{OpId, QueryPlan};
use rules::LIBRARY;
use std::fmt::Write as _;
use vamana_flex::KeyRange;
use vamana_mass::MassStore;

/// One rule considered during re-writing: the paper's "apply only if the
/// re-estimated cost does not increase" decision, made visible. A
/// decision is recorded for *every* candidate a rule produced, applied
/// or not; rules that did not match an operator at all leave no entry.
#[derive(Debug, Clone)]
pub struct RuleDecision {
    /// The clean-up/cost/rewrite iteration this decision belongs to
    /// (1-based).
    pub iteration: usize,
    /// Rule name from the transformation library.
    pub rule: &'static str,
    /// The operator the rule was tried on (id in the *pre-rewrite* plan).
    pub target: OpId,
    /// Local cost `IN + OUT` of the target before the rewrite.
    pub local_before: Option<u64>,
    /// Local cost of the replacement operator in the candidate plan.
    pub local_after: Option<u64>,
    /// Plan-wide tuple volume before the rewrite.
    pub total_before: u64,
    /// Plan-wide tuple volume of the candidate.
    pub total_after: u64,
    /// Whether the candidate was kept.
    pub applied: bool,
}

/// One event in the optimizer's ordered pass log.
#[derive(Debug, Clone)]
pub enum OptEvent {
    /// A clean-up pass ran (redundant-step elimination).
    Cleanup,
    /// A cost-gathering pass ran; `total` is the plan-wide tuple volume
    /// it measured.
    CostGathering {
        /// Σ (IN + OUT) over live operators after this pass.
        total: u64,
    },
    /// A rewrite rule produced a candidate and the acceptance test ran.
    Rule(RuleDecision),
    /// The parallel gate looked at the output step at plan time (see
    /// [`parallel::decide`]): eligible with the index estimate, or
    /// rejected with the reason it can never fan out.
    Parallel {
        /// The output step's `COUNT` in the document when it is eligible
        /// — the executor may price a fan-out at run time; `None` when
        /// it was rejected.
        estimated: Option<u64>,
        /// Why.
        reason: &'static str,
    },
    /// What the parallel gate did when an eligible plan ran (`ANALYZE`
    /// only — appended after execution).
    ParallelRun(parallel::ParallelVerdict),
    /// How the run's output became a node-set (`ANALYZE` only — appended
    /// after execution): by construction, or by a sort whose rows and
    /// time are then this line's.
    OrderRun(crate::exec::stats::OrderVerdict),
}

/// The ordered log of optimizer passes — clean-up, cost gathering, and
/// every rewrite decision — that EXPLAIN renders so a user can see *why*
/// the optimizer kept or rejected each transformation.
#[derive(Debug, Clone, Default)]
pub struct OptTrace {
    /// Events in the order they happened.
    pub events: Vec<OptEvent>,
}

impl OptTrace {
    /// The rule decisions, in order (skipping pass markers).
    pub fn decisions(&self) -> impl Iterator<Item = &RuleDecision> {
        self.events.iter().filter_map(|e| match e {
            OptEvent::Rule(d) => Some(d),
            _ => None,
        })
    }

    /// Renders the log as indented text, one line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            match event {
                OptEvent::Cleanup => {
                    let _ = writeln!(out, "pass: clean-up");
                }
                OptEvent::CostGathering { total } => {
                    let _ = writeln!(out, "pass: cost gathering (Σ tuple volume {total})");
                }
                OptEvent::Rule(d) => {
                    let local = match (d.local_before, d.local_after) {
                        (Some(b), Some(a)) => format!("local {b}→{a}, "),
                        _ => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "iter {}: {} on op{} — {}total {}→{} {}",
                        d.iteration,
                        d.rule,
                        d.target.0,
                        local,
                        d.total_before,
                        d.total_after,
                        if d.applied {
                            "✓ applied"
                        } else {
                            "✗ rejected"
                        }
                    );
                }
                OptEvent::Parallel { estimated, reason } => {
                    let _ = match estimated {
                        Some(count) => {
                            writeln!(out, "parallel: COUNT {count} ✓ eligible ({reason})")
                        }
                        None => writeln!(out, "parallel: ✗ rejected ({reason})"),
                    };
                }
                OptEvent::ParallelRun(verdict) => {
                    let _ = writeln!(out, "{}", verdict.render());
                }
                OptEvent::OrderRun(verdict) => {
                    let _ = writeln!(out, "{}", verdict.render());
                }
            }
        }
        out
    }
}

/// Upper bound on clean-up/cost/rewrite iterations: rewrites are accepted
/// on cost ties too, so the fixpoint is bounded rather than trusted.
const MAX_ITERATIONS: usize = 8;

/// Optimizer configuration.
#[derive(Debug, Clone, Default)]
pub struct OptimizerOptions {
    /// Rule names to skip (ablation experiments).
    pub disabled_rules: Vec<String>,
}

/// What the optimizer did to a plan.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The final plan, its estimates stamped on it.
    pub plan: QueryPlan,
    /// Σ OUT of the default plan (after clean-up).
    pub initial_cost: u64,
    /// Σ OUT of the final plan.
    pub final_cost: u64,
    /// Names of the applied rules, in order.
    pub applied: Vec<&'static str>,
    /// Iterations executed.
    pub iterations: usize,
    /// Ordered pass log with every rule decision, applied or rejected.
    pub opt_trace: OptTrace,
}

/// Optimizes `plan` against live statistics from `store`, scoped to
/// `scope`.
pub fn optimize(
    mut plan: QueryPlan,
    store: &MassStore,
    scope: &KeyRange,
    options: &OptimizerOptions,
) -> Result<OptimizeOutcome> {
    let mut opt_trace = OptTrace::default();
    cleanup::cleanup(&mut plan);
    opt_trace.events.push(OptEvent::Cleanup);
    let mut costs = estimate(&plan, store, scope)?;
    let initial_cost = costs.total();
    opt_trace.events.push(OptEvent::CostGathering {
        total: initial_cost,
    });
    let mut applied = Vec::new();
    let mut iterations = 0;

    'outer: while iterations < MAX_ITERATIONS {
        iterations += 1;
        // Phase: re-writing, most selective operator first.
        for (op, _delta) in costs.ordered.clone() {
            for rule in LIBRARY {
                if options.disabled_rules.iter().any(|d| d == rule.name) {
                    continue;
                }
                let Some((mut candidate, replacement)) = (rule.apply)(&plan, op) else {
                    continue;
                };
                cleanup::cleanup(&mut candidate);
                let cand_costs = estimate(&candidate, store, scope)?;
                // The paper's acceptance test is local: the transformed
                // operator (or sub-query) must not handle more tuples
                // than the operator it replaces. Ties fall back to the
                // plan-wide tuple volume so a rewrite can never regress.
                let old_local = costs.get(op).map(EstimateCard::cost);
                let new_local = cand_costs.get(replacement).map(EstimateCard::cost);
                let accept = match (old_local, new_local) {
                    (Some(o), Some(n)) if n < o => true,
                    (Some(o), Some(n)) if n == o => cand_costs.total() <= costs.total(),
                    (Some(_), Some(_)) => false,
                    _ => cand_costs.total() <= costs.total(),
                };
                opt_trace.events.push(OptEvent::Rule(RuleDecision {
                    iteration: iterations,
                    rule: rule.name,
                    target: op,
                    local_before: old_local,
                    local_after: new_local,
                    total_before: costs.total(),
                    total_after: cand_costs.total(),
                    applied: accept,
                }));
                if accept {
                    plan = candidate;
                    costs = cand_costs;
                    applied.push(rule.name);
                    continue 'outer; // re-cost and restart the ordered walk
                }
            }
        }
        break;
    }

    let final_cost = costs.total();
    plan.set_estimates(costs.cards);
    Ok(OptimizeOutcome {
        plan,
        initial_cost,
        final_cost,
        applied,
        iterations,
        opt_trace,
    })
}

/// The plans the rewrites `trace` applied produced, each after its rule's
/// name — the paper's Fig 8 transformation sequence — replayed from `plan`,
/// the plan the optimizer was given: clean-up first, as [`optimize`] does,
/// then each applied [`RuleDecision`] through [`LIBRARY`] and clean-up.
pub fn replay(mut plan: QueryPlan, trace: &OptTrace) -> Vec<(&'static str, QueryPlan)> {
    cleanup::cleanup(&mut plan);
    let mut steps = Vec::new();
    for decision in trace.decisions().filter(|d| d.applied) {
        let rule = LIBRARY.iter().find(|r| r.name == decision.rule);
        let Some((mut next, _)) = rule.and_then(|rule| (rule.apply)(&plan, decision.target)) else {
            break;
        };
        cleanup::cleanup(&mut next);
        steps.push((decision.rule, next.clone()));
        plan = next;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::builder::build_plan;
    use crate::plan::{Operator, TestSpec};
    use vamana_flex::Axis;
    use vamana_xpath::parse;

    /// XMark-shaped mini store: person > name/address structure with a
    /// unique literal, watches, and sibling prices.
    fn store() -> MassStore {
        // Mirrors the paper's XMark proportions: names outnumber persons
        // (items/categories have names too), addresses cover only part of
        // the population (2550 persons vs 1256 addresses in Fig 6).
        let mut xml = String::from("<site><people>");
        for i in 0..30 {
            xml.push_str(&format!("<person id='p{i}'><name>N{i}</name>"));
            if i == 7 {
                xml.push_str("<address><province>Vermont</province></address>");
            } else if i % 3 == 0 {
                xml.push_str("<address><city>C</city></address>");
            }
            xml.push_str("<watches><watch/><watch/></watches></person>");
        }
        xml.push_str("</people><open_auctions>");
        for i in 0..10 {
            xml.push_str(&format!(
                "<open_auction><itemref/><price>9</price><item><name>item{i}</name></item></open_auction>"
            ));
        }
        xml.push_str("</open_auctions></site>");
        let mut s = MassStore::open_memory();
        s.load_xml("x", &xml).unwrap();
        s
    }

    fn optimize_query(store: &MassStore, q: &str) -> OptimizeOutcome {
        let plan = build_plan(&parse(q).unwrap()).unwrap();
        let scope = KeyRange::subtree(&store.documents()[0].doc_key);
        optimize(plan, store, &scope, &OptimizerOptions::default()).unwrap()
    }

    #[test]
    fn q1_is_pushed_down() {
        let s = store();
        let out = optimize_query(&s, "//person/address");
        assert!(
            out.applied.contains(&"child-pushdown"),
            "applied: {:?}",
            out.applied
        );
        assert!(out.final_cost < out.initial_cost);
        let path = out.plan.context_path();
        assert!(matches!(
            out.plan.op(path[0]),
            Operator::Step { axis: Axis::Descendant, test: TestSpec::Named(n), .. } if &**n == "address"
        ));
    }

    #[test]
    fn q3_gets_both_fig8_transformations() {
        let s = store();
        let out = optimize_query(&s, "/descendant::name/parent::*/self::person/address");
        assert!(
            out.applied.contains(&"parent-inversion"),
            "applied: {:?}",
            out.applied
        );
        assert!(
            out.applied.contains(&"child-pushdown"),
            "applied: {:?}",
            out.applied
        );
        assert!(out.final_cost < out.initial_cost);
        // Final shape per Fig 11: descendant::address with nested exists.
        let path = out.plan.context_path();
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn q5_uses_the_value_index() {
        let s = store();
        let out = optimize_query(&s, "//province[text()='Vermont']/ancestor::person");
        assert!(
            out.applied.contains(&"value-index-step"),
            "applied: {:?}",
            out.applied
        );
        let path = out.plan.context_path();
        assert!(
            path.iter()
                .any(|id| matches!(out.plan.op(*id), Operator::ValueStep { .. })),
            "no value step in context path"
        );
        assert!(out.final_cost < out.initial_cost);
    }

    #[test]
    fn q2_folds_duplicate_context() {
        let s = store();
        let out = optimize_query(&s, "//watches/watch/ancestor::person");
        assert!(
            out.applied.contains(&"ancestor-context-fold"),
            "applied: {:?}",
            out.applied
        );
    }

    #[test]
    fn optimizer_never_increases_cost() {
        let s = store();
        for q in [
            "//person/address",
            "//watches/watch/ancestor::person",
            "/descendant::name/parent::*/self::person/address",
            "//itemref/following-sibling::price/parent::*",
            "//province[text()='Vermont']/ancestor::person",
            "//person[name]/watches",
            "//person[@id='p3']",
        ] {
            let out = optimize_query(&s, q);
            assert!(
                out.final_cost <= out.initial_cost,
                "{q}: {} > {}",
                out.final_cost,
                out.initial_cost
            );
        }
    }

    #[test]
    fn optimizer_terminates_on_fixpoints() {
        let s = store();
        let out = optimize_query(&s, "//name");
        assert!(out.iterations <= MAX_ITERATIONS);
        assert!(
            out.applied.is_empty(),
            "no rule should fire on //name: {:?}",
            out.applied
        );
    }
}
