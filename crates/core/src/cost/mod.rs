//! The VAMANA cost model (paper §VI-B).
//!
//! Statistics are read *live* from the MASS indexes at estimation time —
//! `COUNT(opᵢ)` is a node-test count inside the query scope, `TC(opᵢ)` a
//! value-index count — so estimates remain exact under updates, with no
//! histograms to maintain. [`estimate`] draws one [`EstimateCard`] per
//! operator, holding:
//!
//! * `COUNT(opᵢ)`: nodes satisfying the step's node test (case analysis
//!   below),
//! * `TC(opᵢ)`: occurrences of a literal's value,
//! * `IN(opᵢ)`: maximum tuples the operator receives (cases 1–3),
//! * `OUT(opᵢ)`: maximum tuples it emits (cases 1–6, Table I),
//! * selectivity `δ = OUT/IN`, scaled into `[0, 1]`; operators are ranked
//!   most-selective-first for the optimizer.
//!
//! The cards the optimizer settles on are stamped on the plan, and they are
//! what EXPLAIN and ANALYZE print ([`crate::plan::display`]).

pub mod table;

use crate::error::Result;
use crate::plan::{ContextSource, OpId, Operator, QueryPlan, TestSpec};
use vamana_flex::{Axis, KeyRange};
use vamana_mass::MassStore;

/// The serial cost (Table I units: one unit is one tuple through the
/// serial pipeline) from which a morsel-parallel scan is faster than the
/// same scan on one thread. Measured, not tuned: a fan-out costs ≈ 750
/// units per morsel handed over plus ≈ 400 per 1024-row chunk that
/// crosses a queue, which two threads win back from ≈ 10 k units up — see
/// EXPERIMENTS.md, "Hand-off calibration".
pub const PARALLEL_BREAK_EVEN: u64 = 10_000;

/// The paper's Table I quantities for one operator. [`estimate`] draws
/// one per operator it reaches; the optimizer keeps the final plan's
/// stamped on it ([`crate::plan::QueryPlan::set_estimates`]), where they
/// travel through plan caches and streams, so that EXPLAIN ANALYZE can put
/// `est=…` next to `act=…` even for plans cached long before they ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateCard {
    /// `COUNT(opᵢ)` — index nodes satisfying the node test (steps only).
    pub count: Option<u64>,
    /// `TC(opᵢ)` — occurrences of a literal's value (value ops only).
    pub tc: Option<u64>,
    /// `IN(opᵢ)` — maximum tuples the operator receives.
    pub input: u64,
    /// `OUT(opᵢ)` — maximum tuples it emits.
    pub output: u64,
    /// Estimated clustered-index pages touched if this operator's
    /// output were fetched from data pages: `OUT / tuples-per-page`,
    /// where the blocking factor reflects the store's measured
    /// compression (v2 stores pack more tuples per page, so the same
    /// output prices fewer page reads). `0` when the store is empty.
    pub pages: f64,
}

impl EstimateCard {
    /// Selectivity ratio `δ = OUT/IN`, clamped to `[0, 1]`.
    /// Smaller is *more* selective (filters more tuples away).
    pub fn selectivity(&self) -> f64 {
        if self.input == 0 {
            1.0
        } else {
            (self.output as f64 / self.input as f64).clamp(0.0, 1.0)
        }
    }

    /// Estimated cost charged by the optimizer: `IN + OUT` (every tuple
    /// received or emitted is an index operation).
    pub fn cost(&self) -> u64 {
        self.input + self.output
    }
}

/// The estimate of a whole plan.
#[derive(Debug, Clone)]
pub struct PlanCosts {
    /// One card per arena slot; `None` for operators the estimator never
    /// reached (detached slots left behind by rewrites).
    pub(crate) cards: Vec<Option<EstimateCard>>,
    /// Live operators ordered most-selective-first (the optimizer's
    /// ordered list `L(P)`).
    pub ordered: Vec<(OpId, f64)>,
}

impl PlanCosts {
    /// Estimate of one operator, if it was reached.
    pub fn get(&self, id: OpId) -> Option<&EstimateCard> {
        self.cards.get(id.index())?.as_ref()
    }

    /// Total intermediate-tuple volume: Σ (IN + OUT) over live operators
    /// — the scalar the optimizer minimizes. Counting inputs as well as
    /// outputs reflects that every tuple an operator *receives* costs an
    /// index operation (a seek or a point lookup), which is exactly what
    /// the paper's push-down transformations save: `//address[parent::
    /// person]` feeds 1256 tuples into a parent check instead of feeding
    /// 2550 persons into a child scan.
    pub fn total(&self) -> u64 {
        self.cards.iter().flatten().map(EstimateCard::cost).sum()
    }
}

/// Estimates the cost of every live operator of `plan` against `store`,
/// with counting scoped to `scope` (typically the queried document's
/// subtree — the paper's "entire database / one document / specific
/// point" knob).
pub fn estimate(plan: &QueryPlan, store: &MassStore, scope: &KeyRange) -> Result<PlanCosts> {
    let mut est = Estimator {
        plan,
        store,
        scope,
        tuples_per_page: store.tuples_per_page(),
        cards: vec![None; plan.len()],
    };
    let root = plan.root();
    let top = match plan.op(root) {
        Operator::Root { child } => *child,
        _ => Some(root),
    };
    if let Some(top) = top {
        // A value is computed once, at one context: the document node.
        let out = match plan.op(top).yields_nodes() {
            true => est.est_nodeset(top, None)?,
            false => est.est_operand(top, 1).map(|()| 1)?,
        };
        est.set(root, None, None, out, out);
    }
    let mut ordered: Vec<(OpId, f64)> = plan
        .live_ops()
        .into_iter()
        .filter_map(|id| Some((id, est.cards[id.index()]?.selectivity())))
        .collect();
    ordered.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    Ok(PlanCosts {
        cards: est.cards,
        ordered,
    })
}

/// `COUNT(opᵢ)`: nodes in `scope` satisfying a node test on an axis.
pub fn count_nodetest(store: &MassStore, axis: Axis, test: &TestSpec, scope: &KeyRange) -> u64 {
    match test {
        TestSpec::Named(name) => {
            let Some(id) = store.name_id(name) else {
                return 0;
            };
            if axis.principal_is_attribute() {
                store.count_attributes_in(id, scope)
            } else {
                store.count_elements_in(id, scope)
            }
        }
        TestSpec::Wildcard | TestSpec::AnyNode => {
            // `node()` also admits text/comments/PIs; keep the element
            // count as the dominant (and Table-I-relevant) bound, adding
            // the leaf kinds for `node()`.
            let elems = store.count_all_elements_in(scope);
            if matches!(test, TestSpec::AnyNode) {
                elems
                    + store.count_text_in(scope)
                    + store.count_comments_in(scope)
                    + store.count_pis_in(scope)
            } else {
                elems
            }
        }
        TestSpec::Text => store.count_text_in(scope),
        TestSpec::Comment => store.count_comments_in(scope),
        TestSpec::Pi(_) => store.count_pis_in(scope),
    }
}

struct Estimator<'a> {
    plan: &'a QueryPlan,
    store: &'a MassStore,
    scope: &'a KeyRange,
    /// The store's blocking factor ([`MassStore::tuples_per_page`]),
    /// which prices a card's page I/O.
    tuples_per_page: f64,
    cards: Vec<Option<EstimateCard>>,
}

impl<'a> Estimator<'a> {
    /// Draws `id`'s card.
    fn set(&mut self, id: OpId, count: Option<u64>, tc: Option<u64>, input: u64, output: u64) {
        let pages = if self.tuples_per_page > 0.0 {
            (output as f64 / self.tuples_per_page).ceil()
        } else {
            0.0
        };
        self.cards[id.index()] = Some(EstimateCard {
            count,
            tc,
            input,
            output,
            pages,
        });
    }

    /// Draws `id`'s card unless it has one.
    fn set_once(&mut self, id: OpId, input: u64, output: u64) {
        if self.cards[id.index()].is_none() {
            self.set(id, None, None, input, output);
        }
    }

    /// Estimates a node-set-producing operator. `pred_input` is the tuple
    /// count flowing into a predicate tree (case 3 of IN), `None` on the
    /// context path.
    fn est_nodeset(&mut self, id: OpId, pred_input: Option<u64>) -> Result<u64> {
        let plan = self.plan;
        let out = match *plan.op(id) {
            Operator::Step {
                axis,
                ref test,
                context,
                source,
                ref predicates,
            } => {
                let count = count_nodetest(self.store, axis, test, self.scope);
                let input = match context {
                    Some(c) => self.est_nodeset(c, pred_input)?,
                    None => match (source, pred_input) {
                        // Case 3: leaf on a predicate path receives the
                        // tuples of the operator being filtered.
                        (ContextSource::OuterTuple, Some(n)) => n,
                        // Case 1: leaf on the context path sees the index.
                        _ => count,
                    },
                };
                let is_leaf_on_context_path = context.is_none() && pred_input.is_none();
                let kind_test = matches!(
                    test,
                    TestSpec::Text | TestSpec::AnyNode | TestSpec::Comment | TestSpec::Pi(_)
                );
                let mut out = if is_leaf_on_context_path {
                    count // Case 1: OUT = COUNT
                } else {
                    table::table_out(axis, count, input, kind_test) // Cases 3/4
                };
                // Predicates tighten the bound (cases 5/6).
                for pred in predicates {
                    out = self.est_predicate(*pred, out)?;
                }
                self.set(id, Some(count), None, input, out);
                out
            }
            Operator::ValueStep {
                ref value, context, ..
            } => {
                let tc = self.store.text_count_in(value, self.scope);
                let input = match context {
                    Some(c) => self.est_nodeset(c, pred_input)?,
                    None => pred_input.unwrap_or(1),
                };
                self.set(id, Some(tc), Some(tc), input, tc);
                tc
            }
            Operator::Union { left, right } => {
                let l = self.est_nodeset(left, pred_input)?;
                let r = self.est_nodeset(right, pred_input)?;
                let out = l + r;
                self.set(id, None, None, l + r, out);
                out
            }
            Operator::RangeStep {
                op, bound, context, ..
            } => {
                let rc = self.store.numeric_count_in(op.to_mass(), bound, self.scope);
                let input = match context {
                    Some(c) => self.est_nodeset(c, pred_input)?,
                    None => pred_input.unwrap_or(1),
                };
                self.set(id, Some(rc), Some(rc), input, rc);
                rc
            }
            Operator::Filter {
                input,
                ref predicates,
            } => {
                let mut out = self.est_nodeset(input, pred_input)?;
                let input_n = out;
                for pred in predicates {
                    out = self.est_predicate(*pred, out)?;
                }
                self.set(id, None, None, input_n, out);
                out
            }
            Operator::Join { left, right, .. } => {
                let l = self.est_nodeset(left, pred_input)?;
                let r = self.est_nodeset(right, pred_input)?;
                let out = l.saturating_mul(r);
                self.set(id, None, None, l + r, out);
                out
            }
            _ => {
                // Expression operators used as node-set producers
                // (shouldn't happen from the builder); treat opaque.
                let out = pred_input.unwrap_or(1);
                self.set(id, None, None, out, out);
                out
            }
        };
        Ok(out)
    }

    /// Estimates how many of `input` tuples survive predicate `id`,
    /// annotating the predicate tree along the way.
    fn est_predicate(&mut self, id: OpId, input: u64) -> Result<u64> {
        let plan = self.plan;
        let out = match *plan.op(id) {
            Operator::Exists { path } => {
                self.est_nodeset(path, Some(input))?;
                // Case 6: no value information — bound stays at IN.
                input
            }
            Operator::Binary { op, left, right } => {
                use crate::plan::BinOp;
                match op {
                    BinOp::And => {
                        let l = self.est_predicate(left, input)?;
                        // The right side sees at most what survived the left.
                        let r = self.est_predicate(right, l)?;
                        l.min(r)
                    }
                    BinOp::Or => {
                        let l = self.est_predicate(left, input)?;
                        let r = self.est_predicate(right, input)?;
                        (l + r).min(input)
                    }
                    BinOp::Eq => {
                        // Case 5: value-based equivalence — OUT is bounded
                        // by the literal's text count.
                        let tc = self.literal_tc(left, right);
                        self.est_operand(left, input)?;
                        self.est_operand(right, input)?;
                        let out = match tc {
                            Some(tc) => input.min(tc),
                            None => input,
                        };
                        self.set(id, None, tc, input, out);
                        return Ok(out);
                    }
                    _ => {
                        self.est_operand(left, input)?;
                        self.est_operand(right, input)?;
                        input // Case 6
                    }
                }
            }
            Operator::Number { .. } => {
                // Position predicate: at most one tuple per context group;
                // without group statistics the paper's bound is IN, but a
                // constant position can never *increase* cardinality.
                input.min(input)
            }
            _ => {
                // Functions, arithmetic, literals as predicates: case 6.
                for c in self.plan.children_of(id) {
                    self.est_operand(c, input)?;
                }
                input
            }
        };
        self.set_once(id, input, out);
        Ok(out)
    }

    /// Estimates an operand of a comparison/function (value expression).
    fn est_operand(&mut self, id: OpId, input: u64) -> Result<()> {
        match *self.plan.op(id) {
            ref op if op.yields_nodes() => {
                self.est_nodeset(id, Some(input))?;
            }
            Operator::Literal { ref value } => {
                // Case 2: OUT(literal) = TC(value).
                let tc = self.store.text_count_in(value, self.scope);
                self.set(id, None, Some(tc), input, tc);
            }
            Operator::Number { value: _ } => {
                self.set(id, None, None, input, input);
            }
            _ => {
                for c in self.plan.children_of(id) {
                    self.est_operand(c, input)?;
                }
                self.set_once(id, input, input);
            }
        }
        Ok(())
    }

    /// If one side is a literal, its in-scope text count.
    fn literal_tc(&self, left: OpId, right: OpId) -> Option<u64> {
        for side in [left, right] {
            if let Operator::Literal { value } = self.plan.op(side) {
                return Some(self.store.text_count_in(value, self.scope));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::builder::build_plan;
    use vamana_xpath::parse;

    /// A miniature analogue of the paper's XMark document: more `name`s
    /// than `person`s, fewer `address`es.
    fn store() -> MassStore {
        let mut xml = String::from("<site><people>");
        for i in 0..20 {
            xml.push_str(&format!("<person id='p{i}'><name>N{i}</name>"));
            // Give some persons a second name-bearing child and only half
            // an address.
            xml.push_str("<profile><name>alias</name></profile>");
            if i % 2 == 0 {
                xml.push_str("<address><city>X</city></address>");
            }
            xml.push_str("</person>");
        }
        xml.push_str("</people></site>");
        let mut s = MassStore::open_memory();
        s.load_xml("mini", &xml).unwrap();
        s
    }

    fn costs_for(store: &MassStore, q: &str) -> (QueryPlan, PlanCosts) {
        let plan = build_plan(&parse(q).unwrap()).unwrap();
        let scope = KeyRange::subtree(&store.documents()[0].doc_key);
        let costs = estimate(&plan, store, &scope).unwrap();
        (plan, costs)
    }

    #[test]
    fn leaf_step_in_equals_count() {
        let s = store();
        let (plan, costs) = costs_for(&s, "descendant::name");
        let leaf = plan.context_path()[0];
        let c = costs.get(leaf).unwrap();
        assert_eq!(c.count, Some(40)); // 20 names + 20 aliases
        assert_eq!(c.input, 40);
        assert_eq!(c.output, 40);
    }

    #[test]
    fn parent_step_bounded_by_input_like_fig6() {
        let s = store();
        let (plan, costs) = costs_for(&s, "descendant::name/parent::person");
        let path = plan.context_path();
        let parent_step = path[0];
        let c = costs.get(parent_step).unwrap();
        assert_eq!(c.count, Some(20)); // persons
        assert_eq!(c.input, 40); // names
        assert_eq!(c.output, 40); // Table I: up-axis → IN
    }

    #[test]
    fn child_step_bounded_by_count_like_fig6() {
        let s = store();
        let (plan, costs) = costs_for(&s, "descendant::name/parent::person/address");
        let addr = plan.context_path()[0];
        let c = costs.get(addr).unwrap();
        assert_eq!(c.count, Some(10));
        assert_eq!(c.input, 40);
        assert_eq!(c.output, 10); // min via Table I down-axis → COUNT
        assert!(c.selectivity() < 0.5);
    }

    #[test]
    fn value_predicate_uses_tc_like_fig7() {
        let s = store();
        let (plan, costs) = costs_for(&s, "//name[text() = 'N3']");
        let name_step = plan.context_path()[0];
        let c = costs.get(name_step).unwrap();
        assert_eq!(c.count, Some(40));
        assert_eq!(c.output, 1, "TC('N3') = 1 should cap the output");
    }

    #[test]
    fn missing_literal_gives_zero_output() {
        let s = store();
        let (plan, costs) = costs_for(&s, "//name[text() = 'Nobody']");
        let name_step = plan.context_path()[0];
        assert_eq!(costs.get(name_step).unwrap().output, 0);
    }

    #[test]
    fn exists_predicate_keeps_input_bound() {
        let s = store();
        let (plan, costs) = costs_for(&s, "//person[name]");
        let person = plan.context_path()[0];
        let c = costs.get(person).unwrap();
        assert_eq!(c.output, 20);
    }

    #[test]
    fn ordered_list_ranks_most_selective_first() {
        let s = store();
        let (plan, costs) = costs_for(&s, "descendant::name/parent::person/address");
        assert!(!costs.ordered.is_empty());
        // Most selective operator is the address child step (10/40).
        let addr = plan.context_path()[0];
        assert_eq!(costs.ordered[0].0, addr);
        // Selectivities ascend.
        for w in costs.ordered.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn total_sums_outputs() {
        let s = store();
        let (_, costs) = costs_for(&s, "//person/address");
        assert!(costs.total() > 0);
    }

    #[test]
    fn count_nodetest_variants() {
        let s = store();
        let all = KeyRange::all();
        assert_eq!(
            count_nodetest(
                &s,
                Axis::Descendant,
                &TestSpec::Named("person".into()),
                &all
            ),
            20
        );
        assert_eq!(
            count_nodetest(&s, Axis::Attribute, &TestSpec::Named("id".into()), &all),
            20
        );
        assert_eq!(
            count_nodetest(
                &s,
                Axis::Descendant,
                &TestSpec::Named("nothing".into()),
                &all
            ),
            0
        );
        assert!(count_nodetest(&s, Axis::Descendant, &TestSpec::Wildcard, &all) > 60);
        assert!(
            count_nodetest(&s, Axis::Descendant, &TestSpec::AnyNode, &all)
                > count_nodetest(&s, Axis::Descendant, &TestSpec::Wildcard, &all)
        );
        assert_eq!(
            count_nodetest(&s, Axis::Descendant, &TestSpec::Text, &all),
            50
        );
    }

    #[test]
    fn estimates_stay_fresh_under_updates() {
        let mut s = store();
        let q = "//person/address";
        let (plan, costs) = costs_for(&s, q);
        let addr = plan.context_path()[0];
        let before = costs.get(addr).unwrap().count.unwrap();
        // Add ten more addresses.
        let person = s.name_id("person").unwrap();
        let keys: Vec<_> = s
            .name_index()
            .elements(person)
            .iter()
            .take(10)
            .map(|k| k.to_vec())
            .collect();
        for flat in keys {
            let key = vamana_flex::FlexKey::from_flat(flat);
            s.append_element(&key, "address").unwrap();
        }
        let (plan2, costs2) = costs_for(&s, q);
        let addr2 = plan2.context_path()[0];
        assert_eq!(costs2.get(addr2).unwrap().count.unwrap(), before + 10);
    }
}
