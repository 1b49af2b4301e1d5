//! The transformation library (paper §VI-C, Figs 8 & 9).
//!
//! Each rule is a pure function: given a plan and a target operator, it
//! returns the rewritten plan or `None` when the pattern does not match.
//! The optimizer applies a rule only when re-estimation shows the cost
//! does not increase, so rules themselves only need to be *equivalence*
//! preserving, not improvements.

use crate::plan::{ContextSource, OpId, Operator, QueryPlan, RangeCmp, TestSpec};
use vamana_flex::Axis;

/// A named rewrite rule.
///
/// `apply` returns the rewritten plan together with the id of the
/// operator that *replaces* the target; the driver compares the two
/// operators' local costs (paper §VI-C: a transformation is discarded if
/// it makes the current operator filter fewer tuples).
pub struct Rule {
    /// Rule name (reported in [`crate::opt::OptimizeOutcome::applied`]).
    pub name: &'static str,
    /// Attempts the rewrite on operator `target`.
    pub apply: fn(&QueryPlan, OpId) -> Option<(QueryPlan, OpId)>,
}

/// The rule library, in the order rules are tried per operator.
pub const LIBRARY: &[Rule] = &[
    Rule {
        name: "value-index-step",
        apply: value_index_step,
    },
    Rule {
        name: "range-index-step",
        apply: range_index_step,
    },
    Rule {
        name: "parent-inversion",
        apply: parent_inversion,
    },
    Rule {
        name: "child-pushdown",
        apply: child_pushdown,
    },
    Rule {
        name: "ancestor-context-fold",
        apply: ancestor_context_fold,
    },
    Rule {
        name: "predicate-reorder",
        apply: predicate_reorder,
    },
];

/// **Fig 8, first transformation** — invert a `parent::T` step over a
/// descendant leaf:
///
/// `descendant::S (leaf) / parent::T` ⇒
/// `descendant-or-self::T (leaf) [ exists(child::S[preds(S)]) ]`
///
/// Sound because `{parent(x) : x ∈ descendant(C), x ~ S}` is exactly the
/// descendant-or-self nodes of `C` with a child matching `S`.
fn parent_inversion(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Step {
        axis: Axis::Parent,
        test: parent_test,
        context: Some(inner_id),
        predicates: parent_preds,
        ..
    } = plan.op(target).clone()
    else {
        return None;
    };
    let Operator::Step {
        axis: inner_axis @ (Axis::Descendant | Axis::DescendantOrSelf),
        test: inner_test,
        context: None,
        source,
        predicates: inner_preds,
    } = plan.op(inner_id).clone()
    else {
        return None;
    };
    // Only name/wildcard tests make sense for an inverted child check.
    if !matches!(
        inner_test,
        TestSpec::Named(_) | TestSpec::Wildcard | TestSpec::Text
    ) {
        return None;
    }
    // Moving predicates to differently-grouped steps is only sound when
    // they cannot observe position()/last().
    if !super::cleanup::all_position_free(plan, &inner_preds)
        || !super::cleanup::all_position_free(plan, &parent_preds)
    {
        return None;
    }
    let _ = inner_axis;
    let mut new_plan = plan.clone();
    let child_check = new_plan.push(Operator::Step {
        axis: Axis::Child,
        test: inner_test,
        context: None,
        source: ContextSource::OuterTuple,
        predicates: inner_preds,
    });
    let exists = new_plan.push(Operator::Exists { path: child_check });
    let mut predicates = vec![exists];
    predicates.extend(parent_preds);
    let replacement = new_plan.push(Operator::Step {
        axis: Axis::DescendantOrSelf,
        test: parent_test,
        context: None,
        source,
        predicates,
    });
    super::cleanup::replace_edges(&mut new_plan, target, replacement);
    Some((new_plan, replacement))
}

/// **Fig 8 second transformation / Fig 11, and Q1 of the evaluation** —
/// push a selective child step below a descendant step:
///
/// `descendant::S (leaf)[preds(S)] / child::T[preds(T)]` ⇒
/// `descendant::T (leaf) [ exists(parent::S[preds(S)]) ][preds(T)]`
///
/// Requires the inner step to be the context-path leaf so that the
/// context node (a document node) can never itself satisfy `S`.
fn child_pushdown(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Step {
        axis: Axis::Child,
        test: child_test,
        context: Some(inner_id),
        predicates: child_preds,
        ..
    } = plan.op(target).clone()
    else {
        return None;
    };
    let Operator::Step {
        axis: Axis::Descendant | Axis::DescendantOrSelf,
        test: inner_test,
        context: None,
        source: source @ ContextSource::QueryRoot,
        predicates: inner_preds,
    } = plan.op(inner_id).clone()
    else {
        return None;
    };
    if !matches!(inner_test, TestSpec::Named(_)) {
        return None;
    }
    if !super::cleanup::all_position_free(plan, &inner_preds)
        || !super::cleanup::all_position_free(plan, &child_preds)
    {
        return None;
    }
    let mut new_plan = plan.clone();
    let parent_check = new_plan.push(Operator::Step {
        axis: Axis::Parent,
        test: inner_test,
        context: None,
        source: ContextSource::OuterTuple,
        predicates: inner_preds,
    });
    let exists = new_plan.push(Operator::Exists { path: parent_check });
    let mut predicates = vec![exists];
    predicates.extend(child_preds);
    let replacement = new_plan.push(Operator::Step {
        axis: Axis::Descendant,
        test: child_test,
        context: None,
        source,
        predicates,
    });
    super::cleanup::replace_edges(&mut new_plan, target, replacement);
    Some((new_plan, replacement))
}

/// **Fig 9 / Q5 of the evaluation** — translate a value comparison into a
/// value-index location step:
///
/// `descendant::E (leaf)[ child::text() = 'v' ]` ⇒
/// `value::'v' (leaf) / parent::E`
///
/// The value index returns the text nodes with value `v` directly; one
/// `parent` lookup recovers the candidate elements.
fn value_index_step(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Step {
        axis: Axis::Descendant | Axis::DescendantOrSelf,
        test: elem_test @ TestSpec::Named(_),
        context: None,
        source,
        predicates,
    } = plan.op(target).clone()
    else {
        return None;
    };
    if !super::cleanup::all_position_free(plan, &predicates) {
        return None;
    }
    // Find a predicate of the shape `text() = 'literal'` or
    // `@attr = 'literal'`.
    let (pred_idx, literal, attr_name) = predicates.iter().enumerate().find_map(|(i, p)| {
        let Operator::Binary {
            op: crate::plan::BinOp::Eq,
            left,
            right,
        } = plan.op(*p)
        else {
            return None;
        };
        let (path_side, lit_side) = match (plan.op(*left), plan.op(*right)) {
            (_, Operator::Literal { value }) => (*left, value.clone()),
            (Operator::Literal { value }, _) => (*right, value.clone()),
            _ => return None,
        };
        // The path side must be exactly `child::text()`/`self::text()` or
        // `attribute::name`, anchored at the tuple.
        match plan.op(path_side) {
            Operator::Step {
                axis: Axis::Child | Axis::SelfAxis,
                test: TestSpec::Text,
                context: None,
                source: ContextSource::OuterTuple,
                predicates: inner,
            } if inner.is_empty() => Some((i, lit_side, None)),
            Operator::Step {
                axis: Axis::Attribute,
                test: TestSpec::Named(attr),
                context: None,
                source: ContextSource::OuterTuple,
                predicates: inner,
            } if inner.is_empty() => Some((i, lit_side, Some(attr.clone()))),
            _ => None,
        }
    })?;
    let mut new_plan = plan.clone();
    let value_step = new_plan.push(Operator::ValueStep {
        value: literal,
        text_only: Some(attr_name.is_none()),
        attr_name,
        context: None,
        source,
    });
    let mut remaining: Vec<OpId> = predicates.clone();
    remaining.remove(pred_idx);
    let parent_step = new_plan.push(Operator::Step {
        axis: Axis::Parent,
        test: elem_test,
        context: Some(value_step),
        source: ContextSource::QueryRoot,
        predicates: remaining,
    });
    super::cleanup::replace_edges(&mut new_plan, target, parent_step);
    Some((new_plan, parent_step))
}

/// **Range predicates via the numeric value index** — an extension in
/// the spirit of Fig 9 (the paper lists range predicates among the
/// index-supported conditions):
///
/// `descendant::E (leaf)[ text() > n ]` ⇒ `range::(> n) / parent::E`
/// `descendant::E (leaf)[ @a >= n ]` ⇒ `range::(>= n)(@a) / parent::E`
///
/// Sound because the comparison applies per text/attribute node, which
/// is exactly what the numeric index stores. (Comparisons against an
/// *element* path like `[price > n]` are not rewritten: their operand is
/// the element's whole string-value, which a single text node may not
/// equal in mixed content.)
fn range_index_step(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Step {
        axis: Axis::Descendant | Axis::DescendantOrSelf,
        test: elem_test @ TestSpec::Named(_),
        context: None,
        source,
        predicates,
    } = plan.op(target).clone()
    else {
        return None;
    };
    if !super::cleanup::all_position_free(plan, &predicates) {
        return None;
    }
    let (pred_idx, cmp, bound, attr_name) = predicates.iter().enumerate().find_map(|(i, p)| {
        let Operator::Binary { op, left, right } = plan.op(*p) else {
            return None;
        };
        let cmp = RangeCmp::from_binop(*op)?;
        // Identify which side is the number.
        let (path_side, cmp, bound) = match (plan.op(*left), plan.op(*right)) {
            (_, Operator::Number { value }) => (*left, cmp, *value),
            (Operator::Number { value }, _) => (*right, cmp.flip(), *value),
            _ => return None,
        };
        match plan.op(path_side) {
            Operator::Step {
                axis: Axis::Child | Axis::SelfAxis,
                test: TestSpec::Text,
                context: None,
                source: ContextSource::OuterTuple,
                predicates: inner,
            } if inner.is_empty() => Some((i, cmp, bound, None)),
            Operator::Step {
                axis: Axis::Attribute,
                test: TestSpec::Named(attr),
                context: None,
                source: ContextSource::OuterTuple,
                predicates: inner,
            } if inner.is_empty() => Some((i, cmp, bound, Some(attr.clone()))),
            _ => None,
        }
    })?;
    let mut new_plan = plan.clone();
    let range_step = new_plan.push(Operator::RangeStep {
        op: cmp,
        bound,
        text_only: attr_name.is_none(),
        attr_name,
        context: None,
        source,
    });
    let mut remaining: Vec<OpId> = predicates.clone();
    remaining.remove(pred_idx);
    let parent_step = new_plan.push(Operator::Step {
        axis: Axis::Parent,
        test: elem_test,
        context: Some(range_step),
        source: ContextSource::QueryRoot,
        predicates: remaining,
    });
    super::cleanup::replace_edges(&mut new_plan, target, parent_step);
    Some((new_plan, parent_step))
}

/// **Q2 of the evaluation** — fold a duplicate-generating context into an
/// exist predicate before an ancestor step:
///
/// `A / child::S[preds] / ancestor::T` ⇒ `A[ exists(child::S[preds]) ] /
/// ancestor::T`
///
/// Valid because results are node sets, when `T` and `S` are distinct
/// names (the two context sets then reach identical `T` ancestors), and it
/// eliminates the duplicate ancestor chains the paper's Q2 discussion
/// describes.
fn ancestor_context_fold(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Step {
        axis: axis @ (Axis::Ancestor | Axis::AncestorOrSelf),
        test: anc_test @ TestSpec::Named(_),
        context: Some(mid_id),
        predicates: anc_preds,
        ..
    } = plan.op(target).clone()
    else {
        return None;
    };
    let Operator::Step {
        axis: Axis::Child,
        test: mid_test @ TestSpec::Named(_),
        context: Some(base_id),
        predicates: mid_preds,
        ..
    } = plan.op(mid_id).clone()
    else {
        return None;
    };
    if anc_test == mid_test {
        return None; // the folded node itself could match T
    }
    // The base must be a step we can attach a predicate to.
    let Operator::Step { .. } = plan.op(base_id) else {
        return None;
    };
    let mut new_plan = plan.clone();
    let child_check = new_plan.push(Operator::Step {
        axis: Axis::Child,
        test: mid_test,
        context: None,
        source: ContextSource::OuterTuple,
        predicates: mid_preds,
    });
    let exists = new_plan.push(Operator::Exists { path: child_check });
    if let Operator::Step { predicates, .. } = new_plan.op_mut(base_id) {
        predicates.push(exists);
    }
    if let Operator::Step { context, .. } = new_plan.op_mut(target) {
        *context = Some(base_id);
    }
    let _ = (axis, anc_preds);
    Some((new_plan, target))
}

/// **Predicate reordering** — under `and`, evaluate the more selective
/// side first so the short-circuit saves the expensive side. The cost
/// check in the driver confirms the benefit.
fn predicate_reorder(plan: &QueryPlan, target: OpId) -> Option<(QueryPlan, OpId)> {
    let Operator::Binary {
        op: crate::plan::BinOp::And,
        left,
        right,
    } = plan.op(target).clone()
    else {
        return None;
    };
    // Heuristic without costs: a pure-literal/value comparison is cheaper
    // than an exists-path; move comparisons before exists.
    let is_cheap = |id: OpId| {
        matches!(
            plan.op(id),
            Operator::Binary { .. } | Operator::Number { .. } | Operator::Literal { .. }
        )
    };
    if is_cheap(right) && !is_cheap(left) {
        let mut new_plan = plan.clone();
        *new_plan.op_mut(target) = Operator::Binary {
            op: crate::plan::BinOp::And,
            left: right,
            right: left,
        };
        return Some((new_plan, target));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::cleanup::cleanup;
    use crate::plan::builder::build_plan;
    use vamana_xpath::parse;

    fn cleaned(q: &str) -> QueryPlan {
        let mut p = build_plan(&parse(q).unwrap()).unwrap();
        cleanup(&mut p);
        p
    }

    #[test]
    fn parent_inversion_matches_fig8() {
        let plan = cleaned("descendant::name/parent::*/self::person/address");
        // After cleanup: descendant::name / parent::person / child::address.
        let path = plan.context_path();
        let parent_step = path[1];
        let (rewritten, _) = parent_inversion(&plan, parent_step).expect("rule should fire");
        // New context path: descendant-or-self::person[exists child::name] / address.
        let new_path = rewritten.context_path();
        assert_eq!(new_path.len(), 2);
        match rewritten.op(new_path[1]) {
            Operator::Step {
                axis: Axis::DescendantOrSelf,
                test: TestSpec::Named(n),
                predicates,
                ..
            } => {
                assert_eq!(&**n, "person");
                assert_eq!(predicates.len(), 1);
                assert!(matches!(
                    rewritten.op(predicates[0]),
                    Operator::Exists { .. }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn child_pushdown_matches_q1() {
        let plan = cleaned("//person/address");
        let addr = plan.context_path()[0];
        let (rewritten, _) = child_pushdown(&plan, addr).expect("rule should fire");
        let path = rewritten.context_path();
        assert_eq!(path.len(), 1);
        match rewritten.op(path[0]) {
            Operator::Step {
                axis: Axis::Descendant,
                test: TestSpec::Named(n),
                predicates,
                ..
            } => {
                assert_eq!(&**n, "address");
                let Operator::Exists { path: p } = rewritten.op(predicates[0]) else {
                    panic!()
                };
                assert!(matches!(
                    rewritten.op(*p),
                    Operator::Step {
                        axis: Axis::Parent,
                        test: TestSpec::Named(_),
                        ..
                    }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn value_index_step_matches_fig9() {
        let plan = cleaned("//name[text() = 'Yung Flach']");
        let name_step = plan.context_path()[0];
        let (rewritten, _) = value_index_step(&plan, name_step).expect("rule should fire");
        let path = rewritten.context_path();
        assert_eq!(path.len(), 2);
        assert!(matches!(
            rewritten.op(path[0]),
            Operator::Step {
                axis: Axis::Parent,
                test: TestSpec::Named(_),
                ..
            }
        ));
        match rewritten.op(path[1]) {
            Operator::ValueStep {
                value,
                text_only: Some(true),
                ..
            } => {
                assert_eq!(&**value, "Yung Flach")
            }
            other => panic!("wrong leaf: {other:?}"),
        }
    }

    #[test]
    fn ancestor_fold_matches_q2() {
        let plan = cleaned("//watches/watch/ancestor::person");
        let anc = plan.context_path()[0];
        let (rewritten, _) = ancestor_context_fold(&plan, anc).expect("rule should fire");
        let path = rewritten.context_path();
        // ancestor::person / descendant::watches[exists child::watch]
        assert_eq!(path.len(), 2);
        match rewritten.op(path[1]) {
            Operator::Step {
                test: TestSpec::Named(n),
                predicates,
                ..
            } => {
                assert_eq!(&**n, "watches");
                assert_eq!(predicates.len(), 1);
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn ancestor_fold_requires_distinct_names() {
        // Same names: //a/a/ancestor::a must not fold.
        let plan = cleaned("//a/a/ancestor::a");
        let anc = plan.context_path()[0];
        assert!(ancestor_context_fold(&plan, anc).is_none());
    }

    #[test]
    fn rules_do_not_fire_on_wrong_shapes() {
        let plan = cleaned("//person/address");
        for id in plan.live_ops() {
            assert!(parent_inversion(&plan, id).is_none());
            assert!(value_index_step(&plan, id).is_none());
        }
        let plan = cleaned("//name[text() != 'x']"); // != is not indexable
        for id in plan.live_ops() {
            assert!(value_index_step(&plan, id).is_none());
        }
    }

    #[test]
    fn predicate_reorder_puts_comparison_first() {
        let plan = cleaned("//person[watches and @id = 'p1']");
        let person = plan.context_path()[0];
        let Operator::Step { predicates, .. } = plan.op(person) else {
            panic!()
        };
        let and_op = predicates[0];
        let (rewritten, _) = predicate_reorder(&plan, and_op).expect("should swap");
        let Operator::Binary { left, .. } = rewritten.op(and_op) else {
            panic!()
        };
        assert!(matches!(rewritten.op(*left), Operator::Binary { .. }));
        // Already-ordered plans are left alone.
        assert!(predicate_reorder(&rewritten, and_op).is_none());
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::opt::cleanup::cleanup;
    use crate::plan::builder::build_plan;
    use vamana_xpath::parse;

    fn cleaned(q: &str) -> QueryPlan {
        let mut p = build_plan(&parse(q).unwrap()).unwrap();
        cleanup(&mut p);
        p
    }

    #[test]
    fn range_rewrite_fires_on_text_comparison() {
        let plan = cleaned("//price[text() > 450]");
        let price = plan.context_path()[0];
        let (rewritten, _) = range_index_step(&plan, price).expect("rule fires");
        let path = rewritten.context_path();
        assert_eq!(path.len(), 2);
        assert!(matches!(
            rewritten.op(path[1]),
            Operator::RangeStep {
                op: RangeCmp::Gt,
                text_only: true,
                ..
            }
        ));
        assert!(matches!(
            rewritten.op(path[0]),
            Operator::Step {
                axis: Axis::Parent,
                ..
            }
        ));
    }

    #[test]
    fn range_rewrite_flips_reversed_operands() {
        let plan = cleaned("//price[100 >= text()]");
        let price = plan.context_path()[0];
        let (rewritten, _) = range_index_step(&plan, price).expect("rule fires");
        let path = rewritten.context_path();
        // 100 >= text()  ⇔  text() <= 100
        assert!(matches!(
            rewritten.op(path[1]),
            Operator::RangeStep { op: RangeCmp::Le, bound, .. } if *bound == 100.0
        ));
    }

    #[test]
    fn range_rewrite_fires_on_attribute_comparison() {
        let plan = cleaned("//item[@quantity >= 3]");
        let item = plan.context_path()[0];
        let (rewritten, _) = range_index_step(&plan, item).expect("rule fires");
        let path = rewritten.context_path();
        assert!(matches!(
            rewritten.op(path[1]),
            Operator::RangeStep { op: RangeCmp::Ge, text_only: false, attr_name: Some(a), .. }
                if &**a == "quantity"
        ));
    }

    #[test]
    fn range_rewrite_skips_element_paths() {
        // [price > n] compares the element's string-value — not
        // rewritable per node.
        let plan = cleaned("//closed_auction[price > 450]");
        let ca = plan.context_path()[0];
        assert!(range_index_step(&plan, ca).is_none());
    }

    #[test]
    fn range_rewrite_skips_equality() {
        let plan = cleaned("//price[text() = 450]");
        let price = plan.context_path()[0];
        assert!(range_index_step(&plan, price).is_none());
    }
}
