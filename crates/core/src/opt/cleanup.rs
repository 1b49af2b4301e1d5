//! Query clean-up (paper §VI-A).
//!
//! Two always-safe canonicalizations run before every costing pass:
//!
//! 1. **Self merge** (Fig 5): a `self::T` step collapses into its context
//!    child when the node tests are compatible —
//!    `parent::*/self::person` ⇒ `parent::person`.
//! 2. **`//` collapse**: the expansion `descendant-or-self::node()/
//!    child::T` produced by abbreviated syntax becomes `descendant::T`,
//!    giving the rewrite rules a single step to match on.

use crate::plan::{OpId, Operator, QueryPlan, TestSpec};
use vamana_flex::Axis;

/// Runs clean-up to a fixpoint; returns how many merges were applied.
pub fn cleanup(plan: &mut QueryPlan) -> usize {
    let mut total = 0;
    loop {
        let n = merge_self_steps(plan) + collapse_double_slash(plan);
        if n == 0 {
            return total;
        }
        total += n;
    }
}

/// True when the predicate tree at `id` cannot observe the dynamic
/// context position: no bare numbers, no `position()`/`last()` calls.
/// Transformations that change an operator's candidate *group* (merging,
/// axis collapse, push-down) are only sound for position-free predicates.
pub(crate) fn position_free(plan: &QueryPlan, id: OpId) -> bool {
    // A *bare* number predicate is positional (`[2]` ⇔ `[position()=2]`);
    // numbers nested inside comparisons are just numbers.
    if matches!(plan.op(id), Operator::Number { .. }) {
        return false;
    }
    position_free_inner(plan, id)
}

fn position_free_inner(plan: &QueryPlan, id: OpId) -> bool {
    match plan.op(id) {
        Operator::Function { name, .. } => {
            !matches!(&**name, "position" | "last")
                && plan
                    .children_of(id)
                    .iter()
                    .all(|c| position_free_inner(plan, *c))
        }
        // A nested path restarts the position context: predicates inside
        // it apply to its own groups, which the rewrite does not touch.
        Operator::Step { .. }
        | Operator::ValueStep { .. }
        | Operator::RangeStep { .. }
        | Operator::Exists { .. } => true,
        _ => plan
            .children_of(id)
            .iter()
            .all(|c| position_free_inner(plan, *c)),
    }
}

/// All of `preds` are position-free.
pub(crate) fn all_position_free(plan: &QueryPlan, preds: &[OpId]) -> bool {
    preds.iter().all(|p| position_free(plan, *p))
}

/// Can `outer` (the `self` step's test) refine `inner`?
/// Returns the merged test when the merge is safe.
fn merge_tests(outer: &TestSpec, inner: &TestSpec) -> Option<TestSpec> {
    match (outer, inner) {
        (TestSpec::AnyNode, t) => Some(t.clone()),
        (t, TestSpec::AnyNode) => Some(t.clone()),
        (TestSpec::Wildcard, TestSpec::Wildcard) => Some(TestSpec::Wildcard),
        (TestSpec::Named(n), TestSpec::Wildcard) | (TestSpec::Wildcard, TestSpec::Named(n)) => {
            Some(TestSpec::Named(n.clone()))
        }
        (TestSpec::Named(a), TestSpec::Named(b)) if a == b => Some(TestSpec::Named(a.clone())),
        (TestSpec::Text, TestSpec::Text) => Some(TestSpec::Text),
        (TestSpec::Comment, TestSpec::Comment) => Some(TestSpec::Comment),
        _ => None,
    }
}

/// Replaces every edge pointing at `old` with `new`.
pub(crate) fn replace_edges(plan: &mut QueryPlan, old: OpId, new: OpId) {
    for id in plan.live_ops() {
        if id == old {
            continue;
        }
        match plan.op_mut(id) {
            Operator::Root { child } => {
                if *child == Some(old) {
                    *child = Some(new);
                }
            }
            Operator::Step {
                context,
                predicates,
                ..
            } => {
                if *context == Some(old) {
                    *context = Some(new);
                }
                for p in predicates {
                    if *p == old {
                        *p = new;
                    }
                }
            }
            Operator::ValueStep { context, .. } | Operator::RangeStep { context, .. } => {
                if *context == Some(old) {
                    *context = Some(new);
                }
            }
            Operator::Exists { path } => {
                if *path == old {
                    *path = new;
                }
            }
            Operator::Binary { left, right, .. }
            | Operator::Arith { left, right, .. }
            | Operator::Union { left, right }
            | Operator::Join { left, right, .. } => {
                if *left == old {
                    *left = new;
                }
                if *right == old {
                    *right = new;
                }
            }
            Operator::Function { args, .. } => {
                for a in args {
                    if *a == old {
                        *a = new;
                    }
                }
            }
            Operator::Neg { child } => {
                if *child == old {
                    *child = new;
                }
            }
            Operator::Filter { input, predicates } => {
                if *input == old {
                    *input = new;
                }
                for p in predicates {
                    if *p == old {
                        *p = new;
                    }
                }
            }
            Operator::Literal { .. } | Operator::Number { .. } => {}
        }
    }
    if plan.root() == old {
        plan.set_root(new);
    }
}

fn merge_self_steps(plan: &mut QueryPlan) -> usize {
    let mut merged = 0;
    for id in plan.live_ops() {
        let Operator::Step {
            axis: Axis::SelfAxis,
            test,
            context: Some(ctx_id),
            predicates,
            ..
        } = plan.op(id).clone()
        else {
            continue;
        };
        let Operator::Step {
            axis: inner_axis,
            test: inner_test,
            context: inner_ctx,
            source: inner_source,
            predicates: inner_preds,
        } = plan.op(ctx_id).clone()
        else {
            continue;
        };
        let Some(new_test) = merge_tests(&test, &inner_test) else {
            continue;
        };
        // Merging narrows the inner step's candidate group (when the test
        // tightens) and re-groups the self step's predicates, so
        // positional predicates must not be involved (`descendant::*[1]/
        // self::c` is NOT `descendant::c[1]`).
        if !all_position_free(plan, &predicates) {
            continue;
        }
        if new_test != inner_test && !all_position_free(plan, &inner_preds) {
            continue;
        }
        // The merged step keeps the inner step's axis/context and gains
        // the self step's predicates (they filter after the inner ones).
        let mut preds = inner_preds;
        preds.extend(predicates);
        *plan.op_mut(ctx_id) = Operator::Step {
            axis: inner_axis,
            test: new_test,
            context: inner_ctx,
            source: inner_source,
            predicates: preds,
        };
        replace_edges(plan, id, ctx_id);
        merged += 1;
    }
    merged
}

fn collapse_double_slash(plan: &mut QueryPlan) -> usize {
    let mut collapsed = 0;
    for id in plan.live_ops() {
        // Outer: child::T (no restriction on predicates).
        let Operator::Step {
            axis: Axis::Child,
            test,
            context: Some(ctx_id),
            predicates,
            ..
        } = plan.op(id).clone()
        else {
            continue;
        };
        // Inner: descendant-or-self::node() with no predicates.
        let Operator::Step {
            axis: Axis::DescendantOrSelf,
            test: TestSpec::AnyNode,
            context: inner_ctx,
            source: inner_source,
            predicates: inner_preds,
        } = plan.op(ctx_id).clone()
        else {
            continue;
        };
        if !inner_preds.is_empty() {
            continue;
        }
        // `//a[1]` means "every a that is the first a-child of its
        // parent", which `descendant::a[1]` does not — positional
        // predicates block the collapse.
        if !all_position_free(plan, &predicates) {
            continue;
        }
        *plan.op_mut(id) = Operator::Step {
            axis: Axis::Descendant,
            test,
            context: inner_ctx,
            source: inner_source,
            predicates,
        };
        collapsed += 1;
    }
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::builder::build_plan;
    use vamana_xpath::parse;

    fn plan_for(q: &str) -> QueryPlan {
        build_plan(&parse(q).unwrap()).unwrap()
    }

    #[test]
    fn fig5_self_merge() {
        // descendant::name/parent::*/self::person/address
        // ⇒ descendant::name/parent::person/address (3 steps).
        let mut plan = plan_for("descendant::name/parent::*/self::person/address");
        let n = cleanup(&mut plan);
        assert!(n >= 1);
        let path = plan.context_path();
        assert_eq!(path.len(), 3);
        match plan.op(path[1]) {
            Operator::Step {
                axis: Axis::Parent,
                test: TestSpec::Named(n),
                ..
            } => {
                assert_eq!(&**n, "person")
            }
            other => panic!("merge failed: {other:?}"),
        }
    }

    #[test]
    fn double_slash_collapses_to_descendant() {
        let mut plan = plan_for("//person/address");
        cleanup(&mut plan);
        let path = plan.context_path();
        assert_eq!(path.len(), 2);
        assert!(matches!(
            plan.op(path[1]),
            Operator::Step {
                axis: Axis::Descendant,
                test: TestSpec::Named(_),
                ..
            }
        ));
    }

    #[test]
    fn nested_double_slash_collapses_in_predicates() {
        let mut plan = plan_for("//person[.//name]");
        cleanup(&mut plan);
        // All descendant-or-self::node() helper steps with child consumers
        // are gone (the leading `.//` inside the predicate keeps a self
        // step only if tests are incompatible).
        let live = plan.live_ops();
        let leftovers = live
            .iter()
            .filter(|id| {
                matches!(
                    plan.op(**id),
                    Operator::Step {
                        axis: Axis::DescendantOrSelf,
                        test: TestSpec::AnyNode,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn self_with_incompatible_test_is_kept() {
        let mut plan = plan_for("descendant::name/self::person");
        cleanup(&mut plan);
        // name vs person cannot merge.
        assert_eq!(plan.context_path().len(), 2);
    }

    #[test]
    fn self_predicates_move_to_merged_step() {
        let mut plan = plan_for("descendant::*/self::person[name]");
        cleanup(&mut plan);
        let path = plan.context_path();
        assert_eq!(path.len(), 1);
        let Operator::Step {
            predicates, test, ..
        } = plan.op(path[0])
        else {
            panic!()
        };
        assert_eq!(predicates.len(), 1);
        assert_eq!(*test, TestSpec::Named("person".into()));
    }

    #[test]
    fn cleanup_is_idempotent() {
        let mut plan = plan_for("//person/address");
        cleanup(&mut plan);
        let snapshot = plan.clone();
        assert_eq!(cleanup(&mut plan), 0);
        assert_eq!(plan, snapshot);
    }
}
