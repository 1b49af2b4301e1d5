//! Compilation of the XPath AST into a default VAMANA query plan
//! (paper §IV-A / §V-A).
//!
//! Each location step becomes one [`Operator::Step`]; predicates become
//! predicate trees of `ξ`/`β`/`L` operators; the parse tree is built
//! bottom-up and every node maps to exactly one algebra operator.

use crate::error::{EngineError, Result};
use crate::plan::{ArithOp, BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use vamana_xpath::{ast, Expr, LocationPath, NodeTest};

/// Compiles a parsed XPath expression into its default query plan.
///
/// The expression must be a node-set expression (a path, filter, or
/// union); scalar top-level expressions like `1 + 1` are rejected here
/// and handled by the engine's `evaluate` entry point instead.
pub fn build_plan(expr: &Expr) -> Result<QueryPlan> {
    build_plan_with_source(expr, ContextSource::QueryRoot)
}

/// Like [`build_plan`], but relative paths anchor at an *outer* context
/// tuple supplied at execution time ([`crate::exec::run_plan`]) instead
/// of the query root — the entry point XQuery-style callers use to
/// evaluate `$x/rel/ative` paths against bound nodes. Absolute paths
/// still anchor at the document root.
pub fn build_relative_plan(expr: &Expr) -> Result<QueryPlan> {
    build_plan_with_source(expr, ContextSource::OuterTuple)
}

fn build_plan_with_source(expr: &Expr, leaf_source: ContextSource) -> Result<QueryPlan> {
    let mut plan = QueryPlan::new(Vec::new(), OpId(0));
    let root = plan.push(Operator::Root { child: None });
    let top = build_nodeset(&mut plan, expr, leaf_source)?;
    *plan.op_mut(root) = Operator::Root { child: Some(top) };
    plan.set_root(root);
    Ok(plan)
}

/// Builds a *scalar* expression (e.g. `count(//person)`, `1 + 2`) into an
/// existing plan arena, returning the expression root for evaluation with
/// [`crate::exec::eval_expr`]. Used by the engine's `evaluate` entry point.
pub fn build_scalar(plan: &mut QueryPlan, expr: &Expr) -> Result<OpId> {
    build_value_expr(plan, expr)
}

/// Builds a node-set-producing subplan, returning the id of its top
/// operator. `leaf_source` says where leaf steps take their context from.
fn build_nodeset(plan: &mut QueryPlan, expr: &Expr, leaf_source: ContextSource) -> Result<OpId> {
    match expr {
        Expr::Path(path) => build_path(plan, path, leaf_source),
        Expr::Union(l, r) => {
            let left = build_nodeset(plan, l, leaf_source)?;
            let right = build_nodeset(plan, r, leaf_source)?;
            Ok(plan.push(Operator::Union { left, right }))
        }
        Expr::Filter {
            primary,
            predicates,
            path,
        } => {
            // `(expr)[p]/rel`: evaluate primary as node-set, filter, then
            // continue with the relative path anchored at each survivor.
            let mut top = build_nodeset(plan, primary, leaf_source)?;
            if !predicates.is_empty() {
                // Positional semantics over the whole primary node-set.
                let preds = predicates
                    .iter()
                    .map(|p| build_predicate(plan, p))
                    .collect::<Result<Vec<_>>>()?;
                top = plan.push(Operator::Filter {
                    input: top,
                    predicates: preds,
                });
            }
            if let Some(rel) = path {
                top = append_path(plan, top, rel)?;
            }
            Ok(top)
        }
        other => Err(EngineError::Unsupported(format!(
            "expression does not produce a node-set: {other}"
        ))),
    }
}

/// Builds a location path as a chain of step operators; returns the top
/// (last step) id.
fn build_path(
    plan: &mut QueryPlan,
    path: &LocationPath,
    leaf_source: ContextSource,
) -> Result<OpId> {
    let source = if path.absolute {
        ContextSource::QueryRoot
    } else {
        leaf_source
    };
    let mut context: Option<OpId> = None;
    if path.steps.is_empty() {
        // Bare `/`: the document node itself.
        return Ok(plan.push(Operator::Step {
            axis: vamana_flex::Axis::SelfAxis,
            test: TestSpec::AnyNode,
            context: None,
            source: ContextSource::QueryRoot,
            predicates: Vec::new(),
        }));
    }
    for (i, step) in path.steps.iter().enumerate() {
        let preds = step
            .predicates
            .iter()
            .map(|p| build_predicate(plan, p))
            .collect::<Result<Vec<_>>>()?;
        let id = plan.push(Operator::Step {
            axis: step.axis,
            test: lower_test(&step.test),
            context,
            source: if i == 0 {
                source
            } else {
                ContextSource::QueryRoot
            },
            predicates: preds,
        });
        context = Some(id);
    }
    Ok(context.expect("at least one step"))
}

/// Appends a relative path on top of an existing node-set operator.
fn append_path(plan: &mut QueryPlan, base: OpId, path: &LocationPath) -> Result<OpId> {
    let mut context = Some(base);
    for step in &path.steps {
        let preds = step
            .predicates
            .iter()
            .map(|p| build_predicate(plan, p))
            .collect::<Result<Vec<_>>>()?;
        let id = plan.push(Operator::Step {
            axis: step.axis,
            test: lower_test(&step.test),
            context,
            source: ContextSource::QueryRoot,
            predicates: preds,
        });
        context = Some(id);
    }
    Ok(context.expect("base provided"))
}

fn lower_test(test: &NodeTest) -> TestSpec {
    match test {
        NodeTest::Name(n) => TestSpec::Named(n.clone()),
        NodeTest::Wildcard => TestSpec::Wildcard,
        // Namespace-wildcard matching degrades to a prefix comparison at
        // execution time; represent as a name with trailing `:*`.
        NodeTest::NsWildcard(p) => TestSpec::Named(format!("{p}:*").into()),
        NodeTest::Text => TestSpec::Text,
        NodeTest::Node => TestSpec::AnyNode,
        NodeTest::Comment => TestSpec::Comment,
        NodeTest::Pi(t) => TestSpec::Pi(t.clone()),
    }
}

/// Builds a predicate tree. A bare path becomes an exist predicate `ξ`;
/// comparisons become `β`; everything else becomes expression operators
/// evaluated per tuple.
fn build_predicate(plan: &mut QueryPlan, expr: &Expr) -> Result<OpId> {
    match expr {
        Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
            let path = build_nodeset(plan, expr, ContextSource::OuterTuple)?;
            Ok(plan.push(Operator::Exists { path }))
        }
        _ => build_value_expr(plan, expr),
    }
}

/// Builds a value expression (operand of comparisons, function args, ...).
fn build_value_expr(plan: &mut QueryPlan, expr: &Expr) -> Result<OpId> {
    match expr {
        Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
            build_nodeset(plan, expr, ContextSource::OuterTuple)
        }
        Expr::Literal(s) => Ok(plan.push(Operator::Literal { value: s.clone() })),
        Expr::Number(n) => Ok(plan.push(Operator::Number { value: *n })),
        Expr::Or(l, r) => {
            let left = build_predicate(plan, l)?;
            let right = build_predicate(plan, r)?;
            Ok(plan.push(Operator::Binary {
                op: BinOp::Or,
                left,
                right,
            }))
        }
        Expr::And(l, r) => {
            let left = build_predicate(plan, l)?;
            let right = build_predicate(plan, r)?;
            Ok(plan.push(Operator::Binary {
                op: BinOp::And,
                left,
                right,
            }))
        }
        Expr::Equality(op, l, r) => {
            let bin = match op {
                ast::EqOp::Eq => BinOp::Eq,
                ast::EqOp::Ne => BinOp::Ne,
            };
            let left = build_value_expr(plan, l)?;
            let right = build_value_expr(plan, r)?;
            Ok(plan.push(Operator::Binary {
                op: bin,
                left,
                right,
            }))
        }
        Expr::Relational(op, l, r) => {
            let bin = match op {
                ast::RelOp::Lt => BinOp::Lt,
                ast::RelOp::Le => BinOp::Le,
                ast::RelOp::Gt => BinOp::Gt,
                ast::RelOp::Ge => BinOp::Ge,
            };
            let left = build_value_expr(plan, l)?;
            let right = build_value_expr(plan, r)?;
            Ok(plan.push(Operator::Binary {
                op: bin,
                left,
                right,
            }))
        }
        Expr::Arithmetic(op, l, r) => {
            let a = match op {
                ast::ArithOp::Add => ArithOp::Add,
                ast::ArithOp::Sub => ArithOp::Sub,
                ast::ArithOp::Mul => ArithOp::Mul,
                ast::ArithOp::Div => ArithOp::Div,
                ast::ArithOp::Mod => ArithOp::Mod,
            };
            let left = build_value_expr(plan, l)?;
            let right = build_value_expr(plan, r)?;
            Ok(plan.push(Operator::Arith { op: a, left, right }))
        }
        Expr::Neg(inner) => {
            let child = build_value_expr(plan, inner)?;
            Ok(plan.push(Operator::Neg { child }))
        }
        Expr::FunctionCall(name, args) => {
            let arg_ids = args
                .iter()
                .map(|a| build_value_expr(plan, a))
                .collect::<Result<Vec<_>>>()?;
            Ok(plan.push(Operator::Function {
                name: name.clone(),
                args: arg_ids,
            }))
        }
        Expr::Var(v) => Err(EngineError::Unsupported(format!("unbound variable ${v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_flex::Axis;
    use vamana_xpath::parse;

    fn plan_for(q: &str) -> QueryPlan {
        build_plan(&parse(q).unwrap()).unwrap()
    }

    #[test]
    fn q1_default_plan_shape() {
        // Paper §III Q1.
        let plan = plan_for("descendant::name/parent::*/self::person/address");
        let path = plan.context_path();
        assert_eq!(path.len(), 4);
        // context_path is top-down: child::address first.
        match plan.op(path[0]) {
            Operator::Step {
                axis: Axis::Child,
                test: TestSpec::Named(n),
                ..
            } => {
                assert_eq!(&**n, "address")
            }
            other => panic!("wrong top: {other:?}"),
        }
        assert!(matches!(
            plan.op(path[3]),
            Operator::Step {
                axis: Axis::Descendant,
                ..
            }
        ));
    }

    #[test]
    fn q2_default_plan_has_binary_predicate() {
        let plan = plan_for("//name[text() = 'Yung Flach']/following-sibling::emailaddress");
        let path = plan.context_path();
        // following-sibling, name, descendant-or-self
        assert_eq!(path.len(), 3);
        let name_step = path[1];
        match plan.op(name_step) {
            Operator::Step { predicates, .. } => {
                assert_eq!(predicates.len(), 1);
                match plan.op(predicates[0]) {
                    Operator::Binary {
                        op: BinOp::Eq,
                        left,
                        right,
                    } => {
                        assert!(matches!(
                            plan.op(*left),
                            Operator::Step {
                                test: TestSpec::Text,
                                ..
                            }
                        ));
                        assert!(matches!(plan.op(*right), Operator::Literal { .. }));
                    }
                    other => panic!("wrong predicate: {other:?}"),
                }
            }
            other => panic!("wrong step: {other:?}"),
        }
    }

    #[test]
    fn bare_predicate_path_becomes_exists() {
        let plan = plan_for("//watches[watch]");
        let path = plan.context_path();
        match plan.op(path[0]) {
            Operator::Step { predicates, .. } => {
                assert!(matches!(plan.op(predicates[0]), Operator::Exists { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_leaf_steps_use_outer_tuple_context() {
        let plan = plan_for("//person[name]");
        let path = plan.context_path();
        let Operator::Step { predicates, .. } = plan.op(path[0]) else {
            panic!()
        };
        let Operator::Exists { path: p } = plan.op(predicates[0]) else {
            panic!()
        };
        let Operator::Step {
            source, context, ..
        } = plan.op(*p)
        else {
            panic!()
        };
        assert_eq!(*context, None);
        assert_eq!(*source, ContextSource::OuterTuple);
    }

    #[test]
    fn absolute_path_in_predicate_anchors_at_root() {
        let plan = plan_for("//person[/site/open]");
        let path = plan.context_path();
        let Operator::Step { predicates, .. } = plan.op(path[0]) else {
            panic!()
        };
        let Operator::Exists { path: p } = plan.op(predicates[0]) else {
            panic!()
        };
        // Walk to the leaf of the predicate path.
        let mut leaf = *p;
        while let Operator::Step {
            context: Some(c), ..
        } = plan.op(leaf)
        {
            leaf = *c;
        }
        let Operator::Step { source, .. } = plan.op(leaf) else {
            panic!()
        };
        assert_eq!(*source, ContextSource::QueryRoot);
    }

    #[test]
    fn union_builds_union_operator() {
        let plan = plan_for("//a | //b");
        let Operator::Root { child: Some(c) } = plan.op(plan.root()) else {
            panic!()
        };
        assert!(matches!(plan.op(*c), Operator::Union { .. }));
    }

    #[test]
    fn bare_root_is_self_step() {
        let plan = plan_for("/");
        let Operator::Root { child: Some(c) } = plan.op(plan.root()) else {
            panic!()
        };
        assert!(matches!(
            plan.op(*c),
            Operator::Step {
                axis: Axis::SelfAxis,
                test: TestSpec::AnyNode,
                ..
            }
        ));
    }

    #[test]
    fn position_predicate_is_number() {
        let plan = plan_for("//person[2]");
        let path = plan.context_path();
        let Operator::Step { predicates, .. } = plan.op(path[0]) else {
            panic!()
        };
        assert!(matches!(plan.op(predicates[0]), Operator::Number { value } if *value == 2.0));
    }

    #[test]
    fn function_calls_build() {
        let plan = plan_for("//person[count(watches/watch) > 1]");
        let path = plan.context_path();
        let Operator::Step { predicates, .. } = plan.op(path[0]) else {
            panic!()
        };
        let Operator::Binary {
            op: BinOp::Gt,
            left,
            ..
        } = plan.op(predicates[0])
        else {
            panic!()
        };
        assert!(matches!(plan.op(*left), Operator::Function { .. }));
    }

    #[test]
    fn variables_are_rejected() {
        let expr = parse("//a[$x]").unwrap();
        assert!(matches!(
            build_plan(&expr),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn filter_expression_with_trailing_path_builds() {
        let plan = plan_for("(//person)[1]/name");
        let path = plan.context_path();
        // name step on top of self-filter on top of person chain
        assert!(path.len() >= 2);
        assert!(
            matches!(plan.op(path[0]), Operator::Step { test: TestSpec::Named(n), .. } if &**n == "name")
        );
    }
}
