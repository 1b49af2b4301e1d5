//! Compilation of the XPath AST into a default VAMANA query plan
//! (paper §IV-A / §V-A).
//!
//! Each location step becomes one [`Operator::Step`]; predicates become
//! predicate trees of `ξ`/`β`/`L` operators; the parse tree is built
//! bottom-up and every node maps to exactly one algebra operator. Any
//! expression compiles: a node-set expression is the root's context path,
//! and any other is the root's value expression, evaluated once at the
//! query root (`count(//person)`, `1 + 2`).

use crate::error::{EngineError, Result};
use crate::plan::{ArithOp, BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use vamana_flex::Axis;
use vamana_xpath::{ast, Expr, LocationPath, NodeTest, Step};

/// Compiles a parsed XPath expression into its default query plan:
/// `Root { child }`, the child being the top of the context path of a
/// node-set expression, or the value expression of any other, whose path
/// leaves anchor at the query root as a node-set's do.
pub fn build_plan(expr: &Expr) -> Result<QueryPlan> {
    build_plan_with_source(expr, ContextSource::QueryRoot)
}

/// Like [`build_plan`], but relative paths anchor at an *outer* context
/// tuple supplied at execution time ([`crate::Engine::query_from`]) instead
/// of the query root — the entry point XQuery-style callers use to
/// evaluate `$x/rel/ative` paths against bound nodes. Absolute paths
/// still anchor at the document root.
pub fn build_relative_plan(expr: &Expr) -> Result<QueryPlan> {
    build_plan_with_source(expr, ContextSource::OuterTuple)
}

fn build_plan_with_source(expr: &Expr, leaf_source: ContextSource) -> Result<QueryPlan> {
    let mut plan = QueryPlan::new(Vec::new(), OpId(0));
    let root = plan.push(Operator::Root { child: None });
    let top = build_value_expr(&mut plan, expr, leaf_source)?;
    *plan.op_mut(root) = Operator::Root { child: Some(top) };
    plan.set_root(root);
    Ok(plan)
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
                    .map(|p| build_predicate(plan, p, ContextSource::OuterTuple))
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
    if path.steps.is_empty() {
        // Bare `/`: the document node itself.
        return Ok(plan.push(Operator::Step {
            axis: Axis::SelfAxis,
            test: TestSpec::AnyNode,
            context: None,
            source: ContextSource::QueryRoot,
            predicates: Vec::new(),
        }));
    }
    let source = match path.absolute {
        true => ContextSource::QueryRoot,
        false => leaf_source,
    };
    // A `.` before more steps is their context itself: `.//x` starts at
    // the tuple as `//x` starts at the root.
    let dot = &path.steps[0];
    let skip = path.steps.len() > 1
        && (dot.axis, &dot.test) == (Axis::SelfAxis, &NodeTest::Node)
        && dot.predicates.is_empty();
    push_steps(plan, &path.steps[usize::from(skip)..], None, source)
}

/// Appends a relative path on top of an existing node-set operator.
fn append_path(plan: &mut QueryPlan, base: OpId, path: &LocationPath) -> Result<OpId> {
    push_steps(plan, &path.steps, Some(base), ContextSource::QueryRoot)
}

/// Pushes `steps` as a chain of step operators on `context` — or, for
/// none, on a leaf taking its context from `source` — and returns the top.
fn push_steps(
    plan: &mut QueryPlan,
    steps: &[Step],
    mut context: Option<OpId>,
    source: ContextSource,
) -> Result<OpId> {
    for step in steps {
        let predicates = step
            .predicates
            .iter()
            .map(|p| build_predicate(plan, p, ContextSource::OuterTuple))
            .collect::<Result<Vec<_>>>()?;
        let id = plan.push(Operator::Step {
            axis: step.axis,
            test: lower_test(&step.test),
            source: match context {
                None => source,
                Some(_) => ContextSource::QueryRoot,
            },
            context,
            predicates,
        });
        context = Some(id);
    }
    Ok(context.expect("at least one step"))
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
/// evaluated per tuple. `leaf_source` says where its paths' leaf steps
/// take their context from.
fn build_predicate(plan: &mut QueryPlan, expr: &Expr, leaf_source: ContextSource) -> Result<OpId> {
    match expr {
        Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
            let path = build_nodeset(plan, expr, leaf_source)?;
            Ok(plan.push(Operator::Exists { path }))
        }
        _ => build_value_expr(plan, expr, leaf_source),
    }
}

/// Builds a value expression (operand of comparisons, function args, ...).
fn build_value_expr(plan: &mut QueryPlan, expr: &Expr, leaf_source: ContextSource) -> Result<OpId> {
    let op = match expr {
        Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
            return build_nodeset(plan, expr, leaf_source)
        }
        Expr::Literal(s) => Operator::Literal { value: s.clone() },
        Expr::Number(n) => Operator::Number { value: *n },
        Expr::Or(l, r) | Expr::And(l, r) => Operator::Binary {
            op: match expr {
                Expr::Or(..) => BinOp::Or,
                _ => BinOp::And,
            },
            left: build_predicate(plan, l, leaf_source)?,
            right: build_predicate(plan, r, leaf_source)?,
        },
        Expr::Equality(op, l, r) => Operator::Binary {
            op: match op {
                ast::EqOp::Eq => BinOp::Eq,
                ast::EqOp::Ne => BinOp::Ne,
            },
            left: build_value_expr(plan, l, leaf_source)?,
            right: build_value_expr(plan, r, leaf_source)?,
        },
        Expr::Relational(op, l, r) => Operator::Binary {
            op: match op {
                ast::RelOp::Lt => BinOp::Lt,
                ast::RelOp::Le => BinOp::Le,
                ast::RelOp::Gt => BinOp::Gt,
                ast::RelOp::Ge => BinOp::Ge,
            },
            left: build_value_expr(plan, l, leaf_source)?,
            right: build_value_expr(plan, r, leaf_source)?,
        },
        Expr::Arithmetic(op, l, r) => Operator::Arith {
            op: match op {
                ast::ArithOp::Add => ArithOp::Add,
                ast::ArithOp::Sub => ArithOp::Sub,
                ast::ArithOp::Mul => ArithOp::Mul,
                ast::ArithOp::Div => ArithOp::Div,
                ast::ArithOp::Mod => ArithOp::Mod,
            },
            left: build_value_expr(plan, l, leaf_source)?,
            right: build_value_expr(plan, r, leaf_source)?,
        },
        Expr::Neg(inner) => Operator::Neg {
            child: build_value_expr(plan, inner, leaf_source)?,
        },
        Expr::FunctionCall(name, args) => {
            // `boolean(P)` and `not(P)` ask only whether P has a node: their
            // argument is an exist predicate, pulled no further than a row.
            let exists = matches!(&**name, "boolean" | "not");
            let args = args
                .iter()
                .map(|a| match exists {
                    true => build_predicate(plan, a, leaf_source),
                    false => build_value_expr(plan, a, leaf_source),
                })
                .collect::<Result<Vec<_>>>()?;
            Operator::Function {
                name: name.clone(),
                args,
            }
        }
        Expr::Var(v) => return Err(EngineError::Unsupported(format!("unbound variable ${v}"))),
    };
    Ok(plan.push(op))
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
