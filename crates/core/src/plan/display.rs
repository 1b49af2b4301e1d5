//! The one drawing of a query plan: an indented tree in the paper's
//! notation (Figs 4, 6, 7), each operator with the estimate card stamped
//! on it (`COUNT/TC/IN/OUT/δ`, Table I) and, for EXPLAIN ANALYZE, beside
//! what the run produced. Every EXPLAIN and ANALYZE tree is drawn here.

use crate::exec::stats::ExecStatsSnapshot;
use crate::explain::{fmt_err, qerror};
use crate::plan::{OpId, Operator, QueryPlan};
use std::fmt::Write as _;

/// Renders `plan` as an indented tree, each operator annotated with its
/// stamped [`crate::cost::EstimateCard`] (an unstamped plan has none).
/// Given a run's `actuals`, each card is followed by `est=… act=… (err
/// ×N.N)`.
pub fn render(plan: &QueryPlan, actuals: Option<&ExecStatsSnapshot>) -> String {
    let mut out = String::new();
    render_node(plan, plan.root(), actuals, 0, "", &mut out);
    out
}

pub(crate) fn op_symbol(plan: &QueryPlan, id: OpId) -> String {
    match plan.op(id) {
        Operator::Root { .. } => format!("R{}", id.0),
        Operator::Step { axis, test, .. } => format!("φ{} {}::{}", id.0, axis, test),
        Operator::ValueStep {
            value, attr_name, ..
        } => match attr_name {
            Some(a) => format!("φ{} value::'{}'(@{})", id.0, value, a),
            None => format!("φ{} value::'{}'", id.0, value),
        },
        Operator::Literal { value } => format!("L{} '{}'", id.0, value),
        Operator::Number { value } => format!("N{} {}", id.0, value),
        Operator::Exists { .. } => format!("ξ{}", id.0),
        Operator::Binary { op, .. } => format!("β{} {}", id.0, op.label()),
        Operator::Function { name, .. } => format!("f{} {}()", id.0, name),
        Operator::Arith { op, .. } => format!("α{} {:?}", id.0, op),
        Operator::Neg { .. } => format!("α{} NEG", id.0),
        Operator::Union { .. } => format!("∪{}", id.0),
        Operator::Filter { .. } => format!("σ{}", id.0),
        Operator::RangeStep {
            op,
            bound,
            attr_name,
            ..
        } => {
            let sym = match op {
                crate::plan::RangeCmp::Lt => "<",
                crate::plan::RangeCmp::Le => "<=",
                crate::plan::RangeCmp::Gt => ">",
                crate::plan::RangeCmp::Ge => ">=",
            };
            match attr_name {
                Some(a) => format!("φ{} range::({sym} {bound})(@{a})", id.0),
                None => format!("φ{} range::({sym} {bound})", id.0),
            }
        }
        Operator::Join { op, .. } => format!("J{} {}", id.0, op.label()),
    }
}

/// What the root line says of the order of the plan's node-set output
/// ([`QueryPlan::emits_in_order`]); nothing for a value.
fn order_note(plan: &QueryPlan) -> &'static str {
    match plan.top() {
        Some(top) if !plan.op(top).yields_nodes() => "",
        Some(top) if !plan.emits_in_order(top) => "  order: sorted at root",
        _ => "  order: by construction",
    }
}

fn annotate(plan: &QueryPlan, id: OpId, actuals: Option<&ExecStatsSnapshot>, out: &mut String) {
    let card = plan.estimate(id);
    if let Some(c) = card {
        out.push_str("  [");
        if let Some(count) = c.count {
            let _ = write!(out, "COUNT={count} ");
        }
        if let Some(tc) = c.tc {
            let _ = write!(out, "TC={tc} ");
        }
        let _ = write!(
            out,
            "IN={} OUT={} δ={:.3}]",
            c.input,
            c.output,
            c.selectivity()
        );
        if actuals.is_some() {
            let _ = write!(out, " est={}", c.output);
        }
    }
    if let Some(act) = actuals.and_then(|a| a.op(id)).map(|a| a.rows) {
        let _ = write!(out, " act={act}");
        if let Some(c) = card {
            let _ = write!(out, " ({})", fmt_err(qerror(c.output, act)));
        }
    }
}

fn render_node(
    plan: &QueryPlan,
    id: OpId,
    actuals: Option<&ExecStatsSnapshot>,
    depth: usize,
    edge: &str,
    out: &mut String,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if !edge.is_empty() {
        out.push_str(edge);
        out.push(' ');
    }
    out.push_str(&op_symbol(plan, id));
    annotate(plan, id, actuals, out);
    if id == plan.root() {
        out.push_str(order_note(plan));
    }
    out.push('\n');
    match plan.op(id) {
        Operator::Step {
            context,
            predicates,
            ..
        } => {
            for p in predicates {
                render_node(plan, *p, actuals, depth + 1, "⟨pred⟩", out);
            }
            if let Some(c) = context {
                render_node(plan, *c, actuals, depth + 1, "└─", out);
            }
        }
        _ => {
            for c in plan.children_of(id) {
                render_node(plan, c, actuals, depth + 1, "└─", out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::builder::build_plan;
    use vamana_xpath::parse;

    #[test]
    fn renders_paper_notation() {
        let plan = build_plan(
            &parse("//name[text()='Yung Flach']/following-sibling::emailaddress").unwrap(),
        )
        .unwrap();
        let s = render(&plan, None);
        assert!(s.contains("R0"), "{s}");
        assert!(s.contains("φ"), "{s}");
        assert!(s.contains("β"), "{s}");
        assert!(s.contains("L"), "{s}");
        assert!(s.contains("following-sibling::emailaddress"), "{s}");
        assert!(s.contains("⟨pred⟩"), "{s}");
    }

    #[test]
    fn renders_exists_predicates() {
        let plan = build_plan(&parse("//watches[watch]").unwrap()).unwrap();
        let s = render(&plan, None);
        assert!(s.contains("ξ"), "{s}");
    }
}
