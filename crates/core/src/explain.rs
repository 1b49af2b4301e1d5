//! The plan reports, rendered here once for every surface (the server's
//! `EXPLAIN` and `ANALYZE` and their `JSON` forms, the shell, the
//! figures): [`Explain`], a query's default and optimized plans with their
//! estimate cards and the optimizer's pass log, and [`Analysis`], one
//! instrumented run with estimated-vs-actual cardinalities and a
//! misestimation summary. Both draw their trees with
//! [`crate::plan::display::render`].
//!
//! The central figure of merit is the **q-error** of an operator:
//!
//! ```text
//! q-error(est, act) = max(est, act) / min(est, act)
//! ```
//!
//! A q-error of 1.0 means the cost model predicted the operator's output
//! cardinality exactly; ×N means it was off by a factor of N in either
//! direction (the ratio is symmetric, which is why it is preferred over
//! signed relative error in the cardinality-estimation literature). Both
//! sides zero is a perfect prediction (1.0); exactly one side zero is an
//! unbounded miss (∞).
//!
//! [`Analysis::render`] is deliberately **run stable**: it prints only
//! quantities that are identical from run to run and between a serial
//! and a fanned-out scan (estimates, actual rows, q-errors) — never pull
//! counts or timings. The golden-file tests pin this down. Timings and
//! buffer traffic appear in [`Analysis::render_report`],
//! [`Analysis::render_json`] and the [`QueryProfile`].

use crate::exec::stats::ExecStatsSnapshot;
use crate::opt::{OptEvent, OptTrace};
use crate::plan::{display, OpId, QueryPlan};
use std::fmt::Write as _;
use std::time::Duration;

/// The symmetric cardinality-estimation error `max/min`, with the usual
/// conventions: both zero → `1.0`, exactly one zero → `∞`.
///
/// ```
/// assert_eq!(vamana_core::explain::qerror(10, 10), 1.0);
/// assert_eq!(vamana_core::explain::qerror(5, 50), 10.0);
/// assert_eq!(vamana_core::explain::qerror(0, 0), 1.0);
/// assert!(vamana_core::explain::qerror(0, 3).is_infinite());
/// ```
pub fn qerror(est: u64, act: u64) -> f64 {
    match (est, act) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => f64::INFINITY,
        (e, a) => {
            let (hi, lo) = if e > a { (e, a) } else { (a, e) };
            hi as f64 / lo as f64
        }
    }
}

pub(crate) fn fmt_err(q: f64) -> String {
    if q.is_infinite() {
        "err ×∞".to_string()
    } else {
        format!("err ×{q:.1}")
    }
}

/// `EXPLAIN`: a query's default plan (cleaned up) and its optimized plan,
/// each drawn with its estimate cards, and the optimizer's pass log — the
/// paper's Figs 6–9 as text.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query text.
    pub xpath: String,
    /// The default plan, drawn with its estimate cards.
    pub default_plan: String,
    /// The optimized plan, drawn with its estimate cards.
    pub optimized_plan: String,
    /// Σ tuple volume of the default plan.
    pub default_cost: u64,
    /// Σ tuple volume of the optimized plan.
    pub optimized_cost: u64,
    /// Applied rule names, in order.
    pub applied: Vec<&'static str>,
    /// Optimizer iterations.
    pub iterations: usize,
    /// The optimizer's ordered pass log: clean-up / cost-gathering /
    /// every rule decision with before/after costs.
    pub opt_trace: OptTrace,
}

impl Explain {
    /// The `EXPLAIN` report: both plans under their headers, then the pass
    /// log.
    pub fn render(&self) -> String {
        format!(
            "default plan (Σ tuple volume {}):\n{}\
             optimized plan (Σ tuple volume {}; rules {:?}; {} iteration(s)):\n{}\
             optimizer trace:\n{}",
            self.default_cost,
            self.default_plan,
            self.optimized_cost,
            self.applied,
            self.iterations,
            self.optimized_plan,
            self.opt_trace.render()
        )
    }

    /// The `EXPLAIN JSON` report: one object holding the plans as
    /// [`Explain::render`] draws them and the pass log, a string per line.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"xpath\":\"{}\",", escape_json(&self.xpath));
        let _ = write!(s, "\"default_cost\":{},", self.default_cost);
        let _ = write!(s, "\"optimized_cost\":{},", self.optimized_cost);
        let _ = write!(s, "\"iterations\":{},\"applied\":", self.iterations);
        json_strings(&mut s, self.applied.iter().copied());
        let _ = write!(
            s,
            ",\"default_plan\":\"{}\",\"optimized_plan\":\"{}\",\"trace\":",
            escape_json(&self.default_plan),
            escape_json(&self.optimized_plan)
        );
        json_strings(&mut s, self.opt_trace.render().lines());
        s.push('}');
        s
    }
}

/// What an `EXPLAIN ANALYZE` run cost as a whole: wall-clock time plus
/// the buffer-pool and scan-pool traffic observed while it ran.
///
/// The counters are *deltas of pool-wide totals* taken before and after
/// the run. Alone on the engine they are exact; beside other queries they
/// include those queries' overlapping traffic, so read them as "pool
/// activity during this run", not a precise per-query charge.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Wall-clock time: compile, optimize and execute.
    pub elapsed: Duration,
    /// Buffer-pool page hits.
    pub buffer_hits: u64,
    /// Buffer-pool page misses (store reads).
    pub buffer_misses: u64,
    /// Pages pinned once by batched scans.
    pub batch_pins: u64,
    /// Per-record pool entries batched scans avoided.
    pub pins_saved: u64,
    /// Morsels dispatched to the scan pool (zero when the run was
    /// serial).
    pub morsels: u64,
    /// Batches produced by scan-pool workers.
    pub worker_batches: u64,
    /// Times the ordered-merge consumer had to wait for the in-order
    /// morsel to produce a batch.
    pub merge_stalls: u64,
    /// Uncompressed (v1) page decodes — data-page reads that missed the
    /// buffer pool.
    pub decodes_v1: u64,
    /// Front-coded (v2) page decodes. Together with `decodes_v1` this is
    /// the storage tier's share of the misses.
    pub decodes_v2: u64,
}

/// One row of the misestimation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Misestimate {
    /// The operator, in the executed plan's arena.
    pub op: OpId,
    /// Estimated output cardinality (`OUT`).
    pub est: u64,
    /// Actual rows produced.
    pub act: u64,
    /// q-error of the pair.
    pub qerror: f64,
}

/// The result of `EXPLAIN ANALYZE`: the executed plan with estimate
/// cards, the per-operator actuals of the run, the optimizer's pass log,
/// and the run profile.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The query text.
    pub xpath: String,
    /// The plan that was executed (optimized when the engine's optimizer
    /// is on), carrying its [`crate::cost::EstimateCard`]s.
    pub plan: QueryPlan,
    /// Whether the optimizer produced this plan.
    pub optimized: bool,
    /// Σ tuple volume of the default (cleaned-up) plan.
    pub default_cost: u64,
    /// Σ tuple volume of the executed plan.
    pub final_cost: u64,
    /// Applied rule names, in order.
    pub applied: Vec<&'static str>,
    /// The optimizer's ordered pass log.
    pub opt_trace: OptTrace,
    /// Per-operator actuals recorded during execution.
    pub actuals: ExecStatsSnapshot,
    /// Result cardinality (after set-semantics dedup).
    pub rows: u64,
    /// Wall-time, buffer and scan-pool profile of the run.
    pub profile: QueryProfile,
}

impl Analysis {
    /// Misestimated operators, worst q-error first. Only operators with
    /// both an estimate and recorded actuals participate; pairs within
    /// `threshold` (e.g. `1.05` = 5 %) are not reported.
    pub fn misestimates(&self, threshold: f64) -> Vec<Misestimate> {
        let mut out: Vec<Misestimate> = self
            .plan
            .live_ops()
            .into_iter()
            .filter_map(|op| {
                let est = self.plan.estimate(op)?.output;
                let act = self.actuals.op(op)?.rows;
                let q = qerror(est, act);
                (q > threshold).then_some(Misestimate {
                    op,
                    est,
                    act,
                    qerror: q,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            b.qerror
                .partial_cmp(&a.qerror)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.op.0.cmp(&b.op.0))
        });
        out
    }

    /// Renders the annotated tree plus the misestimation summary. Run
    /// stable: identical output whether or not the scan fanned out (see
    /// the module docs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} plan (Σ tuple volume {}, {} rule{} applied), {} row{}:",
            if self.optimized {
                "optimized"
            } else {
                "default"
            },
            self.final_cost,
            self.applied.len(),
            if self.applied.len() == 1 { "" } else { "s" },
            self.rows,
            if self.rows == 1 { "" } else { "s" },
        );
        out.push_str(&display::render(&self.plan, Some(&self.actuals)));
        let worst = self.misestimates(1.05);
        if worst.is_empty() {
            out.push_str("misestimations: none above ×1.05\n");
        } else {
            out.push_str("misestimations (worst first):\n");
            for m in worst.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  {}: est={} act={} ({})",
                    display::op_symbol(&self.plan, m.op),
                    m.est,
                    m.act,
                    fmt_err(m.qerror)
                );
            }
        }
        out
    }

    /// The `ANALYZE` report: [`Analysis::render`], the optimizer's pass log
    /// (the run's parallel and order lines included) and the run's profile.
    pub fn render_report(&self) -> String {
        let p = &self.profile;
        format!(
            "{}optimizer trace:\n{}\
             profile: {:.2?}, {} hit(s) / {} miss(es), {} batch pin(s), {} morsel(s)",
            self.render(),
            self.opt_trace.render(),
            p.elapsed,
            p.buffer_hits,
            p.buffer_misses,
            p.batch_pins,
            p.morsels
        )
    }

    /// The `ANALYZE JSON` report: the full analysis as a single JSON
    /// object. This form *does* include the run-dependent counters (pulls,
    /// timings, probes/pins) alongside the stable ones.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"xpath\":\"{}\",", escape_json(&self.xpath));
        let _ = write!(s, "\"optimized\":{},", self.optimized);
        let _ = write!(s, "\"rows\":{},", self.rows);
        let _ = write!(s, "\"default_cost\":{},", self.default_cost);
        let _ = write!(s, "\"final_cost\":{},", self.final_cost);
        let _ = write!(s, "\"elapsed_us\":{},", self.profile.elapsed.as_micros());
        s.push_str("\"applied\":");
        json_strings(&mut s, self.applied.iter().copied());
        s.push_str(",\"operators\":[");
        for (i, op) in self.plan.live_ops().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"symbol\":\"{}\"",
                op.0,
                escape_json(&display::op_symbol(&self.plan, op))
            );
            if let Some(card) = self.plan.estimate(op) {
                let _ = write!(
                    s,
                    ",\"est\":{{\"in\":{},\"out\":{},\"selectivity\":{:.6},\"cost\":{},\
                     \"pages\":{}",
                    card.input,
                    card.output,
                    card.selectivity(),
                    card.cost(),
                    card.pages as u64
                );
                if let Some(count) = card.count {
                    let _ = write!(s, ",\"count\":{count}");
                }
                if let Some(tc) = card.tc {
                    let _ = write!(s, ",\"tc\":{tc}");
                }
                s.push('}');
            }
            if let Some(act) = self.actuals.op(op) {
                let _ = write!(
                    s,
                    ",\"act\":{{\"rows\":{},\"invocations\":{},\
                     \"nanos\":{},\"probes\":{},\"pins\":{}}}",
                    act.rows, act.invocations, act.nanos, act.probes, act.pins
                );
                if let Some(card) = self.plan.estimate(op) {
                    let q = qerror(card.output, act.rows);
                    if q.is_finite() {
                        let _ = write!(s, ",\"qerror\":{q:.3}");
                    } else {
                        s.push_str(",\"qerror\":null");
                    }
                }
            }
            s.push('}');
        }
        s.push_str("],\"trace\":[");
        for (i, event) in self.opt_trace.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match event {
                OptEvent::Cleanup => s.push_str("{\"event\":\"clean-up\"}"),
                OptEvent::CostGathering { total } => {
                    let _ = write!(s, "{{\"event\":\"cost-gathering\",\"total\":{total}}}");
                }
                OptEvent::Rule(d) => {
                    let _ = write!(
                        s,
                        "{{\"event\":\"rule\",\"rule\":\"{}\",\"iteration\":{},\"target\":{},\
                         \"local_before\":{},\"local_after\":{},\"total_before\":{},\
                         \"total_after\":{},\"applied\":{}}}",
                        escape_json(d.rule),
                        d.iteration,
                        d.target.0,
                        json_number(d.local_before),
                        json_number(d.local_after),
                        d.total_before,
                        d.total_after,
                        d.applied
                    );
                }
                OptEvent::Parallel { estimated, reason } => {
                    let _ = write!(
                        s,
                        "{{\"event\":\"parallel\",\"estimated\":{},\"eligible\":{},\
                         \"reason\":\"{}\"}}",
                        json_number(*estimated),
                        estimated.is_some(),
                        escape_json(reason)
                    );
                }
                OptEvent::ParallelRun(v) => {
                    let _ = write!(
                        s,
                        "{{\"event\":\"parallel-run\",\"contexts\":{},\"pages\":{},\
                         \"serial_cost\":{},\"break_even\":{},\"degree\":{},\
                         \"morsels\":{},\"fanned_out\":{},\"reason\":\"{}\"}}",
                        v.contexts,
                        v.pages,
                        v.serial_cost,
                        v.break_even,
                        v.degree,
                        v.morsels,
                        v.degree > 1,
                        escape_json(v.reason)
                    );
                }
                OptEvent::OrderRun(v) => {
                    let _ = write!(
                        s,
                        "{{\"event\":\"order-run\",\"by_construction\":{},\
                         \"witness_tripped\":{},\"sorted\":{},\"sorted_rows\":{},\
                         \"duplicates\":{},\"sort_nanos\":{}}}",
                        v.by_construction,
                        v.witness_tripped,
                        v.sorted(),
                        v.sorted_rows,
                        v.duplicates,
                        v.sort_nanos
                    );
                }
            }
        }
        s.push_str("]}");
        s
    }
}

/// `v` as a JSON number, `null` when there is none.
fn json_number(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Writes `items` to `s` as a JSON array of strings.
fn json_strings<'a>(s: &mut String, items: impl Iterator<Item = &'a str>) {
    s.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape_json(item));
    }
    s.push(']');
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qerror_conventions() {
        assert_eq!(qerror(0, 0), 1.0);
        assert!(qerror(0, 1).is_infinite());
        assert!(qerror(1, 0).is_infinite());
        assert_eq!(qerror(10, 10), 1.0);
        assert_eq!(qerror(2, 20), 10.0);
        assert_eq!(qerror(20, 2), 10.0);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
