//! The parallelism decision, in two halves.
//!
//! **Plan time** ([`decide`]): is the plan's output step a shape the
//! executor can split at all, and what does the index say it is worth?
//! Only that is recorded on the plan, so a cached plan carries no stale
//! fan-out.
//!
//! **Run time** ([`price`]): once the executor holds the materialised
//! context list it knows the page span the scan will pin, and fans out
//! when that span is worth more than the measured break-even
//! ([`PARALLEL_BREAK_EVEN`]). The plan-time `COUNT` is a whole-document
//! bound (×18 off for `/site/regions/africa//*` on XMark); the page span
//! is what the scan will actually walk.

use crate::cost::{count_nodetest, PARALLEL_BREAK_EVEN};
use crate::exec::parallel::MORSEL_TUPLES;
use crate::plan::{Operator, ParallelChoice, QueryPlan, TestSpec};
use vamana_flex::{Axis, KeyRange};
use vamana_mass::MassStore;

/// Plan-time eligibility of the plan's output step for a morsel-parallel
/// scan: `Ok` with the index estimate, or `Err` with the reason it can
/// never fan out.
///
/// Only the *top* step of the context path is considered; everything
/// below it is the context stream, which the executor materialises
/// serially. The step must be a forward, non-attribute, predicate-free
/// `*`/`node()` test — the shapes evaluated as clustered page scans
/// (named tests stream from the name index and are already index-only).
/// A document whose whole `COUNT` is below the break-even cannot hold a
/// scan above it whatever the contexts turn out to be; `force` waives
/// that (differential tests on small documents).
pub fn decide(
    plan: &QueryPlan,
    store: &MassStore,
    scope: &KeyRange,
    force: bool,
) -> Result<ParallelChoice, &'static str> {
    let Some(&top) = plan.context_path().first() else {
        return Err("no output step");
    };
    let Operator::Step {
        axis,
        test,
        predicates,
        ..
    } = plan.op(top)
    else {
        return Err("output operator is not a step");
    };
    if !predicates.is_empty() {
        return Err("output step has predicates");
    }
    if axis.is_reverse() || axis.principal_is_attribute() || *axis == Axis::Namespace {
        return Err("not a forward element axis");
    }
    if !matches!(test, TestSpec::Wildcard | TestSpec::AnyNode) {
        return Err("name and kind tests stream from the index");
    }
    let estimated = count_nodetest(store, *axis, test, scope);
    if !force && estimated < PARALLEL_BREAK_EVEN {
        return Err("document smaller than the break-even scan");
    }
    Ok(ParallelChoice { estimated })
}

/// The run-time verdict on one parallel-eligible scan: what the executor
/// observed, what it compared, and what it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelVerdict {
    /// Materialised context tuples feeding the output step.
    pub contexts: u64,
    /// Pages the scan pins (one range, or the span of a context list).
    pub pages: u64,
    /// Table I's `IN + OUT` of the step: every context received and every
    /// tuple of those pages walked is one index operation.
    pub serial_cost: u64,
    /// What `serial_cost` was held against ([`PARALLEL_BREAK_EVEN`]).
    pub break_even: u64,
    /// Threads the scan ran on, caller included; 1 = stayed serial.
    pub degree: u32,
    /// Morsels the scan was cut into (0 when it stayed serial).
    pub morsels: u32,
    /// Why.
    pub reason: &'static str,
}

impl ParallelVerdict {
    /// One line for the optimizer trace.
    pub fn render(&self) -> String {
        format!(
            "parallel at run time: contexts={} pages={} serial={} break-even={} degree={} \
             morsels={} {} ({})",
            self.contexts,
            self.pages,
            self.serial_cost,
            self.break_even,
            self.degree,
            self.morsels,
            if self.degree > 1 {
                "✓ fanned out"
            } else {
                "✗ declined at run time"
            },
            self.reason
        )
    }
}

/// Decides one scan the executor is about to run. `tuples` is the index
/// tuple volume it will walk (page span × tuples per page), `max_degree`
/// the threads it may use (caller included) and `max_morsels` how finely
/// the work can be cut (pages of a range, contexts of a list).
///
/// The scan fans out, over every thread it may use and has morsels for,
/// when its serial cost reaches [`PARALLEL_BREAK_EVEN`]; with `force`,
/// whenever there is a second thread and a second morsel.
pub fn price(
    contexts: u64,
    pages: u64,
    tuples: u64,
    max_degree: usize,
    max_morsels: usize,
    force: bool,
) -> ParallelVerdict {
    let serial_cost = contexts + tuples;
    let morsels = morsels_for(serial_cost, max_degree, max_morsels);
    let degree = max_degree.min(morsels);
    let (degree, reason) = if degree < 2 {
        (1, "one thread or one morsel")
    } else if force {
        (degree, "forced")
    } else if serial_cost >= PARALLEL_BREAK_EVEN {
        (degree, "above break-even")
    } else {
        (1, "below break-even")
    };
    ParallelVerdict {
        contexts,
        pages,
        serial_cost,
        break_even: PARALLEL_BREAK_EVEN,
        degree: degree as u32,
        morsels: if degree > 1 { morsels as u32 } else { 0 },
        reason,
    }
}

/// How many morsels a scan of `cost` is cut into at `degree` threads:
/// [`MORSEL_TUPLES`]-sized pieces, but at least two per thread so a
/// thread that starts late (its wake-up is the largest hand-off cost)
/// leaves the others something to take — and no finer than the work
/// divides.
pub fn morsels_for(cost: u64, degree: usize, max_morsels: usize) -> usize {
    (cost.div_ceil(MORSEL_TUPLES) as usize)
        .max(2 * degree)
        .min(max_morsels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::builder::build_plan;
    use vamana_mass::MassStore;
    use vamana_xpath::parse;

    fn store_with(n: usize) -> MassStore {
        let mut xml = String::from("<root>");
        for i in 0..n {
            xml.push_str(&format!("<e>{i}</e>"));
        }
        xml.push_str("</root>");
        let mut store = MassStore::open_memory();
        store.load_xml("doc", &xml).unwrap();
        store
    }

    fn plan_for(xpath: &str) -> QueryPlan {
        build_plan(&parse(xpath).unwrap()).unwrap()
    }

    #[test]
    fn wide_scan_is_eligible_with_its_estimate() {
        let store = store_with(PARALLEL_BREAK_EVEN as usize);
        let choice = decide(&plan_for("//*"), &store, &KeyRange::all(), false).unwrap();
        assert!(choice.estimated > PARALLEL_BREAK_EVEN);
    }

    #[test]
    fn small_document_is_rejected_unless_forced() {
        let store = store_with(20);
        let plan = plan_for("//*");
        assert_eq!(
            decide(&plan, &store, &KeyRange::all(), false),
            Err("document smaller than the break-even scan")
        );
        assert_eq!(
            decide(&plan, &store, &KeyRange::all(), true),
            Ok(ParallelChoice { estimated: 21 })
        );
    }

    #[test]
    fn named_predicated_and_reverse_steps_are_rejected_with_a_reason() {
        let store = store_with(50);
        for (q, why) in [
            ("//e", "name and kind tests stream from the index"),
            ("//text()", "name and kind tests stream from the index"),
            ("//*[1]", "output step has predicates"),
            ("//@*", "not a forward element axis"),
            ("//e/ancestor::*", "not a forward element axis"),
        ] {
            assert_eq!(
                decide(&plan_for(q), &store, &KeyRange::all(), true),
                Err(why),
                "{q}"
            );
        }
    }

    #[test]
    fn scans_fan_out_from_the_break_even_up() {
        // Eight pages of tuples: the hand-offs cost more than they save.
        let small = price(1, 8, 2000, 2, 8, false);
        assert_eq!((small.degree, small.morsels), (1, 0), "{small:?}");
        assert_eq!(small.reason, "below break-even");
        let at = price(1, 40, PARALLEL_BREAK_EVEN - 1, 2, 40, false);
        assert_eq!((at.degree, at.morsels), (2, 4), "{at:?}");
        // A thousand pages: MORSEL_TUPLES a morsel.
        let large = price(1, 1000, 250_000, 2, 1000, false);
        assert_eq!((large.degree, large.morsels), (2, 16), "{large:?}");
    }

    #[test]
    fn degree_is_capped_by_threads_and_by_the_work() {
        assert_eq!(price(1, 4000, 1_000_000, 8, 4000, false).degree, 8);
        assert_eq!(price(1, 4000, 1_000_000, 1, 4000, false).degree, 1);
        // Three contexts cannot occupy four threads.
        let few = price(3, 4000, 1_000_000, 4, 3, false);
        assert_eq!((few.degree, few.morsels), (3, 3));
    }

    #[test]
    fn force_fans_out_below_the_break_even() {
        let v = price(1, 4, 100, 4, 4, true);
        assert_eq!((v.degree, v.morsels, v.reason), (4, 4, "forced"));
        // ...but cannot conjure a second thread or a second morsel.
        assert_eq!(price(1, 4, 100, 1, 4, true).degree, 1);
        assert_eq!(price(1, 1, 100, 4, 1, true).degree, 1);
    }

    #[test]
    fn morsels_are_sized_by_the_work_with_two_per_thread_as_the_floor() {
        assert_eq!(morsels_for(100, 2, 1000), 4);
        assert_eq!(morsels_for(10 * MORSEL_TUPLES, 2, 1000), 10);
        assert_eq!(morsels_for(10 * MORSEL_TUPLES, 2, 3), 3);
    }
}
