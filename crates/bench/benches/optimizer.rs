//! Optimizer benches: (a) the paper's "negligible optimization overhead"
//! claim — optimize time per query; (b) rule ablations — execution time
//! of plans optimized with individual rules disabled, quantifying what
//! each rewrite contributes (the design choices DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vamana_bench::{document, QUERIES};
use vamana_core::opt::{optimize, OptimizerOptions};
use vamana_core::{DocId, Engine, MassStore};
use vamana_flex::KeyRange;

fn engine_1mb() -> Engine {
    let xml = document(1.0);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    Engine::new(store)
}

fn bench_optimize_overhead(c: &mut Criterion) {
    let engine = engine_1mb();
    let mut group = c.benchmark_group("optimize_overhead");
    for (label, query) in QUERIES {
        let plan = engine.compile(query).expect("compile");
        group.bench_with_input(BenchmarkId::from_parameter(label), &plan, |b, plan| {
            b.iter(|| {
                engine
                    .optimize_plan(plan.clone(), DocId(0))
                    .expect("optimize")
            })
        });
    }
    group.finish();
}

fn bench_rule_ablation(c: &mut Criterion) {
    let engine = engine_1mb();
    let scope = KeyRange::subtree(&engine.store().documents()[0].doc_key);
    let mut group = c.benchmark_group("rule_ablation");
    group.sample_size(10);

    // (query, the rule whose absence should hurt it)
    let cases = [
        ("Q1_no_pushdown", QUERIES[0].1, Some("child-pushdown")),
        ("Q1_full", QUERIES[0].1, None),
        ("Q3_no_inversion", QUERIES[2].1, Some("parent-inversion")),
        ("Q3_full", QUERIES[2].1, None),
        ("Q5_no_value_index", QUERIES[4].1, Some("value-index-step")),
        ("Q5_full", QUERIES[4].1, None),
    ];
    for (label, query, disabled) in cases {
        let plan = engine.compile(query).expect("compile");
        let options = OptimizerOptions {
            disabled_rules: disabled.iter().map(|s| s.to_string()).collect(),
        };
        let outcome = optimize(plan, engine.store(), &scope, &options).expect("optimize");
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &outcome.plan,
            |b, plan| b.iter(|| engine.execute_plan(plan, DocId(0)).expect("execute").len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_optimize_overhead, bench_rule_ablation);
criterion_main!(benches);
