//! Regenerates every table and figure of the paper's evaluation as text
//! tables (and CSV rows on stderr-free stdout) — see EXPERIMENTS.md for
//! the mapping.
//!
//! ```sh
//! cargo run --release -p vamana-bench --bin figures -- all
//! cargo run --release -p vamana-bench --bin figures -- fig12 --sizes=1,2,5,10
//! cargo run --release -p vamana-bench --bin figures -- fig6 --mb=10
//! ```

use std::time::Instant;
use vamana_bench::{document, run_best, Lineup, Outcome, QUERIES};
use vamana_core::cost::table::table_out;
use vamana_core::opt::replay;
use vamana_core::{DocId, Engine, MassStore};
use vamana_flex::Axis;

struct Args {
    command: String,
    sizes: Vec<f64>,
    megabytes: f64,
}

fn parse_args() -> Args {
    let mut command = "all".to_string();
    let mut sizes = vec![1.0, 2.0, 5.0, 10.0];
    let mut megabytes = 5.0;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--sizes=") {
            sizes = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        } else if let Some(v) = arg.strip_prefix("--mb=") {
            megabytes = v.parse().unwrap_or(5.0);
        } else if !arg.starts_with("--") {
            command = arg;
        }
    }
    Args {
        command,
        sizes,
        megabytes,
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "table1" => table1(),
        "fig6" => explain_figure(
            "fig6",
            "/descendant::name/parent::*/self::person/address",
            args.megabytes,
        ),
        "fig7" => explain_figure(
            "fig7",
            "//name[text() = 'Yung Flach']/following-sibling::emailaddress",
            args.megabytes,
        ),
        "fig8" => trace_figure(
            "fig8",
            "/descendant::name/parent::*/self::person/address",
            args.megabytes,
        ),
        "fig9" => explain_figure(
            "fig9",
            "//province[text()='Vermont']/ancestor::person",
            args.megabytes,
        ),
        "fig12" => sweep_figure("fig12", 0, &args.sizes),
        "fig13" => sweep_figure("fig13", 1, &args.sizes),
        "fig14" => sweep_figure("fig14", 2, &args.sizes),
        "fig15" => sweep_figure("fig15", 3, &args.sizes),
        "fig16" => sweep_figure("fig16", 4, &args.sizes),
        "overhead" => overhead(args.megabytes),
        "io" => io_fraction(args.megabytes),
        "all" => {
            table1();
            explain_figure(
                "fig6",
                "/descendant::name/parent::*/self::person/address",
                args.megabytes,
            );
            explain_figure(
                "fig7",
                "//name[text() = 'Yung Flach']/following-sibling::emailaddress",
                args.megabytes,
            );
            trace_figure(
                "fig8",
                "/descendant::name/parent::*/self::person/address",
                args.megabytes,
            );
            explain_figure(
                "fig9",
                "//province[text()='Vermont']/ancestor::person",
                args.megabytes,
            );
            for (fig, qi) in [
                ("fig12", 0),
                ("fig13", 1),
                ("fig14", 2),
                ("fig15", 3),
                ("fig16", 4),
            ] {
                sweep_figure(fig, qi, &args.sizes);
            }
            overhead(args.megabytes);
            io_fraction(args.megabytes);
        }
        other => {
            eprintln!("unknown command `{other}`; try: table1 fig6 fig7 fig8 fig9 fig12..fig16 overhead all");
            std::process::exit(2);
        }
    }
}

/// Table I: OUT(opᵢ) upper bounds per axis class, demonstrated with the
/// paper's Fig 6 numbers (COUNT vs IN).
fn table1() {
    println!("==== Table I — step-operator output bounds (COUNT=2550, IN=4825 and reverse)");
    println!(
        "{:<22} {:>18} {:>18}",
        "axis", "OUT(2550,4825)", "OUT(4825,2550)"
    );
    for axis in Axis::ALL {
        let a = table_out(axis, 2550, 4825, false);
        let b = table_out(axis, 4825, 2550, false);
        println!("{:<22} {:>18} {:>18}", axis.as_str(), a, b);
    }
    println!();
}

/// Figs 6–9: cost-annotated default and optimized plans for one query.
fn explain_figure(fig: &str, query: &str, megabytes: f64) {
    println!("==== {fig} — {query} (~{megabytes} MB XMark document)");
    let xml = document(megabytes);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    let engine = Engine::new(store);
    let explain = engine.explain(DocId(0), query).expect("explain");
    print!("{}", explain.render());
    let n = engine.query_doc(DocId(0), query).expect("run").len();
    println!("-- result size: {n}\n");
}

/// Fig 8: the optimization *sequence* — each applied transformation with
/// the plan it produced.
fn trace_figure(fig: &str, query: &str, megabytes: f64) {
    println!("==== {fig} — transformation trace of {query} (~{megabytes} MB)");
    let xml = document(megabytes);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    let engine = Engine::new(store);
    let plan = engine.compile(query).expect("compile");
    let outcome = engine
        .optimize_plan(plan.clone(), DocId(0))
        .expect("optimize");
    for (i, (rule, snapshot)) in replay(plan, &outcome.opt_trace).iter().enumerate() {
        println!("-- after transformation {} ({rule}):", i + 1);
        print!("{}", vamana_core::render(snapshot, None));
    }
    println!(
        "-- final cost {} (initial {}), {} iteration(s)\n",
        outcome.final_cost, outcome.initial_cost, outcome.iterations
    );
}

/// Figs 12–16: execution time of one evaluation query across document
/// sizes and engines.
fn sweep_figure(fig: &str, query_idx: usize, sizes: &[f64]) {
    let (label, query) = QUERIES[query_idx];
    println!("==== {fig} — execution time of {label}: {query}");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "size", "VQP-OPT", "VQP", "Jaxen", "Galax", "eXist-SJ", "results"
    );
    println!("csv,{fig},size_mb,vqp_opt_s,vqp_s,jaxen_s,galax_s,exist_sj_s,results");
    for &mb in sizes {
        let xml = document(mb);
        let actual_mb = xml.len() as f64 / 1_048_576.0;
        let lineup = Lineup::build(&xml);
        let outcomes: Vec<Outcome> = lineup
            .engines()
            .iter()
            .map(|e| run_best(*e, query, 1, 2))
            .collect();
        let count = outcomes
            .iter()
            .find_map(|o| match o {
                Outcome::Ok { count, .. } => Some(*count),
                _ => None,
            })
            .unwrap_or(0);
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            format!("{actual_mb:.1}MB"),
            outcomes[0].cell(),
            outcomes[1].cell(),
            outcomes[2].cell(),
            outcomes[3].cell(),
            outcomes[4].cell(),
            count
        );
        let csv: Vec<String> = outcomes
            .iter()
            .map(|o| {
                o.seconds()
                    .map(|s| format!("{s:.6}"))
                    .unwrap_or_else(|| "".into())
            })
            .collect();
        println!("csv,{fig},{actual_mb:.2},{},{count}", csv.join(","));
    }
    println!();
}

/// The index-only claim measured in pages: how much of the document each
/// plan actually reads, cold-cache, per query.
fn io_fraction(megabytes: f64) {
    println!("==== I/O fraction — pages touched per query (cold cache, ~{megabytes} MB)");
    let xml = document(megabytes);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    let total_pages = store.stats().pages as u64;
    let mut engine = Engine::new(store);
    println!(
        "{:<4} {:>14} {:>14} {:>12} (of {} pages)",
        "qry", "VQP-OPT pages", "VQP pages", "results", total_pages
    );
    for (label, query) in QUERIES {
        let mut touched = [0u64; 2];
        let mut results = 0usize;
        for (i, optimize) in [true, false].into_iter().enumerate() {
            engine.options_mut().optimize = optimize;
            engine.store().buffer_pool().clear_cache();
            engine.store().buffer_pool().reset_stats();
            results = engine.query(query).expect("query").len();
            let b = engine.store().stats().buffer;
            touched[i] = b.misses; // cold cache: misses = distinct pages read
        }
        println!(
            "{:<4} {:>8} ({:>4.1}%) {:>8} ({:>4.1}%) {:>12}",
            label,
            touched[0],
            touched[0] as f64 / total_pages as f64 * 100.0,
            touched[1],
            touched[1] as f64 / total_pages as f64 * 100.0,
            results
        );
    }
    println!();
}

/// The "negligible optimization overhead" claim: time spent compiling and
/// optimizing each query vs executing it.
fn overhead(megabytes: f64) {
    println!("==== optimization overhead (~{megabytes} MB document)");
    let xml = document(megabytes);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    let engine = Engine::new(store);
    println!(
        "{:<4} {:>14} {:>14} {:>14} {:>10}",
        "qry", "compile", "optimize", "execute(opt)", "ratio"
    );
    for (label, query) in QUERIES {
        let t0 = Instant::now();
        let plan = engine.compile(query).expect("compile");
        let compile = t0.elapsed();
        let t1 = Instant::now();
        let outcome = engine.optimize_plan(plan, DocId(0)).expect("optimize");
        let optimize = t1.elapsed();
        let t2 = Instant::now();
        let _ = engine
            .execute_plan(&outcome.plan, DocId(0))
            .expect("execute");
        let execute = t2.elapsed();
        let ratio = optimize.as_secs_f64() / execute.as_secs_f64().max(1e-12);
        println!(
            "{:<4} {:>14.2?} {:>14.2?} {:>14.2?} {:>9.4}",
            label, compile, optimize, execute, ratio
        );
    }
    println!();
}
