//! Per-query probe of the morsel-parallel scan path, and the calibration
//! of its break-even (`core::cost::PARALLEL_BREAK_EVEN`). EXPERIMENTS.md
//! "Parallel scans" quotes its output.
//!
//! ```sh
//! cargo run --release -p vamana-bench --example parallel_probe [mb] [reps] [xpath...]
//! ```
//!
//! Table 1 times prepared plans through `Engine::execute_plan` — what the
//! `embed_scan` workload of the trajectory benchmark does — serial,
//! forced-parallel and gated, interleaved rep by rep so the host's slow
//! stretches hit all three: S1–S5 and one region, or the `xpath`
//! arguments (the trajectory benchmark owns the full request list; its
//! `--trace 1` run has the per-layer numbers). Table 2 drains streams
//! instead (no result sort, nothing but the scan and the hand-off) over
//! subtrees from a dozen pages to the whole document, and prints what the
//! forced fan-out cost beyond `serial / degree`, in Table I units of that
//! scan, beside what the gate does with it.

use std::time::Instant;
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, MassStore, OptEvent};

const DOC: DocId = DocId(0);

/// Single-range scans from a dozen pages to the whole document, then
/// context lists below and above the break-even.
const CALIBRATION: [&str; 11] = [
    "/site/categories//*",
    "/site/closed_auctions//*",
    "/site/regions/africa//*",
    "/site/open_auctions//*",
    "/site/regions//*",
    "/site/people//*",
    "/site//*",
    "/site/categories/category/*",
    "//closed_auction/*",
    "//item/*",
    "//person//*",
];

#[derive(Clone, Copy)]
enum Mode {
    Serial,
    Forced,
    Gated,
}

fn set(engine: &mut Engine, mode: Mode) {
    let o = engine.options_mut();
    o.parallel_workers = if matches!(mode, Mode::Serial) { 1 } else { 0 };
    o.parallel_force = matches!(mode, Mode::Forced);
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// (minimum, median) of a sample.
fn min_med(mut v: Vec<f64>) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[0], v[v.len() / 2])
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mb: f64 = args.next().map_or(8.0, |s| s.parse().expect("megabytes"));
    let reps: usize = args.next().map_or(15, |s| s.parse().expect("reps"));
    let mut requests: Vec<String> = args.collect();
    if requests.is_empty() {
        requests.extend(
            vamana_bench::SCAN_QUERIES
                .iter()
                .map(|(_, q)| q.to_string()),
        );
        requests.push("/site/regions/africa//*".into());
    }
    let xml = vamana_bench::document(mb);
    let mut store = MassStore::open_memory_with_capacity(xml.len() / 2048 + 64);
    store.load_xml("auction", &xml).expect("load");
    let stats = store.stats();
    let mut engine = Engine::new(store);
    println!(
        "{} bytes, {} pages, {} tuples, host_cpus {}, scan threads {}, best/median of {reps}",
        xml.len(),
        stats.pages,
        stats.tuples,
        vamana_core::exec::parallel::host_cpus(),
        engine.effective_workers(),
    );

    println!(
        "\n{:30} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | gated morsels/chunks/stalls",
        "execute_plan, ms", "rows", "serial", "forced", "gated", "ser.med", "for.med", "gat.med"
    );
    for q in &requests {
        let modes = [Mode::Serial, Mode::Forced, Mode::Gated];
        let plans = modes.map(|m| {
            set(&mut engine, m);
            let plan = engine.compile(q).expect(q);
            engine.optimize_plan(plan, DOC).expect(q).plan
        });
        let mut times = [Vec::new(), Vec::new(), Vec::new()];
        let mut rows = 0;
        for _ in 0..reps {
            for (i, m) in modes.into_iter().enumerate() {
                set(&mut engine, m);
                let t = Instant::now();
                rows = engine.execute_plan(&plans[i], DOC).expect(q).len();
                times[i].push(ms(t));
            }
        }
        // One more gated run on its own, for its counters.
        let g0 = engine.parallel_stats();
        engine.execute_plan(&plans[2], DOC).expect(q);
        let g1 = engine.parallel_stats();
        let [s, f, g] = times.map(min_med);
        println!(
            "{q:30} {rows:>7} | {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} | {}/{}/{}",
            s.0,
            f.0,
            g.0,
            s.1,
            f.1,
            g.1,
            g1.morsels - g0.morsels,
            g1.worker_batches - g0.worker_batches,
            g1.merge_stalls - g0.merge_stalls,
        );
    }

    println!(
        "\n{:28} {:>6} {:>6} {:>8} {:>3} {:>4} | {:>8} {:>8} | {:>6} {:>9} | gate",
        "stream drain, us",
        "ctx",
        "pages",
        "serial_c",
        "m",
        "chk",
        "serial",
        "forced",
        "ns/unit",
        "over,unit"
    );
    for q in CALIBRATION {
        set(&mut engine, Mode::Gated);
        let gated = verdict(&engine, q);
        set(&mut engine, Mode::Forced);
        let (Some(gated), Some(v)) = (gated, verdict(&engine, q)) else {
            println!("{q:28} not eligible");
            continue;
        };
        let (mut serial, mut forced) = (Vec::new(), Vec::new());
        let c0 = engine.parallel_stats();
        for _ in 0..reps {
            set(&mut engine, Mode::Serial);
            serial.push(drain(&engine, q));
            set(&mut engine, Mode::Forced);
            forced.push(drain(&engine, q));
        }
        let c1 = engine.parallel_stats();
        let (s, f) = (min_med(serial).0, min_med(forced).0);
        let unit_ns = s * 1e6 / v.serial_cost as f64;
        let over = (f - s / f64::from(v.degree)) * 1e6 / unit_ns;
        println!(
            "{q:28} {:>6} {:>6} {:>8} {:>3} {:>4} | {:>8.1} {:>8.1} | {unit_ns:>6.1} {over:>9.0} | {}",
            v.contexts,
            v.pages,
            v.serial_cost,
            v.morsels,
            (c1.worker_batches - c0.worker_batches) / reps as u64,
            s * 1e3,
            f * 1e3,
            if gated.degree > 1 { "fans out" } else { "serial" },
        );
    }
}

/// The run-time verdict `ANALYZE` reports for `q` under the current mode.
fn verdict(engine: &Engine, q: &str) -> Option<vamana_core::opt::parallel::ParallelVerdict> {
    let analysis = engine.analyze_doc(DOC, q).expect(q);
    analysis.opt_trace.events.iter().find_map(|e| match e {
        OptEvent::ParallelRun(v) => Some(*v),
        _ => None,
    })
}

/// Milliseconds to open a stream on `q` and pull it dry.
fn drain(engine: &Engine, q: &str) -> f64 {
    let t = Instant::now();
    let mut stream = engine.stream(DOC, q).expect(q);
    let mut out = Vec::new();
    while stream.next_batch(&mut out, BATCH_SIZE).expect(q) > 0 {}
    ms(t)
}
