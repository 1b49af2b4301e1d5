//! The five workloads: set-up, verification, the closed loops and the
//! metrics read off them.
//!
//! Everything here measures product defaults through stable entry points
//! (see the README's "API surface"); no option is set that an embedder or
//! operator would not set, and `VAMANA_*` variables are cleared first.
//!
//! A run is: generate the document (untimed) → set up several times and
//! keep the last → record what every distinct
//! request returns → verify the wire against `render_rows` → warm up →
//! measure → read the counters → shut down (and recover, for
//! `serve_write`) → set up as many times again, so that `setup_s` is a
//! median over both ends of the run → check the recorded answers against
//! the DOM oracle.
//! The oracle runs last so that its DOM never shows in `peak_rss_mb`.

use crate::gen::{self, Stream, Universe};
use crate::measure::{
    self, median, run_phase, summarize, Calibrator, ClientRun, Done, Op, Phase, Summary,
};
use crate::spec::{self, Workload};
use crate::trace::{Recorder, Trace};
use crate::wire::{self, Client};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vamana_baseline::dom::DomEngine;
use vamana_baseline::XPathEngine;
use vamana_core::{DocId, Engine, MassStore, NodeEntry, QueryPlan};
use vamana_mass::{BufferStats, FsyncPolicy, StoreFormat, WalStats};
use vamana_router::{Router, RouterConfig};
use vamana_server::{render_rows, RenderOptions, Server, ServerConfig, ServerHandle};

const DOC: DocId = DocId(0);
/// The shell's and server's policy for durable stores: fsync every commit.
const FSYNC: FsyncPolicy = FsyncPolicy::Always;
const FRONT_END: [&str; 3] = ["xpath.parse", "core.compile", "core.optimize"];

/// What to run.
pub struct Cfg {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request streams.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny documents and no sizing guards.
    pub smoke: bool,
    /// Directory for store files, span files and result files.
    pub out: PathBuf,
}

/// One reported number.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run of one workload.
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The declared metrics: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Undeclared companions: `error_rate`, spreads, sample counts.
    pub extras: Vec<Metric>,
    /// What the run ran on.
    pub header: Vec<(&'static str, String)>,
}

/// The generated inputs of a run.
struct Input {
    xml: String,
    universe: Universe,
}

/// State shared by the stages of a run.
struct Ctx<'a> {
    cfg: &'a Cfg,
    dir: PathBuf,
    attempted: u64,
    failed: u64,
    layers: BTreeMap<&'static str, f64>,
    end_to_end: Vec<(&'static str, f64)>,
    /// Seconds each set-up took, at reference speed and as the clock read
    /// them; `setup_s` is the median of the first.
    setup_samples: Vec<(f64, f64)>,
    calibrator: Calibrator,
    extras: Vec<Metric>,
    header: Vec<(&'static str, String)>,
}

impl Ctx<'_> {
    fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A failed verification is a failed operation.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("trajectory: FAILED {what}");
        }
    }

    fn warm(&self) -> Duration {
        Duration::from_secs_f64((self.cfg.seconds * 0.15).clamp(0.05, 3.0))
    }

    /// Set-ups before the run, and again after it. (The traced run
    /// reports no `setup_s` and sets up only before.)
    fn setups(&self) -> usize {
        match (self.cfg.smoke, self.cfg.trace) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 4,
        }
    }

    fn checkpoint_every(&self) -> u64 {
        if self.cfg.smoke {
            40
        } else {
            spec::CHECKPOINT_EVERY
        }
    }

    fn mis_sized(&self, why: String) -> Result<(), String> {
        if self.cfg.smoke {
            Ok(())
        } else {
            Err(format!(
                "mis-sized workload {}: {why}",
                self.cfg.workload.name()
            ))
        }
    }
}

/// Runs one workload.
pub fn run(cfg: &Cfg) -> Result<Report, String> {
    // Product defaults only: no opt-in may leak in from the environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VAMANA_") {
            std::env::remove_var(key);
        }
    }
    let config = gen::doc_config(cfg.workload, cfg.smoke);
    let xml = gen::document(&config);
    let dir = cfg
        .out
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let input = Input {
        universe: Universe::new(cfg.workload, &config),
        xml,
    };
    let mut ctx = Ctx {
        cfg,
        dir,
        attempted: 0,
        failed: 0,
        layers: BTreeMap::new(),
        end_to_end: Vec::new(),
        setup_samples: Vec::new(),
        calibrator: Calibrator::new(),
        extras: Vec::new(),
        header: Vec::new(),
    };
    ctx.header.push(("host_cpus", cpus().to_string()));
    ctx.header.push(("seed", cfg.seed.to_string()));
    ctx.header.push(("seconds", cfg.seconds.to_string()));
    ctx.header.push(("fsync_policy", format!("{FSYNC:?}")));
    ctx.header
        .push(("document_bytes", input.xml.len().to_string()));
    let outcome = match cfg.workload {
        Workload::EmbedPoint | Workload::EmbedScan | Workload::ColdScan => {
            embedded(&mut ctx, &input)
        }
        Workload::ServePoint | Workload::ServeWrite => served(&mut ctx, &input),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    outcome?;
    let (scaled, raw) = std::mem::take(&mut ctx.setup_samples).into_iter().unzip();
    ctx.end_to_end.push(("setup_s", median(scaled)));
    ctx.extra("setup_s.raw", median(raw), "s");
    let error_rate = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    ctx.end_to_end.push((spec::SUCCESS_RATE, 1.0 - error_rate));
    ctx.extras.insert(
        0,
        Metric {
            name: spec::ERROR_RATE.into(),
            value: error_rate,
            unit: "ratio",
        },
    );
    let metrics = if cfg.trace {
        spec::PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric {
                name: name.to_string(),
                value: ctx.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                value: ctx
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v),
                unit: m.unit,
            })
            .collect()
    };
    Ok(Report {
        workload: cfg.workload,
        traced: cfg.trace,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics,
        extras: ctx.extras,
        header: ctx.header,
    })
}

/// Logical CPUs of the host.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- set-up ----------------------------------------------------------------

/// Sets up `ctx.setups()` times, dropping each result before the next is
/// built, and keeps the last. Every set-up's time goes to
/// `ctx.setup_samples`; returned with the result is the median time of the
/// `load_xml` call inside.
///
/// Called once before the run and once after it (the result dropped): the
/// host slows down for seconds at a time, and a `setup_s` taken at one end
/// of the run would be at the mercy of one such stretch.
fn repeat_setup<T>(
    ctx: &mut Ctx<'_>,
    mut build: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut loads = Vec::new();
    let mut slowdown = ctx.calibrator.slowdown();
    for _ in 0..ctx.setups() {
        drop(kept.take());
        let start = Instant::now();
        let (value, load_s) = build()?;
        let seconds = start.elapsed().as_secs_f64();
        let before = std::mem::replace(&mut slowdown, ctx.calibrator.slowdown());
        ctx.setup_samples
            .push((seconds / ((before + slowdown) / 2.0), seconds));
        loads.push(load_s);
        kept = Some(value);
    }
    Ok((kept.expect("at least one set-up"), median(loads)))
}

fn load(store: &mut MassStore, xml: &str) -> Result<f64, String> {
    let start = Instant::now();
    store
        .load_xml(spec::DOC_NAME, xml)
        .map_err(|e| format!("load_xml failed: {e}"))?;
    Ok(start.elapsed().as_secs_f64())
}

/// Pool pages for a store that must never miss: about twice its v1 pages.
fn hot_pool_pages(xml: &str) -> usize {
    xml.len() / 2048 + 64
}

fn memory_engine(xml: &str) -> Result<(Engine, f64), String> {
    let mut store = MassStore::open_memory_with_capacity(hot_pool_pages(xml));
    let load_s = load(&mut store, xml)?;
    Ok((Engine::new(store), load_s))
}

fn durable_engine(
    path: &Path,
    xml: &str,
    pool_pages: usize,
    format: StoreFormat,
) -> Result<(Engine, f64), String> {
    let mut store = MassStore::create_durable(path, pool_pages, FSYNC)
        .map_err(|e| format!("create_durable failed: {e}"))?;
    store
        .set_format(format)
        .map_err(|e| format!("set_format failed: {e}"))?;
    let load_s = load(&mut store, xml)?;
    Ok((Engine::new(store), load_s))
}

fn serve(engine: Engine) -> Result<ServerHandle, String> {
    let mut config = ServerConfig::default();
    config.workers = cpus().min(2);
    config.scan_workers = config.workers;
    let handle = Server::bind("127.0.0.1:0", engine, config)
        .and_then(Server::spawn)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let pong = connect(handle.addr())?.request("PING");
    if !pong.as_ref().is_ok_and(wire::Reply::ok) {
        return Err("the server did not answer PING".into());
    }
    Ok(handle)
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// The per-layer numbers set-up yields, and the run header's page counts.
fn setup_layers(ctx: &mut Ctx<'_>, xml: &str, engine: &Engine, load_s: f64) {
    let stats = engine.store().stats();
    let mb = xml.len() as f64 / 1e6;
    ctx.header
        .push(("store_format", stats.format.as_str().into()));
    ctx.header.push(("store_pages", stats.pages.to_string()));
    ctx.header.push(("store_tuples", stats.tuples.to_string()));
    if ctx.cfg.trace {
        let start = Instant::now();
        let parsed = vamana_xml::parse(xml).is_ok();
        let parse_s = start.elapsed().as_secs_f64();
        ctx.check("vamana_xml::parse of the document", parsed);
        ctx.layer("xml.parse_mb_per_s", mb / parse_s);
        ctx.layer("mass.loader.load_mb_per_s", mb / load_s);
        ctx.layer("mass.loader.tuples_per_s", stats.tuples as f64 / load_s);
        ctx.layer("mass.store.pages", f64::from(stats.pages));
        ctx.layer("mass.store.bytes_per_node", stats.bytes_per_tuple());
        ctx.layer("mass.store.compression_ratio", stats.compression_ratio());
    }
}

// ---- expectations and verification ------------------------------------------

/// What a request returned before timing began.
struct Expect {
    rows: u64,
    /// FNV-1a over the name and string-value of every row, in order.
    hash: u64,
    /// FNV-1a over the `ROW` lines the server must send (default `LIMIT`).
    wire_hash: u64,
}

fn identity_hash<'a>(rows: impl Iterator<Item = (&'a str, &'a str)>) -> u64 {
    rows.fold(wire::FNV_SEED, |h, (name, value)| {
        let h = wire::fnv(wire::fnv(h, name.as_bytes()), &[0]);
        wire::fnv(wire::fnv(h, value.as_bytes()), &[0])
    })
}

fn expectations(
    engine: &Engine,
    universe: &Universe,
    render: Option<&RenderOptions>,
) -> Result<Vec<Expect>, String> {
    let fail = |text: &str, e: &dyn std::fmt::Display| format!("{text}: {e}");
    universe
        .texts
        .iter()
        .map(|text| {
            let rows = engine.query_doc(DOC, text).map_err(|e| fail(text, &e))?;
            let names = engine.names_of(&rows).map_err(|e| fail(text, &e))?;
            let values = engine.string_values(&rows).map_err(|e| fail(text, &e))?;
            let wire_hash = match render {
                Some(opts) => {
                    let shown = render_rows(engine, &rows, opts).map_err(|e| fail(text, &e))?;
                    wire::rows_hash(&shown.lines)
                }
                None => 0,
            };
            Ok(Expect {
                rows: rows.len() as u64,
                hash: identity_hash(names.iter().zip(&values).map(|(n, v)| (&**n, &**v))),
                wire_hash,
            })
        })
        .collect()
}

/// Checks the recorded answers of the sampled requests against the DOM
/// oracle built from the same XML; every mismatch is a failed operation.
fn check_oracle(ctx: &mut Ctx<'_>, input: &Input, expect: &[Expect]) -> Result<(), String> {
    let dom = DomEngine::from_xml(&input.xml).map_err(|e| format!("oracle cannot parse: {e}"))?;
    for i in input.universe.oracle_sample() {
        let text = &input.universe.texts[i];
        let want = dom
            .identities(text)
            .map_err(|e| format!("oracle cannot answer {text}: {e}"))?;
        let hash = identity_hash(want.iter().map(|id| (&*id.name, &*id.value)));
        let ok = want.len() as u64 == expect[i].rows && hash == expect[i].hash;
        ctx.check(&format!("oracle check of {text}"), ok);
    }
    Ok(())
}

/// Sends every distinct request once and compares the response with what
/// `render_rows` produces in process, byte for byte.
fn check_wire(
    ctx: &mut Ctx<'_>,
    universe: &Universe,
    addr: SocketAddr,
    expect: &[Expect],
) -> Result<(), String> {
    let mut client = connect(addr)?;
    for (text, want) in universe.texts.iter().zip(expect) {
        let line = format!("QUERY DOC 0 {text}");
        let ok = client.request(&line).is_ok_and(|r| answers(&r, want));
        ctx.check(&format!("wire check of {line}"), ok);
    }
    Ok(())
}

fn answers(reply: &wire::Reply, want: &Expect) -> bool {
    reply.rows() == Some(want.rows) && reply.body_hash == want.wire_hash
}

// ---- counters ----------------------------------------------------------------

/// The product's own counters, read before and after a phase.
struct Counters {
    buffer: BufferStats,
    morsels: u64,
    merge_stalls: u64,
    fused_chains: u64,
    view_hits: u64,
    wal: WalStats,
    writer_wait_us: f64,
    plan_cache: (u64, u64),
    busy: u64,
    timeouts: u64,
    checkpoints: u64,
}

impl Counters {
    fn read(engine: &Engine, server: Option<&ServerHandle>) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let par = engine.parallel_stats();
        let shared = server.map(ServerHandle::shared);
        Counters {
            buffer: engine.store().buffer_pool().stats(),
            morsels: par.morsels,
            merge_stalls: par.merge_stalls,
            fused_chains: engine.fused_stats().0,
            view_hits: engine.views().stats().hits,
            wal: engine.store().wal_stats(),
            writer_wait_us: engine.writer_wait_total().as_secs_f64() * 1e6,
            plan_cache: shared.map_or((0, 0), |s| s.cache().counters()),
            busy: shared.map_or(0, |s| s.metrics().busy_rejections.load(Relaxed)),
            timeouts: shared.map_or(0, |s| s.metrics().timeouts.load(Relaxed)),
            checkpoints: shared.map_or(0, |s| s.metrics().checkpoints.load(Relaxed)),
        }
    }
}

/// Turns the counter deltas of a phase into per-layer metrics and applies
/// the sizing guards that depend on them.
fn counter_layers(
    ctx: &mut Ctx<'_>,
    before: &Counters,
    after: &Counters,
    ops: u64,
    updates: u64,
) -> Result<(), String> {
    let per_op = |delta: u64| delta as f64 / ops.max(1) as f64;
    let (b, a) = (&before.buffer, &after.buffer);
    let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
    let workload = ctx.cfg.workload;
    if workload.is_hot() && misses != 0 {
        ctx.mis_sized(format!(
            "{misses} buffer misses on a store that must stay hot"
        ))?;
    }
    if workload == Workload::ColdScan && misses == 0 {
        ctx.mis_sized("no buffer misses on the bigger-than-cache store".into())?;
    }
    let (cache_hits, cache_misses) = (
        after.plan_cache.0 - before.plan_cache.0,
        after.plan_cache.1 - before.plan_cache.1,
    );
    let cache_ratio = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;
    if workload == Workload::ServePoint && !(0.5..=0.95).contains(&cache_ratio) {
        ctx.mis_sized(format!(
            "plan-cache hit ratio {cache_ratio:.3} outside [0.5, 0.95]"
        ))?;
    }
    if !ctx.cfg.trace {
        return Ok(());
    }
    ctx.layer(
        "mass.buffer.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    ctx.layer("mass.buffer.misses_per_op", per_op(misses));
    ctx.layer(
        "mass.buffer.evictions_per_op",
        per_op(a.evictions - b.evictions),
    );
    ctx.layer(
        "mass.buffer.pins_saved_per_pin",
        (a.pins_saved - b.pins_saved) as f64 / (a.batch_pins - b.batch_pins).max(1) as f64,
    );
    ctx.layer(
        "mass.page.decodes_v1_per_op",
        per_op(a.decodes_v1 - b.decodes_v1),
    );
    ctx.layer(
        "mass.page.decodes_v2_per_op",
        per_op(a.decodes_v2 - b.decodes_v2),
    );
    ctx.layer(
        "core.exec.morsels_per_op",
        per_op(after.morsels - before.morsels),
    );
    ctx.layer(
        "core.exec.merge_stalls_per_op",
        per_op(after.merge_stalls - before.merge_stalls),
    );
    ctx.layer(
        "core.exec.fused_chains_per_op",
        per_op(after.fused_chains - before.fused_chains),
    );
    ctx.layer(
        "core.views.hits_per_op",
        per_op(after.view_hits - before.view_hits),
    );
    ctx.layer("server.cache.hit_ratio", cache_ratio);
    ctx.layer("server.busy_rejections", (after.busy - before.busy) as f64);
    ctx.layer("server.timeouts", (after.timeouts - before.timeouts) as f64);
    let (wb, wa) = (&before.wal, &after.wal);
    let per_update = |delta: f64| delta / updates.max(1) as f64;
    ctx.layer(
        "mass.wal.records_per_update",
        per_update((wa.records - wb.records) as f64),
    );
    ctx.layer(
        "mass.wal.fsyncs_per_commit",
        (wa.fsyncs - wb.fsyncs) as f64 / (wa.commits - wb.commits).max(1) as f64,
    );
    ctx.layer(
        "core.writer_wait_us_per_update",
        per_update(after.writer_wait_us - before.writer_wait_us),
    );
    Ok(())
}

/// One `analyze_doc` per sampled request: tuples the operators produced
/// per result row, and the worst cardinality misestimate.
fn analysis_layers(ctx: &mut Ctx<'_>, universe: &Universe, engine: &Engine) {
    let (mut examined, mut rows, mut q_error) = (0u64, 0u64, 1.0f64);
    for i in universe.oracle_sample() {
        let Ok(analysis) = engine.analyze_doc(DOC, &universe.texts[i]) else {
            continue;
        };
        rows += analysis.rows;
        examined += analysis
            .plan
            .live_ops()
            .into_iter()
            .filter_map(|op| analysis.actuals.op(op))
            .map(|actual| actual.rows)
            .sum::<u64>();
        // An empty result estimated non-empty is an infinite q-error;
        // the worst *finite* one is what a number can carry.
        let finite = analysis
            .misestimates(1.0)
            .into_iter()
            .find(|m| m.qerror.is_finite());
        q_error = finite.map_or(q_error, |m| q_error.max(m.qerror));
    }
    ctx.layer(
        "core.exec.tuples_examined_per_row",
        examined as f64 / rows.max(1) as f64,
    );
    ctx.layer("core.cost.q_error_max", q_error);
}

// ---- the traced pipeline -------------------------------------------------------

/// Sums kept by a client beside its latency samples.
#[derive(Default)]
struct Tally {
    rows: u64,
    bytes: u64,
    rewrites: u64,
    pipelines: u64,
    exec_ns: u64,
    exec_rows: u64,
    pipeline_us: Vec<f64>,
    service_us: Vec<f64>,
    queue_io_us: Vec<f64>,
}

/// `Engine::query_doc` taken apart into the public calls it makes, one span
/// each. `core.compile` parses and builds the plan; `xpath.parse` is then
/// timed on its own, so plan building is `core.compile` − `xpath.parse`.
fn traced_pipeline(
    engine: &Engine,
    text: &str,
    rec: &mut Recorder,
    parent: i32,
    tally: &mut Tally,
) -> Option<Vec<NodeEntry>> {
    let (plan, compile_ns) = rec.child(parent, "core.compile", || engine.compile(text));
    rec.child(parent, "xpath.parse", || vamana_xpath::parse(text).is_ok());
    let (outcome, optimize_ns) = rec.child(parent, "core.optimize", || {
        plan.and_then(|plan| engine.optimize_plan(plan, DOC))
    });
    let outcome = outcome.ok()?;
    tally.rewrites += outcome.applied.len() as u64;
    tally.pipelines += 1;
    let before = tally.exec_ns;
    let rows = traced_execute(engine, &outcome.plan, rec, parent, tally);
    let execute_ns = tally.exec_ns - before;
    tally
        .pipeline_us
        .push((compile_ns + optimize_ns + execute_ns) as f64 / 1e3);
    rows
}

fn traced_execute(
    engine: &Engine,
    plan: &QueryPlan,
    rec: &mut Recorder,
    parent: i32,
    tally: &mut Tally,
) -> Option<Vec<NodeEntry>> {
    let (rows, ns) = rec.child(parent, "core.execute", || engine.execute_plan(plan, DOC));
    let rows = rows.ok()?;
    tally.exec_ns += ns;
    tally.exec_rows += rows.len() as u64;
    Some(rows)
}

/// Per-layer metrics of the spans and tallies of the traced phase.
fn span_layers(ctx: &mut Ctx<'_>, trace: &Trace, tallies: &[Tally], root: &str) {
    let parse_us = trace.median_us("xpath.parse");
    ctx.layer("xpath.parse_us", parse_us);
    ctx.layer(
        "core.plan.build_us",
        (trace.median_us("core.compile") - parse_us).max(0.0),
    );
    ctx.layer("core.opt.optimize_us", trace.median_us("core.optimize"));
    ctx.layer("core.frontend_share", trace.median_share(root, &FRONT_END));
    ctx.layer("core.exec.execute_us", trace.median_us("core.execute"));
    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>() as f64;
    ctx.layer(
        "core.opt.rewrites_per_query",
        sum(|t| t.rewrites) / sum(|t| t.pipelines).max(1.0),
    );
    ctx.layer(
        "core.exec.rows_per_s",
        sum(|t| t.exec_rows) / (sum(|t| t.exec_ns) / 1e9).max(1e-9),
    );
}

fn write_trace(ctx: &mut Ctx<'_>, trace: &Trace) -> Result<(), String> {
    let path = ctx
        .cfg
        .out
        .join(format!("trace_{}.jsonl", ctx.cfg.workload.name()));
    let spans = trace
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    ctx.extra("trace.spans_written", spans as f64, "count");
    Ok(())
}

// ---- phases --------------------------------------------------------------------

/// Length of the untraced reference phase and of the traced phase.
fn half(ctx: &Ctx<'_>) -> Duration {
    Duration::from_secs_f64(ctx.cfg.seconds / 2.0)
}

/// Length of the measured phase of the end-to-end run.
fn whole(ctx: &Ctx<'_>) -> Duration {
    Duration::from_secs_f64(ctx.cfg.seconds)
}

/// End-to-end metrics of the measured phase; `foreground` selects the
/// clients whose operations they describe.
fn end_to_end(
    ctx: &mut Ctx<'_>,
    phase: &Phase,
    foreground: &[ClientRun],
    space_amp: f64,
) -> Result<Summary, String> {
    let s = summarize(phase, foreground);
    ctx.attempted += s.attempted;
    ctx.failed += s.failed;
    let ok = s.attempted - s.failed;
    if ok < spec::MIN_OPS {
        ctx.mis_sized(format!(
            "{ok} foreground operations, {} needed",
            spec::MIN_OPS
        ))?;
    }
    ctx.end_to_end = vec![
        ("ops_per_s", s.ops_per_s),
        ("p50_us", s.p50_us),
        ("p95_us", s.p95_us),
        ("cpu_ms_per_op", s.cpu_ms_per_op),
        ("peak_rss_mb", measure::peak_rss_mb()),
        ("space_amp", space_amp),
    ];
    ctx.extra("ops_attempted", s.attempted as f64, "count");
    ctx.extra("ops_failed", s.failed as f64, "count");
    // The four timed metrics (they follow `setup_s` in `END_TO_END`): how
    // they spread over the parts of the run, and what the clock read before
    // the host's slowdown was divided out.
    for (i, m) in spec::END_TO_END[1..5].iter().enumerate() {
        ctx.extra(format!("{}.spread", m.name), s.spread[i], "ratio");
        ctx.extra(format!("{}.raw", m.name), s.raw[i], m.unit);
    }
    ctx.extra("host.slowdown", s.slowdown, "ratio");
    ctx.extra("p50_us.samples", ok as f64, "count");
    if let Some(p99) = s.p99_us {
        ctx.extra("p99_us", p99, "us");
    }
    Ok(s)
}

/// `trace.overhead_pct` and `client.p99_us` from the reference phase and
/// the traced phase; their operations count as attempted.
fn overhead_layers(ctx: &mut Ctx<'_>, reference: &Phase, traced: &Phase, foreground: usize) {
    let plain = summarize(reference, &reference.clients[..foreground]);
    let spans = summarize(traced, &traced.clients[..foreground]);
    ctx.attempted += plain.attempted + spans.attempted;
    ctx.failed += plain.failed + spans.failed;
    ctx.layer(
        "trace.overhead_pct",
        100.0 * (spans.p50_us - plain.p50_us) / plain.p50_us.max(1e-9),
    );
    // Per-layer times are as the clock read them, like the spans.
    let p99_us = plain.p99_us.map_or(0.0, |_| plain.raw[4]);
    ctx.layer("client.p99_us", p99_us);
    ctx.extra("untraced.p50_us", plain.p50_us, "us");
    ctx.extra("traced.p50_us", spans.p50_us, "us");
}

// ---- embed_point, embed_scan, cold_scan ---------------------------------------

/// What a client of an embedded workload needs.
struct Embedded<'a> {
    engine: &'a Engine,
    /// Prepared plans by request index; `None` runs the whole pipeline.
    plans: Option<&'a [QueryPlan]>,
    universe: &'a Universe,
    expect: &'a [Expect],
    seed: u64,
}

impl<'a> Embedded<'a> {
    /// One client. Without a recorder it calls what an embedder calls; with
    /// one, the same requests run with a span around every public call.
    fn op(&self, mut rec: Option<&'a mut Recorder>, tally: &'a mut Tally) -> Op<'a> {
        let Embedded {
            engine,
            plans,
            universe,
            expect,
            seed,
        } = *self;
        let mut stream = Stream::new(universe, seed, 0);
        Box::new(move || {
            let i = stream.next();
            let text = &universe.texts[i];
            let rows = match (rec.as_deref_mut(), plans) {
                (None, Some(plans)) => engine.execute_plan(&plans[i], DOC).ok(),
                (None, None) => engine.query_doc(DOC, text).ok(),
                (Some(rec), plans) => {
                    let root = rec.begin("request");
                    let rows = match plans {
                        Some(plans) => traced_execute(engine, &plans[i], rec, root, tally),
                        None => traced_pipeline(engine, text, rec, root, tally),
                    };
                    rec.end(root);
                    rows
                }
            };
            match rows {
                Some(rows) if rows.len() as u64 == expect[i].rows => {
                    tally.rows += rows.len() as u64;
                    Done::Ok
                }
                _ => Done::Failed,
            }
        })
    }
}

fn embedded(ctx: &mut Ctx<'_>, input: &Input) -> Result<(), String> {
    let workload = ctx.cfg.workload;
    let (xml, universe) = (&input.xml, &input.universe);
    let path = ctx.dir.join("store.mass");
    let pool = if ctx.cfg.smoke {
        spec::SMOKE_POOL_PAGES
    } else {
        spec::COLD_POOL_PAGES
    };
    let build = || match workload {
        Workload::ColdScan => durable_engine(&path, xml, pool, StoreFormat::V2),
        _ => memory_engine(xml),
    };
    let (engine, load_s) = repeat_setup(ctx, build)?;
    setup_layers(ctx, xml, &engine, load_s);

    let expect = expectations(&engine, universe, None)?;
    // Scan workloads run prepared plans: compile and optimize are outside
    // the timing, so the front end contributes nothing.
    let plans: Option<Vec<QueryPlan>> = (workload != Workload::EmbedPoint)
        .then(|| {
            universe
                .texts
                .iter()
                .map(|text| Ok(engine.optimize_plan(engine.compile(text)?, DOC)?.plan))
                .collect::<vamana_core::Result<_>>()
        })
        .transpose()
        .map_err(|e| format!("cannot prepare the plans: {e}"))?;
    let space = space_amp(&engine, &path, xml.len());
    let client = Embedded {
        engine: &engine,
        plans: plans.as_deref(),
        universe,
        expect: &expect,
        seed: ctx.cfg.seed,
    };
    let counters = || Counters::read(&engine, None);

    let mut tally = Tally::default();
    if !ctx.cfg.trace {
        let (phase, before, after) = run_phase(
            ctx.warm(),
            whole(ctx),
            vec![client.op(None, &mut tally)],
            counters,
        );
        let summary = end_to_end(ctx, &phase, &phase.clients, space)?;
        counter_layers(ctx, &before, &after, summary.attempted, 0)?;
    } else {
        let (reference, before, after) = run_phase(
            ctx.warm(),
            half(ctx),
            vec![client.op(None, &mut tally)],
            counters,
        );
        let ops = reference.clients[0].samples.len() as u64;
        counter_layers(ctx, &before, &after, ops, 0)?;
        ctx.layer(
            "core.exec.rows_per_op",
            tally.rows as f64 / ops.max(1) as f64,
        );

        let mut rec = Recorder::new(Instant::now());
        let mut tally = Tally::default();
        let ops = vec![client.op(Some(&mut rec), &mut tally)];
        let (traced, (), ()) = run_phase(Duration::ZERO, half(ctx), ops, || ());
        let trace = Trace { clients: vec![rec] };
        span_layers(ctx, &trace, &[tally], "request");
        overhead_layers(ctx, &reference, &traced, 1);
        analysis_layers(ctx, universe, &engine);
        write_trace(ctx, &trace)?;
    }
    drop(engine);
    if !ctx.cfg.trace {
        repeat_setup(ctx, build)?;
    }
    check_oracle(ctx, input, &expect)
}

/// Bytes stored per byte of XML: the store's pages plus, for a durable
/// store, its write-ahead log.
fn space_amp(engine: &Engine, path: &Path, xml_bytes: usize) -> f64 {
    let wal_bytes = std::fs::metadata(wal_path(path)).map_or(0, |m| m.len());
    (engine.store().stats().disk_bytes() + wal_bytes) as f64 / xml_bytes as f64
}

/// `<store>.wal`, where a durable store keeps its log.
fn wal_path(store: &Path) -> PathBuf {
    let mut p = store.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

// ---- serve_point, serve_write --------------------------------------------------

/// One request over the wire; with a recorder, a `request` span holding one
/// `client.round_trip` span. Returns the reply and the round-trip time.
fn round_trip(
    client: &mut Client,
    line: &str,
    rec: Option<&mut Recorder>,
) -> (std::io::Result<wire::Reply>, u64) {
    match rec {
        Some(rec) => {
            let root = rec.begin("request");
            let timed = rec.child(root, "client.round_trip", || client.request(line));
            rec.end(root);
            timed
        }
        None => {
            let start = Instant::now();
            let reply = client.request(line);
            (reply, start.elapsed().as_nanos() as u64)
        }
    }
}

/// A reader connection: replays the point stream as `QUERY DOC 0 <xpath>`
/// under the default `LIMIT` and checks every response.
struct Reader<'a> {
    client: Client,
    stream: Stream<'a>,
    universe: &'a Universe,
    expect: &'a [Expect],
    line: String,
    tally: Tally,
}

impl Reader<'_> {
    /// One request, split into the service time the server reports and the
    /// rest of the round trip (queueing + I/O).
    fn step(&mut self, rec: Option<&mut Recorder>) -> Done {
        let i = self.stream.next();
        self.line.clear();
        self.line.push_str("QUERY DOC 0 ");
        self.line.push_str(&self.universe.texts[i]);
        let (reply, ns) = round_trip(&mut self.client, &self.line, rec);
        if let Some(service) = reply.as_ref().ok().and_then(wire::Reply::service_us) {
            self.tally.service_us.push(service as f64);
            self.tally
                .queue_io_us
                .push(ns as f64 / 1e3 - service as f64);
        }
        match reply {
            Ok(reply) if answers(&reply, &self.expect[i]) => {
                self.tally.rows += self.expect[i].rows;
                self.tally.bytes += reply.bytes as u64;
                Done::Ok
            }
            _ => Done::Failed,
        }
    }
}

/// The foreground connection of `serve_write`: INSERT a small fragment
/// under a Zipf-drawn person, DELETE it [`spec::DELETE_LAG`] inserts later,
/// CHECKPOINT every so many writes. The fragment holds no text, so the
/// string-values the background reads return never change.
struct Writer<'a> {
    client: Client,
    stream: Stream<'a>,
    wal: PathBuf,
    checkpoint_every: u64,
    next_seq: u64,
    /// Acknowledged inserts not yet deleted: `(person, seq)`.
    pending: VecDeque<(usize, u64)>,
    delete_next: bool,
    since_checkpoint: u64,
    checkpoints: u64,
    checkpoint_ms: Vec<f64>,
    wal_bytes: u64,
    wal_updates: u64,
}

impl Writer<'_> {
    fn step(&mut self, rec: Option<&mut Recorder>) -> Done {
        if self.since_checkpoint >= self.checkpoint_every {
            return self.checkpoint();
        }
        let deleting = self.delete_next && self.pending.len() > spec::DELETE_LAG;
        let line = if deleting {
            let (person, seq) = self.pending[0];
            format!("DELETE 0 //person[@id='person{person}']/trajnote[@seq='{seq}']")
        } else {
            let person = self.stream.draw(0);
            self.pending.push_back((person, self.next_seq));
            format!(
                "INSERT 0 //person[@id='person{person}'] <trajnote seq=\"{}\"/>",
                self.next_seq
            )
        };
        let (reply, _) = round_trip(&mut self.client, &line, rec);
        let changed = if deleting { "deleted=" } else { "inserted=" };
        let ok = reply.is_ok_and(|r| {
            r.ok() && r.field("matched=") == Some(1) && r.field(changed).is_some_and(|n| n > 0)
        });
        if deleting {
            // Acknowledged or not, the fragment is no longer owed.
            self.pending.pop_front();
        } else {
            self.next_seq += 1;
            if !ok {
                self.pending.pop_back();
            }
        }
        self.delete_next = !deleting;
        self.since_checkpoint += 1;
        if ok {
            Done::Ok
        } else {
            Done::Failed
        }
    }

    fn checkpoint(&mut self) -> Done {
        self.wal_bytes += std::fs::metadata(&self.wal).map_or(0, |m| m.len());
        self.wal_updates += self.since_checkpoint;
        self.since_checkpoint = 0;
        let start = Instant::now();
        let ok = self.client.request("CHECKPOINT").is_ok_and(|r| r.ok());
        self.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if ok {
            self.checkpoints += 1;
            Done::Untimed
        } else {
            Done::Failed
        }
    }
}

/// The clients of a phase, foreground first. With `recs` (one per client)
/// every request is traced.
fn wire_clients<'c>(
    writer: &'c mut Option<Writer<'_>>,
    readers: &'c mut [Reader<'_>],
    recs: Option<&'c mut [Recorder]>,
) -> Vec<Op<'c>> {
    let mut recs = recs.into_iter().flatten();
    let mut ops: Vec<Op<'c>> = Vec::new();
    if let Some(writer) = writer {
        let mut rec = recs.next();
        ops.push(Box::new(move || writer.step(rec.as_deref_mut())));
    }
    for reader in readers {
        let mut rec = recs.next();
        ops.push(Box::new(move || reader.step(rec.as_deref_mut())));
    }
    ops
}

fn served(ctx: &mut Ctx<'_>, input: &Input) -> Result<(), String> {
    let writes = ctx.cfg.workload == Workload::ServeWrite;
    let (xml, universe) = (&input.xml, &input.universe);
    let path = ctx.dir.join("store.mass");
    let pool = hot_pool_pages(xml);
    let build = || {
        let (engine, load_s) = if writes {
            durable_engine(&path, xml, pool, StoreFormat::V1)?
        } else {
            memory_engine(xml)?
        };
        Ok((serve(engine)?, load_s))
    };
    let (handle, load_s) = repeat_setup(ctx, build)?;
    let addr = handle.addr();
    let defaults = ServerConfig::default();
    let render = RenderOptions {
        limit: defaults.default_limit,
        value_width: defaults.value_width,
    };
    let expect = {
        let engine = handle.shared().engine().read();
        setup_layers(ctx, xml, &engine, load_s);
        expectations(&engine, universe, Some(&render))?
    };
    check_wire(ctx, universe, addr, &expect)?;

    let seed = ctx.cfg.seed;
    let mut writer = writes
        .then(|| {
            Ok::<_, String>(Writer {
                client: connect(addr)?,
                stream: Stream::new(universe, seed, 0),
                wal: wal_path(&path),
                checkpoint_every: ctx.checkpoint_every(),
                next_seq: 0,
                pending: VecDeque::new(),
                delete_next: false,
                since_checkpoint: 0,
                checkpoints: 0,
                checkpoint_ms: Vec::new(),
                wal_bytes: 0,
                wal_updates: 0,
            })
        })
        .transpose()?;
    // serve_point: two reader connections. serve_write: the writer in the
    // foreground and one reader as background load.
    let lanes: &[u64] = if writes { &[1] } else { &[0, 1] };
    let mut readers = lanes
        .iter()
        .map(|&lane| {
            Ok(Reader {
                client: connect(addr)?,
                stream: Stream::new(universe, seed, lane),
                universe,
                expect: &expect,
                line: String::new(),
                tally: Tally::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let counters = || Counters::read(&handle.shared().engine().read(), Some(&handle));
    let measured = if ctx.cfg.trace { half(ctx) } else { whole(ctx) };
    let (phase, before, after) = run_phase(
        ctx.warm(),
        measured,
        wire_clients(&mut writer, &mut readers, None),
        counters,
    );
    // The foreground of serve_write is its writer, client 0.
    let foreground = if writes { 1 } else { phase.clients.len() };
    let ops: u64 = phase.clients.iter().map(|c| c.samples.len() as u64).sum();
    let updates = if writes {
        phase.clients[0].samples.len() as u64
    } else {
        0
    };
    counter_layers(ctx, &before, &after, ops, updates)?;

    if !ctx.cfg.trace {
        let space = space_amp(&handle.shared().engine().read(), &path, xml.len());
        end_to_end(ctx, &phase, &phase.clients[..foreground], space)?;
        let checkpoints = after.checkpoints - before.checkpoints;
        if writes && checkpoints < 2 {
            ctx.mis_sized(format!("{checkpoints} checkpoint(s) ran, 2 needed"))?;
        }
    } else {
        let reads = &phase.clients[writes as usize..];
        let read_ops = reads.iter().map(|c| c.samples.len()).sum::<usize>().max(1) as f64;
        let sum = |f: fn(&Tally) -> u64| readers.iter().map(|r| f(&r.tally)).sum::<u64>() as f64;
        ctx.layer("core.exec.rows_per_op", sum(|t| t.rows) / read_ops);
        ctx.layer("server.response_bytes_per_op", sum(|t| t.bytes) / read_ops);
        if writes {
            let background = summarize(&phase, &phase.clients[1..2]);
            ctx.layer("server.bg_read_p50_us", background.raw[1]);
            ctx.layer("server.bg_reads_per_s", background.raw[0]);
        }

        let epoch = Instant::now();
        let mut recs: Vec<Recorder> = phase.clients.iter().map(|_| Recorder::new(epoch)).collect();
        let ops = wire_clients(&mut writer, &mut readers, Some(&mut recs));
        let (traced, (), ()) = run_phase(Duration::ZERO, half(ctx), ops, || ());
        overhead_layers(ctx, &phase, &traced, foreground);

        // The same requests in process, on the server's own engine: what
        // the wire adds is the round trip minus this.
        let mut replay = Recorder::new(epoch);
        let mut tally = Tally::default();
        {
            let engine = handle.shared().engine().read();
            let mut stream = Stream::new(universe, seed, 0);
            for _ in 0..if ctx.cfg.smoke { 50 } else { 2000 } {
                let text = &universe.texts[stream.next()];
                let root = replay.begin("replay");
                if let Some(rows) = traced_pipeline(&engine, text, &mut replay, root, &mut tally) {
                    replay.child(root, "server.render", || {
                        render_rows(&engine, &rows, &render).is_ok()
                    });
                }
                replay.end(root);
            }
            analysis_layers(ctx, universe, &engine);
        }
        let pipeline_us = median(std::mem::take(&mut tally.pipeline_us));
        recs.push(replay);
        let trace = Trace { clients: recs };
        span_layers(ctx, &trace, &[tally], "replay");
        let gather = |f: fn(&Tally) -> &Vec<f64>| -> Vec<f64> {
            readers.iter().flat_map(|r| f(&r.tally)).copied().collect()
        };
        let (service, queue_io) = (gather(|t| &t.service_us), gather(|t| &t.queue_io_us));
        let round_trip_us = median(service.iter().zip(&queue_io).map(|(s, q)| s + q).collect());
        let render_us = trace.median_us("server.render");
        ctx.layer("server.round_trip_us", round_trip_us);
        ctx.layer("server.service_us", median(service));
        ctx.layer("server.queue_io_us", median(queue_io));
        ctx.layer("server.render_us", render_us);
        ctx.layer(
            "server.wire_overhead_us",
            round_trip_us - pipeline_us - render_us,
        );
        ctx.layer("server.wire_gap_x", round_trip_us / pipeline_us.max(1e-9));
        if !writes {
            let hop = router_hop(ctx, universe, addr, &expect)?;
            ctx.layer("router.hop_us", hop);
        }
        write_trace(ctx, &trace)?;
    }

    drop(readers);
    let Some(writer) = writer else {
        handle.stop();
        if !ctx.cfg.trace {
            repeat_setup(ctx, build)?;
        }
        return check_oracle(ctx, input, &expect);
    };
    if ctx.cfg.trace {
        ctx.layer(
            "mass.store.checkpoint_ms",
            median(writer.checkpoint_ms.clone()),
        );
        ctx.layer(
            "mass.wal.bytes_per_update",
            writer.wal_bytes as f64 / writer.wal_updates.max(1) as f64,
        );
    }
    ctx.extra("checkpoints", writer.checkpoints as f64, "count");
    // Durability: stop the server without a final checkpoint, recover from
    // the page file and the log alone, and read back every insert that was
    // acknowledged and not deleted. (Every commit was fsynced, so stopping
    // the process loses nothing a power cut would have kept.)
    let owed = writer.pending;
    handle.stop();
    let start = Instant::now();
    let store =
        MassStore::open_durable(&path, pool, FSYNC).map_err(|e| format!("recovery failed: {e}"))?;
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    let replayed = store.wal_stats().replayed_records;
    ctx.extra("recovery.replayed_records", replayed as f64, "count");
    if ctx.cfg.trace {
        ctx.layer("mass.store.recovery_ms", recovery_ms);
    }
    let engine = Engine::new(store);
    for (person, seq) in owed {
        let target = format!("//person[@id='person{person}']/trajnote[@seq='{seq}']");
        let found = engine
            .query_doc(DOC, &target)
            .is_ok_and(|rows| rows.len() == 1);
        ctx.check(
            &format!("durability of acknowledged insert {target}"),
            found,
        );
    }
    drop(engine);
    if !ctx.cfg.trace {
        repeat_setup(ctx, build)?;
    }
    check_oracle(ctx, input, &expect)
}

/// What one router hop adds: 200 sampled requests through an in-process
/// router over the same server, minus the same requests sent directly.
/// Diagnostic only; a router *workload* on two cores would measure the
/// scheduler.
fn router_hop(
    ctx: &mut Ctx<'_>,
    universe: &Universe,
    server: SocketAddr,
    expect: &[Expect],
) -> Result<f64, String> {
    let config = RouterConfig {
        shards: vec![(server.to_string(), Vec::new())],
        ..RouterConfig::default()
    };
    let router = Router::start(config).map_err(|e| format!("cannot start the router: {e}"))?;
    let mut direct = connect(server)?;
    let mut routed = connect(router.addr())?;
    let mut stream = Stream::new(universe, ctx.cfg.seed, 2);
    let (mut direct_us, mut routed_us) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let i = stream.next();
        let line = format!("QUERY DOC 0 {}", universe.texts[i]);
        for (client, times) in [(&mut direct, &mut direct_us), (&mut routed, &mut routed_us)] {
            let start = Instant::now();
            let reply = client.request(&line);
            times.push(start.elapsed().as_secs_f64() * 1e6);
            let ok = reply.is_ok_and(|r| answers(&r, &expect[i]));
            ctx.check(&format!("routed and direct answers to {line}"), ok);
        }
    }
    drop(routed);
    router.stop();
    Ok(median(routed_us) - median(direct_us))
}
