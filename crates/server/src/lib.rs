//! # vamana-server
//!
//! A concurrent query service over one shared VAMANA engine: a TCP
//! line protocol multiplexed by a nonblocking event core, executed by a
//! worker thread pool, with a compiled-plan cache, bounded-queue
//! admission control, per-query deadlines, and a metrics registry.
//!
//! ## Protocol
//!
//! The authoritative wire grammar lives in `DESIGN.md` ("Wire
//! protocol"). One request per line, UTF-8; every request produces one
//! or more response lines ending with `OK …` or a single
//! `ERR <kind> <message>`. The verbs:
//!
//! ```text
//! QUERY [DOC <doc>] <xpath>   rows over all (or one) document(s)
//! EVAL [DOC <doc>] <xpath>    full XPath on document 0 (or <doc>)
//! EXPLAIN [JSON] [DOC <doc>] <xpath>   plans + optimizer trace
//! ANALYZE [JSON] [DOC <doc>] <xpath>   instrumented run
//! LOADXML <name> <xml>        load inline XML
//! LOAD <name> <path>          load an XML file
//! INSERT <doc> <target-xpath> <fragment>
//! DELETE <doc> <target-xpath>
//! CHECKPOINT                  fold WAL into pages, truncate
//! LIMIT <n>                   per-connection row cap (0 = unlimited)
//! STATS                       metrics snapshot
//! DOCS                        loaded documents, in load order
//! CACHE [LIST] | CACHE CLEAR  answers kept by the result memo
//! LAG                         replication gauges
//! REPLICATE <from_lsn>        become a WAL frame feed
//! PING / QUIT
//! ```
//!
//! On a server configured as a replica ([`ServerConfig::replica`]),
//! every mutating verb answers `ERR readonly` naming the primary. The
//! `DOC`-scoped read forms exist for front tiers: `vamana-router`
//! scatters a cross-document `QUERY` as per-document `QUERY DOC` calls
//! to the shards that own each document and concatenates the results in
//! global load order (which is exactly single-store document order,
//! because FLEX keys order by load ordinal).
//!
//! ## Threading model
//!
//! One event-loop thread owns every connection socket nonblockingly (see
//! [`event`]); requests are parsed pipelined and idle connections cost no
//! threads. A fixed worker pool executes jobs against the shared engine.
//! The queue between parser and workers is bounded:
//! a full queue rejects at admission with `ERR busy` rather than
//! queueing unboundedly, and every job carries a deadline checked when
//! dequeued and between result batches. Control-plane verbs (`STATS`,
//! `LAG`, `CACHE`, `DOCS`) bypass the capacity check so monitoring and
//! router health probes stay answerable under saturation. Updates and
//! checkpoints additionally serialize on a single-writer lane.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLockReadGuard};
use std::time::{Duration, Instant};

use vamana_core::{exec::BATCH_SIZE, DocId, Engine, NodeEntry, SharedEngine, UpdateOp, Value};

pub mod cache;
pub mod event;
mod feed;
pub mod metrics;
pub mod poll;
pub mod pool;
pub mod render;
pub mod testkit;

pub use cache::PlanCache;
pub use metrics::Metrics;
pub use render::{render_rows, RenderOptions, Rendered};

use event::{Completions, ConnId, Dispatch, LineService};
use metrics::ActiveGuard;
use pool::WorkerPool;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Jobs admitted but not yet running; beyond this, `ERR busy`.
    pub queue_depth: usize,
    /// Per-query deadline, from admission to last tuple.
    pub query_timeout: Duration,
    /// Compiled plans cached across queries.
    pub plan_cache_size: usize,
    /// Default per-connection row cap (`LIMIT` overrides; 0 = unlimited).
    pub default_limit: usize,
    /// Characters of string-value shown per row.
    pub value_width: usize,
    /// Threads one query's scan may use, the worker running the query
    /// included (`EngineOptions::parallel_workers`), applied to the
    /// engine at bind time. `0` leaves the engine's own setting (one
    /// per core by default) untouched; `1` keeps every scan serial.
    pub scan_workers: usize,
    /// Committed WAL frames retained for replication catch-up on durable
    /// stores. A follower whose resume LSN has aged out of this window
    /// is snapshot-shipped instead of streamed.
    pub repl_retain: usize,
    /// How long an idle replication feed waits for new commits before
    /// emitting a heartbeat frame (followers use it for lag and
    /// liveness).
    pub feed_heartbeat: Duration,
    /// `Some` turns this server into a read-only replica: write verbs
    /// return a redirect error naming the primary, and `LAG`/`STATS`
    /// report the sync status the replica runtime keeps here.
    pub replica: Option<ReplicaRole>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            query_timeout: Duration::from_secs(10),
            plan_cache_size: 256,
            default_limit: 20,
            value_width: 200,
            scan_workers: 0,
            repl_retain: vamana_mass::DEFAULT_RETAIN_FRAMES,
            feed_heartbeat: Duration::from_millis(200),
            replica: None,
        }
    }
}

/// Live sync counters a replica runtime shares with its read-only
/// server (reported by `LAG` and `STATS`).
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    /// LSN of the last frame received from the primary.
    pub received_lsn: AtomicU64,
    /// LSN of the last commit applied to the local store.
    pub applied_lsn: AtomicU64,
    /// The primary's last committed LSN as of the latest frame or
    /// heartbeat.
    pub primary_last_lsn: AtomicU64,
    /// Whether the feed connection is currently up.
    pub connected: AtomicBool,
    /// Reconnect attempts since start.
    pub reconnects: AtomicU64,
    /// Snapshot installs since start.
    pub snapshots: AtomicU64,
    /// Total frames received (including heartbeats).
    pub frames: AtomicU64,
}

/// Marks a server as a read-only replica of `primary`.
#[derive(Debug, Clone)]
pub struct ReplicaRole {
    /// Address writes should be redirected to.
    pub primary: String,
    /// Shared sync status, updated by the replica's sync loop.
    pub status: Arc<ReplicaStatus>,
}

/// Errors a job can produce (I/O errors are handled per connection).
#[derive(Debug)]
pub enum ServerError {
    /// Rejected at admission: queue full.
    Busy,
    /// Deadline exceeded, queued or mid-execution.
    Timeout(Duration),
    /// Compile or execution failure.
    Query(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Busy => write!(f, "busy server at capacity, retry later"),
            ServerError::Timeout(t) => write!(f, "timeout query exceeded {}ms", t.as_millis()),
            ServerError::Query(msg) => write!(f, "query {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared by the event loop and the workers.
pub struct Shared {
    engine: Arc<SharedEngine>,
    cache: PlanCache,
    metrics: Metrics,
    config: ServerConfig,
    stopping: AtomicBool,
    /// Single-writer lane: updates and checkpoints serialize here
    /// *before* taking the engine write lock, so at most one worker
    /// blocks readers at a time and the rest queue with their deadlines
    /// still ticking.
    writer_lane: Mutex<()>,
    /// Replication feed connections currently streaming.
    feeds: AtomicU64,
}

impl Shared {
    /// The engine behind the service.
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.engine
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Read access to the engine for a request, the wait for it added to
    /// `reader_wait_us`.
    fn read_engine(&self) -> RwLockReadGuard<'_, Engine> {
        let asked = Instant::now();
        let engine = self.engine.read();
        let waited = asked.elapsed().as_micros() as u64;
        self.metrics
            .reader_wait_us
            .fetch_add(waited, Ordering::Relaxed);
        engine
    }
}

/// Where a `LOAD`/`LOADXML` payload comes from.
enum LoadSource {
    /// Inline XML on the request line.
    Inline(String),
    /// A path readable by the server process.
    File(String),
}

/// What one pooled job asks for.
enum Request {
    Query {
        xpath: String,
        doc: Option<String>,
    },
    Eval {
        xpath: String,
        doc: Option<String>,
    },
    Explain {
        xpath: String,
        json: bool,
        doc: Option<String>,
    },
    Analyze {
        xpath: String,
        json: bool,
        doc: Option<String>,
    },
    Update {
        doc: String,
        op: UpdateOp,
    },
    Checkpoint,
    Load {
        name: String,
        source: LoadSource,
    },
    Stats,
    Docs,
    CacheList,
    CacheClear,
    Lag,
}

impl Request {
    /// Control-plane requests skip the query metrics (and are submitted
    /// on the control lane, bypassing admission capacity).
    fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Stats
                | Request::Docs
                | Request::CacheList
                | Request::CacheClear
                | Request::Lag
        )
    }
}

/// Where a job's response goes: back into the event loop, as serialized
/// bytes for line `seq` of connection `conn`.
pub(crate) struct ReplyTo {
    completions: Completions,
    conn: ConnId,
    seq: u64,
}

impl ReplyTo {
    fn deliver(self, result: Result<Outcome, ServerError>) {
        self.completions
            .complete(self.conn, self.seq, reply_bytes(&result));
    }
}

/// One unit of work handed to the pool.
pub struct Job {
    request: Request,
    limit: usize,
    deadline: Instant,
    reply: ReplyTo,
}

/// A successful job result, ready to serialize.
enum Outcome {
    Rows {
        rendered: Rendered,
        cached: bool,
        elapsed: Duration,
        buffer_hits: u64,
        buffer_misses: u64,
        batch_pins: u64,
        pins_saved: u64,
    },
    Scalar {
        text: String,
        elapsed: Duration,
    },
    /// An `EXPLAIN`/`ANALYZE` report: each line goes out as `PLAN …`.
    Report {
        lines: Vec<String>,
        elapsed: Duration,
    },
    /// An applied `INSERT`/`DELETE`.
    Updated {
        matched: u64,
        inserted: u64,
        deleted: u64,
        lsn: u64,
        generation: u64,
        writer_wait: Duration,
        elapsed: Duration,
    },
    /// A completed `CHECKPOINT`.
    Checkpointed {
        records: u64,
        last_lsn: u64,
        elapsed: Duration,
    },
    /// A completed `LOAD`/`LOADXML`.
    Loaded {
        id: u32,
        generation: u64,
    },
    /// Pre-formatted protocol lines plus the terminator (`STATS`,
    /// `DOCS`, `CACHE`, `LAG`).
    Lines {
        lines: Vec<String>,
        ok: String,
    },
}

fn query_err(e: impl std::fmt::Display) -> ServerError {
    ServerError::Query(e.to_string())
}

/// Runs one job on a worker thread and replies to its connection.
pub(crate) fn execute_job(shared: &Shared, job: Job) {
    let _active = ActiveGuard::enter(&shared.metrics);
    let now = Instant::now();
    // Control verbs are not deadline-bound: STATS/LAG must answer even
    // under an aggressive query-timeout policy.
    if now >= job.deadline && !job.request.is_control() {
        shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        job.reply
            .deliver(Err(ServerError::Timeout(shared.config.query_timeout)));
        return;
    }
    let result = match &job.request {
        Request::Query { xpath, doc } => {
            run_query(shared, xpath, doc.as_deref(), job.limit, job.deadline)
        }
        Request::Eval { xpath, doc } => run_eval(shared, xpath, doc.as_deref(), job.limit),
        Request::Explain { xpath, json, doc } => run_explain(shared, xpath, *json, doc.as_deref()),
        Request::Analyze { xpath, json, doc } => run_analyze(shared, xpath, *json, doc.as_deref()),
        Request::Update { doc, op } => run_update(shared, doc, op, job.deadline),
        Request::Checkpoint => run_checkpoint(shared, job.deadline),
        Request::Load { name, source } => run_load(shared, name, source),
        Request::Stats => Ok(Outcome::Lines {
            lines: render_stats(shared),
            ok: "OK".into(),
        }),
        Request::Docs => run_docs(shared),
        Request::CacheList => {
            let views = shared.engine.read().views().list();
            let lines = views
                .iter()
                .map(|v| {
                    format!(
                        "VIEW doc={} rows={} bytes={} generation={} hits={} {}",
                        v.doc,
                        v.rows,
                        v.bytes,
                        v.generation,
                        v.hits,
                        escape_line(&v.xpath)
                    )
                })
                .collect::<Vec<_>>();
            Ok(Outcome::Lines {
                ok: format!("OK {} view(s)", lines.len()),
                lines,
            })
        }
        Request::CacheClear => {
            shared.engine.read().views().clear();
            shared.cache.clear();
            Ok(Outcome::Lines {
                lines: Vec::new(),
                ok: "OK cache cleared".into(),
            })
        }
        Request::Lag => Ok(Outcome::Lines {
            lines: render_lag(shared),
            ok: "OK lag".into(),
        }),
    };
    // Control verbs and loads are not queries: keep the latency
    // histogram and error counters meaningful for query traffic.
    let is_query = !job.request.is_control() && !matches!(job.request, Request::Load { .. });
    match &result {
        Ok(outcome) if is_query => {
            shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
            let (elapsed, rows, hits, misses, pins, saved) = match outcome {
                Outcome::Rows {
                    rendered,
                    elapsed,
                    buffer_hits,
                    buffer_misses,
                    batch_pins,
                    pins_saved,
                    ..
                } => (
                    *elapsed,
                    rendered.total as u64,
                    *buffer_hits,
                    *buffer_misses,
                    *batch_pins,
                    *pins_saved,
                ),
                Outcome::Scalar { elapsed, .. }
                | Outcome::Report { elapsed, .. }
                | Outcome::Updated { elapsed, .. }
                | Outcome::Checkpointed { elapsed, .. } => (*elapsed, 0, 0, 0, 0, 0),
                Outcome::Loaded { .. } | Outcome::Lines { .. } => (Duration::ZERO, 0, 0, 0, 0, 0),
            };
            shared.metrics.latency.record(elapsed);
            shared
                .metrics
                .rows_returned
                .fetch_add(rows, Ordering::Relaxed);
            shared
                .metrics
                .buffer_hits
                .fetch_add(hits, Ordering::Relaxed);
            shared
                .metrics
                .buffer_misses
                .fetch_add(misses, Ordering::Relaxed);
            shared.metrics.batch_pins.fetch_add(pins, Ordering::Relaxed);
            shared
                .metrics
                .pins_saved
                .fetch_add(saved, Ordering::Relaxed);
        }
        Ok(_) => {}
        Err(ServerError::Timeout(_)) => {
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) if is_query => {
            shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {}
    }
    job.reply.deliver(result);
}

/// Executes `xpath` over every document (or just `doc`) via the plan
/// cache, enforcing `deadline` between result batches, and renders up
/// to `limit` rows.
fn run_query(
    shared: &Shared,
    xpath: &str,
    doc: Option<&str>,
    limit: usize,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    if engine.store().documents().is_empty() {
        return Err(ServerError::Query(
            "no documents loaded (use LOADXML or LOAD)".into(),
        ));
    }
    let docs: Vec<DocId> = match doc {
        Some(token) => vec![resolve_doc(&engine, token)
            .ok_or_else(|| ServerError::Query(format!("no such document {token}")))?],
        None => (0..engine.store().documents().len() as u32)
            .map(DocId)
            .collect(),
    };
    let start = Instant::now();
    let before = engine.store().buffer_pool().stats();
    let mut parts: Vec<Arc<Vec<NodeEntry>>> = Vec::with_capacity(docs.len());
    let mut all_cached = true;
    for doc in docs {
        // An answer the result memo kept is the reply: nothing to plan
        // or run, reported as `plan=cached`.
        if let Some(kept) = engine.recall(doc, xpath) {
            parts.push(kept);
            continue;
        }
        // Plans validate against the *per-document* generation: an
        // update to one document invalidates exactly that document's
        // cached plans, and loads/updates elsewhere leave them warm.
        let generation = engine.store().doc_generation(doc);
        let plan = match shared.cache.get(xpath, doc, generation) {
            Some(plan) => plan,
            None => {
                all_cached = false;
                let compiled = engine.compile(xpath).map_err(query_err)?;
                let optimized = if engine.options().optimize {
                    engine.optimize_plan(compiled, doc).map_err(query_err)?.plan
                } else {
                    compiled
                };
                let plan = Arc::new(optimized);
                shared
                    .cache
                    .insert(xpath, doc, generation, Arc::clone(&plan));
                plan
            }
        };
        let mut stream = engine
            .stream_plan(Arc::clone(&plan), doc)
            .map_err(query_err)?;
        // Batches land straight in the result buffer — no per-tuple
        // dispatch between the executor and the render path. The
        // deadline is checked once per batch (≤ BATCH_SIZE tuples).
        let mut rows = Vec::new();
        while stream
            .next_batch(&mut rows, BATCH_SIZE)
            .map_err(query_err)?
            > 0
        {
            if Instant::now() >= deadline {
                return Err(ServerError::Timeout(shared.config.query_timeout));
            }
        }
        if Instant::now() >= deadline {
            return Err(ServerError::Timeout(shared.config.query_timeout));
        }
        // XPath node-set semantics: document order, no duplicates — which
        // the stream knows whether it delivered. Keys order by load
        // ordinal across documents, so the per-document sets in load
        // order are the global order, the one a front tier reproduces by
        // concatenating per-document results.
        stream.finish(&mut rows);
        engine.observe_result(doc, xpath, &plan, &rows);
        parts.push(Arc::new(rows));
    }
    // One document's answer is rendered where it lies, a kept one
    // included; several are concatenated.
    let all: Vec<NodeEntry> = match parts.len() {
        1 => Vec::new(),
        _ => parts.drain(..).flat_map(Arc::unwrap_or_clone).collect(),
    };
    let all = parts.first().map_or(&all[..], |one| &one[..]);
    let rendered = render_rows(
        &engine,
        all,
        &RenderOptions {
            limit,
            value_width: shared.config.value_width,
        },
    )
    .map_err(query_err)?;
    // Snapshot after rendering: index-answerable queries do their page
    // reads in string-value extraction, not plan execution.
    let after = engine.store().buffer_pool().stats();
    Ok(Outcome::Rows {
        rendered,
        cached: all_cached,
        elapsed: start.elapsed(),
        buffer_hits: after.hits.saturating_sub(before.hits),
        buffer_misses: after.misses.saturating_sub(before.misses),
        batch_pins: after.batch_pins.saturating_sub(before.batch_pins),
        pins_saved: after.pins_saved.saturating_sub(before.pins_saved),
    })
}

/// Resolves the target document of an `EVAL`/`EXPLAIN`/`ANALYZE`:
/// the `DOC` operand if given, document 0 otherwise.
fn resolve_read_doc(engine: &Engine, doc: Option<&str>) -> Result<DocId, ServerError> {
    if engine.store().documents().is_empty() {
        return Err(ServerError::Query(
            "no documents loaded (use LOADXML or LOAD)".into(),
        ));
    }
    match doc {
        Some(token) => resolve_doc(engine, token)
            .ok_or_else(|| ServerError::Query(format!("no such document {token}"))),
        None => Ok(DocId(0)),
    }
}

/// Evaluates `xpath` as a full XPath expression — scalars come back as
/// `VAL`, node-sets as rows.
fn run_eval(
    shared: &Shared,
    xpath: &str,
    doc: Option<&str>,
    limit: usize,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let doc = resolve_read_doc(&engine, doc)?;
    let start = Instant::now();
    let before = engine.store().buffer_pool().stats();
    let value = engine.evaluate(doc, xpath).map_err(query_err)?;
    let elapsed = start.elapsed();
    match value {
        Value::Nodes(nodes) => {
            let rendered = render_rows(
                &engine,
                &nodes,
                &RenderOptions {
                    limit,
                    value_width: shared.config.value_width,
                },
            )
            .map_err(query_err)?;
            let after = engine.store().buffer_pool().stats();
            Ok(Outcome::Rows {
                rendered,
                cached: false,
                elapsed,
                buffer_hits: after.hits.saturating_sub(before.hits),
                buffer_misses: after.misses.saturating_sub(before.misses),
                batch_pins: after.batch_pins.saturating_sub(before.batch_pins),
                pins_saved: after.pins_saved.saturating_sub(before.pins_saved),
            })
        }
        Value::Num(n) => Ok(Outcome::Scalar {
            text: n.to_string(),
            elapsed,
        }),
        Value::Str(s) => Ok(Outcome::Scalar { text: s, elapsed }),
        Value::Bool(b) => Ok(Outcome::Scalar {
            text: b.to_string(),
            elapsed,
        }),
    }
}

/// Produces the `EXPLAIN` report for `xpath`: both plans with estimate
/// cards plus the optimizer's pass log.
fn run_explain(
    shared: &Shared,
    xpath: &str,
    json: bool,
    doc: Option<&str>,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let doc = resolve_read_doc(&engine, doc)?;
    let start = Instant::now();
    let ex = engine.explain(doc, xpath).map_err(query_err)?;
    let elapsed = start.elapsed();
    let lines = if json {
        vec![explain_json(xpath, &ex)]
    } else {
        let mut text = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(text, "default plan (Σ tuple volume {}):", ex.default_cost);
        text.push_str(&ex.default_plan);
        let _ = writeln!(
            text,
            "optimized plan (Σ tuple volume {}; rules {:?}; {} iteration(s)):",
            ex.optimized_cost, ex.applied, ex.iterations
        );
        text.push_str(&ex.optimized_plan);
        text.push_str("optimizer trace:\n");
        text.push_str(&ex.opt_trace.render());
        text.lines().map(str::to_string).collect()
    };
    Ok(Outcome::Report { lines, elapsed })
}

/// Runs `xpath` with per-operator instrumentation and reports
/// estimated-vs-actual cardinalities (`EXPLAIN ANALYZE`).
fn run_analyze(
    shared: &Shared,
    xpath: &str,
    json: bool,
    doc: Option<&str>,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let doc = resolve_read_doc(&engine, doc)?;
    let analysis = engine.analyze_doc(doc, xpath).map_err(query_err)?;
    let elapsed = analysis.profile.elapsed;
    let lines = if json {
        vec![analysis.render_json()]
    } else {
        let mut text = analysis.render();
        text.push_str("optimizer trace:\n");
        text.push_str(&analysis.opt_trace.render());
        text.lines().map(str::to_string).collect()
    };
    Ok(Outcome::Report { lines, elapsed })
}

/// Resolves a protocol document token — a numeric id or a document
/// name — against the store.
fn resolve_doc(engine: &Engine, token: &str) -> Option<DocId> {
    let docs = engine.store().documents();
    if let Ok(i) = token.parse::<u32>() {
        if (i as usize) < docs.len() {
            return Some(DocId(i));
        }
    }
    docs.iter()
        .position(|d| &*d.name == token)
        .map(|i| DocId(i as u32))
}

/// Applies an `INSERT`/`DELETE` on the single-writer lane: serialize
/// against other writers first (deadline still enforced), then take the
/// engine write lock and route the mutation through
/// [`Engine::apply_update`] — and through the WAL on durable stores.
fn run_update(
    shared: &Shared,
    doc: &str,
    op: &UpdateOp,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let _lane = shared.writer_lane.lock().unwrap_or_else(|p| p.into_inner());
    if Instant::now() >= deadline {
        return Err(ServerError::Timeout(shared.config.query_timeout));
    }
    let mut engine = shared.engine.write();
    let Some(doc) = resolve_doc(&engine, doc) else {
        return Err(ServerError::Query(format!("no such document {doc}")));
    };
    let start = Instant::now();
    let outcome = engine.apply_update(doc, op).map_err(query_err)?;
    // Sweep the written document's superseded plans out of the cache;
    // without this every (xpath, old-generation) pair would linger until
    // individually probed or LRU-evicted.
    shared.cache.purge_doc(doc, outcome.doc_generation);
    shared.metrics.updates.fetch_add(1, Ordering::Relaxed);
    shared.metrics.writer_wait_us.fetch_add(
        outcome.profile.writer_wait.as_micros() as u64,
        Ordering::Relaxed,
    );
    Ok(Outcome::Updated {
        matched: outcome.matched,
        inserted: outcome.inserted,
        deleted: outcome.deleted,
        lsn: outcome.lsn,
        generation: outcome.doc_generation,
        writer_wait: outcome.profile.writer_wait,
        elapsed: start.elapsed(),
    })
}

/// Folds the WAL into the page store under the single-writer lane.
fn run_checkpoint(shared: &Shared, deadline: Instant) -> Result<Outcome, ServerError> {
    let _lane = shared.writer_lane.lock().unwrap_or_else(|p| p.into_inner());
    if Instant::now() >= deadline {
        return Err(ServerError::Timeout(shared.config.query_timeout));
    }
    let start = Instant::now();
    let stats = shared.engine.write().checkpoint().map_err(query_err)?;
    shared.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
    Ok(Outcome::Checkpointed {
        records: stats.depth,
        last_lsn: stats.last_lsn,
        elapsed: start.elapsed(),
    })
}

/// Handles `LOAD`/`LOADXML` on a worker (engine write lock).
fn run_load(shared: &Shared, name: &str, source: &LoadSource) -> Result<Outcome, ServerError> {
    let xml = match source {
        LoadSource::Inline(xml) => xml.clone(),
        LoadSource::File(path) => std::fs::read_to_string(path)
            .map_err(|e| ServerError::Query(format!("cannot read {path}: {e}")))?,
    };
    // No cache clear: plans validate per document, and a load never
    // changes an existing document's generation — other documents'
    // cached plans stay warm.
    let id = shared.engine.load_xml(name, &xml).map_err(query_err)?;
    Ok(Outcome::Loaded {
        id: id.0,
        generation: shared.engine.generation(),
    })
}

/// Lists loaded documents in load order (`DOCS`) — front tiers use this
/// to bootstrap their document registry from running shards.
fn run_docs(shared: &Shared) -> Result<Outcome, ServerError> {
    let engine = shared.engine.read();
    let lines: Vec<String> = engine
        .store()
        .documents()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            format!(
                "DOC {} {} generation={}",
                i,
                d.name,
                engine.store().doc_generation(DocId(i as u32))
            )
        })
        .collect();
    Ok(Outcome::Lines {
        ok: format!("OK {} document(s)", lines.len()),
        lines,
    })
}

/// Hand-rolled JSON for `EXPLAIN JSON` (ANALYZE reuses
/// [`vamana_core::Analysis::render_json`]).
fn explain_json(xpath: &str, ex: &vamana_core::Explain) -> String {
    use std::fmt::Write as _;
    use vamana_core::explain::escape_json;
    let mut s = String::from("{");
    let _ = write!(s, "\"xpath\":\"{}\",", escape_json(xpath));
    let _ = write!(s, "\"default_cost\":{},", ex.default_cost);
    let _ = write!(s, "\"optimized_cost\":{},", ex.optimized_cost);
    let _ = write!(s, "\"iterations\":{},", ex.iterations);
    s.push_str("\"applied\":[");
    for (i, rule) in ex.applied.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape_json(rule));
    }
    let _ = write!(
        s,
        "],\"default_plan\":\"{}\",\"optimized_plan\":\"{}\",\"trace\":[",
        escape_json(&ex.default_plan),
        escape_json(&ex.optimized_plan)
    );
    for (i, line) in ex.opt_trace.render().lines().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", escape_json(line));
    }
    s.push_str("]}");
    s
}

/// Protocol values are single-line: escape the characters that would
/// break framing.
fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// The query service: a TCP listener plus the worker pool behind it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    pool: Arc<WorkerPool<Job>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4050`, port 0 for ephemeral) and
    /// spins up the worker pool over `engine`.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        engine: Engine,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::bind_shared(addr, Arc::new(SharedEngine::new(engine)), config)
    }

    /// Like [`Server::bind`], but over an engine the caller keeps a
    /// handle to — the REPL's `.serve` shares its session engine with
    /// the service this way.
    pub fn bind_shared(
        addr: impl std::net::ToSocketAddrs,
        engine: Arc<SharedEngine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        {
            let mut guard = engine.write();
            if config.scan_workers > 0 {
                guard.options_mut().parallel_workers = config.scan_workers;
            }
            // Durable stores get a replication ring at bind time so the
            // `REPLICATE` feed can serve committed frames; checkpoints
            // truncate only the file log, never this ring.
            if guard.store().is_durable() && guard.store().replication_log().is_none() {
                guard
                    .store_mut()
                    .and_then(|s| {
                        s.attach_replication(config.repl_retain)
                            .map_err(vamana_core::EngineError::Storage)
                    })
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
        let shared = Arc::new(Shared {
            engine,
            cache: PlanCache::new(config.plan_cache_size),
            metrics: Metrics::default(),
            config: config.clone(),
            stopping: AtomicBool::new(false),
            writer_lane: Mutex::new(()),
            feeds: AtomicU64::new(0),
        });
        let pool = {
            let shared = Arc::clone(&shared);
            Arc::new(WorkerPool::new(
                config.workers,
                config.queue_depth,
                "vamana-worker",
                move |job| execute_job(&shared, job),
            ))
        };
        Ok(Server {
            listener,
            shared,
            pool,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state, for embedding (the REPL inspects metrics).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Serves until [`ServerHandle::stop`] flips the stop flag (or
    /// forever when run directly): one event-loop thread for every
    /// connection (see [`event`]).
    pub fn run(self) -> std::io::Result<()> {
        let completions = Completions::new()?;
        let service = Arc::new(EventService {
            shared: Arc::clone(&self.shared),
            pool: Arc::clone(&self.pool),
            completions: completions.clone(),
            limits: Mutex::new(HashMap::new()),
        });
        let shared = Arc::clone(&self.shared);
        event::run_event_loop(self.listener, service, completions, move || {
            shared.stopping.load(Ordering::SeqCst)
        })
    }

    /// Runs the connection core on a background thread, returning a
    /// handle to stop it (used by tests and the REPL's `.serve`).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("vamana-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// A running server; dropping it stops the accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (metrics, cache, engine) of the running server.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Stops accepting and joins the connection core. Existing
    /// connections finish their in-flight request and then fail on the
    /// next read.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake the poller with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// What the shared request parser decided about one line.
enum Parsed {
    /// Answer immediately with this one line (no trailing newline).
    Inline(String),
    /// Submit on the admission-controlled lane.
    Job(Request),
    /// Submit on the control lane (no capacity rejection).
    Control(Request),
    /// Set the per-connection row cap.
    Limit(usize),
    /// `QUIT`.
    Quit,
    /// `REPLICATE <from>`: the connection becomes a WAL frame feed.
    Feed(u64),
}

/// Parses one request line into a [`Parsed`] action.
fn parse_line(config: &ServerConfig, request: &str) -> Parsed {
    let (verb, rest) = match request.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (request, ""),
    };
    // A replica is read-only: every mutating verb is redirected to
    // the primary (queries, stats and lag checks proceed normally).
    if let Some(role) = &config.replica {
        if matches!(
            verb,
            "LOADXML" | "LOAD" | "INSERT" | "DELETE" | "CHECKPOINT"
        ) {
            return Parsed::Inline(format!(
                "ERR readonly replica; send writes to the primary at {}",
                role.primary
            ));
        }
    }
    match verb {
        "PING" => Parsed::Inline("OK pong".into()),
        "QUIT" => Parsed::Quit,
        "LIMIT" => match rest.parse::<usize>() {
            Ok(n) => Parsed::Limit(n),
            Err(_) => Parsed::Inline("ERR proto LIMIT needs a non-negative integer".into()),
        },
        "STATS" => Parsed::Control(Request::Stats),
        "DOCS" => Parsed::Control(Request::Docs),
        // Result-memo inspection. Allowed on replicas: the memo is
        // node-local derived state, not document data.
        "CACHE" => match rest {
            "" | "LIST" => Parsed::Control(Request::CacheList),
            "CLEAR" => Parsed::Control(Request::CacheClear),
            _ => Parsed::Inline("ERR proto CACHE takes LIST or CLEAR".into()),
        },
        "LAG" => Parsed::Control(Request::Lag),
        "REPLICATE" => match rest.parse::<u64>() {
            Ok(from) => Parsed::Feed(from),
            Err(_) => Parsed::Inline("ERR proto REPLICATE needs a starting LSN".into()),
        },
        "LOADXML" | "LOAD" => {
            let Some((name, payload)) = rest.split_once(' ').map(|(n, p)| (n, p.trim())) else {
                return Parsed::Inline(format!("ERR proto {verb} needs a name and a payload"));
            };
            let source = if verb == "LOAD" {
                LoadSource::File(payload.to_string())
            } else {
                LoadSource::Inline(payload.to_string())
            };
            Parsed::Job(Request::Load {
                name: name.to_string(),
                source,
            })
        }
        "INSERT" | "DELETE" | "CHECKPOINT" => match parse_update(verb, rest) {
            Ok(request) => Parsed::Job(request),
            Err(msg) => Parsed::Inline(format!("ERR proto {msg}")),
        },
        "QUERY" | "EVAL" | "EXPLAIN" | "ANALYZE" => {
            // EXPLAIN/ANALYZE take an optional JSON modifier, and every
            // read verb an optional DOC scope, before the expression:
            // `EXPLAIN JSON DOC auction //a/b`.
            let (json, rest) = match rest.strip_prefix("JSON") {
                Some(r) if r.starts_with(' ') && matches!(verb, "EXPLAIN" | "ANALYZE") => {
                    (true, r.trim())
                }
                _ => (false, rest),
            };
            let (doc, xpath) = match rest.strip_prefix("DOC ") {
                Some(r) => match r.trim_start().split_once(' ') {
                    Some((d, x)) => (Some(d.to_string()), x.trim()),
                    None => {
                        return Parsed::Inline(format!(
                            "ERR proto {verb} DOC needs a document and an XPath expression"
                        ))
                    }
                },
                None => (None, rest),
            };
            if xpath.is_empty() {
                return Parsed::Inline(format!("ERR proto {verb} needs an XPath expression"));
            }
            let xpath = xpath.to_string();
            Parsed::Job(match verb {
                "QUERY" => Request::Query { xpath, doc },
                "EVAL" => Request::Eval { xpath, doc },
                "EXPLAIN" => Request::Explain { xpath, json, doc },
                _ => Request::Analyze { xpath, json, doc },
            })
        }
        _ => Parsed::Inline(format!("ERR proto unknown request {verb}")),
    }
}

/// The [`LineService`] adapter running the VAMANA protocol on the
/// nonblocking core: cheap verbs answer inline on the loop, everything
/// touching the engine dispatches to the worker pool and completes
/// asynchronously.
struct EventService {
    shared: Arc<Shared>,
    pool: Arc<WorkerPool<Job>>,
    completions: Completions,
    /// Per-connection `LIMIT` overrides.
    limits: Mutex<HashMap<ConnId, usize>>,
}

impl EventService {
    fn limit_for(&self, conn: ConnId) -> usize {
        *self
            .limits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&conn)
            .unwrap_or(&self.shared.config.default_limit)
    }

    fn submit(&self, conn: ConnId, seq: u64, request: Request, control: bool) -> Dispatch {
        let job = Job {
            limit: self.limit_for(conn),
            deadline: Instant::now() + self.shared.config.query_timeout,
            reply: ReplyTo {
                completions: self.completions.clone(),
                conn,
                seq,
            },
            request,
        };
        let submitted = if control {
            self.pool.submit(job)
        } else {
            self.pool.try_submit(job)
        };
        match submitted {
            Ok(()) => Dispatch::Pending,
            Err(_) => {
                self.shared
                    .metrics
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Dispatch::Reply(format!("ERR {}\n", ServerError::Busy).into_bytes())
            }
        }
    }
}

impl LineService for EventService {
    fn handle(&self, conn: ConnId, seq: u64, line: &str) -> Dispatch {
        match parse_line(&self.shared.config, line) {
            Parsed::Inline(reply) => Dispatch::Reply(format!("{reply}\n").into_bytes()),
            Parsed::Limit(n) => {
                self.limits
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(conn, n);
                Dispatch::Reply(format!("OK limit {n}\n").into_bytes())
            }
            Parsed::Quit => Dispatch::ReplyClose(b"OK bye\n".to_vec()),
            Parsed::Feed(from) => {
                let shared = Arc::clone(&self.shared);
                Dispatch::Handoff(Box::new(move |stream| {
                    let _ = feed::serve_feed(stream, &shared, from);
                }))
            }
            Parsed::Job(request) => self.submit(conn, seq, request, false),
            Parsed::Control(request) => self.submit(conn, seq, request, true),
        }
    }

    fn on_open(&self, _conn: ConnId) {
        self.shared
            .metrics
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_close(&self, conn: ConnId) {
        self.limits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&conn);
    }
}

/// Serializes a job result into protocol bytes.
fn reply_bytes(result: &Result<Outcome, ServerError>) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut out = String::new();
    match result {
        Ok(Outcome::Rows {
            rendered,
            cached,
            elapsed,
            buffer_hits,
            buffer_misses,
            ..
        }) => {
            for row in &rendered.lines {
                let _ = writeln!(out, "ROW {}", escape_line(row));
            }
            let _ = writeln!(
                out,
                "OK {} row(s) plan={} {}us hits={} misses={}",
                rendered.total,
                if *cached { "cached" } else { "compiled" },
                elapsed.as_micros(),
                buffer_hits,
                buffer_misses
            );
        }
        Ok(Outcome::Scalar { text, elapsed }) => {
            let _ = writeln!(out, "VAL {}", escape_line(text));
            let _ = writeln!(out, "OK scalar {}us", elapsed.as_micros());
        }
        Ok(Outcome::Report { lines, elapsed }) => {
            for line in lines {
                let _ = writeln!(out, "PLAN {}", escape_line(line));
            }
            let _ = writeln!(out, "OK {} line(s) {}us", lines.len(), elapsed.as_micros());
        }
        Ok(Outcome::Updated {
            matched,
            inserted,
            deleted,
            lsn,
            generation,
            writer_wait,
            elapsed,
        }) => {
            let _ = writeln!(
                out,
                "OK update matched={matched} inserted={inserted} deleted={deleted} \
                 lsn={lsn} generation={generation} writer_wait={}us {}us",
                writer_wait.as_micros(),
                elapsed.as_micros()
            );
        }
        Ok(Outcome::Checkpointed {
            records,
            last_lsn,
            elapsed,
        }) => {
            let _ = writeln!(
                out,
                "OK checkpoint records={records} lsn={last_lsn} {}us",
                elapsed.as_micros()
            );
        }
        Ok(Outcome::Loaded { id, generation }) => {
            let _ = writeln!(out, "OK loaded document {id} generation {generation}");
        }
        Ok(Outcome::Lines { lines, ok }) => {
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
            let _ = writeln!(out, "{ok}");
        }
        Err(e) => {
            let _ = writeln!(out, "ERR {e}");
        }
    }
    out.into_bytes()
}

/// Parses `INSERT <doc> <target> <fragment>`, `DELETE <doc> <target>`
/// and `CHECKPOINT`. The insert fragment is split from the target XPath
/// at the first ` <` (a fragment is always markup; a target never
/// contains ` <` because comparisons bind tighter than spaces in our
/// grammar's practical use — and `<` in predicates is written without a
/// leading space or the update is rejected as missing its fragment).
fn parse_update(verb: &str, rest: &str) -> Result<Request, String> {
    if verb == "CHECKPOINT" {
        return Ok(Request::Checkpoint);
    }
    let Some((doc, tail)) = rest.split_once(' ').map(|(d, t)| (d, t.trim())) else {
        return Err(format!("{verb} needs a document and a target XPath"));
    };
    if doc.is_empty() || tail.is_empty() {
        return Err(format!("{verb} needs a document and a target XPath"));
    }
    match verb {
        "INSERT" => {
            let Some(at) = tail.find(" <") else {
                return Err("INSERT needs an XML fragment after the target XPath".into());
            };
            let (target, fragment) = tail.split_at(at);
            Ok(Request::Update {
                doc: doc.to_string(),
                op: UpdateOp::Insert {
                    target: target.trim().to_string(),
                    fragment: fragment.trim().to_string(),
                },
            })
        }
        _ => Ok(Request::Update {
            doc: doc.to_string(),
            op: UpdateOp::Delete {
                target: tail.to_string(),
            },
        }),
    }
}

/// One `STAT key value` line per metric, cache and store counter.
fn render_stats(shared: &Shared) -> Vec<String> {
    let mut out = Vec::new();
    shared.metrics.render(&mut out);
    let (hits, misses) = shared.cache.counters();
    out.push(format!("STAT plan_cache_hits {hits}"));
    out.push(format!("STAT plan_cache_misses {misses}"));
    out.push(format!("STAT plan_cache_size {}", shared.cache.len()));
    out.push(format!("STAT workers {}", shared.config.workers));
    out.push(format!("STAT queue_depth {}", shared.config.queue_depth));
    let engine = shared.engine.read();
    let stats = engine.store().stats();
    out.push(format!("STAT documents {}", stats.documents));
    out.push(format!("STAT store_tuples {}", stats.tuples));
    out.push(format!("STAT store_pages {}", stats.pages));
    out.push(format!(
        "STAT store_generation {}",
        engine.store().generation()
    ));
    out.push(format!("STAT store_format {}", stats.format.as_str()));
    out.push(format!(
        "STAT store_compressed_pages {}",
        stats.compressed_pages
    ));
    out.push(format!(
        "STAT store_uncompressed_pages {}",
        stats.uncompressed_pages
    ));
    out.push(format!("STAT store_dict_entries {}", stats.dict_entries));
    out.push(format!("STAT store_disk_bytes {}", stats.disk_bytes()));
    out.push(format!(
        "STAT store_compression_ratio {:.4}",
        stats.compression_ratio()
    ));
    out.push(format!("STAT pool_buffer_hits {}", stats.buffer.hits));
    out.push(format!("STAT pool_buffer_misses {}", stats.buffer.misses));
    out.push(format!("STAT pool_decodes_v1 {}", stats.buffer.decodes_v1));
    out.push(format!("STAT pool_decodes_v2 {}", stats.buffer.decodes_v2));
    out.push(format!(
        "STAT pool_format_fallbacks {}",
        stats.buffer.format_fallbacks
    ));
    out.push(format!("STAT pool_batch_pins {}", stats.buffer.batch_pins));
    out.push(format!("STAT pool_pins_saved {}", stats.buffer.pins_saved));
    let views = engine.views().stats();
    out.push(format!("STAT view_hits {}", views.hits));
    out.push(format!("STAT view_misses {}", views.misses));
    out.push(format!("STAT view_evictions {}", views.evictions));
    out.push(format!("STAT view_bytes {}", views.bytes));
    out.push(format!("STAT view_views {}", views.views));
    let par = engine.parallel_stats();
    out.push(format!("STAT scan_workers {}", engine.effective_workers()));
    out.push(format!("STAT pool_par_morsels {}", par.morsels));
    out.push(format!("STAT pool_par_batches {}", par.worker_batches));
    out.push(format!("STAT pool_par_merge_stalls {}", par.merge_stalls));
    let wal = engine.store().wal_stats();
    out.push(format!(
        "STAT store_durable {}",
        engine.store().is_durable() as u32
    ));
    out.push(format!("STAT wal_records {}", wal.records));
    out.push(format!("STAT wal_depth {}", wal.depth));
    out.push(format!("STAT wal_fsyncs {}", wal.fsyncs));
    out.push(format!("STAT wal_last_lsn {}", wal.last_lsn));
    out.push(format!("STAT wal_replayed_lsn {}", wal.replayed_lsn));
    out.push(format!(
        "STAT engine_writer_wait_us {}",
        engine.writer_wait_total().as_micros()
    ));
    match &shared.config.replica {
        Some(role) => {
            let s = &role.status;
            let applied = s.applied_lsn.load(Ordering::Relaxed);
            let primary_last = s.primary_last_lsn.load(Ordering::Relaxed);
            out.push(format!(
                "STAT repl_received_lsn {}",
                s.received_lsn.load(Ordering::Relaxed)
            ));
            out.push(format!("STAT repl_applied_lsn {applied}"));
            out.push(format!("STAT repl_primary_last_lsn {primary_last}"));
            out.push(format!(
                "STAT repl_behind {}",
                primary_last.saturating_sub(applied)
            ));
            out.push(format!(
                "STAT repl_connected {}",
                s.connected.load(Ordering::Relaxed) as u32
            ));
            out.push(format!(
                "STAT repl_reconnects {}",
                s.reconnects.load(Ordering::Relaxed)
            ));
            out.push(format!(
                "STAT repl_snapshots {}",
                s.snapshots.load(Ordering::Relaxed)
            ));
        }
        None => {
            if let Some(log) = engine.store().replication_log() {
                let st = log.stats();
                out.push(format!("STAT repl_last_lsn {}", st.last_lsn));
                out.push(format!("STAT repl_floor_lsn {}", st.floor_lsn));
                out.push(format!("STAT repl_retained {}", st.retained));
                out.push(format!(
                    "STAT repl_feeds {}",
                    shared.feeds.load(Ordering::Relaxed)
                ));
            }
        }
    }
    out
}

/// One `LAG key value` line per replication gauge — the lightweight
/// check monitoring and followers poll (cheaper than `STATS`, no store
/// snapshot).
fn render_lag(shared: &Shared) -> Vec<String> {
    let mut out = Vec::new();
    match &shared.config.replica {
        Some(role) => {
            let s = &role.status;
            let applied = s.applied_lsn.load(Ordering::Relaxed);
            let primary_last = s.primary_last_lsn.load(Ordering::Relaxed);
            out.push("LAG role replica".to_string());
            out.push(format!("LAG primary {}", role.primary));
            out.push(format!(
                "LAG received_lsn {}",
                s.received_lsn.load(Ordering::Relaxed)
            ));
            out.push(format!("LAG applied_lsn {applied}"));
            out.push(format!("LAG primary_last_lsn {primary_last}"));
            out.push(format!(
                "LAG behind {}",
                primary_last.saturating_sub(applied)
            ));
            out.push(format!(
                "LAG connected {}",
                s.connected.load(Ordering::Relaxed) as u32
            ));
        }
        None => {
            let engine = shared.engine.read();
            out.push("LAG role primary".to_string());
            out.push(format!("LAG last_lsn {}", engine.store().replicated_lsn()));
            if let Some(log) = engine.store().replication_log() {
                let st = log.stats();
                out.push(format!("LAG floor_lsn {}", st.floor_lsn));
                out.push(format!("LAG retained {}", st.retained));
            }
            out.push(format!(
                "LAG feeds {}",
                shared.feeds.load(Ordering::Relaxed)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Random UTF-8 up to `MAX_LINE` bytes: one, two, three and four byte
    /// characters in equal shares, so verbs, spaces and `<` show up too.
    fn utf8_line() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..event::MAX_LINE / 4).prop_map(|draws| {
            draws
                .into_iter()
                .map(|d| {
                    let c = match d % 4 {
                        0 => (d >> 2) % 0x80,
                        1 => 0x80 + (d >> 2) % 0x780,
                        2 => 0x800 + (d >> 2) % 0xF800,
                        _ => 0x10000 + (d >> 2) % 0x100000,
                    };
                    char::from_u32(c).unwrap_or('\u{FFFD}')
                })
                .collect()
        })
    }

    const VERBS: [&str; 9] = [
        "QUERY", "EVAL", "EXPLAIN", "ANALYZE", "INSERT", "DELETE", "CACHE", "LIMIT", "DOC",
    ];

    /// A verb, then a tail of protocol fragments and random text.
    fn verb_soup() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            Just(" ".to_string()),
            Just("JSON ".to_string()),
            Just("DOC ".to_string()),
            Just(" <".to_string()),
            Just("LIST".to_string()),
            Just("CLEAR".to_string()),
            Just("-1".to_string()),
            Just("18446744073709551616".to_string()),
            "[ a-z0-9/<>@=\\[\\]'\"*().:|-]{0,24}",
            "[\u{e9}\u{4e2d}\u{1f600}\t\r ]{0,4}",
        ];
        (0usize..VERBS.len(), proptest::collection::vec(piece, 0..12)).prop_map(|(verb, pieces)| {
            let mut line = VERBS[verb].to_string();
            for piece in pieces {
                line.push_str(&piece);
            }
            line
        })
    }

    /// Whatever a line parses to, an inline reply is a protocol line.
    fn check_line(config: &ServerConfig, line: &str) -> Result<(), String> {
        if let Parsed::Inline(reply) = parse_line(config, line) {
            prop_assert!(
                reply.starts_with("OK ") || reply.starts_with("ERR "),
                "{}",
                reply
            );
        }
        let (_, rest) = line.split_once(' ').unwrap_or((line, ""));
        for verb in ["INSERT", "DELETE", "CHECKPOINT"] {
            let _ = parse_update(verb, rest);
        }
        Ok(())
    }

    fn replica_config() -> ServerConfig {
        ServerConfig {
            replica: Some(ReplicaRole {
                primary: "1.2.3.4:5".into(),
                status: Arc::new(ReplicaStatus::default()),
            }),
            ..ServerConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `parse_line` and `parse_update` return on any line a client
        /// can send, and never panic.
        #[test]
        fn the_line_parsers_return_on_random_utf8(line in utf8_line()) {
            prop_assert!(line.len() <= event::MAX_LINE);
            check_line(&ServerConfig::default(), &line)?;
            check_line(&replica_config(), &line)?;
        }

        #[test]
        fn the_line_parsers_return_on_verb_soup(line in verb_soup()) {
            check_line(&ServerConfig::default(), &line)?;
            check_line(&replica_config(), &line)?;
        }
    }

    #[test]
    fn escape_round_trips_framing_characters() {
        assert_eq!(escape_line("a\tb\nc\\d"), "a\\tb\\nc\\\\d");
        assert_eq!(escape_line("plain"), "plain");
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_depth >= c.workers);
        assert!(c.query_timeout > Duration::ZERO);
    }

    #[test]
    fn parse_line_covers_the_grammar() {
        let config = ServerConfig::default();
        assert!(matches!(
            parse_line(&config, "PING"),
            Parsed::Inline(s) if s == "OK pong"
        ));
        assert!(matches!(parse_line(&config, "QUIT"), Parsed::Quit));
        assert!(matches!(parse_line(&config, "LIMIT 5"), Parsed::Limit(5)));
        assert!(matches!(
            parse_line(&config, "QUERY //a"),
            Parsed::Job(Request::Query { doc: None, .. })
        ));
        assert!(matches!(
            parse_line(&config, "QUERY DOC auction //a"),
            Parsed::Job(Request::Query { doc: Some(d), .. }) if d == "auction"
        ));
        assert!(matches!(
            parse_line(&config, "ANALYZE JSON DOC auction //a"),
            Parsed::Job(Request::Analyze {
                doc: Some(_),
                json: true,
                ..
            })
        ));
        assert!(matches!(
            parse_line(&config, "STATS"),
            Parsed::Control(Request::Stats)
        ));
        assert!(matches!(
            parse_line(&config, "DOCS"),
            Parsed::Control(Request::Docs)
        ));
        assert!(matches!(
            parse_line(&config, "REPLICATE 7"),
            Parsed::Feed(7)
        ));
        assert!(matches!(
            parse_line(&config, "NONSENSE"),
            Parsed::Inline(s) if s.starts_with("ERR proto unknown")
        ));
    }

    #[test]
    fn replica_config_rejects_writes_at_parse() {
        let config = ServerConfig {
            replica: Some(ReplicaRole {
                primary: "1.2.3.4:5".into(),
                status: Arc::new(ReplicaStatus::default()),
            }),
            ..ServerConfig::default()
        };
        for verb in ["LOADXML d <a/>", "INSERT d //a <b/>", "CHECKPOINT"] {
            assert!(matches!(
                parse_line(&config, verb),
                Parsed::Inline(s) if s.starts_with("ERR readonly")
            ));
        }
        assert!(matches!(parse_line(&config, "QUERY //a"), Parsed::Job(_)));
    }
}
