//! # vamana-server
//!
//! A concurrent query service over one shared VAMANA engine: a TCP
//! line protocol served by a nonblocking core whose connection threads
//! run each request themselves, with per-query deadlines and a metrics
//! registry. Plans and repeated answers come from the engine's query
//! cache.
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
//! LIMIT [<n>]                 per-connection row cap (0 = unlimited)
//! STATS                       metrics snapshot
//! DOCS                        loaded documents, in load order
//! CACHE [LIST] | CACHE CLEAR  answers kept by the query cache
//! LAG                         replication gauges
//! REPLICATE <from_lsn>        become a WAL frame feed
//! PING / QUIT
//! ```
//!
//! [`parse_line`] is the one reader of this grammar — the router and the
//! shell parse with it too — and [`Request::to_line`] its one writer. On
//! a server configured as a replica ([`ServerConfig::replica`]), every
//! mutating verb ([`Request::is_write`]) answers `ERR readonly` naming
//! the primary. The `DOC`-scoped read forms exist for front tiers:
//! `vamana-router` scatters a cross-document `QUERY` as per-document
//! `QUERY DOC` calls to the shards that own each document and
//! concatenates the results in global load order (which is exactly
//! single-store document order, because FLEX keys order by load ordinal).
//!
//! ## Threading model
//!
//! [`ServerConfig::workers`] connection threads share one poll set over
//! every connection socket (see [`event`]); requests are parsed pipelined
//! and idle connections cost no threads. The thread that reads a request
//! runs it against the shared engine and writes its reply: no queue, no
//! hand-off, and at most `workers` requests in flight. Every request
//! carries a deadline set when its line is parsed and checked before it
//! runs; `QUERY`, a node-set `EVAL` and `ANALYZE` check it again after
//! every result batch (a scalar `EVAL` after every batch of its paths),
//! and updates and checkpoints once more after the single-writer lane
//! they serialize on; `EXPLAIN` runs nothing. Control-plane verbs
//! (`STATS`, `LAG`, `CACHE`, `DOCS`) have no deadline, so monitoring and
//! router health probes answer under any timeout policy.

#![deny(missing_docs)]

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLockReadGuard};
use std::time::{Duration, Instant};

use vamana_core::{
    DocId, Engine, Evaluation, NodeEntry, PlanSource, QueryCache, QueryStream, SharedEngine, Shown,
    Value,
};
use vamana_mass::{BufferStats, FsyncPolicy};

pub mod event;
mod feed;
pub mod metrics;
pub mod poll;
pub mod render;
mod request;
pub mod testkit;

pub use metrics::Metrics;
use render::shown_rows;
pub use render::{escape_line, render_rows, unescape_line, RenderOptions, Rendered};
pub use request::{parse_line, LoadSource, Parsed, ReadVerb, Request};
pub use vamana_core::UpdateOp;

use event::{Dispatch, LineService};
use metrics::ActiveGuard;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection threads. Each reads, runs and answers the requests of
    /// the connections it picks up, so at most this many run at once.
    pub workers: usize,
    /// Per-query deadline, from the parse of its line to its last tuple.
    pub query_timeout: Duration,
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
            query_timeout: Duration::from_secs(10),
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

/// Errors a request can produce (I/O errors are handled per connection).
#[derive(Debug)]
pub enum ServerError {
    /// Deadline exceeded, before or during execution.
    Timeout(Duration),
    /// Compile or execution failure.
    Query(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Timeout(t) => write!(f, "timeout query exceeded {}ms", t.as_millis()),
            ServerError::Query(msg) => write!(f, "query {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared by the connection threads.
pub struct Shared {
    engine: Arc<SharedEngine>,
    metrics: Metrics,
    config: ServerConfig,
    stopping: AtomicBool,
    /// Single-writer lane: updates and checkpoints serialize here
    /// *before* taking the engine write lock, so at most one thread
    /// blocks readers at a time and the rest wait with their deadlines
    /// still ticking.
    writer_lane: Mutex<()>,
    /// Replication feed connections currently streaming.
    feeds: AtomicU64,
}

impl Shared {
    /// The state of a service over `engine`, before any listener: the
    /// shell answers its own lines through it, and [`Server::bind_shared`]
    /// builds one for each listener.
    pub fn new(engine: Arc<SharedEngine>, config: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            engine,
            metrics: Metrics::default(),
            config,
            stopping: AtomicBool::new(false),
            writer_lane: Mutex::new(()),
            feeds: AtomicU64::new(0),
        })
    }

    /// The engine behind the service.
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.engine
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The engine's query cache: plans, kept answers and their counters.
    pub fn cache(&self) -> Arc<QueryCache> {
        Arc::clone(self.engine.read().views())
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

/// A successful request's result, ready to serialize.
enum Outcome {
    Rows {
        /// The `ROW` lines, as written.
        shown: Arc<Shown>,
        /// Rows in the answer (`OK n row(s)`).
        total: usize,
        /// Where the plans came from (`plan=` of the `OK` line).
        plan: &'static str,
        elapsed: Duration,
        /// Buffer-pool hits and misses while it ran (`hits=`/`misses=`).
        buffer_hits: u64,
        buffer_misses: u64,
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

/// Runs one request on the connection's thread, which set `deadline` when
/// it parsed the line, and counts it in the metrics.
fn execute(
    shared: &Shared,
    request: &Request,
    limit: usize,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let _active = ActiveGuard::enter(&shared.metrics);
    // Control verbs are not deadline-bound: STATS/LAG must answer even
    // under an aggressive query-timeout policy.
    if Instant::now() >= deadline && !request.is_control() {
        shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
        return Err(ServerError::Timeout(shared.config.query_timeout));
    }
    let result = match request {
        Request::Read {
            verb,
            json,
            doc,
            xpath,
        } => {
            let doc = doc.as_deref();
            match verb {
                ReadVerb::Query => run_query(shared, xpath, doc, limit, deadline),
                ReadVerb::Eval => run_eval(shared, xpath, doc, limit, deadline),
                ReadVerb::Explain | ReadVerb::Analyze => {
                    run_report(shared, *verb, xpath, *json, doc, deadline)
                }
            }
        }
        Request::Update { doc, op } => run_update(shared, doc, op, deadline),
        Request::Checkpoint => run_checkpoint(shared, deadline),
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
    let is_query = !request.is_control() && !matches!(request, Request::Load { .. });
    match &result {
        Ok(outcome) if is_query => {
            shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
            let (elapsed, rows) = match outcome {
                Outcome::Rows { total, elapsed, .. } => (*elapsed, *total as u64),
                Outcome::Scalar { elapsed, .. }
                | Outcome::Report { elapsed, .. }
                | Outcome::Updated { elapsed, .. }
                | Outcome::Checkpointed { elapsed, .. } => (*elapsed, 0),
                Outcome::Loaded { .. } | Outcome::Lines { .. } => (Duration::ZERO, 0),
            };
            shared.metrics.latency.record(elapsed);
            shared
                .metrics
                .rows_returned
                .fetch_add(rows, Ordering::Relaxed);
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
    result
}

/// Executes `xpath` over every document (or just `doc`), each through its
/// [`Engine::stream`], enforcing `deadline` between result batches, and
/// renders up to `limit` rows.
fn run_query(
    shared: &Shared,
    xpath: &str,
    doc: Option<&str>,
    limit: usize,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let first = resolve_read_doc(&engine, doc)?;
    let docs = match doc {
        Some(_) => first.0..first.0 + 1,
        None => 0..engine.store().documents().len() as u32,
    };
    let began = Began::now(&engine);
    if docs.len() == 1 {
        let stream = engine.stream(first, xpath).map_err(query_err)?;
        return stream_rows(
            shared,
            &engine,
            (first, xpath),
            stream,
            limit,
            deadline,
            began,
        );
    }
    let mut all: Vec<NodeEntry> = Vec::new();
    // The least reused of the documents' plans (`plan=`).
    let mut source = PlanSource::Cached;
    for doc in docs.map(DocId) {
        let stream = engine.stream(doc, xpath).map_err(query_err)?;
        source = source.max(stream.source());
        // XPath node-set semantics: document order, no duplicates — which
        // the stream knows whether it delivered. Keys order by load
        // ordinal across documents, so the per-document sets in load
        // order are the global order, the one a front tier reproduces by
        // concatenating per-document results. A stream its deadline cuts
        // off offers nothing to the cache.
        let answer = stream
            .finish_by(Vec::new(), Some(deadline))
            .map_err(query_err)?
            .ok_or(ServerError::Timeout(shared.config.query_timeout))?;
        all.extend(Arc::unwrap_or_clone(answer));
    }
    let shown = render_shown(shared, &engine, &all, limit)?;
    Ok(began.rows(&engine, shown, all.len(), source, true))
}

/// Finishes `stream`, the stream of `xpath` on `doc`, by `deadline` and
/// renders up to `limit` of its rows. When the query cache handed out a
/// kept answer with a reply that showed as many of its rows at the
/// configured width, that reply's rows are the rows, and no page is read;
/// a reply rendered for a kept answer is kept with it.
fn stream_rows(
    shared: &Shared,
    engine: &Engine,
    (doc, xpath): (DocId, &str),
    stream: QueryStream<'_>,
    limit: usize,
    deadline: Instant,
    began: Began,
) -> Result<Outcome, ServerError> {
    let source = stream.source();
    let kept = stream.kept_shown().cloned();
    let answer = stream
        .finish_by(Vec::new(), Some(deadline))
        .map_err(query_err)?
        .ok_or(ServerError::Timeout(shared.config.query_timeout))?;
    let (rows, width) = (shown_rows(limit, answer.len()), shared.config.value_width);
    if let Some(shown) = kept.filter(|s| (s.rows, s.width) == (rows, width)) {
        return Ok(began.rows(engine, shown, answer.len(), source, false));
    }
    let shown = render_shown(shared, engine, &answer, limit)?;
    engine.keep_shown(doc, xpath, &answer, Arc::clone(&shown));
    Ok(began.rows(engine, shown, answer.len(), source, true))
}

/// Up to `limit` of `nodes`, rendered at the configured width as a reply
/// writes them: `ROW <row>` lines.
fn render_shown(
    shared: &Shared,
    engine: &Engine,
    nodes: &[NodeEntry],
    limit: usize,
) -> Result<Arc<Shown>, ServerError> {
    let value_width = shared.config.value_width;
    let opts = RenderOptions { limit, value_width };
    let rendered = render_rows(engine, nodes, &opts).map_err(query_err)?;
    let mut text = String::new();
    for row in &rendered.lines {
        text.push_str("ROW ");
        render::push_escaped(&mut text, row);
        text.push('\n');
    }
    Ok(Arc::new(Shown {
        rows: rendered.lines.len(),
        width: value_width,
        text: text.into(),
    }))
}

/// When a read began, and the buffer pool's counters then.
struct Began {
    start: Instant,
    pool: BufferStats,
}

impl Began {
    fn now(engine: &Engine) -> Began {
        Began {
            start: Instant::now(),
            pool: engine.store().buffer_pool().stats(),
        }
    }

    /// A rows reply showing `shown` of `total` rows, timed from the start,
    /// with the buffer-pool traffic since — none unless it `read` pages.
    /// The pool is read after rendering: index-answerable queries do their
    /// page reads in string-value extraction, not plan execution.
    fn rows(
        &self,
        engine: &Engine,
        shown: Arc<Shown>,
        total: usize,
        source: PlanSource,
        read: bool,
    ) -> Outcome {
        let pool = match read {
            true => engine.store().buffer_pool().stats().since(&self.pool),
            false => BufferStats::default(),
        };
        Outcome::Rows {
            shown,
            total,
            plan: source.as_str(),
            elapsed: self.start.elapsed(),
            buffer_hits: pool.hits,
            buffer_misses: pool.misses,
        }
    }
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
/// `VAL`, node-sets as rows — held to `deadline` between batches: a
/// node-set expression's stream is finished and rendered as `QUERY`'s is,
/// and a scalar one's path pulls are cut off as that stream's are.
fn run_eval(
    shared: &Shared,
    xpath: &str,
    doc: Option<&str>,
    limit: usize,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let doc = resolve_read_doc(&engine, doc)?;
    let began = Began::now(&engine);
    let evaluation = engine
        .evaluation(doc, xpath, Some(deadline))
        .map_err(query_err)?
        .ok_or(ServerError::Timeout(shared.config.query_timeout))?;
    let text = match evaluation {
        Evaluation::Nodes(stream) => {
            return stream_rows(
                shared,
                &engine,
                (doc, xpath),
                stream,
                limit,
                deadline,
                began,
            );
        }
        Evaluation::Scalar(Value::Str(s)) => {
            // Escaped, and with its prefix and newline, as `write_reply`
            // puts it on the wire.
            let line = render::escaped_len(&s) + "VAL \n".len();
            if line > event::MAX_REPLY_LINE {
                return Err(ServerError::Query(format!(
                    "value line of {line} bytes passes the reply line cap of {} bytes",
                    event::MAX_REPLY_LINE
                )));
            }
            s
        }
        Evaluation::Scalar(Value::Num(n)) => n.to_string(),
        Evaluation::Scalar(Value::Bool(b)) => b.to_string(),
        Evaluation::Scalar(Value::Nodes(_)) => unreachable!("no function returns a node-set"),
    };
    let elapsed = began.start.elapsed();
    Ok(Outcome::Scalar { text, elapsed })
}

/// Produces the `EXPLAIN` report for `xpath` (both plans with estimate
/// cards plus the optimizer's pass log; nothing runs) or, for `ANALYZE`,
/// runs it with per-operator instrumentation, enforcing `deadline` between
/// result batches, and reports estimated-vs-actual cardinalities.
fn run_report(
    shared: &Shared,
    verb: ReadVerb,
    xpath: &str,
    json: bool,
    doc: Option<&str>,
    deadline: Instant,
) -> Result<Outcome, ServerError> {
    let engine = shared.read_engine();
    let doc = resolve_read_doc(&engine, doc)?;
    let start = Instant::now();
    let report = if verb == ReadVerb::Analyze {
        let analysis = engine
            .analyze_by(doc, xpath, Some(deadline))
            .map_err(query_err)?
            .ok_or(ServerError::Timeout(shared.config.query_timeout))?;
        match json {
            true => analysis.render_json(),
            false => analysis.render_report(),
        }
    } else {
        let ex = engine.explain(doc, xpath).map_err(query_err)?;
        match json {
            true => ex.render_json(),
            false => ex.render(),
        }
    };
    Ok(Outcome::Report {
        lines: report.lines().map(str::to_string).collect(),
        elapsed: start.elapsed(),
    })
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
/// engine write lock — the wait for readers to leave it is the reply's
/// `writer_wait=` — and route the mutation through
/// [`Engine::apply_update`], and through the WAL on durable stores.
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
    let (mut engine, writer_wait) = shared.engine.write_waited();
    let Some(doc) = resolve_doc(&engine, doc) else {
        return Err(ServerError::Query(format!("no such document {doc}")));
    };
    let start = Instant::now();
    let outcome = engine.apply_update(doc, op).map_err(query_err)?;
    shared.metrics.updates.fetch_add(1, Ordering::Relaxed);
    Ok(Outcome::Updated {
        matched: outcome.matched,
        inserted: outcome.inserted,
        deleted: outcome.deleted,
        lsn: outcome.lsn,
        generation: outcome.doc_generation,
        writer_wait,
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

/// Handles `LOAD`/`LOADXML` (engine write lock).
fn run_load(shared: &Shared, name: &str, source: &LoadSource) -> Result<Outcome, ServerError> {
    let xml = match source {
        LoadSource::Inline(xml) => xml.clone(),
        LoadSource::File(path) => std::fs::read_to_string(path)
            .map_err(|e| ServerError::Query(format!("cannot read {path}: {e}")))?,
    };
    // No cache clear: entries validate per document, and a load never
    // changes an existing document's generation.
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

/// The query service: a TCP listener and the state its connection
/// threads share.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4050`, port 0 for ephemeral) over
    /// `engine`.
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
        let shared = Shared::new(engine, config);
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state, for embedding (the REPL inspects metrics).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    fn start(self) -> std::io::Result<event::Running<Arc<Shared>>> {
        let workers = self.shared.config.workers;
        event::start(self.listener, self.shared, workers, "vamana-conn")
    }

    /// Serves forever on [`ServerConfig::workers`] connection threads
    /// (see [`event`]), blocking the caller.
    pub fn run(self) -> std::io::Result<()> {
        self.start()?.join();
        Ok(())
    }

    /// Serves on background connection threads, returning a handle to
    /// stop them (used by tests and the REPL's `.serve`).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        Ok(ServerHandle {
            addr,
            shared,
            core: Some(self.start()?),
        })
    }
}

/// A running server; dropping it stops the service.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    core: Option<event::Running<Arc<Shared>>>,
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

    /// Stops serving and joins every connection thread. A request in
    /// flight is answered first; then every connection is closed.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        // Replication feeds run on threads of their own and watch this.
        self.shared.stopping.store(true, Ordering::SeqCst);
        core.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The VAMANA protocol on the connection core, and in the shell, which
/// sends its own lines through [`LineService::handle`]; a connection's
/// session is its row cap (`LIMIT`).
impl LineService for Arc<Shared> {
    type Session = usize;

    fn open(&self) -> usize {
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
        self.config.default_limit
    }

    fn handle(&self, limit: &mut usize, line: &str, out: &mut Vec<u8>) -> Dispatch {
        let request = match parse_line(line) {
            Ok(Parsed::Run(request)) => request,
            Ok(Parsed::Ping) => {
                out.extend_from_slice(b"OK pong\n");
                return Dispatch::Next;
            }
            Ok(Parsed::Limit(n)) => {
                *limit = n.unwrap_or(*limit);
                let _ = writeln!(out, "OK limit {limit}");
                return Dispatch::Next;
            }
            Ok(Parsed::Quit) => {
                out.extend_from_slice(b"OK bye\n");
                return Dispatch::Close;
            }
            Ok(Parsed::Replicate(from)) => {
                let shared = Arc::clone(self);
                return Dispatch::Handoff(Box::new(move |stream| {
                    let _ = feed::serve_feed(stream, &shared, from);
                }));
            }
            Err(msg) => {
                let _ = writeln!(out, "ERR proto {msg}");
                return Dispatch::Next;
            }
        };
        // A replica is read-only: every mutating verb is redirected to
        // the primary (queries, stats and lag checks proceed normally).
        match &self.config.replica {
            Some(role) if request.is_write() => {
                let _ = writeln!(
                    out,
                    "ERR readonly replica; send writes to the primary at {}",
                    role.primary
                );
            }
            _ => {
                let deadline = Instant::now() + self.config.query_timeout;
                write_reply(&execute(self, &request, *limit, deadline), out);
            }
        }
        Dispatch::Next
    }
}

/// Serializes a request's result into protocol lines.
fn write_reply(result: &Result<Outcome, ServerError>, out: &mut Vec<u8>) {
    match result {
        Ok(Outcome::Rows {
            shown,
            total,
            plan,
            elapsed,
            buffer_hits,
            buffer_misses,
        }) => {
            out.extend_from_slice(shown.text.as_bytes());
            let _ = writeln!(
                out,
                "OK {} row(s) plan={} {}us hits={} misses={}",
                total,
                plan,
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
}

/// One `STAT key value` line per metric, cache and store counter.
fn render_stats(shared: &Shared) -> Vec<String> {
    let mut out = Vec::new();
    shared.metrics.render(&mut out);
    let engine = shared.engine.read();
    out.push(format!(
        "STAT writer_wait_us {}",
        engine.writer_wait_total().as_micros()
    ));
    let (hits, misses) = engine.views().counters();
    out.push(format!("STAT plan_cache_hits {hits}"));
    out.push(format!("STAT plan_cache_misses {misses}"));
    out.push(format!("STAT plan_cache_size {}", engine.views().len()));
    out.push(format!(
        "STAT plan_cache_shape_binds {}",
        engine.views().binds()
    ));
    out.push(format!(
        "STAT plan_cache_shapes {}",
        engine.views().shapes()
    ));
    out.push(format!(
        "STAT plan_cache_replans {}",
        engine.views().replans()
    ));
    out.push(format!("STAT workers {}", shared.config.workers));
    let stats = engine.store().stats();
    out.push(format!("STAT documents {}", stats.documents));
    out.push(format!("STAT store_tuples {}", stats.tuples));
    out.push(format!("STAT store_names {}", stats.distinct_names));
    out.push(format!("STAT store_values {}", stats.distinct_values));
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
    out.push(format!("STAT pool_evictions {}", stats.buffer.evictions));
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
    out.push(format!("STAT view_carried {}", views.carried));
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
        "STAT wal_replayed_records {}",
        wal.replayed_records
    ));
    out.push(format!("STAT wal_start_lsn {}", wal.start_lsn));
    out.push(format!("STAT wal_commits {}", wal.commits));
    // Commits per fsync: 1 is every commit, 0 never (or no log at all).
    let fsync_every = match engine.store().fsync_policy() {
        Some(FsyncPolicy::Always) => 1,
        Some(FsyncPolicy::EveryN(n)) => n,
        Some(FsyncPolicy::Never) | None => 0,
    };
    out.push(format!("STAT wal_fsync_every {fsync_every}"));
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
    use vamana_core::MassStore;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.query_timeout > Duration::ZERO);
    }

    fn answer(shared: &Arc<Shared>, line: &str) -> String {
        let mut out = Vec::new();
        shared.handle(&mut 20, line, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn a_replica_refuses_writes_after_parsing_them() {
        let engine = Arc::new(SharedEngine::new(Engine::new(MassStore::open_memory())));
        let shared = Shared::new(
            engine,
            ServerConfig {
                replica: Some(ReplicaRole {
                    primary: "1.2.3.4:5".into(),
                    status: Arc::new(ReplicaStatus::default()),
                }),
                ..ServerConfig::default()
            },
        );
        for line in ["LOADXML d <a/>", "INSERT d //a <b/>", "CHECKPOINT"] {
            let reply = answer(&shared, line);
            assert!(reply.starts_with("ERR readonly"), "{line}: {reply}");
            assert!(reply.contains("1.2.3.4:5"), "{reply}");
        }
        // A line outside the grammar is a protocol error first.
        assert!(answer(&shared, "INSERT d //a").starts_with("ERR proto"));
        // Reads run.
        assert!(answer(&shared, "QUERY //a").starts_with("ERR query no documents"));
        assert_eq!(answer(&shared, "LIMIT"), "OK limit 20\n");
    }
}
