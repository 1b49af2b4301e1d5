//! # vamana-router
//!
//! The sharded front tier: speaks the VAMANA line protocol to clients
//! and fans requests out to a configured topology of primaries and
//! read replicas.
//!
//! - **Routing** — single-document verbs (`QUERY DOC`, `EVAL`,
//!   `EXPLAIN`, `ANALYZE`, `INSERT`, `DELETE`, `LOADXML`/`LOAD`) go to
//!   the shard that owns the document: existing documents by registry,
//!   new ones by consistent hashing on the name (see [`ring`]).
//! - **Read load balancing** — reads rotate across the owning shard's
//!   replicas, bounded by [`RouterConfig::max_lag`]: a replica more
//!   than `max_lag` frames behind its primary (computed router-side
//!   from health probes) is demoted past the primary in the candidate
//!   order.
//! - **Scatter-gather** — a cross-document `QUERY` fans out one
//!   `QUERY DOC` per document, shards queried concurrently, and merges
//!   per-document results in global load order — which reproduces
//!   single-store document order exactly (FLEX keys order by load
//!   ordinal; see [`topology::Registry`]).
//! - **Failover** — every backend request retries across the candidate
//!   list with backoff; a failed backend is marked down immediately and
//!   the health monitor ([`health`]) brings it back within one probe
//!   interval.
//! - **Aggregation** — `STATS` sums engine counters across primaries
//!   and adds the router's own `router_*` counters; `TOPOLOGY` reports
//!   per-backend health and document placement.
//!
//! A request line is read by the server's own [`vamana_server::parse_line`]
//! and a forwarded request written back by [`Request::to_line`]; only
//! `TOPOLOGY` is the router's own verb.
//!
//! The router runs on the same nonblocking connection core as the server
//! ([`vamana_server::event`]): [`RouterConfig::workers`] threads share
//! every client socket, parsing is pipelined, and the thread that reads
//! a request makes its backend round trips and writes its reply.

#![deny(missing_docs)]

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vamana_server::event::{self, Dispatch, LineService};
use vamana_server::{parse_line, Parsed, ReadVerb, Request, UpdateOp};

pub mod backend;
pub mod health;
pub mod ring;
pub mod topology;

use topology::{Registry, Topology};

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to serve clients on (port 0 for ephemeral).
    pub listen: String,
    /// The shards: `(primary_addr, replica_addrs)` in shard order.
    pub shards: Vec<(String, Vec<String>)>,
    /// Max WAL frames a replica may trail its primary and still serve
    /// reads; staler replicas are demoted past the primary.
    pub max_lag: u64,
    /// Health-probe interval (failover and recovery both happen within
    /// roughly one interval).
    pub health_interval: Duration,
    /// Extra passes over the candidate list before a request gives up.
    pub retries: usize,
    /// Connection threads. Each routes the requests of the connections
    /// it picks up, backend round trips included, so at most this many
    /// are routed at once.
    pub workers: usize,
    /// Default per-connection row cap (`LIMIT` overrides; 0 = unlimited).
    pub default_limit: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".into(),
            shards: Vec::new(),
            max_lag: 0,
            health_interval: Duration::from_millis(250),
            retries: 2,
            workers: 8,
            default_limit: 20,
        }
    }
}

/// Router-side counters, reported under `STAT router_*`.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Request lines read: every line except PING, QUIT and a
    /// well-formed LIMIT, malformed ones included.
    pub requests: AtomicU64,
    /// Cross-document scatter-gather queries.
    pub scatters: AtomicU64,
    /// Single-backend forwards.
    pub forwards: AtomicU64,
    /// Backend attempts that failed with an I/O error.
    pub backend_errors: AtomicU64,
    /// Requests that succeeded only after at least one failed attempt.
    pub failovers: AtomicU64,
    /// Up-but-stale replicas demoted past the primary by the LAG bound.
    pub lag_rejections: AtomicU64,
}

struct RouterState {
    topology: Arc<Topology>,
    registry: Registry,
    metrics: RouterMetrics,
    config: RouterConfig,
    stopping: AtomicBool,
}

// ---------------------------------------------------------------------
// Routing primitives
// ---------------------------------------------------------------------

impl RouterState {
    /// Runs `line` against the candidate backends in order, with
    /// `retries` extra passes and small backoff between passes; a reply
    /// with `ROW` lines is asked for under the client's row cap `limit`.
    /// `Err` is a ready-to-send `ERR …` message.
    fn route_to(
        &self,
        candidates: &[&backend::Backend],
        line: &str,
        limit: Option<usize>,
    ) -> Result<Vec<String>, String> {
        let mut last_err = String::from("no candidate backends");
        let mut failed_attempts = 0u64;
        for pass in 0..=self.config.retries {
            if pass > 0 {
                std::thread::sleep(Duration::from_millis(10 << pass.min(4)));
            }
            for backend in candidates {
                match backend.request_rows(line, limit) {
                    Ok(reply) => {
                        if failed_attempts > 0 {
                            self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        return Ok(reply);
                    }
                    Err(e) => {
                        failed_attempts += 1;
                        self.metrics.backend_errors.fetch_add(1, Ordering::Relaxed);
                        last_err = format!("{} ({e})", backend.addr);
                    }
                }
            }
        }
        Err(format!("ERR backend no shard member reachable: {last_err}"))
    }

    /// Routes a read to `shard`: fresh replicas, then primary, then
    /// stale replicas as a last resort; one with `ROW` lines under `limit`.
    fn route_read(
        &self,
        shard: usize,
        line: &str,
        limit: Option<usize>,
    ) -> Result<Vec<String>, String> {
        let shard = &self.topology.shards[shard];
        let (plan, stale) = shard.read_plan(self.config.max_lag);
        self.metrics
            .lag_rejections
            .fetch_add(stale, Ordering::Relaxed);
        self.route_to(&plan, line, limit)
    }

    /// Routes a write to `shard`'s primary (writes never fail over to
    /// replicas — they are read-only by construction).
    fn route_write(&self, shard: usize, line: &str) -> Result<Vec<String>, String> {
        let shard = &self.topology.shards[shard];
        self.route_to(&[&shard.primary], line, None)
    }

    /// The owning shard for a document token: registry first, then the
    /// ring for names the router has not seen (the backend answers
    /// `ERR query no such document` if it truly does not exist).
    fn owner_of(&self, token: &str) -> Result<(String, usize), String> {
        if let Some((_, entry)) = self.registry.resolve(token) {
            return Ok((entry.name, entry.shard));
        }
        if token.parse::<usize>().is_ok() {
            return Err(format!("ERR query no such document {token}"));
        }
        Ok((token.to_string(), self.topology.ring.owner(token)))
    }
}

// ---------------------------------------------------------------------
// Verb handlers
// ---------------------------------------------------------------------

/// Truncates `ROW` lines to `limit` (0 = unlimited), passing all other
/// lines through: the merge's cut. Backends are asked under the same cap,
/// so a reply from one already fits it.
fn apply_limit(reply: Vec<String>, limit: usize) -> Vec<String> {
    if limit == 0 {
        return reply;
    }
    let mut rows = 0;
    reply
        .into_iter()
        .filter(|l| {
            if l.starts_with("ROW ") {
                rows += 1;
                rows <= limit
            } else {
                true
            }
        })
        .collect()
}

/// Parses the `OK <n> row(s) …` terminator of a backend `QUERY` reply.
fn row_total(reply: &[String]) -> Option<u64> {
    reply
        .last()?
        .strip_prefix("OK ")?
        .split_once(' ')
        .and_then(|(n, rest)| rest.starts_with("row(s)").then(|| n.parse().ok())?)
}

impl RouterState {
    /// `QUERY <xpath>` with no `DOC` scope: fan out one `QUERY DOC` per
    /// registered document (shards in parallel, documents on one shard
    /// in sequence over a reused connection) and merge in global load
    /// order.
    fn scatter_query(&self, xpath: &str, limit: usize) -> Vec<String> {
        self.metrics.scatters.fetch_add(1, Ordering::Relaxed);
        let docs = self.registry.snapshot();
        if docs.is_empty() {
            return vec!["ERR query no documents loaded (use LOADXML or LOAD)".into()];
        }
        let start = std::time::Instant::now();
        // Group documents by owning shard, remembering global ordinals.
        let mut by_shard: Vec<Vec<(usize, String)>> = vec![Vec::new(); self.topology.shards.len()];
        for (ordinal, doc) in docs.iter().enumerate() {
            by_shard[doc.shard].push((ordinal, doc.name.clone()));
        }
        // Per-document reply lines plus the backend-reported row total.
        type DocRows = (Vec<String>, u64);
        let results: Mutex<Vec<Option<DocRows>>> = Mutex::new(vec![None; docs.len()]);
        let first_error: Mutex<Option<String>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for (shard, group) in by_shard.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let results = &results;
                let first_error = &first_error;
                scope.spawn(move || {
                    for (ordinal, name) in group {
                        let request = Request::Read {
                            verb: ReadVerb::Query,
                            json: false,
                            doc: Some(name.clone()),
                            xpath: xpath.to_string(),
                        };
                        let line = request.to_line();
                        let outcome = match self.route_read(shard, &line, Some(limit)) {
                            Ok(reply) => match row_total(&reply) {
                                Some(total) => {
                                    let rows = reply
                                        .into_iter()
                                        .filter(|l| l.starts_with("ROW "))
                                        .collect();
                                    Ok((rows, total))
                                }
                                // The backend replied ERR (bad xpath,
                                // missing doc): surface it verbatim.
                                None => Err(reply.last().cloned().unwrap_or_default()),
                            },
                            Err(e) => Err(e),
                        };
                        match outcome {
                            Ok(r) => {
                                results.lock().unwrap_or_else(|p| p.into_inner())[*ordinal] =
                                    Some(r);
                            }
                            Err(e) => {
                                let mut slot =
                                    first_error.lock().unwrap_or_else(|p| p.into_inner());
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(err) = first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return vec![err];
        }
        let mut out = Vec::new();
        let mut total = 0u64;
        for slot in results.into_inner().unwrap_or_else(|p| p.into_inner()) {
            let (rows, n) = slot.expect("no error recorded, every ordinal filled");
            total += n;
            out.extend(rows);
        }
        if limit > 0 {
            out.truncate(limit);
        }
        out.push(format!(
            "OK {total} row(s) plan=scatter shards={} {}us",
            by_shard.iter().filter(|g| !g.is_empty()).count(),
            start.elapsed().as_micros()
        ));
        out
    }

    /// A read other than a cross-document `QUERY`: forwarded to the
    /// owner of its document, re-written with the resolved name.
    fn read_verb(
        &self,
        verb: ReadVerb,
        json: bool,
        doc: Option<String>,
        xpath: String,
        limit: usize,
    ) -> Vec<String> {
        // EVAL/EXPLAIN/ANALYZE without DOC mean "document 0": the
        // globally-first document, which is local document 0 on its
        // owning shard (per-shard load order is a subsequence of the
        // global order), so forwarding with an explicit DOC scope
        // preserves single-node semantics.
        let target = match doc {
            Some(token) => self.owner_of(&token),
            None => match self.registry.snapshot().first() {
                Some(entry) => Ok((entry.name.clone(), entry.shard)),
                None => return vec!["ERR query no documents loaded (use LOADXML or LOAD)".into()],
            },
        };
        let (name, shard) = match target {
            Ok(t) => t,
            Err(e) => return vec![e],
        };
        self.metrics.forwards.fetch_add(1, Ordering::Relaxed);
        let request = Request::Read {
            verb,
            json,
            doc: Some(name),
            xpath,
        };
        // Only QUERY and EVAL replies carry rows.
        let rows = matches!(verb, ReadVerb::Query | ReadVerb::Eval).then_some(limit);
        match self.route_read(shard, &request.to_line(), rows) {
            Ok(reply) => apply_limit(reply, limit),
            Err(e) => vec![e],
        }
    }

    /// `INSERT`/`DELETE`: resolve the document, forward to the owning
    /// shard's primary (never a replica).
    fn write_verb(&self, doc: &str, op: UpdateOp) -> Vec<String> {
        let (name, shard) = match self.owner_of(doc) {
            Ok(t) => t,
            Err(e) => return vec![e],
        };
        self.metrics.forwards.fetch_add(1, Ordering::Relaxed);
        let request = Request::Update { doc: name, op };
        match self.route_write(shard, &request.to_line()) {
            Ok(reply) => reply,
            Err(e) => vec![e],
        }
    }

    /// `LOADXML`/`LOAD`: place the (possibly new) document by ring,
    /// forward to the owner's primary, and register it on success.
    fn load_verb(&self, request: &Request, name: &str) -> Vec<String> {
        let shard = match self.registry.resolve(name) {
            Some((_, entry)) => entry.shard,
            None => self.topology.ring.owner(name),
        };
        self.metrics.forwards.fetch_add(1, Ordering::Relaxed);
        match self.route_write(shard, &request.to_line()) {
            Ok(reply) => {
                if reply.last().map(|l| l.starts_with("OK")) == Some(true) {
                    self.registry.register(name, shard);
                }
                reply
            }
            Err(e) => vec![e],
        }
    }

    /// `CHECKPOINT`: broadcast to every primary.
    fn checkpoint_verb(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, shard) in self.topology.shards.iter().enumerate() {
            match self.route_to(&[&shard.primary], "CHECKPOINT", None) {
                Ok(reply) => out.push(format!(
                    "SHARD {i} {}",
                    reply.last().cloned().unwrap_or_default()
                )),
                Err(e) => return vec![e],
            }
        }
        out.push(format!(
            "OK checkpoint shards={}",
            self.topology.shards.len()
        ));
        out
    }

    /// `STATS`: the router's own `router_*` counters plus engine
    /// counters summed across the reachable primaries.
    fn stats_verb(&self) -> Vec<String> {
        let m = &self.metrics;
        let mut out = vec![
            format!("STAT router_shards {}", self.topology.shards.len()),
            format!(
                "STAT router_replicas {}",
                self.topology
                    .shards
                    .iter()
                    .map(|s| s.replicas.len())
                    .sum::<usize>()
            ),
            format!("STAT router_docs {}", self.registry.len()),
            format!(
                "STAT router_requests {}",
                m.requests.load(Ordering::Relaxed)
            ),
            format!(
                "STAT router_scatters {}",
                m.scatters.load(Ordering::Relaxed)
            ),
            format!(
                "STAT router_forwards {}",
                m.forwards.load(Ordering::Relaxed)
            ),
            format!(
                "STAT router_backend_errors {}",
                m.backend_errors.load(Ordering::Relaxed)
            ),
            format!(
                "STAT router_failovers {}",
                m.failovers.load(Ordering::Relaxed)
            ),
            format!(
                "STAT router_lag_rejections {}",
                m.lag_rejections.load(Ordering::Relaxed)
            ),
        ];
        // Aggregate primary counters: same STAT keys, values summed.
        let mut sums: Vec<(String, u64)> = Vec::new();
        let mut reporting = 0;
        for shard in &self.topology.shards {
            let Ok(reply) = shard.primary.request("STATS") else {
                continue;
            };
            reporting += 1;
            for line in &reply {
                let Some(kv) = line.strip_prefix("STAT ") else {
                    continue;
                };
                let Some((key, value)) = kv.split_once(' ') else {
                    continue;
                };
                let Ok(value) = value.parse::<u64>() else {
                    continue;
                };
                match sums.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v += value,
                    None => sums.push((key.to_string(), value)),
                }
            }
        }
        out.push(format!("STAT router_primaries_reporting {reporting}"));
        out.extend(sums.into_iter().map(|(k, v)| format!("STAT {k} {v}")));
        out.push("OK".into());
        out
    }

    /// `TOPOLOGY`: per-backend health and document placement.
    fn topology_verb(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut replicas = 0;
        for (i, shard) in self.topology.shards.iter().enumerate() {
            out.push(format!(
                "SHARD {i} primary {} up={} last_lsn={}",
                shard.primary.addr,
                shard.primary.is_up() as u32,
                shard.primary.health.lsn.load(Ordering::Relaxed)
            ));
            for (j, replica) in shard.replicas.iter().enumerate() {
                replicas += 1;
                out.push(format!(
                    "REPLICA {i}.{j} {} up={} applied_lsn={} behind={} fresh={}",
                    replica.addr,
                    replica.is_up() as u32,
                    replica.health.lsn.load(Ordering::Relaxed),
                    shard.behind(replica),
                    (replica.is_up() && shard.behind(replica) <= self.config.max_lag) as u32
                ));
            }
        }
        for (ordinal, doc) in self.registry.snapshot().iter().enumerate() {
            out.push(format!("DOC {ordinal} {} shard={}", doc.name, doc.shard));
        }
        out.push(format!(
            "OK topology shards={} replicas={replicas} docs={}",
            self.topology.shards.len(),
            self.registry.len()
        ));
        out
    }

    /// `DOCS`: the global registry in load order.
    fn docs_verb(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .registry
            .snapshot()
            .iter()
            .enumerate()
            .map(|(ordinal, doc)| format!("DOC {ordinal} {} shard={}", doc.name, doc.shard))
            .collect();
        out.push(format!("OK {} document(s)", out.len()));
        out
    }

    /// `LAG`: the router's freshness view of every replica.
    fn lag_verb(&self) -> Vec<String> {
        let mut out = vec!["LAG role router".to_string()];
        for (i, shard) in self.topology.shards.iter().enumerate() {
            out.push(format!(
                "LAG shard{i}_last_lsn {}",
                shard.primary.health.lsn.load(Ordering::Relaxed)
            ));
            for (j, replica) in shard.replicas.iter().enumerate() {
                out.push(format!(
                    "LAG shard{i}_replica{j}_behind {}",
                    shard.behind(replica)
                ));
            }
        }
        out.push("OK lag".into());
        out
    }

    /// `CACHE LIST`: the `VIEW` rows of every backend.
    fn cache_list(&self) -> Vec<String> {
        let mut out = Vec::new();
        for backend in self.topology.all_backends() {
            if let Ok(reply) = backend.request("CACHE LIST") {
                out.extend(reply.into_iter().filter(|l| l.starts_with("VIEW ")));
            }
        }
        out.push(format!("OK {} view(s)", out.len()));
        out
    }

    /// `CACHE CLEAR`: broadcast to every backend.
    fn cache_clear(&self) -> Vec<String> {
        for backend in self.topology.all_backends() {
            let _ = backend.request("CACHE CLEAR");
        }
        vec!["OK cache cleared".into()]
    }

    /// Routes one parsed request by its variant and returns the
    /// response lines.
    fn route_request(&self, request: Request, limit: usize) -> Vec<String> {
        match request {
            Request::Read {
                verb: ReadVerb::Query,
                doc: None,
                xpath,
                ..
            } => self.scatter_query(&xpath, limit),
            Request::Read {
                verb,
                json,
                doc,
                xpath,
            } => self.read_verb(verb, json, doc, xpath, limit),
            Request::Update { doc, op } => self.write_verb(&doc, op),
            Request::Load { ref name, .. } => self.load_verb(&request, name),
            Request::Checkpoint => self.checkpoint_verb(),
            Request::Stats => self.stats_verb(),
            Request::Docs => self.docs_verb(),
            Request::Lag => self.lag_verb(),
            Request::CacheList => self.cache_list(),
            Request::CacheClear => self.cache_clear(),
        }
    }
}

// ---------------------------------------------------------------------
// The connection-core service
// ---------------------------------------------------------------------

/// The router's [`LineService`]; a connection's session is its row cap
/// (`LIMIT`).
struct RouterService {
    state: Arc<RouterState>,
}

impl LineService for RouterService {
    type Session = usize;

    fn open(&self) -> usize {
        self.state.config.default_limit
    }

    fn handle(&self, limit: &mut usize, line: &str, out: &mut Vec<u8>) -> Dispatch {
        // The one verb the grammar does not know is the router's own.
        let parsed = (line != "TOPOLOGY").then(|| parse_line(line));
        // Every line but the connection verbs counts as a request, a
        // malformed one too.
        if !matches!(
            parsed,
            Some(Ok(Parsed::Ping | Parsed::Quit | Parsed::Limit(_)))
        ) {
            self.state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        }
        let reply = match parsed {
            None => self.state.topology_verb(),
            Some(Ok(Parsed::Ping)) => vec!["OK pong".to_string()],
            Some(Ok(Parsed::Quit)) => {
                out.extend_from_slice(b"OK bye\n");
                return Dispatch::Close;
            }
            Some(Ok(Parsed::Limit(n))) => {
                *limit = n.unwrap_or(*limit);
                vec![format!("OK limit {limit}")]
            }
            Some(Ok(Parsed::Replicate(_))) => {
                vec!["ERR proto REPLICATE is not routable; connect to a shard primary".into()]
            }
            Some(Ok(Parsed::Run(request))) => self.state.route_request(request, *limit),
            Some(Err(msg)) => vec![format!("ERR proto {msg}")],
        };
        for line in reply {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        Dispatch::Next
    }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// The front tier service.
pub struct Router;

impl Router {
    /// Binds the listen address, bootstraps the document registry from
    /// the reachable primaries, starts the health monitor, and serves
    /// on a background thread.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one --shard",
            ));
        }
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let topology = Arc::new(Topology::new(config.shards.clone()));
        let state = Arc::new(RouterState {
            topology: Arc::clone(&topology),
            registry: Registry::default(),
            metrics: RouterMetrics::default(),
            config,
            stopping: AtomicBool::new(false),
        });
        bootstrap_registry(&state);

        let service = RouterService {
            state: Arc::clone(&state),
        };
        // Health monitor.
        let monitor = {
            let state = Arc::clone(&state);
            let interval = state.config.health_interval;
            std::thread::Builder::new()
                .name("vamana-health".into())
                .spawn(move || {
                    let stop = {
                        let state = Arc::clone(&state);
                        move || state.stopping.load(Ordering::SeqCst)
                    };
                    health::run_monitor(Arc::clone(&state.topology), interval, stop);
                })?
        };
        let workers = state.config.workers;
        Ok(RouterHandle {
            addr,
            state,
            monitor: Some(monitor),
            core: Some(event::start(listener, service, workers, "vamana-route")?),
        })
    }
}

/// Bootstraps the registry by asking each reachable primary for its
/// `DOCS`, interleaving per-shard lists by local ordinal (every shard's
/// local order is a subsequence of the global load order; interleaving
/// reconstructs it exactly when loads round-robined across shards and
/// approximates it otherwise — documents loaded *through* the router
/// are always recorded in exact global order).
fn bootstrap_registry(state: &RouterState) {
    let mut per_shard: Vec<Vec<String>> = Vec::new();
    for shard in &state.topology.shards {
        let names = match shard.primary.request("DOCS") {
            Ok(reply) => reply
                .iter()
                .filter_map(|l| l.strip_prefix("DOC "))
                .filter_map(|l| l.split_whitespace().nth(1))
                .map(str::to_string)
                .collect(),
            Err(_) => Vec::new(),
        };
        per_shard.push(names);
    }
    let deepest = per_shard.iter().map(Vec::len).max().unwrap_or(0);
    for position in 0..deepest {
        for (shard, names) in per_shard.iter().enumerate() {
            if let Some(name) = names.get(position) {
                state.registry.register(name, shard);
            }
        }
    }
}

/// A running router; dropping it stops the service.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    monitor: Option<std::thread::JoinHandle<()>>,
    core: Option<event::Running<RouterService>>,
}

impl RouterHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the connection threads and the health monitor and joins
    /// them. A request in flight is answered first.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        self.state.stopping.store(true, Ordering::SeqCst);
        core.stop();
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_limit_truncates_only_rows() {
        let reply: Vec<String> = vec![
            "ROW a 1".into(),
            "ROW b 2".into(),
            "ROW c 3".into(),
            "OK 3 row(s)".into(),
        ];
        let capped = apply_limit(reply.clone(), 2);
        assert_eq!(capped.len(), 3);
        assert_eq!(capped.last().unwrap(), "OK 3 row(s)");
        assert_eq!(apply_limit(reply, 0).len(), 4);
    }

    #[test]
    fn row_total_parses_query_terminators() {
        let reply: Vec<String> = vec!["OK 17 row(s) plan=cached 120us hits=3 misses=0".into()];
        assert_eq!(row_total(&reply), Some(17));
        let err: Vec<String> = vec!["ERR query nope".into()];
        assert_eq!(row_total(&err), None);
        let scalar: Vec<String> = vec!["OK scalar 5us".into()];
        assert_eq!(row_total(&scalar), None);
    }
}
