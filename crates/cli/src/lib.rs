//! Command interpreter behind the `vamana` interactive shell.
//!
//! The REPL logic lives in the library (pure: command string in,
//! rendered output out) so it is unit-testable; `main.rs` only wires
//! stdin/stdout.
//!
//! ```text
//! vamana> .load auction.xml            -- load an XML file into MASS
//! vamana> .generate 5                  -- generate ~5 MB of XMark data
//! vamana> //person[name='Yung Flach']  -- any XPath runs directly
//! vamana> .explain //person/address    -- default vs optimized plan
//! vamana> .count //person              -- index-only count
//! vamana> .limit 50                    -- rows shown per query (0 = all)
//! vamana> .serve 4050                  -- share this session over TCP
//! vamana> .stats                       -- storage statistics
//! vamana> .save store.mass | .open store.mass
//! ```
//!
//! The session's engine lives behind a [`SharedEngine`] so `.serve` can
//! hand the *same* store to a background [`vamana_server::Server`]:
//! documents loaded at the prompt are immediately queryable over the
//! wire (the server's plan cache self-invalidates via the store
//! generation), and vice versa.

use std::fmt::Write as _;
use std::sync::Arc;
use vamana_core::{DocId, Engine, MassStore, SharedEngine, UpdateOp, Value};
use vamana_mass::{pager::FilePager, FsyncPolicy, StoreFormat};
use vamana_server::{render_rows, RenderOptions, Server, ServerConfig, ServerHandle};

/// Result rows printed per query unless `.limit` changes it.
const DEFAULT_MAX_ROWS: usize = 20;

/// Characters of string-value shown per row.
const VALUE_WIDTH: usize = 60;

/// The interactive session state.
pub struct Session {
    engine: Arc<SharedEngine>,
    /// Maximum rows rendered per query (`0` = unlimited).
    limit: usize,
    /// A `.serve` instance sharing this session's engine, if running.
    server: Option<ServerHandle>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session over an empty in-memory store.
    pub fn new() -> Self {
        // `VAMANA_FORMAT=v2` starts the session on the compressed tier.
        let mut store = MassStore::open_memory();
        store
            .set_format(StoreFormat::from_env())
            .expect("empty store accepts any format");
        Session {
            engine: Arc::new(SharedEngine::new(Engine::new(store))),
            limit: DEFAULT_MAX_ROWS,
            server: None,
        }
    }

    /// The shared engine behind the session (and any `.serve` instance).
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.engine
    }

    /// The address of the running `.serve` instance, if any.
    pub fn serving_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|h| h.addr())
    }

    /// Executes one line of input and returns the text to print.
    /// Returns `None` when the session should exit.
    pub fn execute(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return Some(String::new());
        }
        if line == ".quit" || line == ".exit" {
            return None;
        }
        Some(match self.dispatch(line) {
            Ok(out) => out,
            Err(e) => format!("error: {e}"),
        })
    }

    fn dispatch(&mut self, line: &str) -> Result<String, Box<dyn std::error::Error>> {
        if let Some(rest) = line.strip_prefix('.') {
            let (cmd, arg) = match rest.split_once(char::is_whitespace) {
                Some((c, a)) => (c, a.trim()),
                None => (rest, ""),
            };
            return match cmd {
                "help" => Ok(HELP.to_string()),
                "load" => self.cmd_load(arg),
                "generate" => self.cmd_generate(arg),
                "explain" => self.cmd_explain(arg),
                "analyze" => self.cmd_analyze(arg),
                "count" => self.cmd_count(arg),
                "limit" => self.cmd_limit(arg),
                "serve" => self.cmd_serve(arg),
                "stats" => Ok(self.cmd_stats()),
                "docs" => Ok(self.cmd_docs()),
                "optimizer" => self.cmd_optimizer(arg),
                "views" => self.cmd_views(arg),
                "xquery" => self.cmd_xquery(arg),
                "insert" => self.cmd_insert(arg),
                "delete" => self.cmd_delete(arg),
                "checkpoint" => self.cmd_checkpoint(),
                "wal" => Ok(self.cmd_wal()),
                "replica" => self.cmd_replica(arg),
                "topology" => self.cmd_topology(arg),
                "router" => self.cmd_router(arg),
                "save" => self.cmd_save(arg),
                "open" => self.cmd_open(arg),
                other => Err(format!("unknown command .{other}; try .help").into()),
            };
        }
        self.cmd_query(line)
    }

    fn require_docs(&self) -> Result<(), Box<dyn std::error::Error>> {
        if self.engine.read().store().documents().is_empty() {
            return Err("no documents loaded — use .load <file> or .generate <mb>".into());
        }
        Ok(())
    }

    fn cmd_load(&mut self, path: &str) -> Result<String, Box<dyn std::error::Error>> {
        if path.is_empty() {
            return Err(".load needs a file path".into());
        }
        let xml = std::fs::read_to_string(path)?;
        let t = std::time::Instant::now();
        let id = self.engine.load_xml(path, &xml)?;
        let engine = self.engine.read();
        let stats = engine.store().stats();
        Ok(format!(
            "loaded {path} as document {} in {:.2?} ({} tuples on {} pages)",
            id.0,
            t.elapsed(),
            stats.tuples,
            stats.pages
        ))
    }

    fn cmd_generate(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        let (size, file) = match arg.split_once(char::is_whitespace) {
            Some((mb, path)) => (mb, Some(path.trim())),
            None => (arg, None),
        };
        let mb: f64 = if size.is_empty() { 1.0 } else { size.parse()? };
        let config = vamana_xmark::scale::config_for_megabytes(mb);
        let t = std::time::Instant::now();
        if let Some(path) = file {
            // Stream straight to disk: O(1) memory at any scale.
            let out = std::io::BufWriter::new(std::fs::File::create(path)?);
            let bytes = vamana_xmark::generate_to(&config, out)?;
            return Ok(format!(
                "generated {:.1} MB of XMark data to {path} in {:.2?}",
                bytes as f64 / 1_048_576.0,
                t.elapsed()
            ));
        }
        // Stream into a buffer (no DOM arena), then bulk-load it.
        let mut xml = Vec::new();
        vamana_xmark::generate_to(&config, &mut xml)?;
        let xml = String::from_utf8(xml).expect("generator emits UTF-8");
        let id = self.engine.load_xml("xmark-generated", &xml)?;
        Ok(format!(
            "generated {:.1} MB of XMark data as document {} in {:.2?}",
            xml.len() as f64 / 1_048_576.0,
            id.0,
            t.elapsed()
        ))
    }

    fn cmd_query(&mut self, xpath: &str) -> Result<String, Box<dyn std::error::Error>> {
        self.require_docs()?;
        let engine = self.engine.read();
        let t = std::time::Instant::now();
        let value = engine.evaluate(DocId(0), xpath)?;
        let elapsed = t.elapsed();
        let mut out = String::new();
        match value {
            Value::Nodes(nodes) => {
                let rendered = render_rows(
                    &engine,
                    &nodes,
                    &RenderOptions {
                        limit: self.limit,
                        value_width: VALUE_WIDTH,
                    },
                )?;
                for line in &rendered.lines {
                    let _ = writeln!(out, "  {line}");
                }
                if rendered.truncated() > 0 {
                    let _ = writeln!(out, "  … {} more", rendered.truncated());
                }
                let _ = write!(out, "{} node(s) in {elapsed:.2?}", rendered.total);
            }
            Value::Num(n) => {
                let _ = write!(out, "{n} ({elapsed:.2?})");
            }
            Value::Str(s) => {
                let _ = write!(out, "\"{s}\" ({elapsed:.2?})");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b} ({elapsed:.2?})");
            }
        }
        Ok(out)
    }

    fn cmd_limit(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        if arg.is_empty() {
            return Ok(match self.limit {
                0 => "limit is 0 (unlimited)".to_string(),
                n => format!("limit is {n} row(s)"),
            });
        }
        let n: usize = arg
            .parse()
            .map_err(|_| format!(".limit needs a non-negative integer, got `{arg}`"))?;
        self.limit = n;
        Ok(match n {
            0 => "limit set to 0 (unlimited)".to_string(),
            n => format!("limit set to {n} row(s)"),
        })
    }

    fn cmd_serve(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        match arg {
            "stop" => match self.server.take() {
                Some(handle) => {
                    let addr = handle.addr();
                    handle.stop();
                    Ok(format!("stopped serving on {addr}"))
                }
                None => Err("not serving; start with .serve <port>".into()),
            },
            "" => Ok(match &self.server {
                Some(handle) => format!("serving on {}", handle.addr()),
                None => "not serving; start with .serve <port>".to_string(),
            }),
            port => {
                if let Some(handle) = &self.server {
                    return Err(format!("already serving on {}", handle.addr()).into());
                }
                let port: u16 = port
                    .parse()
                    .map_err(|_| format!(".serve needs a port number, got `{port}`"))?;
                let server = Server::bind_shared(
                    ("127.0.0.1", port),
                    Arc::clone(&self.engine),
                    ServerConfig::default(),
                )?;
                let handle = server.spawn()?;
                let addr = handle.addr();
                self.server = Some(handle);
                Ok(format!(
                    "serving this session's store on {addr} (stop with .serve stop)"
                ))
            }
        }
    }

    fn cmd_explain(&mut self, xpath: &str) -> Result<String, Box<dyn std::error::Error>> {
        self.require_docs()?;
        if xpath.is_empty() {
            return Err(".explain needs an XPath expression".into());
        }
        let ex = self.engine.read().explain(DocId(0), xpath)?;
        let mut out = String::new();
        let _ = writeln!(out, "default plan (Σ tuple volume {}):", ex.default_cost);
        out.push_str(&ex.default_plan);
        let _ = writeln!(
            out,
            "optimized plan (Σ tuple volume {}; rules {:?}; {} iteration(s)):",
            ex.optimized_cost, ex.applied, ex.iterations
        );
        out.push_str(&ex.optimized_plan);
        out.push_str("optimizer trace:\n");
        out.push_str(&ex.opt_trace.render());
        Ok(out)
    }

    fn cmd_analyze(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        self.require_docs()?;
        let (json, xpath) = match arg.strip_prefix("json") {
            Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest.trim()),
            _ => (false, arg),
        };
        if xpath.is_empty() {
            return Err(".analyze needs an XPath expression".into());
        }
        let analysis = self.engine.read().analyze_doc(DocId(0), xpath)?;
        if json {
            return Ok(analysis.render_json());
        }
        let mut out = analysis.render();
        out.push_str("optimizer trace:\n");
        out.push_str(&analysis.opt_trace.render());
        let p = &analysis.profile;
        let _ = write!(
            out,
            "profile: {:.2?}, {} hit(s) / {} miss(es), {} batch pin(s), {} morsel(s)",
            p.elapsed, p.buffer_hits, p.buffer_misses, p.batch_pins, p.morsels
        );
        Ok(out)
    }

    fn cmd_count(&mut self, xpath: &str) -> Result<String, Box<dyn std::error::Error>> {
        self.require_docs()?;
        if xpath.is_empty() {
            return Err(".count needs an XPath expression".into());
        }
        let t = std::time::Instant::now();
        let v = self
            .engine
            .read()
            .evaluate(DocId(0), &format!("count({xpath})"))?;
        match v {
            Value::Num(n) => Ok(format!("{n} ({:.2?})", t.elapsed())),
            other => Err(format!("unexpected result {other:?}").into()),
        }
    }

    fn cmd_xquery(&mut self, query: &str) -> Result<String, Box<dyn std::error::Error>> {
        self.require_docs()?;
        if query.is_empty() {
            return Err(".xquery needs a FLWOR expression".into());
        }
        let t = std::time::Instant::now();
        let engine = self.engine.read();
        let xq = vamana_xquery::XQueryEngine::new(&engine);
        let out = xq.eval_to_xml(query)?;
        Ok(format!("{out}\n({:.2?})", t.elapsed()))
    }

    fn cmd_stats(&self) -> String {
        let engine = self.engine.read();
        let s = engine.store().stats();
        let p = engine.parallel_stats();
        format!(
            "documents: {}\ntuples:    {}\npages:     {} ({:.1} tuples/page)\nnames:     {}\nvalues:    {}\nstorage:   format {} / {} compressed + {} uncompressed pages / {} dict entries\n           {} bytes on disk ({:.2}x compression, {:.1} bytes/tuple)\ndecodes:   {} v1 / {} v2 / {} format fallbacks\nbuffer:    {} hits / {} misses / {} evictions ({:.1}% hit ratio)\nbatched:   {} batch pins / {} pins saved\nparallel:  {} workers / {} morsels / {} batches / {} merge stalls",
            s.documents,
            s.tuples,
            s.pages,
            s.tuples_per_page(),
            s.distinct_names,
            s.distinct_values,
            s.format.as_str(),
            s.compressed_pages,
            s.uncompressed_pages,
            s.dict_entries,
            s.disk_bytes(),
            s.compression_ratio(),
            s.bytes_per_tuple(),
            s.buffer.decodes_v1,
            s.buffer.decodes_v2,
            s.buffer.format_fallbacks,
            s.buffer.hits,
            s.buffer.misses,
            s.buffer.evictions,
            s.buffer.hit_ratio() * 100.0,
            s.buffer.batch_pins,
            s.buffer.pins_saved,
            p.workers,
            p.morsels,
            p.worker_batches,
            p.merge_stalls
        )
    }

    fn cmd_docs(&self) -> String {
        let engine = self.engine.read();
        if engine.store().documents().is_empty() {
            return "no documents loaded".to_string();
        }
        let mut out = String::new();
        for (i, d) in engine.store().documents().iter().enumerate() {
            let _ = writeln!(out, "  [{i}] {} (root key {})", d.name, d.doc_key);
        }
        out.pop();
        out
    }

    fn cmd_optimizer(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        match arg {
            "on" => {
                self.engine.write().options_mut().optimize = true;
                Ok("optimizer on (VQP-OPT)".to_string())
            }
            "off" => {
                self.engine.write().options_mut().optimize = false;
                Ok("optimizer off (VQP: default plans)".to_string())
            }
            "" => Ok(format!(
                "optimizer is {}",
                if self.engine.read().options().optimize {
                    "on"
                } else {
                    "off"
                }
            )),
            other => Err(format!("usage: .optimizer [on|off], got `{other}`").into()),
        }
    }

    fn cmd_views(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        match arg {
            "clear" => {
                self.engine.read().views().clear();
                Ok("view cache cleared".to_string())
            }
            "" => {
                let engine = self.engine.read();
                let stats = engine.views().stats();
                let mut out = format!(
                    "views — {} materialized, {} bytes, hits {}, misses {}, evictions {}",
                    stats.views, stats.bytes, stats.hits, stats.misses, stats.evictions
                );
                for v in engine.views().list() {
                    out.push_str(&format!(
                        "\n  doc {} gen {} rows {} bytes {} hits {}  {}",
                        v.doc, v.generation, v.rows, v.bytes, v.hits, v.xpath
                    ));
                }
                Ok(out)
            }
            other => Err(format!("usage: .views [clear], got `{other}`").into()),
        }
    }

    /// Resolves a document argument — numeric id or document name.
    fn resolve_doc(&self, token: &str) -> Result<DocId, Box<dyn std::error::Error>> {
        let engine = self.engine.read();
        let docs = engine.store().documents();
        if let Ok(i) = token.parse::<u32>() {
            if (i as usize) < docs.len() {
                return Ok(DocId(i));
            }
        }
        docs.iter()
            .position(|d| &*d.name == token)
            .map(|i| DocId(i as u32))
            .ok_or_else(|| format!("no such document `{token}` (see .docs)").into())
    }

    fn cmd_insert(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        let Some((doc, tail)) = arg
            .split_once(char::is_whitespace)
            .map(|(d, t)| (d, t.trim()))
        else {
            return Err(".insert needs: <doc> <target-xpath> <fragment>".into());
        };
        let Some(at) = tail.find(" <") else {
            return Err(".insert needs an XML fragment after the target XPath".into());
        };
        let (target, fragment) = tail.split_at(at);
        let doc = self.resolve_doc(doc)?;
        let op = UpdateOp::Insert {
            target: target.trim().to_string(),
            fragment: fragment.trim().to_string(),
        };
        let outcome = self.engine.write().apply_update(doc, &op)?;
        Ok(format!(
            "inserted {} tuple(s) at the first of {} match(es) (lsn {}, doc generation {}) in {:.2?}",
            outcome.inserted,
            outcome.matched,
            outcome.lsn,
            outcome.doc_generation,
            outcome.profile.elapsed
        ))
    }

    fn cmd_delete(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        let Some((doc, target)) = arg
            .split_once(char::is_whitespace)
            .map(|(d, t)| (d, t.trim()))
        else {
            return Err(".delete needs: <doc> <target-xpath>".into());
        };
        if target.is_empty() {
            return Err(".delete needs: <doc> <target-xpath>".into());
        }
        let doc = self.resolve_doc(doc)?;
        let op = UpdateOp::Delete {
            target: target.to_string(),
        };
        let outcome = self.engine.write().apply_update(doc, &op)?;
        Ok(format!(
            "deleted {} tuple(s) across {} match(es) (lsn {}, doc generation {}) in {:.2?}",
            outcome.deleted,
            outcome.matched,
            outcome.lsn,
            outcome.doc_generation,
            outcome.profile.elapsed
        ))
    }

    fn cmd_checkpoint(&mut self) -> Result<String, Box<dyn std::error::Error>> {
        let t = std::time::Instant::now();
        let stats = self.engine.write().checkpoint()?;
        Ok(format!(
            "checkpointed in {:.2?}: WAL depth {} record(s), last lsn {}",
            t.elapsed(),
            stats.depth,
            stats.last_lsn
        ))
    }

    fn cmd_wal(&self) -> String {
        let engine = self.engine.read();
        let store = engine.store();
        if !store.is_durable() {
            return "in-memory store: no write-ahead log (use .save <file>)".to_string();
        }
        let wal = store.wal_stats();
        let policy = match store.fsync_policy() {
            Some(FsyncPolicy::Always) => "always".to_string(),
            Some(FsyncPolicy::EveryN(n)) => format!("every {n} commit(s)"),
            Some(FsyncPolicy::Never) => "never".to_string(),
            None => "unknown".to_string(),
        };
        format!(
            "wal depth:  {} record(s) since the last checkpoint\nstart lsn:  {}\nlast lsn:   {}\ncommits:    {} (this session)\nfsync:      {} ({} issued)\nreplayed:   {} record(s) to lsn {} at open",
            wal.depth,
            wal.start_lsn,
            wal.last_lsn,
            wal.commits,
            policy,
            wal.fsyncs,
            wal.replayed_records,
            wal.replayed_lsn
        )
    }

    /// Asks a server (primary or replica) for its `LAG` report.
    fn cmd_replica(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        if arg.is_empty() {
            return Err(".replica needs a <host:port> to ask for LAG".into());
        }
        let mut out = String::new();
        for line in wire_request(arg, "LAG")? {
            if line.starts_with("OK") {
                break;
            }
            let _ = writeln!(out, "  {}", line.strip_prefix("LAG ").unwrap_or(&line));
        }
        out.pop();
        Ok(out)
    }

    /// Asks a `vamana-router` for its `TOPOLOGY` report: shard
    /// primaries, replicas (lag and freshness as the router sees them),
    /// and the document registry with each document's owning shard.
    fn cmd_topology(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        if arg.is_empty() {
            return Err(".topology needs a router <host:port>".into());
        }
        let mut out = String::new();
        for line in wire_request(arg, "TOPOLOGY")? {
            if line.starts_with("OK") {
                let _ = write!(out, "{line}");
            } else {
                let _ = writeln!(out, "  {line}");
            }
        }
        Ok(out)
    }

    /// Sends one raw protocol line to any wire endpoint (server or
    /// router) and prints the reply verbatim — the ops escape hatch for
    /// verbs without a dedicated dot-command (`STATS`, `CHECKPOINT`,
    /// `CACHE LIST`, …).
    fn cmd_router(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        let Some((addr, request)) = arg.split_once(char::is_whitespace) else {
            return Err(
                ".router needs: <host:port> <request line> (e.g. .router 127.0.0.1:4040 STATS)"
                    .into(),
            );
        };
        Ok(wire_request(addr, request.trim())?.join("\n"))
    }

    fn cmd_save(&mut self, path: &str) -> Result<String, Box<dyn std::error::Error>> {
        if path.is_empty() {
            return Err(".save needs a file path".into());
        }
        self.require_docs()?;
        // Rebuild the store into a durable file-backed pager (pages +
        // WAL) by re-serializing the documents (the in-memory pager has
        // no file to checkpoint).
        let mut file_store = MassStore::create_durable(path, 1024, FsyncPolicy::Always)?;
        // Keep the session's page format across the rebuild.
        file_store.set_format(self.engine.read().store().format())?;
        {
            let engine = self.engine.read();
            for i in 0..engine.store().documents().len() {
                let info = &engine.store().documents()[i];
                let xml = reserialize(&engine, DocId(i as u32))?;
                file_store.load_xml(&info.name.clone(), &xml)?;
            }
        }
        file_store.checkpoint()?;
        let tuples = file_store.stats().tuples;
        *self.engine.write() = Engine::new(file_store);
        Ok(format!(
            "saved to {path} ({tuples} tuples); session now runs on the durable file-backed store"
        ))
    }

    fn cmd_open(&mut self, path: &str) -> Result<String, Box<dyn std::error::Error>> {
        if path.is_empty() {
            return Err(".open needs a file path".into());
        }
        // A sibling `.wal` file marks a durable store: open it through
        // recovery (replays the committed WAL tail) instead of plain.
        let durable = FilePager::wal_path(std::path::Path::new(path)).exists();
        let store = if durable {
            MassStore::open_durable(path, 1024, FsyncPolicy::Always)?
        } else {
            MassStore::open_file(path, 1024)?
        };
        let stats = store.stats();
        let wal = store.wal_stats();
        *self.engine.write() = Engine::new(store);
        let mut out = format!(
            "opened {path}: {} documents, {} tuples on {} pages",
            stats.documents, stats.tuples, stats.pages
        );
        if durable {
            let _ = write!(
                out,
                " (durable; replayed {} WAL record(s) to lsn {})",
                wal.replayed_records, wal.replayed_lsn
            );
        }
        Ok(out)
    }
}

/// One request/reply round trip against a VAMANA wire endpoint (server
/// or router): returns every reply line up to and including the
/// terminating `OK …`, or `Err` carrying an `ERR …` reply.
fn wire_request(addr: &str, request: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{request}")?;
    writer.flush()?;
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err("server closed the connection mid-response".into());
        }
        let line = line.trim_end().to_string();
        if line.starts_with("ERR") {
            return Err(line.into());
        }
        let done = line.starts_with("OK");
        lines.push(line);
        if done {
            return Ok(lines);
        }
    }
}

/// Round-trips a stored document back to XML text, used by `.save` to
/// copy between pagers.
fn reserialize(engine: &Engine, doc: DocId) -> Result<String, Box<dyn std::error::Error>> {
    let store = engine.store();
    let info = store.document(doc).ok_or("no such document")?;
    Ok(vamana_mass::export::export_subtree_xml(
        store,
        &info.doc_key,
    )?)
}

/// `.help` text.
pub const HELP: &str = "\
commands:
  <xpath>             evaluate an XPath expression on document 0
  .load <file>        load an XML file into the store
  .generate [mb] [file]  generate ~mb MB of XMark data (stream to file if given)
  .explain <xpath>    show default vs optimized plan with live costs
                      and the optimizer's pass-by-pass trace
  .analyze [json] <xpath>
                      run the query with per-operator instrumentation:
                      est vs act rows, q-errors, misestimation summary
  .count <xpath>      count results (index-only when possible)
  .limit [n]          rows shown per query (0 = unlimited)
  .serve <port|stop>  share this session's store over TCP
  .xquery <flwor>     run an XQuery-lite FLWOR expression
  .optimizer [on|off] toggle the cost-driven optimizer
  .views [clear]      materialized views: hot query results the optimizer
                      answers contained queries from when that is cheaper
  .stats              storage and buffer-pool statistics
  .docs               list loaded documents
  .insert <doc> <xpath> <fragment>
                      append an XML fragment to the first match
  .delete <doc> <xpath>
                      delete every match's subtree
  .checkpoint         fold the WAL into the page store and truncate it
  .wal                write-ahead log depth, LSN range, and fsync policy
  .replica <host:port>
                      ask a server for its replication LAG report
  .topology <host:port>
                      ask a vamana-router for its shard/replica/document
                      topology (health, lag bounds, placement)
  .router <host:port> <request>
                      send one raw protocol line to a server or router
                      and print the reply (e.g. .router :4040 STATS)
  .save <file>        persist the store to disk with a WAL (switches to it)
  .open <file>        open a persisted store (recovers from its WAL)
  .help               this text
  .quit               exit";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A fresh directory per call: tests run on parallel threads of one
    /// process, and one shared `t.xml` was rewritten under a sibling's
    /// `.load`.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("vamana-cli-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn loaded() -> Session {
        let mut s = Session::new();
        let dir = scratch_dir("load");
        let f = dir.join("t.xml");
        std::fs::write(
            &f,
            "<site><person id='p0'><name>Yung Flach</name></person></site>",
        )
        .unwrap();
        let out = s.execute(&format!(".load {}", f.display())).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.contains("loaded"), "{out}");
        s
    }

    #[test]
    fn query_returns_rows_and_timing() {
        let mut s = loaded();
        let out = s.execute("//name").unwrap();
        assert!(out.contains("Yung Flach"), "{out}");
        assert!(out.contains("1 node(s)"), "{out}");
    }

    #[test]
    fn scalar_expressions_print_values() {
        let mut s = loaded();
        let out = s.execute("count(//person)").unwrap();
        assert!(out.starts_with('1'), "{out}");
        let out = s.execute("concat('a', 'b')").unwrap();
        assert!(out.contains("\"ab\""), "{out}");
    }

    #[test]
    fn a_query_too_deep_to_run_is_an_error_and_the_session_goes_on() {
        let mut s = loaded();
        for deep in [
            format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000)),
            format!("{}a", "a/".repeat(10_000)),
            format!(".explain {}1", "1+".repeat(10_000)),
            format!(".xquery {}", "<a>".repeat(10_000)),
        ] {
            let out = s.execute(&deep).unwrap();
            assert!(
                out.starts_with("error:") && out.contains("levels deep"),
                "{out}"
            );
        }
        assert!(s.execute("count(//person)").unwrap().starts_with('1'));
    }

    #[test]
    fn limit_caps_rows_and_is_adjustable() {
        let mut s = Session::new();
        s.engine()
            .load_xml("d", "<r><a>1</a><a>2</a><a>3</a></r>")
            .unwrap();
        assert!(s.execute(".limit").unwrap().contains("20"));
        assert!(s.execute(".limit 2").unwrap().contains("2 row(s)"));
        let out = s.execute("//a").unwrap();
        assert!(out.contains("… 1 more"), "{out}");
        assert!(out.contains("3 node(s)"), "{out}");
        assert!(s.execute(".limit 0").unwrap().contains("unlimited"));
        let out = s.execute("//a").unwrap();
        assert!(!out.contains("more"), "{out}");
        let out = s.execute(".limit nope").unwrap();
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn serve_shares_the_session_store() {
        let mut s = loaded();
        // Port 0: the kernel picks a free port, reported by serving_addr.
        let out = s.execute(".serve 0").unwrap();
        assert!(out.contains("serving"), "{out}");
        let addr = s.serving_addr().expect("serving");

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "QUERY //name").unwrap();
        let mut rows = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            let done = line.starts_with("OK") || line.starts_with("ERR");
            rows.push(line);
            if done {
                break;
            }
        }
        assert!(rows[0].contains("Yung Flach"), "{rows:?}");
        assert!(rows.last().unwrap().starts_with("OK 1 row(s)"), "{rows:?}");

        assert!(s.execute(".serve").unwrap().contains("serving on"));
        let out = s.execute(".serve 0").unwrap();
        assert!(out.contains("already serving"), "{out}");
        assert!(s.execute(".serve stop").unwrap().contains("stopped"));
        assert!(s.execute(".serve").unwrap().contains("not serving"));
    }

    #[test]
    fn explain_shows_plans() {
        let mut s = loaded();
        let out = s.execute(".explain //person/name").unwrap();
        assert!(out.contains("default plan"), "{out}");
        assert!(out.contains("optimized plan"), "{out}");
        assert!(out.contains('φ'), "{out}");
        assert!(out.contains("optimizer trace:"), "{out}");
        assert!(out.contains("pass: clean-up"), "{out}");
        assert!(out.contains("pass: cost gathering"), "{out}");
    }

    #[test]
    fn analyze_shows_actuals_and_trace() {
        let mut s = loaded();
        let out = s.execute(".analyze //person/name").unwrap();
        assert!(out.contains("est="), "{out}");
        assert!(out.contains("act="), "{out}");
        assert!(out.contains("misestimations"), "{out}");
        assert!(out.contains("optimizer trace:"), "{out}");
        assert!(out.contains("profile:"), "{out}");
        let out = s.execute(".analyze json //person/name").unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"operators\""), "{out}");
        assert!(out.contains("\"trace\""), "{out}");
        let out = s.execute(".analyze").unwrap();
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn stats_and_docs_render() {
        let mut s = loaded();
        let out = s.execute(".stats").unwrap();
        assert!(out.contains("tuples"), "{out}");
        assert!(out.contains("batch pins"), "{out}");
        assert!(out.contains("merge stalls"), "{out}");
        let out = s.execute(".docs").unwrap();
        assert!(out.contains("[0]"), "{out}");
    }

    #[test]
    fn optimizer_toggle() {
        let mut s = loaded();
        assert!(s.execute(".optimizer off").unwrap().contains("off"));
        assert!(s.execute(".optimizer").unwrap().contains("off"));
        assert!(s.execute(".optimizer on").unwrap().contains("on"));
    }

    #[test]
    fn views_materialize_list_and_clear() {
        let mut s = loaded();
        assert!(s.execute(".views").unwrap().contains("0 materialized"));
        // Second sighting crosses the default admission threshold.
        s.execute("//name").unwrap();
        s.execute("//name").unwrap();
        let out = s.execute(".views").unwrap();
        assert!(out.contains("1 materialized"), "{out}");
        assert!(out.contains("//name"), "{out}");
        assert!(s.execute(".views clear").unwrap().contains("cleared"));
        assert!(s.execute(".views").unwrap().contains("0 materialized"));
        assert!(s.execute(".views frob").unwrap().contains("error"));
        assert!(s.execute(".views on").unwrap().contains("error"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        let out = s.execute("//person").unwrap();
        assert!(out.contains("no documents"), "{out}");
        let out = s.execute(".bogus").unwrap();
        assert!(out.contains("unknown command"), "{out}");
        let mut s = loaded();
        let out = s.execute("//person[").unwrap();
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn quit_ends_session() {
        let mut s = Session::new();
        assert!(s.execute(".quit").is_none());
        assert!(s.execute(".exit").is_none());
    }

    #[test]
    fn save_and_open_round_trip() {
        let mut s = loaded();
        let dir = scratch_dir("save");
        let f = dir.join("session.mass");
        let out = s.execute(&format!(".save {}", f.display())).unwrap();
        assert!(out.contains("saved"), "{out}");

        let mut s2 = Session::new();
        let out = s2.execute(&format!(".open {}", f.display())).unwrap();
        assert!(out.contains("opened"), "{out}");
        let out = s2.execute("//name").unwrap();
        assert!(out.contains("Yung Flach"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_delete_and_checkpoint_commands() {
        let mut s = loaded();
        let out = s
            .execute(".insert 0 /site <person id='p1'><name>Grace</name></person>")
            .unwrap();
        assert!(out.contains("match(es)"), "{out}");
        assert!(out.contains("doc generation 1"), "{out}");
        let out = s.execute(".count //person").unwrap();
        assert!(out.starts_with('2'), "{out}");

        let out = s.execute(".delete 0 //person[name='Grace']").unwrap();
        assert!(out.contains("deleted"), "{out}");
        let out = s.execute(".count //person").unwrap();
        assert!(out.starts_with('1'), "{out}");

        // In-memory stores checkpoint trivially (no WAL).
        let out = s.execute(".checkpoint").unwrap();
        assert!(out.contains("WAL depth 0"), "{out}");

        let out = s.execute(".insert 0").unwrap();
        assert!(out.contains("error"), "{out}");
        let out = s.execute(".delete nosuchdoc //a").unwrap();
        assert!(out.contains("no such document"), "{out}");
    }

    #[test]
    fn saved_store_recovers_updates_from_the_wal() {
        let mut s = loaded();
        let dir = scratch_dir("wal");
        let f = dir.join("durable.mass");
        let out = s.execute(&format!(".save {}", f.display())).unwrap();
        assert!(out.contains("saved"), "{out}");

        // Update through the durable session; do NOT checkpoint — the
        // WAL alone must carry the insert across the reopen.
        let out = s
            .execute(".insert 0 /site <person id='p9'><name>Walled</name></person>")
            .unwrap();
        assert!(out.contains("lsn"), "{out}");
        drop(s);

        let mut s2 = Session::new();
        let out = s2.execute(&format!(".open {}", f.display())).unwrap();
        assert!(out.contains("durable"), "{out}");
        assert!(out.contains("replayed"), "{out}");
        let out = s2.execute("//person[name='Walled']").unwrap();
        assert!(out.contains("1 node(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_command_reports_depth_and_policy() {
        let mut s = Session::new();
        let out = s.execute(".wal").unwrap();
        assert!(out.contains("in-memory store"), "{out}");

        let mut s = loaded();
        let dir = scratch_dir("walcmd");
        let f = dir.join("walcmd.mass");
        s.execute(&format!(".save {}", f.display())).unwrap();
        let out = s
            .execute(".insert 0 /site <person id='p2'><name>Lag</name></person>")
            .unwrap();
        assert!(out.contains("lsn"), "{out}");
        let out = s.execute(".wal").unwrap();
        assert!(out.contains("wal depth"), "{out}");
        assert!(out.contains("fsync:      always"), "{out}");
        assert!(!out.contains("wal depth:  0 "), "pending records: {out}");
        let out = s.execute(".checkpoint").unwrap();
        assert!(out.contains("WAL depth 0"), "{out}");
        let out = s.execute(".wal").unwrap();
        assert!(out.contains("wal depth:  0 "), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_command_fetches_lag_from_a_server() {
        let mut s = loaded();
        s.execute(".serve 0").unwrap();
        let addr = s.serving_addr().expect("serving");
        let out = s.execute(&format!(".replica {addr}")).unwrap();
        assert!(out.contains("role primary"), "{out}");
        assert!(out.contains("feeds"), "{out}");
        s.execute(".serve stop").unwrap();
        let out = s.execute(".replica").unwrap();
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn xquery_command_runs_flwor() {
        let mut s = loaded();
        let out = s
            .execute(".xquery for $p in //person return <r>{ $p/name/text() }</r>")
            .unwrap();
        assert!(out.contains("<r>Yung Flach</r>"), "{out}");
        let out = s.execute(".xquery nonsense $$$").unwrap();
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn generate_loads_xmark() {
        let mut s = Session::new();
        let out = s.execute(".generate 0.2").unwrap();
        assert!(out.contains("generated"), "{out}");
        let out = s.execute(".count //person").unwrap();
        let n: f64 = out.split_whitespace().next().unwrap().parse().unwrap();
        assert!(n > 10.0, "{out}");
    }

    #[test]
    fn router_and_topology_commands_speak_the_wire() {
        let mut s = loaded();
        s.execute(".serve 0").unwrap();
        let addr = s.serving_addr().expect("serving").to_string();

        // .router sends any raw verb; a plain server answers STATS.
        let out = s.execute(&format!(".router {addr} STATS")).unwrap();
        assert!(out.contains("STAT queries_total"), "{out}");
        assert!(out.lines().last().unwrap().starts_with("OK"), "{out}");

        // .topology needs a router behind the address; a plain server
        // rejects the verb, and the error reply surfaces as the error.
        let out = s.execute(&format!(".topology {addr}")).unwrap();
        assert!(out.starts_with("error: ERR"), "{out}");

        // Argument validation.
        let out = s.execute(".router onlyoneword").unwrap();
        assert!(out.contains("error"), "{out}");
        let out = s.execute(".topology").unwrap();
        assert!(out.contains("error"), "{out}");
        s.execute(".serve stop").unwrap();
    }
}
