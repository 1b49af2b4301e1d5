//! Command interpreter behind the `vamana` interactive shell.
//!
//! The REPL logic lives in the library (pure: command string in,
//! rendered output out) so it is unit-testable; `main.rs` only wires
//! stdin/stdout.
//!
//! ```text
//! vamana> .generate 5                  -- generate ~5 MB of XMark data
//! vamana> //person[name='Yung Flach']  -- a bare line runs as EVAL
//! vamana> .load auction auction.xml    -- any wire verb: LOAD <name> <path>
//! vamana> .explain //person/address    -- EXPLAIN: default vs optimized plan
//! vamana> .limit 50                    -- LIMIT: rows shown per query (0 = all)
//! vamana> .serve 4050                  -- share this session over TCP
//! vamana> .save store.mass | .open store.mass
//! ```
//!
//! A session answers a line the way a server does. It holds the
//! [`Shared`] state of a service over its engine and sends `.<verb> rest`
//! as the request line `<VERB> rest`, and any other line as `EVAL <line>`,
//! through that state's own parser, executor and reply writer: what it
//! prints is the wire reply. `.serve` binds a listener over the same
//! engine with the service's default settings, so documents loaded at the
//! prompt are queryable over the wire, and vice versa. Only what belongs
//! to the session has a command of its own: generating data, XQuery, the
//! optimizer switch, files, and talking to another endpoint.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use vamana_core::{DocId, Engine, MassStore, SharedEngine};
use vamana_mass::{pager::FilePager, FsyncPolicy};
use vamana_server::event::{round_trip, Dispatch, LineService};
use vamana_server::{Server, ServerConfig, ServerHandle, Shared};

/// The interactive session state.
pub struct Session {
    /// The service state the session's lines run through.
    shared: Arc<Shared>,
    /// The session's row cap, as `LIMIT` sets it.
    limit: usize,
    /// A `.serve` instance over the same engine, if running.
    server: Option<ServerHandle>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session over an empty in-memory store. Rows show 60 characters
    /// of string-value, and a query typed at the prompt has no deadline.
    pub fn new() -> Self {
        let engine = Arc::new(SharedEngine::new(Engine::new(MassStore::open_memory())));
        let config = ServerConfig {
            value_width: 60,
            query_timeout: Duration::from_secs(u32::MAX.into()),
            ..ServerConfig::default()
        };
        Session {
            limit: config.default_limit,
            shared: Shared::new(engine, config),
            server: None,
        }
    }

    /// The shared engine behind the session (and any `.serve` instance).
    pub fn engine(&self) -> &Arc<SharedEngine> {
        self.shared.engine()
    }

    /// Loads the XML file at `path` as a document named by that path,
    /// the way files given on the command line are loaded: the whole
    /// argument is the path, spaces included.
    pub fn load_file(&self, path: &str) -> Result<String, Box<dyn std::error::Error>> {
        let xml = std::fs::read_to_string(path)?;
        let id = self.engine().load_xml(path, &xml)?;
        Ok(format!("loaded {path} as document {}", id.0))
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
            Err(e) => format!("ERR shell {e}"),
        })
    }

    fn dispatch(&mut self, line: &str) -> Result<String, Box<dyn std::error::Error>> {
        let Some(rest) = line.strip_prefix('.') else {
            return Ok(self.request(&format!("EVAL {line}")));
        };
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "help" => Ok(HELP.to_string()),
            "generate" => self.cmd_generate(arg),
            "serve" => self.cmd_serve(arg),
            "optimizer" => self.cmd_optimizer(arg),
            "xquery" => self.cmd_xquery(arg),
            "router" => self.cmd_router(arg),
            "save" => self.cmd_save(arg),
            "open" => self.cmd_open(arg),
            verb => {
                let line = format!("{} {arg}", verb.to_ascii_uppercase());
                Ok(self.request(line.trim_end()))
            }
        }
    }

    /// Answers one request line as a connection of the session's service
    /// would, and returns the reply without its last newline.
    fn request(&mut self, line: &str) -> String {
        let mut out = Vec::new();
        if let Dispatch::Handoff(_) = self.shared.handle(&mut self.limit, line, &mut out) {
            return "ERR proto REPLICATE needs a connection of its own (see .serve)".into();
        }
        let mut out = String::from_utf8(out).expect("replies are UTF-8");
        out.pop();
        out
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
        let id = self.engine().load_xml("xmark-generated", &xml)?;
        Ok(format!(
            "generated {:.1} MB of XMark data as document {} in {:.2?}",
            xml.len() as f64 / 1_048_576.0,
            id.0,
            t.elapsed()
        ))
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
                self.serve(port, ServerConfig::default())
            }
        }
    }

    /// Serves the session's engine on `port` under `config`. The socket
    /// keeps the service's own settings (its query deadline and value
    /// width), not the prompt's: a runaway query over the wire must not
    /// hold a connection thread for good.
    fn serve(
        &mut self,
        port: u16,
        config: ServerConfig,
    ) -> Result<String, Box<dyn std::error::Error>> {
        let server = Server::bind_shared(("127.0.0.1", port), Arc::clone(self.engine()), config)?;
        let handle = server.spawn()?;
        let addr = handle.addr();
        self.server = Some(handle);
        Ok(format!(
            "serving this session's store on {addr} (stop with .serve stop)"
        ))
    }

    fn cmd_optimizer(&mut self, arg: &str) -> Result<String, Box<dyn std::error::Error>> {
        match arg {
            "on" => {
                self.engine().write().options_mut().optimize = true;
                Ok("optimizer on (VQP-OPT)".to_string())
            }
            "off" => {
                self.engine().write().options_mut().optimize = false;
                Ok("optimizer off (VQP: default plans)".to_string())
            }
            "" => Ok(format!(
                "optimizer is {}",
                if self.engine().read().options().optimize {
                    "on"
                } else {
                    "off"
                }
            )),
            other => Err(format!("usage: .optimizer [on|off], got `{other}`").into()),
        }
    }

    fn cmd_xquery(&mut self, query: &str) -> Result<String, Box<dyn std::error::Error>> {
        if query.is_empty() {
            return Err(".xquery needs a FLWOR expression".into());
        }
        let t = std::time::Instant::now();
        let engine = self.engine().read();
        let xq = vamana_xquery::XQueryEngine::new(&engine);
        let out = xq.eval_to_xml(query)?;
        Ok(format!("{out}\n({:.2?})", t.elapsed()))
    }

    /// Sends one request line to another wire endpoint (a server or a
    /// router) and prints the reply verbatim: `.router <addr> TOPOLOGY`,
    /// `.router <addr> LAG`, or any verb.
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
        // Rebuild the store into a durable file-backed pager (pages +
        // WAL) by re-serializing the documents (the in-memory pager has
        // no file to checkpoint).
        let mut file_store = MassStore::create_durable(path, 1024, FsyncPolicy::Always)?;
        {
            let engine = self.engine().read();
            for i in 0..engine.store().documents().len() {
                let info = &engine.store().documents()[i];
                let xml = reserialize(&engine, DocId(i as u32))?;
                file_store.load_xml(&info.name.clone(), &xml)?;
            }
        }
        file_store.checkpoint()?;
        let tuples = file_store.stats().tuples;
        *self.engine().write() = Engine::new(file_store);
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
        *self.engine().write() = Engine::new(store);
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
/// or router): every reply line up to and including the terminating
/// `OK …` or `ERR …`.
fn wire_request(addr: &str, request: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    Ok(round_trip(&mut std::io::BufReader::new(stream), request)?)
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
  <xpath>             evaluate an XPath expression on document 0 (EVAL)
  .<verb> [operands]  run any wire verb on this session and print its reply,
                      e.g. .load <name> <file>, .query [DOC <doc>] <xpath>,
                      .explain|.analyze [JSON] <xpath>, .limit [n], .stats,
                      .docs, .cache [LIST|CLEAR], .insert <doc> <xpath>
                      <fragment>, .delete <doc> <xpath>, .checkpoint, .lag
  .generate [mb] [file]  generate ~mb MB of XMark data (stream to file if given)
  .serve <port|stop>  share this session over TCP
  .xquery <flwor>     run an XQuery-lite FLWOR expression
  .optimizer [on|off] toggle the cost-driven optimizer
  .router <host:port> <request>
                      send one request line to a server or router and print
                      the reply (e.g. .router :4040 TOPOLOGY, or LAG)
  .save <file>        persist the store to disk with a WAL (switches to it)
  .open <file>        open a persisted store (recovers from its WAL)
  .help               this text
  .quit               exit";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use vamana_server::event::MAX_REPLY_LINE;

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
        let out = s.execute(&format!(".load t {}", f.display())).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(out, "OK loaded document 0 generation 1");
        s
    }

    fn stat(out: &str, key: &str) -> u64 {
        let want = format!("STAT {key} ");
        out.lines()
            .find_map(|l| l.strip_prefix(&want))
            .unwrap_or_else(|| panic!("no {key} in {out}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn query_returns_rows_and_timing() {
        let mut s = loaded();
        let out = s.execute("//name").unwrap();
        assert!(out.contains("ROW <name> Yung Flach"), "{out}");
        assert!(out.contains("OK 1 row(s)"), "{out}");
        assert!(out.contains("us hits="), "{out}");
    }

    #[test]
    fn scalar_expressions_print_values() {
        let mut s = loaded();
        let out = s.execute("count(//person)").unwrap();
        assert!(out.starts_with("VAL 1\nOK scalar"), "{out}");
        let out = s.execute("concat('a', 'b')").unwrap();
        assert!(out.starts_with("VAL ab\n"), "{out}");
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
                out.starts_with("ERR ") && out.contains("levels deep"),
                "{out}"
            );
        }
        assert!(s.execute("count(//person)").unwrap().starts_with("VAL 1"));
    }

    #[test]
    fn limit_caps_rows_and_is_adjustable() {
        let mut s = Session::new();
        s.engine()
            .load_xml("d", "<r><a>1</a><a>2</a><a>3</a></r>")
            .unwrap();
        assert_eq!(s.execute(".limit").unwrap(), "OK limit 20");
        assert_eq!(s.execute(".limit 2").unwrap(), "OK limit 2");
        let out = s.execute("//a").unwrap();
        assert_eq!(out.matches("ROW ").count(), 2, "{out}");
        assert!(out.contains("OK 3 row(s)"), "{out}");
        assert_eq!(s.execute(".limit 0").unwrap(), "OK limit 0");
        let out = s.execute("//a").unwrap();
        assert_eq!(out.matches("ROW ").count(), 3, "{out}");
        let out = s.execute(".limit nope").unwrap();
        assert!(out.starts_with("ERR proto"), "{out}");
    }

    #[test]
    fn serve_shares_the_session_store() {
        let mut s = loaded();
        // Port 0: the kernel picks a free port, reported by serving_addr.
        let out = s.execute(".serve 0").unwrap();
        assert!(out.contains("serving"), "{out}");
        let addr = s.serving_addr().expect("serving");

        let mut wire = BufReader::new(TcpStream::connect(addr).unwrap());
        let rows = round_trip(&mut wire, "QUERY //name").unwrap();
        assert!(rows[0].contains("Yung Flach"), "{rows:?}");
        assert!(rows.last().unwrap().starts_with("OK 1 row(s)"), "{rows:?}");

        assert!(s.execute(".serve").unwrap().contains("serving on"));
        let out = s.execute(".serve 0").unwrap();
        assert!(out.contains("already serving"), "{out}");
        assert!(s.execute(".serve stop").unwrap().contains("stopped"));
        assert!(s.execute(".serve").unwrap().contains("not serving"));
    }

    /// `.serve` keeps the service's settings on the socket: a value is
    /// cut at the service's width there and at 60 characters at the
    /// prompt.
    #[test]
    fn the_socket_keeps_the_service_value_width() {
        let mut s = Session::new();
        let long = "x".repeat(100);
        s.engine()
            .load_xml("d", &format!("<r><a>{long}</a></r>"))
            .unwrap();
        let at_prompt = s.execute("//a").unwrap();
        assert!(!at_prompt.contains(&long), "{at_prompt}");
        assert!(at_prompt.contains(&long[..60]), "{at_prompt}");
        s.execute(".serve 0").unwrap();
        let mut wire = BufReader::new(TcpStream::connect(s.serving_addr().unwrap()).unwrap());
        let on_wire = round_trip(&mut wire, "EVAL //a").unwrap();
        assert!(on_wire[0].contains(&long), "{on_wire:?}");
        s.execute(".serve stop").unwrap();
    }

    /// A request over a served socket has the service's deadline, though
    /// the prompt has none.
    #[test]
    fn a_served_request_past_its_deadline_times_out() {
        let mut s = loaded();
        let config = ServerConfig {
            query_timeout: Duration::ZERO,
            ..ServerConfig::default()
        };
        s.serve(0, config).unwrap();
        let mut wire = BufReader::new(TcpStream::connect(s.serving_addr().unwrap()).unwrap());
        let reply = round_trip(&mut wire, "QUERY //name").unwrap();
        assert!(reply[0].starts_with("ERR timeout"), "{reply:?}");
        let out = s.execute(".query //name").unwrap();
        assert!(out.contains("OK 1 row(s)"), "{out}");
        s.execute(".serve stop").unwrap();
    }

    /// A file given on the command line loads under its whole path,
    /// spaces included.
    #[test]
    fn a_file_path_with_spaces_loads_whole() {
        let mut s = Session::new();
        let dir = scratch_dir("spaced");
        let f = dir.join("my docs.xml");
        std::fs::write(&f, "<r><a>1</a></r>").unwrap();
        let path = f.display().to_string();
        assert_eq!(
            s.load_file(&path).unwrap(),
            format!("loaded {path} as document 0")
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(s.execute("count(//a)").unwrap().starts_with("VAL 1\n"));
        assert!(s.load_file(&path).is_err());
    }

    /// The shell prints what the wire sends: the same lines, run at the
    /// prompt of one session and on the `.serve` socket of another with
    /// the same history, give byte-identical rows, values and plans, and
    /// the same terminators but for their timings. (The socket cuts
    /// values at the service's width, the prompt at 60 characters; every
    /// value here is shorter than both.)
    #[test]
    fn the_shell_prints_the_wire_reply() {
        let mut shell = loaded();
        let mut served = loaded();
        served.execute(".serve 0").unwrap();
        let mut wire = BufReader::new(TcpStream::connect(served.serving_addr().unwrap()).unwrap());
        let untimed = |line: &str| -> String {
            line.split(' ')
                .map(|field| {
                    let number = field.rsplit('=').next().unwrap_or(field);
                    match number.strip_suffix("us") {
                        Some(n) if n.bytes().all(|b| b.is_ascii_digit()) => "…us",
                        _ => field,
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        for (at_prompt, on_wire) in [
            ("count(//person)", "EVAL count(//person)"),
            ("//person/name", "EVAL //person/name"),
            (".query DOC t //name", "QUERY DOC t //name"),
            (".explain //person/name", "EXPLAIN //person/name"),
            (
                ".insert t /site <person id='p1'><name>Grace</name></person>",
                "INSERT t /site <person id='p1'><name>Grace</name></person>",
            ),
            (".query //person/name", "QUERY //person/name"),
        ] {
            let printed = shell.execute(at_prompt).unwrap();
            let sent = round_trip(&mut wire, on_wire).unwrap();
            let printed: Vec<&str> = printed.lines().collect();
            assert_eq!(
                printed.len(),
                sent.len(),
                "{on_wire}: {printed:?} / {sent:?}"
            );
            for (p, w) in printed.iter().zip(&sent) {
                if w.starts_with("OK") {
                    assert_eq!(untimed(p), untimed(w), "{on_wire}");
                } else {
                    assert!(
                        w.starts_with("ROW ") || w.starts_with("VAL ") || w.starts_with("PLAN ")
                    );
                    assert_eq!(p, w, "{on_wire}");
                }
            }
        }
        served.execute(".serve stop").unwrap();
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
        assert!(out.contains("PLAN profile:"), "{out}");
        let out = s.execute(".analyze JSON //person/name").unwrap();
        assert!(out.starts_with("PLAN {"), "{out}");
        assert!(out.contains("\"operators\""), "{out}");
        assert!(out.contains("\"trace\""), "{out}");
        let out = s.execute(".analyze").unwrap();
        assert!(out.starts_with("ERR proto"), "{out}");
    }

    #[test]
    fn stats_and_docs_render() {
        let mut s = loaded();
        let out = s.execute(".stats").unwrap();
        assert!(stat(&out, "store_tuples") > 0, "{out}");
        stat(&out, "pool_batch_pins");
        stat(&out, "pool_par_merge_stalls");
        for key in ["store_names", "store_values", "pool_evictions"] {
            stat(&out, key);
        }
        let out = s.execute(".docs").unwrap();
        assert!(out.starts_with("DOC 0 t generation=0"), "{out}");
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
        let kept = |s: &mut Session| s.execute(".cache").unwrap().matches("VIEW ").count();
        let plans = |s: &mut Session| stat(&s.execute(".stats").unwrap(), "plan_cache_size");
        assert_eq!((kept(&mut s), plans(&mut s)), (0, 0));
        // Second sighting crosses the default admission threshold.
        s.execute("//name").unwrap();
        s.execute("//name").unwrap();
        s.execute("//name[. != '']").unwrap();
        let out = s.execute(".cache").unwrap();
        assert!(out.ends_with("OK 1 view(s)"), "{out}");
        assert!(out.contains("//name"), "{out}");
        assert_eq!(plans(&mut s), 2);
        let cleared = s.execute(".cache CLEAR").unwrap();
        assert_eq!(cleared, "OK cache cleared");
        assert_eq!((kept(&mut s), plans(&mut s)), (0, 0));
        assert!(s.execute(".cache frob").unwrap().starts_with("ERR proto"));
        assert!(s.execute(".cache on").unwrap().starts_with("ERR proto"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        let out = s.execute("//person").unwrap();
        assert!(out.contains("no documents"), "{out}");
        let out = s.execute(".bogus").unwrap();
        assert!(out.starts_with("ERR proto unknown request BOGUS"), "{out}");
        let mut s = loaded();
        let out = s.execute("//person[").unwrap();
        assert!(out.starts_with("ERR query"), "{out}");
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
        assert!(out.starts_with("OK update matched=1 inserted="), "{out}");
        assert!(out.contains("generation=1"), "{out}");
        let out = s.execute("count(//person)").unwrap();
        assert!(out.starts_with("VAL 2"), "{out}");

        let out = s.execute(".delete 0 //person[name='Grace']").unwrap();
        assert!(
            out.contains("deleted=") && !out.contains("deleted=0"),
            "{out}"
        );
        let out = s.execute("count(//person)").unwrap();
        assert!(out.starts_with("VAL 1"), "{out}");

        // In-memory stores checkpoint trivially (no WAL).
        let out = s.execute(".checkpoint").unwrap();
        assert!(out.starts_with("OK checkpoint records=0"), "{out}");

        let out = s.execute(".insert 0").unwrap();
        assert!(out.starts_with("ERR proto"), "{out}");
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
        assert!(out.contains("lsn=") && !out.contains("lsn=0 "), "{out}");
        drop(s);

        let mut s2 = Session::new();
        let out = s2.execute(&format!(".open {}", f.display())).unwrap();
        assert!(out.contains("durable"), "{out}");
        assert!(out.contains("replayed"), "{out}");
        let out = s2.execute("//person[name='Walled']").unwrap();
        assert!(out.contains("OK 1 row(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_report_wal_depth_and_policy() {
        let mut s = Session::new();
        let out = s.execute(".stats").unwrap();
        assert_eq!(stat(&out, "store_durable"), 0, "{out}");

        let mut s = loaded();
        let dir = scratch_dir("walcmd");
        let f = dir.join("walcmd.mass");
        s.execute(&format!(".save {}", f.display())).unwrap();
        let out = s
            .execute(".insert 0 /site <person id='p2'><name>Lag</name></person>")
            .unwrap();
        assert!(out.contains("lsn="), "{out}");
        let out = s.execute(".stats").unwrap();
        assert!(stat(&out, "wal_depth") > 0, "pending records: {out}");
        assert_eq!(stat(&out, "wal_fsync_every"), 1, "fsync always: {out}");
        assert!(stat(&out, "wal_commits") > 0, "{out}");
        for key in ["wal_start_lsn", "wal_replayed_records"] {
            stat(&out, key);
        }
        let out = s.execute(".checkpoint").unwrap();
        assert!(out.starts_with("OK checkpoint"), "{out}");
        let out = s.execute(".stats").unwrap();
        assert_eq!(stat(&out, "wal_depth"), 0, "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn router_command_fetches_lag_from_a_server() {
        let mut s = loaded();
        s.execute(".serve 0").unwrap();
        let addr = s.serving_addr().expect("serving");
        let out = s.execute(&format!(".router {addr} LAG")).unwrap();
        assert!(out.contains("LAG role primary"), "{out}");
        assert!(out.contains("LAG feeds"), "{out}");
        s.execute(".serve stop").unwrap();
        let out = s.execute(".router").unwrap();
        assert!(out.starts_with("ERR"), "{out}");
    }

    #[test]
    fn xquery_command_runs_flwor() {
        let mut s = loaded();
        let out = s
            .execute(".xquery for $p in //person return <r>{ $p/name/text() }</r>")
            .unwrap();
        assert!(out.contains("<r>Yung Flach</r>"), "{out}");
        let out = s.execute(".xquery nonsense $$$").unwrap();
        assert!(out.starts_with("ERR"), "{out}");
    }

    #[test]
    fn generate_loads_xmark() {
        let mut s = Session::new();
        let out = s.execute(".generate 0.2").unwrap();
        assert!(out.contains("generated"), "{out}");
        let out = s.execute("count(//person)").unwrap();
        let n: f64 = out
            .strip_prefix("VAL ")
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n > 10.0, "{out}");
    }

    #[test]
    fn router_command_speaks_the_wire() {
        let mut s = loaded();
        s.execute(".serve 0").unwrap();
        let addr = s.serving_addr().expect("serving").to_string();

        // .router sends any raw verb; a plain server answers STATS.
        let out = s.execute(&format!(".router {addr} STATS")).unwrap();
        assert!(out.contains("STAT queries_total"), "{out}");
        assert!(out.lines().last().unwrap().starts_with("OK"), "{out}");

        // TOPOLOGY needs a router behind the address; a plain server
        // rejects the verb, and its error reply is printed.
        let out = s.execute(&format!(".router {addr} TOPOLOGY")).unwrap();
        assert_eq!(out, "ERR proto unknown request TOPOLOGY");

        // Argument validation.
        let out = s.execute(".router onlyoneword").unwrap();
        assert!(out.starts_with("ERR"), "{out}");
        s.execute(".serve stop").unwrap();
    }

    /// A peer that streams a reply line with no newline is cut off at the
    /// reply line cap instead of filling the shell's memory.
    #[test]
    fn a_reply_line_past_the_cap_is_an_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // The peer reads the request, so that closing does not reset
            // the connection under the reply, and holds the connection
            // until the shell closes it.
            let mut reader = BufReader::new(stream);
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            let _ = reader.get_mut().write_all(&vec![b'a'; MAX_REPLY_LINE + 1]);
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let mut s = Session::new();
        let out = s.execute(&format!(".router {addr} PING")).unwrap();
        assert!(
            out.starts_with("ERR") && out.contains("line too long"),
            "{out}"
        );
        peer.join().unwrap();
    }
}
