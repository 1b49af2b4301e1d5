//! Golden plan reports on the seeded 1 MB XMark document: for the
//! evaluation queries Q1–Q5, the scans S1–S5 and the paper's Fig 7 query
//! (Figs 6 and 9 are Q3 and Q5), the `EXPLAIN`, `EXPLAIN JSON` and
//! `ANALYZE` replies a server writes, and [`Analysis::render`]; the
//! `ANALYZE` of three default plans; then Fig 8's transformation sequence.
//!
//! Run-dependent figures are masked: reply and profile times, the sort's
//! time, and the JSON's `elapsed_us`/`nanos`/`sort_nanos`. Scans stay on
//! one thread, so the pass log has no fan-out line that depends on the
//! host's cores.
//!
//! On a mismatch the fresh rendering is written beside the golden as
//! `plans_1mb.txt.new` and the test fails; to accept it, move it over the
//! golden.
//!
//! [`Analysis::render`]: vamana::core::Analysis::render

use std::fmt::Write as _;
use std::sync::Arc;
use vamana::core::opt::replay;
use vamana::server::event::LineService;
use vamana::server::{ServerConfig, Shared};
use vamana::xmark::{generate_string, scale::config_for_megabytes};
use vamana::{DocId, Engine, EngineOptions, MassStore, SharedEngine};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/plans_1mb.txt");

const QUERIES: &[(&str, &str)] = &[
    ("Q1", "//person/address"),
    ("Q2", "//watches/watch/ancestor::person"),
    (
        "Q3, Figs 6 and 8",
        "/descendant::name/parent::*/self::person/address",
    ),
    ("Q4", "//itemref/following-sibling::price/parent::*"),
    ("Q5, Fig 9", "//province[text()='Vermont']/ancestor::person"),
    ("S1", "/site/regions//*"),
    ("S2", "/site/people//*"),
    ("S3", "//item/*"),
    ("S4", "/site/*/*"),
    ("S5", "//person//*"),
    (
        "Fig 7",
        "//name[text() = 'Yung Flach']/following-sibling::emailaddress",
    ),
];

const FIG8: &str = "/descendant::name/parent::*/self::person/address";

/// What `line` gets back from a server over `shared`, one reply line per
/// line, run-dependent figures masked.
fn reply(shared: &Arc<Shared>, line: &str) -> String {
    let mut out = Vec::new();
    shared.handle(&mut 0, line, &mut out);
    let text = String::from_utf8(out).unwrap();
    let mut masked = String::new();
    for line in text.lines() {
        let line = if line.starts_with("OK ") && line.ends_with("us") {
            let (head, _) = line.trim_end_matches("us").rsplit_once(' ').unwrap();
            format!("{head} <t>us")
        } else if let Some(rest) = line.strip_prefix("PLAN profile: ") {
            let (_, counts) = rest.split_once(", ").unwrap();
            format!("PLAN profile: <t>, {counts}")
        } else if line.contains("order at run time: sorted") {
            let (head, rest) = line.split_once(" dropped, in ").unwrap();
            let (_, tail) = rest.split_once(" (").unwrap();
            format!("{head} dropped, in <t> ({tail}")
        } else {
            mask_json(line, &["elapsed_us", "nanos", "sort_nanos"])
        };
        masked.push_str(&line);
        masked.push('\n');
    }
    masked
}

/// `line` with the number after each `"key":` replaced by `0`.
fn mask_json(line: &str, keys: &[&str]) -> String {
    let mut line = line.to_string();
    for key in keys {
        let pattern = format!("\"{key}\":");
        let mut at = 0;
        while let Some(found) = line[at..].find(&pattern) {
            let start = at + found + pattern.len();
            let digits = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(line.len() - start);
            line.replace_range(start..start + digits, "0");
            at = start + 1;
        }
    }
    line
}

fn render_all() -> String {
    let mut store = MassStore::open_memory();
    store
        .load_xml("auction.xml", &generate_string(&config_for_megabytes(1.0)))
        .unwrap();
    let engine = Engine::with_options(
        store,
        EngineOptions {
            parallel_workers: 1,
            ..Default::default()
        },
    );
    let shared = Shared::new(Arc::new(SharedEngine::new(engine)), ServerConfig::default());
    let mut out = String::new();
    for (label, query) in QUERIES {
        let _ = writeln!(out, "==== {label}: {query}");
        for verb in ["EXPLAIN", "EXPLAIN JSON", "ANALYZE", "ANALYZE JSON"] {
            let _ = writeln!(out, "-- {verb}");
            out.push_str(&reply(&shared, &format!("{verb} {query}")));
        }
        let _ = writeln!(out, "-- Analysis::render");
        let engine = shared.engine().read();
        out.push_str(&engine.analyze_doc(DocId(0), query).unwrap().render());
    }
    // ANALYZE of the default plan: the estimates it is stamped with are
    // the default plan's own.
    shared.engine().write().options_mut().optimize = false;
    for (label, query) in &QUERIES[..3] {
        let _ = writeln!(out, "==== {label}, optimizer off: {query}");
        out.push_str(&reply(&shared, &format!("ANALYZE {query}")));
    }
    let _ = writeln!(out, "==== Fig 8: {FIG8}");
    let engine = shared.engine().read();
    let plan = engine.compile(FIG8).unwrap();
    let outcome = engine.optimize_plan(plan.clone(), DocId(0)).unwrap();
    for (i, (rule, snapshot)) in replay(plan, &outcome.opt_trace).iter().enumerate() {
        let _ = writeln!(out, "-- after transformation {} ({rule}):", i + 1);
        out.push_str(&vamana::core::render(snapshot, None));
    }
    let _ = writeln!(
        out,
        "-- final cost {} (initial {}), {} iteration(s)",
        outcome.final_cost, outcome.initial_cost, outcome.iterations
    );
    out
}

#[test]
fn plan_reports_match_the_golden_file() {
    let fresh = render_all();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    let new = format!("{GOLDEN}.new");
    if fresh == golden {
        let _ = std::fs::remove_file(new);
        return;
    }
    std::fs::write(&new, &fresh).unwrap();
    panic!("plan reports differ from {GOLDEN}; the fresh rendering is in {new}");
}
