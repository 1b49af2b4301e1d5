//! One query text run through each entry point — `Engine::query_doc`,
//! `Engine::stream` finished, and a server `QUERY` — is one run: the same
//! rows and the same traffic through the query cache, whichever source its
//! plan comes from (compiled, bound into its shape's template, cached) or
//! whether the cache answers it outright (a kept answer). The server's
//! differs only in the bytes of the reply it keeps with a kept answer.

use std::sync::Arc;
use vamana::core::{PlanSource, QueryCache};
use vamana::server::event::LineService;
use vamana::server::{render_rows, RenderOptions, ServerConfig, Shared};
use vamana::{DocId, Engine, MassStore, SharedEngine};

const DOC: &str = "<site><people>\
    <person id='p0'><name>Ann</name></person>\
    <person id='p1'><name>Bob</name></person>\
    <person id='p2'><name>Cyd</name></person>\
    </people></site>";

fn engine() -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("people", DOC).unwrap();
    Engine::new(store)
}

/// Every counter the query cache keeps: lookup hits and misses, binds,
/// then the answer counters (hits, misses, evictions, bytes, answers kept).
fn counters(cache: &QueryCache) -> [u64; 8] {
    let (hits, misses) = cache.counters();
    let s = cache.stats();
    let binds = cache.binds();
    [
        hits,
        misses,
        binds,
        s.hits,
        s.misses,
        s.evictions,
        s.bytes,
        s.views,
    ]
}

/// One way in: runs a text on document 0 and returns its rows as the
/// server renders them, where the plan came from (when the entry point
/// says), and what the run moved in the cache's counters.
enum Leg {
    QueryDoc(Engine),
    Stream(Engine),
    Server(Arc<Shared>),
}

struct Run {
    rows: Vec<String>,
    source: Option<String>,
    delta: [u64; 8],
}

fn render(engine: &Engine, nodes: &[vamana::NodeEntry]) -> Vec<String> {
    let opts = RenderOptions {
        limit: 0,
        value_width: ServerConfig::default().value_width,
    };
    let rendered = render_rows(engine, nodes, &opts).unwrap();
    rendered.lines.iter().map(|l| format!("ROW {l}")).collect()
}

impl Leg {
    fn cache(&self) -> Arc<QueryCache> {
        match self {
            Leg::QueryDoc(e) | Leg::Stream(e) => Arc::clone(e.views()),
            Leg::Server(shared) => shared.cache(),
        }
    }

    fn run(&self, xpath: &str) -> Run {
        let cache = self.cache();
        let before = counters(&cache);
        let (rows, source) = match self {
            Leg::QueryDoc(e) => (render(e, &e.query_doc(DocId(0), xpath).unwrap()), None),
            Leg::Stream(e) => {
                let stream = e.stream(DocId(0), xpath).unwrap();
                let source = stream.source().as_str().to_string();
                let answer = stream.finish(Vec::new()).unwrap();
                (render(e, &answer), Some(source))
            }
            Leg::Server(shared) => {
                let mut out = Vec::new();
                shared.handle(&mut 0, &format!("QUERY {xpath}"), &mut out);
                let reply = String::from_utf8(out).unwrap();
                let mut lines: Vec<String> = reply.lines().map(str::to_string).collect();
                let ok = lines.pop().unwrap();
                assert!(ok.starts_with("OK "), "{reply}");
                let source = ok.split(" plan=").nth(1).unwrap();
                let source = source.split(' ').next().unwrap().to_string();
                (lines, Some(source))
            }
        };
        let after = counters(&cache);
        let delta = std::array::from_fn(|i| after[i].wrapping_sub(before[i]));
        Run {
            rows,
            source,
            delta,
        }
    }
}

#[test]
fn every_entry_point_is_one_run_through_the_query_cache() {
    let legs = [
        Leg::QueryDoc(engine()),
        Leg::Stream(engine()),
        Leg::Server(Shared::new(
            Arc::new(SharedEngine::new(engine())),
            ServerConfig::default(),
        )),
    ];
    // One text, another of its shape, then the first again twice: the
    // second computation of its answer keeps it, and the next run is
    // answered with it.
    let steps = [
        ("//person[@id='p1']/name", PlanSource::Compiled, "compiled"),
        ("//person[@id='p2']/name", PlanSource::Bound, "bound"),
        ("//person[@id='p1']/name", PlanSource::Cached, "cached"),
        ("//person[@id='p1']/name", PlanSource::Cached, "kept"),
    ];
    for (xpath, source, step) in steps {
        let runs: Vec<Run> = legs.iter().map(|leg| leg.run(xpath)).collect();
        let first = &runs[0];
        assert_eq!(first.rows.len(), 1, "{step}: {:?}", first.rows);
        for (name, run) in ["stream", "server"].iter().zip(&runs[1..]) {
            assert_eq!(run.rows, first.rows, "{step}: {name} rows");
            // The server keeps the reply it wrote with the answer it kept:
            // its lines, and 64 bytes for the rest, count with the answer.
            let mut delta = first.delta;
            if *name == "server" && step == "cached" {
                delta[6] += run.rows.iter().map(|l| l.len() as u64 + 1).sum::<u64>() + 64;
            }
            assert_eq!(run.delta, delta, "{step}: {name} cache traffic");
            assert_eq!(
                run.source.as_deref(),
                Some(source.as_str()),
                "{step}: {name}"
            );
        }
        let [hits, misses, binds, answered, _, _, _, kept] = first.delta;
        match step {
            "compiled" => assert_eq!((hits, misses, binds, kept), (0, 1, 0, 0)),
            "bound" => assert_eq!((hits, misses, binds, kept), (0, 1, 1, 0)),
            "cached" => assert_eq!((hits, answered, kept), (1, 0, 1), "not kept"),
            _ => assert_eq!((hits, answered, kept), (1, 1, 0), "not answered"),
        }
    }
}
