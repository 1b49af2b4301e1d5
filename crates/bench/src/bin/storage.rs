//! Storage-tier benchmark: uncompressed (v1) vs front-coded/dictionary
//! (v2) pages over a streamed XMark document (`BENCH_10.json`).
//!
//! ```sh
//! cargo run --release -p vamana-bench --bin storage \
//!     [-- <mb> [--cold-pool PAGES] [--out PATH]]
//! ```
//!
//! The document is stream-generated to a file (`xmark::generate_to`, no
//! DOM arena), then loaded into one file-backed store per format. For
//! each format the report records the on-disk footprint (pages, bytes
//! per node, compression ratio) and two query phases over the full
//! QUERIES+SCAN_QUERIES suite:
//!
//! - **cold**: the store is reopened with a buffer pool far smaller
//!   than the data (`--cold-pool`, default 256 pages = 2 MB), so nearly
//!   every page pin is a miss — the bigger-than-RAM regime. The metric
//!   is pages read (pool misses) per query: compression converts
//!   directly into fewer reads because the same tuples live on fewer
//!   pages.
//! - **hot**: the store is reopened with a pool large enough to hold
//!   every page, warmed with one full pass, then measured — the
//!   decode-cost bound (v2 pays front-coding/dictionary decode on every
//!   miss, but hits are format-free).

use std::time::{Duration, Instant};

use vamana_bench::{QUERIES, SCAN_QUERIES};
use vamana_core::{DocId, Engine};
use vamana_mass::{MassStore, StoreFormat};
use vamana_xmark::scale::config_for_megabytes;

struct Args {
    megabytes: f64,
    cold_pool: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        megabytes: 100.0,
        cold_pool: 256,
        out: None,
    };
    let mut positional = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cold-pool" => {
                args.cold_pool = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cold-pool needs a page count");
            }
            "--out" => {
                args.out = Some(it.next().expect("--out needs a path"));
            }
            other => {
                assert_eq!(positional, 0, "unexpected argument {other}");
                args.megabytes = other.parse().expect("first positional arg is <mb>");
                positional += 1;
            }
        }
    }
    args
}

fn all_queries() -> Vec<(&'static str, &'static str)> {
    QUERIES.iter().chain(SCAN_QUERIES).copied().collect()
}

/// One format's footprint after load + checkpoint.
struct Footprint {
    pages: u32,
    tuples: u64,
    disk_bytes: u64,
    logical_bytes: u64,
    dict_entries: usize,
    compressed_pages: u32,
    uncompressed_pages: u32,
    load: Duration,
}

impl Footprint {
    fn bytes_per_node(&self) -> f64 {
        self.disk_bytes as f64 / self.tuples.max(1) as f64
    }

    fn compression_ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.disk_bytes.max(1) as f64
    }
}

/// One query phase (cold or hot) over one store.
struct Phase {
    queries: u64,
    rows: u64,
    pages_read: u64,
    decodes_v1: u64,
    decodes_v2: u64,
    elapsed: Duration,
}

impl Phase {
    fn pages_per_query(&self) -> f64 {
        self.pages_read as f64 / self.queries.max(1) as f64
    }
}

fn load_store(path: &std::path::Path, format: StoreFormat, xml: &str) -> Footprint {
    let t0 = Instant::now();
    let mut store = MassStore::create_file(path, 4096).expect("create store file");
    store.set_format(format).expect("fresh store");
    store.load_xml("auction", xml).expect("load xmark");
    store.checkpoint().expect("checkpoint");
    let s = store.stats();
    Footprint {
        pages: s.pages,
        tuples: s.tuples,
        disk_bytes: s.disk_bytes(),
        logical_bytes: s.logical_bytes,
        dict_entries: s.dict_entries,
        compressed_pages: s.compressed_pages,
        uncompressed_pages: s.uncompressed_pages,
        load: t0.elapsed(),
    }
}

/// Runs the full suite once against `engine`, counting pool misses.
fn run_suite(engine: &Engine) -> Phase {
    let before = engine.store().stats().buffer;
    let t0 = Instant::now();
    let mut queries = 0u64;
    let mut rows = 0u64;
    for (name, xpath) in all_queries() {
        let r = engine.query_doc(DocId(0), xpath).expect(name);
        assert!(!r.is_empty(), "{name} ({xpath}) returned no rows");
        queries += 1;
        rows += r.len() as u64;
    }
    let elapsed = t0.elapsed();
    let after = engine.store().stats().buffer;
    Phase {
        queries,
        rows,
        pages_read: after.misses - before.misses,
        decodes_v1: after.decodes_v1 - before.decodes_v1,
        decodes_v2: after.decodes_v2 - before.decodes_v2,
        elapsed,
    }
}

/// Reopens `path` with a `pool`-page buffer pool and runs the suite;
/// `warm` runs one unmeasured full pass first.
fn measure_phase(path: &std::path::Path, pool: usize, warm: bool) -> Phase {
    let store = MassStore::open_file(path, pool).expect("reopen store");
    let mut engine = Engine::new(store);
    engine.options_mut().optimize = true;
    if warm {
        run_suite(&engine);
    }
    run_suite(&engine)
}

fn main() {
    let args = parse_args();
    let dir = std::env::temp_dir().join(format!("vamana-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    // Stream the document to disk: O(1) generator memory at any scale.
    let xml_path = dir.join("auction.xml");
    eprintln!("streaming ~{} MB of XMark data to disk…", args.megabytes);
    let t0 = Instant::now();
    let file = std::fs::File::create(&xml_path).expect("create xml file");
    let generated = vamana_xmark::generate_to(
        &config_for_megabytes(args.megabytes),
        std::io::BufWriter::new(file),
    )
    .expect("generate");
    eprintln!(
        "generated {:.1} MB in {:.2?}",
        generated as f64 / (1024.0 * 1024.0),
        t0.elapsed()
    );
    let xml = std::fs::read_to_string(&xml_path).expect("read xml back");

    let formats = [("v1", StoreFormat::V1), ("v2", StoreFormat::V2)];
    let mut reports: Vec<String> = Vec::new();
    let mut footprints: Vec<Footprint> = Vec::new();
    let mut colds: Vec<Phase> = Vec::new();

    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10} {:>14} {:>12} {:>12}",
        "format", "pages", "disk_bytes", "bytes/node", "ratio", "cold_pages/q", "cold_ms", "hot_ms"
    );
    for (label, format) in formats {
        let store_path = dir.join(format!("store-{label}.mass"));
        let fp = load_store(&store_path, format, &xml);
        // The pool must dwarf neither phase by accident: cold ≪ pages,
        // hot ≥ pages (plus catalog headroom).
        assert!(
            (args.cold_pool as u32) < fp.pages / 4,
            "cold pool {} is not ≪ data ({} pages) — lower --cold-pool or raise <mb>",
            args.cold_pool,
            fp.pages
        );
        let cold = measure_phase(&store_path, args.cold_pool, false);
        let hot = measure_phase(&store_path, fp.pages as usize + 64, true);
        println!(
            "{:>6} {:>8} {:>12} {:>12.1} {:>10.2} {:>14.1} {:>12.1} {:>12.1}",
            label,
            fp.pages,
            fp.disk_bytes,
            fp.bytes_per_node(),
            fp.compression_ratio(),
            cold.pages_per_query(),
            cold.elapsed.as_secs_f64() * 1e3,
            hot.elapsed.as_secs_f64() * 1e3,
        );
        reports.push(format!(
            "    \"{label}\": {{\n      \"pages\": {}, \"tuples\": {}, \"disk_bytes\": {}, \"logical_bytes\": {}, \"bytes_per_node\": {:.2}, \"compression_ratio\": {:.2},\n      \"compressed_pages\": {}, \"uncompressed_pages\": {}, \"dict_entries\": {}, \"load_ms\": {:.1},\n      \"cold\": {{\"queries\": {}, \"rows\": {}, \"pages_read\": {}, \"pages_read_per_query\": {:.1}, \"decodes_v1\": {}, \"decodes_v2\": {}, \"elapsed_ms\": {:.1}}},\n      \"hot\": {{\"queries\": {}, \"rows\": {}, \"pages_read\": {}, \"elapsed_ms\": {:.1}}}\n    }}",
            fp.pages,
            fp.tuples,
            fp.disk_bytes,
            fp.logical_bytes,
            fp.bytes_per_node(),
            fp.compression_ratio(),
            fp.compressed_pages,
            fp.uncompressed_pages,
            fp.dict_entries,
            fp.load.as_secs_f64() * 1e3,
            cold.queries,
            cold.rows,
            cold.pages_read,
            cold.pages_per_query(),
            cold.decodes_v1,
            cold.decodes_v2,
            cold.elapsed.as_secs_f64() * 1e3,
            hot.queries,
            hot.rows,
            hot.pages_read,
            hot.elapsed.as_secs_f64() * 1e3,
        ));
        footprints.push(fp);
        colds.push(cold);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Both stores hold identical tuples, so these ratios are exactly
    // "how much smaller" and "how many fewer cold reads" v2 is.
    let bytes_ratio = footprints[0].bytes_per_node() / footprints[1].bytes_per_node();
    let cold_ratio = colds[0].pages_per_query() / colds[1].pages_per_query().max(1.0);
    assert_eq!(
        footprints[0].tuples, footprints[1].tuples,
        "formats loaded different tuple counts"
    );

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"storage_compressed_pages\",\n");
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(&format!("  \"doc_megabytes\": {},\n", args.megabytes));
    out.push_str(&format!("  \"generated_bytes\": {generated},\n"));
    out.push_str(&format!("  \"cold_pool_pages\": {},\n", args.cold_pool));
    out.push_str(&format!(
        "  \"queries\": {},\n",
        QUERIES.len() + SCAN_QUERIES.len()
    ));
    out.push_str("  \"results\": {\n");
    out.push_str(&reports.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str(&format!(
        "  \"bytes_per_node_ratio_v1_over_v2\": {bytes_ratio:.2},\n"
    ));
    out.push_str(&format!(
        "  \"cold_pages_read_ratio_v1_over_v2\": {cold_ratio:.2}\n"
    ));
    out.push_str("}\n");
    let path = args.out.as_deref().unwrap_or("BENCH_10.json");
    std::fs::write(path, &out).expect("write json");
    eprintln!("wrote {path}");
}
