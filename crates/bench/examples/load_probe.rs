//! What a load costs in memory: VmHWM and VmRSS (Linux
//! `/proc/self/status`) before and after one `MassStore::load_xml` of an
//! XMark document, on a memory store and on a durable one, at ≈ 8 MB and
//! ≈ 35 MB (XMark scales 0.42 and 1.8). EXPERIMENTS.md "Load memory"
//! quotes its output.
//!
//! ```sh
//! cargo run --release -p vamana-bench --example load_probe [scale...]
//! ```
//!
//! The high-water mark only ever rises, so each case runs in a fresh
//! child process of this binary: it generates the document text (no
//! DOM), reads its status, loads, and reads it again. Both stores get a
//! pool of about twice the v1 pages (the benchmark's hot pool). "peak"
//! is VmHWM after the load minus VmRSS before it, "kept" is the VmRSS
//! the load left, both also as multiples of the document's size.

use std::process::Command;
use vamana_mass::{FsyncPolicy, MassStore};
use vamana_xmark::{generate_to, XmarkConfig};

const SCALES: [f64; 2] = [0.42, 1.8];
const KINDS: [&str; 2] = ["memory", "durable"];

/// (VmHWM, VmRSS) of this process in MB.
fn status() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// One case, in this (fresh) process.
fn probe(kind: &str, scale: f64) {
    let mut xml = Vec::new();
    generate_to(&XmarkConfig::with_scale(scale), &mut xml).expect("generate");
    let xml = String::from_utf8(xml).expect("UTF-8");
    let pool = xml.len() / 2048 + 64;
    let dir = std::env::temp_dir().join(format!("vamana-load-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut store = match kind {
        "memory" => MassStore::open_memory_with_capacity(pool),
        _ => MassStore::create_durable(dir.join("store.mass"), pool, FsyncPolicy::Never)
            .expect("create store"),
    };
    let (hwm0, rss0) = status();
    store.load_xml("auction.xml", &xml).expect("load");
    let (hwm1, rss1) = status();
    let mib = xml.len() as f64 / 1048576.0;
    println!(
        "{kind:<8} {:>6.2} MB | before: hwm {hwm0:>7.1} rss {rss0:>7.1} | after: hwm {hwm1:>7.1} \
         rss {rss1:>7.1} | peak {:>7.1} MB ({:>4.1}×)  kept {:>7.1} MB ({:>4.1}×)",
        xml.len() as f64 / 1e6,
        hwm1 - rss0,
        (hwm1 - rss0) / mib,
        rss1 - rss0,
        (rss1 - rss0) / mib,
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, kind, scale] = args.as_slice() {
        if flag == "--case" {
            probe(kind, scale.parse().expect("scale"));
            return;
        }
    }
    let scales: Vec<f64> = if args.is_empty() {
        SCALES.to_vec()
    } else {
        args.iter().map(|s| s.parse().expect("scale")).collect()
    };
    println!("(memory in MiB; document size in MB)");
    let me = std::env::current_exe().expect("own path");
    for scale in scales {
        for kind in KINDS {
            let status = Command::new(&me)
                .args(["--case", kind, &scale.to_string()])
                .status()
                .expect("run a case");
            assert!(status.success(), "case {kind} {scale} failed");
        }
    }
}
