//! What one durable write costs as the document grows: the `serve_write`
//! insert/delete pair of the trajectory benchmark, through
//! `Engine::apply_update` on a default-format durable store, at XMark
//! scales 0.21, 0.42 and 0.84 (≈ 4, 8 and 16 MB). EXPERIMENTS.md "Write
//! cost" quotes its output.
//!
//! ```sh
//! cargo run --release -p vamana-bench --example write_cost [pairs]
//! ```
//!
//! Per scale and fsync policy it times `pairs` inserts of a `<trajnote
//! seq="n"/>` under a person and, 64 inserts later, the delete of that
//! note, interleaved as the benchmark's writer sends them, and prints the
//! p50/p95 of each in µs. Under `Never` a write is CPU only; `Always` adds
//! the log's fsync. "resolve" is the p50 of the target's resolution
//! across both runs' writes (`UpdateOutcome::resolve`: finding or making
//! its plan and running it), the writer's planning cost. The last columns
//! time posting upkeep alone: a person's key removed from and put back
//! into a copy of the all-elements list — the longest list an insert or a
//! delete changes — and that insert's p50 as a share of the CPU-only
//! insert's.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;
use vamana_core::{DocId, Engine, MassStore, UpdateOp};
use vamana_mass::FsyncPolicy;
use vamana_xmark::XmarkConfig;

const DOC: DocId = DocId(0);
const SCALES: [f64; 3] = [0.21, 0.42, 0.84];
/// Inserts a note waits before its delete (the benchmark's `DELETE_LAG`).
const DELETE_LAG: usize = 64;

/// (p50, p95) of a sample, µs.
fn p50_p95(mut v: Vec<f64>) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[v.len() * 95 / 100])
}

/// A deterministic draw over `0..n` (xorshift64).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A fresh durable store at `path` holding `xml`.
fn engine(path: &Path, xml: &str, policy: FsyncPolicy) -> Engine {
    let mut store =
        MassStore::create_durable(path, xml.len() / 2048 + 64, policy).expect("create store");
    store.load_xml("auction.xml", xml).expect("load");
    Engine::new(store)
}

/// Latencies (µs) of `pairs` interleaved writes: the inserts, the
/// deletes, and every write's target resolution.
struct Writes {
    inserts: Vec<f64>,
    deletes: Vec<f64>,
    resolves: Vec<f64>,
}

fn writes(engine: &mut Engine, persons: usize, pairs: usize) -> Writes {
    let mut draw = Draw(0x5EED);
    let mut pending = VecDeque::new();
    let (mut inserts, mut deletes, mut resolves) = (Vec::new(), Vec::new(), Vec::new());
    for seq in 0..pairs + DELETE_LAG {
        let person = draw.below(persons);
        let insert = UpdateOp::Insert {
            target: format!("//person[@id='person{person}']"),
            fragment: format!("<trajnote seq=\"{seq}\"/>"),
        };
        let t = Instant::now();
        let outcome = engine.apply_update(DOC, &insert).expect("insert");
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(outcome.matched, 1);
        resolves.push(outcome.resolve.as_secs_f64() * 1e6);
        pending.push_back((person, seq));
        if pending.len() > DELETE_LAG {
            let (person, seq) = pending.pop_front().expect("pending");
            let delete = UpdateOp::Delete {
                target: format!("//person[@id='person{person}']/trajnote[@seq='{seq}']"),
            };
            let t = Instant::now();
            let outcome = engine.apply_update(DOC, &delete).expect("delete");
            deletes.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(outcome.matched, 1);
            resolves.push(outcome.resolve.as_secs_f64() * 1e6);
        }
    }
    // The first inserts have no delete beside them yet.
    Writes {
        inserts: inserts.split_off(DELETE_LAG),
        deletes,
        resolves: resolves.split_off(DELETE_LAG),
    }
}

/// Insert and remove times (µs) of persons' keys in a copy of the
/// all-elements list.
fn posting_upkeep(store: &MassStore, pairs: usize) -> (Vec<f64>, Vec<f64>) {
    let person = store.name_id("person").expect("persons");
    let keys: Vec<Vec<u8>> = store
        .name_index()
        .elements(person)
        .iter()
        .map(<[u8]>::to_vec)
        .collect();
    let mut list = store.name_index().all_elements().clone();
    let mut draw = Draw(0x5EED);
    let (mut inserts, mut removes) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let key = &keys[draw.below(keys.len())];
        let t = Instant::now();
        assert!(list.remove(key));
        removes.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        list.insert(key);
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (inserts, removes)
}

fn main() {
    let pairs: usize = std::env::args()
        .nth(1)
        .map_or(1000, |s| s.parse().expect("pairs"));
    let dir = std::env::temp_dir().join(format!("vamana-write-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    println!("{pairs} insert/delete pairs per run; latencies in µs, p50/p95");
    println!(
        "{:>5} {:>5} {:>8} | {:>15} {:>15} | {:>15} {:>15} | {:>7} | {:>15} {:>6}",
        "scale",
        "MB",
        "elements",
        "never insert",
        "never delete",
        "always insert",
        "always delete",
        "resolve",
        "posting ins/rm",
        "share"
    );
    for scale in SCALES {
        let mut xml = Vec::new();
        vamana_xmark::generate_to(
            &XmarkConfig {
                scale,
                seed: 0x5EED,
            },
            &mut xml,
        )
        .expect("xml");
        let xml = String::from_utf8(xml).expect("UTF-8");
        let path = dir.join("store.mass");
        let mut runs = Vec::new();
        let mut resolves = Vec::new();
        let mut upkeep = None;
        for policy in [FsyncPolicy::Never, FsyncPolicy::Always] {
            let mut engine = engine(&path, &xml, policy);
            let person = engine.store().name_id("person").expect("persons");
            let persons = engine.store().count_elements(person) as usize;
            let run = writes(&mut engine, persons, pairs);
            runs.push((p50_p95(run.inserts), p50_p95(run.deletes)));
            resolves.extend(run.resolves);
            upkeep.get_or_insert_with(|| {
                let store = engine.store();
                let (ins, rm) = posting_upkeep(store, pairs);
                (
                    p50_p95(ins).0,
                    p50_p95(rm).0,
                    store.name_index().all_elements().len(),
                )
            });
        }
        let (ins, rm, elements) = upkeep.expect("measured");
        let cell = |(p50, p95): (f64, f64)| format!("{p50:.0}/{p95:.0}");
        println!(
            "{scale:>5} {:>5.1} {elements:>8} | {:>15} {:>15} | {:>15} {:>15} | {:>7.0} | {:>15} {:>5.0}%",
            xml.len() as f64 / 1e6,
            cell(runs[0].0),
            cell(runs[0].1),
            cell(runs[1].0),
            cell(runs[1].1),
            p50_p95(resolves).0,
            format!("{ins:.1}/{rm:.1}"),
            100.0 * ins / runs[0].0 .0,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
