//! Reads on a follower beside writes on its primary: the `serve_write` mix
//! of the trajectory benchmark split across a replicated pair, over the
//! wire only. A durable primary serves an XMark document; an in-process
//! follower (`vamana_replica::Replica`) replays its feed. One connection
//! to the primary sends the benchmark's writes — an `INSERT` of a
//! `<trajnote seq="n"/>` under a Zipf-drawn person, its `DELETE` 64
//! inserts later, a `CHECKPOINT` every 500 writes — while one connection
//! to the follower replays the point reads (per block, five Zipf-drawn ids
//! of each of four lookup templates and the paper's Q1–Q5, shuffled) as
//! `QUERY DOC 0 <xpath>` under the default `LIMIT`.
//!
//! ```sh
//! cargo run --release -p vamana-bench --example follower_reads [seconds] [scale]
//! ```
//!
//! Prints the writes done, the follower's reads, their p50/p95 round trip
//! in µs, and its query-cache counters from `STATS`: kept answers served
//! per read (`view_hits`), answers carried across a replayed write
//! (`view_carried`) and answers dropped (`view_evictions`). Defaults: 10 s
//! on XMark 0.42 (≈ 8 MB), the benchmark's point scale.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vamana_core::Engine;
use vamana_mass::{FsyncPolicy, MassStore};
use vamana_replica::{Replica, ReplicaConfig};
use vamana_server::testkit::{lag_value, stat_value, Client};
use vamana_server::{Server, ServerConfig};
use vamana_xmark::XmarkConfig;

const LOOKUPS: [&str; 4] = [
    "//person[@id='person{}']/name",
    "//item[@id='item{}']/location",
    "//open_auction[@id='open_auction{}']/bidder/increase",
    "//province[text()='{}']/ancestor::person",
];
const PROVINCES: [&str; 12] = [
    "Vermont",
    "Massachusetts",
    "Oregon",
    "Texas",
    "Iowa",
    "Nevada",
    "Maine",
    "Ohio",
    "Georgia",
    "Utah",
    "Kansas",
    "Idaho",
];
const PAPER: [&str; 5] = [
    "//person/address",
    "//watches/watch/ancestor::person",
    "/descendant::name/parent::*/self::person/address",
    "//itemref/following-sibling::price/parent::*",
    "//province[text()='Vermont']/ancestor::person",
];
/// Ids each lookup template draws from, and the Zipf exponent.
const IDS: usize = 1024;
const ZIPF_S: f64 = 1.1;
const DELETE_LAG: usize = 64;
const CHECKPOINT_EVERY: u64 = 500;

/// A deterministic draw (xorshift64) with a Zipf rank over `0..IDS`.
struct Draw {
    state: u64,
    cdf: Vec<f64>,
}

impl Draw {
    fn new(seed: u64) -> Draw {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=IDS)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Draw { state: seed, cdf }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn zipf(&mut self) -> usize {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c <= u).min(IDS - 1)
    }
}

/// The next block of reads: five draws of each lookup and Q1–Q5, shuffled.
fn block(draw: &mut Draw) -> Vec<String> {
    let mut texts: Vec<String> = PAPER.iter().map(|q| q.to_string()).collect();
    for (t, lookup) in LOOKUPS.iter().enumerate() {
        for _ in 0..5 {
            let id = draw.zipf();
            let id = match t {
                3 => PROVINCES[id % PROVINCES.len()].to_string(),
                _ => id.to_string(),
            };
            texts.push(lookup.replace("{}", &id));
        }
    }
    for i in (1..texts.len()).rev() {
        texts.swap(i, draw.next() as usize % (i + 1));
    }
    texts
}

/// The writer connection's loop until `stop`; returns the writes done.
fn write(primary: SocketAddr, stop: &AtomicBool) -> u64 {
    let mut client = Client::connect_addr(primary);
    let mut draw = Draw::new(0x5EED);
    let mut pending = std::collections::VecDeque::new();
    let (mut seq, mut writes, mut since, mut delete_next) = (0u64, 0u64, 0u64, false);
    let mut send = |line: &str| {
        let reply = client.round_trip(line);
        assert!(reply.last().unwrap().starts_with("OK"), "{line}: {reply:?}");
    };
    while !stop.load(Ordering::Relaxed) {
        if since >= CHECKPOINT_EVERY {
            send("CHECKPOINT");
            since = 0;
            continue;
        }
        let deleting = delete_next && pending.len() > DELETE_LAG;
        if deleting {
            let (person, seq) = pending.pop_front().unwrap();
            send(&format!(
                "DELETE 0 //person[@id='person{person}']/trajnote[@seq='{seq}']"
            ));
        } else {
            let person = draw.zipf();
            pending.push_back((person, seq));
            send(&format!(
                "INSERT 0 //person[@id='person{person}'] <trajnote seq=\"{seq}\"/>"
            ));
            seq += 1;
        }
        delete_next = !deleting;
        since += 1;
        writes += 1;
    }
    writes
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: u64 = args.next().map_or(10, |s| s.parse().expect("seconds"));
    let scale: f64 = args.next().map_or(0.42, |s| s.parse().expect("scale"));
    let dir = std::env::temp_dir().join(format!("vamana-follower-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let xml = vamana_xmark::generate_string(&XmarkConfig {
        scale,
        seed: 0x5EED,
    });
    let mut store = MassStore::create_durable(
        dir.join("primary.mass"),
        xml.len() / 2048 + 64,
        FsyncPolicy::Always,
    )
    .expect("primary store");
    store.load_xml("auction.xml", &xml).expect("load");
    let primary = Server::bind("127.0.0.1:0", Engine::new(store), ServerConfig::default())
        .and_then(Server::spawn)
        .expect("primary");
    let replica = Replica::start(ReplicaConfig {
        primary: primary.addr().to_string(),
        data: dir.join("follower.mass"),
        capacity: xml.len() / 2048 + 64,
        fsync: FsyncPolicy::Never,
        ..ReplicaConfig::default()
    })
    .expect("follower");
    let mut follower = Client::connect_addr(replica.addr());
    // The follower starts from a snapshot of the loaded document.
    let last = lag_value(&Client::connect(&primary).round_trip("LAG"), "last_lsn");
    while lag_value(&follower.round_trip("LAG"), "applied_lsn") < last {
        std::thread::sleep(Duration::from_millis(10));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stop, addr) = (Arc::clone(&stop), primary.addr());
        std::thread::spawn(move || write(addr, &stop))
    };
    let before = follower.round_trip("STATS");
    let mut draw = Draw::new(0xF011);
    let mut micros = Vec::new();
    let until = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < until {
        for text in block(&mut draw) {
            let start = Instant::now();
            let reply = follower.round_trip(&format!("QUERY DOC 0 {text}"));
            micros.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(reply.last().unwrap().starts_with("OK"), "{text}: {reply:?}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("writer");
    let after = follower.round_trip("STATS");
    let delta = |key: &str| stat_value(&after, key) - stat_value(&before, key);

    micros.sort_by(f64::total_cmp);
    let reads = micros.len();
    println!(
        "scale {scale}, {seconds} s: {writes} writes on the primary, {reads} reads on the follower"
    );
    println!(
        "follower reads: p50 {:.1} us, p95 {:.1} us; view hits per read {:.3}; view_carried {}; view_evictions {}",
        micros[reads / 2],
        micros[reads * 95 / 100],
        delta("view_hits") as f64 / reads as f64,
        delta("view_carried"),
        delta("view_evictions"),
    );
    replica.stop();
    primary.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
