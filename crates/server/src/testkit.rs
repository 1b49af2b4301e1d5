//! Shared raw-TCP test client for protocol-level tests.
//!
//! The server's own e2e suites and the replication e2e tests all need
//! the same minimal client: one request line out, response lines in
//! until the `OK`/`ERR` terminator. It lives in the library (not a
//! `tests/` helper) so downstream crates — `vamana-replica`,
//! `vamana-bench` — reuse it instead of keeping copies.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::event::round_trip;
use crate::ServerHandle;

/// A minimal protocol client: send one request line, read lines until
/// the `OK`/`ERR` terminator.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server spawned in-process.
    pub fn connect(handle: &ServerHandle) -> Client {
        Client::connect_addr(handle.addr())
    }

    /// Connects to any address (e.g. a follower process bound elsewhere).
    pub fn connect_addr(addr: impl ToSocketAddrs) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Like [`Client::connect_addr`] but retries until the peer accepts
    /// (a follower process that is still binding) or `deadline` passes.
    pub fn connect_retry(addr: impl ToSocketAddrs + Copy, deadline: Duration) -> Client {
        let until = Instant::now() + deadline;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Client {
                        reader: BufReader::new(stream),
                    }
                }
                Err(e) if Instant::now() < until => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect: {e}"),
            }
        }
    }

    /// Sends `request` and returns every response line, terminator last
    /// ([`round_trip`]).
    pub fn round_trip(&mut self, request: &str) -> Vec<String> {
        round_trip(&mut self.reader, request).expect("round trip")
    }
}

/// Value of `<prefix> <key> <value>` in a response (panics when absent
/// or non-numeric) — shared parser behind [`stat_value`] and
/// [`lag_value`].
fn kv_value(lines: &[String], prefix: &str, key: &str) -> u64 {
    let want = format!("{prefix} {key} ");
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&want))
        .unwrap_or_else(|| panic!("no {prefix} {key} in {lines:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {prefix} {key}"))
}

/// Numeric value of `STAT <key> <value>` in a `STATS` response.
pub fn stat_value(stats: &[String], key: &str) -> u64 {
    kv_value(stats, "STAT", key)
}

/// Numeric value of `LAG <key> <value>` in a `LAG` response.
pub fn lag_value(lines: &[String], key: &str) -> u64 {
    kv_value(lines, "LAG", key)
}

/// Number of `VIEW …` rows in a `CACHE` response.
pub fn view_count(lines: &[String]) -> usize {
    lines.iter().filter(|l| l.starts_with("VIEW ")).count()
}

/// A request line drawn from `seed`: one of the verbs whose operands the
/// grammar splits (or `DOC`, which is none), then up to eleven pieces of
/// protocol fragments (`JSON `, `DOC `, ` <`, `LIST`, out-of-range
/// numbers) and random text. The request parser's fuzz input, shared by
/// its own property test and the router's.
pub fn verb_soup(seed: u64) -> String {
    const VERBS: [&str; 9] = [
        "QUERY", "EVAL", "EXPLAIN", "ANALYZE", "INSERT", "DELETE", "CACHE", "LIMIT", "DOC",
    ];
    const PIECES: [&str; 8] = [
        " ",
        "JSON ",
        "DOC ",
        " <",
        "LIST",
        "CLEAR",
        "-1",
        "18446744073709551616",
    ];
    const ASCII: &[u8] = b" abcdefghijklmnopqrstuvwxyz0123456789/<>@=[]'\"*().:|-";
    const WIDE: [char; 6] = ['\u{e9}', '\u{4e2d}', '\u{1f600}', '\t', '\r', ' '];
    // splitmix64: every seed its own stream.
    let mut state = seed;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut line = VERBS[below(VERBS.len())].to_string();
    for _ in 0..below(12) {
        match below(PIECES.len() + 2) {
            p if p < PIECES.len() => line.push_str(PIECES[p]),
            p if p == PIECES.len() => {
                for _ in 0..below(25) {
                    line.push(ASCII[below(ASCII.len())] as char);
                }
            }
            _ => {
                for _ in 0..below(5) {
                    line.push(WIDE[below(WIDE.len())]);
                }
            }
        }
    }
    line
}
