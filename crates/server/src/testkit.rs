//! Shared raw-TCP test client for protocol-level tests.
//!
//! The server's own e2e suites and the replication e2e tests all need
//! the same minimal client: one request line out, response lines in
//! until the `OK`/`ERR` terminator. It lives in the library (not a
//! `tests/` helper) so downstream crates — `vamana-replica`,
//! `vamana-bench` — reuse it instead of keeping copies.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::ServerHandle;

/// A minimal protocol client: send one request line, read lines until
/// the `OK`/`ERR` terminator.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
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
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
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
                        reader: BufReader::new(stream.try_clone().expect("clone")),
                        writer: stream,
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

    /// Sends `request` and returns every response line, terminator last.
    pub fn round_trip(&mut self, request: &str) -> Vec<String> {
        // One write: the request and its newline as two segments would
        // hold the newline back until the server's delayed ACK (Nagle).
        let line = format!("{request}\n");
        self.writer.write_all(line.as_bytes()).expect("send");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("recv");
            assert!(n > 0, "server closed mid-response to {request:?}");
            let line = line.trim_end().to_string();
            let done = line.starts_with("OK") || line.starts_with("ERR");
            lines.push(line);
            if done {
                return lines;
            }
        }
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
