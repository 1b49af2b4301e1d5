//! One routed-to server process: its address, health gauges, and a
//! small pool of idle protocol connections.
//!
//! Router workers check a connection out, run one request, and check it
//! back in; connections are created on demand and discarded on any I/O
//! error (the next checkout dials fresh). A request whose reply carries
//! `ROW` lines goes with the client's row cap: a connection remembers the
//! `LIMIT` it last sent and sends `LIMIT n` first when the cap differs, so
//! a shard renders and ships no more rows than the client can be shown.
//! Each document's first `n` rows hold the merged first `n`, and the
//! `OK n` totals are the shards' own.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use vamana_server::event::round_trip;

/// How long a backend dial may take before the attempt counts as a
/// failure (keeps a dead backend from stalling a scatter).
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Per-request I/O budget on a backend connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Health gauges the monitor thread maintains and routing reads.
#[derive(Debug, Default)]
pub struct Health {
    /// Whether the last probe (or last routed request) succeeded.
    pub up: AtomicBool,
    /// Primaries: last committed LSN. Replicas: last applied LSN.
    pub lsn: AtomicU64,
    /// Consecutive failed probes (resets on success).
    pub failures: AtomicU64,
    /// Total successful probes.
    pub probes: AtomicU64,
}

/// A checked-out protocol connection to one backend.
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// The row cap this connection last sent; `None` before the first
    /// (the backend's default).
    limit: Option<usize>,
}

impl Conn {
    fn dial(addr: &str) -> std::io::Result<Conn> {
        let sockaddr = addr
            .parse()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, DIAL_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            limit: None,
        })
    }

    /// Sends `LIMIT limit` unless it is the cap last sent.
    fn set_limit(&mut self, limit: usize) -> std::io::Result<()> {
        if self.limit == Some(limit) {
            return Ok(());
        }
        let reply = round_trip(&mut self.reader, &format!("LIMIT {limit}"))?;
        if reply.last().map(|l| l.starts_with("OK")) != Some(true) {
            return Err(std::io::Error::other(format!(
                "backend rejected LIMIT {limit}: {reply:?}"
            )));
        }
        self.limit = Some(limit);
        Ok(())
    }
}

/// One backend process: address, health, and idle connections.
pub struct Backend {
    /// The address requests are dialed to.
    pub addr: String,
    /// Health gauges (see [`Health`]).
    pub health: Health,
    idle: Mutex<Vec<Conn>>,
}

impl Backend {
    /// A backend for `addr`, initially presumed up (the first probe or
    /// request corrects this within one health interval).
    pub fn new(addr: String) -> Backend {
        let health = Health::default();
        health.up.store(true, Ordering::Relaxed);
        Backend {
            addr,
            health,
            idle: Mutex::new(Vec::new()),
        }
    }

    fn idle_pool(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Checks out an idle connection or dials a new one.
    pub fn checkout(&self) -> std::io::Result<Conn> {
        if let Some(conn) = self.idle_pool().pop() {
            return Ok(conn);
        }
        Conn::dial(&self.addr)
    }

    /// Returns a healthy connection to the pool (error-path connections
    /// are simply dropped).
    pub fn checkin(&self, conn: Conn) {
        let mut pool = self.idle_pool();
        if pool.len() < 16 {
            pool.push(conn);
        }
    }

    /// Runs one request with connection reuse; any I/O error marks the
    /// backend down (the health monitor brings it back) and discards
    /// the connection.
    pub fn request(&self, line: &str) -> std::io::Result<Vec<String>> {
        self.request_rows(line, None)
    }

    /// [`Backend::request`] for a request whose reply carries `ROW` lines,
    /// under the row cap `limit` (`0` = unlimited) when one is given.
    pub fn request_rows(&self, line: &str, limit: Option<usize>) -> std::io::Result<Vec<String>> {
        let attempt = self.checkout().and_then(|mut conn| {
            if let Some(limit) = limit {
                conn.set_limit(limit)?;
            }
            round_trip(&mut conn.reader, line).map(|reply| (conn, reply))
        });
        match attempt {
            Ok((conn, reply)) => {
                self.checkin(conn);
                self.health.up.store(true, Ordering::Relaxed);
                Ok(reply)
            }
            Err(e) => {
                self.health.up.store(false, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Whether routing should currently consider this backend.
    pub fn is_up(&self) -> bool {
        self.health.up.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_backend_reports_dial_error() {
        // A port from the ephemeral range with nothing bound: connect
        // must fail fast, not hang.
        let backend = Backend::new("127.0.0.1:1".into());
        let err = backend.request("PING").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::PermissionDenied
            ),
            "{err:?}"
        );
    }
}
