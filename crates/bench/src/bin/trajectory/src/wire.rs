//! A private client for the line protocol: one request line out, response
//! lines in until the `OK`/`ERR` terminator. One request in flight per
//! connection, which is what makes the serve workloads closed loops.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The protocol's escaping of a value into one line.
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Hash of the `ROW` lines a server must send for `rows`, byte for byte.
pub fn rows_hash(rows: &[String]) -> u64 {
    rows.iter().fold(FNV_SEED, |h, row| {
        let h = fnv(h, b"ROW ");
        fnv(fnv(h, escape_line(row).as_bytes()), b"\n")
    })
}

/// One response.
pub struct Reply {
    /// The terminator line (`OK …` or `ERR …`), without its newline.
    pub terminator: String,
    /// FNV-1a over every line before the terminator, newlines included.
    pub body_hash: u64,
    /// Bytes received, terminator included.
    pub bytes: usize,
}

impl Reply {
    /// True for an `OK` terminator.
    pub fn ok(&self) -> bool {
        self.terminator.starts_with("OK")
    }

    /// The number after `key` in the terminator (`matched=`, `lsn=` …).
    pub fn field(&self, key: &str) -> Option<u64> {
        let at = self.terminator.find(key)? + key.len();
        let digits: String = self.terminator[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }

    /// `OK <n> row(s) …`: the total row count.
    pub fn rows(&self) -> Option<u64> {
        self.field("OK ")
            .filter(|_| self.terminator.contains(" row(s)"))
    }

    /// The server-side elapsed time the terminator ends its timings with
    /// (`… 120us hits=…` for queries, a trailing `…us` for updates).
    pub fn service_us(&self) -> Option<u64> {
        self.terminator
            .split_whitespace()
            .filter_map(|t| t.strip_suffix("us"))
            .filter_map(|t| t.parse().ok())
            .next_back()
    }
}

/// A connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    /// Connects; responses slower than 20 s fail the request.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        })
    }

    /// Sends `request` and reads its whole response.
    pub fn request(&mut self, request: &str) -> std::io::Result<Reply> {
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        let mut reply = Reply {
            terminator: String::new(),
            body_hash: FNV_SEED,
            bytes: 0,
        };
        loop {
            self.line.clear();
            let n = self.reader.read_until(b'\n', &mut self.line)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            reply.bytes += n;
            if self.line.starts_with(b"OK") || self.line.starts_with(b"ERR") {
                reply.terminator = String::from_utf8_lossy(&self.line).trim_end().to_string();
                return Ok(reply);
            }
            reply.body_hash = fnv(reply.body_hash, &self.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_fields_parse() {
        let reply = |t: &str| Reply {
            terminator: t.to_string(),
            body_hash: FNV_SEED,
            bytes: 0,
        };
        let q = reply("OK 17 row(s) plan=cached 120us hits=3 misses=0");
        assert_eq!(q.rows(), Some(17));
        assert_eq!(q.service_us(), Some(120));
        assert_eq!(q.field("misses="), Some(0));
        let u = reply(
            "OK update matched=1 inserted=3 deleted=0 lsn=9 generation=4 writer_wait=0us 523us",
        );
        assert_eq!(u.rows(), None);
        assert_eq!(u.field("inserted="), Some(3));
        assert_eq!(u.service_us(), Some(523));
        assert!(!reply("ERR busy").ok());
    }

    #[test]
    fn rows_hash_matches_the_bytes_on_the_wire() {
        let rows = vec!["<a> x\ty".to_string()];
        assert_eq!(rows_hash(&rows), fnv(FNV_SEED, b"ROW <a> x\\ty\n"));
    }
}
