//! The nonblocking server core: a few connection threads sharing one
//! [`crate::poll::Poller`] over the listener and every client socket.
//!
//! A thread per connection burns one OS thread per socket, busy or
//! idle — at hundreds of clients the scheduler, stacks, and context
//! switches become the ceiling, not the engine. This core keeps a fixed
//! number of threads for *all* connections:
//!
//! - The listener and every connection socket are nonblocking and
//!   registered one-shot ([`ONESHOT`]) in one poll set every thread waits
//!   on; an idle connection costs one epoll entry and a few KB of
//!   buffers, no thread.
//! - The thread that receives a connection's readiness owns it until it
//!   re-arms it: it reads what the socket has, runs each complete line
//!   through [`LineService::handle`] itself, writes the replies, and
//!   re-arms. A request is read, executed and answered on one thread,
//!   with no hand-off and no queue; work in flight is bounded by the
//!   number of threads.
//! - Requests are parsed **pipelined**: everything the client has sent
//!   is read in one readiness cycle and its lines run back to back, each
//!   reply appended in request order — like Redis pipelining, the win is
//!   removing round-trip gaps, not reordering.
//! - Unread input is bounded by the line caps, unread output by
//!   1 MB: a connection whose client does not read its replies is
//!   not read either until they drain, and TCP holds the client back.
//! - A connection that switches protocols (the replication feed) is
//!   **handed off**: deregistered, flipped back to blocking, and given
//!   its own thread — long-lived streaming feeds are few and poll-shaped
//!   badly.
//!
//! The core is service-agnostic: `vamana-server` and `vamana-router`
//! both run on it with different [`LineService`] implementations.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::poll::{Poller, ONESHOT, READABLE, WRITABLE};

/// What the connection does after one request line.
pub enum Dispatch {
    /// Keep parsing.
    Next,
    /// Close the connection once the replies written so far flush.
    Close,
    /// Detach the socket from the core and hand it (blocking again) to
    /// this closure on a fresh thread — for verbs that abandon the line
    /// protocol, like `REPLICATE`.
    Handoff(Box<dyn FnOnce(TcpStream) + Send + 'static>),
}

/// A protocol implementation the core drives. One instance serves every
/// connection.
pub trait LineService: Send + Sync + 'static {
    /// Per-connection state, such as the row cap a client set.
    type Session: Send + 'static;

    /// A new connection was accepted; its state starts as this.
    fn open(&self) -> Self::Session;

    /// Handles one request line (`\n`-terminated on the wire, trimmed
    /// here) on the thread that read it, appending the reply to `out`.
    fn handle(&self, session: &mut Self::Session, line: &str, out: &mut Vec<u8>) -> Dispatch;
}

/// Reply bytes a connection may hold unwritten before the core stops
/// running its lines and reading its socket until the client reads.
const OUT_CAP: usize = 1 << 20;

/// Hard cap on a request line that carries a document inline.
const MAX_DOCUMENT_LINE: usize = 256 << 20;

/// Hard cap on every other request line: an XPath expression, a path, a
/// few operands.
pub const MAX_LINE: usize = 64 << 10;

/// Cap on a line a server writes and a client of this protocol reads
/// back. A `VAL` line carries a whole string value, so the server refuses
/// a value whose escaped line would pass the cap; a `ROW` shows a value
/// cut at the configured width; every other line carries at most a
/// request text (up to [`MAX_LINE`], doubled by escaping) behind a few
/// counters.
pub const MAX_REPLY_LINE: usize = 16 << 20;

/// Reads one line from a peer into `line` as a client of this protocol
/// does: a peer that sends [`MAX_REPLY_LINE`] bytes without a newline
/// gets `Err`, and `line` grows by no more than that.
pub fn read_line_capped(reader: &mut impl io::BufRead, line: &mut String) -> io::Result<usize> {
    let n = io::BufRead::read_line(&mut reader.take(MAX_REPLY_LINE as u64), line)?;
    if n == MAX_REPLY_LINE && !line.ends_with('\n') {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
    }
    Ok(n)
}

/// Sends `request` as one line to the peer `reader` reads from and
/// returns its reply: every line through the `OK …` or `ERR …` that ends
/// it, each read with [`read_line_capped`] and stripped of its line end.
/// A peer that closes mid-reply is an [`io::ErrorKind::UnexpectedEof`].
pub fn round_trip(reader: &mut io::BufReader<TcpStream>, request: &str) -> io::Result<Vec<String>> {
    // One write: the request and its newline as two segments would hold
    // the newline back until the peer's delayed ACK (Nagle).
    reader
        .get_mut()
        .write_all(format!("{request}\n").as_bytes())?;
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if read_line_capped(reader, &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("peer closed mid-reply to {request:?}"),
            ));
        }
        line.truncate(line.trim_end_matches(['\n', '\r']).len());
        let done = line.starts_with("OK") || line.starts_with("ERR");
        lines.push(line);
        if done {
            return Ok(lines);
        }
    }
}

/// The verbs whose line carries a document inline, on the server and on
/// the router that forwards them.
const DOCUMENT_VERBS: [&[u8]; 2] = [b"LOADXML ", b"INSERT "];

/// How long the line that starts with `head` may grow, decided from its
/// verb. A client exceeding the cap gets `ERR line too long` and is
/// closed, so an unterminated line is never buffered past it.
fn line_cap(head: &[u8]) -> usize {
    if DOCUMENT_VERBS.iter().any(|verb| head.starts_with(verb)) {
        MAX_DOCUMENT_LINE
    } else {
        MAX_LINE
    }
}

const LISTENER_TOKEN: u64 = 0;
const STOP_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Conn<T> {
    stream: TcpStream,
    session: T,
    /// Read buffer; `rpos` marks how far lines have been parsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Write buffer; `wpos` marks how much has reached the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    close_after_flush: bool,
    handoff: Option<Box<dyn FnOnce(TcpStream) + Send + 'static>>,
}

impl<T> Conn<T> {
    fn unwritten(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the socket is read: not closing or handing off, and the
    /// client is reading its replies.
    fn reading(&self) -> bool {
        !self.close_after_flush && self.handoff.is_none() && self.unwritten() <= OUT_CAP
    }

    /// The interest to re-arm with: never empty, since a connection that
    /// neither reads nor has bytes to write has left the core.
    fn wants(&self) -> u32 {
        let read = if self.reading() { READABLE } else { 0 };
        let write = if self.unwritten() > 0 { WRITABLE } else { 0 };
        read | write
    }

    /// One readiness cycle: write what is pending, run buffered lines,
    /// read what the socket has and run those lines. False = drop.
    fn serve<S: LineService<Session = T>>(&mut self, service: &S) -> bool {
        if !self.flush() || !self.run_lines(service) {
            return false;
        }
        if self.reading() {
            let open = self.fill();
            // Lines that arrived just before the client hung up are still
            // answered, as far as the socket takes the replies.
            if !self.run_lines(service) || !open {
                return false;
            }
        }
        !(self.close_after_flush && self.unwritten() == 0)
    }

    /// Reads until the socket is drained or the unparsed backlog passes
    /// the cap of the line it starts with. False = EOF or error.
    fn fill(&mut self) -> bool {
        let mut buf = [0u8; 16384];
        loop {
            let unparsed = &self.rbuf[self.rpos..];
            if unparsed.len() > line_cap(unparsed) {
                return true;
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    // A short read drained the socket; anything arriving
                    // later fires the re-armed registration.
                    if n < buf.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Runs complete lines until the buffer runs out, the connection
    /// begins closing or handing off, or its replies back up; then
    /// writes. False = drop.
    fn run_lines<S: LineService<Session = T>>(&mut self, service: &S) -> bool {
        while !self.close_after_flush && self.handoff.is_none() {
            if self.unwritten() > OUT_CAP && (!self.flush() || self.unwritten() > OUT_CAP) {
                break;
            }
            let unparsed = &self.rbuf[self.rpos..];
            let nl = unparsed.iter().position(|&b| b == b'\n');
            if nl.unwrap_or(unparsed.len()) > line_cap(unparsed) {
                self.wbuf.extend_from_slice(b"ERR line too long\n");
                self.close_after_flush = true;
                self.rpos = self.rbuf.len();
                break;
            }
            let Some(nl) = nl else {
                break;
            };
            let end = self.rpos + nl;
            let line = &self.rbuf[self.rpos..end];
            let line = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line));
            self.rpos = end + 1;
            let Ok(line) = line else {
                self.wbuf
                    .extend_from_slice(b"ERR proto request is not valid UTF-8\n");
                self.close_after_flush = true;
                break;
            };
            if line.is_empty() {
                continue;
            }
            match service.handle(&mut self.session, line, &mut self.wbuf) {
                Dispatch::Next => {}
                Dispatch::Close => self.close_after_flush = true,
                Dispatch::Handoff(f) => self.handoff = Some(f),
            }
        }
        // Reclaim parsed bytes so long-lived connections don't grow forever.
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        self.flush()
    }

    /// Pushes buffered output to the socket. False = drop connection.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > OUT_CAP {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        true
    }
}

/// What the connection threads share.
struct Core<S: LineService> {
    service: S,
    listener: TcpListener,
    poller: Poller,
    /// Connections no thread holds: a thread takes one out when its
    /// readiness fires and puts it back before re-arming it.
    idle: Mutex<HashMap<u64, Conn<S::Session>>>,
    next_token: AtomicU64,
    /// A connected pair whose first end [`Running::stop`] registers.
    stop_signal: (UnixStream, UnixStream),
}

impl<S: LineService> Core<S> {
    fn idle(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Conn<S::Session>>> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// One connection thread: take a ready token, serve it, repeat.
    fn run(&self) {
        loop {
            match self.poller.wait(-1) {
                Ok(Some(STOP_TOKEN)) | Err(_) => return,
                Ok(Some(LISTENER_TOKEN)) => self.accept(),
                Ok(Some(token)) => self.serve(token),
                Ok(None) => {}
            }
        }
    }

    fn accept(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.open(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = self.poller.modify(
            self.listener.as_raw_fd(),
            READABLE | ONESHOT,
            LISTENER_TOKEN,
        );
    }

    fn open(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            session: self.service.open(),
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            close_after_flush: false,
            handoff: None,
        };
        // Filed before it is registered: its first event finds it.
        self.idle().insert(token, conn);
        if self.poller.register(fd, READABLE | ONESHOT, token).is_err() {
            self.idle().remove(&token);
        }
    }

    /// Serves connection `token` on this thread, then re-arms it, hands
    /// it off, or drops (closes) it.
    fn serve(&self, token: u64) {
        let Some(mut conn) = self.idle().remove(&token) else {
            return;
        };
        if !conn.serve(&self.service) {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        if conn.handoff.is_some() && conn.unwritten() == 0 {
            let _ = self.poller.deregister(fd);
            let handoff = conn.handoff.take().unwrap();
            if conn.stream.set_nonblocking(false).is_ok() {
                let stream = conn.stream;
                let _ = std::thread::Builder::new()
                    .name("vamana-handoff".into())
                    .spawn(move || handoff(stream));
            }
            return;
        }
        let want = conn.wants();
        // Filed before it is re-armed: the next event may fire at once.
        self.idle().insert(token, conn);
        if self.poller.modify(fd, want | ONESHOT, token).is_err() {
            self.idle().remove(&token);
        }
    }
}

/// A core serving on its threads; [`Running::stop`] ends it.
pub struct Running<S: LineService> {
    threads: Vec<JoinHandle<()>>,
    core: Arc<Core<S>>,
}

/// Starts `threads` connection threads (named `<name>-N`) serving
/// `listener` with `service`.
pub fn start<S: LineService>(
    listener: TcpListener,
    service: S,
    threads: usize,
    name: &str,
) -> io::Result<Running<S>> {
    listener.set_nonblocking(true)?;
    let core = Arc::new(Core {
        service,
        poller: Poller::new()?,
        idle: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        stop_signal: UnixStream::pair()?,
        listener,
    });
    core.poller.register(
        core.listener.as_raw_fd(),
        READABLE | ONESHOT,
        LISTENER_TOKEN,
    )?;
    let threads = (0..threads.max(1))
        .map(|i| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || core.run())
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Running { threads, core })
}

impl<S: LineService> Running<S> {
    /// Wakes every thread, joins them, and closes the connections they
    /// left (dropping the core's last reference).
    pub fn stop(self) {
        // An idle socket is always writable, and without ONESHOT it stays
        // ready: each thread waiting on the set wakes on it and exits, one
        // mid-request after its reply.
        let signal = self.core.stop_signal.0.as_raw_fd();
        let _ = self.core.poller.register(signal, WRITABLE, STOP_TOKEN);
        self.join();
    }

    /// Blocks until every thread has exited: forever, since only
    /// [`Running::stop`] ends them.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Echo service: `ECHO x` answers at once, `SLOW x` after 20 ms,
    /// `BYE` closes.
    struct Echo;

    impl LineService for Echo {
        type Session = ();

        fn open(&self) {}

        fn handle(&self, _: &mut (), line: &str, out: &mut Vec<u8>) -> Dispatch {
            if let Some(rest) = line.strip_prefix("ECHO ") {
                out.extend_from_slice(format!("OK {rest}\n").as_bytes());
            } else if let Some(rest) = line.strip_prefix("SLOW ") {
                std::thread::sleep(Duration::from_millis(20));
                out.extend_from_slice(format!("OK slow {rest}\n").as_bytes());
            } else if line == "BYE" {
                out.extend_from_slice(b"OK bye\n");
                return Dispatch::Close;
            } else {
                out.extend_from_slice(b"ERR proto\n");
            }
            Dispatch::Next
        }
    }

    fn start_echo() -> (std::net::SocketAddr, Running<Echo>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (addr, start(listener, Echo, 2, "echo").unwrap())
    }

    #[test]
    fn a_pipelined_burst_is_answered_in_order() {
        let (addr, core) = start_echo();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"ECHO a\nSLOW b\nECHO c\nBYE\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert_eq!(all, "OK a\nOK slow b\nOK c\nOK bye\n");
        core.stop();
    }

    #[test]
    fn many_idle_connections_and_partial_lines() {
        let (addr, core) = start_echo();
        // A pile of idle connections costs the core nothing; the active
        // one still gets served, even with a request split across
        // writes.
        let idle: Vec<TcpStream> = (0..50).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"ECHO he").unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        s.write_all(b"llo\n").unwrap();
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"OK hello\n");
        drop(idle);
        core.stop();
    }

    /// Writes `line` and returns everything the server said before it
    /// closed. The server may close (and reset) mid-write; what it had
    /// already replied is still readable.
    fn send_and_drain(addr: std::net::SocketAddr, line: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(line);
        let mut all = Vec::new();
        let _ = s.read_to_end(&mut all);
        String::from_utf8(all).unwrap()
    }

    #[test]
    fn an_over_long_line_is_refused_unless_its_verb_carries_a_document() {
        let (addr, core) = start_echo();
        // Unterminated, and then terminated: neither is buffered past the cap.
        let long = [b"ECHO ".as_slice(), &vec![b'a'; 1 << 20]].concat();
        assert_eq!(send_and_drain(addr, &long), "ERR line too long\n");
        let long = [long.as_slice(), b"\nBYE\n"].concat();
        assert_eq!(send_and_drain(addr, &long), "ERR line too long\n");
        // At the cap a line still goes through...
        let fits = [b"ECHO ".as_slice(), &vec![b'a'; MAX_LINE - 5], b"\nBYE\n"].concat();
        let reply = send_and_drain(addr, &fits);
        assert!(reply.starts_with("OK aaaa") && reply.ends_with("a\nOK bye\n"));
        // ...and a document verb may run far past it.
        let doc = [b"LOADXML d ".as_slice(), &vec![b'a'; 1 << 20], b"\nBYE\n"].concat();
        assert_eq!(send_and_drain(addr, &doc), "ERR proto\nOK bye\n");
        core.stop();
    }

    /// A peer that streams without a newline is cut off at the cap, with
    /// no more than the cap read into the line.
    #[test]
    fn a_reply_line_is_read_up_to_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.write_all(&vec![b'a'; MAX_REPLY_LINE + 1]);
        });
        let mut reader = io::BufReader::new(TcpStream::connect(addr).unwrap());
        let mut line = String::new();
        let err = read_line_capped(&mut reader, &mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(line.len(), MAX_REPLY_LINE);
        drop(reader);
        peer.join().unwrap();

        let mut short = io::BufReader::new(&b"OK pong\nOK bye\n"[..]);
        let mut line = String::new();
        assert_eq!(read_line_capped(&mut short, &mut line).unwrap(), 8);
        assert_eq!(line, "OK pong\n");
    }

    /// A client that pipelines requests without reading the replies is
    /// not read either once OUT_CAP of them back up; when it reads, every
    /// reply arrives, in order.
    #[test]
    fn a_client_that_does_not_read_is_not_read() {
        let (addr, core) = start_echo();
        let mut s = TcpStream::connect(addr).unwrap();
        let payload = "x".repeat(60_000);
        let line = format!("ECHO {payload}\n");
        let writer = {
            let mut s = s.try_clone().unwrap();
            let line = line.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    s.write_all(line.as_bytes()).unwrap();
                }
                s.write_all(b"BYE\n").unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        assert!(!writer.is_finished(), "12 MB went in with nobody reading");
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        writer.join().unwrap();
        let want = format!("OK {payload}\n").repeat(200) + "OK bye\n";
        assert!(
            all == want,
            "{} bytes back, {} expected",
            all.len(),
            want.len()
        );
        core.stop();
    }
}
