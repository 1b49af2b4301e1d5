//! The nonblocking server core: one event-loop thread multiplexing
//! every client connection over [`crate::poll::Poller`].
//!
//! A thread per connection burns one OS thread per socket, busy or
//! idle — at hundreds of clients the scheduler, stacks, and context
//! switches become the ceiling, not the engine. This core keeps exactly
//! one thread for *all* connection I/O:
//!
//! - The listener and every connection socket are nonblocking and
//!   registered with a level-triggered poller; an idle connection costs
//!   one epoll entry and a few KB of buffers, no thread.
//! - Requests are parsed **pipelined**: everything the client has sent
//!   is read and buffered in one readiness cycle, and responses are
//!   written back-to-back without waiting for the client to read the
//!   previous one. Per-connection *execution* order is preserved (the
//!   next request dispatches when the previous one completes), so the
//!   protocol reads as one request at a time — like Redis pipelining,
//!   the win is removing round-trip gaps, not reordering.
//! - Heavy work never runs on the loop. A [`LineService`] either
//!   answers a line inline (cheap protocol verbs) or dispatches it to a
//!   worker pool and later delivers bytes through [`Completions`],
//!   which wakes the loop via the poller's waker.
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
use std::sync::{Arc, Mutex};

use crate::poll::{Poller, Waker, READABLE, WAKER_TOKEN, WRITABLE};

/// Identifies one live connection within a core (monotonic, never
/// reused while the core runs).
pub type ConnId = u64;

/// What the service wants done with one request line.
pub enum Dispatch {
    /// Write these bytes (one or more complete protocol lines) now and
    /// keep parsing.
    Reply(Vec<u8>),
    /// The service dispatched the line to a worker which will call
    /// [`Completions::complete`] with the response; the connection's
    /// next line waits for that completion.
    Pending,
    /// Write these bytes, then close the connection once they flush.
    ReplyClose(Vec<u8>),
    /// Detach the socket from the loop and hand it (blocking again) to
    /// this closure on a fresh thread — for verbs that abandon the line
    /// protocol, like `REPLICATE`.
    Handoff(Box<dyn FnOnce(TcpStream) + Send + 'static>),
}

/// A protocol implementation the event core drives. One instance
/// serves every connection; per-connection state is keyed by [`ConnId`].
pub trait LineService: Send + Sync + 'static {
    /// Handles one request line (`\n`-terminated on the wire, trimmed
    /// here). `seq` is the line's per-connection sequence number, to be
    /// echoed through [`Completions::complete`] for pending replies.
    fn handle(&self, conn: ConnId, seq: u64, line: &str) -> Dispatch;

    /// A new connection was accepted.
    fn on_open(&self, _conn: ConnId) {}

    /// The connection closed (EOF, error, or QUIT); drop any state.
    fn on_close(&self, _conn: ConnId) {}
}

/// One completed pending reply, queued for the loop to deliver.
struct Completion {
    conn: ConnId,
    seq: u64,
    bytes: Vec<u8>,
}

struct CompletionInner {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Worker-side handle delivering responses for [`Dispatch::Pending`]
/// lines back into the event loop. Cheap to clone; wakes the loop.
#[derive(Clone)]
pub struct Completions(Arc<CompletionInner>);

impl Completions {
    /// Builds the queue and its waker.
    pub fn new() -> io::Result<Completions> {
        Ok(Completions(Arc::new(CompletionInner {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })))
    }

    /// Delivers the response bytes for `(conn, seq)` and wakes the loop.
    /// Safe to call after the connection died — the bytes are dropped.
    pub fn complete(&self, conn: ConnId, seq: u64, bytes: Vec<u8>) {
        self.0
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Completion { conn, seq, bytes });
        self.0.waker.wake();
    }

    /// Wakes the loop without delivering anything (used for shutdown).
    pub fn wake(&self) {
        self.0.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        self.0.waker.drain();
        std::mem::take(&mut self.0.queue.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Soft cap on buffered-but-unparsed request bytes per connection while
/// a request is in flight; beyond it the loop stops reading from that
/// socket until the request completes (backpressure, not an error).
const RBUF_SOFT_CAP: usize = 1 << 20;

/// Hard cap on a request line that carries a document inline.
const MAX_DOCUMENT_LINE: usize = 256 << 20;

/// Hard cap on every other request line: an XPath expression, a path, a
/// few operands.
pub(crate) const MAX_LINE: usize = 64 << 10;

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
const FIRST_CONN_TOKEN: u64 = 2;

struct Conn {
    stream: TcpStream,
    /// Read buffer; `rpos` marks how far lines have been parsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Write buffer; `wpos` marks how much has reached the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    next_seq: u64,
    /// Sequence number of the dispatched-but-incomplete request, if any.
    in_flight: Option<u64>,
    /// Registered interest bits (to skip redundant `modify` calls).
    interest: u32,
    close_after_flush: bool,
    handoff: Option<Box<dyn FnOnce(TcpStream) + Send + 'static>>,
}

impl Conn {
    fn wants(&self) -> u32 {
        let mut want = 0;
        let reading_ok = !self.close_after_flush
            && self.handoff.is_none()
            && !(self.in_flight.is_some() && self.rbuf.len() - self.rpos > RBUF_SOFT_CAP);
        if reading_ok {
            want |= READABLE;
        }
        if self.wpos < self.wbuf.len() {
            want |= WRITABLE;
        }
        want
    }
}

/// Runs the event loop over `listener` until `stop()` returns true
/// (checked on every wakeup; wake it via [`Completions::wake`] or a
/// throwaway connection). Consumes the thread it is called on.
pub fn run_event_loop<S: LineService>(
    listener: TcpListener,
    service: Arc<S>,
    completions: Completions,
    stop: impl Fn() -> bool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), READABLE, LISTENER_TOKEN)?;
    poller.register(completions.0.waker.fd(), READABLE, WAKER_TOKEN)?;

    let mut conns: HashMap<ConnId, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();
    loop {
        poller.wait(&mut events, -1)?;
        if stop() {
            return Ok(());
        }
        for ev in events.clone() {
            match ev.token {
                LISTENER_TOKEN => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let token = next_token;
                            next_token += 1;
                            if poller
                                .register(stream.as_raw_fd(), READABLE, token)
                                .is_err()
                            {
                                continue;
                            }
                            conns.insert(
                                token,
                                Conn {
                                    stream,
                                    rbuf: Vec::new(),
                                    rpos: 0,
                                    wbuf: Vec::new(),
                                    wpos: 0,
                                    next_seq: 0,
                                    in_flight: None,
                                    interest: READABLE,
                                    close_after_flush: false,
                                    handoff: None,
                                },
                            );
                            service.on_open(token);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                },
                WAKER_TOKEN => {} // completions drained below
                token => {
                    let alive = match conns.get_mut(&token) {
                        Some(conn) => {
                            let mut ok = true;
                            if ev.readable() {
                                ok = read_and_parse(conn, token, &service);
                            }
                            if ok && ev.writable() {
                                ok = flush(conn);
                            }
                            ok && !done_flushing(conn)
                        }
                        None => continue,
                    };
                    finish_conn(&poller, &mut conns, token, alive, &service);
                }
            }
        }
        // Deliver worker completions (the waker may or may not have been
        // among this batch's events — drain unconditionally, it's cheap).
        for c in completions.drain() {
            let alive = match conns.get_mut(&c.conn) {
                Some(conn) => {
                    // Stale completions (a previous connection under a
                    // reused token is impossible — tokens are never
                    // reused — but a client may have pipelined a QUIT
                    // that raced; sequence numbers make it exact).
                    if conn.in_flight == Some(c.seq) {
                        conn.in_flight = None;
                        conn.wbuf.extend_from_slice(&c.bytes);
                        // The next buffered request can now dispatch.
                        parse_lines(conn, c.conn, &service) && flush(conn) && !done_flushing(conn)
                    } else {
                        true
                    }
                }
                None => continue,
            };
            finish_conn(&poller, &mut conns, c.conn, alive, &service);
        }
        // Refresh interest sets for surviving connections.
        let mut dead = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            let want = conn.wants();
            if want != conn.interest {
                if poller.modify(conn.stream.as_raw_fd(), want, token).is_err() {
                    dead.push(token);
                } else {
                    conn.interest = want;
                }
            }
        }
        for token in dead {
            finish_conn(&poller, &mut conns, token, false, &service);
        }
    }
}

/// Closes `token` if `alive` is false, or executes a ready handoff.
/// Centralizes the "connection leaves the loop" paths.
fn finish_conn<S: LineService>(
    poller: &Poller,
    conns: &mut HashMap<ConnId, Conn>,
    token: ConnId,
    alive: bool,
    service: &Arc<S>,
) {
    if !alive {
        if conns.remove(&token).is_some() {
            service.on_close(token);
        }
        return;
    }
    let ready_handoff = conns
        .get(&token)
        .is_some_and(|c| c.handoff.is_some() && c.in_flight.is_none() && c.wpos >= c.wbuf.len());
    if ready_handoff {
        let mut conn = conns.remove(&token).unwrap();
        let _ = poller.deregister(conn.stream.as_raw_fd());
        let handoff = conn.handoff.take().unwrap();
        if conn.stream.set_nonblocking(false).is_ok() {
            let stream = conn.stream;
            let _ = std::thread::Builder::new()
                .name("vamana-handoff".into())
                .spawn(move || handoff(stream));
        }
        service.on_close(token);
    }
}

/// True when the connection asked to close and everything has flushed.
fn done_flushing(conn: &Conn) -> bool {
    conn.close_after_flush && conn.in_flight.is_none() && conn.wpos >= conn.wbuf.len()
}

/// Reads what the socket has, then parses. False = drop connection.
fn read_and_parse<S: LineService>(conn: &mut Conn, token: ConnId, service: &Arc<S>) -> bool {
    let mut buf = [0u8; 16384];
    loop {
        // Stop pulling bytes once the unparsed backlog passes what the
        // connection may hold before the parser has looked at it: the
        // backpressure cap with a request in flight, else the cap of the
        // line the backlog starts with.
        let unparsed = &conn.rbuf[conn.rpos..];
        let budget = match conn.in_flight {
            Some(_) => RBUF_SOFT_CAP,
            None => line_cap(unparsed),
        };
        if unparsed.len() > budget {
            break;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // EOF. Anything already dispatched is answered into a
                // dead socket; just drop the connection.
                return false;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    parse_lines(conn, token, service) && flush(conn)
}

/// Dispatches complete lines until one goes pending, the connection
/// begins closing/handoff, or the buffer runs out. False = drop.
fn parse_lines<S: LineService>(conn: &mut Conn, token: ConnId, service: &Arc<S>) -> bool {
    while conn.in_flight.is_none() && conn.handoff.is_none() && !conn.close_after_flush {
        let unparsed = &conn.rbuf[conn.rpos..];
        let nl = unparsed.iter().position(|&b| b == b'\n');
        if nl.unwrap_or(unparsed.len()) > line_cap(unparsed) {
            conn.wbuf.extend_from_slice(b"ERR line too long\n");
            conn.close_after_flush = true;
            conn.rpos = conn.rbuf.len();
            break;
        }
        let Some(nl) = nl else {
            break;
        };
        let end = conn.rpos + nl;
        let line = &conn.rbuf[conn.rpos..end];
        let line = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line));
        conn.rpos = end + 1;
        let Ok(line) = line else {
            conn.wbuf
                .extend_from_slice(b"ERR proto request is not valid UTF-8\n");
            conn.close_after_flush = true;
            break;
        };
        if line.is_empty() {
            continue;
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match service.handle(token, seq, line) {
            Dispatch::Reply(bytes) => conn.wbuf.extend_from_slice(&bytes),
            Dispatch::Pending => conn.in_flight = Some(seq),
            Dispatch::ReplyClose(bytes) => {
                conn.wbuf.extend_from_slice(&bytes);
                conn.close_after_flush = true;
            }
            Dispatch::Handoff(f) => conn.handoff = Some(f),
        }
    }
    // Reclaim parsed bytes so long-lived connections don't grow forever.
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
    true
}

/// Pushes buffered output to the socket. False = drop connection.
fn flush(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > RBUF_SOFT_CAP {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Echo service: `ECHO x` inline, `SLOW x` via a worker thread,
    /// `BYE` closes.
    struct Echo {
        completions: Completions,
        closed: AtomicU64,
    }

    impl LineService for Echo {
        fn handle(&self, conn: ConnId, seq: u64, line: &str) -> Dispatch {
            if let Some(rest) = line.strip_prefix("ECHO ") {
                return Dispatch::Reply(format!("OK {rest}\n").into_bytes());
            }
            if let Some(rest) = line.strip_prefix("SLOW ") {
                let completions = self.completions.clone();
                let rest = rest.to_string();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    completions.complete(conn, seq, format!("OK slow {rest}\n").into_bytes());
                });
                return Dispatch::Pending;
            }
            if line == "BYE" {
                return Dispatch::ReplyClose(b"OK bye\n".to_vec());
            }
            Dispatch::Reply(b"ERR proto\n".to_vec())
        }

        fn on_close(&self, _conn: ConnId) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn start_echo() -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let completions = Completions::new().unwrap();
        let service = Arc::new(Echo {
            completions: completions.clone(),
            closed: AtomicU64::new(0),
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || {
            run_event_loop(listener, service, completions, move || {
                stop2.load(Ordering::SeqCst)
            })
        });
        (addr, stop)
    }

    fn stop_loop(addr: std::net::SocketAddr, stop: &std::sync::atomic::AtomicBool) {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn inline_pending_and_close_round_trip_in_order() {
        let (addr, stop) = start_echo();
        let mut s = TcpStream::connect(addr).unwrap();
        // Pipelined burst: inline, worker, inline, close — replies must
        // come back in request order.
        s.write_all(b"ECHO a\nSLOW b\nECHO c\nBYE\n").unwrap();
        let mut all = String::new();
        s.read_to_string(&mut all).unwrap();
        assert_eq!(all, "OK a\nOK slow b\nOK c\nOK bye\n");
        stop_loop(addr, &stop);
    }

    #[test]
    fn many_idle_connections_and_partial_lines() {
        let (addr, stop) = start_echo();
        // A pile of idle connections costs the loop nothing; the active
        // one still gets served, even with a request split across
        // writes.
        let idle: Vec<TcpStream> = (0..50).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"ECHO he").unwrap();
        s.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        s.write_all(b"llo\n").unwrap();
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"OK hello\n");
        drop(idle);
        stop_loop(addr, &stop);
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
        let (addr, stop) = start_echo();
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
        stop_loop(addr, &stop);
    }
}
