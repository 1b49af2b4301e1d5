//! Readiness polling over nonblocking sockets — a minimal epoll shim.
//!
//! The build environment has no registry access, so instead of `mio`
//! this module binds the three epoll syscalls directly from the C
//! library the Rust standard library already links on Linux (the same
//! vendored-deps philosophy as `shims/{rand,proptest,criterion}`: the
//! smallest API subset the workspace needs, no external crate).
//!
//! [`Poller`] is level-triggered: a registered descriptor is reported
//! on every [`Poller::wait`] while it stays readable/writable, which
//! lets the event loop do bounded work per wakeup without tracking
//! edge state. [`Waker`] is a nonblocking socketpair whose read end is
//! registered like any connection — worker threads wake the loop by
//! writing one byte, and the loop drains it on service.

use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

/// Interest in readability (`EPOLLIN`).
pub const READABLE: u32 = 0x001;
/// Interest in writability (`EPOLLOUT`).
pub const WRITABLE: u32 = 0x004;
/// Peer hangup (`EPOLLHUP` | `EPOLLERR` | `EPOLLRDHUP`) — always
/// reported, never requested.
pub const HANGUP: u32 = 0x010 | 0x008 | 0x2000;

/// One readiness event: which registered token fired and how.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Bitmask of [`READABLE`] / [`WRITABLE`] / [`HANGUP`].
    pub ready: u32,
}

impl Event {
    /// The descriptor has bytes to read (or a pending accept).
    pub fn readable(&self) -> bool {
        self.ready & (READABLE | HANGUP) != 0
    }

    /// The descriptor can accept more bytes.
    pub fn writable(&self) -> bool {
        self.ready & (WRITABLE | HANGUP) != 0
    }
}

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// there has no padding between the 32-bit mask and the 64-bit data).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// A level-triggered readiness poller over raw descriptors.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd, op, fd, evp) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with `interest`
    /// ([`READABLE`] and/or [`WRITABLE`]).
    pub fn register(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest set of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes `fd` from the poll set (dropping the fd also removes it;
    /// this exists for handoff, where the socket lives on).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (−1 = forever) for readiness, filling
    /// `out`. Spurious empty returns (EINTR, timeout) yield `Ok(())`
    /// with `out` empty.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
        // SAFETY: `buf` is a valid writable array of `buf.len()` events.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &buf[..n as usize] {
            // A packed struct's fields must be copied out before use.
            let (events, data) = (ev.events, ev.data);
            out.push(Event {
                token: data,
                ready: events,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor.
        unsafe { close(self.epfd) };
    }
}

/// Wakes a [`Poller`] from another thread: a nonblocking loopback
/// socket pair whose read end is registered in the poll set.
pub struct Waker {
    /// Read side, registered by the event loop.
    reader: TcpStream,
    writer: TcpStream,
    /// Collapses bursts of wakes into one pending byte.
    pending: AtomicBool,
}

/// The reserved token wakers are registered under.
pub const WAKER_TOKEN: u64 = 1;

impl Waker {
    /// Builds the pair. Uses a loopback TCP pair rather than a Unix
    /// socketpair so the code stays within `std::net` (the rest of the
    /// server is TCP anyway and the pair never leaves the process).
    pub fn new() -> io::Result<Waker> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (reader, _) = listener.accept()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        writer.set_nodelay(true)?;
        Ok(Waker {
            reader,
            writer,
            pending: AtomicBool::new(false),
        })
    }

    /// The descriptor the event loop registers ([`WAKER_TOKEN`]).
    pub fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// Wakes the poller. Cheap when a wake is already pending.
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return;
        }
        use std::io::Write;
        let _ = (&self.writer).write(&[1u8]);
    }

    /// Drains pending wake bytes; called by the loop before it takes what
    /// the wakers queued.
    ///
    /// The flag is cleared *after* the bytes are read. Cleared first, a
    /// [`Waker::wake`] landing between the two would set the flag and
    /// write a byte this very drain then swallows: flag set, nothing to
    /// read, and every later wake is skipped as "already pending" until
    /// some other descriptor happens to wake the loop. This way round a
    /// wake either sees the flag still set (its work was queued before the
    /// flag clears, so the take that follows finds it) or writes a byte
    /// that outlives the drain.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.reader).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn poller_reports_readability() {
        let poller = Poller::new().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), READABLE, 7).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "nothing written yet: {events:?}");

        a.write_all(b"hello").unwrap();
        a.flush().unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), READABLE, WAKER_TOKEN).unwrap();
        waker.wake();
        waker.wake(); // coalesced
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == WAKER_TOKEN));
        waker.drain();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "drained waker still ready");
    }

    /// Two closed-loop producers (queue one item, wake, wait for it to be
    /// taken — a connection with one request in flight) against one loop
    /// doing wait / drain / take. A wake that a concurrent drain swallows
    /// leaves both producers waiting on a loop that sleeps: the wait times
    /// out with work still queued.
    #[test]
    fn a_wake_racing_a_drain_is_never_lost() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        const ROUNDS: u64 = 50_000;
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), READABLE, WAKER_TOKEN).unwrap();
        let queued: Arc<[AtomicU64; 2]> = Arc::default();
        let taken: Arc<[AtomicU64; 2]> = Arc::default();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let (waker, queued, taken) = (waker.clone(), queued.clone(), taken.clone());
                std::thread::spawn(move || {
                    for round in 1..=ROUNDS {
                        queued[p].store(round, Ordering::Release);
                        waker.wake();
                        while taken[p].load(Ordering::Acquire) < round {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut events = Vec::new();
        while taken.iter().any(|t| t.load(Ordering::Relaxed) < ROUNDS) {
            poller.wait(&mut events, 2000).unwrap();
            let woken = !events.is_empty();
            waker.drain();
            for p in 0..2 {
                taken[p].store(queued[p].load(Ordering::Acquire), Ordering::Release);
            }
            assert!(
                woken || taken.iter().all(|t| t.load(Ordering::Relaxed) == ROUNDS),
                "the loop slept through a wake"
            );
        }
        for producer in producers {
            producer.join().unwrap();
        }
    }
}
