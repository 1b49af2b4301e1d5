//! Readiness polling over nonblocking sockets — a minimal epoll shim.
//!
//! The build environment has no registry access, so instead of `mio`
//! this module binds the three epoll syscalls directly from the C
//! library the Rust standard library already links on Linux (the same
//! vendored-deps philosophy as `shims/{rand,proptest,criterion}`: the
//! smallest API subset the workspace needs, no external crate).
//!
//! One [`Poller`] is waited on by several threads at once, and each
//! [`Poller::wait`] hands its caller a single ready token. Readiness is
//! level-triggered. A descriptor registered with [`ONESHOT`] is reported
//! once and then disarmed until [`Poller::modify`] re-arms it, so exactly
//! one thread holds it in between; re-armed while still ready, it fires
//! again at once. A descriptor registered without [`ONESHOT`] is reported
//! to every waiting thread for as long as it stays ready.

use std::io;
use std::os::fd::RawFd;

/// Interest in readability (`EPOLLIN`).
pub const READABLE: u32 = 0x001;
/// Interest in writability (`EPOLLOUT`).
pub const WRITABLE: u32 = 0x004;
/// Report once, then disarm until re-armed (`EPOLLONESHOT`).
pub const ONESHOT: u32 = 1 << 30;

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

    /// Registers `fd` under `token` with `interest` ([`READABLE`] and/or
    /// [`WRITABLE`], optionally [`ONESHOT`]).
    pub fn register(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest set of a registered descriptor; this is also
    /// how a [`ONESHOT`] descriptor is re-armed.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes `fd` from the poll set (dropping the fd also removes it;
    /// this exists for handoff, where the socket lives on).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (−1 = forever) for one ready descriptor
    /// and returns its token; `None` on timeout or EINTR.
    pub fn wait(&self, timeout_ms: i32) -> io::Result<Option<u64>> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` is one valid writable event.
        let n = unsafe { epoll_wait(self.epfd, &mut ev, 1, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(None);
            }
            return Err(err);
        }
        // A packed struct's fields must be copied out before use.
        let token = ev.data;
        Ok((n == 1).then_some(token))
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the descriptor.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[test]
    fn a_oneshot_descriptor_fires_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        poller
            .register(b.as_raw_fd(), READABLE | ONESHOT, 7)
            .unwrap();
        assert_eq!(poller.wait(10).unwrap(), None, "nothing written yet");

        a.write_all(b"hello").unwrap();
        assert_eq!(poller.wait(1000).unwrap(), Some(7));
        // Still readable, but disarmed until re-armed...
        assert_eq!(poller.wait(10).unwrap(), None);
        // ...and re-armed while still readable, it fires at once.
        poller.modify(b.as_raw_fd(), READABLE | ONESHOT, 7).unwrap();
        assert_eq!(poller.wait(1000).unwrap(), Some(7));

        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    /// A descriptor registered without `ONESHOT` that stays ready wakes
    /// every thread waiting on the set, not just one.
    #[test]
    fn a_shared_ready_descriptor_wakes_every_waiter() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let (signal, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let poller = std::sync::Arc::clone(&poller);
                std::thread::spawn(move || poller.wait(5000).unwrap())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        poller.register(signal.as_raw_fd(), WRITABLE, 1).unwrap();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Some(1));
        }
    }
}
