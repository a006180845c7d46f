//! Offline stand-in for the `mio` crate.
//!
//! The build environment has no network access to crates.io, so this
//! crate vendors the slice of the mio 0.8 API that Pocolo's reactor
//! uses: [`Poll`] / [`Token`] / [`Interest`] / [`Events`] readiness
//! polling, a cross-thread [`Waker`], and nonblocking [`net::TcpListener`]
//! / [`net::TcpStream`] wrappers.
//!
//! One backend per build, picked by `cfg` (a type alias in `sys`, no
//! run-time dispatch):
//!
//! - **epoll** (Linux on x86_64/aarch64): level-triggered `epoll(7)`
//!   driven by raw syscalls (`core::arch::asm!`), since the workspace
//!   vendors no `libc`. The [`Waker`] is an `eventfd(2)`, drained
//!   automatically when its event is delivered. One syscall wakes the
//!   loop regardless of how many sources are registered — readiness
//!   multiplexing instead of one blocked reader per fd.
//! - **scan** (everything else): a portable level-triggered emulation
//!   that probes each registered socket with a nonblocking `peek` on a
//!   1 ms cadence. Listeners cannot be probed without accepting, so they
//!   are reported ready whenever the scan returns; callers must treat
//!   `WouldBlock` from `accept` as normal. The scan trades
//!   syscalls-per-wakeup for portability — it is correct, just not fast.
//!   On epoll platforms it is compiled only for its own selector-level
//!   tests, which call every method [`Poll`] and [`Waker`] call.
//!
//! Deviations from upstream mio (documented, deliberate):
//! [`net::TcpStream::connect`] performs a *blocking* `std` connect and
//! then flips the socket nonblocking (std offers no nonblocking connect
//! without libc); registration takes `&self` sources; and event sources
//! are probed via [`Source`], which the scan backend uses to clone a
//! probe handle.

#![warn(missing_docs)]

pub mod net;
mod sys;

use std::io;
use std::time::Duration;

/// Identifier tying a readiness event back to its registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combines two interests (const-friendly `|`).
    #[must_use]
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// True when read readiness is requested.
    pub const fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// True when write readiness is requested.
    pub const fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness event delivered by [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
    error: bool,
}

impl Event {
    pub(crate) fn new(
        token: Token,
        readable: bool,
        writable: bool,
        closed: bool,
        error: bool,
    ) -> Event {
        Event {
            token,
            readable,
            writable,
            closed,
            error,
        }
    }

    /// The token the source was registered under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// True when the source is read-ready (includes EOF and errors, which
    /// a read will surface).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// True when the source is write-ready.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// True when the peer closed its write half (RDHUP/HUP).
    pub fn is_read_closed(&self) -> bool {
        self.closed
    }

    /// True when the source is in an error state.
    pub fn is_error(&self) -> bool {
        self.error
    }
}

/// A batch of events filled by one [`Poll::poll`] call.
#[derive(Debug)]
pub struct Events {
    inner: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// An empty batch that will deliver at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Iterates the delivered events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// True when the last poll delivered nothing (pure timeout).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// A registerable event source. Implemented by the [`net`] wrappers.
pub trait Source {
    /// Raw OS handle, used by the epoll backend.
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::unix::io::RawFd;

    /// A cloned probe handle, used by the portable scan backend.
    fn probe(&self) -> io::Result<sys::Probe>;
}

/// The readiness selector: register sources, then block in
/// [`Poll::poll`] until one is ready or the timeout passes.
#[derive(Debug)]
pub struct Poll {
    sys: sys::Selector,
}

impl Poll {
    /// A selector on this build's backend.
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            sys: sys::Selector::new()?,
        })
    }

    /// Registers `source` for `interest`, delivering events as `token`.
    pub fn register<S: Source>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.register(source, token, interest)
    }

    /// Changes the interest set of an already-registered source.
    pub fn reregister<S: Source>(
        &self,
        source: &S,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.reregister(source, token, interest)
    }

    /// Removes a source; no further events are delivered for it.
    pub fn deregister<S: Source>(&self, source: &S, token: Token) -> io::Result<()> {
        self.sys.deregister(source, token)
    }

    /// Blocks until at least one event is ready or `timeout` passes
    /// (`None` blocks indefinitely). Delivered events replace the
    /// previous contents of `events`.
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        let cap = events.capacity;
        self.sys.select(&mut events.inner, cap, timeout)
    }
}

/// Cross-thread wakeup: calling [`Waker::wake`] makes the associated
/// [`Poll`] return promptly with an event carrying the waker's token.
#[derive(Debug)]
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// A waker delivering `token` through `poll`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        Ok(Waker {
            inner: poll.sys.make_waker(token)?,
        })
    }

    /// Wakes the poll loop. Cheap, non-blocking, callable from any thread.
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::Arc;

    const LISTENER: Token = Token(0);
    const WAKER: Token = Token(1);
    const CONN: Token = Token(2);

    #[test]
    fn readiness_echo_default_backend() {
        let mut poll = Poll::new().unwrap();
        let listener = net::TcpListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        poll.register(&listener, LISTENER, Interest::READABLE)
            .unwrap();
        let addr = listener.local_addr().unwrap();

        // A plain blocking std client on the far side.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client.write_all(b"ping").unwrap();

        let mut events = Events::with_capacity(8);
        let mut server_conn: Option<net::TcpStream> = None;
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 4 {
            assert!(std::time::Instant::now() < deadline, "echo timed out");
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for ev in &events {
                match ev.token() {
                    LISTENER => {
                        // Accept until drained; the scan backend
                        // reports listeners ready speculatively.
                        while let Ok((stream, _)) = listener.accept() {
                            poll.register(&stream, CONN, Interest::READABLE).unwrap();
                            server_conn = Some(stream);
                        }
                    }
                    CONN => {
                        let conn = server_conn.as_mut().unwrap();
                        let mut buf = [0u8; 16];
                        loop {
                            match conn.read(&mut buf) {
                                Ok(0) => break,
                                Ok(n) => got.extend_from_slice(&buf[..n]),
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) => panic!("read: {e}"),
                            }
                        }
                    }
                    other => panic!("unexpected token {other:?}"),
                }
            }
        }
        assert_eq!(&got, b"ping");
    }

    #[test]
    fn waker_unblocks_default_backend() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(&poll, WAKER).unwrap());
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        let start = std::time::Instant::now();
        let mut woke = false;
        while start.elapsed() < Duration::from_secs(5) && !woke {
            poll.poll(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            woke = events.iter().any(|e| e.token() == WAKER);
        }
        assert!(woke, "waker event never arrived");
        t.join().unwrap();
        // A drained waker does not re-fire spuriously.
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token() != WAKER),
            "waker re-fired without a wake()"
        );
    }

    #[test]
    fn write_interest_is_delivered() {
        let mut poll = Poll::new().unwrap();
        let listener = net::TcpListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = net::TcpStream::connect(addr).unwrap();
        poll.register(&client, CONN, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(4);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "no writable event");
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token() == CONN && e.is_writable()) {
                break;
            }
        }
        // Dropping write interest stops writable events.
        poll.reregister(&client, CONN, Interest::READABLE).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events
            .iter()
            .all(|e| !(e.token() == CONN && e.is_writable())));
        poll.deregister(&client, CONN).unwrap();
    }

    #[test]
    fn interest_combinators() {
        let both = Interest::READABLE | Interest::WRITABLE;
        assert!(both.is_readable() && both.is_writable());
        assert!(!Interest::READABLE.is_writable());
        assert!(!Interest::WRITABLE.is_readable());
        assert_eq!(
            Interest::READABLE.add(Interest::WRITABLE),
            Interest::WRITABLE | Interest::READABLE
        );
    }

    #[test]
    fn timeout_returns_empty() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = std::time::Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
