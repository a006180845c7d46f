//! Portable readiness backend: no OS selector, just a bounded scan
//! loop over cloned probe handles.
//!
//! Semantics (level-triggered, conservative):
//! - streams are read-ready when a nonblocking `peek` returns data or
//!   EOF; write readiness is reported optimistically (the caller's
//!   nonblocking write discovers the truth and gets `WouldBlock`);
//! - listeners are reported ready whenever the scan returns, since
//!   accepting is the only probe — callers must tolerate `WouldBlock`;
//! - wakers are shared `AtomicBool`s checked each pass, so wake latency
//!   is bounded by the 1 ms scan slice rather than being instantaneous.

use crate::{Event, Interest, Source, Token};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::Probe;

/// How long the scan sleeps between passes when nothing is ready.
const SCAN_SLICE: Duration = Duration::from_millis(1);

#[derive(Debug)]
struct Entry {
    probe: Probe,
    interest: Interest,
}

#[derive(Debug, Default)]
struct State {
    sources: HashMap<usize, Entry>,
    wakers: Vec<(usize, Arc<AtomicBool>)>,
}

#[derive(Debug, Default)]
pub(crate) struct ScanSelector {
    state: Mutex<State>,
}

impl ScanSelector {
    pub(crate) fn new() -> io::Result<ScanSelector> {
        Ok(ScanSelector::default())
    }

    pub(crate) fn register(
        &self,
        source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let probe = source.probe()?;
        let mut st = self.state.lock().unwrap();
        if st
            .sources
            .insert(token.0, Entry { probe, interest })
            .is_some()
        {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        Ok(())
    }

    pub(crate) fn reregister(
        &self,
        _source: &impl Source,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match st.sources.get_mut(&token.0) {
            Some(entry) => {
                entry.interest = interest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "token not registered",
            )),
        }
    }

    pub(crate) fn deregister(&self, _source: &impl Source, token: Token) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        match st.sources.remove(&token.0) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "token not registered",
            )),
        }
    }

    pub(crate) fn make_waker(&self, token: Token) -> io::Result<FlagWaker> {
        let flag = Arc::new(AtomicBool::new(false));
        self.state
            .lock()
            .unwrap()
            .wakers
            .push((token.0, Arc::clone(&flag)));
        Ok(FlagWaker { flag })
    }

    pub(crate) fn select(
        &self,
        events: &mut Vec<Event>,
        cap: usize,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let mut listener_tokens = Vec::new();
            {
                let st = self.state.lock().unwrap();
                for (token, flag) in &st.wakers {
                    if flag.swap(false, Ordering::AcqRel) {
                        events.push(Event::new(Token(*token), true, false, false, false));
                    }
                }
                for (&token, entry) in &st.sources {
                    if events.len() >= cap {
                        break;
                    }
                    match &entry.probe {
                        Probe::Stream(s) => {
                            let mut readable = false;
                            let mut closed = false;
                            let mut error = false;
                            if entry.interest.is_readable() {
                                let mut byte = [0u8; 1];
                                match s.peek(&mut byte) {
                                    Ok(0) => {
                                        readable = true;
                                        closed = true;
                                    }
                                    Ok(_) => readable = true,
                                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                                    Err(_) => {
                                        readable = true;
                                        error = true;
                                    }
                                }
                            }
                            let writable = entry.interest.is_writable();
                            if readable || writable {
                                events.push(Event::new(
                                    Token(token),
                                    readable,
                                    writable,
                                    closed,
                                    error,
                                ));
                            }
                        }
                        Probe::Listener => listener_tokens.push((token, entry.interest)),
                    }
                }
            }
            let expired = deadline.map(|d| Instant::now() >= d).unwrap_or(false);
            if !events.is_empty() || expired {
                // Listeners ride along on every delivery (and on pure
                // timeouts) so accepts are never starved; they never
                // keep the loop spinning on their own.
                for (token, interest) in listener_tokens {
                    if events.len() >= cap {
                        break;
                    }
                    if interest.is_readable() {
                        events.push(Event::new(Token(token), true, false, false, false));
                    }
                }
                return Ok(());
            }
            let nap = match deadline {
                Some(d) => SCAN_SLICE.min(d.saturating_duration_since(Instant::now())),
                None => SCAN_SLICE,
            };
            std::thread::sleep(nap);
        }
    }
}

/// An `AtomicBool` waker: `wake` sets the flag; the next scan pass
/// (≤ 1 ms away) observes and clears it.
#[derive(Debug)]
pub(crate) struct FlagWaker {
    flag: Arc<AtomicBool>,
}

impl FlagWaker {
    pub(crate) fn wake(&self) -> io::Result<()> {
        self.flag.store(true, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net;
    use std::io::Write;

    const LISTENER: Token = Token(0);
    const CONN: Token = Token(1);
    const WAKER: Token = Token(2);

    fn select(sel: &ScanSelector, timeout_ms: u64) -> Vec<Event> {
        let (mut events, timeout) = (Vec::new(), Duration::from_millis(timeout_ms));
        sel.select(&mut events, 8, Some(timeout)).unwrap();
        events
    }

    #[test]
    fn listener_and_reregistered_stream_report_readiness() {
        let sel = ScanSelector::new().unwrap();
        let listener = net::TcpListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        sel.register(&listener, LISTENER, Interest::READABLE)
            .unwrap();
        // Nothing is pending, yet the listener rides along speculatively.
        let events = select(&sel, 5);
        assert!(events
            .iter()
            .any(|e| e.token() == LISTENER && e.is_readable()));
        sel.deregister(&listener, LISTENER).unwrap();

        let far = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = net::TcpStream::connect(far.local_addr().unwrap()).unwrap();
        let (mut peer, _) = far.accept().unwrap();
        sel.register(&conn, CONN, Interest::WRITABLE).unwrap();
        peer.write_all(b"ping").unwrap();
        let only = |events: Vec<Event>| match events[..] {
            [e] if e.token() == CONN => e,
            _ => panic!("expected one event for the stream: {events:?}"),
        };
        let writable = only(select(&sel, 5));
        assert!(writable.is_writable() && !writable.is_readable());
        sel.reregister(&conn, CONN, Interest::READABLE).unwrap();
        let readable = only(select(&sel, 5_000));
        assert!(readable.is_readable() && !readable.is_writable());

        sel.deregister(&conn, CONN).unwrap();
        let again = sel.deregister(&conn, CONN).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_woken_flag_waker_fires_exactly_once() {
        let sel = ScanSelector::new().unwrap();
        let waker = sel.make_waker(WAKER).unwrap();
        waker.wake().unwrap();
        waker.wake().unwrap();
        let woken = select(&sel, 1_000);
        assert_eq!(woken.len(), 1);
        assert!(woken[0].token() == WAKER && woken[0].is_readable());
        assert!(select(&sel, 5).is_empty(), "a drained waker re-fired");
    }
}
