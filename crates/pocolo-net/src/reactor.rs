//! The readiness-polling reactor: one event loop, many connections.
//!
//! Replaces thread-per-connection serving for the cluster daemon. A
//! single thread multiplexes every connection through a
//! [`compat_mio::Poll`] selector:
//!
//! - **reads** are frame-at-a-time and nonblocking — each connection owns
//!   a [`FrameBuffer`] that reassembles fragments, and every frame that
//!   completes in one wakeup is handled in that wakeup;
//! - **writes** are interest-driven — replies queue into a bounded
//!   outbound buffer flushed with one `write` per connection per wakeup
//!   (replies produced together coalesce into one syscall, which is what
//!   batches telemetry acks), and `WRITABLE` interest is registered only
//!   while bytes are actually pending;
//! - **backpressure** is a hard bound — a connection whose outbound
//!   queue outgrows the high-water mark (1 MiB) is disconnected with
//!   [`DisconnectReason::SlowConsumer`] so a slow agent can never grow an
//!   unbounded buffer (the cluster layer turns this into a degraded
//!   slot);
//! - **timers** ride a [`Timers`] deadline heap drained from the poll
//!   loop — no sleeping side threads, and the poll sleeps exactly until
//!   the nearest deadline — and [`EventHandler::on_timer`] fires on the
//!   loop thread;
//! - **shutdown** comes only from the owner, through the selector's
//!   [`Waker`] ([`ReactorServer::shutdown`]): it wakes the loop instead of
//!   polling a flag on a sleep cadence. No request can stop the loop.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use compat_mio::{net, Events, Interest, Poll, Token, Waker};

use crate::error::NetError;
use crate::frame::{encode_frame, Decoded, FrameBuffer, Outbound, ReadStatus};
use crate::timer::Timers;
use crate::wire::Message;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// First token used for connections; slab index = token - CONN_BASE.
const CONN_BASE: usize = 2;

/// Outbound queue cap per connection, in bytes; exceeding it is a
/// [`DisconnectReason::SlowConsumer`] disconnect. Frames are small except
/// the welcome (~100 KiB at 5k slots), so one megabyte of queued replies
/// means a peer that stopped reading long ago.
const OUTBOUND_HIWATER: usize = 1024 * 1024;

/// Identifies one live connection within the reactor. Indices are reused
/// after a disconnect, so handlers must clean their maps in
/// [`EventHandler::on_disconnect`].
pub type ConnId = usize;

/// Why the reactor dropped a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// The peer closed the connection (normal end-of-stream).
    Eof,
    /// A socket-level read or write error.
    IoError,
    /// The outbound queue exceeded the high-water mark: the peer is not
    /// draining replies fast enough and unbounded buffering is refused.
    SlowConsumer,
    /// The byte stream lost framing (invalid length prefix); no further
    /// bytes can be trusted.
    BadFraming,
}

/// A handler's reply to one request frame.
#[derive(Debug)]
pub struct Reply {
    frame: Vec<u8>,
}

impl Reply {
    /// Encodes a message reply. An unencodable message (frame cap) is
    /// downgraded to a typed error reply rather than killing the loop.
    pub fn msg(message: &Message) -> Reply {
        let frame = encode_frame(&message.to_value()).unwrap_or_else(|e| {
            encode_frame(
                &Message::Error {
                    message: e.to_string(),
                }
                .to_value(),
            )
            .expect("error reply encodes")
        });
        Reply { frame }
    }

    /// Wraps pre-encoded frame bytes (length prefix included). The splice
    /// point for cached payloads like the welcome frame.
    pub fn raw(frame: Vec<u8>) -> Reply {
        Reply { frame }
    }

    /// Encodes a typed error reply.
    pub fn error(e: &NetError) -> Reply {
        Reply::msg(&Message::Error {
            message: e.to_string(),
        })
    }

    /// The encoded frame bytes, for handlers that cache reply encodings.
    pub fn into_frame(self) -> Vec<u8> {
        self.frame
    }
}

/// Reactor-side request handler. All methods run on the event-loop
/// thread; `&mut self` state needs no locks unless it is also read from
/// other threads.
pub trait EventHandler: Send + 'static {
    /// Handles one decoded request; the strict request/response protocol
    /// means every request gets exactly one reply.
    fn handle(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, request: Message) -> Reply;

    /// A timer scheduled through [`Ctx::schedule`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _key: u64) {}

    /// A connection closed. Slab indices are reused — clean any
    /// `ConnId`-keyed state here.
    fn on_disconnect(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _reason: DisconnectReason) {}
}

/// Loop-thread context handed to every [`EventHandler`] call.
#[derive(Debug)]
pub struct Ctx<'a> {
    timers: &'a mut Timers,
    now: Instant,
}

impl Ctx<'_> {
    /// The loop's notion of now (one clock read per wakeup).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Arms a one-shot timer; [`EventHandler::on_timer`] fires with `key`
    /// on the first loop pass at or past `after` from now. Periodic work
    /// re-arms itself from `on_timer`.
    pub fn schedule(&mut self, after: Duration, key: u64) {
        self.timers.schedule(self.now, after, key);
    }
}

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    open_conns: AtomicUsize,
}

/// A running reactor server. Dropping the handle does *not* stop it;
/// call [`ReactorServer::shutdown`].
#[derive(Debug)]
pub struct ReactorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `listen` (port 0 for ephemeral) and starts the event loop on
    /// its own thread.
    pub fn spawn<H: EventHandler>(
        listen: SocketAddr,
        handler: H,
    ) -> Result<ReactorServer, NetError> {
        let listener = net::TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poll, WAKER)?);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
        });
        let state = LoopState {
            poll,
            listener,
            handler,
            timers: Timers::default(),
            conns: Vec::new(),
            free: Vec::new(),
            shared: Arc::clone(&shared),
        };
        let thread = std::thread::Builder::new()
            .name("pocolo-reactor".into())
            .spawn(move || run_loop(state))?;
        Ok(ReactorServer {
            addr,
            shared,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered with the loop. The churn soak
    /// test uses this to assert closed connections are actually released.
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// Stops the loop via the selector waker and joins it.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Debug)]
struct Conn {
    stream: net::TcpStream,
    in_buf: FrameBuffer,
    out: Outbound,
}

struct LoopState<H> {
    poll: Poll,
    listener: net::TcpListener,
    handler: H,
    timers: Timers,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    shared: Arc<Shared>,
}

fn run_loop<H: EventHandler>(mut state: LoopState<H>) {
    let mut events = Events::with_capacity(1024);
    let mut fired: Vec<u64> = Vec::new();
    loop {
        if state.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let timeout = state
            .timers
            .next_wakeup(now)
            .unwrap_or(Duration::from_millis(250));
        if state.poll.poll(&mut events, Some(timeout)).is_err() {
            break;
        }
        for event in &events {
            match event.token() {
                LISTENER => state.accept_ready(),
                WAKER => {} // stop flag is re-checked at the loop top
                Token(t) => {
                    let idx = t - CONN_BASE;
                    if state.conns.get(idx).is_none_or(Option::is_none) {
                        continue; // stale event for a closed connection
                    }
                    if event.is_writable() {
                        state.conn_writable(idx);
                    }
                    if state.conns[idx].is_some() && (event.is_readable() || event.is_read_closed())
                    {
                        state.conn_readable(idx);
                    }
                }
            }
        }
        let now = Instant::now();
        state.timers.advance(now, &mut fired);
        for key in fired.drain(..) {
            let mut ctx = Ctx {
                timers: &mut state.timers,
                now,
            };
            state.handler.on_timer(&mut ctx, key);
        }
    }
    // Loop exit: sockets close on drop; report zero live connections.
    state.shared.open_conns.store(0, Ordering::SeqCst);
    state.shared.stop.store(true, Ordering::SeqCst);
}

impl<H: EventHandler> LoopState<H> {
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = Token(idx + CONN_BASE);
                    if self
                        .poll
                        .register(&stream, token, Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue; // drop the connection; peer will retry
                    }
                    self.conns[idx] = Some(Conn {
                        stream,
                        in_buf: FrameBuffer::new(),
                        out: Outbound::default(),
                    });
                    self.shared.open_conns.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (e.g. fd pressure, peer reset
                // before accept): yield to the loop rather than spinning.
                Err(_) => break,
            }
        }
    }

    /// Reads everything available, handles every completed frame, and
    /// flushes the coalesced replies with one write.
    fn conn_readable(&mut self, idx: usize) {
        let now = Instant::now();
        let status = {
            let conn = self.conns[idx].as_mut().expect("checked live");
            match conn.in_buf.fill_from(&mut conn.stream) {
                Ok(s) => s,
                Err(_) => {
                    self.close(idx, DisconnectReason::IoError);
                    return;
                }
            }
        };
        let mut fatal_framing = false;
        loop {
            let decoded = {
                let conn = self.conns[idx].as_mut().expect("checked live");
                conn.in_buf.next()
            };
            let reply = match decoded {
                Ok(None) => break,
                Ok(Some(Decoded::Frame(value))) => match Message::from_value(&value) {
                    Ok(request) => {
                        let mut ctx = Ctx {
                            timers: &mut self.timers,
                            now,
                        };
                        self.handler.handle(&mut ctx, idx, request)
                    }
                    Err(e) => Reply::error(&e),
                },
                Ok(Some(Decoded::Corrupt(message))) => Reply::msg(&Message::Error { message }),
                Err(e) => {
                    // Framing is unrecoverable: best-effort error reply,
                    // then the connection dies below.
                    fatal_framing = true;
                    Reply::error(&e)
                }
            };
            let conn = self.conns[idx].as_mut().expect("checked live");
            conn.out.push(&reply.frame);
            if fatal_framing {
                break;
            }
        }
        if self.conns[idx].is_none() {
            return;
        }
        if self.flush(idx).is_err() {
            self.close(idx, DisconnectReason::IoError);
            return;
        }
        if let Some(conn) = self.conns[idx].as_ref() {
            if conn.out.len() > OUTBOUND_HIWATER {
                self.close(idx, DisconnectReason::SlowConsumer);
                return;
            }
        }
        if fatal_framing {
            self.close(idx, DisconnectReason::BadFraming);
            return;
        }
        if status == ReadStatus::Eof {
            // Peer closed; buffered requests were already answered and
            // the flush above was the last chance to deliver replies.
            self.close(idx, DisconnectReason::Eof);
        }
    }

    fn conn_writable(&mut self, idx: usize) {
        if self.flush(idx).is_err() {
            self.close(idx, DisconnectReason::IoError);
        }
    }

    /// Flushes one connection's [`Outbound`]; an error means the socket
    /// is dead.
    fn flush(&mut self, idx: usize) -> io::Result<()> {
        let conn = self.conns[idx].as_mut().expect("checked live");
        conn.out
            .flush(&self.poll, Token(idx + CONN_BASE), &mut conn.stream)
    }

    fn close(&mut self, idx: usize, reason: DisconnectReason) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poll.deregister(&conn.stream, Token(idx + CONN_BASE));
            self.free.push(idx);
            drop(conn);
            let mut ctx = Ctx {
                timers: &mut self.timers,
                now: Instant::now(),
            };
            self.handler.on_disconnect(&mut ctx, idx, reason);
            // Counted down only after the handler has been told, so an
            // observer that sees the count reach zero also sees every
            // disconnect the handler recorded.
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use pocolo_faults::RetryPolicy;
    use std::sync::Mutex;

    struct EchoHandler {
        disconnects: Arc<Mutex<Vec<(ConnId, DisconnectReason)>>>,
        ticks: Arc<AtomicUsize>,
        timer_armed: bool,
        pad: usize,
    }

    impl EventHandler for EchoHandler {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, request: Message) -> Reply {
            if !self.timer_armed {
                self.timer_armed = true;
                ctx.schedule(Duration::from_millis(20), 7);
            }
            match request {
                Message::Telemetry { .. } => Reply::msg(&Message::TelemetryAck { cap_factor: 0.5 }),
                Message::Register { .. } => Reply::msg(&Message::Error {
                    message: "x".repeat(self.pad),
                }),
                other => Reply::error(&NetError::Protocol(format!(
                    "unexpected {}",
                    other.type_name()
                ))),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
            assert_eq!(key, 7);
            self.ticks.fetch_add(1, Ordering::SeqCst);
            ctx.schedule(Duration::from_millis(20), 7);
        }

        fn on_disconnect(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId, reason: DisconnectReason) {
            self.disconnects.lock().unwrap().push((conn, reason));
        }
    }

    type DisconnectLog = Arc<Mutex<Vec<(ConnId, DisconnectReason)>>>;

    fn spawn_echo(pad: usize) -> (ReactorServer, DisconnectLog, Arc<AtomicUsize>) {
        let disconnects = Arc::new(Mutex::new(Vec::new()));
        let ticks = Arc::new(AtomicUsize::new(0));
        let server = ReactorServer::spawn(
            "127.0.0.1:0".parse().unwrap(),
            EchoHandler {
                disconnects: Arc::clone(&disconnects),
                ticks: Arc::clone(&ticks),
                timer_armed: false,
                pad,
            },
        )
        .unwrap();
        (server, disconnects, ticks)
    }

    fn telemetry() -> Message {
        Message::Telemetry {
            server: 0,
            epoch: 0,
            t_s: 0.0,
            power_w: 100.0,
            slack: 0.1,
            be_throughput: 0.5,
        }
    }

    fn connect(server: &ReactorServer) -> RpcClient {
        let mut retry = RetryPolicy::reconnect(1);
        RpcClient::connect(server.local_addr(), &mut retry, Duration::from_secs(2)).unwrap()
    }

    #[test]
    fn request_reply_over_loopback_with_typed_handler_errors() {
        let (mut server, _d, _t) = spawn_echo(8);
        let mut client = connect(&server);
        let ack = Message::TelemetryAck { cap_factor: 0.5 };
        assert_eq!(client.call(&telemetry()).unwrap(), ack);
        // Handler errors come back typed; the connection survives.
        let err = client.call(&Message::CompleteAck).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "got {err}");
        assert_eq!(client.call(&telemetry()).unwrap(), ack);
        assert_eq!(server.open_connections(), 1);
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_get_an_error_reply_not_a_crash() {
        use std::io::{Read as _, Write as _};
        let (mut server, _d, _t) = spawn_echo(8);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&3u32.to_be_bytes()).unwrap();
        raw.write_all(b"]]]").unwrap();
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        raw.read_exact(&mut body).unwrap();
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.contains("error"), "got {text}");
        server.shutdown();
    }

    #[test]
    fn timers_fire_on_the_loop_thread() {
        let (mut server, _d, ticks) = spawn_echo(8);
        // The handler arms its periodic timer on its first request.
        connect(&server).call(&telemetry()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "timer never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn slow_consumer_is_disconnected_at_the_high_water_mark() {
        use std::io::Write as _;
        // Fat replies: a client that writes requests but never reads
        // replies must be kicked, not buffered forever.
        let (mut server, disconnects, _t) = spawn_echo(256 * 1024);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut frame = Vec::new();
        crate::wire::write_frame(
            &mut frame,
            &Message::Register {
                class: None,
                agent: "flood".into(),
            }
            .to_value(),
        )
        .unwrap();
        // Each request provokes a 256 KiB reply; the kernel's socket
        // buffers absorb the first few megabytes, then the outbound queue
        // crosses the 1 MiB mark and the reactor cuts the connection.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "slow consumer never kicked");
            if raw.write_all(&frame).is_err() {
                break; // server reset the connection
            }
            let kicked = disconnects
                .lock()
                .unwrap()
                .iter()
                .any(|(_, r)| *r == DisconnectReason::SlowConsumer);
            if kicked {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_connections() != 0 {
            assert!(Instant::now() < deadline, "connection not released");
            std::thread::sleep(Duration::from_millis(5));
        }
        let kicked = disconnects
            .lock()
            .unwrap()
            .iter()
            .any(|(_, r)| *r == DisconnectReason::SlowConsumer);
        assert!(kicked, "disconnect reason was not SlowConsumer");
        server.shutdown();
    }
}
