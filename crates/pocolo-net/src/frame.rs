//! Incremental frame reassembly for the nonblocking read path, and the
//! outbound queue of the nonblocking write path.
//!
//! The blocking side reads frames with two `read_exact` calls
//! ([`crate::wire::read_frame`]); a nonblocking socket instead delivers
//! arbitrary byte fragments. [`FrameBuffer`] accumulates them and pops
//! complete frames, producing exactly the frames the blocking reader
//! would — a property the proptests in this module pin under 1-byte and
//! random-split fragmentation.
//!
//! Error taxonomy matches the blocking server's observable behaviour:
//! a frame whose *payload* is bad (non-UTF-8, malformed JSON) is
//! [`Decoded::Corrupt`] — framing is intact, the connection can answer
//! with a typed error and continue; a bad *length prefix* (over the
//! [`MAX_FRAME_BYTES`] cap) is a hard [`NetError`] — byte sync is gone
//! and the connection must die.
//!
//! On the write side every nonblocking connection (the reactor's and the
//! swarm driver's) queues its frames in one `Outbound`, which writes
//! what the socket takes and keeps `WRITABLE` interest registered exactly
//! while bytes remain.

use std::io::{self, Read, Write};

use compat_mio::net::TcpStream;
use compat_mio::{Interest, Poll, Token};
use pocolo_json::Value;

use crate::error::NetError;
use crate::wire::MAX_FRAME_BYTES;

/// Most bytes one [`FrameBuffer::fill_from`] call will pull off a socket
/// before yielding back to the event loop. Level-triggered polling
/// re-fires immediately when more is pending, so this bounds per-wakeup
/// latency without losing data.
const MAX_FILL_PER_CALL: usize = 256 * 1024;

/// One decode outcome from [`FrameBuffer::next`].
#[derive(Debug)]
pub enum Decoded {
    /// A complete, well-formed frame.
    Frame(Value),
    /// A complete frame whose payload is not valid JSON text. The
    /// connection's framing is still intact (the length prefix was
    /// honest), so the caller can reply with an error and keep reading.
    Corrupt(String),
}

/// What a nonblocking fill observed about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The socket would block (or the per-call cap was hit); more bytes
    /// may arrive later.
    Open,
    /// The peer closed its write half; drain buffered frames, then drop.
    Eof,
}

/// Reassembly buffer: feed it byte fragments, pop complete frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    head: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Bytes buffered but not yet popped as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Appends raw bytes (any fragmentation).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads from a nonblocking source until it would block, hits EOF,
    /// or the per-call byte cap is reached.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<ReadStatus> {
        let mut chunk = [0u8; 16 * 1024];
        let mut pulled = 0usize;
        loop {
            if pulled >= MAX_FILL_PER_CALL {
                return Ok(ReadStatus::Open);
            }
            match r.read(&mut chunk) {
                Ok(0) => return Ok(ReadStatus::Eof),
                Ok(n) => {
                    self.extend(&chunk[..n]);
                    pulled += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means more bytes are needed. A hard `Err` means the
    /// length prefix itself is invalid and byte sync is unrecoverable.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Decoded>, NetError> {
        self.pop(|payload| match std::str::from_utf8(payload) {
            Ok(text) => match pocolo_json::from_str(text) {
                Ok(value) => Decoded::Frame(value),
                Err(e) => Decoded::Corrupt(format!("bad frame: {e}")),
            },
            Err(_) => Decoded::Corrupt("bad frame: frame payload is not UTF-8".into()),
        })
    }

    /// Pops the next complete frame as raw payload bytes, skipping JSON
    /// parsing. The fast path for clients that inspect most frames
    /// textually (e.g. the swarm driver's welcome head scan); the
    /// length-prefix cap is still enforced.
    pub fn next_raw(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.pop(<[u8]>::to_vec)
    }

    /// Hands the next complete payload, in place, to `read`, then
    /// consumes its frame.
    fn pop<T>(&mut self, read: impl FnOnce(&[u8]) -> T) -> Result<Option<T>, NetError> {
        let pending = &self.buf[self.head..];
        let Some(&prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = payload_len(prefix)?;
        let Some(payload) = pending.get(4..4 + len) else {
            return Ok(None);
        };
        let out = read(payload);
        self.head += 4 + len;
        self.compact();
        Ok(Some(out))
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// The payload length a frame's prefix announces, refused past
/// [`MAX_FRAME_BYTES`] before anything is allocated for it.
pub(crate) fn payload_len(prefix: [u8; 4]) -> Result<usize, NetError> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(len)
}

/// Encodes one frame (length prefix + compact JSON) into owned bytes:
/// what [`crate::wire::write_frame`] writes and what a nonblocking
/// outbound queue holds.
pub fn encode_frame(payload: &Value) -> Result<Vec<u8>, NetError> {
    encode_frame_str(&payload.to_compact_string())
}

/// Encodes a frame from already-serialized compact JSON. This is the
/// splice point for cached payloads (e.g. the welcome frame): the bytes
/// must be exactly what `Value::to_compact_string` would produce.
pub fn encode_frame_str(body: &str) -> Result<Vec<u8>, NetError> {
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(out)
}

/// Outbound byte queue of one nonblocking connection: a contiguous
/// pending slice (one `write` flushes everything queued so far), head
/// compaction, an O(1) length for a high-water check, and whether
/// `WRITABLE` interest is registered for it.
#[derive(Debug, Default)]
pub(crate) struct Outbound {
    buf: Vec<u8>,
    head: usize,
    writable: bool,
}

impl Outbound {
    /// Queues encoded frame bytes behind whatever is pending.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet written.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Writes as much of the queue as `stream` takes, then registers
    /// `WRITABLE` interest (under `token`) exactly while bytes remain. A
    /// failed re-registration keeps the old interest and is retried on the
    /// next flush.
    ///
    /// # Errors
    ///
    /// The socket is dead: a write failed or took 0 bytes.
    pub(crate) fn flush(
        &mut self,
        poll: &Poll,
        token: Token,
        stream: &mut TcpStream,
    ) -> io::Result<()> {
        while self.head < self.buf.len() {
            match stream.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let pending = self.len() > 0;
        if !pending {
            self.buf.clear();
            self.head = 0;
        }
        if pending != self.writable {
            let interest = if pending {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if poll.reregister(stream, token, interest).is_ok() {
                self.writable = pending;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Message};
    use proptest::prelude::*;

    fn sample_stream() -> Vec<u8> {
        let mut bytes = Vec::new();
        let msgs = [
            Message::Register {
                agent: "agent-0".into(),
                class: Some("xeon".into()),
            },
            Message::Telemetry {
                server: 3,
                epoch: 17,
                t_s: 17.0,
                power_w: 93.5,
                slack: -0.25,
                be_throughput: 0.75,
            },
            Message::TelemetryAck { cap_factor: 0.6 },
            Message::CompleteAck,
        ];
        for m in &msgs {
            write_frame(&mut bytes, &m.to_value()).unwrap();
        }
        bytes
    }

    /// Feeds `stream` into a FrameBuffer split at `cuts`, returning every
    /// decoded frame value.
    fn reassemble(stream: &[u8], cuts: &[usize]) -> Vec<Value> {
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        let mut pos = 0;
        let feed = |fb: &mut FrameBuffer, lo: usize, hi: usize, frames: &mut Vec<Value>| {
            fb.extend(&stream[lo..hi]);
            while let Some(decoded) = fb.next().unwrap() {
                match decoded {
                    Decoded::Frame(v) => frames.push(v),
                    Decoded::Corrupt(m) => panic!("valid stream decoded as corrupt: {m}"),
                }
            }
        };
        for &cut in cuts {
            let cut = cut.min(stream.len());
            if cut > pos {
                feed(&mut fb, pos, cut, &mut frames);
                pos = cut;
            }
        }
        feed(&mut fb, pos, stream.len(), &mut frames);
        assert_eq!(fb.pending_bytes(), 0, "stream fully consumed");
        frames
    }

    fn blocking_reference(stream: &[u8]) -> Vec<Value> {
        let mut r = stream;
        let mut frames = Vec::new();
        while !r.is_empty() {
            frames.push(read_frame(&mut r).unwrap());
        }
        frames
    }

    #[test]
    fn one_byte_at_a_time_matches_the_blocking_reader() {
        let stream = sample_stream();
        let cuts: Vec<usize> = (0..stream.len()).collect();
        assert_eq!(reassemble(&stream, &cuts), blocking_reference(&stream));
    }

    #[test]
    fn corrupt_payload_is_recoverable_and_framing_survives() {
        let mut fb = FrameBuffer::new();
        // Honest length, garbage JSON — then a valid frame right behind.
        fb.extend(&3u32.to_be_bytes());
        fb.extend(b"]]]");
        let mut good = Vec::new();
        write_frame(&mut good, &Message::CompleteAck.to_value()).unwrap();
        fb.extend(&good);
        assert!(matches!(fb.next().unwrap(), Some(Decoded::Corrupt(_))));
        match fb.next().unwrap() {
            Some(Decoded::Frame(v)) => assert_eq!(v, Message::CompleteAck.to_value()),
            other => panic!("expected the trailing valid frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_fatal() {
        // One length rule: the blocking reader and both pops refuse the
        // first prefix past the cap in the same words.
        let prefix = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut fb = FrameBuffer::new();
        fb.extend(&prefix);
        let errors = [
            read_frame(&mut &prefix[..]).unwrap_err(),
            fb.next().unwrap_err(),
            fb.next_raw().unwrap_err(),
        ];
        for e in errors.map(|e| e.to_string()) {
            assert!(e.starts_with("bad frame: incoming frame of 4194305 bytes "));
            assert!(e.ends_with(" the 4194304-byte cap"), "{e}");
        }
        // The cap itself is still a frame: its prefix waits for the body.
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        assert!(fb.next().unwrap().is_none() && fb.next_raw().unwrap().is_none());
    }

    #[test]
    fn encode_matches_write_frame() {
        /// Records every `write` call it receives.
        #[derive(Default)]
        struct Counting(Vec<Vec<u8>>);
        impl std::io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let v = Message::TelemetryAck { cap_factor: 0.875 }.to_value();
        let mut writes = Counting::default();
        write_frame(&mut writes, &v).unwrap();
        assert_eq!(writes.0, [encode_frame(&v).unwrap()], "one write a frame");
        assert_eq!(
            encode_frame_str(&v.to_compact_string()).unwrap(),
            writes.0[0]
        );
    }

    #[test]
    fn a_stalled_peer_that_resumes_gets_every_queued_byte() {
        use compat_mio::Events;
        use std::time::Duration;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let std_stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut stream = TcpStream::from_std(std_stream).unwrap();
        let mut poll = Poll::new().unwrap();
        let token = Token(7);
        poll.register(&stream, token, Interest::READABLE).unwrap();

        // The peer reads nothing: queue 64 KiB frames until the socket
        // buffers are full and a flush leaves bytes behind.
        let mut out = Outbound::default();
        let mut sent = Vec::new();
        while out.len() == 0 {
            assert!(sent.len() < 1024, "loopback never pushed back");
            let message = format!("{}:{}", sent.len(), "x".repeat(64 * 1024));
            let frame = Message::Error { message };
            out.push(&encode_frame(&frame.to_value()).unwrap());
            out.flush(&poll, token, &mut stream).unwrap();
            sent.push(frame);
        }
        assert!(out.writable, "bytes remain but WRITABLE is not armed");

        // The peer resumes: drain it, flushing only on writable events.
        peer.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut events = Events::with_capacity(8);
        let mut received = FrameBuffer::new();
        let mut writable_events = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while out.len() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the queue never drained"
            );
            let _ = received.fill_from(&mut peer);
            poll.poll(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for event in &events {
                if event.token() == token && event.is_writable() {
                    writable_events += 1;
                    out.flush(&poll, token, &mut stream).unwrap();
                }
            }
        }
        assert!(writable_events > 0);
        assert!(!out.writable, "the queue drained but WRITABLE stays armed");
        poll.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            events.iter().all(|e| !e.is_writable()),
            "interest is back to READABLE"
        );

        drop(stream);
        while received.fill_from(&mut peer).unwrap() == ReadStatus::Open {}
        let mut frames = Vec::new();
        while let Some(decoded) = received.next().unwrap() {
            match decoded {
                Decoded::Frame(v) => frames.push(Message::from_value(&v).unwrap()),
                Decoded::Corrupt(m) => panic!("a frame arrived torn: {m}"),
            }
        }
        assert_eq!(received.pending_bytes(), 0);
        assert_eq!(frames, sent, "frames lost, torn or reordered");
    }

    proptest! {
        /// Any valid frame stream, split at any byte boundaries (including
        /// the 1-byte-at-a-time worst case), reassembles to exactly the
        /// frames the blocking reader produces.
        #[test]
        fn random_splits_match_the_blocking_reader(
            caps in proptest::collection::vec(0.0f64..2.0, 0..6),
            cuts in proptest::collection::vec(0usize..4096, 0..64),
        ) {
            let mut stream = Vec::new();
            for (i, cap) in caps.iter().enumerate() {
                let msg = if i % 2 == 0 {
                    Message::TelemetryAck { cap_factor: *cap }
                } else {
                    Message::Telemetry {
                        server: i,
                        epoch: i as u64,
                        t_s: *cap * 10.0,
                        power_w: 80.0 + cap,
                        slack: cap - 1.0,
                        be_throughput: *cap,
                    }
                };
                write_frame(&mut stream, &msg.to_value()).unwrap();
            }
            let mut cuts = cuts;
            cuts.sort_unstable();
            prop_assert_eq!(reassemble(&stream, &cuts), blocking_reference(&stream));
        }
    }
}
