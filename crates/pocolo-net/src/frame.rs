//! Incremental frame reassembly for the nonblocking read path.
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

use std::io::{self, Read};

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
    /// textually (e.g. the swarm driver's welcome prefix scan); the
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
            Message::Status,
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
        write_frame(&mut good, &Message::Status.to_value()).unwrap();
        fb.extend(&good);
        assert!(matches!(fb.next().unwrap(), Some(Decoded::Corrupt(_))));
        match fb.next().unwrap() {
            Some(Decoded::Frame(v)) => assert_eq!(v, Message::Status.to_value()),
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
