//! Property tests for the federation wire surface.
//!
//! Every envelope type the federation tier put on the wire round-trips
//! through compact JSON for *arbitrary* field values, and the framing
//! layer rejects truncated and oversized federation frames the same way
//! the existing frame tests pin for v1 envelopes — byte sync is sacred.

use proptest::prelude::*;

use pocolo_core::federation::{
    FedLogEntry, FedSnapshot, FederationDecision, MigrationIntent, MigrationRecord,
};
use pocolo_json::{to_string, typed_from_str};
use pocolo_net::wire::{read_frame, write_frame};
use pocolo_net::{Message, NetError, MAX_FRAME_BYTES};

fn finite() -> impl Strategy<Value = f64> {
    // Compact JSON prints finite doubles; NaN/∞ are rejected upstream.
    -1.0e9..1.0e9
}

fn migration_intent() -> impl Strategy<Value = MigrationIntent> {
    (0usize..10_000, 0usize..64, 0usize..64, finite()).prop_map(|(app, from, to, gain)| {
        MigrationIntent {
            app,
            from,
            to,
            gain,
        }
    })
}

fn decision() -> impl Strategy<Value = FederationDecision> {
    (
        0u64..1_000_000,
        proptest::collection::vec(finite(), 0..8),
        proptest::collection::vec(migration_intent(), 0..6),
    )
        .prop_map(|(tick, budget_w, migrations)| FederationDecision {
            tick,
            budget_w,
            migrations,
        })
}

fn log_entry() -> impl Strategy<Value = FedLogEntry> {
    (1u64..1_000_000, decision()).prop_map(|(version, decision)| FedLogEntry { version, decision })
}

fn snapshot() -> impl Strategy<Value = FedSnapshot> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        proptest::collection::vec(0usize..64, 0..32),
        proptest::collection::vec(finite(), 0..8),
        proptest::collection::vec((0usize..10_000, 0usize..64, 0u64..1_000_000), 0..6),
    )
        .prop_map(
            |(version, tick, app_region, budget_w, migrating)| FedSnapshot {
                version,
                tick,
                app_region,
                budget_w,
                migrating: migrating
                    .into_iter()
                    .map(|(app, to, until_tick)| MigrationRecord {
                        app,
                        to,
                        until_tick,
                    })
                    .collect(),
            },
        )
}

/// Lowercase ascii name of 1–12 chars (the vendored proptest has no
/// regex strategies).
fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 1..12)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
}

/// `Option<T>` strategy (vendored proptest has no `option::of`).
fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

proptest! {
    #[test]
    fn log_entries_round_trip(e in log_entry()) {
        prop_assert_eq!(typed_from_str::<FedLogEntry>(&to_string(&e)).unwrap(), e);
    }

    #[test]
    fn snapshots_round_trip(s in snapshot()) {
        prop_assert_eq!(typed_from_str::<FedSnapshot>(&to_string(&s)).unwrap(), s);
    }

    /// The two new reactor envelopes survive the real framed path, and
    /// `Register` keeps its optional class through arbitrary agent names.
    #[test]
    fn federation_messages_survive_framing(
        from_version in 0u64..1_000_000,
        leader_version in 0u64..1_000_000,
        entries in proptest::collection::vec(log_entry(), 0..4),
        snap in maybe(snapshot()),
        agent in name(),
        class in maybe(name()),
    ) {
        let messages = [
            Message::FedPull { follower: agent.clone(), from_version },
            Message::FedEntries {
                leader_version,
                snapshot: snap.map(Box::new),
                entries,
            },
            Message::Register { agent, class },
        ];
        for msg in messages {
            let mut buf = Vec::new();
            write_frame(&mut buf, &msg.to_value()).unwrap();
            let decoded = Message::from_value(&read_frame(&mut buf.as_slice()).unwrap()).unwrap();
            prop_assert_eq!(decoded, msg);
        }
    }

    /// Chopping a federation frame at any interior byte is an error —
    /// never a silently short decode.
    #[test]
    fn truncated_federation_frames_are_rejected(cut_frac in 0.0f64..1.0) {
        let msg = Message::FedEntries {
            leader_version: 7,
            snapshot: Some(Box::new(FedSnapshot {
                version: 3,
                tick: 30,
                app_region: vec![0, 1, 2, 0],
                budget_w: vec![120.0, 240.0],
                migrating: vec![MigrationRecord { app: 2, to: 0, until_tick: 32 }],
            })),
            entries: Vec::new(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg.to_value()).unwrap();
        let cut = 1 + ((buf.len() - 2) as f64 * cut_frac) as usize;
        prop_assert!(cut < buf.len());
        prop_assert!(read_frame(&mut &buf[..cut]).is_err());
    }
}

#[test]
fn oversized_federation_frame_is_rejected_before_any_read() {
    // An honest-looking prefix claiming more than MAX_FRAME_BYTES must
    // die at the framing layer, exactly like the v1 frame tests.
    let mut buf = Vec::new();
    buf.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
    buf.extend_from_slice(&[b'{'; 16]);
    match read_frame(&mut buf.as_slice()) {
        Err(NetError::Frame(m)) => assert!(m.contains("exceeds"), "unexpected message: {m}"),
        other => panic!("oversized prefix must be NetError::Frame, got {other:?}"),
    }
}

#[test]
fn register_without_class_is_wire_compatible_with_v1() {
    // A v1 agent's Register (no class key at all) must decode; a
    // class-bearing one must carry it through the framed path.
    let v1 = pocolo_json::from_str(r#"{"v":1,"type":"register","agent":"a1"}"#).unwrap();
    match Message::from_value(&v1).unwrap() {
        Message::Register { agent, class } => {
            assert_eq!(agent, "a1");
            assert_eq!(class, None);
        }
        other => panic!("expected Register, got {other:?}"),
    }
}
