//! Property tests for the shard/fold contract and the analytic arrival
//! rate: a tick's summary is the same value at any shard count and
//! parallelism, and per-mix arrival counts track the analytic rate within
//! tolerance.

use proptest::prelude::*;

use pocolo_sim::parallel::Parallelism;
use pocolo_traffic::{MixKind, TrafficGen, TrafficMix, LOGICAL_STREAMS};

const PEAKS: [f64; 4] = [3500.0, 10.0, 4000.0, 8000.0];

fn generator(kind: MixKind, seed: u64, users: u64) -> TrafficGen {
    let mix = TrafficMix::plan(kind, seed, 16.0);
    TrafficGen::new(mix, seed ^ 0xA5A5, users, 4.0, 1.0, &PEAKS)
}

fn mix_kind() -> impl Strategy<Value = MixKind> {
    (0usize..MixKind::ALL.len()).prop_map(|i| MixKind::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline gate: 1, 2, 7, 8 and 73 shards, serial or threaded,
    /// fold to the same summary — digest, length and slot counts — for
    /// every mix, population, seed and tick, and the slot counts add up to
    /// the length.
    #[test]
    fn sharded_generation_is_bit_identical(
        kind in mix_kind(),
        seed in any::<u64>(),
        tick in 0u64..16,
        users in 5_000u64..30_000,
    ) {
        let gen = generator(kind, seed, users);
        let one = gen.tick(tick, 1, Parallelism::Serial);
        for (shards, parallelism) in [
            (2, Parallelism::Serial),
            (7, Parallelism::Fixed(3)),
            (8, Parallelism::Auto),
            (LOGICAL_STREAMS + 9, Parallelism::Serial),
        ] {
            prop_assert_eq!(&gen.tick(tick, shards, parallelism), &one);
        }
        prop_assert_eq!(one.slot_counts(PEAKS.len()).iter().sum::<u64>(), one.len() as u64);
    }

    /// Arrival counts match the analytic rate: the generated count is a
    /// sum of 64 Poisson draws with mean `expected_requests`, so it must
    /// sit within a 6-sigma band of it for every mix.
    #[test]
    fn arrival_counts_match_analytic_rate(
        kind in mix_kind(),
        seed in any::<u64>(),
        tick in 0u64..16,
    ) {
        let gen = generator(kind, seed, 60_000);
        let expected = gen.expected_requests(tick);
        prop_assert!(expected > 0.0);
        let got = gen.tick(tick, 4, Parallelism::Serial).len() as f64;
        let sigma = expected.sqrt();
        prop_assert!(
            (got - expected).abs() < 6.0 * sigma + 64.0,
            "kind={} tick={}: got {} expected {} (sigma {})",
            kind, tick, got, expected, sigma
        );
    }

    /// Different seeds decorrelate the stream (astronomically unlikely to
    /// collide), while the same seed reproduces it exactly.
    #[test]
    fn seed_determinism(kind in mix_kind(), seed in any::<u64>()) {
        let a = generator(kind, seed, 10_000).tick(3, 2, Parallelism::Serial);
        let b = generator(kind, seed, 10_000).tick(3, 2, Parallelism::Serial);
        prop_assert_eq!(a.digest(), b.digest());
        let c = generator(kind, seed ^ 1, 10_000).tick(3, 2, Parallelism::Serial);
        prop_assert!(a.digest() != c.digest());
    }
}
