//! Sharded open-loop request generation that folds while it generates.
//!
//! # The shard/fold contract
//!
//! Generation is defined over [`LOGICAL_STREAMS`] fixed *logical streams*,
//! not over shards. Stream `s` at tick `k` owns its own RNG, seeded purely
//! from `(seed, s, k)` — never from which shard ran it, never from the
//! previous tick — and folds each request into the stream's
//! [`TickSummary`] as it is drawn: length, per-slot counts and the
//! combinable sequence digest. No request is stored.
//!
//! A run with `n` shards hands stream `s` to shard `s mod n`, and
//! [`TrafficGen::tick`] combines the 64 stream summaries **in stream
//! order** by `TickSummary::concat` (counts add; the digest obeys
//! `h(A‖B) = h(A)·P^|B| + h(B)`). Which shard or thread produced a
//! stream's summary never enters it, so the tick is **bit-identical for
//! every shard count and parallelism** — the same contract
//! [`pocolo_sim::parallel::map`] gives the experiment pipeline.
//!
//! Per-stream work is fanned out through `parallel::map` itself, so the
//! execution knobs compose: `--shards` fixes the deterministic
//! decomposition, `--parallelism` fixes how many OS threads run it.

use pocolo_sim::parallel::{self, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::batch::TickSummary;
use crate::mix::{TrafficMix, REGIONS};

/// Fixed number of logical RNG streams requests are drawn from. Shard
/// counts that do not divide it are fine; counts above it leave shards
/// idle.
pub const LOGICAL_STREAMS: usize = 64;

/// Golden-ratio multiplier decorrelating `(stream, tick)` seed indices.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything a tick's generation needs, precomputed once per tick and
/// shared read-only across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct TickShape {
    /// Cluster-wide arrival rate this tick, requests/second.
    pub rate_rps: f64,
    /// Cumulative region distribution (last element = 1).
    pub region_cum: [f64; REGIONS],
    /// Cumulative LC-slot distribution (last element = 1).
    pub slot_cum: Vec<f64>,
}

/// The sharded open-loop request generator.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    mix: TrafficMix,
    seed: u64,
    users: u64,
    rps_per_user: f64,
    tick_s: f64,
    /// Tick length in whole microseconds: arrival offsets are drawn from
    /// `0..tick_us`.
    tick_us: u32,
    /// Peak request rate of each LC slot (requests/s); the base share of
    /// traffic a slot attracts is proportional to its peak.
    slot_peaks: Vec<f64>,
    /// Home region per slot (slot `i` serves region `i mod REGIONS`).
    slot_region: Vec<usize>,
}

impl TrafficGen {
    /// A generator for `users` simulated users each issuing up to
    /// `rps_per_user` requests/second at full demand, split across LC
    /// slots proportionally to `slot_peaks`.
    ///
    /// # Panics
    ///
    /// Panics if `users`, `rps_per_user` or `tick_s` is not positive, if
    /// the tick is shorter than 1 µs or longer than `u32::MAX` µs (≈ 71
    /// minutes; arrival offsets are `u32` microseconds), if `slot_peaks`
    /// is empty, holds a non-positive peak, or has more than `u16::MAX`
    /// slots.
    pub fn new(
        mix: TrafficMix,
        seed: u64,
        users: u64,
        rps_per_user: f64,
        tick_s: f64,
        slot_peaks: &[f64],
    ) -> Self {
        assert!(users > 0, "need at least one user");
        assert!(
            rps_per_user.is_finite() && rps_per_user > 0.0,
            "per-user rate must be positive"
        );
        assert!(
            tick_s.is_finite() && tick_s > 0.0,
            "tick length must be positive"
        );
        let tick_us = tick_s * 1e6;
        assert!(
            (1.0..=f64::from(u32::MAX)).contains(&tick_us),
            "tick length must be between 1 and u32::MAX microseconds"
        );
        assert!(!slot_peaks.is_empty(), "need at least one LC slot");
        assert!(
            slot_peaks.len() <= usize::from(u16::MAX),
            "slot ids are u16"
        );
        assert!(
            slot_peaks.iter().all(|&p| p.is_finite() && p > 0.0),
            "slot peaks must be positive"
        );
        let slot_region = (0..slot_peaks.len()).map(|i| i % REGIONS).collect();
        TrafficGen {
            mix,
            seed,
            users,
            rps_per_user,
            tick_s,
            tick_us: tick_us as u32,
            slot_peaks: slot_peaks.to_vec(),
            slot_region,
        }
    }

    /// The mix driving the generator.
    pub fn mix(&self) -> &TrafficMix {
        &self.mix
    }

    /// Number of LC slots traffic is split over.
    pub fn n_slots(&self) -> usize {
        self.slot_peaks.len()
    }

    /// Expected requests in tick `tick_idx` (the analytic Poisson mean).
    pub fn expected_requests(&self, tick_idx: u64) -> f64 {
        self.shape_at(tick_idx).rate_rps * self.tick_s
    }

    /// Precomputes the tick's arrival rate and sampling distributions:
    /// cluster rate from the mix multiplier, region weights from skew and
    /// flash crowds, and slot weights as `peak share × home-region heat`.
    pub fn shape_at(&self, tick_idx: u64) -> TickShape {
        let t = tick_idx as f64 * self.tick_s;
        let rate_rps = self.users as f64 * self.rps_per_user * self.mix.rate_multiplier_at(t);
        let region_w = self.mix.region_weights_at(t);

        let mut region_cum = [0.0f64; REGIONS];
        let mut acc = 0.0;
        for (cum, &w) in region_cum.iter_mut().zip(&region_w) {
            acc += w;
            *cum = acc;
        }
        region_cum[REGIONS - 1] = 1.0;

        let weights: Vec<f64> = self
            .slot_peaks
            .iter()
            .zip(&self.slot_region)
            .map(|(&peak, &region)| peak * region_w[region] * REGIONS as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut slot_cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            slot_cum.push(acc);
        }
        *slot_cum.last_mut().expect("at least one slot") = 1.0;

        TickShape {
            rate_rps,
            region_cum,
            slot_cum,
        }
    }

    /// Generates tick `tick_idx` split over `shards` shards, fanned out
    /// with `parallelism`, and returns its summary; no request is stored.
    /// Bit-identical for every `(shards, parallelism)` combination.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn tick(&self, tick_idx: u64, shards: usize, parallelism: Parallelism) -> TickSummary {
        assert!(shards > 0, "need at least one shard");
        // Shards past the stream count would own no stream: don't spawn them.
        let shards = shards.min(LOGICAL_STREAMS);
        let shape = self.shape_at(tick_idx);
        // Shard `i` of `shards` takes streams `i, i + shards, …`.
        let per_shard = parallel::map(parallelism, (0..shards).collect(), |shard: usize| {
            (shard..LOGICAL_STREAMS)
                .step_by(shards)
                .map(|stream| self.stream(stream, tick_idx, &shape))
                .collect::<Vec<TickSummary>>()
        });
        let mut tick = TickSummary::new(self.n_slots());
        for stream in 0..LOGICAL_STREAMS {
            tick.concat(&per_shard[stream % shards][stream / shards]);
        }
        tick
    }

    /// One logical stream's summary for one tick: a Poisson count of
    /// requests, each folded as it is drawn. The RNG is seeded purely from
    /// `(seed, stream, tick_idx)` — shard-count and history independent by
    /// construction.
    fn stream(&self, stream: usize, tick_idx: u64, shape: &TickShape) -> TickSummary {
        let index = tick_idx
            .wrapping_mul(LOGICAL_STREAMS as u64)
            .wrapping_add(stream as u64);
        let mut rng = StdRng::seed_from_u64(self.seed ^ index.wrapping_mul(SEED_MIX));
        let lambda = shape.rate_rps * self.tick_s / LOGICAL_STREAMS as f64;
        let mut summary = TickSummary::new(shape.slot_cum.len());
        for _ in 0..poisson(&mut rng, lambda) {
            let (arrival_us, region, slot, work_draw) = self.draw(&mut rng, shape);
            summary.push(arrival_us, region, slot, work_draw);
        }
        summary
    }

    /// One request: four RNG draws — arrival offset (µs), region, slot,
    /// work — in that order. The work draw is kept as drawn, the 53 bits
    /// `gen_range(0.0..1.0)` would scale into `[0, 1)`: nothing reads its
    /// Exp(1) factor, so no transcendental runs per request.
    #[inline]
    fn draw(&self, rng: &mut StdRng, shape: &TickShape) -> (u32, u8, u16, u64) {
        let arrival_us = rng.gen_range(0..self.tick_us);
        let region = cum_pick(&shape.region_cum, rng.gen_range(0.0..1.0)) as u8;
        let slot = cum_pick(&shape.slot_cum, rng.gen_range(0.0..1.0)) as u16;
        (arrival_us, region, slot, rng.next_u64() >> 11)
    }
}

/// Index of the first cumulative weight exceeding `u`. `cum` is
/// nondecreasing (every weight is positive) up to a final `1.0 > u`, so
/// this is a binary search: std's is branch-free, which at four slots
/// spares the predictor a data-dependent early exit on every request, and
/// at 10⁴ slots it is 14 steps instead of a scan.
#[inline]
fn cum_pick(cum: &[f64], u: f64) -> usize {
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// A Poisson draw with mean `lambda`: Knuth's product method for small
/// means, a continuity-corrected normal approximation (Irwin–Hall sum of
/// 12 uniforms) for large ones, where the relative error is far below the
/// sampling noise.
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 32.0 {
        let limit = (-lambda).exp();
        let mut k = 0usize;
        let mut product: f64 = rng.gen_range(0.0..1.0);
        while product > limit {
            k += 1;
            product *= rng.gen_range(0.0..1.0);
        }
        k
    } else {
        let z: f64 = (0..12).map(|_| rng.gen_range(0.0f64..1.0)).sum::<f64>() - 6.0;
        (lambda + lambda.sqrt() * z + 0.5).max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::MixKind;

    fn gen(kind: MixKind, seed: u64, users: u64) -> TrafficGen {
        let mix = TrafficMix::plan(kind, seed, 60.0);
        TrafficGen::new(mix, seed, users, 2.0, 1.0, &[3500.0, 10.0, 4000.0, 8000.0])
    }

    /// For every mix, at divisor, non-divisor and more-than-streams shard
    /// counts, serial and threaded: the summary is the single-shard serial
    /// one — length, slot counts and digest.
    #[test]
    fn merge_is_shard_count_invariant() {
        for kind in MixKind::ALL {
            let g = gen(kind, 7, 20_000);
            let summary = g.tick(3, 1, Parallelism::Serial);
            assert!(!summary.is_empty(), "{kind}");
            for shards in [1, 3, 8, 64, 100, usize::MAX] {
                for parallelism in [Parallelism::Serial, Parallelism::Fixed(3)] {
                    let at = format!("{kind}: {shards} shards, {parallelism:?}");
                    assert_eq!(g.tick(3, shards, parallelism), summary, "{at}");
                }
            }
        }
    }

    /// The request sequence of one generator's tick: its length and slot
    /// counts as first pinned on request lanes, and the sequence digest
    /// over all four words of every request, in order.
    #[test]
    fn request_sequence_golden() {
        let g = gen(MixKind::FlashCrowd, 7, 50_000);
        let tick = g.tick(3, 1, Parallelism::Serial);
        assert_eq!(tick.len(), 51_831);
        assert_eq!(tick.slot_counts(4), vec![14_244, 40, 14_231, 23_316]);
        assert_eq!(tick.digest(), 0x9573_c86a_8196_b9a4);
    }

    #[test]
    fn parallelism_does_not_change_the_batch() {
        let g = gen(MixKind::Diurnal, 3, 30_000);
        assert_eq!(
            g.tick(1, 8, Parallelism::Serial),
            g.tick(1, 8, Parallelism::Fixed(4))
        );
    }

    #[test]
    fn ticks_and_seeds_decorrelate() {
        let g = gen(MixKind::Steady, 1, 20_000);
        assert_ne!(
            g.tick(0, 1, Parallelism::Serial).digest(),
            g.tick(1, 1, Parallelism::Serial).digest()
        );
        let g2 = gen(MixKind::Steady, 2, 20_000);
        assert_ne!(
            g.tick(0, 1, Parallelism::Serial).digest(),
            g2.tick(0, 1, Parallelism::Serial).digest()
        );
    }

    #[test]
    fn arrival_count_tracks_the_analytic_rate() {
        let g = gen(MixKind::Steady, 5, 200_000);
        let expected = g.expected_requests(0);
        let got = g.tick(0, 4, Parallelism::Serial).len() as f64;
        // Poisson sd is sqrt(mean); allow 6 sigma.
        let tol = 6.0 * expected.sqrt();
        assert!(
            (got - expected).abs() < tol,
            "count {got} vs analytic {expected} (tol {tol})"
        );
    }

    #[test]
    fn slot_counts_follow_peak_shares() {
        let g = gen(MixKind::Steady, 9, 300_000);
        let tick = g.tick(0, 2, Parallelism::Serial);
        let counts = tick.slot_counts(4);
        let total: u64 = counts.iter().sum();
        // tpcc (peak 8000) must dominate sphinx (peak 10) by orders of
        // magnitude; shares only approximate because of regional skew.
        assert!(counts[3] > counts[1] * 100, "{counts:?}");
        assert_eq!(total, tick.len() as u64);
    }

    #[test]
    fn arrival_offsets_stay_inside_the_tick() {
        let g = gen(MixKind::Regional, 11, 10_000);
        let shape = g.shape_at(2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let (arrival_us, region, slot, work_draw) = g.draw(&mut rng, &shape);
            assert!(arrival_us < 1_000_000);
            assert!(usize::from(region) < REGIONS && slot < 4);
            assert!(work_draw < 1 << 53);
        }
    }

    /// `cum_pick`'s binary search against the definition it replaced
    /// (first cumulative weight exceeding `u`, by linear scan), on the
    /// shapes every mix actually produces — which must be nondecreasing
    /// for the search to be that function — at 4 and at 10 000 slots.
    #[test]
    fn cum_pick_is_the_first_exceeding_weight() {
        let scan = |cum: &[f64], u: f64| cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
        let mut rng = StdRng::seed_from_u64(3);
        let many_peaks: Vec<f64> = (0..10_000).map(|_| rng.gen_range(1.0..9000.0)).collect();
        for kind in MixKind::ALL {
            let mix = TrafficMix::plan(kind, 7, 60.0);
            let few = TrafficGen::new(mix.clone(), 7, 1000, 2.0, 1.0, &[3500.0, 10.0, 4000.0]);
            let many = TrafficGen::new(mix, 7, 1000, 2.0, 1.0, &many_peaks);
            for tick in [0, 17, 41, 59] {
                let (few, many) = (few.shape_at(tick), many.shape_at(tick));
                for cum in [&few.region_cum[..], &few.slot_cum, &many.slot_cum] {
                    let body = &cum[..cum.len() - 1];
                    assert!(body.windows(2).all(|w| w[0] <= w[1]), "{kind} tick {tick}");
                    assert_eq!(cum.last(), Some(&1.0));
                    for _ in 0..200 {
                        let u = rng.gen_range(0.0..1.0);
                        assert_eq!(cum_pick(cum, u), scan(cum, u));
                    }
                    // Exactly on a boundary the weight does not exceed `u`.
                    for &u in body.iter().filter(|&&c| c < 1.0).take(50) {
                        assert_eq!(cum_pick(cum, u), scan(cum, u));
                    }
                    assert_eq!(cum_pick(cum, 0.0), scan(cum, 0.0));
                }
            }
        }
        assert_eq!(cum_pick(&[1.0], 0.5), 0);
    }

    #[test]
    fn poisson_small_and_large_means_are_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let small: usize = (0..4000).map(|_| poisson(&mut rng, 3.0)).sum();
        let mean_small = small as f64 / 4000.0;
        assert!((mean_small - 3.0).abs() < 0.15, "small mean {mean_small}");
        let large: usize = (0..400).map(|_| poisson(&mut rng, 50_000.0)).sum();
        let mean_large = large as f64 / 400.0;
        assert!(
            (mean_large - 50_000.0).abs() < 100.0,
            "large mean {mean_large}"
        );
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let g = gen(MixKind::Steady, 1, 100);
        let _ = g.tick(0, 0, Parallelism::Serial);
    }

    #[test]
    #[should_panic(expected = "slot peaks must be positive")]
    fn bad_peaks_panic() {
        let mix = TrafficMix::plan(MixKind::Steady, 1, 10.0);
        let _ = TrafficGen::new(mix, 1, 10, 1.0, 1.0, &[100.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "between 1 and u32::MAX microseconds")]
    fn sub_microsecond_tick_panics() {
        let mix = TrafficMix::plan(MixKind::Steady, 1, 10.0);
        let _ = TrafficGen::new(mix, 1, 10, 1.0, 0.9e-6, &[100.0]);
    }

    #[test]
    #[should_panic(expected = "between 1 and u32::MAX microseconds")]
    fn tick_longer_than_u32_microseconds_panics() {
        let mix = TrafficMix::plan(MixKind::Steady, 1, 10.0);
        let _ = TrafficGen::new(mix, 1, 10, 1.0, 4295.0, &[100.0]);
    }

    #[test]
    fn ticks_just_inside_the_limits_generate() {
        let mix = TrafficMix::plan(MixKind::Steady, 1, 10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut arrivals = |g: &TrafficGen| {
            assert!(!g.tick(0, 1, Parallelism::Serial).is_empty());
            let shape = g.shape_at(0);
            (0..100)
                .map(|_| g.draw(&mut rng, &shape).0)
                .collect::<Vec<u32>>()
        };
        // A 1 µs tick: every arrival offset is 0.
        let shortest = TrafficGen::new(mix.clone(), 1, 10, 1e9, 1.5e-6, &[100.0]);
        assert!(arrivals(&shortest).iter().all(|&a| a == 0));
        let longest = TrafficGen::new(mix, 1, 10, 1.0, 4294.9, &[100.0]);
        assert!(arrivals(&longest).iter().any(|&a| a > u32::MAX / 2));
    }
}
