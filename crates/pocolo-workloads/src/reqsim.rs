//! The per-tick queue law a traffic engine steps.
//!
//! [`LcModel`](crate::lc::LcModel) uses the M/M/1 closed form `p99(ρ) = p99(0)/(1−ρ)`.
//! [`Mm1Queue`] is what a traffic engine steps once per slot and tick: the
//! same M/M/1 closed form, capped at the load whose relaxation time fits
//! in the tick, plus the fluid limit of the Lindley recursion for the
//! backlog carried between ticks. It is O(1) a tick and draws nothing.
//! Its tests check it, and the analytic blow-up shape `LcModel` assumes,
//! against the one request-level oracle kept beside them: Poisson
//! arrivals, exponential service and Lindley's recursion, with the exact
//! tail of the responses it simulated.

/// Per-tick statistics from [`Mm1Queue::step_batch`], in the same time
/// unit as the service rate's inverse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// Arrivals this tick.
    pub arrivals: usize,
    /// Mean response time this tick.
    pub mean: f64,
    /// 99th percentile response time this tick.
    pub p99: f64,
    /// Work this tick's arrivals bring, over the tick length (capped at 1).
    pub utilization: f64,
}

impl TickStats {
    fn idle(arrivals: usize) -> Self {
        TickStats {
            arrivals,
            mean: 0.0,
            p99: 0.0,
            utilization: 0.0,
        }
    }
}

/// `ln 100`: the 99th percentile of an exponential, in units of its mean.
const LN_100: f64 = 2.0 * std::f64::consts::LN_10;

/// A stateful M/M/1 queue advanced in per-tick arrival batches.
///
/// A `Mm1Queue` carries its backlog across ticks and lets the
/// service rate be retuned between ticks, which is exactly what a traffic
/// engine needs when allocations (and therefore capacity) change while
/// requests keep arriving. A tick costs O(1) whatever its arrival count:
/// [`step_batch`](Self::step_batch) is a closed form, not a simulation, so
/// it is deterministic in its inputs alone.
///
/// ```
/// use pocolo_workloads::reqsim::Mm1Queue;
/// let mut q = Mm1Queue::new(1000.0, 7);
/// let stats = q.step_batch(500, 1.0); // 500 arrivals in a 1 s tick
/// assert_eq!(stats.utilization, 0.5);
/// // M/M/1 at ρ = 0.5: mean response 1/(μ−λ) = 2 ms, p99 ln 100 times it.
/// assert!((stats.mean - 0.002).abs() < 1e-12);
/// assert!((stats.p99 - 0.002 * 100f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Mm1Queue {
    service_rate: f64,
    /// Backlog carried across ticks, in seconds of work.
    wait: f64,
}

impl Mm1Queue {
    /// A queue with exponential service at `service_rate` requests/second.
    /// `_seed` is ignored — the law draws nothing — and stays in the
    /// signature because the benchmark package passes one.
    ///
    /// # Panics
    ///
    /// Panics unless `service_rate` is positive and finite.
    pub fn new(service_rate: f64, _seed: u64) -> Self {
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "service rate must be positive"
        );
        Mm1Queue {
            service_rate,
            wait: 0.0,
        }
    }

    /// The current service rate.
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Retunes the service rate (a reallocation between ticks); backlog is
    /// preserved.
    ///
    /// # Panics
    ///
    /// Panics unless `service_rate` is positive and finite.
    pub fn set_service_rate(&mut self, service_rate: f64) {
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "service rate must be positive"
        );
        self.service_rate = service_rate;
    }

    /// The waiting time the next arrival would experience (seconds) — the
    /// backlog carried from previous ticks.
    pub fn backlog_s(&self) -> f64 {
        self.wait
    }

    /// Advances one tick of `dt` seconds that brings `arrivals` requests.
    ///
    /// With service rate `μ`, load `ρ = arrivals/(μ·dt)` and backlog `w`:
    ///
    /// - the backlog moves to `w' = max(0, w + arrivals/μ − dt)`, the fluid
    ///   limit of Lindley's recursion;
    /// - the stationary sojourn `s = 1/(μ(1 − min(ρ, ρ_max)))` caps the
    ///   load at `ρ_max = (1 − 1/√(μ·dt))²`, the largest whose M/M/1
    ///   relaxation time `1/(μ(1−√ρ)²)` fits inside the tick;
    /// - `p99 = max(ln 100 · s, ln 100/μ + ramp)`, where `ramp` is the 99th
    ///   point of the backlog's linear path from `w` to `w'`, and
    ///   `mean = max(s, 1/μ + (w + w')/2)`.
    ///
    /// A tick with zero arrivals drains backlog for `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is positive and finite.
    pub fn step_batch(&mut self, arrivals: usize, dt: f64) -> TickStats {
        assert!(dt.is_finite() && dt > 0.0, "tick length must be positive");
        if arrivals == 0 {
            self.wait = (self.wait - dt).max(0.0);
            return TickStats::idle(0);
        }
        let mu = self.service_rate;
        let n = arrivals as f64;
        let rho = n / (mu * dt);
        let w = self.wait;
        let w_end = (w + n / mu - dt).max(0.0);
        self.wait = w_end;

        let rho_max = (1.0 - 1.0 / (mu * dt).sqrt()).max(0.0).powi(2);
        let sojourn = 1.0 / (mu * (1.0 - rho.min(rho_max)));
        let ramp = w.min(w_end) + 0.99 * (w_end - w).abs();
        TickStats {
            arrivals,
            mean: sojourn.max(1.0 / mu + (w + w_end) / 2.0),
            p99: (LN_100 * sojourn).max(LN_100 / mu + ramp),
            utilization: rho.min(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LcApp, LcModel};
    use pocolo_core::units::Frequency;
    use pocolo_simserver::telemetry::percentile_of_sorted;
    use pocolo_simserver::{CoreSet, MachineSpec, TenantAllocation, WayMask};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The request-level step `Mm1Queue` replaced, kept as its oracle:
    /// Poisson arrivals and exponential service drawn per arrival,
    /// Lindley's recursion, and the exact p99 of the tick's responses.
    struct LindleyQueue {
        service_rate: f64,
        rng: StdRng,
        /// Lindley waiting time carried across ticks (the backlog).
        wait: f64,
    }

    impl LindleyQueue {
        fn new(service_rate: f64, seed: u64) -> Self {
            LindleyQueue {
                service_rate,
                rng: StdRng::seed_from_u64(seed),
                wait: 0.0,
            }
        }

        fn step_batch(&mut self, arrivals: usize, dt: f64) -> TickStats {
            if arrivals == 0 {
                self.wait = (self.wait - dt).max(0.0);
                return TickStats::idle(0);
            }
            let arrival_rate = arrivals as f64 / dt;
            let mut responses = Vec::with_capacity(arrivals);
            let mut sum = 0.0f64;
            let mut busy = 0.0f64;
            for _ in 0..arrivals {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let interarrival = -u.ln() / arrival_rate;
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let service = -u.ln() / self.service_rate;
                let response = self.wait + service;
                self.wait = (self.wait + service - interarrival).max(0.0);
                busy += service;
                sum += response;
                responses.push(response);
            }
            responses.sort_by(f64::total_cmp);
            TickStats {
                arrivals,
                mean: sum / arrivals as f64,
                p99: percentile_of_sorted(&responses, 0.99),
                utilization: (busy / dt).min(1.0),
            }
        }
    }

    /// One closed request-level run of `n` arrivals at `arrival_rate`: a
    /// warm-up tick of the first tenth, then the measured tick of the rest.
    fn closed_run(service_rate: f64, seed: u64, arrival_rate: f64, n: usize) -> TickStats {
        let mut q = LindleyQueue::new(service_rate, seed);
        let warmup = n / 10;
        q.step_batch(warmup, warmup as f64 / arrival_rate);
        q.step_batch(n - warmup, (n - warmup) as f64 / arrival_rate)
    }

    #[test]
    fn mm1_mean_matches_closed_form() {
        // E[T] = 1/(μ − λ).
        for rho in [0.3, 0.5, 0.7] {
            let stats = closed_run(100.0, 1, 100.0 * rho, 200_000);
            let expected = 1.0 / (100.0 * (1.0 - rho));
            assert!(
                (stats.mean - expected).abs() / expected < 0.05,
                "rho={rho}: mean {} vs {expected}",
                stats.mean
            );
        }
    }

    #[test]
    fn mm1_p99_matches_closed_form() {
        // Response time is exponential(μ−λ): p99 = ln(100)/(μ−λ).
        for rho in [0.4, 0.6, 0.8] {
            let stats = closed_run(100.0, 2, 100.0 * rho, 300_000);
            let expected = (100.0f64).ln() / (100.0 * (1.0 - rho));
            assert!(
                (stats.p99 - expected).abs() / expected < 0.10,
                "rho={rho}: p99 {} vs {expected}",
                stats.p99
            );
        }
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let stats = closed_run(50.0, 3, 30.0, 100_000);
        assert!((stats.utilization - 0.6).abs() < 0.03, "{stats:?}");
    }

    #[test]
    fn tail_blowup_shape_matches_the_analytic_model() {
        // The LcModel claims p99(ρ)/p99(ρ₀) = (1−ρ₀)/(1−ρ). Verify the
        // request-level simulation reproduces that ratio curve.
        let base = closed_run(200.0, 4, 200.0 * 0.3, 300_000).p99;
        for rho in [0.5, 0.7, 0.85] {
            let measured = closed_run(200.0, 4, 200.0 * rho, 300_000).p99;
            let predicted_ratio = (1.0 - 0.3) / (1.0 - rho);
            let measured_ratio = measured / base;
            assert!(
                (measured_ratio - predicted_ratio).abs() / predicted_ratio < 0.12,
                "rho={rho}: measured ratio {measured_ratio} vs analytic {predicted_ratio}"
            );
        }
    }

    #[test]
    fn lc_model_p99_curve_is_mm1_consistent() {
        // Normalized against the 50%-utilization point, the LcModel's p99
        // curve must coincide with a simulated M/M/1's.
        let machine = MachineSpec::xeon_e5_2650();
        let model = LcModel::for_app(LcApp::Xapian, machine.clone());
        let alloc =
            TenantAllocation::new(CoreSet::first_n(6), WayMask::first_n(10), Frequency(2.2));
        let capacity = model.capacity_rps(&alloc);
        let sim = |rho: f64| closed_run(capacity, 6, rho * capacity, 300_000).p99;
        let model_base = model.p99_latency_ms(0.5 * capacity, &alloc);
        let sim_base = sim(0.5);
        for rho in [0.7, 0.8, 0.9] {
            let model_ratio = model.p99_latency_ms(rho * capacity, &alloc) / model_base;
            let sim_ratio = sim(rho) / sim_base;
            assert!(
                (model_ratio - sim_ratio).abs() / model_ratio < 0.15,
                "rho={rho}: model ratio {model_ratio} vs simulated {sim_ratio}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = closed_run(100.0, 9, 50.0, 10_000);
        assert_eq!(a, closed_run(100.0, 9, 50.0, 10_000));
        assert_ne!(a, closed_run(100.0, 10, 50.0, 10_000));
    }

    #[test]
    fn batch_queue_matches_closed_form_at_steady_state() {
        // Feeding the same offered load tick after tick reproduces the
        // M/M/1 mean response 1/(μ−λ), from the first tick on.
        let mut q = Mm1Queue::new(100.0, 11);
        for _ in 0..200 {
            let mean = q.step_batch(50, 1.0).mean; // rho = 0.5
            assert!((mean - 1.0 / (100.0 - 50.0)).abs() < 1e-12, "mean {mean}");
        }
    }

    #[test]
    fn idle_tick_drains_backlog() {
        let mut q = Mm1Queue::new(10.0, 3);
        // Overload builds a real backlog...
        q.step_batch(100, 1.0);
        let backlog = q.backlog_s();
        assert!(backlog > 1.0, "overload should queue up, got {backlog}");
        // ...which idle ticks drain at the service head.
        let stats = q.step_batch(0, 1.0);
        assert_eq!(stats, TickStats::idle(0));
        assert!((q.backlog_s() - (backlog - 1.0)).abs() < 1e-12);
        while q.backlog_s() > 0.0 {
            q.step_batch(0, 10.0);
        }
        assert_eq!(q.backlog_s(), 0.0);
    }

    #[test]
    fn retuning_service_rate_shifts_the_tail() {
        let mut fast = Mm1Queue::new(100.0, 7);
        let mut slow = Mm1Queue::new(100.0, 7);
        slow.set_service_rate(60.0);
        assert_eq!(slow.service_rate(), 60.0);
        let f = fast.step_batch(50, 1.0);
        let s = slow.step_batch(50, 1.0);
        assert!(
            s.p99 > f.p99,
            "slower service must lengthen the tail: {} vs {}",
            s.p99,
            f.p99
        );
        assert!(s.utilization > f.utilization);
    }

    #[test]
    fn step_batch_lindley_path_is_pinned_and_its_p99_is_exact() {
        // `(service rate, arrivals, tick length)`: a loaded tick, overload
        // that builds a backlog, an idle drain, ticks of one to five
        // arrivals, and a long tick that drains the backlog under load.
        const TICKS: [(f64, usize, f64); 7] = [
            (150.0, 90, 1.0),
            (60.0, 120, 1.0),
            (60.0, 0, 0.25),
            (60.0, 1, 0.1),
            (200.0, 5, 0.1),
            (200.0, 3, 0.05),
            (120.0, 1_000, 10.0),
        ];
        // `(mean, utilization, wait, p99)` bits after each tick at
        // seed 41. The first three were captured while the p99 was a P²
        // estimate: how the tail is taken must never move the Lindley
        // recursion or its draw order. The p99s are the exact 99th
        // percentile of each tick's responses (`percentile_of_sorted`),
        // checked against a replay of the same draws when they were pinned.
        const LINDLEY_BITS: [[u64; 4]; 7] = [
            [
                0x3f8857f71bf632cb,
                0x3fe084ec578c9ff1,
                0x0000000000000000,
                0x3fa0c106538e8aef,
            ],
            [
                0x3fe205ca702490f1,
                0x3ff0000000000000,
                0x3ff1c55df65bb71c,
                0x3ff1e967d62229f0,
            ],
            [
                0x0000000000000000,
                0x0000000000000000,
                0x3feb8abbecb76e38,
                0x0000000000000000,
            ],
            [
                0x3fec4b5063b892de,
                0x3fce1732982db9df,
                0x3fec403f5d540de4,
                0x3fec4b5063b892de,
            ],
            [
                0x3feb698ab6f8a06b,
                0x3fd850c970a54845,
                0x3fea1215e5285254,
                0x3fec5129cd4d850c,
            ],
            [
                0x3fe9db31386ad4e7,
                0x3fcd8fb850e0b93e,
                0x3fe91ec5f3e553e0,
                0x3fea532690614c4c,
            ],
            [
                0x3fcbcb29ef430bf3,
                0x3feb6c1fc9e6125d,
                0x3f8314181f119b84,
                0x3fe88115e8f8bcb4,
            ],
        ];
        let mut q = LindleyQueue::new(150.0, 41);
        for (&(rate, arrivals, dt), &bits) in TICKS.iter().zip(&LINDLEY_BITS) {
            q.service_rate = rate;
            let stats = q.step_batch(arrivals, dt);
            let got = [stats.mean, stats.utilization, q.wait, stats.p99].map(f64::to_bits);
            assert_eq!(got, bits, "tick {stats:?}");
        }
    }

    #[test]
    fn batch_queue_agrees_with_mm1sim_tail() {
        // Same physics, two ways to step it: at ρ = 0.7 in 100 s ticks the
        // relaxation time is 0.4 % of a tick, so the law's p99 is the
        // stationary tail ln 100/(μ−λ) a closed request-level run measures.
        let closed = closed_run(100.0, 13, 70.0, 300_000).p99;
        let tail = Mm1Queue::new(100.0, 13).step_batch(7_000, 100.0).p99;
        assert!(
            (tail - closed).abs() / closed < 0.10,
            "batch p99 {tail} vs closed-run p99 {closed}"
        );
    }

    #[test]
    fn law_tracks_the_oracle_at_steady_load() {
        // Bands, law over the oracle's per-tick average: mean within ±8 %;
        // p99 within −10 % … +25 % while the M/M/1 relaxation time
        // 1/(μ(1−√ρ)²) is under a twentieth of the tick. At ρ = 0.9 and
        // μ·dt = 10³ it is 0.38 of the tick: each tick's own tail then
        // averages well under the stationary one (measured ≈ 1/1.6 of
        // it), and the law, at the stationary tail, may read up to +80 %.
        let mu = 1_000.0;
        for mu_dt in [1e3, 1e4] {
            let dt = mu_dt / mu;
            // ≈ 4·10⁵ service times of work per case: 400 ticks at 10³.
            let ticks = (4e5 / mu_dt) as usize;
            for (k, rho) in [0.3, 0.5, 0.7, 0.9].into_iter().enumerate() {
                let arrivals = (rho * mu_dt) as usize;
                let law = Mm1Queue::new(mu, 0).step_batch(arrivals, dt);
                let mut oracle = LindleyQueue::new(mu, 20 + k as u64);
                let (mut mean, mut p99) = (0.0, 0.0);
                for tick in 0..10 + ticks {
                    let stats = oracle.step_batch(arrivals, dt);
                    if tick >= 10 {
                        mean += stats.mean / ticks as f64;
                        p99 += stats.p99 / ticks as f64;
                    }
                }
                let relax_frac = 1.0 / (mu_dt * (1.0 - rho.sqrt()).powi(2));
                let p99_band = if relax_frac < 0.05 {
                    0.90..=1.25
                } else {
                    1.0..=1.80
                };
                let case =
                    format!("ρ={rho} μ·dt={mu_dt}: law {law:?}, oracle mean {mean} p99 {p99}");
                assert!((law.mean / mean - 1.0).abs() <= 0.08, "{case}");
                assert!(p99_band.contains(&(law.p99 / p99)), "{case}");
            }
        }
    }

    #[test]
    fn law_tracks_the_oracle_through_overload_and_drain() {
        // ρ 1.2 → 2.6 → 4 builds a backlog of 4.8 ticks; ρ 0.8 drains it
        // over 24 more. Band, per tick, for p99 and `backlog_s` against
        // the oracle's average over four seeds: 5 % of the oracle or a
        // tenth of the tick, whichever is larger. The absolute term is
        // ≈ 3 standard deviations of that average's diffusion after 26
        // ticks (√(2n)/μ a tick, over √4 seeds): the oracle's backlog
        // wanders ≈ 0.8 s above the fluid path by the end of the drain and
        // its reflected walk keeps some after the fluid backlog empties.
        let (mu, dt) = (1_000.0, 10.0);
        let mut loads = vec![1.2, 2.6, 4.0];
        loads.extend([0.8; 26]);
        const SEEDS: u64 = 4;
        let mut oracle_p99 = vec![0.0; loads.len()];
        let mut oracle_backlog = vec![0.0; loads.len()];
        for seed in 0..SEEDS {
            let mut oracle = LindleyQueue::new(mu, seed);
            for _ in 0..10 {
                oracle.step_batch((0.8 * mu * dt) as usize, dt);
            }
            for (t, rho) in loads.iter().enumerate() {
                oracle_p99[t] += oracle.step_batch((rho * mu * dt) as usize, dt).p99 / SEEDS as f64;
                oracle_backlog[t] += oracle.wait / SEEDS as f64;
            }
        }
        let within = |law: f64, oracle: f64| (law - oracle).abs() <= (0.05 * oracle).max(0.1 * dt);
        let mut q = Mm1Queue::new(mu, 0);
        for (t, rho) in loads.iter().enumerate() {
            let p99 = q.step_batch((rho * mu * dt) as usize, dt).p99;
            let case = format!(
                "tick {t} (ρ {rho}): p99 {p99} vs {}, backlog {} vs {}",
                oracle_p99[t],
                q.backlog_s(),
                oracle_backlog[t]
            );
            assert!(within(p99, oracle_p99[t]), "{case}");
            assert!(within(q.backlog_s(), oracle_backlog[t]), "{case}");
        }
        assert_eq!(q.backlog_s(), 0.0, "the drain completes");
    }

    #[test]
    fn law_stays_bounded_at_two_requests_a_tick() {
        // μ·dt = 2 (a slot whose capacity is two requests a tick): ρ_max is
        // (1 − 1/√2)² ≈ 0.086, so the sojourn term stays near 1/μ and the
        // backlog ramp carries the overload. Band: every tick's p99 finite,
        // at least one service time's tail, and at most 1.5 × the oracle's
        // worst tick over eight seeds.
        let mu = 2.0;
        let arrivals = [1usize, 2, 0, 4, 6, 1, 0, 2, 3, 1, 1, 0, 0, 2];
        let mut worst = 0.0f64;
        for seed in 0..8 {
            let mut oracle = LindleyQueue::new(mu, seed);
            for &n in &arrivals {
                worst = worst.max(oracle.step_batch(n, 1.0).p99);
            }
        }
        let mut q = Mm1Queue::new(mu, 0);
        for &n in &arrivals {
            let p99 = q.step_batch(n, 1.0).p99;
            assert!(
                p99.is_finite() && p99 <= 1.5 * worst,
                "n={n}: p99 {p99}, oracle worst {worst}"
            );
            if n > 0 {
                assert!(p99 >= LN_100 / mu, "n={n}: p99 {p99}");
            }
        }
    }

    #[test]
    fn law_p99_is_monotone_in_arrivals_and_seed_free() {
        for mu in [2.0, 150.0, 1_000.0] {
            for dt in [0.1, 1.0] {
                for wait in [0.0, 0.05, 1.0, 10.0] {
                    let mut last = 0.0;
                    for n in 0..=(4.0 * mu * dt) as usize + 5 {
                        let p99 = Mm1Queue {
                            service_rate: mu,
                            wait,
                        }
                        .step_batch(n, dt)
                        .p99;
                        assert!(p99 >= last, "μ={mu} dt={dt} w={wait} n={n}: {p99} < {last}");
                        last = p99;
                    }
                }
            }
        }
        // `(service rate, arrivals, tick length)`.
        let ticks = [
            (150.0, 90, 1.0),
            (60.0, 120, 1.0),
            (60.0, 0, 0.25),
            (200.0, 5, 0.1),
        ];
        let run = |seed| {
            let mut q = Mm1Queue::new(150.0, seed);
            ticks
                .iter()
                .map(|&(rate, n, dt)| {
                    q.set_service_rate(rate);
                    (q.step_batch(n, dt), q.backlog_s())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "service rate must be positive")]
    fn invalid_queue_rate_panics() {
        let mut q = Mm1Queue::new(10.0, 0);
        q.set_service_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "tick length must be positive")]
    fn invalid_tick_length_panics() {
        let _ = Mm1Queue::new(10.0, 0).step_batch(5, 0.0);
    }
}
