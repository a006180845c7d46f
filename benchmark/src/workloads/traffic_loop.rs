//! `traffic-loop` — the in-product closed loop.
//!
//! Each op is one `run_traffic` call: the `flashcrowd` mix under `surge`
//! faults with online refit on and `shards = nproc`. `pocolo-traffic`
//! (generate, digest, slot counts) dominates, `reqsim` and `core::fit` do
//! a little, and the 4×4 replans are negligible — a shard or merge
//! optimisation shows here and nowhere else.

use super::MIX_SEED;
use crate::api::{
    run_traffic, FaultSpec, MixKind, Parallelism, Scenario, TrafficConfig, TrafficGen, TrafficMix,
    TrafficReport, TrafficSpec,
};
use crate::proc::nproc;
use crate::record::Recorder;
use crate::run::{Measured, SetupNotes, Sink, Workload};
use std::hint::black_box;

/// Ticks of the shard-count verification pass.
const VERIFY_TICKS: u64 = 4;

/// Generator probes per shard count.
const PROBE_REPS: u64 = 5;

/// Peak loads of the four LC slots (img-dnn, sphinx, xapian, tpcc), the
/// weights the generator spreads requests by.
const SLOT_PEAKS: [f64; 4] = [3500.0, 10.0, 4000.0, 8000.0];

/// The workload's state: the op's configuration.
#[derive(Debug)]
pub struct TrafficLoop {
    config: TrafficConfig,
    /// Population of the generator probes (the million-user regime).
    probe_users: u64,
}

fn report_bits(r: &TrafficReport) -> [u64; 6] {
    [
        r.requests,
        r.slo_violation_frac.to_bits(),
        r.refits,
        r.replans,
        r.migrations,
        u64::from_str_radix(&r.digest, 16).unwrap_or(0),
    ]
}

impl Workload for TrafficLoop {
    const NAME: &'static str = "traffic-loop";
    const OP: &'static str = "traffic.run";

    fn setup(seed: u64, smoke: bool, _notes: &mut SetupNotes) -> Self {
        let mut config = TrafficConfig::new(TrafficSpec {
            kind: MixKind::FlashCrowd,
            seed: Some(MIX_SEED),
        });
        (config.users, config.ticks) = if smoke { (20_000, 6) } else { (250_000, 8) };
        config.shards = nproc();
        config.parallelism = Parallelism::Auto;
        config.online_fit = true;
        config.faults = Some(FaultSpec {
            scenario: Scenario::Surge,
            seed: None,
        });
        config.seed = seed;
        black_box(run_traffic(&config));
        TrafficLoop {
            config,
            probe_users: if smoke { 50_000 } else { 1_000_000 },
        }
    }

    fn round(&mut self, rec: &mut Recorder) {
        let started = rec.start(Self::OP, 0);
        let report = run_traffic(&self.config);
        rec.stop(Self::OP, started);
        rec.sample("traffic.gen_s", report.gen_seconds);
        rec.sample("traffic.requests", report.requests as f64);
        rec.check(
            report.requests > 0 && report.slo_violation_frac.is_finite(),
            || format!("run_traffic produced {report:?}"),
        );
        report_bits(&report).iter().for_each(|&b| rec.fold(b));
        rec.count("traffic.requests", report.requests as f64);
        rec.count("slo_violation_frac", report.slo_violation_frac);
        rec.count("core.refits", report.refits as f64);
        // A refit is useful when it moved the model far enough to repair
        // the placement; `run_traffic` replans on exactly those.
        rec.count("core.refits_adopted", report.replans as f64);
        rec.count("cluster.replans", report.replans as f64);
        rec.count("cluster.migrations_total", report.migrations as f64);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let duration_s = self.config.ticks as f64 * self.config.tick_s;
        let mix = TrafficMix::plan(MixKind::FlashCrowd, MIX_SEED, duration_s);
        let gen = TrafficGen::new(
            mix,
            self.config.seed,
            self.probe_users,
            self.config.rps_per_user,
            self.config.tick_s,
            &SLOT_PEAKS,
        );
        for tick in 0..PROBE_REPS {
            rec.tr.begin("traffic.generate_1shard", tick);
            black_box(gen.tick(tick, 1, Parallelism::Serial));
            rec.tr.end();
            rec.tr.begin("traffic.generate", tick);
            let batch = gen.tick(tick, nproc(), Parallelism::Auto);
            rec.tr.end();
            rec.tr.begin("traffic.digest", tick);
            black_box(batch.digest());
            rec.tr.end();
            rec.tr.begin("traffic.slot_counts", tick);
            black_box(batch.slot_counts(SLOT_PEAKS.len()));
            rec.tr.end();
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let mut config = self.config.clone();
        config.ticks = VERIFY_TICKS;
        let sharded = run_traffic(&config);
        config.shards = 1;
        config.parallelism = Parallelism::Serial;
        let single = run_traffic(&config);
        rec.check(report_bits(&sharded) == report_bits(&single), || {
            format!(
                "digest at {} shards {} != digest at 1 shard {}",
                self.config.shards, sharded.digest, single.digest
            )
        });
    }

    fn report(&self, m: &Measured, out: &mut Sink) {
        let wall_s = m.sum(Self::OP) / 1e3;
        let runs = m.q(Self::OP, 0.5).1;
        out.put_q(
            "sim_requests_per_s",
            (m.sum("traffic.requests") / wall_s.max(1e-9), runs),
        );
        out.put("slo_violation_frac", m.counted("slo_violation_frac"));
        out.put_q(
            "traffic.gen_share",
            (m.sum("traffic.gen_s") / wall_s.max(1e-9), runs),
        );
        out.put("traffic.requests", m.counted("traffic.requests"));
        let sharded = m.q("traffic.generate", 0.5);
        out.put_q("traffic.generate_ms_p50", sharded);
        out.put_q(
            "traffic.shard_speedup",
            (
                m.q("traffic.generate_1shard", 0.5).0 / sharded.0.max(1e-12),
                sharded.1,
            ),
        );
        out.put_q("traffic.digest_ms_p50", m.q("traffic.digest", 0.5));
        out.put_q(
            "traffic.slot_counts_ms_p50",
            m.q("traffic.slot_counts", 0.5),
        );
        let refits = m.counted("core.refits");
        out.put("core.refits", refits);
        out.put("core.refits_adopted", m.counted("core.refits_adopted"));
        out.put(
            "core.fit_useful_ratio",
            m.counted("core.refits_adopted") / refits.max(1.0),
        );
        out.put("cluster.replans", m.counted("cluster.replans"));
        out.put(
            "cluster.migrations_total",
            m.counted("cluster.migrations_total"),
        );
    }
}
