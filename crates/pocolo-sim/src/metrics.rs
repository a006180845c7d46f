//! Metrics accumulated during simulation.

use pocolo_core::units::{Joules, Watts};

/// Per-server accumulator, sampled on every capper tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMetrics {
    /// Simulated wall-clock covered, seconds.
    pub duration_s: f64,
    /// Integrated server energy.
    pub energy: Joules,
    /// Highest instantaneous (true) power observed.
    pub peak_power: Watts,
    /// The provisioned cap the server ran under.
    pub power_cap: Watts,
    /// Time-average of the BE app's normalized throughput.
    pub be_throughput_avg: f64,
    /// Fraction of time the primary's p99 violated its SLO.
    pub lc_violation_frac: f64,
    /// Fraction of capper ticks that had to throttle the secondary.
    pub capping_frac: f64,
    /// Number of accumulation samples.
    pub samples: usize,
    /// Longest observed time from a fault clearing to the first healthy
    /// tick (SLO met, power within the cap), seconds. Zero when no fault
    /// recovery was observed.
    pub time_to_recover_s: f64,
    /// Fraction of *fault-active* time the primary violated its SLO
    /// (zero when no fault time was accumulated).
    pub slo_violation_frac_during_fault: f64,
    /// Number of best-effort evictions (degraded-mode load shedding and
    /// crash-driven evictions).
    pub evictions: usize,
    // Internal accumulators.
    be_integral: f64,
    violation_time: f64,
    capping_events: usize,
    fault_time: f64,
    fault_violation_time: f64,
}

impl ServerMetrics {
    /// A fresh accumulator for a server with the given cap.
    pub fn new(power_cap: Watts) -> Self {
        ServerMetrics {
            duration_s: 0.0,
            energy: Joules::ZERO,
            peak_power: Watts::ZERO,
            power_cap,
            be_throughput_avg: 0.0,
            lc_violation_frac: 0.0,
            capping_frac: 0.0,
            samples: 0,
            time_to_recover_s: 0.0,
            slo_violation_frac_during_fault: 0.0,
            evictions: 0,
            be_integral: 0.0,
            violation_time: 0.0,
            capping_events: 0,
            fault_time: 0.0,
            fault_violation_time: 0.0,
        }
    }

    /// Records one interval of `dt` seconds. `fault_active` marks
    /// intervals spent under an active fault (brownout window, crash
    /// downtime, telemetry dropout), feeding the
    /// [`ServerMetrics::slo_violation_frac_during_fault`] breakdown.
    pub fn record(
        &mut self,
        dt: f64,
        true_power: Watts,
        be_throughput: f64,
        lc_slack: f64,
        throttled: bool,
        fault_active: bool,
    ) {
        debug_assert!(dt > 0.0);
        self.duration_s += dt;
        self.energy += true_power.over_seconds(dt);
        self.peak_power = self.peak_power.max(true_power);
        self.be_integral += be_throughput * dt;
        if lc_slack < 0.0 {
            self.violation_time += dt;
        }
        if throttled {
            self.capping_events += 1;
        }
        if fault_active {
            self.fault_time += dt;
            if lc_slack < 0.0 {
                self.fault_violation_time += dt;
            }
        }
        self.samples += 1;
        self.refresh_derived();
    }

    /// Records a best-effort eviction.
    pub fn record_eviction(&mut self) {
        self.evictions += 1;
    }

    /// Records a completed fault recovery that took `seconds` from the
    /// fault clearing to the first healthy tick; the reported
    /// [`ServerMetrics::time_to_recover_s`] is the worst such episode.
    pub fn record_recovery(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.time_to_recover_s = self.time_to_recover_s.max(seconds);
    }

    fn refresh_derived(&mut self) {
        // Keep derived fields current so serialization is always valid.
        self.be_throughput_avg = self.be_integral / self.duration_s;
        self.lc_violation_frac = self.violation_time / self.duration_s;
        self.capping_frac = self.capping_events as f64 / self.samples as f64;
        self.slo_violation_frac_during_fault = if self.fault_time > 0.0 {
            self.fault_violation_time / self.fault_time
        } else {
            0.0
        };
    }

    /// Time spent under an active fault, seconds.
    pub fn fault_time_s(&self) -> f64 {
        self.fault_time
    }

    /// Time-average server power.
    pub fn avg_power(&self) -> Watts {
        if self.duration_s > 0.0 {
            Watts(self.energy.0 / self.duration_s)
        } else {
            Watts::ZERO
        }
    }

    /// Average power as a fraction of the provisioned cap (Fig. 13).
    pub fn power_utilization(&self) -> f64 {
        if self.power_cap > Watts::ZERO {
            self.avg_power() / self.power_cap
        } else {
            0.0
        }
    }
}

/// Cluster-level aggregation across servers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Mean of per-server BE throughput averages.
    pub avg_be_throughput: f64,
    /// Mean of per-server power utilizations.
    pub avg_power_utilization: f64,
    /// Total cluster energy.
    pub total_energy: Joules,
    /// Energy per unit of aggregate BE throughput (the paper's energy
    /// metric improves more than raw power because throughput rises too).
    pub energy_per_throughput: f64,
    /// Worst per-server SLO violation fraction.
    pub worst_violation_frac: f64,
    /// Mean capping fraction.
    pub avg_capping_frac: f64,
    /// Worst per-server fault recovery time, seconds.
    pub time_to_recover_s: f64,
    /// Worst per-server SLO violation fraction during fault-active time.
    pub slo_violation_frac_during_fault: f64,
    /// Total best-effort evictions across the cluster.
    pub evictions: usize,
}

impl ClusterSummary {
    /// Aggregates per-server metrics. Returns `None` for an empty slice.
    pub fn aggregate(servers: &[ServerMetrics]) -> Option<ClusterSummary> {
        if servers.is_empty() {
            return None;
        }
        let n = servers.len() as f64;
        let avg_be_throughput = servers.iter().map(|s| s.be_throughput_avg).sum::<f64>() / n;
        let avg_power_utilization = servers.iter().map(|s| s.power_utilization()).sum::<f64>() / n;
        let total_energy: Joules = servers.iter().map(|s| s.energy).sum();
        let total_thpt: f64 = servers.iter().map(|s| s.be_throughput_avg).sum();
        let energy_per_throughput = if total_thpt > 0.0 {
            total_energy.0 / total_thpt
        } else {
            f64::INFINITY
        };
        let worst_violation_frac = servers
            .iter()
            .map(|s| s.lc_violation_frac)
            .fold(0.0, f64::max);
        let avg_capping_frac = servers.iter().map(|s| s.capping_frac).sum::<f64>() / n;
        let time_to_recover_s = servers
            .iter()
            .map(|s| s.time_to_recover_s)
            .fold(0.0, f64::max);
        let slo_violation_frac_during_fault = servers
            .iter()
            .map(|s| s.slo_violation_frac_during_fault)
            .fold(0.0, f64::max);
        let evictions = servers.iter().map(|s| s.evictions).sum();
        Some(ClusterSummary {
            avg_be_throughput,
            avg_power_utilization,
            total_energy,
            energy_per_throughput,
            worst_violation_frac,
            avg_capping_frac,
            time_to_recover_s,
            slo_violation_frac_during_fault,
            evictions,
        })
    }
}

pocolo_json::impl_json!(ServerMetrics {
    duration_s,
    energy,
    peak_power,
    power_cap,
    be_throughput_avg,
    lc_violation_frac,
    capping_frac,
    samples,
    time_to_recover_s,
    slo_violation_frac_during_fault,
    evictions,
    be_integral,
    violation_time,
    capping_events,
    fault_time,
    fault_violation_time,
});

// ∞ (no BE throughput at all) is written as null.
pocolo_json::impl_to_json!(ClusterSummary {
    avg_be_throughput,
    avg_power_utilization,
    total_energy,
    energy_per_throughput,
    worst_violation_frac,
    avg_capping_frac,
    time_to_recover_s,
    slo_violation_frac_during_fault,
    evictions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = ServerMetrics::new(Watts(100.0));
        m.record(1.0, Watts(80.0), 0.5, 0.2, false, false);
        m.record(1.0, Watts(90.0), 0.7, -0.1, true, false);
        assert_eq!(m.duration_s, 2.0);
        assert_eq!(m.energy, Joules(170.0));
        assert_eq!(m.peak_power, Watts(90.0));
        assert!((m.avg_power().0 - 85.0).abs() < 1e-9);
        assert!((m.power_utilization() - 0.85).abs() < 1e-9);
        assert!((m.be_throughput_avg - 0.6).abs() < 1e-9);
        assert!((m.lc_violation_frac - 0.5).abs() < 1e-9);
        assert!((m.capping_frac - 0.5).abs() < 1e-9);
        assert_eq!(m.slo_violation_frac_during_fault, 0.0);
    }

    #[test]
    fn fault_windows_get_their_own_violation_frac() {
        let mut m = ServerMetrics::new(Watts(100.0));
        m.record(1.0, Watts(80.0), 0.5, -0.1, false, false); // healthy-time violation
        m.record(1.0, Watts(80.0), 0.5, -0.2, true, true); // fault + violation
        m.record(1.0, Watts(80.0), 0.5, 0.3, false, true); // fault, SLO met
        assert!((m.lc_violation_frac - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.slo_violation_frac_during_fault - 0.5).abs() < 1e-9);
        assert!((m.fault_time_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_keeps_the_worst_episode() {
        let mut m = ServerMetrics::new(Watts(100.0));
        m.record_recovery(2.5);
        m.record_recovery(1.0);
        assert_eq!(m.time_to_recover_s, 2.5);
        m.record_eviction();
        m.record_eviction();
        assert_eq!(m.evictions, 2);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = ServerMetrics::new(Watts(100.0));
        assert_eq!(m.avg_power(), Watts::ZERO);
        assert_eq!(m.power_utilization(), 0.0);
        assert_eq!(m.time_to_recover_s, 0.0);
        assert_eq!(m.evictions, 0);
    }

    #[test]
    fn aggregate_cluster() {
        let mut a = ServerMetrics::new(Watts(100.0));
        a.record(10.0, Watts(90.0), 0.8, 0.2, false, false);
        a.record_recovery(3.0);
        a.record_eviction();
        let mut b = ServerMetrics::new(Watts(200.0));
        b.record(10.0, Watts(100.0), 0.4, -0.2, true, true);
        b.record_recovery(7.0);
        let c = ClusterSummary::aggregate(&[a, b]).unwrap();
        assert!((c.avg_be_throughput - 0.6).abs() < 1e-9);
        assert!((c.avg_power_utilization - (0.9 + 0.5) / 2.0).abs() < 1e-9);
        assert_eq!(c.total_energy, Joules(1900.0));
        assert!((c.energy_per_throughput - 1900.0 / 1.2).abs() < 1e-9);
        assert!((c.worst_violation_frac - 1.0).abs() < 1e-9);
        assert!((c.avg_capping_frac - 0.5).abs() < 1e-9);
        assert_eq!(c.time_to_recover_s, 7.0);
        assert!((c.slo_violation_frac_during_fault - 1.0).abs() < 1e-9);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn aggregate_empty_is_none() {
        assert!(ClusterSummary::aggregate(&[]).is_none());
    }

    #[test]
    fn zero_throughput_energy_is_infinite() {
        let mut a = ServerMetrics::new(Watts(100.0));
        a.record(1.0, Watts(50.0), 0.0, 0.5, false, false);
        let c = ClusterSummary::aggregate(&[a]).unwrap();
        assert!(c.energy_per_throughput.is_infinite());
    }

    #[test]
    fn json_roundtrip_preserves_fault_fields() {
        use pocolo_json::{FromJson, ToJson};
        let mut m = ServerMetrics::new(Watts(150.0));
        m.record(0.1, Watts(120.0), 0.4, -0.05, true, true);
        m.record(0.1, Watts(131.5), 0.55, 0.2, false, false);
        m.record_eviction();
        m.record_recovery(4.5);
        let back = ServerMetrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // The encoding, pinned byte for byte.
        assert_eq!(
            m.to_json().to_compact_string(),
            r#"{"duration_s":0.2,"energy":25.15,"peak_power":131.5,"power_cap":150,"be_throughput_avg":0.47500000000000003,"lc_violation_frac":0.5,"capping_frac":0.5,"samples":2,"time_to_recover_s":4.5,"slo_violation_frac_during_fault":1,"evictions":1,"be_integral":0.09500000000000001,"violation_time":0.1,"capping_events":1,"fault_time":0.1,"fault_violation_time":0.1}"#
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tick() -> impl Strategy<Value = (f64, f64, f64, f64, bool, bool)> {
        (
            0.01f64..2.0,  // dt
            0.0f64..500.0, // power
            0.0f64..1.0,   // be throughput
            -1.0f64..1.0,  // slack
            any::<bool>(),
            any::<bool>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Energy is monotone in recorded ticks and every derived
        /// fraction stays inside [0, 1].
        #[test]
        fn energy_monotone_and_fractions_bounded(
            ticks in proptest::collection::vec(arb_tick(), 1..60),
        ) {
            let mut m = ServerMetrics::new(Watts(200.0));
            let mut last_energy = 0.0f64;
            for (dt, p, th, sl, cap, fa) in ticks {
                m.record(dt, Watts(p), th, sl, cap, fa);
                prop_assert!(m.energy.0 >= last_energy, "energy regressed");
                last_energy = m.energy.0;
                for (name, frac) in [
                    ("lc_violation_frac", m.lc_violation_frac),
                    ("capping_frac", m.capping_frac),
                    ("be_throughput_avg", m.be_throughput_avg),
                    ("fault violation frac", m.slo_violation_frac_during_fault),
                ] {
                    prop_assert!((0.0..=1.0).contains(&frac), "{name} = {frac} out of [0,1]");
                }
            }
        }
    }
}
