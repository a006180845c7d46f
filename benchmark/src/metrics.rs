//! The registry: every workload and metric the benchmark knows, with
//! unit, direction and bound. `BENCHMARK.json` is generated from these
//! tables (`pocolo-benchmark manifest`), so the contract file and the
//! code cannot drift.

use pocolo_json::{json, Value};

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// Why it was chosen and what it bypasses.
    pub why: &'static str,
}

/// A gated metric every workload reports from its untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// An ungated metric of one layer, reported from the traced run. A
/// workload that does not exercise the layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.what` (bare names are workload-specific
    /// spellings of the end-to-end metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Seed-determined: must be bit-equal between two runs at one seed.
    pub exact: bool,
}

/// The five workloads, in `run-all` order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "sim-sweep",
        why: "the paper's evaluation pipeline: policy x load-level sweeps with rotating fault scenarios; sim, manager and simserver do the work, net and fleet-scale cluster none",
    },
    WorkloadDef {
        name: "traffic-loop",
        why: "the in-product closed loop run_traffic under flashcrowd + surge with online refit; request generation dominates, the 4x4 replans are negligible",
    },
    WorkloadDef {
        name: "fleet-replan",
        why: "ClusterManager at fleet scale: single-column repairs (fault, restore, refit) interleaved with fleet-wide brownout re-plans; only cluster works, in two different ways",
    },
    WorkloadDef {
        name: "wire-heartbeat",
        why: "reactor Clusterd over loopback: 1000 registered agents held idle, one closed-loop heartbeat in flight; only net and json work",
    },
    WorkloadDef {
        name: "control-path",
        why: "one control tick through every layer in order (queue, refit, replan, wire, actuate) against a standing 10000x500 plan; shows whether a layer win reaches the operator's number",
    },
];

/// Gated metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Ungated metrics. The first block spells the end-to-end numbers in each
/// workload's own terms; the rest are per layer.
pub const PER_LAYER: [PerLayer; 75] = [
    // The operator's numbers, by workload.
    rate("sim_server_s_per_s", "1/s"),
    exact("be_throughput", "ratio", Better::Higher),
    exact("slo_violation_frac", "ratio", Better::Lower),
    rate("sim_requests_per_s", "1/s"),
    timing("repair_ms_p50", "ms"),
    timing("repair_ms_p95", "ms"),
    timing("brownout_replan_ms_p50", "ms"),
    exact("migrations_per_repair", "count", Better::Lower),
    rate("connects_per_s", "1/s"),
    rate("heartbeats_per_s", "1/s"),
    timing("heartbeat_rtt_us_p50", "us"),
    timing("tick_ms_p50", "ms"),
    timing("tick_ms_p90", "ms"),
    // pocolo-traffic
    timing("traffic.generate_ms_p50", "ms"),
    timing("traffic.digest_ms_p50", "ms"),
    timing("traffic.slot_counts_ms_p50", "ms"),
    timing("traffic.gen_share", "ratio"),
    rate("traffic.shard_speedup", "ratio"),
    exact("traffic.requests", "count", Better::Higher),
    // pocolo-workloads
    timing("workloads.queue_step_ms_p50", "ms"),
    exact("workloads.queue_arrivals", "count", Better::Higher),
    // pocolo-core
    timing("core.online_fit_ms_p50", "ms"),
    exact("core.refits", "count", Better::Lower),
    exact("core.refits_adopted", "count", Better::Higher),
    exact("core.fit_useful_ratio", "ratio", Better::Higher),
    timing("core.fit_cluster_ms", "ms"),
    // pocolo-cluster: set-up
    timing("cluster.matrix_build_ms", "ms"),
    timing("cluster.cold_plan_ms", "ms"),
    timing("cluster.cold_plan_10k_ms", "ms"),
    // pocolo-cluster: repairs and re-plans
    timing("cluster.repair_fault_ms_p50", "ms"),
    timing("cluster.repair_restore_ms_p50", "ms"),
    timing("cluster.repair_refit_ms_p50", "ms"),
    timing("cluster.replan_10k_ms_p50", "ms"),
    exact("cluster.replans", "count", Better::Lower),
    // pocolo-cluster: decomposition probes on cloned state
    timing("cluster.rebuild_columns_ms_p50", "ms"),
    timing("cluster.matrix_patch_ms_p50", "ms"),
    timing("cluster.cands_clone_ms_p50", "ms"),
    timing("cluster.auction_incremental_ms_p50", "ms"),
    timing("cluster.migration_diff_ms_p50", "ms"),
    timing("cluster.brownout_rebuild_ms", "ms"),
    timing("cluster.brownout_solve_ms", "ms"),
    // pocolo-cluster: exact work counts
    exact("cluster.auction_bids", "count", Better::Lower),
    exact("cluster.auction_bid_edges", "count", Better::Lower),
    exact("cluster.auction_cert_edges", "count", Better::Lower),
    exact("cluster.auction_phases", "count", Better::Lower),
    exact("cluster.auction_widen_rounds", "count", Better::Lower),
    exact("cluster.dirty_rows", "count", Better::Lower),
    exact("cluster.certified_ratio", "ratio", Better::Higher),
    exact("cluster.plan_value", "ratio", Better::Higher),
    exact("cluster.migrations_total", "count", Better::Lower),
    // pocolo-net
    timing("net.register_us_p50", "us"),
    exact("net.welcome_bytes", "count", Better::Lower),
    timing("net.rtt_us_p99", "us"),
    timing("net.rtt_us_p999", "us"),
    timing("net.rtt_us_p50_small_fleet", "us"),
    timing("net.client_wait_frac", "ratio"),
    exact("net.telemetry_frame_bytes", "count", Better::Lower),
    exact("net.ack_frame_bytes", "count", Better::Lower),
    timing("net.wire_round_ms_p50", "ms"),
    // pocolo-json
    timing("json.encode_us_p50", "us"),
    timing("json.decode_us_p50", "us"),
    // pocolo-manager
    timing("manager.epoch_us_p50", "us"),
    timing("manager.capper_tick_us_p50", "us"),
    timing("manager.actuate_ms_p50", "ms"),
    // pocolo-sim, pocolo-faults, the 4x4 placement
    timing("sim.sweep_ms_p50", "ms"),
    exact("sim.cells", "count", Better::Higher),
    timing("sim.serial_sweep_ms_p50", "ms"),
    rate("sim.parallel_speedup", "ratio"),
    timing("faults.compile_plan_us_p50", "us"),
    timing("cluster.place_lp_us_p50", "us"),
    // The tick's own bookkeeping: span minus child spans.
    timing("control.tick_self_ms_p50", "ms"),
    // Process and tracer
    timing("proc.cpu_s", "s"),
    rate("proc.cpu_util", "ratio"),
    timing("trace.overhead_frac", "ratio"),
    exact("ops_per_round", "count", Better::Higher),
];

/// Looks up a gated metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks up an ungated metric.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    let mut out = json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
    .to_pretty_string();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }
}
