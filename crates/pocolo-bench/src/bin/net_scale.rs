//! Reactor scale driver: one clusterd event loop versus a swarm fleet.
//!
//! - `--smoke`: the CI gate — a small fleet end-to-end with the
//!   bit-exact parity contract, timing-independent.
//! - default: sweeps 500/2000/5000 agents, then writes `BENCH_net.json`
//!   (connections/s accepted, heartbeat RTT p50/p99, broadcast fan-out
//!   latency at a 1 s heartbeat cadence).

use pocolo_bench::net_scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        net_scale::smoke();
        return;
    }
    let report = net_scale::run_standard();
    let path = "BENCH_net.json";
    std::fs::write(path, pocolo_json::to_string_pretty(&report))
        .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("wrote {path} ({} rows)", report.rows.len());
}
