//! The smoke scale: every workload, every check, in seconds.

use pocolo_benchmark::metrics::{manifest, END_TO_END, PER_LAYER, WORKLOADS};
use pocolo_benchmark::report::run_line;
use pocolo_benchmark::run::{Options, Outcome};
use pocolo_benchmark::workloads::run_named;

fn smoke(name: &str, seed: u64) -> Outcome {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace: true,
        smoke: true,
    };
    run_named(name, &opts).expect("registered workload")
}

/// The seed-determined part of a run: counts and every exact metric.
fn exact_part(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    let mut part = vec![
        ("ops_attempted", outcome.attempted),
        ("ops_failed", outcome.failed),
        ("result_digest", outcome.digest),
    ];
    part.extend(
        outcome
            .per_layer
            .iter()
            .filter(|m| PER_LAYER.iter().any(|def| def.name == m.name && def.exact))
            .map(|m| (m.name, m.value.to_bits())),
    );
    part
}

#[test]
fn every_workload_passes_its_checks_and_repeats_exactly() {
    let mut reported: Vec<&str> = Vec::new();
    for def in &WORKLOADS {
        let first = smoke(def.name, 1);
        assert_eq!(first.failed, 0, "{}: {:?}", def.name, first.failures);
        assert!(first.attempted > 0);
        // Same seed: identical counts, digest and exact metrics.
        assert_eq!(
            exact_part(&first),
            exact_part(&smoke(def.name, 1)),
            "{}",
            def.name
        );
        // Another seed: other generated inputs, so other outputs.
        let other = smoke(def.name, 2);
        assert_eq!(other.failed, 0, "{}: {:?}", def.name, other.failures);
        assert_ne!(first.digest, other.digest, "{}", def.name);

        for m in &first.end_to_end {
            assert!(
                m.value > 0.0 || m.name == "cpu_ms_per_op",
                "{} {m:?}",
                def.name
            );
        }
        let names: Vec<&str> = first.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{}", def.name);
        for m in &first.per_layer {
            assert!(
                PER_LAYER.iter().any(|known| known.name == m.name),
                "{} reports {} which the registry does not know",
                def.name,
                m.name
            );
            assert!(m.value.is_finite(), "{} {m:?}", def.name);
            reported.push(m.name);
        }
    }
    for def in &PER_LAYER {
        assert!(
            reported.contains(&def.name),
            "no workload reports {}",
            def.name
        );
    }
}

#[test]
fn run_lines_carry_exactly_the_contract_keys() {
    let outcome = smoke("fleet-replan", 3);
    for (traced, expected) in [
        (false, END_TO_END.map(|m| m.name).to_vec()),
        (true, PER_LAYER.map(|m| m.name).to_vec()),
    ] {
        let line = pocolo_json::from_str(&run_line(&outcome, traced)).expect("one JSON object");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics: Vec<&str> = line["metrics"]
            .as_object()
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, expected);
        assert_eq!(line["correct"].as_bool(), Some(true));
    }
}

#[test]
fn benchmark_json_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `pocolo-benchmark manifest > BENCHMARK.json`"
    );
}
