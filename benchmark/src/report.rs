//! Result files and the tables printed from them.
//!
//! A *run line* is the one-object contract the driver reads from the last
//! line of standard output. A *workload report* is the full record of one
//! workload (`run-all` writes a list of them under one stamp); `compare`
//! reads two such files.

use pocolo_json::{json, Value};

use crate::metrics::{end_to_end, per_layer, Better, END_TO_END, PER_LAYER};
use crate::run::{Metric, Outcome};

/// The driver's contract: `correct`, `attempted`, `failed`, and either
/// every end-to-end metric (untraced) or every per-layer metric (traced;
/// 0 for a layer the workload does not exercise).
pub fn run_line(outcome: &Outcome, traced: bool) -> String {
    let (registered, reported): (Vec<(&str, &str)>, &[Metric]) = if traced {
        let defs = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        (defs, &outcome.per_layer)
    } else {
        let defs = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        (defs, &outcome.end_to_end)
    };
    let metrics = registered
        .into_iter()
        .map(|(name, unit)| {
            let value = reported
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (name.to_string(), json!({ "value": value, "unit": unit }))
        })
        .collect();
    json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics)
    })
    .to_compact_string()
}

fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or("?")
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({ "value": m.value, "unit": unit_of(m.name), "samples": m.samples }),
                )
            })
            .collect(),
    )
}

/// The full record of one workload run.
pub fn workload_report(outcome: &Outcome) -> Value {
    json!({
        "name": outcome.workload,
        "correct": outcome.failed == 0,
        "ops_attempted": outcome.attempted,
        "ops_failed": outcome.failed,
        "failures": outcome.failures,
        "result_digest": format!("{:016x}", outcome.digest),
        "end_to_end": metrics_json(&outcome.end_to_end),
        "per_layer": metrics_json(&outcome.per_layer)
    })
}

/// Every metric of a run by name, with unit and sample count.
pub fn table(outcome: &Outcome) -> String {
    let mut out = format!(
        "{}: ops_attempted {} ops_failed {} result_digest {:016x}\n",
        outcome.workload, outcome.attempted, outcome.failed, outcome.digest
    );
    for failure in &outcome.failures {
        out.push_str(&format!("  FAILED {failure}\n"));
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        out.push_str(&format!(
            "  {:<36} {:>18.6} {:<6} n={}\n",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        ));
    }
    out
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// What a comparison row concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Gated metric within its bound (worsening as a share of `a`).
    Within(f64),
    /// Gated metric worse than its bound allows.
    Regressed(f64),
    /// Exact metric, bit-equal.
    Equal,
    /// Exact metric that moved.
    Moved,
    /// Ungated timing, shown for the reader (worsening as a share of `a`).
    Info(f64),
}

impl Verdict {
    /// Whether this row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed(_) | Verdict::Moved)
    }
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compares two `run-all` files: each gated metric against its bound,
/// each exact metric for bit-equality (only when both files ran the same
/// seed at the same scale — otherwise exact values differ by design).
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Delta>, String> {
    let same_inputs = ["seed", "smoke"]
        .iter()
        .all(|key| a["stamp"][*key] == b["stamp"][*key]);
    let workloads = |v: &Value| {
        v["workloads"]
            .as_array()
            .cloned()
            .ok_or_else(|| "no `workloads` list: not a run-all file".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for base in &wa {
        let name = base["name"].as_str().unwrap_or("?");
        let Some(cand) = wb.iter().find(|w| w["name"] == base["name"]) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let failed = cand["ops_failed"].as_f64().unwrap_or(f64::NAN);
        rows.push(Delta {
            workload: name.to_string(),
            metric: "ops_failed".to_string(),
            a: base["ops_failed"].as_f64().unwrap_or(f64::NAN),
            b: failed,
            verdict: if failed == 0.0 {
                Verdict::Equal
            } else {
                Verdict::Moved
            },
        });
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = base[section].as_object() else {
                continue;
            };
            for (metric, entry) in metrics {
                let (Some(va), Some(vb)) = (
                    entry["value"].as_f64(),
                    cand[section][metric.as_str()]["value"].as_f64(),
                ) else {
                    return Err(format!("{name}: {metric} is missing from the second file"));
                };
                let verdict = if let Some(def) = end_to_end(metric) {
                    let worse = worsening(va, vb, def.better);
                    if worse > def.bound {
                        Verdict::Regressed(worse)
                    } else {
                        Verdict::Within(worse)
                    }
                } else {
                    let Some(def) = per_layer(metric) else {
                        return Err(format!("{metric} is not in the registry"));
                    };
                    match (def.exact, same_inputs) {
                        (true, true) if va.to_bits() == vb.to_bits() => Verdict::Equal,
                        (true, true) => Verdict::Moved,
                        _ => Verdict::Info(worsening(va, vb, def.better)),
                    }
                };
                rows.push(Delta {
                    workload: name.to_string(),
                    metric: metric.clone(),
                    a: va,
                    b: vb,
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// The comparison as a table, failing rows marked.
pub fn compare_table(rows: &[Delta]) -> String {
    let mut out = format!(
        "{:<16} {:<36} {:>16} {:>16}  verdict\n",
        "workload", "metric", "a", "b"
    );
    for row in rows {
        let verdict = match row.verdict {
            Verdict::Within(w) => format!("ok {:+.1}% worse", w * 100.0),
            Verdict::Regressed(w) => format!("REGRESSED {:+.1}% worse", w * 100.0),
            Verdict::Equal => "ok exact".to_string(),
            Verdict::Moved => "MOVED (must be exact)".to_string(),
            Verdict::Info(w) => format!("   {:+.1}% worse (not gated)", w * 100.0),
        };
        out.push_str(&format!(
            "{:<16} {:<36} {:>16.6} {:>16.6}  {verdict}\n",
            row.workload, row.metric, row.a, row.b
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(seed: u64, op_ms: f64, bids: f64) -> Value {
        json!({
            "stamp": json!({ "seed": seed, "smoke": true }),
            "workloads": vec![json!({
                "name": "fleet-replan",
                "ops_failed": 0,
                "end_to_end": json!({ "op_ms_p50": json!({ "value": op_ms }) }),
                "per_layer": json!({
                    "cluster.auction_bids": json!({ "value": bids }),
                    "repair_ms_p50": json!({ "value": op_ms })
                })
            })]
        })
    }

    fn verdict_of(rows: &[Delta], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("metric compared")
            .verdict
    }

    #[test]
    fn gated_metrics_fail_only_beyond_their_bound() {
        let bound = end_to_end("op_ms_p50").expect("registered").bound;
        let within = file(1, 10.0 * (1.0 + bound / 2.0), 5.0);
        let rows = compare(&file(1, 10.0, 5.0), &within).expect("comparable");
        assert!(matches!(verdict_of(&rows, "op_ms_p50"), Verdict::Within(_)));
        assert!(rows.iter().all(|r| !r.verdict.fails()));
        let beyond = file(1, 10.0 * (1.0 + 2.0 * bound), 5.0);
        let rows = compare(&file(1, 10.0, 5.0), &beyond).expect("comparable");
        assert!(matches!(
            verdict_of(&rows, "op_ms_p50"),
            Verdict::Regressed(_)
        ));
        // The same timing under its ungated name is information only.
        assert!(matches!(
            verdict_of(&rows, "repair_ms_p50"),
            Verdict::Info(_)
        ));
    }

    #[test]
    fn exact_metrics_must_be_bit_equal_at_one_seed_only() {
        let rows = compare(&file(1, 10.0, 5.0), &file(1, 10.0, 6.0)).expect("comparable");
        assert_eq!(verdict_of(&rows, "cluster.auction_bids"), Verdict::Moved);
        let rows = compare(&file(1, 10.0, 5.0), &file(2, 10.0, 6.0)).expect("comparable");
        assert!(matches!(
            verdict_of(&rows, "cluster.auction_bids"),
            Verdict::Info(_)
        ));
    }
}
