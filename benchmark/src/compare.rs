//! `compare`: two sets of run records against the benchmark's own bounds.
//!
//! `aa.sh` runs the same commit twice and calls this: if two runs of the
//! same code disagree by more than a bound, that bound cannot tell a
//! regression from noise.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Value;
use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(record: &Value, section: &str, name: &str) -> Option<f64> {
    record.get(section)?.get(name)?.get("value")?.as_f64()
}

/// What one comparison found.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    /// The two values differ by more than the bound allows.
    Beyond(f64),
    /// A value that must repeat exactly did not.
    Inexact,
    Missing,
}

/// Compare one metric of two runs of the same code.  `bound` is the share
/// by which the metric may differ; exact metrics may not differ at all.
pub fn judge(a: Option<f64>, b: Option<f64>, bound: Option<f64>, def: &MetricDef) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Missing;
    };
    if def.exact {
        return if a.to_bits() == b.to_bits() {
            Verdict::Agree
        } else {
            Verdict::Inexact
        };
    }
    match bound {
        Some(bound) if (b / a - 1.0).abs() > bound => Verdict::Beyond(bound),
        _ => Verdict::Agree,
    }
}

pub fn run(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> ExitCode {
    match compare(dir_a, dir_b, benchmark_json) {
        Ok(0) => {
            println!("A/A: every metric agrees within its bound");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("A/A: {n} disagreement(s)");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("compare: {why}");
            ExitCode::from(2)
        }
    }
}

fn compare(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> Result<u32, String> {
    let contract = read(benchmark_json)?;
    let bound_of = |name: &str| -> Option<f64> {
        contract
            .get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let mut bad = 0u32;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for workload in NAMES {
        let a = read(&dir_a.join(format!("{workload}.json")))?;
        let b = read(&dir_b.join(format!("{workload}.json")))?;
        for side in [&a, &b] {
            if side.get("noisy").and_then(Value::as_bool) == Some(true) {
                println!("{workload:<16} (a run of this pair was flagged noisy: re-run it)");
            }
        }
        for def in &END_TO_END {
            let (va, vb) = (
                metric(&a, "end_to_end", def.name),
                metric(&b, "end_to_end", def.name),
            );
            bad += row(workload, def, va, vb, bound_of(def.name));
        }
        // A pass's operation count repeats exactly (the run's total does
        // not: it grows with the passes that fit).
        for name in ["ops_per_pass", "ops_failed"] {
            let count = MetricDef {
                name,
                unit: "count",
                better: "higher",
                exact: true,
            };
            let of = |r: &Value| r.get(name).and_then(Value::as_f64);
            bad += row(workload, &count, of(&a), of(&b), None);
        }

        // Traced records are optional; where both sets have one, the
        // exact counters of the ledger must match too.
        let layers = (
            read(&dir_a.join(format!("{workload}.layers.json"))),
            read(&dir_b.join(format!("{workload}.layers.json"))),
        );
        if let (Ok(la), Ok(lb)) = layers {
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                let (va, vb) = (
                    metric(&la, "per_layer", def.name),
                    metric(&lb, "per_layer", def.name),
                );
                bad += row(workload, def, va, vb, None);
            }
        }
    }
    Ok(bad)
}

/// Print one comparison; 1 if it disagrees.
fn row(workload: &str, def: &MetricDef, a: Option<f64>, b: Option<f64>, bound: Option<f64>) -> u32 {
    let verdict = judge(a, b, bound, def);
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let ratio = match (a, b) {
        (Some(a), Some(b)) if a != 0.0 => format!("{:.4}", b / a),
        _ => "-".to_string(),
    };
    let text = match &verdict {
        Verdict::Agree if def.exact => "identical".to_string(),
        Verdict::Agree => format!(
            "within {}",
            bound.map_or("-".to_string(), |b| b.to_string())
        ),
        Verdict::Beyond(bound) => format!("DISAGREE: beyond {bound}"),
        Verdict::Inexact => "DISAGREE: must be identical".to_string(),
        Verdict::Missing => "MISSING".to_string(),
    };
    println!(
        "{workload:<16} {:<28} {:>14} {:>14} {ratio:>8}  {text}",
        def.name,
        show(a),
        show(b)
    );
    u32::from(verdict != Verdict::Agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_agree_within_their_bound_in_either_direction() {
        let wall = END_TO_END[1];
        assert_eq!(
            judge(Some(1.0), Some(1.09), Some(0.10), &wall),
            Verdict::Agree
        );
        assert_eq!(
            judge(Some(1.0), Some(0.91), Some(0.10), &wall),
            Verdict::Agree
        );
        assert_eq!(
            judge(Some(1.0), Some(1.11), Some(0.10), &wall),
            Verdict::Beyond(0.10)
        );
        assert_eq!(
            judge(Some(1.0), Some(0.85), Some(0.10), &wall),
            Verdict::Beyond(0.10)
        );
        assert_eq!(judge(Some(1.0), None, Some(0.10), &wall), Verdict::Missing);
    }

    #[test]
    fn exact_metrics_may_not_differ_at_all() {
        let handoffs = *PER_LAYER
            .iter()
            .find(|d| d.name == "core.serve.handoffs")
            .unwrap();
        assert!(handoffs.exact);
        assert_eq!(
            judge(Some(4096.0), Some(4096.0), None, &handoffs),
            Verdict::Agree
        );
        assert_eq!(
            judge(Some(4096.0), Some(4097.0), None, &handoffs),
            Verdict::Inexact
        );
        let sim = END_TO_END[5];
        assert_eq!(sim.name, "sim_s");
        assert_eq!(
            judge(Some(0.1 + 0.2), Some(0.3), Some(0.25), &sim),
            Verdict::Inexact
        );
    }
}
