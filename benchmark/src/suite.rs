//! The whole ledger in one command (`run`, `trace`) and the comparison
//! of two of its documents (`compare`).

use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::worlds::Workload;

/// Prefix of the details line a `bench` child prints before its
/// result line.
pub const DETAILS_PREFIX: &str = "#details ";

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run every workload, each in a child process of its own (a clean
/// `peak_rss_mb`, no order effects), and gather one document.
pub fn run_suite(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        eprintln!(
            "ledger: {} ({}, {seconds} s)",
            w.name(),
            if trace { "traced" } else { "untraced" }
        );
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "the {} run failed ({}): {}",
                w.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let result = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("the {} run printed nothing", w.name()))
            .and_then(Json::parse)?;
        let details = stdout
            .lines()
            .find_map(|l| l.strip_prefix(DETAILS_PREFIX))
            .map(Json::parse)
            .transpose()?
            .unwrap_or(Json::Null);
        workloads.push((
            w.name(),
            Json::obj([("result", result), ("details", details)]),
        ));
    }
    Ok(Json::obj([
        ("ledger", Json::str(if trace { "trace" } else { "run" })),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(capture("rustc", &["-V"]))),
        ("commit", Json::str(capture("git", &["rev-parse", "HEAD"]))),
        ("workloads", Json::obj(workloads)),
    ]))
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Value in the first document.
    pub a: f64,
    /// Value in the second document.
    pub b: f64,
    /// Relative worsening of `b` against `a` (negative = better).
    pub worse_by: f64,
    /// The metric's bound (0 for `failed`).
    pub bound: f64,
    /// Whether `worse_by` exceeds the bound.
    pub breach: bool,
}

fn metric_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed(doc: &Json, workload: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("result")?
        .get("failed")?
        .as_f64()
}

/// Compare two `run` documents: per workload and end-to-end metric,
/// both values, how much worse the second is, and the bound.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .map(Json::members)
        .filter(|m| !m.is_empty())
        .ok_or("the first document holds no workloads")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(a, workload, m.name),
                metric_value(b, workload, m.name),
            ) else {
                return Err(format!("{workload}.{} is missing from a document", m.name));
            };
            let worse_by = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: va,
                b: vb,
                worse_by,
                bound,
                breach: worse_by > bound,
            });
        }
        let (Some(fa), Some(fb)) = (failed(a, workload), failed(b, workload)) else {
            return Err(format!("{workload}: a document lacks its failure count"));
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed",
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: 0.0,
            breach: fb > fa,
        });
    }
    Ok(rows)
}

/// Render comparison rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * if r.metric == "failed" { 1.0 } else { 100.0 },
            r.bound * 100.0,
            if r.breach { "  BREACH" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ops: f64, p50: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "web_cold",
                Json::obj([(
                    "result",
                    Json::obj([
                        ("failed", Json::Num(failed)),
                        (
                            "metrics",
                            Json::obj([
                                ("ops_per_s", metric(ops)),
                                ("p50_us", metric(p50)),
                                ("p99_us", metric(900.0)),
                                ("setup_s", metric(0.5)),
                                ("peak_rss_mb", metric(200.0)),
                            ]),
                        ),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn compare_flags_regressions_in_the_metrics_own_direction() {
        let base = doc(1000.0, 100.0, 0.0);
        // 5 % fewer ops and a 5 % slower median: inside both bounds.
        let rows = compare(&base, &doc(950.0, 105.0, 0.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        assert!(rows.iter().all(|r| !r.breach), "{}", render(&rows));
        // Faster is never a breach, however large.
        assert!(compare(&base, &doc(5000.0, 10.0, 0.0))
            .unwrap()
            .iter()
            .all(|r| !r.breach));
        // 30 % fewer ops breaches; so does one more failure.
        let rows = compare(&base, &doc(700.0, 100.0, 1.0)).unwrap();
        let breached: Vec<_> = rows.iter().filter(|r| r.breach).map(|r| r.metric).collect();
        assert_eq!(breached, ["ops_per_s", "failed"]);
        assert!(render(&rows).contains("BREACH"));
        assert!(compare(&base, &Json::obj([("workloads", Json::obj::<&str>([]))])).is_err());
    }
}
