//! Result formats and `--compare`.
//!
//! A workload run prints one `workload metric value unit` line per
//! number, then the result as one JSON object on the last line. `--json`
//! writes a [`RunFile`]; `--compare` reads several of them per side and
//! judges every bounded metric with the bounds in `BENCHMARK.json`.

use crate::stats::{quartiles, verdict, Verdict};
use crate::workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// The file `--compare` takes its bounds from, relative to the
/// repository root the benchmark runs from.
const BENCHMARK_FILE: &str = "BENCHMARK.json";

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV digest of the verification set's simulated fields; empty for
    /// traced runs.
    pub sim_digest: String,
    pub metrics: Vec<Metric>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct RunFile {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub results: Vec<WorkloadResult>,
}

impl WorkloadResult {
    /// The human-readable lines: every metric, then the counts and the
    /// digest, each as `workload name value unit`.
    pub fn lines(&self) -> Vec<String> {
        let w = &self.workload;
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{w} {} {} {}", m.name, m.value, m.unit))
            .collect();
        out.push(format!("{w} attempted {} count", self.attempted));
        out.push(format!("{w} failed {} count", self.failed));
        if !self.sim_digest.is_empty() {
            out.push(format!("{w} sim_digest {} fnv", self.sim_digest));
        }
        out
    }

    /// Rebuilds a result from [`WorkloadResult::lines`] output (how the
    /// all-workloads mode reads its children).
    pub fn from_lines(workload: &str, stdout: &str, correct: bool) -> WorkloadResult {
        let mut r = WorkloadResult {
            workload: workload.to_string(),
            correct,
            attempted: 0,
            failed: 0,
            sim_digest: String::new(),
            metrics: Vec::new(),
        };
        for line in stdout.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, name, value, unit] = f[..] else {
                continue;
            };
            if w != workload {
                continue;
            }
            match name {
                "attempted" => r.attempted = value.parse().unwrap_or(0),
                "failed" => r.failed = value.parse().unwrap_or(0),
                "sim_digest" => r.sim_digest = value.to_string(),
                _ => {
                    if let Ok(value) = value.parse() {
                        r.metrics.push(Metric {
                            name: name.to_string(),
                            value,
                            unit: unit.to_string(),
                        });
                    }
                }
            }
        }
        r
    }

    /// The result object printed as a run's last line. It carries only
    /// the `contract` metrics (the ones `BENCHMARK.json` declares); the
    /// informational extras stay in the text lines.
    pub fn json_line(&self, contract: &[(&str, &str)]) -> String {
        #[derive(Serialize)]
        struct Value {
            value: f64,
            unit: String,
        }
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: HashMap<String, Value>,
        }
        serde_json::to_string(&Line {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .iter()
                .filter(|m| contract.iter().any(|&(name, _)| name == m.name))
                .map(|m| {
                    (
                        m.name.clone(),
                        Value {
                            value: m.value,
                            unit: m.unit.clone(),
                        },
                    )
                })
                .collect(),
        })
        .expect("results encode")
    }
}

pub fn write_file(path: &str, file: &RunFile) -> Result<(), String> {
    let text = serde_json::to_string_pretty(file).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))
}

fn read_file(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Deserialize)]
struct Bound {
    name: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct BenchmarkFile {
    end_to_end: Vec<Bound>,
}

fn label(v: Verdict) -> &'static str {
    match v {
        Verdict::Better => "better",
        Verdict::Same => "same",
        Verdict::Worse => "worse",
        Verdict::Unresolved => "unresolved",
    }
}

/// `--compare A… -- B…`: for every bounded metric and workload, each
/// side's median and quartiles and a verdict; then each workload's
/// failure share, and whether runs on one seed agree on `sim_digest`.
/// Returns false if anything got worse.
pub fn compare(a_paths: &[String], b_paths: &[String]) -> Result<bool, String> {
    let text = std::fs::read_to_string(BENCHMARK_FILE)
        .map_err(|e| format!("read {BENCHMARK_FILE}: {e}"))?;
    let bench: BenchmarkFile =
        serde_json::from_str(&text).map_err(|e| format!("{BENCHMARK_FILE}: {e}"))?;
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| read_file(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let results = |side: &[RunFile], w: &str| -> Vec<(u64, WorkloadResult)> {
        side.iter()
            .flat_map(|f| {
                f.results
                    .iter()
                    .filter(|r| r.workload == w)
                    .map(|r| (f.seed, r.clone()))
            })
            .collect()
    };
    let values = |rs: &[(u64, WorkloadResult)], metric: &str| -> Vec<f64> {
        rs.iter()
            .flat_map(|(_, r)| {
                r.metrics
                    .iter()
                    .filter(|m| m.name == metric)
                    .map(|m| m.value)
            })
            .collect()
    };
    let fmt = |v: &[f64]| {
        let [q1, med, q3] = quartiles(v);
        format!("{med:>11.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    };

    let mut ok = true;
    println!(
        "{:<15} {:<16} {:<40} {:<40} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for w in Workload::ALL.map(Workload::name) {
        let (ra, rb) = (results(&a, w), results(&b, w));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        for m in &bench.end_to_end {
            let (va, vb) = (values(&ra, &m.name), values(&rb, &m.name));
            let v = verdict(&va, &vb, m.better == "lower", m.bound);
            ok &= v != Verdict::Worse;
            println!(
                "{w:<15} {:<16} {:<40} {:<40} {}",
                m.name,
                fmt(&va),
                fmt(&vb),
                label(v)
            );
        }
        let share = |rs: &[(u64, WorkloadResult)]| {
            let (failed, attempted) = rs
                .iter()
                .fold((0, 0), |(f, n), (_, r)| (f + r.failed, n + r.attempted));
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (share(&ra), share(&rb));
        let failures = if fb > fa { "worse" } else { "same" };
        ok &= fb <= fa;
        println!(
            "{w:<15} {:<16} {fa:<40} {fb:<40} {failures}",
            "failure_share"
        );
        let mut digests: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (seed, r) in ra.iter().chain(&rb) {
            if !r.sim_digest.is_empty() {
                digests.entry(*seed).or_default().push(&r.sim_digest);
            }
        }
        for (seed, ds) in digests {
            let same = ds.iter().all(|d| *d == ds[0]);
            ok &= same;
            let verdict = if same { "identical" } else { "DIFFERS" };
            println!(
                "{w:<15} sim_digest       seed {seed}: {} runs {verdict}",
                ds.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_and_json_line_carries_the_contract() {
        let r = WorkloadResult {
            workload: "cold-compile".into(),
            correct: true,
            attempted: 42,
            failed: 0,
            sim_digest: "00ff".into(),
            metrics: vec![
                Metric {
                    name: "latency_p50_ms".into(),
                    value: 1.25,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.5,
                    unit: "s".into(),
                },
            ],
        };
        let back = WorkloadResult::from_lines("cold-compile", &r.lines().join("\n"), true);
        assert_eq!(
            (back.attempted, back.failed, back.sim_digest.as_str()),
            (42, 0, "00ff")
        );
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[0].value, 1.25);
        let line = r.json_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":42,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
