//! The wall-clock ledger: the benchmark of the Symphony reproduction.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ledger run   --seed <n> [--seconds <s>] [--smoke] [--out <file>]
//! ledger trace --seed <n> [--seconds <s>] [--smoke] [--out <file>]
//! ledger compare <a.json> <b.json>
//! ledger benchmark-json
//! ```
//!
//! The first form is one run of one workload; its last line of output
//! is the result object `BENCHMARK.json` promises. `run` and `trace`
//! do that for every workload, each in a child process, and print one
//! document; `compare` holds two such documents against the bounds.
//! See `benchmark/README.md`.

mod bench;
mod exec;
mod gen;
mod json;
mod metrics;
mod spans;
mod stats;
mod suite;
mod trace;
mod worlds;

use std::process::ExitCode;

use bench::{bench, BenchConfig};
use json::Json;
use worlds::{Scale, Workload};

/// Flags of one invocation: `--name value` pairs, bare `--smoke`, and
/// positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.flags.push((name.to_string(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn workload(&self, name: &str) -> Result<Option<Workload>, String> {
        self.get(name)
            .map(|v| Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}")))
            .transpose()
    }
}

fn run(raw: &[String]) -> Result<ExitCode, String> {
    let subcommand = raw.first().filter(|a| !a.starts_with("--")).cloned();
    let args = Args::parse(&raw[usize::from(subcommand.is_some())..])?;
    let seconds = args.parsed::<f64>("seconds")?;
    if seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    match subcommand.as_deref() {
        None => {
            let config = BenchConfig {
                workload: args.workload("workload")?.ok_or("--workload is required")?,
                seed: args.parsed("seed")?.ok_or("--seed is required")?,
                seconds: seconds.ok_or("--seconds is required")?,
                trace: match args.get("trace") {
                    Some("0") | None => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                },
                scale: if args.smoke {
                    Scale::Smoke
                } else {
                    Scale::Full
                },
            };
            let result = bench(&config)?;
            for (m, v) in &result.metrics {
                eprintln!("{:<34} {v:>16.4} {}", m.name, m.unit);
            }
            println!("{}{}", suite::DETAILS_PREFIX, result.details);
            println!("{}", result.result_line());
            Ok(ExitCode::SUCCESS)
        }
        Some(cmd @ ("run" | "trace")) => {
            let doc = suite::run_suite(
                args.parsed("seed")?.ok_or("--seed is required")?,
                seconds.unwrap_or(if args.smoke {
                    0.5
                } else {
                    metrics::RUN_SECONDS as f64
                }),
                cmd == "trace",
                args.smoke,
            )?;
            if let Some(path) = args.get("out") {
                std::fs::write(path, format!("{doc}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{doc}");
            let clean = doc
                .get("workloads")
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .all(|(_, w)| {
                    w.get("result").and_then(|r| r.get("correct")) == Some(&Json::Bool(true))
                });
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let read = |path: &String| -> Result<Json, String> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let rows = suite::compare(&read(a)?, &read(b)?)?;
            print!("{}", suite::render(&rows));
            Ok(if rows.iter().any(|r| r.breach) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("benchmark-json") => {
            println!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
