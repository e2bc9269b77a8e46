//! Paired comparison of the ledger at a base commit and at the working
//! tree, against the bounds `BENCHMARK.json` declares.
//!
//! ```text
//! ab --base <rev> --workload <name>[,<name>...] --seed <n> --pairs <n>
//!    [--label <text>] [--allow-checksum-move]
//! ```
//!
//! Run from inside the repository. Each run lasts the `run_seconds`
//! `BENCHMARK.json` sets, on both sides alike. The base's ledger is
//! built from `git archive <rev>` under `target/ab/`, the working
//! tree's in place with its own target directory there, so neither
//! build writes under `benchmark/`. Runs go in ABBA order (base first
//! in odd pairs, change first in even ones), so a drift of the host
//! over the session falls on both sides alike. A row records
//! `run_seconds` and the pair count beside `label`, `commit` and
//! `base_commit`. A pair whose two `output_checksum`s
//! differ stops the comparison unless `--allow-checksum-move` says the
//! change moves them; a run that reports `"correct": false` or any
//! failed operation always stops it.
//!
//! Per end-to-end metric it prints the median [Q1, Q3] of each side,
//! the pairs the change won and a verdict: `better` when, over at
//! least ten pairs, the change won at least nine in ten and its median
//! beats the base's by more than the base's interquartile range
//! (`too-few-pairs` when all of that holds over fewer pairs),
//! `unresolved` when the base's interquartile range exceeds the
//! metric's bound, `worse` when the median is worse by more than the
//! bound, `within` otherwise. When the working tree has no edits to
//! tracked files, so that `HEAD` names the measured code, it appends
//! one row per (workload, metric) to `BENCH_trajectory.jsonl` at the
//! repository root.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use symphony_store::formats::json::{parse, to_string, JsonValue};

/// Fewest pairs over which a gain is claimed.
const MIN_PAIRS_FOR_GAIN: usize = 10;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match Options::parse(&raw).and_then(|o| run(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ab: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The command line.
struct Options {
    base: String,
    workloads: Vec<String>,
    seed: u64,
    pairs: usize,
    label: String,
    allow_checksum_move: bool,
}

impl Options {
    fn parse(raw: &[String]) -> Result<Options, String> {
        let mut flags: Vec<(&str, &str)> = Vec::new();
        let mut allow_checksum_move = false;
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("allow-checksum-move") => allow_checksum_move = true,
                Some(name @ ("base" | "workload" | "seed" | "pairs" | "label")) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name, value));
                }
                _ => return Err(format!("unexpected argument {a:?}")),
            }
        }
        let get = |name: &str| flags.iter().rev().find(|f| f.0 == name).map(|f| f.1);
        let need = |name: &str| get(name).ok_or(format!("--{name} is required"));
        let num = |name: &str| -> Result<f64, String> {
            need(name)?
                .parse()
                .map_err(|_| format!("--{name}: not a number"))
        };
        let pairs = num("pairs")? as usize;
        if pairs == 0 {
            return Err("--pairs must be positive".into());
        }
        Ok(Options {
            base: need("base")?.to_string(),
            workloads: need("workload")?.split(',').map(str::to_string).collect(),
            seed: num("seed")? as u64,
            pairs,
            label: get("label").unwrap_or("").to_string(),
            allow_checksum_move,
        })
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// One ledger run's result line and checksum.
struct Run {
    checksum: String,
    metrics: Vec<(String, f64)>,
}

fn run(o: &Options) -> Result<(), String> {
    let root = PathBuf::from(git(None, &["rev-parse", "--show-toplevel"])?);
    let spec = json(&read(&root.join("BENCHMARK.json"))?)?;
    let metrics = end_to_end(&spec)?;
    let seconds = num(get(&spec, "run_seconds")).ok_or("BENCHMARK.json sets no run_seconds")?;
    let base_rev = git(Some(&root), &["rev-parse", &o.base])?;
    // The change is the working tree. Only a tree without edits to
    // tracked files (but the ledger of rows) is `HEAD`, the commit a
    // row names.
    let head = git(Some(&root), &["rev-parse", "HEAD"])?;
    let status = [
        "status",
        "--porcelain",
        "--untracked-files=no",
        "--",
        ".",
        ":!BENCH_trajectory.jsonl",
    ];
    let clean = git(Some(&root), &status)?.is_empty();
    if !clean {
        eprintln!("ab: the working tree has edits to tracked files, so no rows will be appended");
    }
    let work = root.join("target").join("ab");
    let short = &base_rev[..12];

    // The base, exported at `rev`, and the working tree, each built
    // into a target directory of its own.
    let src = work.join(format!("src-{short}"));
    if !src.join("benchmark").join("Cargo.toml").exists() {
        std::fs::create_dir_all(&src).map_err(|e| format!("{}: {e}", src.display()))?;
        export(&root, &base_rev, &src)?;
    }
    let base_bin = build(&src, &work.join(format!("target-{short}")))?;
    let change_bin = build(&root, &work.join("target-worktree"))?;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let date = today();
    let text = |s: &str| JsonValue::Str(s.to_string());
    let count = |n: usize| JsonValue::Num(n as f64);
    let mut rows = String::new();
    for workload in &o.workloads {
        let (mut base, mut change) = (Vec::new(), Vec::new());
        for pair in 0..o.pairs {
            // ABBA: the base leads in odd pairs (1, 3, ...), the change
            // in even ones.
            let base_first = pair % 2 == 0;
            let order: [(&Path, bool); 2] = if base_first {
                [(&base_bin, true), (&change_bin, false)]
            } else {
                [(&change_bin, false), (&base_bin, true)]
            };
            for (bin, is_base) in order {
                let r = ledger(bin, workload, o.seed, seconds)?;
                if is_base {
                    base.push(r);
                } else {
                    change.push(r);
                }
            }
            let (b, c) = (&base[pair].checksum, &change[pair].checksum);
            if b != c && !o.allow_checksum_move {
                return Err(format!(
                    "{workload}: output_checksum {b} (base) vs {c} (change); pass --allow-checksum-move if the change moves it"
                ));
            }
            eprintln!("{workload}: pair {}/{} done", pair + 1, o.pairs);
        }
        println!(
            "{workload} (seed {}, {} s, {} ABBA pairs, {cpus} CPUs; base {short})",
            o.seed, seconds, o.pairs
        );
        println!(
            "  {:<12} {:>32} {:>32} {:>8} {:>6}  verdict",
            "metric", "base median [Q1, Q3]", "change median [Q1, Q3]", "delta", "wins"
        );
        for m in &metrics {
            let b = values(&base, &m.name)?;
            let c = values(&change, &m.name)?;
            let cmp = compare(&b, &c, m);
            println!(
                "  {:<12} {:>32} {:>32} {:>+7.1}% {:>6}  {}",
                m.name,
                cmp.base.show(),
                cmp.change.show(),
                100.0 * cmp.delta,
                format!("{}/{}", cmp.wins, b.len()),
                cmp.verdict
            );
            let row = JsonValue::Obj(vec![
                ("label".into(), text(&o.label)),
                ("commit".into(), text(&head)),
                ("base_commit".into(), text(&base_rev)),
                ("date".into(), text(&date)),
                ("cpus".into(), count(cpus)),
                ("seed".into(), JsonValue::Num(o.seed as f64)),
                ("seconds".into(), JsonValue::Num(seconds)),
                ("workload".into(), text(workload)),
                ("metric".into(), text(&m.name)),
                ("base".into(), cmp.base.json()),
                ("change".into(), cmp.change.json()),
                ("wins".into(), count(cmp.wins)),
                ("pairs".into(), count(b.len())),
                ("verdict".into(), text(cmp.verdict)),
            ]);
            rows.push_str(&to_string(&row));
            rows.push('\n');
        }
    }
    if !clean {
        return Ok(());
    }
    let path = root.join("BENCH_trajectory.jsonl");
    let mut out = std::fs::read_to_string(&path).unwrap_or_default();
    out.push_str(&rows);
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "appended {} rows to {}",
        rows.lines().count(),
        path.display()
    );
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `git args` (in `dir`), its trimmed stdout.
fn git(dir: Option<&Path>, args: &[&str]) -> Result<String, String> {
    let mut cmd = Command::new("git");
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    let out = cmd.args(args).output().map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Unpack the tree of `rev` into `dir`: `git archive | tar -x`.
fn export(root: &Path, rev: &str, dir: &Path) -> Result<(), String> {
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(dir)
        .stdin(archive.stdout.take().expect("piped"))
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !tar.success() || !archived.success() {
        return Err(format!("could not export {rev} into {}", dir.display()));
    }
    Ok(())
}

/// Build the ledger of the tree at `src` into `target`; its binary.
fn build(src: &Path, target: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(src.join("benchmark").join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the ledger of {} failed", src.display()));
    }
    Ok(target.join("release").join("ledger"))
}

/// One `--trace 0` run of `workload`.
fn ledger(bin: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text.lines().last().unwrap_or_default();
    let details = text.lines().find_map(|l| l.strip_prefix("#details "));
    let details = details.map(json).transpose()?;
    let Some(JsonValue::Str(checksum)) = details.as_ref().and_then(|d| get(d, "output_checksum"))
    else {
        return Err(format!(
            "{workload}: no output_checksum in the ledger's output"
        ));
    };
    let checksum = checksum.clone();
    let result = json(result)?;
    let correct = get(&result, "correct") == Some(&JsonValue::Bool(true));
    if !out.status.success() || !correct || num(get(&result, "failed")) != Some(0.0) {
        return Err(format!(
            "{workload}: a run was not correct or had failures ({})",
            bin.display()
        ));
    }
    let Some(JsonValue::Obj(fields)) = get(&result, "metrics") else {
        return Err(format!("{workload}: no metrics in the result line"));
    };
    let metrics = fields
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), num(get(v, "value"))?)))
        .collect();
    Ok(Run { checksum, metrics })
}

/// The end-to-end metrics and their bounds.
fn end_to_end(spec: &JsonValue) -> Result<Vec<Metric>, String> {
    let Some(JsonValue::Arr(list)) = get(spec, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let text = |m: &JsonValue, key: &str| match get(m, key) {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        _ => None,
    };
    list.iter()
        .map(|m| {
            Some(Metric {
                name: text(m, "name")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: num(get(m, "bound"))?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: a malformed end_to_end entry".into())
}

fn values(runs: &[Run], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            r.metrics
                .iter()
                .find(|m| m.0 == metric)
                .map(|m| m.1)
                .ok_or(format!("no {metric} in a run"))
        })
        .collect()
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    fn show(&self) -> String {
        format!("{} [{}, {}]", fig(self.median), fig(self.q1), fig(self.q3))
    }

    fn json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("median".into(), JsonValue::Num(self.median)),
            ("q1".into(), JsonValue::Num(self.q1)),
            ("q3".into(), JsonValue::Num(self.q3)),
        ])
    }
}

/// A value at four significant figures or more.
fn fig(v: f64) -> String {
    let decimals = (3 - v.abs().max(1e-9).log10().floor() as i32).clamp(0, 6) as usize;
    format!("{v:.decimals$}")
}

/// The `p`-quantile of sorted `v`, interpolating linearly between
/// order statistics (the "type 7" definition).
fn quantile(v: &[f64], p: f64) -> f64 {
    let at = p * (v.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    match v.get(lo + 1) {
        Some(next) => v[lo] + frac * (next - v[lo]),
        None => v[lo],
    }
}

/// One metric's comparison.
#[derive(Debug, PartialEq)]
struct Comparison {
    base: Summary,
    change: Summary,
    /// Relative move of the median, `change / base − 1`.
    delta: f64,
    /// Pairs in which the change did better than the base.
    wins: usize,
    verdict: &'static str,
}

/// Compare pairs `(base[i], change[i])` of one metric.
fn compare(base: &[f64], change: &[f64], m: &Metric) -> Comparison {
    let better = |c: f64, b: f64| if m.higher_is_better { c > b } else { c < b };
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better(c, b))
        .count();
    let (b, c) = (Summary::of(base), Summary::of(change));
    let delta = c.median / b.median - 1.0;
    // How much worse the change's median is, as a share of the base's.
    let worse = if m.higher_is_better { -delta } else { delta };
    let verdict = if 10 * wins >= 9 * base.len()
        && better(c.median, b.median)
        && (c.median - b.median).abs() > b.iqr()
    {
        if base.len() >= MIN_PAIRS_FOR_GAIN {
            "better"
        } else {
            "too-few-pairs"
        }
    } else if b.iqr() > m.bound * b.median.abs() {
        "unresolved"
    } else if worse > m.bound {
        "worse"
    } else {
        "within"
    };
    Comparison {
        base: b,
        change: c,
        delta,
        wins,
        verdict,
    }
}

/// Today's UTC date, `YYYY-MM-DD`.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    civil(secs / 86_400)
}

/// The proleptic Gregorian date `days` after 1970-01-01.
fn civil(days: u64) -> String {
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Parse JSON text (the ledger's lines, `BENCHMARK.json`).
fn json(text: &str) -> Result<JsonValue, String> {
    parse(text).map_err(|e| e.to_string())
}

/// Member `key` of a JSON object.
fn get<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(members) => members.iter().find(|m| m.0 == key).map(|m| &m.1),
        _ => None,
    }
}

fn num(v: Option<&JsonValue>) -> Option<f64> {
    match v {
        Some(JsonValue::Num(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            higher_is_better,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let s = Summary::of(&[7.0, 1.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        let s = Summary::of(&[4.0, 1.0, 2.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 8.0));
        assert_eq!(s.iqr(), 6.0);
        let s = Summary::of(&[9.0]);
        assert_eq!((s.q1, s.median, s.q3), (9.0, 9.0, 9.0));
    }

    #[test]
    fn a_consistent_cut_is_better() {
        let base = [
            100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0,
        ];
        let change: Vec<f64> = base.iter().map(|b| b * 0.5).collect();
        let c = compare(&base, &change, &metric(false));
        assert_eq!((c.wins, c.verdict), (10, "better"));
        assert_eq!(c.delta, -0.5);
        // The same cut on a higher-is-better metric is a loss.
        let c = compare(&base, &change, &metric(true));
        assert_eq!((c.wins, c.verdict), (0, "worse"));
    }

    #[test]
    fn eight_wins_in_ten_or_a_gap_inside_the_iqr_is_not_better() {
        let base = [100.0; 10];
        let mut change = [90.0; 10];
        change[0] = 110.0;
        change[1] = 110.0;
        let c = compare(&base, &change, &metric(false));
        assert_eq!((c.wins, c.verdict), (8, "within"));
        // Ten wins, but by less than the base's spread.
        let base = [
            80.0, 90.0, 100.0, 110.0, 120.0, 80.0, 90.0, 100.0, 110.0, 120.0,
        ];
        let change: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        let c = compare(&base, &change, &metric(false));
        assert_eq!((c.wins, c.verdict), (10, "within"));
    }

    #[test]
    fn a_wide_base_is_unresolved_and_a_large_loss_worse() {
        let base = [50.0, 150.0, 50.0, 150.0];
        let c = compare(&base, &[100.0; 4], &metric(false));
        assert_eq!((c.base.iqr(), c.verdict), (100.0, "unresolved"));
        let c = compare(&[100.0; 4], &[130.0; 4], &metric(false));
        assert_eq!((c.wins, c.verdict), (0, "worse"));
        let c = compare(&[100.0; 4], &[120.0; 4], &metric(false));
        assert_eq!(c.verdict, "within");
    }

    #[test]
    fn a_cut_over_fewer_than_ten_pairs_is_too_few_to_claim() {
        let base = [100.0, 102.0, 98.0, 101.0];
        let change: Vec<f64> = base.iter().map(|b| b * 0.5).collect();
        let c = compare(&base, &change, &metric(false));
        assert_eq!((c.wins, c.verdict), (4, "too-few-pairs"));
        // A loss is reported over any number of pairs.
        let c = compare(&base, &change, &metric(true));
        assert_eq!(c.verdict, "worse");
    }

    #[test]
    fn dates() {
        assert_eq!(civil(0), "1970-01-01");
        assert_eq!(civil(19_782), "2024-02-29");
    }
}
