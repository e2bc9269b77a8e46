//! The repository's checks have one list: the stages of `ci/verify.sh`.
//!
//! CI runs nothing but toolchain setup and those stages, each in exactly
//! one step and in the script's order; the verify skill gives every
//! stage a row of its table; and `ci/checksums.txt` pins exactly the
//! workloads `BENCHMARK.json` declares. A change that edits one list and
//! not the others fails here, before CI and the skill can disagree on
//! what a verified change is.

use std::fs;
use symphony_store::formats::json::{parse, JsonValue};
use symphony_tests::repo_root;

fn read(path: &str) -> String {
    fs::read_to_string(repo_root().join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The stages `ci/verify.sh` runs with no argument, in order, checked
/// against the arms of its `case`: a stage that one of the two names and
/// the other does not fails.
fn stages() -> Vec<String> {
    let script = read("ci/verify.sh");
    let listed: Vec<String> = script
        .lines()
        .find_map(|l| l.strip_prefix("stages='"))
        .expect("ci/verify.sh sets stages='...'")
        .trim_end_matches('\'')
        .split_whitespace()
        .map(String::from)
        .collect();
    let arms: Vec<String> = script
        .lines()
        .filter_map(|l| l.trim().strip_suffix(')'))
        .filter(|name| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        })
        .map(String::from)
        .collect();
    assert_eq!(
        listed, arms,
        "ci/verify.sh: the stages list and the stage arms differ"
    );
    listed
}

#[test]
fn every_ci_step_runs_one_stage() {
    let stages = stages();
    let ci = read(".github/workflows/ci.yml");
    let mut run = Vec::new();
    for (i, line) in ci.lines().enumerate() {
        let line = line.trim_start();
        let Some(command) = line
            .strip_prefix("run:")
            .or_else(|| line.strip_prefix("- run:"))
        else {
            continue;
        };
        let command = command.trim();
        if command
            .split("&&")
            .all(|part| part.trim().starts_with("rustup "))
        {
            continue;
        }
        match command.strip_prefix("sh ci/verify.sh ") {
            Some(stage) if stages.iter().any(|s| s == stage) => run.push(stage.to_string()),
            _ => panic!(
                "ci.yml:{}: `{command}` is neither toolchain setup nor \
                 `sh ci/verify.sh <stage>` with one of the stages {stages:?}",
                i + 1
            ),
        }
    }
    assert_eq!(
        run, stages,
        "ci.yml must run every stage of ci/verify.sh in exactly one step, in the script's order"
    );
}

#[test]
fn every_stage_has_a_row_in_the_verify_skill() {
    let skill = read(".claude/skills/verify/SKILL.md");
    for stage in stages() {
        let row = format!("| `{stage}` |");
        assert!(
            skill.lines().any(|l| l.starts_with(&row)),
            "SKILL.md has no table row for the stage `{stage}` (a line starting `{row}`)"
        );
    }
}

#[test]
fn every_benchmark_workload_has_one_pin() {
    let JsonValue::Obj(bench) = parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses")
    else {
        panic!("BENCHMARK.json is not an object");
    };
    let Some((_, JsonValue::Arr(workloads))) = bench.iter().find(|(k, _)| k == "workloads") else {
        panic!("BENCHMARK.json has no workloads array");
    };
    let declared: Vec<&str> = workloads
        .iter()
        .map(|w| match w {
            JsonValue::Obj(fields) => match fields.iter().find(|(k, _)| k == "name") {
                Some((_, JsonValue::Str(name))) => name.as_str(),
                _ => panic!("a BENCHMARK.json workload has no name"),
            },
            _ => panic!("a BENCHMARK.json workload is not an object"),
        })
        .collect();

    let pins = read("ci/checksums.txt");
    let mut pinned = Vec::new();
    for line in pins
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, checksum] = fields[..] else {
            panic!("ci/checksums.txt: `{line}` is not one `workload checksum` pair");
        };
        assert!(
            checksum.len() == 16 && checksum.bytes().all(|b| b.is_ascii_hexdigit()),
            "ci/checksums.txt: `{checksum}` is not a 16-digit hex checksum"
        );
        assert!(
            declared.contains(&workload),
            "ci/checksums.txt pins `{workload}`, which BENCHMARK.json does not list"
        );
        assert!(
            !pinned.contains(&workload),
            "ci/checksums.txt pins `{workload}` twice"
        );
        pinned.push(workload);
    }
    for workload in &declared {
        assert!(
            pinned.contains(workload),
            "BENCHMARK.json lists `{workload}`, which ci/checksums.txt does not pin"
        );
    }
}
