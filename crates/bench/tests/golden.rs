//! The paper's two figures, its table and the virtual-clock and
//! quality experiments print exactly their committed `golden/` text
//! (`UPDATE_GOLDEN=1` rewrites it). Every line is deterministic: the
//! clock is virtual and the RNG streams are seeded, and no line depends
//! on the host's core count.
//!
//! The experiments that take seconds in a debug build run in release
//! builds only (CI's release golden step), keeping tier-1 fast.

#[path = "support/golden.rs"]
mod golden;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn report(bin: &str, name: &str) {
    golden::check(ROOT, bin, &[], name);
}

fn experiment(name: &str) {
    let bin = env!("CARGO_BIN_EXE_experiments");
    golden::check(ROOT, bin, &[name], &format!("experiments/{name}"));
}

#[test]
fn fig1() {
    report(env!("CARGO_BIN_EXE_fig1"), "fig1");
}

#[test]
fn fig2() {
    report(env!("CARGO_BIN_EXE_fig2"), "fig2");
}

#[test]
fn table1() {
    report(env!("CARGO_BIN_EXE_table1"), "table1");
}

#[test]
fn e1() {
    experiment("e1");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "seconds in a debug build; runs in release")]
fn e2() {
    experiment("e2");
}

#[test]
fn e_cache() {
    experiment("e-cache");
}

#[test]
fn e5() {
    experiment("e5");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "seconds in a debug build; runs in release")]
fn e7() {
    experiment("e7");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "seconds in a debug build; runs in release")]
fn e9() {
    experiment("e9");
}

#[test]
fn e10() {
    experiment("e10");
}

#[test]
fn e_resilience() {
    experiment("e-resilience");
}
