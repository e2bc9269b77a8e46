//! The `experiments` binary refuses names it does not know, so a
//! misspelt CI step fails instead of running nothing and passing.

use std::process::Command;

#[test]
fn unknown_experiment_names_fail() {
    // A bogus name, the experiments whose measurements moved to the
    // ledger, and a valid name followed by a bogus one (nothing runs).
    for args in [
        &["e-bogus"][..],
        &["e3"],
        &["e4"],
        &["e6"],
        &["e8"],
        &["e-build"],
        &["e-postings"],
        &["e1", "e-bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown experiment") && stderr.contains("e-resilience"),
            "{args:?} must list the valid names: {stderr}"
        );
    }
}
