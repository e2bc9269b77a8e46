//! Golden-file check for the programs that regenerate the paper's
//! artifacts: run a binary, and compare what it prints with the
//! committed `golden/<name>.txt`. With `UPDATE_GOLDEN=1` the check
//! rewrites the file instead; review the diff and commit it with the
//! change that moved it.

use std::path::Path;
use std::process::Command;

/// Run `bin` with `args` in the system temp directory (so nothing it
/// might write lands in the checkout) and compare its stdout with
/// `golden/<name>.txt` under the workspace root `root`.
pub fn check(root: &str, bin: &str, args: &[&str], name: &str) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("output is UTF-8");
    let path = Path::new(root).join("golden").join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("golden file written");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDEN=1 writes it)", path.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} differs from {} at line {}:\n  golden: {:?}\n  now:    {:?}\n\
             (UPDATE_GOLDEN=1 rewrites it)",
            path.display(),
            line + 1,
            want.lines().nth(line).unwrap_or("<end>"),
            got.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
