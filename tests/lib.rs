//! Integration-test package; all tests live in `tests/`.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

/// The repository root, for the tests that read committed files.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repository root")
        .to_path_buf()
}
