//! Each end-user walkthrough prints exactly its committed `golden/`
//! text (`UPDATE_GOLDEN=1` rewrites it). The fan-out's worker count,
//! the one figure that follows the host's cores, is not printed. The
//! two walkthroughs that take over a second in a debug build run in
//! release builds only (CI's release golden step).

#[path = "../../crates/bench/tests/support/golden.rs"]
mod golden;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn example(bin: &str, name: &str) {
    golden::check(ROOT, bin, &[], name);
}

#[test]
fn quickstart() {
    example(env!("CARGO_BIN_EXE_quickstart"), "quickstart");
}

#[test]
fn gamer_queen() {
    example(env!("CARGO_BIN_EXE_gamer_queen"), "gamer_queen");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "over a second in a debug build; runs in release"
)]
fn wine_connoisseur() {
    example(env!("CARGO_BIN_EXE_wine_connoisseur"), "wine_connoisseur");
}

#[test]
fn video_store() {
    example(env!("CARGO_BIN_EXE_video_store"), "video_store");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "over a second in a debug build; runs in release"
)]
fn marketplace() {
    example(env!("CARGO_BIN_EXE_marketplace"), "marketplace");
}
