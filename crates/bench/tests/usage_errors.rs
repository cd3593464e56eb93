//! A zero count is a usage error, not an empty experiment: `--seeds 0`
//! would print a table of zeros and `fig_mega --sizes …,0` would panic
//! inside the engine. So is `churn_figures` without the `--out DIR` it
//! writes its tables to, and `--out` given to any other binary. Each must
//! exit 2 with the usage message before anything is simulated, printed
//! or written.

use std::process::Command;

/// Runs `bin` in a fresh directory and asserts a usage error that left
/// the directory empty.
fn assert_usage_error(test: &str, bin: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("rom-usage-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temporary directory is writable");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("the binary starts");
    let written = std::fs::read_dir(&dir).expect("readable").count();
    std::fs::remove_dir_all(&dir).expect("removable");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("usage:"),
        "{out:?}"
    );
    assert_eq!(written, 0, "a rejected run wrote files");
}

#[test]
fn zero_seeds_is_a_usage_error() {
    let args = ["--seeds", "0", "--out", "tables"];
    assert_usage_error("seeds", env!("CARGO_BIN_EXE_churn_figures"), &args);
}

#[test]
fn churn_figures_requires_out() {
    let bin = env!("CARGO_BIN_EXE_churn_figures");
    assert_usage_error("out", bin, &["--seeds", "1"]);
}

#[test]
fn only_churn_figures_takes_out() {
    let bin = env!("CARGO_BIN_EXE_fig12_starving_vs_size");
    assert_usage_error("stray-out", bin, &["--out", "x"]);
}

#[test]
fn zero_mega_size_is_a_usage_error() {
    let args = ["--sizes", "1000,0"];
    assert_usage_error("mega", env!("CARGO_BIN_EXE_fig_mega"), &args);
}
