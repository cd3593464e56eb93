//! A zero count is a usage error, not an empty experiment: `--seeds 0`
//! would print a table of zeros and `fig_mega --sizes …,0` would panic
//! inside the engine. Both must exit 2 with the usage message before
//! anything is simulated or printed.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

fn assert_usage_error(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("usage:"),
        "{out:?}"
    );
}

#[test]
fn zero_seeds_is_a_usage_error() {
    assert_usage_error(&run(env!("CARGO_BIN_EXE_fig08_stretch"), &["--seeds", "0"]));
}

#[test]
fn zero_mega_size_is_a_usage_error() {
    assert_usage_error(&run(env!("CARGO_BIN_EXE_fig_mega"), &["--sizes", "1000,0"]));
}
