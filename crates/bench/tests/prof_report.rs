//! `rom-prof report` states under its header how much of the run's wall
//! time the root spans cover, so coverage figures come off the report
//! instead of a hand sum. A child span's time counts once, inside its
//! root.

use std::process::Command;

/// 10 ms of wall time, 6 ms of it in a root span with a 2 ms child.
const TWO_SPANS: &str = r#"{"kind":"rom-profile","name":"two-spans","seed":1,"events_processed":5,"run_wall_ns":10000000,"spans":[{"path":"engine.arrival","count":5,"total_ns":6000000,"self_ns":4000000,"hist_ns_pow2":[]},{"path":"engine.arrival/engine.view","count":5,"total_ns":2000000,"self_ns":2000000,"hist_ns_pow2":[]}]}"#;

#[test]
fn report_states_root_span_coverage() {
    let dir = std::env::temp_dir().join(format!("rom-prof-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the temporary directory is writable");
    let path = dir.join("two-spans.profile.json");
    std::fs::write(&path, TWO_SPANS).expect("the profile is written");
    let out = Command::new(env!("CARGO_BIN_EXE_rom-prof"))
        .arg("report")
        .arg(&path)
        .output()
        .expect("the binary starts");
    std::fs::remove_dir_all(&dir).expect("the temporary directory is removed");

    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header: Vec<&str> = stdout.lines().take(3).collect();
    assert_eq!(
        header,
        [
            "# rom-prof report — two-spans (seed 1)",
            "# events: 5, wall: 0.010 s, throughput: 500 events/s",
            "# coverage: root spans cover 60.0% of wall time, 4.000 ms outside any span",
        ],
        "{stdout}"
    );
}
