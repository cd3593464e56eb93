//! Figure 9: service delay of the typical member over time.
//!
//! Expected shape: under ROST and relaxed-TO the member's delay falls as
//! it ages (rising tree position); under the other algorithms it
//! fluctuates without converging.

use rom_bench::{fmt, observer_banner, observer_traces, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    println!(
        "{}",
        observer_banner(
            "Figure 9",
            "service delay (ms) of a typical member over time (minutes)",
            scale
        )
    );
    println!("{}", row(["algorithm".into(), "minute:delay_ms...".into()]));
    // --trace/--profile capture the ROST run.
    let traces = observer_traces("fig09_rost_observer", scale);
    for (alg, trace) in AlgorithmKind::ALL.into_iter().zip(traces) {
        let mut cells = vec![alg.name().to_string()];
        for &(minute, delay) in &trace.delay_samples {
            cells.push(format!("{}:{}", fmt(minute), fmt(delay)));
        }
        println!("{}", row(cells));
    }
}
