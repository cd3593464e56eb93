//! Figure 6: accumulative number of disruptions of a typical member
//! (moderate bandwidth, long lifetime) over time, per algorithm.
//!
//! Expected shape: under ROST the curve flattens as the member ages and
//! climbs the tree; under the time-blind algorithms it keeps a roughly
//! constant slope.

use rom_bench::{banner, fmt, observer_traces, row, Scale};
use rom_engine::AlgorithmKind;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 6",
        "accumulative disruptions of a typical member over time (minutes)",
        scale,
    );
    let size = scale.focus_size();
    let horizon_min = scale.observer_minutes();
    println!("# focus size: {size} members, horizon: {horizon_min} minutes");
    println!(
        "{}",
        row(["algorithm".into(), "minute:cumulative...".into()])
    );
    // --trace/--profile capture the ROST run.
    let traces = observer_traces("fig06_rost_observer", scale);
    for (alg, trace) in AlgorithmKind::ALL.into_iter().zip(traces) {
        let mut cells = vec![alg.name().to_string()];
        for (i, minute) in trace.disruption_minutes.iter().enumerate() {
            cells.push(format!("{}:{}", fmt(*minute), i + 1));
        }
        if trace.disruption_minutes.is_empty() {
            cells.push("none".to_string());
        }
        println!("{}", row(cells));
    }
    println!("# each entry is minute:cumulative-count at a disruption instant");
}
