//! Streaming demo: the full Figs. 12–14 machinery on one configuration —
//! a live stream over a churning tree, outages, and CER repair — with the
//! bookkeeping printed out.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example streaming_demo [members] [group_size]
//! ```

use rom::engine::{AlgorithmKind, ChurnConfig, RecoveryStrategy, StreamingConfig, StreamingSim};
use rom::obs::Obs;
use rom_bench::Json;

fn main() {
    let mut args = std::env::args().skip(1);
    let members: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(800);
    let group_size: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(3);

    println!("== streaming over a churning {members}-member overlay ==");
    println!(
        "stream: 10 pkt/s, 5 s playback buffer; failure → 5 s detection + 10 s rejoin;\n\
         recovery group size K = {group_size}, residual helper bandwidth U(0, 9) pkt/s\n"
    );

    let mut rost_cer_trace = String::new();
    for (label, algorithm, strategy, traced) in [
        (
            "min-depth + single-source (baseline)",
            AlgorithmKind::MinimumDepth,
            RecoveryStrategy::SingleSource,
            false,
        ),
        (
            "min-depth + CER striping",
            AlgorithmKind::MinimumDepth,
            RecoveryStrategy::Cooperative,
            false,
        ),
        (
            "ROST + CER (the paper's scheme)",
            AlgorithmKind::Rost,
            RecoveryStrategy::Cooperative,
            true,
        ),
    ] {
        let mut churn = ChurnConfig::quick(algorithm, members);
        churn.seed = 11;
        churn.warmup_secs = 300.0;
        churn.measure_secs = 1_200.0;
        let mut cfg = StreamingConfig::paper(churn, group_size);
        cfg.strategy = strategy;

        // The flagship run is traced; the timeline below is reconstructed
        // purely from its JSONL trace.
        let report = if traced {
            let (report, obs, _) = StreamingSim::new(cfg).run_observed(Obs::enabled(), None);
            rost_cer_trace = obs.trace_jsonl().to_owned();
            report
        } else {
            StreamingSim::new(cfg).run()
        };
        let (mean, ci) = report.starving_ratio_percent.mean_with_ci95();
        println!("{label}:");
        println!(
            "  starving time ratio: {mean:.3}% ± {ci:.3}%  (over {} members)",
            report.starving_ratio_percent.count()
        );
        println!(
            "  outages: {}   packets repaired on time: {}   packets starved: {}",
            report.outages, report.packets_repaired_on_time, report.packets_starved
        );
        println!(
            "  tree beneath: {:.2} disruptions/lifetime, {:.0} ms delay\n",
            report.churn.disruptions_per_mean_lifetime(),
            report.churn.service_delay_ms.mean()
        );
    }

    print_failure_timeline(&rost_cer_trace);

    println!(
        "The baseline's single helper rarely has a full stream of residual bandwidth,\n\
         so every outage starves; CER stripes the gap across the group, and ROST makes\n\
         the outages themselves rarer — multiplying into the paper's ~an-order-of-\n\
         magnitude reduction (Fig. 14)."
    );
}

/// Reconstructs the anatomy of one recovery from the ROST+CER trace:
/// an abrupt failure, the ELN suppressing redundant rejoins beneath it,
/// the CER stripe plan, and the completed repair.
fn print_failure_timeline(jsonl: &str) {
    let events: Vec<(Json, &str)> = jsonl
        .lines()
        .map(|line| (Json::parse(line).expect("trace lines are JSON"), line))
        .collect();
    let is = |e: &Json, kind: &str| e.str_field("kind") == Some(kind);
    let time = |e: &Json| e.f64_field("t").unwrap_or(0.0);
    let Some(failure) = events.iter().find(|(e, _)| {
        let fields = e.get("fields");
        is(e, "departure")
            && fields.and_then(|f| f.u64_field("descendants")).unwrap_or(0) > 0
            && fields.and_then(|f| f.get("graceful")) != Some(&Json::Bool(true))
    }) else {
        println!("(no abrupt failure with descendants in the trace)\n");
        return;
    };
    println!("-- trace-derived timeline: first failure with descendants, and its recovery --");
    let mut picked = vec![failure];
    for wanted in ["outage", "eln_suppress", "stripe_plan", "repair"] {
        picked.extend(
            events
                .iter()
                .find(|(e, _)| is(e, wanted) && time(e) >= time(&failure.0)),
        );
    }
    picked.sort_by(|a, b| time(&a.0).total_cmp(&time(&b.0)));
    for (_, line) in picked {
        println!("  {line}");
    }
    println!();
}
