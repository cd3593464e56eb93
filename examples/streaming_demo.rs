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
use rom::obs::{FieldValue, Level, Obs, RingSink, TraceEvent, Tracer};

fn main() {
    let mut args = std::env::args().skip(1);
    let members: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(800);
    let group_size: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(3);

    println!("== streaming over a churning {members}-member overlay ==");
    println!(
        "stream: 10 pkt/s, 5 s playback buffer; failure → 5 s detection + 10 s rejoin;\n\
         recovery group size K = {group_size}, residual helper bandwidth U(0, 9) pkt/s\n"
    );

    let mut rost_cer_trace: Vec<TraceEvent> = Vec::new();
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

        // The flagship run is traced (Info level, so the ring keeps the
        // interesting events rather than every join); the timeline below
        // is reconstructed purely from the trace.
        let report = if traced {
            let (sink, handle) = RingSink::new(500_000);
            let tracer = Tracer::to_sink(Box::new(sink)).with_min_level(Level::Info);
            let (report, _, _) = StreamingSim::new(cfg).run_observed(Obs::new(tracer), None);
            rost_cer_trace = handle.events();
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
fn print_failure_timeline(events: &[TraceEvent]) {
    let Some(failure) = events.iter().find(|e| {
        e.kind == "departure"
            && field_u64(e, "descendants") > 0
            && !matches!(e.fields.get("graceful"), Some(FieldValue::Bool(true)))
    }) else {
        println!("(no abrupt failure with descendants in the trace)\n");
        return;
    };
    println!("-- trace-derived timeline: first failure with descendants, and its recovery --");
    let mut picked = vec![failure];
    for kind in ["outage", "eln_suppress", "stripe_plan", "repair"] {
        picked.extend(
            events
                .iter()
                .find(|e| e.kind == kind && e.time >= failure.time),
        );
    }
    picked.sort_by(|a, b| a.time.total_cmp(&b.time));
    for ev in picked {
        print_event(ev);
    }
    println!();
}

fn print_event(ev: &TraceEvent) {
    let fields: Vec<String> = ev
        .fields
        .iter()
        .map(|(k, v)| format!("{k}={}", fmt_field(v)))
        .collect();
    println!(
        "  t={:9.2}s  {:<9} {:<13} {}",
        ev.time,
        format!("[{}]", ev.subsystem.as_str()),
        ev.kind,
        fields.join(" ")
    );
}

fn field_u64(ev: &TraceEvent, key: &str) -> u64 {
    match ev.fields.get(key) {
        Some(&FieldValue::U64(n)) => n,
        _ => 0,
    }
}

fn fmt_field(v: &FieldValue) -> String {
    match *v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::F64(x) => format!("{x:.3}"),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => s.to_string(),
    }
}
