//! # `rom-prof` — analyzer for profile and health sidecars
//!
//! Reads the artifacts the figure binaries emit under `--profile` /
//! `--trace` and turns them into actionable reports:
//!
//! ```text
//! rom_prof report <run.profile.json> [--top N]
//! rom_prof health <trace.health.jsonl>
//! rom_prof diff <old.profile.json> <new.profile.json> [--fail-above PCT]
//! ```
//!
//! `report` prints the span hotspots: top-k spans by self time (the
//! targeting data for hot-path work) and the per-phase breakdown over
//! root spans (`engine.*` event handlers). `health` summarizes the
//! per-member protocol timelines: time-to-first-packet, starving-ratio
//! distribution (Fig 12 semantics), recovery latency and control
//! overhead. `diff` compares run throughput and per-span self time
//! between two profiles; it is report-only unless `--fail-above` is
//! given, in which case a throughput regression beyond the threshold
//! exits non-zero.
//!
//! Everything printed from wall-clock numbers is explicitly
//! run-dependent; this binary is an analysis tool, not a deterministic
//! artifact producer.

use rom_bench::Json;

fn usage() -> ! {
    eprintln!(
        "usage: rom_prof report <run.profile.json> [--top N]\n       rom_prof health <trace.health.jsonl>\n       rom_prof diff <old.profile.json> <new.profile.json> [--fail-above PCT]"
    );
    std::process::exit(2)
}

fn read_file(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            std::process::exit(2)
        }
    }
}

/// Parses a `.profile.json` file. The bench harness writes one JSON
/// document per line (one per designated cell); the first is analyzed
/// and any extras are reported.
fn load_profile(path: &str) -> Json {
    let body = read_file(path);
    let mut docs = body.lines().filter(|l| !l.trim().is_empty());
    let Some(first) = docs.next() else {
        eprintln!("error: {path} is empty");
        std::process::exit(2)
    };
    let doc = match Json::parse(first) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("error: {path}: {err}");
            std::process::exit(2)
        }
    };
    let extra = docs.count();
    if extra > 0 {
        println!("# note: {path} holds {extra} further profile(s); analyzing the first");
    }
    doc
}

/// One span row lifted out of the parsed document.
struct Span {
    path: String,
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn spans_of(doc: &Json, path: &str) -> Vec<Span> {
    let Some(spans) = doc.get("spans").and_then(Json::as_arr) else {
        eprintln!("error: {path} has no spans array — not a rom-profile?");
        std::process::exit(2)
    };
    spans
        .iter()
        .map(|s| Span {
            path: s.str_field("path").unwrap_or_default().to_string(),
            count: s.u64_field("count").unwrap_or(0),
            total_ns: s.u64_field("total_ns").unwrap_or(0),
            self_ns: s.u64_field("self_ns").unwrap_or(0),
        })
        .collect()
}

fn events_per_sec(events: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        events as f64 / (wall_ns as f64 / 1e9)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per_op_ns(span: &Span) -> f64 {
    if span.count == 0 {
        0.0
    } else {
        span.self_ns as f64 / span.count as f64
    }
}

fn report(path: &str, top: usize) {
    let doc = load_profile(path);
    let name = doc.str_field("name").unwrap_or("?");
    let seed = doc.u64_field("seed").unwrap_or(0);
    let events = doc.u64_field("events_processed").unwrap_or(0);
    let wall_ns = doc.u64_field("run_wall_ns").unwrap_or(0);
    println!("# rom-prof report — {name} (seed {seed})");
    println!(
        "# events: {events}, wall: {:.3} s, throughput: {:.0} events/s",
        wall_ns as f64 / 1e9,
        events_per_sec(events, wall_ns)
    );

    let mut spans = spans_of(&doc, path);
    let recorded_ns: u64 = spans.iter().map(|s| s.self_ns).sum();

    println!("\n## top {top} spans by self time");
    println!("rank,span,count,self_ms,self_%,ns_per_op,total_ms");
    spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    for (i, s) in spans.iter().take(top).enumerate() {
        let share = if recorded_ns == 0 {
            0.0
        } else {
            s.self_ns as f64 / recorded_ns as f64 * 100.0
        };
        println!(
            "{},{},{},{:.3},{:.1},{:.0},{:.3}",
            i + 1,
            s.path,
            s.count,
            ms(s.self_ns),
            share,
            per_op_ns(s),
            ms(s.total_ns),
        );
    }

    // Per-phase breakdown: root spans are the engine event handlers, so
    // their totals partition the instrumented run by event type.
    let mut roots: Vec<&Span> = spans.iter().filter(|s| !s.path.contains('/')).collect();
    roots.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.path.cmp(&b.path)));
    let root_total: u64 = roots.iter().map(|s| s.total_ns).sum();
    println!("\n## per-phase breakdown (root spans by total time)");
    println!("phase,count,total_ms,total_%");
    for s in roots {
        let share = if root_total == 0 {
            0.0
        } else {
            s.total_ns as f64 / root_total as f64 * 100.0
        };
        println!("{},{},{:.3},{:.1}", s.path, s.count, ms(s.total_ns), share);
    }
}

/// Percentile of an ascending-sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn dist_row(label: &str, values: &mut Vec<f64>) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    };
    println!(
        "{label},{},{:.4},{:.4},{:.4},{:.4}",
        values.len(),
        mean,
        percentile(values, 50.0),
        percentile(values, 90.0),
        values.last().copied().unwrap_or(0.0),
    );
}

fn health(path: &str) {
    let body = read_file(path);
    let mut members = 0u64;
    let mut joined = 0u64;
    let mut departed = 0u64;
    let mut ttfp = Vec::new();
    let mut starving_ratio_pct = Vec::new();
    let mut recovery_latency = Vec::new();
    let mut parent_switches = 0u64;
    let mut episodes = 0u64;
    let mut control = 0u64;
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(err) => {
                eprintln!("error: {path}:{}: {err}", lineno + 1);
                std::process::exit(2)
            }
        };
        members += 1;
        if let Some(t) = doc.f64_field("ttfp_secs") {
            ttfp.push(t);
        }
        let join = doc.f64_field("joined_secs");
        if join.is_some() {
            joined += 1;
        }
        let depart = doc.f64_field("departed_secs");
        if depart.is_some() {
            departed += 1;
        }
        // Starving ratio over the member's observed streaming lifetime —
        // the Fig 12 quantity; members that never departed in-window are
        // excluded rather than guessed at.
        if let (Some(j), Some(d)) = (join, depart) {
            if d > j {
                let starving = doc.f64_field("starving_secs").unwrap_or(0.0);
                starving_ratio_pct.push(starving / (d - j) * 100.0);
            }
        }
        if let Some(recovery) = doc.get("recovery") {
            let n = recovery.u64_field("episodes").unwrap_or(0);
            episodes += n;
            if n > 0 {
                let sum = recovery.f64_field("latency_sum_secs").unwrap_or(0.0);
                recovery_latency.push(sum / n as f64);
            }
        }
        parent_switches += doc.u64_field("parent_switches").unwrap_or(0);
        control += doc
            .get("control")
            .and_then(|c| c.u64_field("total"))
            .unwrap_or(0);
    }
    println!("# rom-prof health — {path}");
    println!(
        "# members: {members}, joined: {joined}, departed in-window: {departed}, recovery episodes: {episodes}"
    );
    println!(
        "# parent switches: {parent_switches} ({:.3}/member), control messages: {control} ({:.3}/member)",
        parent_switches as f64 / (members.max(1)) as f64,
        control as f64 / (members.max(1)) as f64,
    );
    println!("\nmetric,n,mean,p50,p90,max");
    dist_row("ttfp_secs", &mut ttfp);
    dist_row("starving_ratio_%", &mut starving_ratio_pct);
    dist_row("recovery_latency_secs", &mut recovery_latency);
}

/// Run throughput of a parsed profile (events over `run_wall_ns`).
fn throughput_of(doc: &Json) -> f64 {
    let events = doc.u64_field("events_processed").unwrap_or(0);
    let wall_ns = doc.u64_field("run_wall_ns").unwrap_or(0);
    events_per_sec(events, wall_ns)
}

fn pct_delta(old: f64, new: f64) -> f64 {
    if old.abs().to_bits() == 0 {
        0.0
    } else {
        (new / old - 1.0) * 100.0
    }
}

fn diff(old_path: &str, new_path: &str, fail_above: Option<f64>) {
    let old = load_profile(old_path);
    let new = load_profile(new_path);
    let old_tp = throughput_of(&old);
    let new_tp = throughput_of(&new);
    println!("# rom-prof diff — {old_path} vs {new_path}");
    println!(
        "throughput,events_per_sec,{old_tp:.0},{new_tp:.0},{:+.1}%",
        pct_delta(old_tp, new_tp)
    );

    let old_spans = spans_of(&old, old_path);
    let new_spans = spans_of(&new, new_path);
    println!("\nspan,old_self_ms,new_self_ms,self_delta_%,old_count,new_count");
    for o in &old_spans {
        let Some(n) = new_spans.iter().find(|n| n.path == o.path) else {
            println!("{},{:.3},absent,,{},", o.path, ms(o.self_ns), o.count);
            continue;
        };
        println!(
            "{},{:.3},{:.3},{:+.1},{},{}",
            o.path,
            ms(o.self_ns),
            ms(n.self_ns),
            pct_delta(o.self_ns as f64, n.self_ns as f64),
            o.count,
            n.count,
        );
    }
    for n in &new_spans {
        if !old_spans.iter().any(|o| o.path == n.path) {
            println!("{},absent,{:.3},,,{}", n.path, ms(n.self_ns), n.count);
        }
    }

    // A throughput *drop* beyond the threshold is the regression signal;
    // without --fail-above this stays report-only for CI triage.
    if let Some(threshold) = fail_above {
        let drop_pct = -pct_delta(old_tp, new_tp);
        if drop_pct > threshold {
            eprintln!(
                "error: throughput dropped {drop_pct:.1}% (> {threshold}% allowed): {old_tp:.0} -> {new_tp:.0} events/s"
            );
            std::process::exit(1)
        }
        println!("# throughput within {threshold}% of baseline");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let mut top = 10usize;
            let mut rest = args[2..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--top" => {
                        top = rest
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage());
                    }
                    _ => usage(),
                }
            }
            report(path, top);
        }
        Some("health") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            if args.len() > 2 {
                usage();
            }
            health(path);
        }
        Some("diff") => {
            let old_path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let new_path = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let mut fail_above = None;
            let mut rest = args[3..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--fail-above" => {
                        fail_above = Some(
                            rest.next()
                                .and_then(|v| v.parse().ok())
                                .unwrap_or_else(|| usage()),
                        );
                    }
                    _ => usage(),
                }
            }
            diff(old_path, new_path, fail_above);
        }
        _ => usage(),
    }
}
