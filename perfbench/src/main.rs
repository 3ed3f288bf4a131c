//! The router's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <route-suite|route-congested|channel-suite|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload's chips from `--seed`, runs them through the
//! crates' public functions for about `--seconds`, checks every output
//! and prints one JSON result line last. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` wraps spans around each layer call
//! and reports the per-layer metrics instead. See `perfbench/README.md`.

mod chips;
mod report;
mod route;
mod serve;
mod trace;

use ocr_core::FlowKind;
use report::Report;
use std::path::PathBuf;

/// End-to-end metrics, printed by every `--trace 0` run in this order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p75", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("routed_nets", "count"),
    ("wire_length_dbu", "dbu"),
    ("vias", "count"),
    ("layout_area_dbu2", "dbu2"),
];

/// Per-layer metrics, printed by every `--trace 1` run in this order; a
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.level_b_ms", "ms"),
    ("core.expanded_per_s", "1/s"),
    ("core.window_success_ratio", "ratio"),
    ("core.expanded_vertices", "count"),
    ("core.window_expansions", "count"),
    ("core.candidates_examined", "count"),
    ("core.connections", "count"),
    ("core.rips", "count"),
    ("maze.fallbacks", "count"),
    ("maze.expanded", "count"),
    ("maze.fallback_share", "ratio"),
    ("channel.level_a_ms", "ms"),
    ("verify.oracle_ms", "ms"),
    ("grid.build_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.write_routes_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("netlist.validate_ms", "ms"),
    ("serve.answer_ms_p50", "ms"),
    ("serve.answer_ms_p90", "ms"),
    ("wire.ping_ms_p50", "ms"),
    ("serve.accept_ms_p50", "ms"),
    ("serve.accept_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.rounds", "count"),
    ("serve.preemptions", "count"),
    ("journal.appends", "count"),
    ("serve.ckpt_writes", "count"),
    ("serve.ckpt_write_ms", "ms"),
    ("serve.level_b_ms", "ms"),
    ("exec.busy_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_coverage", "ratio"),
];

/// Per-layer counters that are deterministic for a given seed and run
/// length: every pass must reproduce them, and `counters.json` records
/// their values at `--seed 0 --seconds 40`.
pub const DETERMINISTIC: [&str; 10] = [
    "core.expanded_vertices",
    "core.window_expansions",
    "core.candidates_examined",
    "core.connections",
    "core.rips",
    "maze.fallbacks",
    "maze.expanded",
    "serve.preemptions",
    "journal.appends",
    "serve.ckpt_writes",
];

/// Every workload. `route-congested` is run by hand, not by
/// `BENCHMARK.json`: its op times are too heavy-tailed to repeat within
/// the benchmark's bounds (see `perfbench/README.md`).
pub const WORKLOADS: [&str; 3] = ["route-suite", "route-congested", "channel-suite"];

/// One run's settings.
pub struct Settings {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `ocr-exec` pool width: `min(2, nproc)`.
    pub pool: usize,
}

/// Where runs leave traces and serve state: `perfbench/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `perfbench/out/trace-<workload>-<seed>.json`.
pub fn write_trace(workload: &str, seed: u64, tracer: &trace::Tracer) {
    let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload, seed)));
    match written {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

fn run_workload(name: &str, s: &Settings) -> Report {
    let w = match name {
        "route-suite" => route::RouteWorkload {
            name: "route-suite",
            profiles: chips::suite_profiles(),
            flows: vec![FlowKind::OverCell],
            per_profile: chips::suite_per_profile(s.seconds),
            serve: true,
        },
        "route-congested" => route::RouteWorkload {
            name: "route-congested",
            profiles: chips::congested_profiles(),
            flows: vec![FlowKind::OverCell],
            per_profile: chips::congested_per_profile(s.seconds),
            serve: false,
        },
        "channel-suite" => route::RouteWorkload {
            name: "channel-suite",
            profiles: chips::suite_profiles(),
            flows: vec![FlowKind::Channel2, FlowKind::Channel4],
            per_profile: chips::suite_per_profile(s.seconds),
            serve: false,
        },
        other => unreachable!("workload `{other}` was validated by parse_args"),
    };
    let mut report = ocr_exec::with_threads(s.pool, || route::run(&w, s));
    // Every run prints the full metric list of its mode, in one order.
    report.declare(if s.trace { &PER_LAYER } else { &END_TO_END });
    if s.trace {
        compare_with_record(name, s, &report);
    }
    report
}

/// Tells whether a traced run's deterministic counters still read as
/// recorded in `counters.json`, so a change in search behaviour shows
/// as a count. Informational: a changed count is not a failure.
fn compare_with_record(workload: &str, s: &Settings, report: &Report) {
    let record = ocr_obs::json::parse(include_str!("../counters.json")).expect("valid record");
    let field = |k: &str| record.get(k).and_then(|v| v.as_u64());
    if field("seed") != Some(s.seed) || field("seconds") != Some(s.seconds) {
        return;
    }
    let Some(recorded) = record.get("workloads").and_then(|w| w.get(workload)) else {
        return;
    };
    let changed: Vec<String> = DETERMINISTIC
        .iter()
        .filter_map(|name| {
            let now = report.metrics.iter().find(|(n, _, _)| n == name)?.1;
            let then = recorded.get(name)?.as_f64()?;
            (now != then).then(|| format!("{name} {then} -> {now}"))
        })
        .collect();
    if changed.is_empty() {
        eprintln!("{workload}: deterministic counters match perfbench/counters.json");
    } else {
        eprintln!(
            "{workload}: counters changed since perfbench/counters.json: {}",
            changed.join(", ")
        );
    }
}

fn parse_args() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut settings = Settings {
        seed: 0,
        seconds: 10,
        trace: false,
        pool: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => settings.seed = number()?,
            "--seconds" => settings.seconds = number()?.max(1),
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, settings))
}

fn main() {
    let (workload, settings) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in &names {
        let report = run_workload(name, &settings);
        println!(
            "{name} (seed {}, {}):",
            settings.seed,
            if settings.trace {
                "per-layer, traced"
            } else {
                "end-to-end"
            }
        );
        print!("{}", report.table());
        println!(
            "  ops attempted {} failed {}",
            report.attempted, report.failed
        );
        for p in &report.problems {
            eprintln!("{name}: MISMATCH {p}");
        }
        all_correct &= report.correct();
        lines.push(report.json());
    }
    if names.len() > 1 {
        for (name, line) in names.iter().zip(&lines) {
            println!("{name}: {line}");
        }
    }
    if let Some(last) = lines.last() {
        println!("{last}");
    }
    if !all_correct {
        std::process::exit(1);
    }
}
