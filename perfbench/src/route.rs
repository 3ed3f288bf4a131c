//! The in-process route workloads: `route-suite`, `route-congested`
//! and `channel-suite`.
//!
//! One op is what `ocr route --routes` does for one chip: parse the
//! chip text, run the flow, validate the routed design and render the
//! routes text. The untraced op calls `FlowKind::run`; the traced op
//! makes the same calls layer by layer (partition, Level A channels,
//! grid build, Level B, oracle) with a span around each, and must
//! render byte-identical routes.

use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Settings;
use ocr_channel::{route_chip_channels, ChannelRouterKind, ChipChannelOptions, MultilayerOptions};
use ocr_core::{
    partition_nets, FlowKind, FlowOptions, LevelBConfig, LevelBRouter, PartitionStrategy,
    RoutingStats,
};
use ocr_io::{parse_chip, write_routes};
use ocr_netlist::{validate_routed_design, RouteMetrics};
use ocr_verify::{verify_with, VerifyOptions};
use std::hint::black_box;
use std::time::Instant;

/// Level B search counters of one op. They are deterministic, so every
/// pass must reproduce them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounters {
    pub expanded_vertices: u64,
    pub window_expansions: u64,
    pub candidates_examined: u64,
    pub connections: u64,
    pub maze_fallbacks: u64,
    pub maze_expanded: u64,
    pub rips: u64,
}

impl SearchCounters {
    fn of(stats: Option<&RoutingStats>) -> SearchCounters {
        stats.map_or_else(SearchCounters::default, |s| SearchCounters {
            expanded_vertices: s.expanded_vertices as u64,
            window_expansions: s.window_expansions as u64,
            candidates_examined: s.candidates_examined as u64,
            connections: s.connections as u64,
            maze_fallbacks: s.maze_fallbacks as u64,
            maze_expanded: s.maze_expanded as u64,
            rips: s.rips as u64,
        })
    }

    fn add(&mut self, o: &SearchCounters) {
        self.expanded_vertices += o.expanded_vertices;
        self.window_expansions += o.window_expansions;
        self.candidates_examined += o.candidates_examined;
        self.connections += o.connections;
        self.maze_fallbacks += o.maze_fallbacks;
        self.maze_expanded += o.maze_expanded;
        self.rips += o.rips;
    }
}

/// Routing quality of one op (the paper's Table 2–3 measures).
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub routed_nets: u64,
    pub wire_length: f64,
    pub vias: u64,
    pub area: f64,
}

impl Quality {
    pub fn add(&mut self, o: &Quality) {
        self.routed_nets += o.routed_nets;
        self.wire_length += o.wire_length;
        self.vias += o.vias;
        self.area += o.area;
    }
}

/// What one op produced, for the output gate.
pub struct Routed {
    pub routes: String,
    pub counters: SearchCounters,
    pub quality: Quality,
    /// Validation errors plus oracle violations.
    pub violations: usize,
}

fn routed(
    metrics: &RouteMetrics,
    stats: Option<&RoutingStats>,
    violations: usize,
    routes: String,
) -> Routed {
    Routed {
        routes,
        counters: SearchCounters::of(stats),
        quality: Quality {
            routed_nets: metrics.routed_nets as u64,
            wire_length: metrics.wire_length as f64,
            vias: metrics.vias as u64,
            area: metrics.layout_area as f64,
        },
        violations,
    }
}

/// Flow options of an op: the channel flows run the oracle
/// (`FlowOptions::verified`), the over-cell flow runs as `ocr route`.
fn options_for(kind: FlowKind) -> FlowOptions {
    match kind {
        FlowKind::OverCell => FlowOptions::new(),
        _ => FlowOptions::verified(),
    }
}

/// The untraced op: one `FlowKind` run between parse and render.
pub fn route_op(text: &str, kind: FlowKind) -> Result<Routed, String> {
    let (layout, placement) = parse_chip(text).map_err(|e| format!("parse: {e}"))?;
    let result = kind
        .build_with(options_for(kind))
        .run(&layout, &placement)
        .map_err(|e| format!("{kind}: {e}"))?;
    let errors = validate_routed_design(&result.layout, &result.design);
    let routes = write_routes(&result.layout, &result.design);
    let oracle = result.verify.as_ref().map_or(0, |r| r.violations.len());
    Ok(routed(
        &result.metrics,
        result.stats.as_ref(),
        errors.len() + oracle,
        routes,
    ))
}

/// Level A chip-channel options of a flow, as its `FlowKind` builds
/// them (the over-cell flow and `Channel2` use the two-layer default).
fn channel_options(kind: FlowKind) -> ChipChannelOptions {
    match kind {
        FlowKind::Channel4 => ChipChannelOptions {
            router: ChannelRouterKind::FourLayer(MultilayerOptions::default()),
            pitch: None,
        },
        _ => ChipChannelOptions::default(),
    }
}

/// The traced op: the same layers called one by one, each in a span.
fn route_op_traced(text: &str, kind: FlowKind, t: &mut Tracer, op: u64) -> Result<Routed, String> {
    t.enter("op", op);
    let out = (|| {
        let (layout, placement) = t
            .span("io.parse", op, || parse_chip(text))
            .map_err(|e| format!("parse: {e}"))?;
        let strategy = match kind {
            FlowKind::OverCell => PartitionStrategy::ByClass,
            _ => PartitionStrategy::AllA,
        };
        let (set_a, set_b) = t
            .span("core.partition", op, || partition_nets(&layout, &strategy))
            .map_err(|e| format!("partition: {e}"))?;
        let mut a = t
            .span("channel.level_a", op, || {
                route_chip_channels(&layout, &placement, &set_a, channel_options(kind))
            })
            .map_err(|e| format!("level A: {e}"))?;
        let mut stats = None;
        let mut oracle = 0;
        if kind == FlowKind::OverCell {
            let mut router = t
                .span("grid.build", op, || {
                    LevelBRouter::new(&a.expanded, &set_b, LevelBConfig::default())
                })
                .map_err(|e| format!("grid: {e}"))?;
            let b = t
                .span("core.level_b", op, || router.route_all())
                .map_err(|e| format!("level B: {e}"))?;
            drop(router);
            a.design.merge(b.design);
            stats = Some(b.stats);
        }
        let metrics = RouteMetrics::of(&a.design, &a.expanded);
        if kind != FlowKind::OverCell {
            let report = t.span("verify.oracle", op, || {
                verify_with(&a.expanded, &a.design, &VerifyOptions::default())
            });
            oracle = report.violations.len();
        }
        let errors = t.span("netlist.validate", op, || {
            validate_routed_design(&a.expanded, &a.design)
        });
        let routes = t.span("io.write_routes", op, || {
            write_routes(&a.expanded, &a.design)
        });
        Ok(routed(
            &metrics,
            stats.as_ref(),
            errors.len() + oracle,
            routes,
        ))
    })();
    t.exit();
    out
}

/// Which route workload runs, and how its chips are drawn.
pub struct RouteWorkload {
    pub name: &'static str,
    pub profiles: Vec<ocr_gen::spec::BenchmarkSpec>,
    pub flows: Vec<FlowKind>,
    /// Chips drawn from each profile.
    pub per_profile: usize,
    /// The traced run also serves the chips through `ocr serve` over
    /// TCP, measuring the service layer (see [`crate::serve`]).
    pub serve: bool,
}

/// Setting the workload up `SETUPS` times gives `setup_s` as a median.
pub const SETUPS: usize = 3;

/// One pass: every (chip, flow) op once.
struct Pass {
    wall_s: f64,
    op_ms: Vec<f64>,
    outputs: Vec<Result<Routed, String>>,
}

fn run_pass(
    chips: &[crate::chips::Chip],
    flows: &[FlowKind],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut op_ms = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    for (c, chip) in chips.iter().enumerate() {
        for (f, &kind) in flows.iter().enumerate() {
            let op = (c * flows.len() + f) as u64;
            let t0 = Instant::now();
            let out = match tracer.as_deref_mut() {
                Some(t) => route_op_traced(black_box(&chip.text), kind, t, op),
                None => route_op(black_box(&chip.text), kind),
            };
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            outputs.push(black_box(out));
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        op_ms,
        outputs,
    }
}

/// Runs a route workload and reports its end-to-end metrics (or, with
/// `settings.trace`, its per-layer metrics).
pub fn run(w: &RouteWorkload, s: &Settings) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut chips = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        chips = crate::chips::generate_chips(&w.profiles, s.seed, w.per_profile);
        // Warm-up: the first op of the set, untimed by the passes.
        let warm = route_op(&chips[0].text, w.flows[0]);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = warm {
            report.problem(format!("warm-up {}: {e}", chips[0].name));
        }
    }
    eprintln!(
        "{}: {} chips x {} flow(s) per pass, seed {}",
        w.name,
        chips.len(),
        w.flows.len(),
        s.seed
    );
    for line in crate::chips::describe(&w.profiles) {
        eprintln!("  profile {line}");
    }

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut reference: Vec<Option<(String, SearchCounters)>> = Vec::new();
    let mut quality = Quality::default();
    let mut pass_counters = SearchCounters::default();
    // Each op's untraced times, one per pass, indexed like `reference`.
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let (mut plain_s, mut plain_n, mut traced_s, mut traced_n) = (0.0, 0u32, 0.0, 0u32);
    let mut traced_ops = 0u64;
    let mut passes = 0usize;
    let run_start = Instant::now();
    loop {
        let traced = s.trace && passes % 2 == 1;
        let pass = run_pass(&chips, &w.flows, traced.then_some(&mut tracer));
        if traced {
            traced_s += pass.wall_s;
            traced_n += 1;
            traced_ops += pass.outputs.len() as u64;
        } else {
            plain_s += pass.wall_s;
            plain_n += 1;
            op_ms.resize_with(pass.op_ms.len(), Vec::new);
            for (times, &ms) in op_ms.iter_mut().zip(&pass.op_ms) {
                times.push(ms);
            }
        }
        for (i, out) in pass.outputs.into_iter().enumerate() {
            report.attempted += 1;
            let chip = &chips[i / w.flows.len()].name;
            let flow = w.flows[i % w.flows.len()];
            let r = match out {
                Ok(r) => r,
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("pass {passes} {chip} {flow}: {e}"));
                    if passes == 0 {
                        reference.push(None);
                    }
                    continue;
                }
            };
            let mut ok = true;
            if r.violations > 0 {
                ok = false;
                report.problem(format!(
                    "pass {passes} {chip} {flow}: {} validation/oracle violations",
                    r.violations
                ));
            }
            if passes == 0 {
                quality.add(&r.quality);
                pass_counters.add(&r.counters);
                reference.push(Some((r.routes, r.counters)));
            } else if let Some((routes, counters)) = &reference[i] {
                if *routes != r.routes {
                    ok = false;
                    report.problem(format!(
                        "pass {passes} {chip} {flow}: routes differ from pass 0{}",
                        if traced {
                            " (traced layer-by-layer run)"
                        } else {
                            ""
                        }
                    ));
                }
                if *counters != r.counters {
                    ok = false;
                    report.problem(format!(
                        "pass {passes} {chip} {flow}: search counters {:?} differ from pass 0 {:?}",
                        r.counters, counters
                    ));
                }
            }
            if !ok {
                report.failed += 1;
            }
        }
        passes += 1;
        // Stop at the pass boundary nearest `--seconds`, after two passes
        // at least.
        let elapsed = run_start.elapsed().as_secs_f64();
        if passes >= 2 && elapsed + pass.wall_s / 2.0 >= s.seconds as f64 {
            break;
        }
    }
    eprintln!(
        "{}: {passes} passes, {} ops, {:.2} s",
        w.name,
        report.attempted,
        run_start.elapsed().as_secs_f64()
    );

    if !s.trace {
        end_to_end(&mut report, &op_ms, &setup_s, &quality);
        return report;
    }

    crate::write_trace(w.name, s.seed, &tracer);
    let selfs = tracer.self_times();
    let per_op_ms = |name: &str| {
        selfs.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6) / traced_ops.max(1) as f64
    };
    let c = &pass_counters;
    let level_b_s = tracer.total_ns("core.level_b") as f64 / 1e9;
    let op_total = tracer.total_ns("op") as f64;
    let covered = op_total - selfs.get("op").map_or(0.0, |&(ns, _)| ns as f64);
    report.set("core.level_b_ms", per_op_ms("core.level_b"));
    let expanded_per_s = if level_b_s > 0.0 {
        (c.expanded_vertices * traced_n as u64) as f64 / level_b_s
    } else {
        0.0
    };
    report.set("core.expanded_per_s", expanded_per_s);
    let window_attempts = (c.connections + c.window_expansions) as f64;
    report.set(
        "core.window_success_ratio",
        ratio((c.connections - c.maze_fallbacks) as f64, window_attempts),
    );
    report.set("core.expanded_vertices", c.expanded_vertices as f64);
    report.set("core.window_expansions", c.window_expansions as f64);
    report.set("core.candidates_examined", c.candidates_examined as f64);
    report.set("core.connections", c.connections as f64);
    report.set("core.rips", c.rips as f64);
    report.set("maze.fallbacks", c.maze_fallbacks as f64);
    report.set("maze.expanded", c.maze_expanded as f64);
    report.set(
        "maze.fallback_share",
        ratio(c.maze_fallbacks as f64, c.connections as f64),
    );
    report.set("channel.level_a_ms", per_op_ms("channel.level_a"));
    report.set("verify.oracle_ms", per_op_ms("verify.oracle"));
    report.set("grid.build_ms", per_op_ms("grid.build"));
    report.set("io.parse_ms", per_op_ms("io.parse"));
    report.set("io.write_routes_ms", per_op_ms("io.write_routes"));
    report.set("core.partition_ms", per_op_ms("core.partition"));
    report.set("netlist.validate_ms", per_op_ms("netlist.validate"));
    report.set(
        "bench.trace_overhead_ratio",
        ratio(traced_s / traced_n as f64, plain_s / plain_n as f64),
    );
    report.set("bench.span_coverage", ratio(covered, op_total));
    if w.serve {
        debug_assert_eq!(w.flows, [FlowKind::OverCell]);
        let routes: Vec<Option<String>> = reference
            .into_iter()
            .map(|r| r.map(|(routes, _)| routes))
            .collect();
        crate::serve::measure(&chips, &routes, s.pool, s.seed, &mut report);
    }
    report
}

/// Reports the end-to-end metrics: latency quantiles of the untraced
/// ops, the median set-up, memory, the success ratio, and one pass's
/// routing quality.
///
/// `op_ms` holds each op's times over the untraced passes. An op's time
/// is the fastest of its passes: the passes of an op are seconds apart,
/// so a burst of load on the shared host slows at most some of them.
pub fn end_to_end(report: &mut Report, op_ms: &[Vec<f64>], setup_s: &[f64], quality: &Quality) {
    let per_op: Vec<f64> = op_ms
        .iter()
        .map(|times| times.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    report.set("op_ms_p50", median(&per_op));
    report.set("op_ms_p75", quantile(&per_op, 0.75));
    report.set("setup_s", median(setup_s));
    report.set("peak_rss_mb", peak_rss_mb());
    let ok = report.attempted.saturating_sub(report.failed) as f64;
    let success = ok / report.attempted.max(1) as f64;
    report.set("success_ratio", success);
    report.set("routed_nets", quality.routed_nets as f64);
    report.set("wire_length_dbu", quality.wire_length);
    report.set("vias", quality.vias as f64);
    report.set("layout_area_dbu2", quality.area);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
