//! Batch-service contract (DESIGN.md §11): the `ocr-serve` scheduler is
//! deterministic, preemption is invisible in the answers, and a
//! poisoned job never takes the daemon or its siblings down.
//!
//! * Same job set + same budgets ⇒ byte-identical admission log and
//!   byte-identical routed outputs at any `OCR_THREADS`.
//! * A job preempted into an `ocr-ckpt-v1` checkpoint and resumed —
//!   possibly several times — produces exactly the routes of an
//!   uninterrupted standalone run.
//! * Per-job faults (injected panics, bad specs, step caps) become
//!   typed terminal statuses; every submission is answered.

use overcell_router::core::{
    ordering_from_name, FlowKind, FlowOptions, LevelBConfig, OverCellFlow,
};
use overcell_router::exec::with_threads;
use overcell_router::fault;
use overcell_router::gen::random::small_random;
use overcell_router::gen::GeneratedChip;
use overcell_router::io::ckpt::fnv1a_64;
use overcell_router::io::job::{parse_results, write_jobs, JobSpec};
use overcell_router::io::{write_chip, write_routes};
use overcell_router::serve::{
    load_job, run_jobs, serve, Intake, JobInput, JobStatus, LoadedChip, ServeConfig, ServeReport,
    SpoolIntake,
};
use std::path::PathBuf;

fn chip(seed: u64) -> GeneratedChip {
    small_random(6, 2, 3, 10, seed)
}

/// An in-memory submission (no spool round-trip) for scheduler tests.
fn input(name: &str, chip: &GeneratedChip, kind: FlowKind, priority: i64) -> JobInput {
    let mut spec = JobSpec::new(name, format!("{name}.ocr"));
    spec.flow = kind.name().to_string();
    spec.priority = priority;
    JobInput {
        spec,
        load: Ok(LoadedChip {
            kind,
            ordering: None,
            layout: chip.layout.clone(),
            placement: chip.placement.clone(),
            chip_hash: fnv1a_64(&write_chip(&chip.layout, &chip.placement)),
        }),
        base: None,
    }
}

/// Three over-cell jobs sized so a small quantum preempts at least one.
fn batch() -> Vec<JobInput> {
    vec![
        input("a", &chip(42), FlowKind::OverCell, 0),
        input("b", &chip(5), FlowKind::OverCell, 0),
        input("c", &chip(7), FlowKind::OverCell, 1),
    ]
}

fn tight() -> ServeConfig {
    ServeConfig {
        quantum: 8,
        max_concurrent: 2,
        ..ServeConfig::default()
    }
}

fn routes_of(report: &ServeReport, name: &str) -> String {
    report
        .jobs
        .iter()
        .find(|j| j.name == name)
        .unwrap_or_else(|| panic!("job {name} answered"))
        .routes
        .clone()
        .unwrap_or_else(|| panic!("job {name} has routes"))
}

#[test]
fn admission_log_and_outputs_are_identical_across_thread_counts() {
    let seq = with_threads(1, || run_jobs(batch(), &tight())).expect("serves");
    let par = with_threads(4, || run_jobs(batch(), &tight())).expect("serves");
    assert_eq!(
        seq.log, par.log,
        "admission log must not depend on OCR_THREADS"
    );
    assert_eq!(seq.total_steps, par.total_steps);
    for name in ["a", "b", "c"] {
        assert_eq!(
            routes_of(&seq, name),
            routes_of(&par, name),
            "job {name}: routed bytes must not depend on OCR_THREADS"
        );
    }
    assert!(
        seq.jobs.iter().any(|j| j.preempts > 0),
        "the tight quantum must preempt at least one job:\n{}",
        seq.log.join("\n")
    );
}

#[test]
fn preempted_and_resumed_jobs_match_uninterrupted_runs() {
    let report = run_jobs(batch(), &tight()).expect("serves");
    let preempted = report.jobs.iter().filter(|j| j.preempts > 0).count();
    assert!(
        preempted >= 1,
        "scheduler must slice:\n{}",
        report.log.join("\n")
    );
    for (name, seed) in [("a", 42), ("b", 5), ("c", 7)] {
        let job = report
            .jobs
            .iter()
            .find(|j| j.name == name)
            .expect("answered");
        assert_eq!(job.status, JobStatus::Done, "{name}: {}", job.detail);
        let chip = chip(seed);
        let direct = FlowKind::OverCell
            .build_with(FlowOptions::default())
            .run(&chip.layout, &chip.placement)
            .expect("direct run");
        assert_eq!(
            routes_of(&report, name),
            write_routes(&direct.layout, &direct.design),
            "job {name} ({} preemptions): serve answer must equal a \
             standalone `ocr route` run",
            job.preempts
        );
    }
}

#[test]
fn poisoned_job_leaves_daemon_and_siblings_unharmed() {
    // The plan's two fires cover the slice attempt and its retry, so
    // the victim is terminally poisoned; the fault site is per-job, so
    // siblings never trip it.
    let plan = fault::plan(9).panic_at("serve.job.b", 1.0, 2).build();
    let report = fault::with_plan(&plan, || run_jobs(batch(), &tight())).expect("serves");
    let victim = report
        .jobs
        .iter()
        .find(|j| j.name == "b")
        .expect("answered");
    assert_eq!(victim.status, JobStatus::Failed);
    assert!(
        victim.detail.contains("poisoned"),
        "victim detail: {}",
        victim.detail
    );
    for name in ["a", "c"] {
        let job = report
            .jobs
            .iter()
            .find(|j| j.name == name)
            .expect("answered");
        assert_eq!(
            job.status,
            JobStatus::Done,
            "sibling {name} must be unharmed: {}",
            job.detail
        );
    }
    // And the answers still match fault-free standalone runs.
    let clean = run_jobs(batch(), &tight()).expect("serves");
    for name in ["a", "c"] {
        assert_eq!(routes_of(&report, name), routes_of(&clean, name));
    }
}

#[test]
fn global_budget_exhaustion_finalizes_with_typed_statuses() {
    let config = ServeConfig {
        quantum: 8,
        max_concurrent: 1,
        max_total_steps: Some(8),
        ..ServeConfig::default()
    };
    let jobs = vec![
        input("first", &chip(42), FlowKind::OverCell, 0),
        input("starved", &chip(5), FlowKind::OverCell, 0),
    ];
    let report = run_jobs(jobs, &config).expect("serves");
    let first = report
        .jobs
        .iter()
        .find(|j| j.name == "first")
        .expect("answered");
    assert_eq!(
        first.status,
        JobStatus::Preempted,
        "the running job ends preempted when the global budget drains: {}",
        first.detail
    );
    assert!(first.steps > 0);
    assert!(
        first.routes.is_some(),
        "a preempted job is answered with its partial design"
    );
    let starved = report
        .jobs
        .iter()
        .find(|j| j.name == "starved")
        .expect("answered");
    assert_eq!(
        starved.status,
        JobStatus::Rejected,
        "a job that never got a slice ends rejected: {}",
        starved.detail
    );
    assert_eq!(starved.steps, 0);
    // Deterministic: the budget drains at the same point every time.
    let jobs = vec![
        input("first", &chip(42), FlowKind::OverCell, 0),
        input("starved", &chip(5), FlowKind::OverCell, 0),
    ];
    let again = run_jobs(jobs, &config).expect("serves");
    assert_eq!(report.log, again.log);
}

#[test]
fn per_job_step_cap_salvages_instead_of_preempting_forever() {
    let mut job = input("capped", &chip(42), FlowKind::OverCell, 0);
    job.spec.max_steps = Some(5);
    job.spec.salvage = true;
    let report = run_jobs(vec![job], &ServeConfig::default()).expect("serves");
    let capped = &report.jobs[0];
    assert_eq!(
        capped.status,
        JobStatus::Salvaged,
        "hitting the job's own cap is a complete (degraded) answer: {}",
        capped.detail
    );
    assert!(capped.degraded > 0, "the unfinished nets are degradations");
    assert_eq!(capped.preempts, 0, "its own cap is not a preemption");
}

#[test]
fn bad_submissions_are_answered_not_dropped() {
    let mut jobs = batch();
    jobs.push(JobInput {
        spec: JobSpec::new("broken", "missing.ocr"),
        load: Err("missing.ocr: no such chip".into()),
        base: None,
    });
    jobs.push(input("a", &chip(3), FlowKind::OverCell, 0)); // duplicate name
    let report = run_jobs(jobs, &tight()).expect("serves");
    assert_eq!(report.jobs.len(), 5, "every submission is answered");
    let broken = report
        .jobs
        .iter()
        .find(|j| j.name == "broken")
        .expect("answered");
    assert_eq!(broken.status, JobStatus::Rejected);
    assert!(broken.detail.contains("missing.ocr"));
    let dup = report
        .jobs
        .iter()
        .filter(|j| j.name == "a" && j.status == JobStatus::Rejected)
        .count();
    assert_eq!(dup, 1, "the duplicate is rejected, the original runs");
}

#[test]
fn late_duplicate_name_never_clobbers_the_original_answer() {
    /// Delivers its batches one per poll, but only once the engine is
    /// idle — so the duplicate arrives strictly after the original job
    /// has been answered.
    struct Late {
        queued: Vec<Vec<JobInput>>,
    }
    impl Intake for Late {
        fn poll(&mut self, idle: bool) -> Option<Vec<JobInput>> {
            if !idle {
                return Some(Vec::new());
            }
            if self.queued.is_empty() {
                None
            } else {
                Some(self.queued.remove(0))
            }
        }
    }
    let out = scratch("dup");
    let config = ServeConfig {
        out: Some(out.clone()),
        ..ServeConfig::default()
    };
    let original = input("a", &chip(42), FlowKind::OverCell, 0);
    let duplicate = input("a", &chip(3), FlowKind::OverCell, 0);
    let mut intake = Late {
        queued: vec![vec![duplicate]],
    };
    let report = serve(vec![original], &mut intake, &config).expect("serves");
    assert_eq!(report.jobs.len(), 2, "both submissions are answered");
    assert_eq!(report.jobs[0].status, JobStatus::Done);
    assert_eq!(report.jobs[1].status, JobStatus::Rejected);
    // The first job owns out/a/: the rejection must not touch it.
    let status = std::fs::read_to_string(out.join("a").join("status")).expect("status file");
    assert_eq!(status, "done\n", "the original's status survives");
    assert!(out.join("a").join("routes.txt").exists());
    // And the service's own results file still re-parses: one record
    // per name, owned by the first answer.
    let results = std::fs::read_to_string(out.join("results.txt")).expect("results.txt");
    let records = parse_results(&results).expect("service results re-parse");
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name, "a");
    assert_eq!(records[0].status, "done");
    assert_eq!(records, report.records());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn order_jobs_route_with_the_requested_strategy() {
    let dir = scratch("order");
    let chip = chip(42);
    std::fs::write(
        dir.join("chip.ocr"),
        write_chip(&chip.layout, &chip.placement),
    )
    .expect("chip");
    let mut ordered = JobSpec::new("crit", "chip.ocr");
    ordered.order = Some("criticality".into());
    let mut bogus = JobSpec::new("bogus", "chip.ocr");
    bogus.order = Some("best".into());
    let jobs = vec![load_job(ordered, &dir), load_job(bogus, &dir)];
    let report = run_jobs(jobs, &ServeConfig::default()).expect("serves");
    assert_eq!(report.jobs[0].status, JobStatus::Done);
    assert_eq!(report.jobs[1].status, JobStatus::Rejected);
    assert!(report.jobs[1].detail.contains("unknown ordering"));
    // The job's routes are exactly a standalone `--order criticality`
    // run — the ordering really reached the flow.
    let direct = OverCellFlow {
        level_b: LevelBConfig {
            ordering: ordering_from_name("criticality").expect("known ordering"),
            ..LevelBConfig::default()
        },
        ..OverCellFlow::default()
    }
    .run(&chip.layout, &chip.placement)
    .expect("direct run");
    assert_eq!(
        routes_of(&report, "crit"),
        write_routes(&direct.layout, &direct.design)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A collision-free scratch directory for the on-disk spool test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocr-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn spool_drain_writes_per_job_answers_to_disk() {
    let spool = scratch("spool");
    let out = scratch("out");
    let chip = chip(42);
    std::fs::write(
        spool.join("chip.ocr"),
        write_chip(&chip.layout, &chip.placement),
    )
    .expect("chip");
    let mut salvage = JobSpec::new("deep", "chip.ocr");
    salvage.salvage = true;
    std::fs::write(
        spool.join("batch.job"),
        write_jobs(&[JobSpec::new("quick", "chip.ocr"), salvage]),
    )
    .expect("job file");
    let config = ServeConfig {
        out: Some(out.clone()),
        quantum: 8,
        max_concurrent: 2,
        ..ServeConfig::default()
    };
    let mut intake = SpoolIntake::new(&spool, 1, true);
    let report = serve(Vec::new(), &mut intake, &config).expect("serves");
    assert!(intake.take_error().is_none());
    assert_eq!(report.jobs.len(), 2);
    assert!(report.jobs.iter().all(|j| j.status == JobStatus::Done));
    // The service's on-disk answers: per-job dirs plus service files.
    for name in ["quick", "deep"] {
        let dir = out.join(name);
        let status = std::fs::read_to_string(dir.join("status")).expect("status file");
        assert_eq!(status, "done\n");
        let routes = std::fs::read_to_string(dir.join("routes.txt")).expect("routes file");
        assert_eq!(routes, routes_of(&report, name));
        let stats = std::fs::read_to_string(dir.join("stats.json")).expect("stats file");
        let doc = overcell_router::obs::json::parse(&stats).expect("stats.json parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("ocr-stats-v1")
        );
    }
    let log = std::fs::read_to_string(out.join("serve.log")).expect("serve.log");
    assert_eq!(log, format!("{}\n", report.log.join("\n")));
    let results = std::fs::read_to_string(out.join("results.txt")).expect("results.txt");
    let records = parse_results(&results).expect("results parse");
    assert_eq!(records.len(), 2);
    assert_eq!(records, report.records());
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&out);
}
