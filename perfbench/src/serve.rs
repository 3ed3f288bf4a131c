//! The service layer, measured on the `route-suite` chips by that
//! workload's traced run: `ocr_serve::serve` in-process behind a
//! `NetIntake` on `127.0.0.1:0`, journaled, answering to disk.
//!
//! Two closed-loop clients each hold one connection, submit a chip,
//! wait for `<out>/<name>/status`, then submit the next. Every answer
//! must be `done` and its `routes.txt` byte-equal to the in-process
//! route of the same chip.

use crate::chips::Chip;
use crate::report::{filesystem_of, median, quantile, Report};
use crate::trace::Tracer;
use ocr_io::job::JobSpec;
use ocr_io::wire::{submit_payload, Response};
use ocr_obs::{Collector, Telemetry};
use ocr_serve::{
    client_connect, client_request, serve, JobStatus, NetConfig, NetIntake, ServeConfig,
    ServeReport,
};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients (each one connection, one job in flight).
pub const CLIENTS: usize = 2;
/// Longest a job may take from submit to answer before it counts as
/// failed.
const ANSWER_DEADLINE: Duration = Duration::from_secs(120);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The in-process daemon and the telemetry collector it records into.
struct Daemon {
    addr: String,
    out: PathBuf,
    collector: Collector,
    handle: std::thread::JoinHandle<Result<ServeReport, String>>,
}

impl Daemon {
    /// Binds the listener and starts the engine on its own thread with
    /// the default quantum and concurrency, a journal and an answer
    /// directory under `root`.
    fn start(root: &Path, pool: usize) -> Result<Daemon, String> {
        let config = ServeConfig {
            out: Some(root.join("out")),
            journal: Some(root.join("wal")),
            ..ServeConfig::default()
        };
        let net = NetConfig {
            stage: Some(root.join("stage")),
            ..NetConfig::default()
        };
        let collector = Collector::new();
        let mut intake = ocr_obs::with_collector(&collector, || NetIntake::bind(net))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = intake.local_addr().to_string();
        let c = collector.clone();
        let handle = std::thread::Builder::new()
            .name("bench-daemon".to_string())
            .spawn(move || {
                ocr_obs::with_collector(&c, || {
                    ocr_exec::with_threads(pool, || serve(Vec::new(), &mut intake, &config))
                })
                .map_err(|e| format!("serve: {e}"))
            })
            .map_err(|e| format!("spawn: {e}"))?;
        Ok(Daemon {
            addr,
            out: root.join("out"),
            collector,
            handle,
        })
    }

    fn request(&self, payload: &str) -> Result<Response, String> {
        let stream = client_connect(&self.addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        client_request(&stream, payload).map_err(|e| e.to_string())
    }

    /// Asks the daemon to drain and exit, and waits for it.
    fn stop(self) -> Result<(ServeReport, Telemetry), String> {
        let asked = self.request("shutdown");
        let served = self
            .handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        match asked {
            Ok(Response::Closing) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        Ok((served?, self.collector.snapshot()))
    }
}

/// One job as a client saw it.
struct Job {
    chip: usize,
    pass: usize,
    name: String,
    answer_ms: f64,
    traced: bool,
    error: Option<String>,
}

/// Waits for the atomically written `status` file of a job.
fn wait_for_answer(path: &Path) -> Result<(), String> {
    let start = Instant::now();
    while !path.exists() {
        if start.elapsed() > ANSWER_DEADLINE {
            return Err(format!("no answer within {ANSWER_DEADLINE:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// One client's share of a pass: takes the next chip of the pass until
/// none is left.
fn client(
    d: &Daemon,
    chips: &[Chip],
    pass: usize,
    next: &AtomicUsize,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    let stream: Result<TcpStream, String> =
        client_connect(&d.addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"));
    loop {
        let k = next.fetch_add(1, Ordering::SeqCst);
        if k >= chips.len() {
            return jobs;
        }
        let name = format!("p{pass}-{}", chips[k].name);
        let mut job = Job {
            chip: k,
            pass,
            name: name.clone(),
            answer_ms: 0.0,
            traced: tracer.is_some(),
            error: None,
        };
        let stream = match &stream {
            Ok(s) => s,
            Err(e) => {
                job.error = Some(e.clone());
                jobs.push(job);
                continue;
            }
        };
        let op = (pass * chips.len() + k) as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("job", op);
            let pong = t.span("wire.ping", op, || client_request(stream, "ping"));
            if !matches!(pong, Ok(Response::Pong)) {
                job.error = Some(format!("ping answered {pong:?}"));
            }
            t.enter("serve.accept", op);
        }
        let payload = submit_payload(&JobSpec::new(name.as_str(), "-"), &chips[k].text);
        let t0 = Instant::now();
        let accepted = client_request(stream, &payload);
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.enter("serve.run", op);
        }
        let answered = match accepted {
            Ok(Response::Accepted(n)) if n == name => {
                wait_for_answer(&d.out.join(&name).join("status"))
            }
            other => Err(format!("submit answered {other:?}")),
        };
        job.answer_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.exit();
        }
        if let Err(e) = answered {
            job.error.get_or_insert(e);
        }
        jobs.push(job);
    }
}

/// One pass: every chip submitted once, spread over the clients.
fn run_pass(d: &Daemon, chips: &[Chip], pass: usize, tracer: Option<&mut Tracer>) -> Vec<Job> {
    let next = AtomicUsize::new(0);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let mut tracers: Vec<Option<Tracer>> = (0..CLIENTS).map(|_| epoch.map(Tracer::new)).collect();
    let mut jobs: Vec<Job> = std::thread::scope(|sc| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .map(|t| sc.spawn(|| client(d, chips, pass, &next, t.as_mut())))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    if let Some(t) = tracer {
        for other in tracers.into_iter().flatten() {
            t.absorb(other);
        }
    }
    jobs.sort_by_key(|j| j.chip);
    jobs
}

/// What the daemon left on disk for one job: its `ckpt.write` and
/// `flow.level_b` spans (from `stats.json`, which covers the job's
/// final slice).
#[derive(Default)]
struct Answer {
    ckpt_writes: u64,
    ckpt_write_ns: u64,
    level_b_ns: u64,
}

fn read_answer(out: &Path, name: &str) -> Result<(String, String, Answer), String> {
    let dir = out.join(name);
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).map_err(|e| format!("{f}: {e}"));
    let status = read("status")?;
    let routes = read("routes.txt")?;
    let stats = ocr_obs::json::parse(&read("stats.json")?)?;
    let mut answer = Answer::default();
    let spans = stats
        .get("runs")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|r| r.get("spans"))
        .and_then(|s| s.as_array())
        .unwrap_or(&[]);
    for span in spans {
        let field = |k: &str| span.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        match span.get("name").and_then(|n| n.as_str()) {
            Some("ckpt.write") => {
                answer.ckpt_writes += field("count");
                answer.ckpt_write_ns += field("total_ns");
            }
            Some("flow.level_b") => answer.level_b_ns += field("total_ns"),
            _ => {}
        }
    }
    Ok((status, routes, answer))
}

/// Journal records per pass, attributed through each job's `accept`
/// record (`accept <seq> <name> ...`).
fn journal_records_per_pass(wal: &Path, passes: usize) -> Vec<u64> {
    let bytes = std::fs::read(wal.join("serve.journal")).unwrap_or_default();
    let replay = ocr_io::journal::replay_journal(&bytes);
    let mut pass_of_seq: BTreeMap<String, usize> = BTreeMap::new();
    let mut counts = vec![0u64; passes];
    for (_, payload) in &replay.records {
        let mut tokens = payload.split_whitespace();
        let (Some(kind), Some(seq)) = (tokens.next(), tokens.next()) else {
            continue;
        };
        if kind == "accept" {
            let pass = tokens
                .next()
                .and_then(|name| name.strip_prefix('p')?.split('-').next()?.parse().ok());
            if let Some(pass) = pass {
                pass_of_seq.insert(seq.to_string(), pass);
            }
        }
        if let Some(&pass) = pass_of_seq.get(seq) {
            if pass < passes {
                counts[pass] += 1;
            }
        }
    }
    counts
}

/// Jobs per service pass: the first chips of the workload, which
/// interleave the profiles, so every size is served.
pub const SERVE_CHIPS: usize = 30;

/// Serves the first [`SERVE_CHIPS`] of `chips` for two passes — the
/// first untraced, the second traced — and reports the service layer's
/// per-layer metrics. `reference[k]` is the in-process routes text of
/// chip `k`.
pub fn measure(
    chips: &[Chip],
    reference: &[Option<String>],
    pool: usize,
    seed: u64,
    report: &mut Report,
) {
    let chips = &chips[..chips.len().min(SERVE_CHIPS)];
    let root = crate::out_dir().join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let started = std::fs::create_dir_all(&root)
        .map_err(|e| format!("{}: {e}", root.display()))
        .and_then(|()| Daemon::start(&root, pool))
        .and_then(|d| match d.request("ping") {
            Ok(Response::Pong) => Ok(d),
            other => Err(format!("ping answered {other:?}")),
        });
    let daemon = match started {
        Ok(d) => d,
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.problem(format!("serve: daemon start: {e}"));
            return;
        }
    };
    eprintln!(
        "serve: {} jobs per pass, {CLIENTS} closed-loop clients, pool {pool}, state on {}",
        chips.len(),
        filesystem_of(&root)
    );
    let mut tracer = Tracer::new(Instant::now());
    let start = Instant::now();
    let mut jobs = run_pass(&daemon, chips, 0, None);
    jobs.extend(run_pass(&daemon, chips, 1, Some(&mut tracer)));
    let wall_s = start.elapsed().as_secs_f64();
    let (served, telemetry) = match daemon.stop() {
        Ok((served, telemetry)) => (served.jobs, telemetry),
        Err(e) => {
            report.problem(format!("serve: daemon stop: {e}"));
            (Vec::new(), Telemetry::default())
        }
    };

    // The output gate: every answer done and byte-equal to the
    // in-process route of its chip.
    let by_name: BTreeMap<&str, &ocr_serve::JobReport> =
        served.iter().map(|j| (j.name.as_str(), j)).collect();
    let out = root.join("out");
    let mut preempts = [0u64; 2];
    let mut ckpt_writes = [0u64; 2];
    let (mut ckpt_ns, mut level_b_ns) = (0u64, 0u64);
    for job in &jobs {
        report.attempted += 1;
        let mut verdict = || {
            if let Some(e) = &job.error {
                return Err(e.clone());
            }
            let served = by_name
                .get(job.name.as_str())
                .ok_or("not in the service report")?;
            if served.status != JobStatus::Done {
                return Err(format!("status {} {}", served.status, served.detail));
            }
            preempts[job.pass] += served.preempts;
            let (status, routes, answer) = read_answer(&out, &job.name)?;
            if status.trim_end() != "done" {
                return Err(format!("status file reads {status:?}"));
            }
            if reference[job.chip].as_deref() != Some(routes.as_str()) {
                return Err("routes.txt differs from the in-process route".to_string());
            }
            ckpt_writes[job.pass] += answer.ckpt_writes;
            ckpt_ns += answer.ckpt_write_ns;
            level_b_ns += answer.level_b_ns;
            Ok(())
        };
        if let Err(e) = verdict() {
            report.failed += 1;
            report.problem(format!("serve {}: {e}", job.name));
        }
    }
    let journal = journal_records_per_pass(&root.join("wal"), 2);
    for (what, per_pass) in [
        ("serve.preemptions", &preempts),
        ("serve.ckpt_writes", &ckpt_writes),
        ("journal.appends", &[journal[0], journal[1]]),
    ] {
        if per_pass[0] != per_pass[1] {
            report.problem(format!("{what} differ across passes: {per_pass:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    crate::write_trace("serve", seed, &tracer);

    let answers: Vec<f64> = jobs
        .iter()
        .filter(|j| !j.traced)
        .map(|j| j.answer_ms)
        .collect();
    let jobs_n = jobs.len().max(1) as f64;
    report.set("serve.answer_ms_p50", median(&answers));
    report.set("serve.answer_ms_p90", quantile(&answers, 0.9));
    report.set(
        "wire.ping_ms_p50",
        median(&tracer.durations_ms("wire.ping")),
    );
    let accept = tracer.durations_ms("serve.accept");
    report.set("serve.accept_ms_p50", median(&accept));
    report.set("serve.accept_ms_p90", quantile(&accept, 0.9));
    report.set(
        "serve.run_ms_p50",
        median(&tracer.durations_ms("serve.run")),
    );
    let counter = |name: &str| telemetry.counter(name).unwrap_or(0) as f64;
    report.set("serve.rounds", counter("serve.rounds") / 2.0);
    report.set("serve.preemptions", preempts[0] as f64);
    report.set("journal.appends", journal[0] as f64);
    report.set("serve.ckpt_writes", ckpt_writes[0] as f64);
    report.set("serve.ckpt_write_ms", ckpt_ns as f64 / 1e6 / jobs_n);
    report.set("serve.level_b_ms", level_b_ns as f64 / 1e6 / jobs_n);
    report.set(
        "exec.busy_ratio",
        counter("exec.busy_ns") / 1e9 / (pool as f64 * wall_s),
    );
}
