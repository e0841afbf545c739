//! # rechisel-loopbench
//!
//! End-to-end benchmark of the ReChisel reflection loop (generate → check → lower
//! → emit → simulate → review → revise), driven from outside the program through
//! the public API of the layer crates.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see [`workload`]): `paper_sweep` (the paper protocol, 10,800 runs on
//! one closed-loop worker), `served_sessions` (seeded `run_session` requests over
//! loopback TCP from two closed-loop clients) and `large_designs` (random
//! reference designs of about 80 netlist definitions with long testbenches). See
//! `WORKLOADS.md` for why each exists and what each per-layer metric should move.
//!
//! Every invocation first sets the workload up several times (at least
//! [`SETUP_REPEATS`], and for at least [`SETUP_MIN_TIME`]; the median is
//! `setup_s`). `--trace 0` then measures the end-to-end metrics over a timed window
//! ([`timing`], [`served`]), and afterwards runs every operation once more with its
//! verdicts re-checked independently ([`check`]). `--trace 1` prints
//! per-layer metrics from spans recorded around calls into each layer ([`trace`])
//! and writes the spans to `.bench_trace/<workload>.{runs,spans}.tsv`. The last
//! line of standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`; failed operations are listed above it.
//!
//! An operation is one reflection run (on `served_sessions`, one request). It fails
//! when it panics or errors, gets no terminal reply or `busy`, or reports an
//! iteration status that the independent re-check contradicts. `correct` is false
//! when an operation got no verdict, or when a timed verdict differs from the one
//! the same input got outside the timed window (a served reply from the in-process
//! run, a timed run from the reference pass).

#![warn(missing_docs)]

pub mod check;
pub mod report;
pub mod served;
pub mod timing;
pub mod trace;
pub mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use rechisel_benchsuite::{full_suite, SUITE_SIZE};
use rechisel_core::RunEventKind;
use rechisel_firrtl::pipeline::PassManager;
use rechisel_serve::SessionOutcome;

use crate::check::{reference_pass, RunCheck};
use crate::report::{median, peak_rss_mb, percentile, Metric, Report};
use crate::served::{draw_requests, served_window, session_requests, Served, REQUESTS};
use crate::timing::{sweep_once, timed_sweeps, RunRecord};
use crate::trace::Tracer;
use crate::workload::{build, SetupTimes, Sweep, WorkloadKind};

/// Closed-loop workers of the in-process workloads (the paper protocol runs on one).
pub const WORKERS: usize = 1;

/// Set-up runs at least this many times per invocation (`setup_s` is the median)…
pub const SETUP_REPEATS: usize = 7;

/// …and is repeated until this much set-up time has passed, up to
/// [`SETUP_MAX_REPEATS`] times, so that short set-ups get enough samples for a
/// steady median.
pub const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// The most set-ups per invocation.
pub const SETUP_MAX_REPEATS: usize = 51;

/// Whether another set-up is due after `done` set-ups that took `spent` in all.
fn more_setups(done: usize, spent: Duration) -> bool {
    done < SETUP_REPEATS || (spent < SETUP_MIN_TIME && done < SETUP_MAX_REPEATS)
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: WorkloadKind,
    /// Workload seed (0 = the paper protocol).
    pub seed: u64,
    /// Minimum length of the timed window.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end timed run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
///
/// # Errors
///
/// Returns a usage message for unknown flags, missing values and bad numbers.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workload: WorkloadKind::PaperSweep,
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a whole number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = Duration::from_secs(number()?.clamp(1, 600)),
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

/// The result of one invocation: the report plus the failed operations' labels.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The result line's content.
    pub report: Report,
    /// `label: reason` of every failed operation.
    pub failures: Vec<String>,
    /// Digest of every operation's outcome, in operation order.
    pub digest: u64,
    /// Lines about the measurement itself (such as drift within the window),
    /// printed above the result.
    pub notes: Vec<String>,
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Returns a message when the server cannot start or the span file cannot be
/// written.
pub fn run(options: &Options) -> Result<Outcome, String> {
    match options.workload {
        WorkloadKind::ServedSessions => run_served(options),
        kind => run_in_process(kind, options),
    }
}

fn median_secs(values: impl Iterator<Item = Duration>) -> f64 {
    median(&values.map(|d| d.as_secs_f64()).collect::<Vec<_>>())
}

/// Builds the workload once, or as often as [`more_setups`] asks when `repeat`,
/// dropping each build before the next; returns the last build and every build's
/// set-up times.
fn repeated_build(
    kind: WorkloadKind,
    seed: u64,
    requests: &[workload::RunKey],
    repeat: bool,
) -> (Sweep, Vec<SetupTimes>) {
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    let mut last = None;
    while last.is_none() || (repeat && more_setups(setups.len(), spent)) {
        drop(last.take());
        let (sweep, times) = build(kind, seed, requests);
        spent += times.total();
        setups.push(times);
        last = Some(sweep);
    }
    (last.expect("at least one build"), setups)
}

fn run_in_process(kind: WorkloadKind, options: &Options) -> Result<Outcome, String> {
    let (sweep, setups) = repeated_build(kind, options.seed, &[], true);
    let setup_s = median_secs(setups.iter().map(SetupTimes::total));

    if !options.trace {
        // Time, and only then check: the reference pass's own memory (recorded
        // candidates, re-check state) must not count in `peak_rss_mb`.
        let window = timed_sweeps(&sweep, WORKERS, options.seconds);
        let peak_rss = peak_rss_mb();
        let latencies = window.run_latencies_ns();
        let metrics = vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("evals_per_s", "1/s", window.evals_per_s()),
            Metric::new("run_p50_ms", "ms", percentile(&latencies, 0.50) as f64 * 1e-6),
            Metric::new("run_p90_ms", "ms", percentile(&latencies, 0.90) as f64 * 1e-6),
            Metric::new("run_p99_ms", "ms", percentile(&latencies, 0.99) as f64 * 1e-6),
            Metric::new("peak_rss_mb", "MB", peak_rss),
        ];
        let checks = reference_pass(&sweep, None);
        let diverged: Vec<bool> = window
            .digests
            .iter()
            .zip(&checks)
            .map(|(digest, check)| digest.is_none() || *digest != check.digest)
            .collect();
        let mut outcome = in_process_outcome(&sweep, &checks, &diverged, metrics);
        let walls: Vec<String> =
            window.sweeps.iter().map(|(wall, _)| format!("{:.3}", wall.as_secs_f64())).collect();
        outcome.notes.push(format!(
            "timed window: {} sweeps of {} s; slowest over fastest sweep {:+.1}%",
            walls.len(),
            walls.join(" / "),
            window.sweep_drift() * 100.0
        ));
        return Ok(outcome);
    }

    let before = sweep_once(&sweep, WORKERS);
    let tracer = Tracer::new();
    let checks = reference_pass(&sweep, Some(&tracer));
    let after = sweep_once(&sweep, WORKERS);
    let diverged = diverged_runs(&checks, &[&before, &after]);
    let untraced_s = median(&[total_latency(&before), total_latency(&after)]);
    let mut metrics = layer_metrics(&tracer, untraced_s);
    metrics.extend(serve_metrics(None));
    metrics.extend(setup_metrics(&setups));
    write_spans(&tracer, &sweep)?;
    Ok(in_process_outcome(&sweep, &checks, &diverged, metrics))
}

fn total_latency(records: &[RunRecord]) -> f64 {
    records.iter().map(|r| r.latency.as_secs_f64()).sum()
}

/// Runs whose untraced outcome differs from the reference pass in any sweep.
fn diverged_runs(checks: &[RunCheck], sweeps: &[&[RunRecord]]) -> Vec<bool> {
    (0..checks.len())
        .map(|i| sweeps.iter().any(|s| s[i].digest.is_none() || s[i].digest != checks[i].digest))
        .collect()
}

fn in_process_outcome(
    sweep: &Sweep,
    checks: &[RunCheck],
    diverged: &[bool],
    metrics: Vec<Metric>,
) -> Outcome {
    let mut failures = Vec::new();
    let mut correct = true;
    for (index, check) in checks.iter().enumerate() {
        correct &= check.digest.is_some() && !diverged[index];
        let reason = match (&check.failure, diverged[index]) {
            (Some(reason), _) => reason.as_str(),
            (None, true) => "a timed run differs from the reference pass",
            (None, false) => continue,
        };
        failures.push(format!("{}: {reason}", sweep.label(sweep.runs[index])));
    }
    Outcome {
        report: Report {
            correct,
            attempted: checks.len() as u64,
            failed: failures.len() as u64,
            metrics,
        },
        failures,
        digest: check::combine_digests(checks.iter().map(|c| c.digest.unwrap_or(0))),
        notes: Vec::new(),
    }
}

fn setup_metrics(setups: &[SetupTimes]) -> Vec<Metric> {
    vec![
        Metric::new("benchsuite.setup.suite_s", "s", median_secs(setups.iter().map(|s| s.suite))),
        Metric::new(
            "benchsuite.setup.reference_s",
            "s",
            median_secs(setups.iter().map(|s| s.reference)),
        ),
    ]
}

/// Per-layer metrics from the traced reference pass. `untraced_s` is the summed
/// run time of an untraced sweep of the same runs.
fn layer_metrics(tracer: &Tracer, untraced_s: f64) -> Vec<Metric> {
    let count = |name: &str| tracer.calls(name) as f64;
    let mut m = Vec::new();
    for (layer, span) in [
        ("llm.generate", "llm.generate"),
        ("llm.revise", "llm.revise"),
        ("core.review", "core.review"),
        ("core.inspect", "core.inspect"),
    ] {
        m.push(Metric::new(format!("{layer}.calls"), "count", count(span)));
        m.push(Metric::new(format!("{layer}.s"), "s", tracer.seconds(span)));
    }
    const AGENTS: [&str; 4] = ["llm.generate", "llm.revise", "core.review", "core.inspect"];
    let session_s = tracer.seconds("core.session");
    let agents_s = tracer.child_seconds("core.session", &AGENTS);
    m.push(Metric::new("core.escapes", "count", tracer.counter("core.escapes")));
    m.push(Metric::new("core.session.s", "s", session_s));
    m.push(Metric::new("core.session.self_s", "s", session_s - agents_s));
    m.push(Metric::new("core.compile.s", "s", tracer.seconds("core.compile")));
    m.push(Metric::new("core.tape.patched", "count", tracer.counter("core.tape.patched")));
    m.push(Metric::new("core.tape.rebuilt", "count", tracer.counter("core.tape.rebuilt")));
    for verdict in ["accepted", "rejected"] {
        let span = format!("firrtl.check.{verdict}");
        m.push(Metric::new(span.clone(), "count", count(&span)));
        m.push(Metric::new(format!("{span}_s"), "s", tracer.seconds(&span)));
    }
    for pass in PassManager::standard().names() {
        let name = format!("firrtl.pass.{pass}.s");
        m.push(Metric::new(name.clone(), "s", tracer.counter(&name)));
    }
    m.push(Metric::new("firrtl.lower.calls", "count", count("firrtl.lower")));
    m.push(Metric::new("firrtl.lower.s", "s", tracer.seconds("firrtl.lower")));
    let tiers = ["identical", "patched", "scoped", "full_first", "full_other"];
    let tier_counts: Vec<f64> =
        tiers.iter().map(|t| tracer.counter(&format!("firrtl.incremental.{t}"))).collect();
    for (tier, n) in tiers.iter().zip(&tier_counts) {
        m.push(Metric::new(format!("firrtl.incremental.{tier}"), "count", *n));
    }
    let compiled: f64 = tier_counts.iter().sum();
    let reused: f64 = tier_counts[..3].iter().sum();
    m.push(Metric::new(
        "firrtl.incremental.reuse_ratio",
        "ratio",
        if compiled > 0.0 { reused / compiled } else { 0.0 },
    ));
    m.push(Metric::new("verilog.emit.calls", "count", count("verilog.emit")));
    m.push(Metric::new("verilog.emit.s", "s", tracer.seconds("verilog.emit")));
    m.push(Metric::new("sim.tape_compile.calls", "count", count("sim.tape_compile")));
    m.push(Metric::new("sim.tape_compile.s", "s", tracer.seconds("sim.tape_compile")));
    let test_s = tracer.seconds("sim.test");
    let points = tracer.counter("sim.test.points");
    m.push(Metric::new("sim.test.calls", "count", count("sim.test")));
    m.push(Metric::new("sim.test.s", "s", test_s));
    m.push(Metric::new("sim.test.points", "count", points));
    m.push(Metric::new(
        "sim.test.ns_per_point",
        "ns",
        if points > 0.0 { test_s * 1e9 / points } else { 0.0 },
    ));
    // Wall time of the traced runs; the loop's compile and simulate work is
    // attributed by its replay.
    let wall_s = tracer.seconds("bench.run");
    let attributed_s = agents_s + tracer.seconds("core.compile") + test_s;
    m.push(Metric::new(
        "trace.unattributed_share",
        "ratio",
        if wall_s > 0.0 { (wall_s - attributed_s) / wall_s } else { 0.0 },
    ));
    m.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        if untraced_s > 0.0 { wall_s / untraced_s - 1.0 } else { 0.0 },
    ));
    m
}

/// The serving layer's counters: from the `stats` op and the replies on
/// `served_sessions`, zero on the in-process workloads.
fn serve_metrics(served: Option<(&rechisel_serve::client::StatsReply, f64)>) -> Vec<Metric> {
    let field = |section: &str, name: &str| {
        served
            .and_then(|(stats, _)| stats.raw.get(section)?.get(name)?.as_f64())
            .unwrap_or_default()
    };
    let mut m: Vec<Metric> = ["requests", "replies", "busy", "errors", "events", "jobs_high_water"]
        .into_iter()
        .map(|name| Metric::new(format!("serve.{name}"), "count", field("server", name)))
        .collect();
    m.push(Metric::new("serve.latency_minus_compute_ms", "ms", served.map_or(0.0, |(_, ms)| ms)));
    m.push(Metric::new("core.cache.hits", "count", field("cache", "hits")));
    m.push(Metric::new("core.cache.misses", "count", field("cache", "misses")));
    m.push(Metric::new("core.cache.hit_rate", "ratio", field("cache", "hit_rate")));
    m
}

/// Writes the traced run's spans under `.bench_trace/` (one pair of files per
/// workload, replaced by the next traced run of that workload).
fn write_spans(tracer: &Tracer, sweep: &Sweep) -> Result<(), String> {
    let dir = Path::new(".bench_trace");
    let stem = sweep.workload.name();
    tracer
        .write_tsv(dir, stem, sweep)
        .map_err(|e| format!("writing spans to {}: {e}", dir.display()))
}

/// Why a served reply fails, if it does: transport or server errors, `busy`, a
/// reply that differs from the in-process run of the same request, or a run the
/// re-check contradicts.
fn served_failure(
    outcome: &Result<SessionOutcome, rechisel_serve::ClientError>,
    check: &RunCheck,
) -> Option<(String, bool)> {
    let outcome = match outcome {
        Err(e) => return Some((format!("no terminal reply: {e}"), false)),
        Ok(outcome) => outcome,
    };
    let statuses: Vec<_> = outcome
        .events
        .iter()
        .filter_map(|e| match e.kind {
            RunEventKind::FeedbackProduced { status, .. } => Some(status),
            _ => None,
        })
        .collect();
    let agrees = check.digest.is_some()
        && statuses == check.statuses
        && outcome.success_iteration == check.success_iteration
        && outcome.success == check.success_iteration.is_some()
        && outcome.iterations == check.statuses.len() as u64
        && outcome.escapes == u64::from(check.escapes);
    if !agrees {
        return Some(("the reply differs from the in-process run".into(), false));
    }
    check.failure.clone().map(|reason| (reason, true))
}

fn run_served(options: &Options) -> Result<Outcome, String> {
    let models = rechisel_llm::ModelProfile::paper_models().len();
    let keys = draw_requests(options.seed, SUITE_SIZE, models, REQUESTS);
    let case_ids: Vec<String> = full_suite().into_iter().map(|case| case.id).collect();
    let requests = session_requests(&case_ids, &keys);

    let mut setup_times = Vec::new();
    let mut served = None;
    while served.is_none() || more_setups(setup_times.len(), setup_times.iter().sum()) {
        if let Some(previous) = served.take() {
            Served::stop(previous);
        }
        let start = Instant::now();
        served = Some(Served::start().map_err(|e| format!("starting the server: {e}"))?);
        setup_times.push(start.elapsed());
    }
    let mut served = served.expect("at least one set-up");
    let window = served_window(&mut served, &requests, options.seconds);
    served.stop();
    let peak_rss = peak_rss_mb();

    // The in-process twin of the request list, run after the window for the
    // served-reply check.
    let (twin, setups) =
        repeated_build(WorkloadKind::ServedSessions, options.seed, &keys, options.trace);
    let (checks, traced) = if options.trace {
        let before = sweep_once(&twin, WORKERS);
        let tracer = Tracer::new();
        let checks = reference_pass(&twin, Some(&tracer));
        let after = sweep_once(&twin, WORKERS);
        let untraced_s = median(&[total_latency(&before), total_latency(&after)]);
        write_spans(&tracer, &twin)?;
        let diverged = diverged_runs(&checks, &[&before, &after]).iter().any(|d| *d);
        (checks, Some((layer_metrics(&tracer, untraced_s), diverged)))
    } else {
        (reference_pass(&twin, None), None)
    };

    let mut failures = Vec::new();
    let mut correct = traced.as_ref().is_none_or(|(_, diverged)| !diverged);
    let mut evaluations = 0u64;
    let mut overheads = Vec::new();
    for reply in &window.replies {
        let check = &checks[reply.request];
        if let Ok(outcome) = &reply.outcome {
            evaluations += outcome.iterations;
            overheads.push((reply.latency.as_secs_f64() - check.compute.as_secs_f64()) * 1e3);
        }
        if let Some((reason, verdict_only)) = served_failure(&reply.outcome, check) {
            correct &= verdict_only;
            failures.push(format!("{}: {reason}", twin.label(twin.runs[reply.request])));
        }
    }
    let stats = window.stats.map_err(|e| format!("reading server stats: {e}"))?;
    let metrics = match traced {
        Some((mut layers, _)) => {
            layers.extend(serve_metrics(Some((&stats, median(&overheads)))));
            layers.extend(setup_metrics(&setups));
            layers
        }
        None => {
            let latencies: Vec<u64> =
                window.replies.iter().map(|r| r.latency.as_nanos() as u64).collect();
            vec![
                Metric::new("setup_s", "s", median_secs(setup_times.into_iter())),
                Metric::new(
                    "evals_per_s",
                    "1/s",
                    evaluations as f64 / window.elapsed.as_secs_f64(),
                ),
                Metric::new("run_p50_ms", "ms", percentile(&latencies, 0.50) as f64 * 1e-6),
                Metric::new("run_p90_ms", "ms", percentile(&latencies, 0.90) as f64 * 1e-6),
                Metric::new("run_p99_ms", "ms", percentile(&latencies, 0.99) as f64 * 1e-6),
                Metric::new("peak_rss_mb", "MB", peak_rss),
            ]
        }
    };
    let digest = check::combine_digests(checks.iter().map(|c| c.digest.unwrap_or(0)));
    Ok(Outcome {
        report: Report {
            correct: correct && !window.replies.is_empty(),
            attempted: window.replies.len() as u64,
            failed: failures.len() as u64,
            metrics,
        },
        failures,
        digest,
        notes: Vec::new(),
    })
}
