//! Closed-loop timed sweeps of the in-process workloads.
//!
//! One sweep runs every run of a [`Sweep`] once; each worker starts its next run
//! only after the previous one finished. The timed window is the smallest whole
//! number of sweeps that lasts at least the requested time, so every run is
//! measured equally often. Every repetition of every run
//! counts: the latency percentiles are taken over all of them, and throughput is
//! the window's evaluations over the window's wall time. The per-sweep wall times
//! are kept so that drift of the machine's speed within a window can be reported.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::check::run_digest;
use crate::workload::Sweep;

/// One run of a timed sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunRecord {
    /// Time from the run's start (LLM construction) to its verdict.
    pub latency: Duration,
    /// Candidate evaluations the run made.
    pub evaluations: u32,
    /// Outcome digest; `None` when the run panicked.
    pub digest: Option<u64>,
    /// Iteration of the first success.
    pub success_iteration: Option<u32>,
}

/// Runs every run of `sweep` once on `threads` closed-loop workers; records come
/// back in run order.
pub fn sweep_once(sweep: &Sweep, threads: usize) -> Vec<RunRecord> {
    let run = |index: usize| {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| sweep.run(sweep.runs[index])));
        let latency = start.elapsed();
        match result {
            Ok(result) => RunRecord {
                latency,
                evaluations: result.statuses.len() as u32,
                digest: Some(run_digest(&result)),
                success_iteration: result.success_iteration,
            },
            Err(_) => RunRecord { latency, ..RunRecord::default() },
        }
    };
    let total = sweep.runs.len();
    if threads <= 1 {
        return (0..total).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let records = Mutex::new(vec![RunRecord::default(); total]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    break;
                }
                let record = run(index);
                records.lock().expect("a sweep worker panicked while recording")[index] = record;
            });
        }
    });
    records.into_inner().expect("a sweep worker panicked while recording")
}

/// The measurements of a timed window.
#[derive(Debug, Clone, Default)]
pub struct TimedWindow {
    /// Per run: its latency in each sweep, in nanoseconds.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Wall time and evaluation count of each sweep (every sweep makes the same
    /// evaluations).
    pub sweeps: Vec<(Duration, u64)>,
    /// Per run: the outcome digest of its first timed repetition, or `None` when any
    /// repetition panicked or differed from the first.
    pub digests: Vec<Option<u64>>,
}

impl TimedWindow {
    /// Evaluations completed per second of the window's wall time.
    pub fn evals_per_s(&self) -> f64 {
        let evaluations: u64 = self.sweeps.iter().map(|(_, evals)| evals).sum();
        let wall: Duration = self.sweeps.iter().map(|(wall, _)| *wall).sum();
        evaluations as f64 / wall.as_secs_f64()
    }

    /// The latency of every repetition of every run, in nanoseconds.
    pub fn run_latencies_ns(&self) -> Vec<u64> {
        self.latencies_ns.iter().flatten().copied().collect()
    }

    /// The slowest sweep's wall time over the fastest's, minus one: how far the
    /// machine's speed drifted within the window (every sweep does the same work).
    pub fn sweep_drift(&self) -> f64 {
        let walls = self.sweeps.iter().map(|(wall, _)| wall.as_secs_f64());
        let (min, max) = walls.fold((f64::INFINITY, 0.0f64), |(lo, hi), w| (lo.min(w), hi.max(w)));
        max / min - 1.0
    }
}

/// Repeats whole sweeps until `min_duration` has passed.
pub fn timed_sweeps(sweep: &Sweep, threads: usize, min_duration: Duration) -> TimedWindow {
    let runs = sweep.runs.len();
    let mut window = TimedWindow { latencies_ns: vec![Vec::new(); runs], ..Default::default() };
    let start = Instant::now();
    while window.sweeps.is_empty() || start.elapsed() < min_duration {
        let sweep_start = Instant::now();
        let records = sweep_once(sweep, threads);
        let wall = sweep_start.elapsed();
        let first = window.sweeps.is_empty();
        let mut evaluations = 0u64;
        for (index, record) in records.iter().enumerate() {
            evaluations += u64::from(record.evaluations);
            window.latencies_ns[index].push(record.latency.as_nanos() as u64);
            if first {
                window.digests.push(record.digest);
            } else if record.digest != window.digests[index] {
                window.digests[index] = None;
            }
        }
        window.sweeps.push((wall, evaluations));
    }
    window
}
