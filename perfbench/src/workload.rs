//! What every workload shares: run options, the outcome it hands back, and
//! the bookkeeping of attempted/failed operations and output checks.

use crate::report::Metrics;
use marius::core::{ExperimentReport, PipelineConfig};
use std::time::{Duration, Instant};

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Opts {
    /// The deadline of a measurement phase that may use `share` of the
    /// budget, starting now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Attempted and failed operations plus named output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (epochs, cycles, queries, checks).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Names of the checks that failed.
    pub failed_checks: Vec<String>,
}

impl Ledger {
    /// Counts one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.op(ok);
        if !ok {
            eprintln!("check failed: {name}");
            self.failed_checks.push(name.to_string());
        }
    }

    /// Counts an operation that returned an error (and fails the run).
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.check(&format!("{what}: {err}"), false);
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation and check bookkeeping.
    pub ledger: Ledger,
    /// End-to-end metrics (untraced).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run only).
    pub per_layer: Metrics,
}

/// Runs `one` at least `min` times, then keeps repeating while one more
/// repetition, taken to last as long as the previous one, would end before
/// `deadline`. Each result is checked; an error is counted and ends the
/// repetitions.
pub fn repeat<R>(
    min: usize,
    deadline: Instant,
    ledger: &mut Ledger,
    what: &str,
    mut one: impl FnMut() -> marius::storage::Result<R>,
    check: impl Fn(&R, &mut Ledger),
) -> Vec<R> {
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    while reps.len() < min || Instant::now() + last < deadline {
        settle_disk();
        let start = Instant::now();
        match one() {
            Ok(rep) => {
                last = start.elapsed();
                check(&rep, ledger);
                reps.push(rep);
            }
            Err(e) => {
                ledger.error(what, e);
                break;
            }
        }
    }
    reps
}

extern "C" {
    fn sync();
}

/// Flushes dirty file data system-wide, so a repetition does not start
/// while the previous one's writes and deletions are still being written
/// back (which would land in the next set-up's file creations at random).
pub fn settle_disk() {
    // SAFETY: sync(2) takes no arguments, cannot fail and touches no memory
    // of this process.
    unsafe { sync() }
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The staged executor both training workloads run on: two sampling
/// workers (the reference box has two cores), prefetch depth 3.
pub fn pipeline() -> PipelineConfig {
    PipelineConfig {
        enabled: true,
        num_sampling_workers: 2,
        queue_depth: 4,
        prefetch_depth: 3,
        ..PipelineConfig::default()
    }
}

/// Training examples per second of each epoch's training phase.
pub fn epoch_rates<'a>(reports: impl IntoIterator<Item = &'a ExperimentReport>) -> Vec<f64> {
    reports
        .into_iter()
        .flat_map(|r| &r.epochs)
        .map(|e| e.examples as f64 / secs(e.epoch_time))
        .collect()
}
