//! Per-layer metrics read from what the program already records: span self
//! times from the telemetry trace, the `pipeline.*`/`storage.*`/`ingest.*`
//! counters, and the per-epoch reports.

use crate::report::Metrics;
use crate::stats;
use crate::workload::epoch_rates;
use marius::core::ExperimentReport;
use marius::telemetry::{MetricsSnapshot, Phase, SpanEvent};
use marius::Telemetry;
use std::collections::HashMap;

/// Self nanoseconds per span name.
#[derive(Debug, Default)]
pub struct SpanTimes(HashMap<&'static str, u64>);

impl SpanTimes {
    /// Folds begin/end events into self times: a span's duration minus the
    /// part of it its children on the same thread cover.
    pub fn from_events(events: &[SpanEvent]) -> Self {
        let mut events: Vec<&SpanEvent> = events.iter().collect();
        events.sort_by_key(|e| (e.tid, e.ts_ns, e.seq));
        let mut times: HashMap<&'static str, u64> = HashMap::new();
        // Per thread: open spans as (name, start, time covered by children).
        let mut stacks: HashMap<u32, Vec<(&'static str, u64, u64)>> = HashMap::new();
        for e in events {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push((e.name, e.ts_ns, 0)),
                Phase::End => {
                    let Some((name, start, children)) = stack.pop() else {
                        continue;
                    };
                    let total = e.ts_ns.saturating_sub(start);
                    *times.entry(name).or_default() += total.saturating_sub(children);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                }
                Phase::Instant => {}
            }
        }
        SpanTimes(times)
    }

    /// Self seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&ns| ns_to_s(ns))
    }

    /// The trainer's per-epoch span self times (`core.*`), plus the ingest
    /// spans (`stream.*`) when the run streamed.
    fn record_core(&self, layers: &mut Metrics, epochs: usize) {
        let per_epoch = |name| self.self_s(name) / epochs.max(1) as f64;
        for (metric, span) in [
            ("core.train_s", "epoch.train"),
            ("core.flush_s", "epoch.flush"),
            ("core.ingest_s", "epoch.ingest"),
            ("core.eval_s", "epoch.eval"),
            ("core.checkpoint_s", "epoch.checkpoint"),
            ("stream.apply_s", "ingest.apply"),
            ("stream.stage_s", "ingest.stage"),
        ] {
            layers.real(metric, per_epoch(span), "s");
        }
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Everything one traced training repetition yields: span self times,
/// pipeline, storage and ingest counters, and the tracing overhead against
/// the untraced median epoch rate.
pub fn record_training(
    layers: &mut Metrics,
    telemetry: &Telemetry,
    report: &ExperimentReport,
    untraced_rate: f64,
) {
    let epochs = report.epochs.len();
    SpanTimes::from_events(&telemetry.span_events()).record_core(layers, epochs);
    let snap = telemetry.metrics_snapshot();
    record_pipeline(layers, &snap, epochs);
    record_storage(layers, &snap, report);
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    layers.count("stream.edges_appended", c("ingest.edges_appended"));
    layers.count("stream.deltas_applied", c("ingest.deltas_applied"));
    let traced_rate = stats::median(&epoch_rates([report])).unwrap_or(f64::NAN);
    layers.real(
        "trace_overhead_frac",
        untraced_rate / traced_rate - 1.0,
        "frac",
    );
}

/// Stage occupancy and waits of the pipelined executor, from the existing
/// `pipeline.*` counters (busy fractions of the summed epoch wall time;
/// waits per epoch).
fn record_pipeline(layers: &mut Metrics, snap: &MetricsSnapshot, epochs: usize) {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let wall = c("pipeline.wall_time_ns").max(1) as f64;
    for (metric, counter) in [
        ("pipeline.compute_busy_frac", "pipeline.compute_busy_ns"),
        ("pipeline.sample_busy_frac", "pipeline.sample_busy_ns"),
        ("pipeline.prefetch_busy_frac", "pipeline.prefetch_busy_ns"),
        ("pipeline.writeback_busy_frac", "pipeline.writeback_busy_ns"),
    ] {
        layers.real(metric, c(counter) as f64 / wall, "frac");
    }
    let per_epoch = |counter| ns_to_s(c(counter)) / epochs.max(1) as f64;
    layers.real(
        "pipeline.compute_wait_s",
        per_epoch("pipeline.compute_stall_ns"),
        "s",
    );
    layers.real(
        "pipeline.prefetch_wait_writeback_s",
        per_epoch("pipeline.prefetch_stall_ns"),
        "s",
    );
}

/// Storage and buffer counts of one traced repetition. Counts come from the
/// epoch reports and the `storage.*` counters and are seed-deterministic.
fn record_storage(layers: &mut Metrics, snap: &MetricsSnapshot, report: &ExperimentReport) {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    for name in [
        "storage.bytes_read",
        "storage.bytes_written",
        "storage.reads",
        "storage.writes",
    ] {
        layers.count(name, c(name));
    }
    let epochs = report.epochs.len().max(1) as f64;
    layers.real(
        "storage.throttle_wait_s",
        ns_to_s(c("storage.throttle_wait_ns")) / epochs,
        "s",
    );
    layers.count("storage.io_retries", c("storage.io_retries"));
    let sum = |f: fn(&marius::core::EpochReport) -> u64| report.epochs.iter().map(f).sum::<u64>();
    let hits = sum(|e| e.buffer_hits);
    let misses = sum(|e| e.buffer_misses);
    layers.count("buffer.hits", hits);
    layers.count("buffer.misses", misses);
    layers.count("buffer.evictions", sum(|e| e.buffer_evictions));
    layers.real(
        "buffer.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "frac",
    );
    layers.count("policy.partition_loads", sum(|e| e.partition_loads as u64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius::telemetry::{Telemetry, NO_LABEL};

    #[test]
    fn self_time_subtracts_children_on_the_same_thread() {
        let ev = |name, phase, ts_ns, tid, seq| SpanEvent {
            name,
            phase,
            ts_ns,
            tid,
            seq,
            step: NO_LABEL,
            partition: NO_LABEL,
        };
        let events = [
            ev("outer", Phase::Begin, 0, 0, 0),
            ev("inner", Phase::Begin, 10, 0, 1),
            ev("other", Phase::Begin, 15, 1, 2),
            ev("inner", Phase::End, 40, 0, 3),
            ev("other", Phase::End, 95, 1, 4),
            ev("outer", Phase::End, 100, 0, 5),
        ];
        let t = SpanTimes::from_events(&events);
        assert_eq!(t.0["outer"], 70);
        assert_eq!(t.0["inner"], 30);
        assert_eq!(t.0["other"], 80);
        assert_eq!(t.self_s("missing"), 0.0);
    }

    #[test]
    fn self_time_reads_a_real_recorder() {
        let telemetry = Telemetry::enabled();
        {
            let mut scope = telemetry.scope("t");
            scope.begin("epoch.train", 0, NO_LABEL);
            std::thread::sleep(std::time::Duration::from_millis(2));
            scope.end();
        }
        let t = SpanTimes::from_events(&telemetry.span_events());
        assert!(t.self_s("epoch.train") >= 0.002);
    }
}
