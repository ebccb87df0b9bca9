//! `stream_distmult`: the continuous ingest → fine-tune → checkpoint loop
//! (`Session::stream`) — the write side of the storage layer.
//!
//! Configuration: `TemporalLinkPredictionTask` over fb15k-237 scaled ×0.25,
//! DistMult dim 64 with no encoder, the pipelined executor, COMET with 16
//! partitions and a 4-partition buffer on the emulated EBS gp3 device, a
//! checkpoint every epoch, and 4 × 512-edge stream batches ingested per
//! 1-epoch cycle.
//!
//! One repetition builds a fresh session and streams [`CYCLES`] cycles. The
//! timed operation is one cycle: the interval between two consecutive
//! epoch-end hooks, which spans the previous epoch's checkpoint, the next
//! epoch's training, flush and ingest, and its evaluation (the final
//! epoch ingests nothing, so its interval is left out). Set-up is
//! everything up to the first epoch-end hook (dataset generation, session
//! build, disk set-up, the first epoch and its evaluation) minus the first
//! epoch's `epoch_time`: it includes the first evaluation, which no public
//! hook separates from the first epoch's end.

use crate::replay;
use crate::spans;
use crate::stats;
use crate::workload::{epoch_rates, pipeline, repeat, secs, timed, Ledger, Opts, Outcome};
use marius::core::{
    DiskConfig, EpochReport, ExperimentReport, ModelConfig, TemporalLinkPredictionTask, TrainConfig,
};
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::storage::IoCostModel;
use marius::{Session, SessionBuilder, Storage, StreamConfig, Telemetry};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ingest → fine-tune → checkpoint cycles per repetition (1 epoch each).
const CYCLES: usize = 8;
/// Stream batches ingested per cycle.
const BATCHES_PER_CYCLE: usize = 4;
/// Edges per stream batch.
const BATCH_EDGES: usize = 512;
/// MRR every repetition must reach after its last cycle (chance is about
/// 0.073 with 64 negatives; the floor catches a broken step).
const FLOOR_MRR: f64 = 0.06;
/// Repetitions a run always makes, so set-up is measured more than once.
const MIN_REPS: usize = 3;

fn spec() -> DatasetSpec {
    DatasetSpec::fb15k_237().scaled(0.25)
}

fn disk() -> DiskConfig {
    DiskConfig::comet(16, 4)
}

fn model() -> ModelConfig {
    ModelConfig::paper_distmult(64)
}

fn train_config(seed: u64) -> TrainConfig {
    let mut train = TrainConfig::quick(CYCLES, seed);
    train.batch_size = 256;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    train
}

/// What one repetition measured.
struct Rep {
    generate_s: f64,
    setup_s: f64,
    /// Wall time of every full cycle after the first.
    cycles_s: Vec<f64>,
    report: ExperimentReport,
    latest: Option<String>,
}

fn checkpoint_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("perfbench-stream-{seed}-{}", std::process::id()))
}

fn one_rep(seed: u64, telemetry: &Telemetry) -> marius::storage::Result<Rep> {
    let start = Instant::now();
    let (data, generate) = timed(|| ScaledDataset::generate(&spec(), seed));
    let dir = checkpoint_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    let ends: Arc<Mutex<Vec<Instant>>> = Arc::default();
    let on_epoch = Arc::clone(&ends);
    let mut session: Session<TemporalLinkPredictionTask> =
        SessionBuilder::with_task(TemporalLinkPredictionTask)
            .dataset(data)
            .model(model())
            .train(train_config(seed))
            .storage(Storage::Disk(disk()))
            .pipeline(pipeline())
            .emulated_device(IoCostModel::ebs_gp3())
            .checkpoint_to(&dir, 1)
            .telemetry(telemetry)
            .on_epoch(move |_: &EpochReport| on_epoch.lock().unwrap().push(Instant::now()))
            .build()?;
    let config = StreamConfig::new(seed, BATCH_EDGES, BATCHES_PER_CYCLE, 1, CYCLES);
    let report = session.stream(config);
    let latest = std::fs::read_to_string(dir.join("LATEST")).ok();
    let _ = std::fs::remove_dir_all(&dir);
    let report = report?;
    let ends = ends.lock().unwrap();
    Ok(Rep {
        generate_s: secs(generate),
        setup_s: secs(ends[0] - start) - secs(report.epochs[0].epoch_time),
        // The last interval holds no ingest (the final cycle does not
        // ingest), so it is not a full cycle.
        cycles_s: ends[..ends.len() - 1]
            .windows(2)
            .map(|w| secs(w[1] - w[0]))
            .collect(),
        report,
        latest,
    })
}

fn check_rep(rep: &Rep, ledger: &mut Ledger) {
    for e in &rep.report.epochs {
        ledger.check(
            &format!("cycle {} loss is finite", e.epoch),
            e.loss.is_finite(),
        );
    }
    ledger.check(
        &format!("ran {CYCLES} cycles"),
        rep.report.epochs.len() == CYCLES,
    );
    let ingested: u64 = rep.report.epochs.iter().map(|e| e.edges_ingested).sum();
    let expected = (BATCHES_PER_CYCLE * BATCH_EDGES * (CYCLES - 1)) as u64;
    ledger.check(
        &format!("ingested {ingested} edges, expected {expected}"),
        ingested == expected,
    );
    let want = format!("epoch-{CYCLES:06}");
    ledger.check(
        &format!("LATEST names {want}"),
        rep.latest.as_deref().map(str::trim) == Some(want.as_str()),
    );
    let mrr = rep.report.final_metric();
    ledger.check(
        &format!("final MRR {mrr:.4} reaches the floor {FLOOR_MRR}"),
        mrr >= FLOOR_MRR,
    );
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let reps = repeat(
        MIN_REPS,
        opts.deadline(1.0),
        &mut out.ledger,
        "Session::stream",
        || one_rep(opts.seed, &Telemetry::disabled()),
        check_rep,
    );
    if reps.is_empty() {
        return out;
    }
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let cycles_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.cycles_s.iter().map(|s| s * 1e3))
        .collect();
    let rates = epoch_rates(reps.iter().map(|r| &r.report));
    crate::record_end_to_end(&mut out.end_to_end, &setup, &rates, &cycles_ms);
    let untraced_rate = stats::median(&rates).unwrap_or(0.0);
    if opts.trace {
        trace(opts, untraced_rate, &mut out);
    }
    out
}

/// One traced repetition plus the step replay.
fn trace(opts: &Opts, untraced_rate: f64, out: &mut Outcome) {
    let telemetry = Telemetry::enabled();
    let rep = match one_rep(opts.seed, &telemetry) {
        Ok(rep) => rep,
        Err(e) => return out.ledger.error("traced Session::stream", e),
    };
    check_rep(&rep, &mut out.ledger);
    let layers = &mut out.per_layer;
    layers.real("graph.generate_s", rep.generate_s, "s");
    spans::record_training(layers, &telemetry, &rep.report, untraced_rate);
    let data = ScaledDataset::generate(&spec(), opts.seed);
    replay::replay_epoch(
        &TemporalLinkPredictionTask,
        &data,
        &model(),
        &train_config(opts.seed),
        &disk(),
        &mut out.ledger,
        layers,
    );
}
