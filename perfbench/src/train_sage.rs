//! `train_sage`: pipelined out-of-core link prediction with a 2-layer
//! GraphSage encoder — the compute-bound training workload.
//!
//! Configuration (the `fig_pipeline_overlap` harness's): fb15k-237 scaled
//! ×0.25, GraphSage 2 layers (fanouts 25, 20, dim 8) over learned
//! embeddings, DistMult decoder, COMET with 16 partitions and a 4-partition
//! buffer, the staged pipeline with 2 sampling workers, and the emulated
//! EBS gp3 device.
//!
//! One repetition generates the dataset, trains a fixed epoch budget from
//! scratch and evaluates MRR after every epoch. Repetitions run until the
//! time budget is spent (at least [`MIN_REPS`]).

use crate::replay;
use crate::spans;
use crate::stats;
use crate::workload::{epoch_rates, pipeline, repeat, secs, timed, Ledger, Opts, Outcome};
use marius::core::{
    DiskConfig, ExperimentReport, LinkPredictionTask, ModelConfig, TrainConfig, Trainer,
};
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::storage::IoCostModel;
use marius::Telemetry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Epochs per repetition.
const EPOCHS: usize = 3;
/// MRR every repetition must reach after [`EPOCHS`] epochs. At this size
/// the model is only a little above chance (about 0.073 with 64 negatives)
/// after 3 epochs, so the floor catches a broken step, not slow learning.
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
    let mut model = ModelConfig::paper_link_prediction_graphsage(8).shrunk(8, 8);
    model.num_layers = 2;
    model.fanouts = vec![25, 20];
    model
}

fn train_config(seed: u64) -> TrainConfig {
    let mut train = TrainConfig::quick(EPOCHS, seed);
    train.batch_size = 256;
    train.num_negatives = 32;
    train.eval_negatives = 64;
    train
}

/// What one repetition measured.
struct Rep {
    generate_s: f64,
    /// From the `train_disk` call to the start of the first epoch.
    disk_setup_s: f64,
    report: ExperimentReport,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.disk_setup_s
    }
}

fn one_rep(seed: u64, telemetry: &Telemetry) -> marius::storage::Result<Rep> {
    let (data, generate) = timed(|| ScaledDataset::generate(&spec(), seed));
    let mut trainer: Trainer<LinkPredictionTask> = Trainer::new(model(), train_config(seed))
        .with_emulated_device(IoCostModel::ebs_gp3())
        .with_pipeline(pipeline())
        .with_telemetry(telemetry);
    // The ingest hook fires right after each epoch's training phase and
    // flush; its first firing dates the end of the first epoch, and so its
    // start (`epoch_time` earlier). It ingests nothing.
    let first_train_end: Arc<Mutex<Option<Instant>>> = Arc::default();
    let probe = Arc::clone(&first_train_end);
    trainer.set_ingest_hook(move |_setup, _epoch| {
        probe.lock().unwrap().get_or_insert_with(Instant::now);
        Ok(0)
    });
    let call = Instant::now();
    let report = trainer.train_disk(&data, &disk())?;
    let train_end = first_train_end
        .lock()
        .unwrap()
        .expect("at least one epoch ran");
    let first_epoch_start = train_end - report.epochs[0].epoch_time;
    Ok(Rep {
        generate_s: secs(generate),
        disk_setup_s: secs(first_epoch_start - call),
        report,
    })
}

fn check_rep(rep: &Rep, ledger: &mut Ledger) {
    for e in &rep.report.epochs {
        ledger.check(
            &format!("epoch {} loss is finite", e.epoch),
            e.loss.is_finite(),
        );
    }
    ledger.check(
        &format!("ran {EPOCHS} epochs"),
        rep.report.epochs.len() == EPOCHS,
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
        "train_disk",
        || one_rep(opts.seed, &Telemetry::disabled()),
        check_rep,
    );
    if reps.is_empty() {
        return out;
    }
    let setup: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let epoch_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.report.epochs.iter().map(|e| secs(e.epoch_time) * 1e3))
        .collect();
    let rates = epoch_rates(reps.iter().map(|r| &r.report));
    crate::record_end_to_end(&mut out.end_to_end, &setup, &rates, &epoch_ms);
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
        Err(e) => return out.ledger.error("traced train_disk", e),
    };
    check_rep(&rep, &mut out.ledger);
    let layers = &mut out.per_layer;
    layers.real("graph.generate_s", rep.generate_s, "s");
    layers.real("core.disk_setup_s", rep.disk_setup_s, "s");
    spans::record_training(layers, &telemetry, &rep.report, untraced_rate);
    let data = ScaledDataset::generate(&spec(), opts.seed);
    replay::replay_epoch(
        &LinkPredictionTask,
        &data,
        &model(),
        &train_config(opts.seed),
        &disk(),
        &mut out.ledger,
        layers,
    );
}
