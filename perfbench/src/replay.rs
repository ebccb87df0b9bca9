//! The compute and sampling split of a training step, which the program
//! does not record itself.
//!
//! The replay walks the first [`REPLAY_BATCHES`] batches of one epoch plan
//! through the public calls a training step is made of, timing each phase:
//!
//! `Task::epoch_plan` → `PartitionBuffer::load_set` →
//! `NegativeSampler::sample_pool` → `MultiHopSampler::sample` →
//! `PartitionBuffer::gather` → `Encoder::forward` →
//! `index_select` / `DistMult::score_*` / `ranking_softmax_loss` →
//! `DistMult::backward_*` / `index_add` → `Encoder::backward` →
//! `Encoder::step` / `Optimizer::step` → `PartitionBuffer::apply_update`.
//!
//! Beside it, a second, identically seeded set-up runs the real step,
//! `LinkPredictionModel::train_prepared`, on the same batches. The replay's
//! loss must equal the real step's bit for bit (so the replay cannot drift
//! from the program unnoticed), and `compute.unattributed_frac` is the share
//! of the real step's compute time the named phases do not account for.

use crate::report::Metrics;
use crate::workload::{secs, Ledger};
use marius::core::models::build_encoder;
use marius::core::{
    DiskConfig, LinkBatchBuilder, LinkPredictionModel, ModelConfig, PreparedLinkBatch, Task,
    TrainConfig,
};
use marius::gnn::loss::ranking_softmax_loss;
use marius::gnn::{DistMult, Optimizer};
use marius::graph::datasets::ScaledDataset;
use marius::graph::{Edge, NodeId};
use marius::pipeline::step_seed;
use marius::sampling::{MultiHopSampler, NegativeSampler};
use marius::storage::PartitionStore;
use marius::tensor::segment::{index_add, index_select};
use marius::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Batches replayed per traced run.
const REPLAY_BATCHES: usize = 128;

/// Compute phases, in step order, with their metric names.
const PHASES: [&str; 7] = [
    "compute.gather_s",
    "compute.encoder_fwd_s",
    "compute.decoder_loss_s",
    "compute.decoder_bwd_s",
    "compute.encoder_bwd_s",
    "compute.optimizer_s",
    "compute.sparse_update_s",
];

/// Accumulated replay timings and counts.
#[derive(Default)]
struct Split {
    phases: [Duration; 7],
    negatives: Duration,
    dense: Duration,
    install: Duration,
    steps_installed: u32,
    real_compute: Duration,
    batches: u64,
    nodes: u64,
    edges: u64,
}

/// A stopwatch that charges each lap to a phase.
struct Laps<'a> {
    phases: &'a mut [Duration; 7],
    last: Instant,
}

impl Laps<'_> {
    fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.phases[phase] += now - self.last;
        self.last = now;
    }
}

/// Interns `n` into the batch's target list (the bookkeeping
/// `LinkBatchBuilder::prepare` performs; untimed).
fn intern(n: NodeId, targets: &mut Vec<NodeId>, position: &mut HashMap<NodeId, usize>) -> usize {
    *position.entry(n).or_insert_with(|| {
        targets.push(n);
        targets.len() - 1
    })
}

/// Replays the first [`REPLAY_BATCHES`] batches of one epoch and records
/// the `compute.*`, `sampling.*`, `buffer.install_s` and `policy.num_sets`
/// metrics. A failure to set up, or a replay loss that differs from the
/// real step's, fails a check.
pub fn replay_epoch<T>(
    task: &T,
    data: &ScaledDataset,
    model_cfg: &ModelConfig,
    train: &TrainConfig,
    disk: &DiskConfig,
    ledger: &mut Ledger,
    layers: &mut Metrics,
) where
    T: Task<
        Model = LinkPredictionModel,
        Example = Edge,
        BatchBuilder = LinkBatchBuilder,
        PreparedBatch = PreparedLinkBatch,
    >,
{
    match replay(task, data, model_cfg, train, disk, ledger) {
        Ok((split, num_sets)) => record(&split, num_sets, layers),
        Err(e) => ledger.error("replay set-up", e),
    }
}

fn replay<T>(
    task: &T,
    data: &ScaledDataset,
    model_cfg: &ModelConfig,
    train: &TrainConfig,
    disk: &DiskConfig,
    ledger: &mut Ledger,
) -> marius::storage::Result<(Split, usize)>
where
    T: Task<
        Model = LinkPredictionModel,
        Example = Edge,
        BatchBuilder = LinkBatchBuilder,
        PreparedBatch = PreparedLinkBatch,
    >,
{
    // Two identically seeded set-ups: `real` drives the program's step,
    // `rep` the phase-by-phase replay.
    let open = |label: &str| -> marius::storage::Result<PartitionStore> {
        let store = PartitionStore::open_temp(label)?;
        store.clear()?;
        Ok(store)
    };
    let mut rng_real = StdRng::seed_from_u64(train.seed);
    let mut real = task.disk_setup(
        model_cfg,
        data,
        disk,
        open("perfbench-real")?,
        &mut rng_real,
    )?;
    let mut model = task.build_model(model_cfg, train, data, &mut rng_real)?;
    let builder = task.batch_builder(&model);

    let mut rng = StdRng::seed_from_u64(train.seed);
    let mut rep = task.disk_setup(model_cfg, data, disk, open("perfbench-replay")?, &mut rng)?;
    // The draw order of `LinkPredictionModel::new`.
    let mut encoder = build_encoder(model_cfg, &mut rng);
    let mut decoder = DistMult::new(
        data.spec.num_relations as usize,
        model_cfg.output_dim,
        &mut rng,
    );
    let optimizer = Optimizer::adagrad(model_cfg.learning_rate);
    let negatives = NegativeSampler::new(train.num_negatives);
    let sampler = MultiHopSampler::new(model_cfg.fanouts.clone(), model_cfg.direction);

    // Both set-ups drew identically so far, so one plan, one shuffle and
    // one step RNG stream serve both; each keeps its own buffer.
    let plan = task.epoch_plan(disk, &rep, &mut rng)?;
    let epoch_seed: u64 = rng.gen();
    let p = rep.assignment.num_partitions();

    let mut split = Split::default();
    let mut matched = true;
    'steps: for (s, set) in plan.partition_sets.iter().enumerate() {
        let start = Instant::now();
        rep.buffer.load_set(set)?;
        split.install += start.elapsed();
        split.steps_installed += 1;
        real.buffer.load_set(set)?;

        let mut examples = task.step_examples(data, &rep.buckets, p, &plan, s);
        if examples.is_empty() {
            continue;
        }
        let mut step_rng = StdRng::seed_from_u64(step_seed(epoch_seed, s as u64));
        examples.shuffle(&mut step_rng);
        let mut real_rng = step_rng.clone();
        let candidates = rep.buffer.resident_nodes();
        let subgraph = rep.buffer.subgraph_arc();

        for batch in examples.chunks(train.batch_size) {
            if split.batches as usize >= REPLAY_BATCHES {
                break 'steps;
            }
            // Sampling: shared negatives, then the DENSE sample.
            let t = Instant::now();
            let negs = negatives.sample_pool(&candidates, &mut step_rng);
            split.negatives += t.elapsed();
            let mut position = HashMap::new();
            let mut targets = Vec::new();
            let rels: Vec<u32> = batch.iter().map(|e| e.rel).collect();
            let mut src_idx = Vec::with_capacity(batch.len());
            let mut dst_idx = Vec::with_capacity(batch.len());
            for e in batch {
                src_idx.push(intern(e.src, &mut targets, &mut position));
                dst_idx.push(intern(e.dst, &mut targets, &mut position));
            }
            let neg_idx: Vec<usize> = negs
                .iter()
                .map(|&n| intern(n, &mut targets, &mut position))
                .collect();
            let t = Instant::now();
            let mut dense = sampler.sample(&subgraph, &targets, &mut step_rng);
            split.dense += t.elapsed();
            let stats = dense.stats();
            split.nodes += stats.nodes_sampled as u64;
            split.edges += stats.edges_sampled as u64;
            let node_ids = dense.node_ids().to_vec();

            // Compute, phase by phase.
            let mut laps = Laps {
                phases: &mut split.phases,
                last: Instant::now(),
            };
            let h0 = rep.buffer.gather(&node_ids)?;
            laps.lap(0);
            let acts = encoder.forward(&mut dense, h0);
            laps.lap(1);
            let out = &acts.output;
            let rows = |idx: &[usize]| index_select(out, idx).expect("rows of the encoder output");
            let (src, dst, neg) = (rows(&src_idx), rows(&dst_idx), rows(&neg_idx));
            let pos_scores = decoder.score_positive(&src, &rels, &dst);
            let neg_scores = decoder.score_negatives(&src, &rels, &neg);
            let loss = ranking_softmax_loss(&pos_scores, &neg_scores);
            laps.lap(2);
            let (g_src_pos, g_dst) =
                decoder.backward_positive(&src, &rels, &dst, &loss.grad_positive);
            let (g_src_neg, g_neg) =
                decoder.backward_negatives(&src, &rels, &neg, &loss.grad_negative);
            let g_src = g_src_pos.add(&g_src_neg).expect("gradient shapes");
            let mut grad = Tensor::zeros(out.rows(), model_cfg.output_dim);
            for (idx, g) in [(&src_idx, &g_src), (&dst_idx, &g_dst), (&neg_idx, &g_neg)] {
                let scattered =
                    index_add(out.rows(), model_cfg.output_dim, idx, g).expect("scatter shapes");
                grad.add_assign(&scattered).expect("gradient shapes");
            }
            laps.lap(3);
            let grad_h0 = encoder.backward(&acts, &grad);
            laps.lap(4);
            encoder.step(&optimizer);
            optimizer.step(decoder.relation_param_mut());
            laps.lap(5);
            rep.buffer.apply_update(&node_ids, &grad_h0)?;
            laps.lap(6);

            // The program's own step on the same batch.
            let prepared =
                task.prepare(&builder, data, &subgraph, batch, &candidates, &mut real_rng);
            let stats = task.train_prepared(&mut model, &mut real.buffer, prepared);
            split.real_compute += stats.compute_time;
            matched &= stats.loss.to_bits() == loss.loss.to_bits();
            split.batches += 1;
        }
    }
    ledger.check(
        "replayed losses equal LinkPredictionModel::train_prepared bit for bit",
        matched && split.batches > 0,
    );
    let _ = real.store.clear();
    let _ = rep.store.clear();
    Ok((split, plan.num_sets()))
}

fn record(split: &Split, num_sets: usize, layers: &mut Metrics) {
    let batches = split.batches.max(1);
    let per_batch = |d: Duration| secs(d) / batches as f64;
    for (name, d) in PHASES.iter().zip(split.phases) {
        layers.real(name, per_batch(d), "s");
    }
    let attributed: Duration = split.phases.iter().sum();
    layers.real(
        "compute.unattributed_frac",
        1.0 - secs(attributed) / secs(split.real_compute).max(1e-12),
        "frac",
    );
    layers.real("sampling.negatives_s", per_batch(split.negatives), "s");
    layers.real("sampling.dense_s", per_batch(split.dense), "s");
    layers.count("sampling.nodes_per_batch", split.nodes / batches);
    layers.count("sampling.edges_per_batch", split.edges / batches);
    layers.real(
        "buffer.install_s",
        secs(split.install) / split.steps_installed.max(1) as f64,
        "s",
    );
    layers.count("policy.num_sets", num_sets as u64);
}
