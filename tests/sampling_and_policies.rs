//! Cross-crate integration tests for the sampling data structures and the
//! disk-training policies on realistic generated graphs.

use marius_baselines::LayerwiseSampler;
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_graph::{InMemorySubgraph, Partitioner};
use marius_sampling::{MultiHopSampler, SamplingDirection};
use marius_storage::policy::ReplacementPolicy;
use marius_storage::{edge_permutation_bias, BetaPolicy, CometPolicy, InMemoryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kg_subgraph() -> (ScaledDataset, InMemorySubgraph) {
    let data = ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.05), 5);
    let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
    (data, subgraph)
}

/// Table 6's structural claim: DENSE samples strictly fewer nodes and edges than
/// layer-wise re-sampling as depth grows, and the gap widens with depth.
#[test]
fn dense_sampling_volume_advantage_grows_with_depth() {
    let (_, subgraph) = kg_subgraph();
    let targets: Vec<u64> = (0..200).collect();
    let mut previous_ratio = 0.0;
    for depth in 2..=4 {
        let fanouts = vec![5; depth];
        let mut rng_a = StdRng::seed_from_u64(depth as u64);
        let mut rng_b = StdRng::seed_from_u64(depth as u64);
        let dense = MultiHopSampler::new(fanouts.clone(), SamplingDirection::Incoming)
            .sample(&subgraph, &targets, &mut rng_a);
        let layerwise = LayerwiseSampler::new(fanouts, SamplingDirection::Incoming)
            .sample(&subgraph, &targets, &mut rng_b);
        assert!(layerwise.stats.edges_sampled >= dense.stats().edges_sampled);
        let ratio =
            layerwise.stats.edges_sampled as f64 / dense.stats().edges_sampled.max(1) as f64;
        assert!(
            ratio + 1e-9 >= previous_ratio,
            "redundancy ratio should not shrink with depth: {ratio} vs {previous_ratio}"
        );
        previous_ratio = ratio;
    }
    assert!(
        previous_ratio > 1.2,
        "deep redundancy ratio {previous_ratio}"
    );
}

/// DENSE invariants hold on samples drawn from a realistic power-law graph.
#[test]
fn dense_validates_on_generated_graphs() {
    let data = ScaledDataset::generate(&DatasetSpec::livejournal().scaled(0.0002), 9);
    let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
    let sampler = MultiHopSampler::new(vec![10, 10, 10], SamplingDirection::Both);
    let mut rng = StdRng::seed_from_u64(11);
    for start in [0u64, 50, 100] {
        let targets: Vec<u64> = (start..start + 50).collect();
        let dense = sampler.sample(&subgraph, &targets, &mut rng);
        dense
            .validate()
            .expect("DENSE invariants, repr_map included");
    }
}

/// Both disk policies produce valid epoch plans on a real partitioned dataset,
/// and COMET's bias is no worse than BETA's while its workload is more balanced.
#[test]
fn policies_are_valid_and_comet_reduces_bias_on_real_buckets() {
    let (data, _) = kg_subgraph();
    let p = 16u32;
    let c = 4usize;
    let partitioner = Partitioner::new(p).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let assignment = partitioner.random(data.num_nodes(), &mut rng);
    let buckets = partitioner.build_buckets(&data.graph, &assignment).unwrap();

    let beta = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
    let comet = CometPolicy::auto(p, c).plan(p, &mut rng).unwrap();
    let memory = InMemoryPolicy.plan(p, &mut rng).unwrap();
    beta.validate(p, c).unwrap();
    comet.validate(p, c).unwrap();
    memory.validate(p, p as usize).unwrap();

    let bias_beta = edge_permutation_bias(&beta, &buckets, data.num_nodes());
    let bias_comet = edge_permutation_bias(&comet, &buckets, data.num_nodes());
    let bias_memory = edge_permutation_bias(&memory, &buckets, data.num_nodes());
    assert!(bias_memory <= bias_comet + 1e-9);
    assert!(bias_comet <= bias_beta + 1e-9);

    // Workload balance: COMET's largest step is closer to its mean than BETA's.
    let imbalance = |per: Vec<usize>| {
        let max = *per.iter().max().unwrap() as f64;
        let mean = per.iter().sum::<usize>() as f64 / per.len() as f64;
        max / mean
    };
    assert!(imbalance(comet.buckets_per_step()) < imbalance(beta.buckets_per_step()));
}

/// The COMET IO volume stays within a small factor of BETA's (the paper's
/// argument that the two-level scheme pays at most a 5–25% IO premium).
#[test]
fn comet_io_is_close_to_beta_io() {
    let p = 16u32;
    let c = 8usize;
    let mut rng = StdRng::seed_from_u64(17);
    let beta = BetaPolicy::new(c).plan(p, &mut rng).unwrap();
    let comet = CometPolicy::auto(p, c).plan(p, &mut rng).unwrap();
    let beta_loads = beta.partition_loads() as f64;
    let comet_loads = comet.partition_loads() as f64;
    assert!(
        comet_loads <= 2.0 * beta_loads,
        "COMET loads {comet_loads} should be within 2x of BETA loads {beta_loads}"
    );
}
