//! Boundary-coalesced ingest: one bucket write per touched bucket per
//! boundary, bucket contents identical to applying the deltas one by one,
//! and the failure states the crate docs promise (partial commit up to a
//! failed stage, nothing of a rejected delta, a rolled-back rewrite).

use marius_core::{DiskConfig, DiskSetup, ModelConfig, Task, TemporalLinkPredictionTask};
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_graph::Edge;
use marius_storage::{encode_edges, IoFaultPlan, PartitionStore, RetryPolicy};
use marius_stream::{EdgeStream, Ingestor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn dataset() -> ScaledDataset {
    ScaledDataset::generate(&DatasetSpec::fb15k_237().scaled(0.015), 3)
}

/// A fresh disk set-up over `partitions` partitions with its bucket files
/// written.
fn disk_setup(label: &str, partitions: u32) -> DiskSetup {
    let store = PartitionStore::open_temp(label).unwrap();
    store.clear().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    TemporalLinkPredictionTask
        .disk_setup(
            &ModelConfig::paper_distmult(8),
            &dataset(),
            &DiskConfig::comet(partitions, 2),
            store,
            &mut rng,
        )
        .unwrap()
}

fn staging(label: &str) -> PartitionStore {
    let store = PartitionStore::open_temp(label).unwrap();
    store.clear().unwrap();
    store
}

/// The in-memory buckets, row-major.
fn memory(setup: &DiskSetup) -> Vec<Vec<Edge>> {
    setup.buckets.iter().map(|b| b.edges.clone()).collect()
}

/// The raw bytes of every bucket file, row-major (a missing file reads as
/// an empty bucket, as in `PartitionStore::read_bucket`).
fn file_bytes(setup: &DiskSetup) -> Vec<Vec<u8>> {
    setup
        .buckets
        .iter()
        .map(|b| {
            let name = format!("edge_bucket_{}_{}.bin", b.src_partition, b.dst_partition);
            std::fs::read(setup.store.root().join(name)).unwrap_or_default()
        })
        .collect()
}

/// Test-local per-delta reference: `base` with deltas `range` of `stream`
/// appended one delta at a time, each edge to its bucket.
fn reference(
    setup: &DiskSetup,
    base: &[Vec<Edge>],
    stream: &EdgeStream,
    range: std::ops::Range<u64>,
) -> Vec<Vec<Edge>> {
    let p = setup.assignment.num_partitions();
    let mut buckets = base.to_vec();
    for k in range {
        for e in stream.batch(k) {
            let (i, j) = setup.assignment.bucket_of(&e);
            buckets[(i * p + j) as usize].push(e);
        }
    }
    buckets
}

/// Memory and files both hold exactly `expected`.
fn assert_buckets(setup: &DiskSetup, expected: &[Vec<Edge>], label: &str) {
    assert_eq!(memory(setup), expected, "{label}: in-memory buckets");
    let encoded: Vec<Vec<u8>> = expected.iter().map(|b| encode_edges(b)).collect();
    assert_eq!(file_bytes(setup), encoded, "{label}: bucket files");
}

#[test]
fn a_boundary_writes_each_touched_bucket_once() {
    let mut setup = disk_setup("ingest-writes", 4);
    let stream = EdgeStream::new(5, dataset().num_nodes(), 3, 16);
    let batches = 3u64;
    let per_delta: Vec<BTreeSet<(u32, u32)>> = (0..batches)
        .map(|k| {
            stream
                .batch(k)
                .iter()
                .map(|e| setup.assignment.bucket_of(e))
                .collect()
        })
        .collect();
    let distinct: BTreeSet<(u32, u32)> = per_delta.iter().flatten().copied().collect();
    let per_delta_writes: usize = per_delta.iter().map(BTreeSet::len).sum();
    assert!(
        distinct.len() < per_delta_writes,
        "the deltas must share buckets for the count to tell coalescing apart"
    );

    let ingestor = Ingestor::new(stream, staging("ingest-writes-staging"));
    let before = setup.store.io_stats().writes;
    assert_eq!(ingestor.ingest(&mut setup, batches as usize).unwrap(), 48);
    assert_eq!(
        setup.store.io_stats().writes - before,
        distinct.len() as u64,
        "one write per distinct touched bucket"
    );
}

#[test]
fn a_rejected_delta_leaves_buckets_and_cursor_untouched() {
    let data = dataset();
    let n = data.num_nodes();
    // A stream over four times the graph's nodes whose first delta starts
    // with a valid edge but holds an out-of-range one further in: the
    // valid prefix must not reach the buckets either.
    let stream = (0..)
        .map(|seed| EdgeStream::new(seed, 4 * n, 3, 16))
        .find(|s| {
            let delta = s.batch(0);
            let valid = |e: &Edge| e.src < n && e.dst < n;
            valid(&delta[0]) && !delta.iter().all(valid)
        })
        .unwrap();
    let mut setup = disk_setup("ingest-reject", 4);
    let base = memory(&setup);
    let ingestor = Ingestor::new(stream, staging("ingest-reject-staging"));

    let err = ingestor.ingest(&mut setup, 2).unwrap_err();
    assert!(format!("{err}").contains("outside"), "{err}");
    assert_eq!(ingestor.cursor().batches_applied, 0);
    assert_eq!(ingestor.cursor().edges_ingested, 0);
    assert_buckets(&setup, &base, "rejected delta");
}

#[test]
fn a_staging_fault_at_delta_k_commits_exactly_the_deltas_before_it() {
    let stream = EdgeStream::new(5, dataset().num_nodes(), 3, 16);
    for k in 1..4u64 {
        let mut setup = disk_setup("ingest-fault", 4);
        let base = memory(&setup);
        // Staging makes one checked op per delta, so a device that dies
        // at op k fails exactly delta k's stage; no retries absorb it.
        let staging = staging("ingest-fault-staging")
            .with_fault_injector(IoFaultPlan::permanent(9, k).build())
            .with_retry_policy(RetryPolicy::no_retries());
        let ingestor = Ingestor::new(stream, staging);

        let err = ingestor.ingest(&mut setup, 4).unwrap_err();
        assert!(format!("{err}").contains("injected"), "k={k}: {err}");
        assert_eq!(ingestor.cursor().batches_applied, k);
        assert_eq!(ingestor.cursor().edges_ingested, 16 * k);
        let expected = reference(&setup, &base, &stream, 0..k);
        assert_buckets(&setup, &expected, &format!("fault at delta {k}"));
    }
}

#[test]
fn a_failed_rewrite_rolls_memory_back_and_a_retry_applies_the_boundary() {
    let stream = EdgeStream::new(5, dataset().num_nodes(), 3, 16);
    let mut setup = disk_setup("ingest-rewrite", 4);
    let base = memory(&setup);
    let healthy = setup.store.clone();
    setup.store = healthy
        .clone()
        .with_fault_injector(IoFaultPlan::permanent(9, 0).build())
        .with_retry_policy(RetryPolicy::no_retries());
    let ingestor = Ingestor::new(stream, staging("ingest-rewrite-staging"));

    let err = ingestor.ingest(&mut setup, 2).unwrap_err();
    assert!(format!("{err}").contains("injected"), "{err}");
    assert_eq!(ingestor.cursor().batches_applied, 0);
    assert_eq!(memory(&setup), base, "memory agrees with the cursor");

    setup.store = healthy;
    assert_eq!(ingestor.ingest(&mut setup, 2).unwrap(), 32);
    let expected = reference(&setup, &base, &stream, 0..2);
    assert_buckets(&setup, &expected, "retried boundary");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coalesced boundaries leave memory and bucket files byte-identical to
    /// applying every delta on its own, for any boundary, batch and
    /// partition shape.
    #[test]
    fn coalesced_ingest_matches_the_per_delta_reference(
        boundaries in 1usize..3,
        batches in 1usize..5,
        batch_size in 1usize..40,
        partitions in prop_oneof![Just(2u32), Just(4u32), Just(8u32)],
        seed in 0u64..1000,
    ) {
        let mut setup = disk_setup("ingest-prop", partitions);
        let base = memory(&setup);
        let stream = EdgeStream::new(seed, dataset().num_nodes(), 3, batch_size);
        let ingestor = Ingestor::new(stream, staging("ingest-prop-staging"));
        for _ in 0..boundaries {
            ingestor.ingest(&mut setup, batches).unwrap();
        }
        let deltas = (boundaries * batches) as u64;
        prop_assert_eq!(ingestor.cursor().batches_applied, deltas);
        let expected = reference(&setup, &base, &stream, 0..deltas);
        prop_assert_eq!(memory(&setup), expected.clone());
        let encoded: Vec<Vec<u8>> = expected.iter().map(|b| encode_edges(b)).collect();
        prop_assert_eq!(file_bytes(&setup), encoded);
    }
}
