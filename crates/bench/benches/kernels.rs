//! Criterion micro-benchmarks of the kernels behind the paper's performance
//! claims: dense segment aggregation (Algorithm 3), gather/scatter, GEMM, and
//! DENSE versus layer-wise multi-hop sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use marius_baselines::LayerwiseSampler;
use marius_graph::datasets::{DatasetSpec, ScaledDataset};
use marius_graph::InMemorySubgraph;
use marius_sampling::{MultiHopSampler, SamplingDirection};
use marius_tensor::segment::{
    gather_segment_mean, index_add, index_select, segment_expand, segment_mean,
    segment_scatter_add, segment_sum,
};
use marius_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_dense_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let h = marius_tensor::uniform_init(&mut rng, 4096, 64, 1.0);
    let indices: Vec<usize> = (0..16_384).map(|i| (i * 37) % 4096).collect();
    let offsets: Vec<usize> = (0..2048).map(|i| i * 8).collect();

    c.bench_function("index_select 16k rows", |b| {
        b.iter(|| index_select(&h, &indices).unwrap())
    });
    let gathered = index_select(&h, &indices).unwrap();
    c.bench_function("segment_sum 2k segments", |b| {
        b.iter(|| segment_sum(&gathered, &offsets).unwrap())
    });
    let a = marius_tensor::uniform_init(&mut rng, 256, 64, 1.0);
    let w = marius_tensor::uniform_init(&mut rng, 64, 64, 1.0);
    c.bench_function("gemm 256x64x64", |b| b.iter(|| a.matmul(&w)));
    c.bench_function("softmax rows 256x64", |b| {
        b.iter(|| Tensor::softmax_rows(&a))
    });
}

/// Fused Algorithm 3 kernels against the unfused chains they replace, and
/// transpose-free `AᵀB` against `transpose().matmul()`, at two shapes: one
/// `train_sage` batch layer (889 input rows, 6.2k sampled edges, dim 8) and the
/// 16k-edge × dim-64 shape of the kernel baseline above.
fn bench_fused_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    for (label, rows, edges, dim) in [
        ("train_sage 6.2kx8", 889usize, 6_200usize, 8usize),
        ("16kx64", 4096, 16_384, 64),
    ] {
        let h = marius_tensor::uniform_init(&mut rng, rows, dim, 1.0);
        let indices: Vec<usize> = (0..edges).map(|i| (i * 37) % rows).collect();
        let offsets: Vec<usize> = (0..edges / 8).map(|i| i * 8).collect();
        let seg_grad = marius_tensor::uniform_init(&mut rng, offsets.len(), dim, 1.0);

        c.bench_function(&format!("index_select+segment_mean {label}"), |b| {
            b.iter(|| segment_mean(&index_select(&h, &indices).unwrap(), &offsets).unwrap())
        });
        c.bench_function(&format!("gather_segment_mean (fused) {label}"), |b| {
            b.iter(|| gather_segment_mean(&h, &indices, &offsets).unwrap())
        });
        c.bench_function(&format!("segment_expand+index_add {label}"), |b| {
            b.iter(|| {
                let rows_grad = segment_expand(&seg_grad, &offsets, edges).unwrap();
                index_add(rows, dim, &indices, &rows_grad).unwrap()
            })
        });
        c.bench_function(&format!("segment_scatter_add (fused) {label}"), |b| {
            b.iter(|| segment_scatter_add(rows, &seg_grad, &indices, &offsets).unwrap())
        });
        let aggr = gather_segment_mean(&h, &indices, &offsets).unwrap();
        c.bench_function(&format!("transpose().matmul() (AᵀB) {label}"), |b| {
            b.iter(|| aggr.transpose().matmul(&seg_grad))
        });
        c.bench_function(&format!("transpose_matmul (AᵀB) {label}"), |b| {
            b.iter(|| aggr.transpose_matmul(&seg_grad).unwrap())
        });
    }
}

/// `matmul` of one `train_sage` layer (889x8 by 8x8) on a dense operand and on
/// a ReLU-masked one (about half zeros), which skip their zero entries in
/// different ways. Each iteration takes the next of 64 operands, so the branch
/// predictor cannot learn one operand's zero pattern.
fn bench_gemm_zero_skip(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let w = marius_tensor::uniform_init(&mut rng, 8, 8, 1.0);
    for (label, relu) in [("dense", false), ("ReLU-masked", true)] {
        let operands: Vec<Tensor> = (0..64)
            .map(|_| {
                let a = marius_tensor::uniform_init(&mut rng, 889, 8, 1.0);
                if relu {
                    a.relu()
                } else {
                    a
                }
            })
            .collect();
        let mut next = operands.iter().cycle();
        c.bench_function(&format!("gemm 889x8x8 {label}"), |b| {
            b.iter(|| next.next().unwrap().matmul(&w))
        });
    }
}

fn bench_sampling(c: &mut Criterion) {
    let data = ScaledDataset::generate(&DatasetSpec::livejournal().scaled(0.001), 3);
    let subgraph = InMemorySubgraph::from_edges(data.graph.edges());
    let targets: Vec<u64> = (0..256).collect();

    let mut group = c.benchmark_group("multi_hop_sampling");
    for layers in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("dense", layers), &layers, |b, &layers| {
            let sampler = MultiHopSampler::new(vec![10; layers], SamplingDirection::Incoming);
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| sampler.sample(&subgraph, &targets, &mut rng))
        });
        group.bench_with_input(
            BenchmarkId::new("layerwise", layers),
            &layers,
            |b, &layers| {
                let sampler = LayerwiseSampler::new(vec![10; layers], SamplingDirection::Incoming);
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| sampler.sample(&subgraph, &targets, &mut rng))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_dense_kernels, bench_fused_kernels, bench_gemm_zero_skip, bench_sampling
}
criterion_main!(benches);
