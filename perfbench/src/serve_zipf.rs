//! `serve_zipf`: a closed loop of [`CLIENTS`] client threads sending a
//! zipf(1.0) query mix to one out-of-core `Server` — the read path.
//!
//! Fixture: a DistMult dim-16 checkpoint of fb15k-237 scaled ×0.2 over 16
//! partitions, trained for 2 epochs in a child process (so its memory and
//! time are not this workload's). The server uses
//! `ServeConfig::read_cache(table / 3)`: the hot head stays resident and
//! the zipf tail reads through to the `PartitionStore`.
//!
//! Query mix (the `serve_qps` harness's): 50% top-10, 25% pairwise scoring
//! of 16 triples, 25% 10-NN. Every answer is folded into an FNV-1a digest of
//! its exact bit patterns and compared with a single-thread in-memory oracle
//! computed in the same invocation.

use crate::stats;
use crate::workload::{secs, settle_disk, timed, Ledger, Opts, Outcome};
use marius::core::{DiskConfig, LinkPredictionTask, ModelConfig, TrainConfig, Trainer};
use marius::graph::datasets::{DatasetSpec, ScaledDataset};
use marius::graph::{NodeId, RelId};
use marius::sampling::RankingProtocol;
use marius::serve::{Prediction, ServeConfig, Server, ServerHealth, ZipfWorkload};
use marius::storage::PartitionStore;
use marius::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop client threads (capped at the 2 cores of the reference box:
/// more clients than cores measure the scheduler, not the server).
const CLIENTS: usize = 2;
/// Distinct pre-generated queries; the loop cycles through them.
const QUERIES: usize = 4096;
/// Queries answered by each server open before it counts as set up.
const WARMUP_QUERIES: usize = 256;
/// Server opens per run; `setup_s` is their median.
const OPENS: usize = 3;
/// Embedding dimension of the fixture.
const DIM: usize = 16;
/// Partitions of the fixture.
const PARTITIONS: u32 = 16;
/// Test edges ranked through the server for `final_metric`.
const EVAL_EDGES: usize = 512;
/// Negatives each evaluated edge is ranked against.
const EVAL_NEGATIVES: usize = 64;
/// The served model's MRR must reach this floor (chance with 64 negatives
/// is about 0.073; the floor catches a broken model or read path).
const FLOOR_MRR: f64 = 0.06;

fn spec() -> DatasetSpec {
    DatasetSpec::fb15k_237().scaled(0.2)
}

/// Trains the fixture checkpoint into `dir` (run in a child process).
pub fn make_fixture(dir: &Path, seed: u64) -> marius::storage::Result<()> {
    let data = ScaledDataset::generate(&spec(), seed);
    let mut train = TrainConfig::quick(2, seed);
    train.batch_size = 512;
    train.num_negatives = 32;
    let _ = std::fs::remove_dir_all(dir);
    Trainer::<LinkPredictionTask>::new(ModelConfig::paper_distmult(DIM), train)
        .with_checkpoint(dir, 1)
        .train_disk(&data, &DiskConfig::comet(PARTITIONS, 4))
        .map(|_| ())
}

/// Produces the fixture in a child process and waits for it.
fn spawn_fixture(dir: &Path, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("--fixture")
        .arg(dir)
        .args(["--seed", &seed.to_string()])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    status
        .success()
        .then_some(())
        .ok_or_else(|| format!("fixture process exited with {status}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    TopK,
    Pairwise,
    Knn,
}

#[derive(Clone)]
enum Query {
    Pairwise(Vec<(NodeId, RelId, NodeId)>),
    TopK(NodeId, RelId),
    Knn(NodeId),
}

impl Query {
    fn family(&self) -> Family {
        match self {
            Query::Pairwise(_) => Family::Pairwise,
            Query::TopK(..) => Family::TopK,
            Query::Knn(_) => Family::Knn,
        }
    }
}

fn make_queries(num_nodes: u64, num_relations: u32, seed: u64) -> Vec<Query> {
    let mut zipf = ZipfWorkload::new(num_nodes, num_relations, 1.0, seed);
    (0..QUERIES)
        .map(|i| match i % 4 {
            0 => Query::Pairwise((0..16).map(|_| zipf.next_triple()).collect()),
            3 => Query::Knn(zipf.next_node()),
            _ => {
                let (src, rel, _) = zipf.next_triple();
                Query::TopK(src, rel)
            }
        })
        .collect()
}

/// FNV-1a step.
fn fold(digest: &mut u64, word: u64) {
    *digest ^= word;
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Answers `query` and digests the answer's exact bit patterns; `None` when
/// the server returned an error (shed, deadline, IO).
fn answer(server: &Server, query: &Query) -> Option<u64> {
    let mut digest = FNV_OFFSET;
    let mut preds = |ps: Vec<Prediction>| {
        for p in ps {
            fold(&mut digest, p.node);
            fold(&mut digest, p.score.to_bits() as u64);
        }
    };
    match query {
        Query::Pairwise(triples) => {
            for s in server.score_pairs(triples).ok()? {
                fold(&mut digest, s.to_bits() as u64);
            }
        }
        Query::TopK(src, rel) => preds(server.top_k(*src, *rel, 10).ok()?),
        Query::Knn(node) => preds(server.knn(*node, 10).ok()?),
    }
    Some(digest)
}

/// One closed-loop measurement.
struct LoopStats {
    /// (family, latency in µs) per answered query.
    latencies: Vec<(Family, f64)>,
    wall_s: f64,
    attempted: u64,
    wrong: u64,
    errors: u64,
}

impl LoopStats {
    fn qps(&self) -> f64 {
        self.latencies.len() as f64 / self.wall_s
    }

    fn latencies_us(&self, family: Option<Family>) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(f, _)| family.is_none_or(|want| *f == want))
            .map(|&(_, us)| us)
            .collect()
    }
}

/// Runs [`CLIENTS`] closed-loop clients against `server` until `deadline`:
/// each sends its next query only after the previous answer arrived.
fn closed_loop(server: &Server, queries: &[Query], oracle: &[u64], deadline: Instant) -> LoopStats {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(LoopStats {
        latencies: Vec::new(),
        wall_s: 0.0,
        attempted: 0,
        wrong: 0,
        errors: 0,
    });
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut lat = Vec::new();
                let (mut attempted, mut wrong, mut errors) = (0u64, 0u64, 0u64);
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed) % queries.len();
                    let sent = Instant::now();
                    let got = answer(server, &queries[i]);
                    let us = sent.elapsed().as_secs_f64() * 1e6;
                    attempted += 1;
                    match got {
                        Some(d) if d == oracle[i] => lat.push((queries[i].family(), us)),
                        Some(_) => wrong += 1,
                        None => errors += 1,
                    }
                }
                let mut m = merged.lock().unwrap();
                m.latencies.extend(lat);
                m.attempted += attempted;
                m.wrong += wrong;
                m.errors += errors;
            });
        }
    });
    let mut stats = merged.into_inner().unwrap();
    stats.wall_s = secs(start.elapsed());
    stats
}

fn record_loop(ledger: &mut Ledger, stats: &LoopStats) {
    ledger.attempted += stats.attempted;
    ledger.failed += stats.wrong + stats.errors;
    if stats.wrong > 0 {
        ledger.check(
            &format!("{} answers differ from the oracle", stats.wrong),
            false,
        );
    }
    if stats.errors > 0 {
        ledger.check(
            &format!("{} queries returned an error", stats.errors),
            false,
        );
    }
}

/// MRR of the served model over held-out test edges, each ranked against
/// uniformly drawn negatives through `Server::score_pairs`.
fn served_mrr(server: &Server, data: &ScaledDataset, seed: u64, ledger: &mut Ledger) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_E5EE_D000_0001);
    let n = data.num_nodes();
    let mut total = 0.0;
    let edges = &data.test_edges[..EVAL_EDGES.min(data.test_edges.len())];
    for e in edges {
        let mut triples = vec![(e.src, e.rel, e.dst)];
        triples.extend((0..EVAL_NEGATIVES).map(|_| (e.src, e.rel, rng.gen_range(0..n))));
        match server.score_pairs(&triples) {
            Ok(scores) => {
                ledger.op(scores.iter().all(|s| s.is_finite()));
                total += RankingProtocol::reciprocal_rank(scores[0], &scores[1..]);
            }
            Err(err) => ledger.error("score_pairs", err),
        }
    }
    total / edges.len().max(1) as f64
}

fn fixture_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("perfbench-serve-{seed}-{}", std::process::id()))
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let dir = fixture_dir(opts.seed);
    if let Err(e) = spawn_fixture(&dir, opts.seed) {
        out.ledger.error("fixture", e);
        return out;
    }
    settle_disk();
    measure(opts, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn measure(opts: &Opts, dir: &Path, out: &mut Outcome) {
    let ledger = &mut out.ledger;
    let (data, generate) = timed(|| ScaledDataset::generate(&spec(), opts.seed));
    let generate_s = secs(generate);
    let queries = make_queries(data.num_nodes(), data.spec.num_relations, opts.seed);
    let oracle_server = match Server::from_checkpoint(dir) {
        Ok(s) => s,
        Err(e) => return ledger.error("oracle server", e),
    };
    let oracle: Vec<u64> = queries
        .iter()
        .map(|q| answer(&oracle_server, q).unwrap_or(0))
        .collect();
    ledger.check("oracle answered every query", !oracle.contains(&0));
    drop(oracle_server);

    // A third of the embedding table: the hot head stays resident.
    let budget = data.num_nodes() * DIM as u64 * 4 / 3;
    let open = |ledger: &mut Ledger| -> Option<(Server, f64)> {
        let config = ServeConfig::read_cache(budget);
        let (server, took) = timed(|| {
            let server = Server::from_checkpoint_with(dir, config)?;
            let warm = (0..WARMUP_QUERIES)
                .filter(|&i| answer(&server, &queries[i]) == Some(oracle[i]))
                .count();
            Ok::<_, marius::storage::StorageError>((server, warm))
        });
        match server {
            Ok((server, warm)) => {
                ledger.check("warm-up answers match the oracle", warm == WARMUP_QUERIES);
                Some((server, secs(took)))
            }
            Err(e) => {
                ledger.error("Server::from_checkpoint_with", e);
                None
            }
        }
    };
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..OPENS {
        let Some((s, took)) = open(ledger) else {
            return;
        };
        setups.push(took);
        server = Some(s);
    }
    let server = server.expect("OPENS > 0");
    let mrr = served_mrr(&server, &data, opts.seed, ledger);
    ledger.check(
        &format!("served MRR {mrr:.4} reaches the floor {FLOOR_MRR}"),
        mrr >= FLOOR_MRR,
    );

    let untraced = closed_loop(&server, &queries, &oracle, opts.deadline(1.0));
    record_loop(ledger, &untraced);
    let all = untraced.latencies_us(None);
    let all_ms: Vec<f64> = all.iter().map(|us| us / 1e3).collect();
    crate::record_end_to_end(&mut out.end_to_end, &setups, &[untraced.qps()], &all_ms);
    if opts.trace {
        let health = server.health();
        drop(server);
        let layers = &mut out.per_layer;
        layers.real("graph.generate_s", generate_s, "s");
        for (name, family) in [
            ("serve.topk_us", Family::TopK),
            ("serve.pairwise_us", Family::Pairwise),
            ("serve.knn_us", Family::Knn),
        ] {
            let p50 = stats::median(&untraced.latencies_us(Some(family)));
            layers.real(name, p50.unwrap_or(0.0), "us");
        }
        let tail = stats::tail(&all);
        layers.real("serve.query_tail_us", tail.map_or(0.0, |t| t.value), "us");
        layers.real(
            "serve.query_tail_pct",
            tail.map_or(0.0, |t| t.percentile),
            "pct",
        );
        layers.count("serve.query_samples", all.len() as u64);
        let untraced = (untraced.qps(), health);
        trace(opts, dir, budget, &queries, &oracle, untraced, out);
    }
}

/// The traced half of `serve_zipf`: a fresh traced server answers the query
/// list once on one client (so cache and store counts are exact), then runs
/// the closed loop again to price the tracing.
fn trace(
    opts: &Opts,
    dir: &Path,
    budget: u64,
    queries: &[Query],
    oracle: &[u64],
    (untraced_qps, untraced_health): (f64, ServerHealth),
    out: &mut Outcome,
) {
    let ledger = &mut out.ledger;
    let layers = &mut out.per_layer;
    let telemetry = Telemetry::enabled();
    let config = ServeConfig::read_cache(budget).with_telemetry(&telemetry);
    let (server, open_time) = timed(|| Server::from_checkpoint_with(dir, config));
    let server = match server {
        Ok(server) => server,
        Err(e) => return ledger.error("traced Server::from_checkpoint_with", e),
    };
    layers.real("serve.open_s", secs(open_time), "s");
    let mut wrong = 0u64;
    for (query, want) in queries.iter().zip(oracle) {
        let ok = answer(&server, query) == Some(*want);
        wrong += u64::from(!ok);
        ledger.op(ok);
    }
    if wrong > 0 {
        ledger.check(
            &format!("{wrong} traced answers differ from the oracle"),
            false,
        );
    }
    let snap = telemetry.metrics_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let (hit, miss) = (c("server.cache.hit"), c("server.cache.miss"));
    layers.count("serve.cache.hit", hit);
    layers.count("serve.cache.miss", miss);
    layers.count("serve.cache.bypass", c("server.cache.bypass"));
    layers.real(
        "serve.cache.hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
        "frac",
    );
    layers.count("serve.store.bytes_read", c("storage.bytes_read"));
    layers.count("serve.store.reads", c("storage.reads"));

    let traced = closed_loop(&server, queries, oracle, opts.deadline(0.25));
    record_loop(ledger, &traced);
    layers.real(
        "trace_overhead_frac",
        untraced_qps / traced.qps() - 1.0,
        "frac",
    );
    let health = server.health();
    let both = |f: fn(&ServerHealth) -> u64| f(&untraced_health) + f(&health);
    layers.count("serve.shed", both(|h| h.shed));
    layers.count("serve.deadline_exceeded", both(|h| h.deadline_exceeded));
    layers.count(
        "serve.errors",
        both(|h| h.transient_errors + h.permanent_errors),
    );
    if let Some(us) = read_partition_probe(dir) {
        layers.real("storage.read_partition_us", us, "us");
    }
}

/// Median microseconds of `PartitionStore::read_partition` over every
/// partition of the checkpoint's snapshot.
fn read_partition_probe(dir: &Path) -> Option<f64> {
    let latest = std::fs::read_to_string(dir.join("LATEST")).ok()?;
    let store = PartitionStore::open(dir.join(latest.trim()).join("partitions")).ok()?;
    let mut us = Vec::new();
    for _ in 0..4 {
        for p in 0..PARTITIONS {
            let (r, took) = timed(|| store.read_partition(p));
            r.ok()?;
            us.push(secs(took) * 1e6);
        }
    }
    stats::median(&us)
}
