//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_sage|stream_distmult|serve_zipf> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, generated from the
//! seed, checks its outputs, and prints one JSON object as the last line of
//! stdout: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones ([`END_TO_END`]), measured with
//! tracing off; with `--trace 1` they are the per-layer ones
//! ([`PER_LAYER`]), read from a traced repetition and a step replay.
//! `metrics.md` next to this crate maps every metric to its layer and to the
//! end-to-end metric it should move.
//!
//! Everything the run writes goes under `.bench_tmp/` in the working
//! directory and is removed before exit.

mod replay;
mod report;
mod serve_zipf;
mod spans;
mod stats;
mod stream_distmult;
mod train_sage;
mod workload;

use report::{Metrics, ResultLine, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Opts, Outcome};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["train_sage", "stream_distmult", "serve_zipf"];

/// End-to-end metrics every workload reports (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (name, unit). A workload in which a
/// layer does no work reports it as 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("graph.generate_s", "s"),
    ("core.disk_setup_s", "s"),
    ("serve.open_s", "s"),
    ("core.train_s", "s"),
    ("core.flush_s", "s"),
    ("core.ingest_s", "s"),
    ("core.eval_s", "s"),
    ("core.checkpoint_s", "s"),
    ("pipeline.compute_busy_frac", "frac"),
    ("pipeline.sample_busy_frac", "frac"),
    ("pipeline.prefetch_busy_frac", "frac"),
    ("pipeline.writeback_busy_frac", "frac"),
    ("pipeline.compute_wait_s", "s"),
    ("pipeline.prefetch_wait_writeback_s", "s"),
    ("compute.gather_s", "s"),
    ("compute.encoder_fwd_s", "s"),
    ("compute.decoder_loss_s", "s"),
    ("compute.decoder_bwd_s", "s"),
    ("compute.encoder_bwd_s", "s"),
    ("compute.optimizer_s", "s"),
    ("compute.sparse_update_s", "s"),
    ("compute.unattributed_frac", "frac"),
    ("sampling.negatives_s", "s"),
    ("sampling.dense_s", "s"),
    ("sampling.nodes_per_batch", "count"),
    ("sampling.edges_per_batch", "count"),
    ("storage.bytes_read", "count"),
    ("storage.bytes_written", "count"),
    ("storage.reads", "count"),
    ("storage.writes", "count"),
    ("storage.throttle_wait_s", "s"),
    ("storage.io_retries", "count"),
    ("storage.read_partition_us", "us"),
    ("buffer.hits", "count"),
    ("buffer.misses", "count"),
    ("buffer.evictions", "count"),
    ("buffer.hit_ratio", "frac"),
    ("buffer.install_s", "s"),
    ("policy.partition_loads", "count"),
    ("policy.num_sets", "count"),
    ("stream.apply_s", "s"),
    ("stream.stage_s", "s"),
    ("stream.edges_appended", "count"),
    ("stream.deltas_applied", "count"),
    ("serve.topk_us", "us"),
    ("serve.pairwise_us", "us"),
    ("serve.knn_us", "us"),
    ("serve.query_tail_us", "us"),
    ("serve.query_tail_pct", "pct"),
    ("serve.query_samples", "count"),
    ("serve.cache.hit", "count"),
    ("serve.cache.miss", "count"),
    ("serve.cache.bypass", "count"),
    ("serve.cache.hit_ratio", "frac"),
    ("serve.store.bytes_read", "count"),
    ("serve.store.reads", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.errors", "count"),
    ("failed_ops_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// Records the end-to-end metrics of a workload from its samples: set-up
/// times, throughput samples (per epoch, or one for the whole closed loop)
/// and per-operation latencies. Each metric is the median of its samples;
/// the quartiles go to stderr.
pub fn record_end_to_end(
    metrics: &mut Metrics,
    setups_s: &[f64],
    throughputs_per_s: &[f64],
    ops_ms: &[f64],
) {
    for (name, unit, samples) in [
        ("setup_s", "s", setups_s),
        ("throughput_per_s", "1/s", throughputs_per_s),
        ("op_p50_ms", "ms", ops_ms),
    ] {
        let median = stats::median(samples).unwrap_or(0.0);
        if let Some((q1, q3)) = stats::quartiles(samples) {
            eprintln!(
                "{name}: median {median:.6} quartiles [{q1:.6}, {q3:.6}] over {} samples",
                samples.len()
            );
        }
        metrics.real(name, median, unit);
    }
    metrics.real("peak_rss_mb", workload::peak_rss_mb().unwrap_or(0.0), "MB");
}

/// Command-line arguments.
struct Args {
    workload: String,
    opts: Opts,
    /// `--fixture <dir>`: train the `serve_zipf` fixture and exit.
    fixture: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut fixture) = (None, None, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--fixture" => fixture = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if fixture.is_none() {
        match &workload {
            Some(w) if WORKLOADS.contains(&w.as_str()) => {}
            Some(w) => return Err(format!("unknown workload {w}; one of {WORKLOADS:?}")),
            None => return Err("--workload is required".into()),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.unwrap_or_default(),
        opts: Opts {
            seed,
            seconds,
            trace,
        },
        fixture,
    })
}

/// Keeps every file the run writes inside the working directory: the
/// library puts partition stores and staging areas under the system temp
/// directory, which is pointed at `.bench_tmp/<pid>` here (before any
/// thread starts).
fn run_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::current_dir()?
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// The result line: the requested metric set, in table order, with a 0 for
/// each layer the workload does not exercise.
fn result_line(out: Outcome, trace: bool) -> ResultLine {
    let ledger = &out.ledger;
    let (source, table): (&Metrics, &[(&str, &str)]) = if trace {
        (&out.per_layer, &PER_LAYER)
    } else {
        (&out.end_to_end, &END_TO_END)
    };
    let mut metrics = Metrics::default();
    for &(name, unit) in table {
        let value = match (name, source.get(name)) {
            (_, Some(m)) => m.value,
            ("failed_ops_frac", None) => {
                Value::Real(ledger.failed as f64 / ledger.attempted.max(1) as f64)
            }
            (_, None) if unit == "count" => Value::Count(0),
            (_, None) => Value::Real(0.0),
        };
        metrics.push_value(name, value, unit);
    }
    let recorded: Vec<&str> = source.names().collect();
    for name in recorded {
        assert!(
            table.iter().any(|&(n, _)| n == name),
            "metric {name} is missing from the metric table"
        );
    }
    ResultLine {
        correct: ledger.failed == 0 && ledger.attempted > 0,
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics,
    }
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "train_sage" => train_sage::run(&args.opts),
        "stream_distmult" => stream_distmult::run(&args.opts),
        "serve_zipf" => serve_zipf::run(&args.opts),
        other => unreachable!("validated workload {other}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.fixture {
        // Child process of `serve_zipf`; its parent set TMPDIR already.
        return match serve_zipf::make_fixture(dir, args.opts.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: fixture: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run_tmp = match run_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = run(&args);
    let _ = std::fs::remove_dir_all(&run_tmp);
    if let Some(parent) = run_tmp.parent() {
        // Only succeeds once no other run is using `.bench_tmp`.
        let _ = std::fs::remove_dir(parent);
    }
    if !out.ledger.failed_checks.is_empty() {
        eprintln!("perfbench: failed checks: {:?}", out.ledger.failed_checks);
    }
    println!("{}", result_line(out, args.opts.trace).to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius::core::checkpoint::json::Json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload serve_zipf --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_zipf");
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload train_sage")).is_err());
        assert!(parse_args(&args("--workload train_sage --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload train_sage --seed 1 --seconds")).is_err());
    }

    #[test]
    fn metric_tables_are_valid_and_unique() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            for (i, (name, _)) in table.iter().enumerate() {
                assert!(stats::valid_metric_name(name), "{name}");
                assert!(!table[..i].iter().any(|(n, _)| n == name), "{name} twice");
            }
        }
    }

    #[test]
    fn result_lines_carry_exactly_the_requested_table() {
        let mut out = Outcome::default();
        out.ledger.op(true);
        out.ledger.op(false);
        record_end_to_end(&mut out.end_to_end, &[1.0, 3.0, 2.0], &[10.0], &[5.0]);
        out.per_layer.count("buffer.hits", 12);
        let e2e = Json::parse(&result_line(out, false).to_json()).unwrap();
        assert!(!e2e.field("correct").unwrap().as_bool().unwrap());
        assert_eq!(e2e.u64_field("failed").unwrap(), 1);
        let m = e2e.field("metrics").unwrap();
        assert_eq!(
            m.field("setup_s")
                .unwrap()
                .field("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            2.0
        );
        for (name, unit) in END_TO_END {
            assert_eq!(m.field(name).unwrap().str_field("unit").unwrap(), unit);
        }

        let mut out = Outcome::default();
        out.ledger.op(true);
        out.per_layer.count("buffer.hits", 12);
        let traced = Json::parse(&result_line(out, true).to_json()).unwrap();
        let m = traced.field("metrics").unwrap();
        for (name, unit) in PER_LAYER {
            assert_eq!(m.field(name).unwrap().str_field("unit").unwrap(), unit);
        }
        assert_eq!(
            m.field("buffer.hits").unwrap().u64_field("value").unwrap(),
            12
        );
        assert_eq!(
            m.field("serve.shed").unwrap().u64_field("value").unwrap(),
            0
        );
    }

    /// BENCHMARK.json at the repository root names exactly these workloads
    /// and metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.field(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let unit = m.str_field("unit").unwrap_or("").to_string();
                    (m.str_field("name").unwrap().to_string(), unit)
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
