//! The repository benchmark. `perfbench/run.py` builds this binary and
//! runs it twice per measurement:
//!
//! ```text
//! perfbench gen --workload W --seed N --seconds S --dir DIR
//!     write the seeded inputs of W into DIR (another process, so data
//!     generation never shows in the measured process's memory peak)
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --dir DIR
//!               [--spans FILE]
//!     measure W on DIR for about S seconds; print one JSON line
//!     {"correct", "attempted", "failed", "metrics"} with the end-to-end
//!     metrics (--trace 0) or the per-layer metrics (--trace 1)
//! ```
//!
//! Workload settings come from `perfbench/spec.json`; the metric names
//! printed must be exactly those `BENCHMARK.json` lists.

mod batch;
mod data;
mod schedule;
mod serve;
mod stats;
mod trace;

use serde_json::{Number, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const SPEC: &str = "perfbench/spec.json";
const BENCHMARK: &str = "BENCHMARK.json";

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
pub struct Report {
    outcomes: stats::Outcomes,
    /// End-to-end metrics.
    metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    layers: Vec<Metric>,
}

/// The median of a latency sample (ms).
fn p50_metric(name: &'static str, ms: &[f64]) -> Metric {
    Metric::new(name, stats::median(ms).unwrap_or(0.0), "ms")
}

/// The tail of a latency sample (ms), by [`stats::tail`]; its percentile
/// and sample count go to stderr.
fn tail_metric(name: &'static str, ms: &[f64]) -> Result<Metric, String> {
    let t = stats::tail(ms).ok_or_else(|| {
        format!(
            "{name}: {} samples, a tail needs at least {}",
            ms.len(),
            stats::TAIL_BEYOND + 1
        )
    })?;
    eprintln!(
        "{name}: p{:.2} of {} samples ({} beyond)",
        t.percentile,
        t.samples,
        stats::TAIL_BEYOND
    );
    Ok(Metric::new(name, t.value, "ms"))
}

/// Per-layer metrics only the serving workload has: zero on batch runs.
fn absent_serve_layers() -> Vec<Metric> {
    [
        ("core.delta.apply_ms", "ms"),
        ("core.delta.recompute_fraction", "ratio"),
        ("core.snapshot.encode_ms", "ms"),
        ("core.snapshot.bytes", "bytes"),
        ("server.wal.snapshot_install_ms", "ms"),
        ("server.wal.append_ms", "ms"),
        ("server.floor_ms", "ms"),
        ("server.queue_depth_max", "count"),
        ("server.occupancy_mean", "ratio"),
        ("server.shed", "count"),
        ("server.errors", "count"),
        ("server.degraded", "count"),
        ("server.panics", "count"),
        ("serve.delta_tail_ms", "ms"),
        ("serve.max_rps", "1/s"),
        ("gen.lag_p50_ms", "ms"),
        ("gen.lag_max_ms", "ms"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::new(name, 0.0, unit))
    .collect()
}

/// Per-layer metrics only batch workloads have: zero on serving runs.
fn absent_batch_layers() -> Vec<Metric> {
    [
        ("sim.blocking_s", "s"),
        ("sim.blocking_candidates", "count"),
        ("sim.blocking_recall", "ratio"),
        ("sim.blocking_scored_fraction", "ratio"),
        ("core.gcn_s", "s"),
        ("core.gcn_epochs", "count"),
        ("tensor.gcn_flops", "flop_computed"),
        ("tensor.gcn_gflops_per_s", "GFLOP/s"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::new(name, 0.0, unit))
    .collect()
}

struct Args {
    command: String,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let command = it
            .next()
            .ok_or("usage: perfbench gen|run --workload W ...")?;
        let mut flags = HashMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{key}'"))?
                .to_owned();
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key, value);
        }
        Ok(Args { command, flags })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("bad value for --{key}"))
    }
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(BENCHMARK).map_err(|e| format!("{BENCHMARK}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{BENCHMARK}: {e}"))?;
    doc.get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{BENCHMARK} has no {section}"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{BENCHMARK}: a {section} entry has no name"))
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    let seed: u64 = args.parsed("seed")?;
    let workload = data::Workload::from_spec(Path::new(SPEC), args.get("workload")?, seed)?;
    let seconds: f64 = args.parsed("seconds")?;
    let dir = PathBuf::from(args.get("dir")?);
    match args.command.as_str() {
        "gen" => {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            data::generate(&workload, seconds, &dir)?;
            Ok(true)
        }
        "run" => {
            let traced = args.parsed::<u8>("trace")? == 1;
            let tracer = trace::Tracer::new(traced);
            let report = if workload.serve().is_some() {
                serve::run(&workload, &dir, seconds, &tracer)?
            } else {
                batch::run(&workload, &dir, seconds, &tracer)?
            };
            if let Some(path) = args.flags.get("spans") {
                tracer
                    .write_jsonl(Path::new(path))
                    .map_err(|e| format!("cannot write spans: {e}"))?;
            }
            let (section, metrics) = if traced {
                ("per_layer", &report.layers)
            } else {
                ("end_to_end", &report.metrics)
            };
            let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            let mut want = declared(section)?;
            names.sort_unstable();
            want.sort_unstable();
            if names != want {
                return Err(format!(
                    "measured metrics {names:?} differ from {BENCHMARK} {section} {want:?}"
                ));
            }
            let correct = report.outcomes.failed == 0;
            let metrics = metrics
                .iter()
                .map(|m| {
                    let obj = Value::Object(vec![
                        ("value".to_owned(), Value::Number(Number::F64(m.value))),
                        ("unit".to_owned(), Value::String(m.unit.to_owned())),
                    ]);
                    (m.name.to_owned(), obj)
                })
                .collect();
            let line = Value::Object(vec![
                ("correct".to_owned(), Value::Bool(correct)),
                (
                    "attempted".to_owned(),
                    Value::Number(Number::U64(report.outcomes.attempted)),
                ),
                (
                    "failed".to_owned(),
                    Value::Number(Number::U64(report.outcomes.failed)),
                ),
                ("metrics".to_owned(), Value::Object(metrics)),
            ]);
            println!(
                "{}",
                serde_json::to_string(&line).map_err(|e| e.to_string())?
            );
            Ok(correct)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: some outputs were wrong");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
