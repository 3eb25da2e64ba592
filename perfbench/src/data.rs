//! Workload settings (read from `perfbench/spec.json`), seeded input
//! generation, and the set-up every workload times.

use crate::stats::Ladder;
use ceaff_core::CeaffConfig;
use ceaff_datagen::{EvolveConfig, Preset};
use ceaff_embed::{BilingualLexicon, LexiconEmbedder, SubwordEmbedder, WordEmbedder};
use ceaff_graph::{io, DeltaOp, KgDelta, KgPair};
use rand::SeedableRng;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Name of the edit stream file in a serving workload's data directory.
pub const DELTAS_FILE: &str = "deltas.jsonl";
/// Seed of the subword embedder, as the CLI and the server use it.
const EMBEDDER_SEED: u64 = 0x736f7572;
/// Share of the gold links that seed the alignment (the CLI's default).
pub const SEED_FRACTION: f64 = 0.3;
/// `k` of every top-k read, served or in process.
pub const TOPK: usize = 10;
/// Generator preset of every workload: hard mono-lingual names keep the
/// string feature busy and accuracy unsaturated.
const PRESET: Preset = Preset::HardMonoDbpWd;

/// The spec file: what each workload runs and how the load is sized.
#[derive(Debug, Deserialize)]
struct Spec {
    nproc: usize,
    workloads: BTreeMap<String, WorkloadSpec>,
    max_rps: LadderSpec,
}

/// One workload's entry in the spec.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Generator scale of [`PRESET`].
    pub scale: f64,
    /// Threads of the parallel pool.
    pub pool_width: usize,
    /// Per-row candidate cap of trigram blocking; dense scoring if absent.
    pub blocking_topk: Option<usize>,
    /// Layers of the propagation encoder; the trained GCN if absent.
    pub prop_layers: Option<usize>,
    /// The serving load; a batch workload if absent.
    pub serve: Option<ServeSpec>,
}

/// Server sizing and offered load of the serving workload.
#[derive(Debug, Clone, Deserialize)]
pub struct ServeSpec {
    /// Server worker threads.
    pub workers: usize,
    /// Client threads of the open-loop generator.
    pub generator_lanes: usize,
    /// Deltas between two warm-state snapshots.
    pub snapshot_every: usize,
    /// `GET /topk` arrivals per second.
    pub topk_rps: f64,
    /// `POST /align` arrivals per second.
    pub align_rps: f64,
    /// `POST /delta` arrivals per second.
    pub delta_rps: f64,
}

/// The `max_rps` rate ladder of traced serving runs.
#[derive(Debug, Clone, Deserialize)]
pub struct LadderSpec {
    /// Lowest offered rate of the whole mix.
    pub lo_rps: f64,
    /// Highest offered rate.
    pub hi_rps: f64,
    /// Ratio of two neighbouring rungs.
    pub ratio: f64,
    /// Length of the load at one rung.
    pub rung_seconds: f64,
    /// Tail latency each route must meet at a passing rung.
    pub tail_limit_ms: RouteLimits,
    /// Highest failure rate of a passing rung.
    pub max_fail_rate: f64,
    /// Growth of the generator's lateness that marks a rung backlogged.
    pub lag_growth_ms: f64,
}

/// One latency limit per served route.
#[derive(Debug, Clone, Deserialize)]
pub struct RouteLimits {
    /// `GET /topk`.
    pub topk: f64,
    /// `POST /align`.
    pub align: f64,
    /// `POST /delta`.
    pub delta: f64,
}

impl LadderSpec {
    /// The ladder of offered rates.
    pub fn ladder(&self) -> Ladder {
        Ladder::geometric(self.lo_rps, self.hi_rps, self.ratio)
    }
}

/// One workload's settings, resolved from the spec.
#[derive(Debug, Clone)]
pub struct Workload {
    /// This workload's entry in the spec.
    pub spec: WorkloadSpec,
    /// The rate ladder of traced serving runs.
    pub ladder: LadderSpec,
    /// The run's `--seed`: it draws the seed/test split, the edit stream
    /// and the request schedule.
    pub seed: u64,
}

impl Workload {
    /// Look `name` up in the spec file, for a run with `seed`.
    pub fn from_spec(path: &Path, name: &str, seed: u64) -> Result<Workload, String> {
        let bad = |e: &dyn std::fmt::Display| format!("bad {}: {e}", path.display());
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut spec: Spec = serde_json::from_str(&text).map_err(|e| bad(&e))?;
        let w = spec
            .workloads
            .remove(name)
            .ok_or_else(|| format!("unknown workload '{name}'"))?;
        // The load is sized for `nproc` cores: no width may exceed it.
        let widths = [w.pool_width]
            .into_iter()
            .chain(w.serve.iter().flat_map(|s| [s.workers, s.generator_lanes]));
        for width in widths {
            if width == 0 || width > spec.nproc {
                return Err(bad(&format!(
                    "{name}: width {width} outside 1..={}",
                    spec.nproc
                )));
            }
        }
        Ok(Workload {
            spec: w,
            ladder: spec.max_rps,
            seed,
        })
    }

    /// The serving load, for the serving workload.
    pub fn serve(&self) -> Option<&ServeSpec> {
        self.spec.serve.as_ref()
    }

    /// The pipeline configuration of this workload.
    pub fn config(&self) -> CeaffConfig {
        let mut cfg = CeaffConfig::default();
        if let Some(k) = self.spec.blocking_topk {
            cfg = cfg.with_blocking(k);
        }
        if let Some(layers) = self.spec.prop_layers {
            cfg = cfg.with_propagation(layers);
        }
        cfg
    }
}

/// Write the workload's inputs into `dir`: the KG pair as TSV (plus
/// `lexicon.tsv`), and for the serving workload the edit stream, long
/// enough for `seconds` of writes plus the rate ladder.
///
/// The graphs come from the preset's own generator seed, so every run
/// aligns graphs of one size; the run's seed draws the seed/test split
/// (at load time), the edit stream and the request schedule.
pub fn generate(w: &Workload, seconds: f64, dir: &Path) -> Result<(), String> {
    let ds = PRESET.generate(w.spec.scale);
    io::save_pair_to_dir(&ds.pair, dir).map_err(|e| format!("cannot write inputs: {e}"))?;
    if !ds.lexicon.is_empty() {
        let mut f = std::fs::File::create(dir.join("lexicon.tsv")).map_err(|e| e.to_string())?;
        ds.lexicon
            .to_tsv_writer(&mut f)
            .map_err(|e| format!("cannot write lexicon: {e}"))?;
    }
    if let Some(s) = w.serve() {
        // Evolve the pair as the server will load it: the TSV round trip
        // and the load-time split decide which names an edit may touch.
        let loaded = Loaded::load(w, dir)?;
        // The ladder's bisection probes at most this many rungs, none
        // above the top rate.
        let rungs = w.ladder.ladder().rungs.len();
        let probes = (usize::BITS - rungs.leading_zeros()) as f64;
        let delta_share = s.delta_rps / (s.topk_rps + s.align_rps + s.delta_rps);
        let per_rung = (w.ladder.hi_rps * delta_share * w.ladder.rung_seconds).ceil() + 1.0;
        let steps = (s.delta_rps * seconds + probes * per_rung).ceil() as usize;
        let stream = ceaff_datagen::evolve(
            &loaded.pair,
            &EvolveConfig {
                steps,
                seed: w.seed ^ 0xe70_1e5,
                ..EvolveConfig::default()
            },
        );
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(dir.join(DELTAS_FILE)).map_err(|e| e.to_string())?,
        );
        for td in &stream {
            let line = serde_json::to_string(&td.delta).map_err(|e| e.to_string())?;
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The edit stream of a serving workload, as `POST /delta` bodies and
/// parsed deltas.
pub fn read_deltas(dir: &Path) -> Result<Vec<(String, KgDelta)>, String> {
    let text = std::fs::read_to_string(dir.join(DELTAS_FILE)).map_err(|e| e.to_string())?;
    text.lines()
        .map(|line| {
            let delta: KgDelta =
                serde_json::from_str(line).map_err(|e| format!("bad delta line: {e}"))?;
            Ok((line.to_owned(), delta))
        })
        .collect()
}

/// Source names some delta removes from the gold links: `/topk` for them
/// could answer 404 mid-run, so the schedule never asks for them.
pub fn unlinked_sources(deltas: &[(String, KgDelta)]) -> std::collections::HashSet<String> {
    deltas
        .iter()
        .flat_map(|(_, d)| d.ops.iter())
        .filter_map(|op| match op {
            DeltaOp::RemoveLink { source, .. } => Some(source.clone()),
            _ => None,
        })
        .collect()
}

/// A loaded problem: the pair and its embedders, built the way the CLI's
/// `align` and the server build them.
pub struct Loaded {
    /// The KG pair with its seed/test split.
    pub pair: KgPair,
    /// Source-side (and mono-lingual target-side) embedder.
    pub base: SubwordEmbedder,
    /// Target-side embedder through `lexicon.tsv`, when present.
    pub lexicon: Option<LexiconEmbedder>,
}

impl Loaded {
    /// `load_pair_from_dir_with` plus the embedders.
    pub fn load(w: &Workload, dir: &Path) -> Result<Loaded, String> {
        let pair = load_pair(w, dir)?;
        let (base, lexicon) = build_embedders(w, dir)?;
        Ok(Loaded {
            pair,
            base,
            lexicon,
        })
    }

    /// The target-side embedder.
    pub fn target(&self) -> &dyn WordEmbedder {
        match &self.lexicon {
            Some(l) => l,
            None => &self.base,
        }
    }

    /// Test-split source names in row order.
    pub fn source_names(&self) -> Vec<String> {
        test_names(&self.pair, true)
    }

    /// Test-split target names in column order.
    pub fn target_names(&self) -> Vec<String> {
        test_names(&self.pair, false)
    }
}

/// The pair, split into seed and test links by the run's seed.
pub fn load_pair(w: &Workload, dir: &Path) -> Result<KgPair, String> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(w.seed);
    io::load_pair_from_dir_with(dir, SEED_FRACTION, &mut rng, io::LoadMode::Strict)
        .map(|(pair, _)| pair)
        .map_err(|e| format!("cannot load {}: {e}", dir.display()))
}

/// The subword embedder and, when the directory has a lexicon, the
/// lexicon embedder routed through it.
pub fn build_embedders(
    w: &Workload,
    dir: &Path,
) -> Result<(SubwordEmbedder, Option<LexiconEmbedder>), String> {
    let base = SubwordEmbedder::new(w.config().embed_dim, EMBEDDER_SEED);
    let path = dir.join("lexicon.tsv");
    let lexicon = if path.exists() {
        let file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
        let lex = BilingualLexicon::from_tsv_reader(std::io::BufReader::new(file))
            .map_err(|e| format!("bad lexicon: {e}"))?;
        Some(LexiconEmbedder::new(base.clone(), lex, 0.0))
    } else {
        None
    };
    Ok((base, lexicon))
}

/// Test-split entity names of one side, in row (source) or column
/// (target) order.
pub fn test_names(pair: &KgPair, source: bool) -> Vec<String> {
    let (ids, kg) = if source {
        (pair.test_sources(), &pair.source)
    } else {
        (pair.test_targets(), &pair.target)
    };
    ids.iter()
        .map(|&e| kg.entity_name(e).expect("interned").to_owned())
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
