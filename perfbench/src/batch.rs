//! The batch workloads (`align-dense`, `align-blocked`): repeated
//! `try_run` passes over one loaded pair, each followed by in-process
//! reads of its result through the serving core.

use crate::data::{self, Loaded, Workload, TOPK};
use crate::stats::{self, Outcomes};
use crate::trace::{self, Tracer};
use crate::{Metric, Report};
use ceaff_core::{
    try_run, try_run_with_features, CandidateStrategy, CeaffConfig, CeaffOutput, EaInput,
    ExecBudget, FeatureSet, MatcherKind, SemanticFeature, StringFeature, StructuralFeature,
    StructuralMode, Telemetry,
};
use ceaff_server::{ServeCore, WarmState};
use ceaff_sim::{CandidateSet, SimStore};
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// Passes of each kind (untraced, and traced in a traced run) a run makes
/// even when they overrun `--seconds`.
const MIN_PASSES: usize = 2;
/// `ServeCore::decide` reads, and bursts of `ServeCore::topk`, after
/// every pass.
const DECIDES_PER_PASS: usize = 15;
/// Set-ups are repeated for at least this long before the first pass: a
/// scale-1 set-up takes a few milliseconds, and a median over a stretch
/// this long no longer rests on one burst of host noise.
const SETUP_TIME: Duration = Duration::from_secs(2);
/// Fewest set-ups timed, however long they take.
const MIN_SETUPS: usize = 5;
/// Shortest time one `topk` sample spans: a single call takes from under
/// a microsecond (sparse rows) to tens of microseconds (dense rows), so
/// calls are timed in bursts this long to rise above timer noise.
const TOPK_SAMPLE: Duration = Duration::from_millis(2);

/// Counts taken at the layer boundaries of one traced pass.
#[derive(Default)]
struct Counts {
    blocking: Option<(f64, f64, f64)>,
    cells: f64,
    gcn_flops: f64,
}

/// Run one batch workload for `seconds` and report its metrics.
pub fn run(w: &Workload, dir: &Path, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    ceaff_parallel::set_default_threads(w.spec.pool_width);
    let mut outcomes = Outcomes::default();

    let mut setup = Vec::new();
    let mut loaded = None;
    let started = Instant::now();
    while setup.len() < MIN_SETUPS || started.elapsed() < SETUP_TIME {
        let t = Instant::now();
        let l = tracer.span("setup", None, |root| -> Result<Loaded, String> {
            let pair = tracer.span("graph.load", root, |_| data::load_pair(w, dir))?;
            let (base, lexicon) =
                tracer.span("embed.build", root, |_| data::build_embedders(w, dir))?;
            Ok(Loaded {
                pair,
                base,
                lexicon,
            })
        })?;
        setup.push(t.elapsed().as_secs_f64());
        loaded = Some(l);
    }
    let l = loaded.expect("at least one set-up");
    let cfg = w.config();
    let input = EaInput::new(&l.pair, &l.base, l.target());

    // Passes until `seconds`: plain and (in a traced run) decomposed
    // passes alternate, every one checked against the first for identical
    // bits. Each pass's result is then read through the serving core, so
    // passes and reads sample the same stretch of time.
    let started = Instant::now();
    let kinds = if tracer.enabled() { 2 } else { 1 };
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut counts = Counts::default();
    let mut reference: Option<(u64, u64)> = None;
    let mut reads = CoreReads::default();
    let mut accuracy = 0.0;
    let mut burst = None;
    let mut k = 0;
    while k < MIN_PASSES * kinds || started.elapsed().as_secs_f64() < seconds {
        let traced = k % kinds == 1;
        let t = Instant::now();
        let result = if traced {
            traced_pass(tracer, &input, &cfg, &mut counts)
        } else {
            try_run(&input, &cfg).map_err(|e| e.to_string())
        };
        walls[k % kinds].push(t.elapsed().as_secs_f64());
        let o = result?;
        let h = (store_hash(&o.fused), pairs_hash(o.matching.pairs()));
        let same = *reference.get_or_insert(h) == h;
        if !same {
            eprintln!("pass {k}: fused store or matching differs from pass 0");
        }
        outcomes.record(same);
        if traced {
            tracer.span("core.matching", None, |_| {
                cfg.matcher.build().matching_store(&o.fused)
            });
        }
        let state = WarmState::from_parts(
            o.fused.clone(),
            cfg.matcher,
            l.source_names(),
            l.target_names(),
        );
        let core = state.snapshot();
        let burst = *burst.get_or_insert_with(|| topk_burst(&core));
        reads.merge(read_core(
            &core,
            cfg.matcher,
            Some(&o),
            DECIDES_PER_PASS,
            burst,
            w.seed.wrapping_add(k as u64),
            tracer,
        ));
        accuracy = o.accuracy;
        k += 1;
    }
    outcomes.merge(reads.outcomes);

    let metrics = vec![
        Metric::new("setup_s", med(&setup), "s"),
        Metric::new("run_s", med(&walls[0]), "s"),
        Metric::new("hits1", accuracy, "ratio"),
        Metric::new("peak_rss_mb", data::peak_rss_mb(), "MiB"),
        crate::p50_metric("topk_p50_ms", &reads.topk_ms),
        crate::p50_metric("align_p50_ms", &reads.decide_ms),
        crate::tail_metric("align_tail_ms", &reads.decide_ms)?,
    ];
    let layers = if tracer.enabled() {
        let burst = burst.expect("at least one pass");
        let mut m = layer_metrics(tracer, &walls, &counts, &cfg, &outcomes, burst);
        m.push(crate::tail_metric("read.topk_tail_ms", &reads.topk_ms)?);
        m
    } else {
        Vec::new()
    };
    Ok(Report {
        outcomes,
        metrics,
        layers,
    })
}

/// Latencies and outcomes of in-process reads of a serving core.
#[derive(Default)]
pub struct CoreReads {
    /// `ServeCore::topk` latencies, ms.
    pub topk_ms: Vec<f64>,
    /// `ServeCore::decide` latencies, ms.
    pub decide_ms: Vec<f64>,
    /// One outcome per read.
    pub outcomes: Outcomes,
}

impl CoreReads {
    fn merge(&mut self, other: CoreReads) {
        self.topk_ms.extend(other.topk_ms);
        self.decide_ms.extend(other.decide_ms);
        self.outcomes.merge(other.outcomes);
    }
}

/// `ServeCore::topk` calls per timed burst on `core`: doubled from one
/// until a burst takes at least [`TOPK_SAMPLE`].
pub fn topk_burst(core: &ServeCore) -> usize {
    let mut n = 1;
    loop {
        let t = Instant::now();
        for row in 0..n {
            std::hint::black_box(core.topk(row % core.fused.sources(), TOPK));
        }
        if t.elapsed() >= TOPK_SAMPLE {
            return n;
        }
        n *= 2;
    }
}

/// `decides` runs of `ServeCore::decide` (unlimited budget), then as many
/// bursts of `burst` `ServeCore::topk` calls on seeded rows; each decision
/// and each burst is one sample, one span and one checked operation, and a
/// `topk` sample is the burst's mean. A decision must be undegraded and,
/// given `expected`, reproduce its matching and accuracy; every `topk`
/// answer of a burst must hold `min(k, stored)` entries in non-increasing
/// score order.
pub fn read_core(
    core: &ServeCore,
    matcher: MatcherKind,
    expected: Option<&CeaffOutput>,
    decides: usize,
    burst: usize,
    seed: u64,
    tracer: &Tracer,
) -> CoreReads {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x7e4d);
    let mut reads = CoreReads::default();
    for _ in 0..decides {
        let t = Instant::now();
        let d = tracer.span("server.state.decide", None, |_| {
            core.decide(matcher, &ExecBudget::unlimited(), &Telemetry::disabled())
        });
        reads.decide_ms.push(t.elapsed().as_secs_f64() * 1e3);
        reads.outcomes.record(d.is_ok_and(|d| {
            d.degradation.is_none()
                && expected.is_none_or(|e| {
                    d.matching.pairs() == e.matching.pairs() && d.accuracy == e.accuracy
                })
        }));
    }
    for _ in 0..decides {
        let rows: Vec<usize> = (0..burst)
            .map(|_| rng.gen_range(0..core.fused.sources()))
            .collect();
        let t = Instant::now();
        let answers: Vec<_> = tracer.span("server.state.topk", None, |_| {
            rows.iter().map(|&row| core.topk(row, TOPK)).collect()
        });
        reads
            .topk_ms
            .push(t.elapsed().as_secs_f64() * 1e3 / burst as f64);
        reads
            .outcomes
            .record(rows.iter().zip(&answers).all(|(&row, hits)| {
                let stored = match &core.fused {
                    SimStore::Dense(m) => m.targets(),
                    SimStore::Sparse(sp) => sp.row_entries(row).0.len(),
                };
                hits.len() == TOPK.min(stored) && hits.windows(2).all(|p| p[0].1 >= p[1].1)
            }));
    }
    reads
}

/// `try_run` decomposed into its public parts, each call in a span: the
/// blocking stage, the three features, then fusion and matching.
/// The output must be bit-identical to `try_run`'s.
fn traced_pass(
    tracer: &Tracer,
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    counts: &mut Counts,
) -> Result<CeaffOutput, String> {
    let pair = input.pair;
    let off = Telemetry::disabled();
    let (features, blocked) = tracer.span("pass", None, |root| {
        let blocked = match &cfg.candidates {
            CandidateStrategy::Dense => None,
            CandidateStrategy::Blocked { k, blocking } => {
                let src = data::test_names(pair, true);
                let tgt = data::test_names(pair, false);
                let cands = tracer.span("sim.blocking", root, |_| {
                    ceaff_sim::build_candidates(&src, &tgt, blocking, *k)
                });
                Some((cands, *k))
            }
        };
        let bl = blocked.as_ref().map(|(c, k)| (c, *k));
        let structural = match cfg.structural {
            StructuralMode::Trained => tracer.span("core.gcn", root, |_| match bl {
                None => StructuralFeature::compute_traced(pair, &cfg.gcn, &off),
                Some((c, k)) => {
                    StructuralFeature::compute_traced_blocked(pair, &cfg.gcn, &off, c, k)
                }
            }),
            StructuralMode::Propagation { layers } => tracer.span("core.propagation", root, |_| {
                let enc = ceaff_core::propagation::encode(pair, cfg.gcn.dim, layers);
                match bl {
                    None => StructuralFeature::from_encoder(pair, enc),
                    Some((c, k)) => StructuralFeature::from_encoder_blocked(pair, enc, c, k),
                }
            }),
        };
        let semantic = tracer.span("core.semantic", root, |_| match bl {
            None => SemanticFeature::compute(pair, input.source_embedder, input.target_embedder),
            Some((c, k)) => SemanticFeature::compute_blocked(
                pair,
                input.source_embedder,
                input.target_embedder,
                c,
                k,
            ),
        });
        let string = tracer.span("core.string", root, |_| match bl {
            None => StringFeature::compute(pair),
            Some((c, k)) => StringFeature::compute_blocked(pair, c, k),
        });
        let features = FeatureSet {
            structural: Some(structural),
            semantic: Some(semantic),
            string: Some(string),
            extra: Vec::new(),
        };
        let out = tracer.span("core.fuse_match", root, |_| {
            try_run_with_features(pair, &features, cfg, &off)
        });
        (out, blocked)
    });
    let out = features.map_err(|e| e.to_string())?;
    let (n, t) = (pair.test_sources().len(), pair.test_targets().len());
    counts.cells = match &blocked {
        None => (n * t) as f64,
        Some((c, _)) => c.len() as f64,
    };
    counts.blocking = blocked.as_ref().map(|(c, _)| blocking_counts(c, n.min(t)));
    if cfg.structural == StructuralMode::Trained {
        counts.gcn_flops = gcn_flops(pair, cfg);
    }
    Ok(out)
}

/// `(candidates, recall of the diagonal gold pairs, scored fraction)`.
fn blocking_counts(c: &CandidateSet, gold: usize) -> (f64, f64, f64) {
    let diagonal: Vec<(usize, usize)> = (0..gold).map(|i| (i, i)).collect();
    (
        c.len() as f64,
        c.recall_of(&diagonal),
        c.stats().scored_fraction(),
    )
}

/// GCN floating-point work computed from shapes (not counted): per epoch
/// and graph, forward plus backward (3×) over two layers of a sparse
/// propagation (`nnz · dim` multiply-adds, `nnz = 2 · triples + n`) and a
/// dense weight product (`n · dim²`).
fn gcn_flops(pair: &ceaff_graph::KgPair, cfg: &CeaffConfig) -> f64 {
    let d = cfg.gcn.dim as f64;
    let per_graph = |n: usize, triples: usize| {
        let (n, nnz) = (n as f64, (2 * triples + n) as f64);
        3.0 * 2.0 * 2.0 * (nnz * d + n * d * d)
    };
    cfg.gcn.epochs as f64
        * (per_graph(pair.source.num_entities(), pair.source.num_triples())
            + per_graph(pair.target.num_entities(), pair.target.num_triples()))
}

fn layer_metrics(
    tracer: &Tracer,
    walls: &[Vec<f64>; 2],
    counts: &Counts,
    cfg: &CeaffConfig,
    outcomes: &Outcomes,
    burst: usize,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let self_med = |name: &str| med(&trace::self_times(&spans, name));
    let gcn_s = self_med("core.gcn");
    let matching_s = self_med("core.matching");
    let (cands, recall, scored) = counts.blocking.unwrap_or((0.0, 0.0, 0.0));
    let trained = cfg.structural == StructuralMode::Trained;
    let mut m = vec![
        Metric::new("graph.load_s", self_med("graph.load"), "s"),
        Metric::new("embed.build_s", self_med("embed.build"), "s"),
        Metric::new("sim.blocking_s", self_med("sim.blocking"), "s"),
        Metric::new("sim.blocking_candidates", cands, "count"),
        Metric::new("sim.blocking_recall", recall, "ratio"),
        Metric::new("sim.blocking_scored_fraction", scored, "ratio"),
        Metric::new("core.string_s", self_med("core.string"), "s"),
        Metric::new("core.string_cells", counts.cells, "count"),
        Metric::new("core.semantic_s", self_med("core.semantic"), "s"),
        Metric::new("core.semantic_cells", counts.cells, "count"),
        Metric::new("core.gcn_s", gcn_s, "s"),
        Metric::new(
            "core.gcn_epochs",
            if trained { cfg.gcn.epochs as f64 } else { 0.0 },
            "count",
        ),
        Metric::new("tensor.gcn_flops", counts.gcn_flops, "flop_computed"),
        Metric::new(
            "tensor.gcn_gflops_per_s",
            if gcn_s > 0.0 {
                counts.gcn_flops / gcn_s / 1e9
            } else {
                0.0
            },
            "GFLOP/s",
        ),
        Metric::new("core.propagation_s", self_med("core.propagation"), "s"),
        Metric::new(
            "core.fusion_s",
            (self_med("core.fuse_match") - matching_s).max(0.0),
            "s",
        ),
        Metric::new("core.matching_s", matching_s, "s"),
        Metric::new(
            "server.state.topk_us",
            self_med("server.state.topk") * 1e6 / burst as f64,
            "us",
        ),
        Metric::new(
            "server.state.decide_ms",
            self_med("server.state.decide") * 1e3,
            "ms",
        ),
        Metric::new("fail_rate", outcomes.fail_rate(), "ratio"),
        Metric::new(
            "trace.unattributed_fraction",
            trace::unattributed_fraction(&spans, "pass"),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_frac",
            med(&walls[1]) / med(&walls[0]) - 1.0,
            "ratio",
        ),
    ];
    m.extend(crate::absent_serve_layers());
    m
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// FNV-1a over the bits of every stored score (and, sparse, its columns).
pub fn store_hash(s: &SimStore) -> u64 {
    let mut h = Fnv::default();
    match s {
        SimStore::Dense(m) => {
            for i in 0..m.sources() {
                m.row(i)
                    .iter()
                    .for_each(|v| h.write(&v.to_bits().to_le_bytes()));
            }
        }
        SimStore::Sparse(sp) => {
            for i in 0..sp.sources() {
                let (cols, scores) = sp.row_entries(i);
                h.write(&(cols.len() as u64).to_le_bytes());
                cols.iter().for_each(|c| h.write(&c.to_le_bytes()));
                scores
                    .iter()
                    .for_each(|v| h.write(&v.to_bits().to_le_bytes()));
            }
        }
    }
    h.0
}

/// FNV-1a over the matched `(row, column)` pairs.
pub fn pairs_hash(pairs: &[(usize, usize)]) -> u64 {
    let mut h = Fnv::default();
    for &(i, j) in pairs {
        h.write(&(i as u64).to_le_bytes());
        h.write(&(j as u64).to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
