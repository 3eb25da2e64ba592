//! The serving workload (`serve-evolving`): an in-process durable
//! incremental server under one open-loop generator — reads beside a
//! seeded stream of writes — checked against an offline replay.

use crate::batch;
use crate::data::{self, LadderSpec, Workload};
use crate::schedule::{self, Mix, Op, Route};
use crate::stats::{self, Outcomes};
use crate::trace::{self, Tracer};
use crate::{Metric, Report};
use ceaff_core::{
    try_run_with_features, DeltaState, EaInput, FeatureSet, SemanticFeature, StringFeature,
    StructuralFeature, Telemetry,
};
use ceaff_graph::KgDelta;
use ceaff_server::wal::Wal;
use ceaff_server::{
    Client, ClientConfig, HttpResult, LoadOptions, Server, ServerConfig, WalOptions, WarmState,
};
use serde_json::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` a traced run spends on the main load (half of it
/// untraced, half traced); the rest goes to the rate ladder.
const TRACED_MAIN_SHARE: f64 = 0.6;
/// In-process `ServeCore::decide` reads a traced run makes on the
/// quiescent state, and bursts of `ServeCore::topk`.
const CORE_DECIDES: usize = 20;
/// Cold starts timed for `setup_s`; the last one serves the load.
const SETUP_REPS: usize = 7;
/// Period of the `/health` and `/status` probes of a traced run.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// One answered (or failed) scheduled request.
#[derive(Debug, Clone)]
struct Done {
    route: &'static str,
    due: f64,
    /// Seconds the generator sent it after its due time.
    lag: f64,
    /// Seconds from due time to the full response.
    latency: f64,
    ok: bool,
}

/// What the offline replay of the stream ends with.
struct Expected {
    step: usize,
    fingerprint: u32,
    accuracy: f64,
    pairs: Vec<(String, String)>,
}

/// Run the serving workload for `seconds` and report its metrics.
pub fn run(w: &Workload, dir: &Path, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    let load = w.serve().ok_or("not a serving workload")?;
    ceaff_parallel::set_default_threads(w.spec.pool_width);
    let cfg = w.config();
    let deltas = data::read_deltas(dir)?;
    let mut outcomes = Outcomes::default();

    // Set-up: cold durable starts, each timed to the first healthy probe;
    // the last one serves.
    let server_cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: load.workers,
        ..ServerConfig::default()
    };
    let mut setup = Vec::new();
    let mut live = None;
    for r in 0..SETUP_REPS {
        // A cold start: nothing left from an earlier run may be recovered.
        let wal_dir = dir.join(format!("wal-{r}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let opts = LoadOptions {
            dim: cfg.gcn.dim,
            epochs: cfg.gcn.epochs,
            seed_fraction: data::SEED_FRACTION,
            rng_seed: w.seed,
            matcher: cfg.matcher,
            blocked_topk: None,
            lossy: false,
            incremental: w.spec.prop_layers,
            wal: Some(WalOptions {
                dir: wal_dir,
                snapshot_every: load.snapshot_every,
            }),
        };
        let t = Instant::now();
        let state = Arc::new(
            WarmState::load_dir(dir, &opts, &Telemetry::disabled()).map_err(|e| e.to_string())?,
        );
        let server = Server::start(state.clone(), server_cfg.clone(), Telemetry::disabled())
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = server.local_addr().to_string();
        wait_healthy(&addr)?;
        setup.push(t.elapsed().as_secs_f64());
        if r + 1 < SETUP_REPS {
            server.join();
        } else {
            live = Some((server, state, addr));
        }
    }
    let (server, state, addr) = live.expect("at least one set-up");
    let phase = Instant::now();

    // The schedule: entities that stay in the test split for the whole
    // stream, reads and writes for the main load.
    let unlinked = data::unlinked_sources(&deltas);
    let names: Vec<String> = state
        .snapshot()
        .source_names
        .iter()
        .filter(|n| !unlinked.contains(*n))
        .cloned()
        .collect();
    let mix = Mix {
        topk_rps: load.topk_rps,
        align_rps: load.align_rps,
        delta_rps: load.delta_rps,
    };
    let main_s = if tracer.enabled() {
        seconds * TRACED_MAIN_SHARE
    } else {
        seconds
    };
    let ops = schedule::build(w.seed, &mix, main_s, names.len(), 0);
    let n_deltas = schedule::deltas_in(&ops);
    if n_deltas > deltas.len() {
        return Err(format!(
            "stream has {} deltas, load needs {n_deltas}",
            deltas.len()
        ));
    }
    let generator = Generator {
        addr: &addr,
        names: &names,
        deltas: &deltas,
        lanes: load.generator_lanes,
        tracer,
    };

    // Main load; a traced run traces its second half and probes the
    // server beside it.
    let traced_from = if tracer.enabled() {
        main_s / 2.0
    } else {
        f64::INFINITY
    };
    let probing = AtomicBool::new(tracer.enabled());
    let (done, probes) = std::thread::scope(|s| {
        let prober = s.spawn(|| probe(&addr, &probing));
        let done = generator.drive(&ops, 0, traced_from);
        probing.store(false, Ordering::SeqCst);
        (done, prober.join().expect("probe thread"))
    });
    eprintln!(
        "serve-evolving: main load done after {:.1}s",
        phase.elapsed().as_secs_f64()
    );
    done.iter().for_each(|d| outcomes.record(d.ok));
    probes.outcomes.iter().for_each(|&ok| outcomes.record(ok));

    // Quiescent reads: the server's final step and decision.
    let client = client(&addr);
    let status = client.get("/status").map_err(|e| format!("/status: {e}"))?;
    let status = json_body(&status).ok_or("/status is not JSON")?;
    let incremental = status
        .get("incremental")
        .ok_or("/status has no incremental")?;
    let live_step = incremental.get("step").and_then(Value::as_u64).unwrap_or(0) as usize;
    let live_fp = incremental
        .get("fingerprint")
        .and_then(Value::as_u64)
        .unwrap_or(0) as u32;
    let align = client
        .post("/align", &[], b"")
        .map_err(|e| format!("/align: {e}"))?;
    let align = json_body(&align).ok_or("/align is not JSON")?;
    let mut topk_burst = 1;
    if tracer.enabled() {
        let core = state.snapshot();
        topk_burst = batch::topk_burst(&core);
        let reads = batch::read_core(
            &core,
            state.matcher,
            None,
            CORE_DECIDES,
            topk_burst,
            w.seed,
            tracer,
        );
        outcomes.merge(reads.outcomes);
    }

    // The rate ladder (traced runs only), continuing the stream.
    let max_rps = if tracer.enabled() {
        ladder(&generator, &w.ladder, w.seed, &mix, n_deltas, &mut outcomes)
    } else {
        0.0
    };

    let counters = server.join();
    eprintln!(
        "serve-evolving: server joined after {:.1}s",
        phase.elapsed().as_secs_f64()
    );
    let peak_rss = data::peak_rss_mb();
    drop(state);

    // The offline replay of the main load's deltas is the oracle.
    let (expected, replica) = replay(w, dir, &deltas[..n_deltas], tracer)?;
    eprintln!(
        "serve-evolving: replay done after {:.1}s",
        phase.elapsed().as_secs_f64()
    );
    let hits1 = align
        .get("accuracy")
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    let checks = [
        ("final step", live_step == expected.step),
        ("final fingerprint", live_fp == expected.fingerprint),
        ("quiescent accuracy", hits1 == expected.accuracy),
        ("quiescent pairs", align_pairs(&align) == expected.pairs),
    ];
    for (what, ok) in checks {
        if !ok {
            eprintln!("serve-evolving: {what} differs from the offline replay");
        }
        outcomes.record(ok);
    }

    let of = |route: &str| -> Vec<f64> {
        done.iter()
            .filter(|d| d.route == route)
            .map(|d| d.latency * 1e3)
            .collect()
    };
    let mut metrics = vec![
        Metric::new("setup_s", stats::median(&setup).unwrap_or(0.0), "s"),
        Metric::new(
            "run_s",
            stats::median(&of("delta")).unwrap_or(0.0) / 1e3,
            "s",
        ),
        Metric::new("hits1", hits1, "ratio"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    metrics.push(crate::p50_metric("topk_p50_ms", &of("topk")));
    metrics.push(crate::p50_metric("align_p50_ms", &of("align")));
    metrics.push(crate::tail_metric("align_tail_ms", &of("align"))?);

    let layers = if tracer.enabled() {
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        let half = |traced: bool| -> Vec<f64> {
            done.iter()
                .filter(|d| d.route == "topk" && (d.due >= traced_from) == traced)
                .map(|d| d.latency)
                .collect()
        };
        let lags: Vec<f64> = done.iter().map(|d| d.lag * 1e3).collect();
        let spans = tracer.spans();
        let self_med = |name: &str| stats::median(&trace::self_times(&spans, name)).unwrap_or(0.0);
        let mut m = vec![
            Metric::new("graph.load_s", self_med("graph.load"), "s"),
            Metric::new("embed.build_s", self_med("embed.build"), "s"),
            Metric::new("core.string_s", self_med("core.string"), "s"),
            Metric::new("core.string_cells", replica.cells, "count"),
            Metric::new("core.semantic_s", self_med("core.semantic"), "s"),
            Metric::new("core.semantic_cells", replica.cells, "count"),
            Metric::new("core.propagation_s", self_med("core.propagation"), "s"),
            Metric::new(
                "core.fusion_s",
                (self_med("core.fuse_match") - self_med("core.matching")).max(0.0),
                "s",
            ),
            Metric::new("core.matching_s", self_med("core.matching"), "s"),
            Metric::new(
                "core.delta.apply_ms",
                self_med("core.delta.apply") * 1e3,
                "ms",
            ),
            Metric::new(
                "core.delta.recompute_fraction",
                replica.recompute_fraction,
                "ratio",
            ),
            Metric::new(
                "core.snapshot.encode_ms",
                self_med("core.snapshot.encode") * 1e3,
                "ms",
            ),
            Metric::new("core.snapshot.bytes", replica.snapshot_bytes, "bytes"),
            Metric::new(
                "server.wal.snapshot_install_ms",
                self_med("server.wal.snapshot_install") * 1e3,
                "ms",
            ),
            Metric::new(
                "server.wal.append_ms",
                self_med("server.wal.append") * 1e3,
                "ms",
            ),
            Metric::new(
                "server.state.topk_us",
                self_med("server.state.topk") * 1e6 / topk_burst as f64,
                "us",
            ),
            Metric::new(
                "server.state.decide_ms",
                self_med("server.state.decide") * 1e3,
                "ms",
            ),
            Metric::new(
                "server.floor_ms",
                stats::median(&probes.health_ms).unwrap_or(0.0),
                "ms",
            ),
            Metric::new("server.queue_depth_max", probes.queue_depth_max, "count"),
            Metric::new("server.occupancy_mean", mean(&probes.occupancy), "ratio"),
            Metric::new("server.shed", counter("shed"), "count"),
            Metric::new("server.errors", counter("errors"), "count"),
            Metric::new("server.degraded", counter("degraded"), "count"),
            Metric::new("server.panics", counter("panics"), "count"),
            Metric::new(
                "serve.delta_tail_ms",
                stats::tail(&of("delta")).map_or(0.0, |t| t.value),
                "ms",
            ),
            Metric::new("serve.max_rps", max_rps, "1/s"),
            crate::tail_metric("read.topk_tail_ms", &of("topk"))?,
            Metric::new("fail_rate", outcomes.fail_rate(), "ratio"),
            Metric::new("gen.lag_p50_ms", stats::median(&lags).unwrap_or(0.0), "ms"),
            Metric::new(
                "gen.lag_max_ms",
                lags.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            Metric::new(
                "trace.unattributed_fraction",
                trace::unattributed_fraction(&spans, "replay"),
                "ratio",
            ),
            Metric::new(
                "trace.overhead_frac",
                stats::median(&half(true)).unwrap_or(0.0)
                    / stats::median(&half(false)).unwrap_or(f64::NAN)
                    - 1.0,
                "ratio",
            ),
        ];
        m.extend(crate::absent_batch_layers());
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

/// The open-loop generator: `lanes` client threads take scheduled
/// requests in due order, send each at its due time (or as soon as a lane
/// is free), and keep writes in stream order with at most one in flight.
struct Generator<'a> {
    addr: &'a str,
    names: &'a [String],
    deltas: &'a [(String, KgDelta)],
    lanes: usize,
    tracer: &'a Tracer,
}

impl Generator<'_> {
    /// Play `ops` (stream entries from `first_delta` on) and return one
    /// record per request; requests due at or after `traced_from` seconds
    /// are traced.
    fn drive(&self, ops: &[Op], first_delta: usize, traced_from: f64) -> Vec<Done> {
        let cursor = AtomicUsize::new(0);
        let turn = (Mutex::new(first_delta), Condvar::new());
        let done = Mutex::new(Vec::with_capacity(ops.len()));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.lanes {
                s.spawn(|| {
                    let client = client(self.addr);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(op) = ops.get(i) else { break };
                        let due = start + Duration::from_secs_f64(op.due);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        if let Route::Delta(k) = op.route {
                            let mut next = turn.0.lock().expect("turn lock");
                            while *next != k {
                                next = turn.1.wait(next).expect("turn lock");
                            }
                        }
                        let sent = Instant::now();
                        let ok = self.send(&client, &op.route);
                        let end = Instant::now();
                        if matches!(op.route, Route::Delta(_)) {
                            *turn.0.lock().expect("turn lock") += 1;
                            turn.1.notify_all();
                        }
                        if op.due >= traced_from {
                            let id = self.tracer.record(
                                op.route.label(),
                                None,
                                due,
                                end,
                                Some(i as u64),
                            );
                            self.tracer
                                .record("gen.wait", id, due, sent.max(due), Some(i as u64));
                        }
                        done.lock().expect("done lock").push(Done {
                            route: op.route.label(),
                            due: op.due,
                            lag: sent.saturating_duration_since(due).as_secs_f64(),
                            latency: end.saturating_duration_since(due).as_secs_f64(),
                            ok,
                        });
                    }
                });
            }
        });
        done.into_inner().expect("done lock")
    }

    /// Send one request; `true` when the answer is right.
    fn send(&self, client: &Client, route: &Route) -> bool {
        match route {
            Route::Topk(e) => {
                let path = format!(
                    "/topk?entity={}&k={}",
                    ceaff_server::http::percent_encode(&self.names[*e]),
                    data::TOPK
                );
                client.get(&path).ok().is_some_and(|r| {
                    let matches = json_body(&r)
                        .and_then(|v| v.get("matches").and_then(Value::as_array).cloned());
                    r.status == 200
                        && matches.is_some_and(|m| {
                            let scores: Vec<f64> = m
                                .iter()
                                .filter_map(|x| x.get("score").and_then(Value::as_f64))
                                .collect();
                            scores.len() == data::TOPK && scores.windows(2).all(|p| p[0] >= p[1])
                        })
                })
            }
            Route::Align => client.post("/align", &[], b"").ok().is_some_and(|r| {
                r.status == 200
                    && json_body(&r).is_some_and(|v| {
                        v.get("degraded").and_then(Value::as_bool) == Some(false)
                            && v.get("matched").and_then(Value::as_u64).unwrap_or(0) > 0
                    })
            }),
            Route::Delta(k) => {
                let body = self.deltas[*k].0.as_bytes();
                client.post("/delta", &[], body).ok().is_some_and(|r| {
                    r.status == 200
                        && json_body(&r).and_then(|v| v.get("step").and_then(Value::as_u64))
                            == Some(*k as u64 + 1)
                })
            }
        }
    }
}

/// Find the highest passing rung of the ladder (see `max_rps` in the
/// spec), continuing the edit stream after `next_delta`.
fn ladder(
    generator: &Generator<'_>,
    l: &LadderSpec,
    seed: u64,
    mix: &Mix,
    mut next_delta: usize,
    outcomes: &mut Outcomes,
) -> f64 {
    let rung_s = l.rung_seconds;
    let mut probe = 0u64;
    l.ladder()
        .search(|rate| {
            probe += 1;
            let ops = schedule::build(
                seed ^ (probe << 32),
                &mix.at_rate(rate),
                rung_s,
                generator.names.len(),
                next_delta,
            );
            let needed = schedule::deltas_in(&ops);
            if next_delta + needed > generator.deltas.len() {
                eprintln!("ladder: edit stream exhausted at {rate:.1} rps");
                return false;
            }
            let done = generator.drive(&ops, next_delta, f64::INFINITY);
            next_delta += needed;
            let mut rung = Outcomes::default();
            done.iter().for_each(|d| rung.record(d.ok));
            outcomes.merge(rung);
            let limits = &l.tail_limit_ms;
            let tails_ok = [
                ("topk", limits.topk),
                ("align", limits.align),
                ("delta", limits.delta),
            ]
            .iter()
            .all(|&(route, limit)| {
                let ms: Vec<f64> = done
                    .iter()
                    .filter(|d| d.route == route)
                    .map(|d| d.latency * 1e3)
                    .collect();
                // Too few samples for the tail rule: the maximum stands in.
                let tail = stats::tail(&ms)
                    .map(|t| t.value)
                    .unwrap_or_else(|| ms.iter().copied().fold(0.0, f64::max));
                tail <= limit
            });
            let third = rung_s / 3.0;
            let lag_in = |lo: f64, hi: f64| {
                let v: Vec<f64> = done
                    .iter()
                    .filter(|d| d.due >= lo && d.due < hi)
                    .map(|d| d.lag * 1e3)
                    .collect();
                stats::median(&v).unwrap_or(0.0)
            };
            let backlogged = lag_in(2.0 * third, rung_s) > lag_in(0.0, third) + l.lag_growth_ms;
            let pass = tails_ok && rung.fail_rate() <= l.max_fail_rate && !backlogged;
            eprintln!(
                "ladder: {rate:.1} rps -> {} ({} requests{})",
                if pass { "pass" } else { "fail" },
                done.len(),
                if backlogged { ", backlogged" } else { "" }
            );
            pass
        })
        .unwrap_or(0.0)
}

/// What the probe thread saw beside the load.
#[derive(Default)]
struct Probes {
    health_ms: Vec<f64>,
    queue_depth_max: f64,
    occupancy: Vec<f64>,
    outcomes: Vec<bool>,
}

/// While `on`, every [`PROBE_INTERVAL`]: one `GET /health` (timed: the
/// server's floor) and one `GET /status` (queue depth and occupancy).
fn probe(addr: &str, on: &AtomicBool) -> Probes {
    let client = client(addr);
    let mut p = Probes::default();
    let mut next = Instant::now();
    while on.load(Ordering::SeqCst) {
        let t = Instant::now();
        let health = client.get("/health");
        p.health_ms.push(t.elapsed().as_secs_f64() * 1e3);
        p.outcomes.push(health.is_ok_and(|r| r.status == 200));
        let status = client.get("/status").ok().and_then(|r| json_body(&r));
        p.outcomes.push(status.is_some());
        if let Some(s) = status {
            let depth = s.get("queue_depth").and_then(Value::as_f64).unwrap_or(0.0);
            p.queue_depth_max = p.queue_depth_max.max(depth);
            // The `/status` request occupies a worker itself; count the
            // others only.
            let busy = s.get("inflight").and_then(Value::as_f64).unwrap_or(1.0);
            let workers = s.get("workers").and_then(Value::as_f64).unwrap_or(1.0);
            p.occupancy.push((busy - 1.0).max(0.0) / workers);
        }
        next += PROBE_INTERVAL;
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    p
}

/// Counts the replica measured.
#[derive(Default)]
struct Replica {
    cells: f64,
    recompute_fraction: f64,
    snapshot_bytes: f64,
}

/// Replay the stream offline through `DeltaState`. A traced run also
/// rebuilds the warm state layer by layer first and logs every apply to a
/// scratch WAL (with snapshots at the server's cadence), each call in a
/// span under one `replay` root.
fn replay(
    w: &Workload,
    dir: &Path,
    deltas: &[(String, KgDelta)],
    tracer: &Tracer,
) -> Result<(Expected, Replica), String> {
    let traced = tracer.enabled();
    tracer.span("replay", None, |root| {
        let pair = tracer.span("graph.load", root, |_| data::load_pair(w, dir))?;
        let (base, lexicon) =
            tracer.span("embed.build", root, |_| data::build_embedders(w, dir))?;
        let target: &dyn ceaff_embed::WordEmbedder = match &lexicon {
            Some(l) => l,
            None => &base,
        };
        let cfg = w.config();
        let mut replica = Replica::default();
        if traced {
            let layers = w.spec.prop_layers.ok_or("serving needs propagation")?;
            let structural = tracer.span("core.propagation", root, |_| {
                let enc = ceaff_core::propagation::encode(&pair, cfg.gcn.dim, layers);
                StructuralFeature::from_encoder(&pair, enc)
            });
            let semantic = tracer.span("core.semantic", root, |_| {
                SemanticFeature::compute(&pair, &base, target)
            });
            let string = tracer.span("core.string", root, |_| StringFeature::compute(&pair));
            let features = FeatureSet {
                structural: Some(structural),
                semantic: Some(semantic),
                string: Some(string),
                extra: Vec::new(),
            };
            let out = tracer
                .span("core.fuse_match", root, |_| {
                    try_run_with_features(&pair, &features, &cfg, &Telemetry::disabled())
                })
                .map_err(|e| e.to_string())?;
            tracer.span("core.matching", root, |_| {
                cfg.matcher.build().matching_store(&out.fused)
            });
            replica.cells = (pair.test_sources().len() * pair.test_targets().len()) as f64;
        }
        let input = EaInput::new(&pair, &base, target);
        let mut state = tracer
            .span("core.delta.new", root, |_| DeltaState::new(&input, &cfg))
            .map_err(|e| e.to_string())?;
        let mut wal = if traced {
            let _ = std::fs::remove_dir_all(dir.join("replica-wal"));
            let opts = WalOptions {
                dir: dir.join("replica-wal"),
                snapshot_every: w.serve().ok_or("not a serving workload")?.snapshot_every,
            };
            Some(Wal::open(opts, 0, 0, 0).map_err(|e| e.to_string())?)
        } else {
            None
        };
        let (mut fractions, mut bytes) = (Vec::new(), Vec::new());
        for (_, delta) in deltas {
            let diff = tracer
                .span("core.delta.apply", root, |_| {
                    state.apply(delta, &base, target)
                })
                .map_err(|e| e.to_string())?;
            fractions.push(diff.recompute_fraction);
            if let Some(wal) = wal.as_mut() {
                tracer
                    .span("server.wal.append", root, |_| {
                        wal.append(delta, state.step(), state.fingerprint())
                    })
                    .map_err(|e| e.to_string())?;
                if wal.snapshot_due() {
                    let payload = tracer
                        .span("core.snapshot.encode", root, |_| {
                            ceaff_core::snapshot::encode_delta_state(&state)
                        })
                        .map_err(|e| e.to_string())?;
                    bytes.push(payload.len() as f64);
                    tracer
                        .span("server.wal.snapshot_install", root, |_| {
                            wal.install_snapshot(&payload)
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        replica.recompute_fraction = mean(&fractions);
        replica.snapshot_bytes = stats::median(&bytes).unwrap_or(0.0);
        let out = state.output();
        let src = data::test_names(state.pair(), true);
        let tgt = data::test_names(state.pair(), false);
        let pairs = out
            .matching
            .pairs()
            .iter()
            .map(|&(i, j)| (src[i].clone(), tgt[j].clone()))
            .collect();
        Ok((
            Expected {
                step: state.step(),
                fingerprint: state.fingerprint(),
                accuracy: out.accuracy,
                pairs,
            },
            replica,
        ))
    })
}

/// `(source, target)` names of an `/align` body's pairs.
fn align_pairs(body: &Value) -> Vec<(String, String)> {
    body.get("pairs")
        .and_then(Value::as_array)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_array()?;
                    Some((
                        p.first()?.as_str()?.to_owned(),
                        p.get(1)?.as_str()?.to_owned(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Poll `GET /health` until it answers 200 (or give up after 60 s).
fn wait_healthy(addr: &str) -> Result<(), String> {
    let client = client(addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if client.get("/health").is_ok_and(|r| r.status == 200) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("server never became healthy".into())
}

/// A client that never retries: a shed or a transport error is a failure.
fn client(addr: &str) -> Client {
    Client::new(
        addr,
        ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
}

fn json_body(r: &HttpResult) -> Option<Value> {
    serde_json::from_str(&r.body).ok()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
