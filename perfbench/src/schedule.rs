//! The open-loop request schedule of the serving workload: every arrival
//! time, route and entity is drawn from the run's seed before the first
//! request is sent, so a slow server cannot thin out its own load.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What one scheduled request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /topk` for the source entity at this index of the entity list.
    Topk(usize),
    /// `POST /align` (one full matching decision).
    Align,
    /// `POST /delta` with this 0-based entry of the edit stream.
    Delta(usize),
}

impl Route {
    /// Route label used in spans and per-route statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Topk(_) => "topk",
            Route::Align => "align",
            Route::Delta(_) => "delta",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// When it is due, in seconds from the start of the load.
    pub due: f64,
    /// What it asks for.
    pub route: Route,
}

/// Offered load, in requests per second per route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// `GET /topk` arrivals per second.
    pub topk_rps: f64,
    /// `POST /align` arrivals per second.
    pub align_rps: f64,
    /// `POST /delta` arrivals per second.
    pub delta_rps: f64,
}

impl Mix {
    /// The same mix scaled to `total` requests per second.
    pub fn at_rate(&self, total: f64) -> Mix {
        let f = total / (self.topk_rps + self.align_rps + self.delta_rps);
        Mix {
            topk_rps: self.topk_rps * f,
            align_rps: self.align_rps * f,
            delta_rps: self.delta_rps * f,
        }
    }
}

/// Share of each gap between two heavy requests that no `/topk` is due
/// in. Without it, reads and writes met at random and the ten-seed spread
/// of the served medians at least doubled.
const GUARD: f64 = 0.7;

/// The schedule of `seconds` of load under `mix`, sorted by due time.
///
/// Time is cut into cycles of one write each (`1 / delta_rps` seconds).
/// The requests that do heavy work come on a grid: the write at the start
/// of a cycle, the `/align` reads evenly spaced after it. `/topk` reads
/// fill the rest of each gap between two of them, starting a share
/// [`GUARD`] of the gap after the first, so on a lightly loaded server every
/// request runs alone and its latency is its own; raising the rate
/// shrinks the guard until requests meet. The seed picks each `/topk`
/// entity and jitters every arrival by up to a fifth of the spacing of
/// the `/topk` reads. Writes carry stream entries `first_delta`,
/// `first_delta + 1`, … in order.
pub fn build(seed: u64, mix: &Mix, seconds: f64, entities: usize, first_delta: usize) -> Vec<Op> {
    assert!(entities > 0, "the schedule needs entities to query");
    assert!(mix.delta_rps > 0.0, "the schedule is built around writes");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5c4e_d01e);
    let cycle = 1.0 / mix.delta_rps;
    let gaps = 1 + (mix.align_rps * cycle).round() as usize;
    let topks = (mix.topk_rps * cycle).round() as usize;
    let gap = cycle / gaps as f64;
    let window = gap * (1.0 - GUARD);
    let spacing = window / (topks as f64 / gaps as f64).ceil().max(1.0);
    let mut ops = Vec::new();
    let mut delta = first_delta;
    let mut c = 0;
    while c as f64 * cycle < seconds {
        let start = c as f64 * cycle;
        for g in 0..gaps {
            let route = if g == 0 {
                delta += 1;
                Route::Delta(delta - 1)
            } else {
                Route::Align
            };
            ops.push(Op {
                due: start + g as f64 * gap + (0.2 + rng.gen_range(-0.2..0.2)) * spacing,
                route,
            });
            // This gap's share of the cycle's `/topk` reads.
            let n = topks / gaps + usize::from(g < topks % gaps);
            for i in 0..n {
                let at = i as f64 + 0.5 + rng.gen_range(-0.2..0.2);
                ops.push(Op {
                    due: start + g as f64 * gap + gap * GUARD + at * spacing,
                    route: Route::Topk(rng.gen_range(0..entities)),
                });
            }
        }
        c += 1;
    }
    ops.retain(|op| op.due < seconds);
    ops.sort_by(|a, b| a.due.partial_cmp(&b.due).expect("finite due times"));
    // Stream entries stay dense when the last cycle is cut short.
    let mut next = first_delta;
    for op in &mut ops {
        if let Route::Delta(k) = &mut op.route {
            *k = next;
            next += 1;
        }
    }
    ops
}

/// Number of stream entries a schedule consumes.
pub fn deltas_in(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|op| matches!(op.route, Route::Delta(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        topk_rps: 18.0,
        align_rps: 2.0,
        delta_rps: 2.0,
    };

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = build(42, &MIX, 10.0, 700, 0);
        let b = build(42, &MIX, 10.0, 700, 0);
        assert_eq!(a, b);
        let c = build(43, &MIX, 10.0, 700, 0);
        assert_ne!(a, c, "another seed must change arrivals or entities");
    }

    #[test]
    fn schedule_matches_the_mix() {
        let ops = build(7, &MIX, 20.0, 700, 3);
        assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(ops.iter().all(|op| op.due >= 0.0 && op.due < 20.0));
        let count = |f: fn(&Route) -> bool| ops.iter().filter(|op| f(&op.route)).count();
        assert_eq!(count(|r| matches!(r, Route::Topk(_))), 360);
        assert_eq!(count(|r| *r == Route::Align), 40);
        // Writes: one per cycle, in stream order from the first entry.
        let deltas: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op.route {
                Route::Delta(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(deltas, (3..43).collect::<Vec<_>>());
        assert!(ops.iter().all(|op| match op.route {
            Route::Topk(e) => e < 700,
            _ => true,
        }));
    }

    #[test]
    fn reads_keep_clear_of_heavy_requests() {
        let ops = build(9, &MIX, 10.0, 700, 0);
        let heavy: Vec<f64> = ops
            .iter()
            .filter(|op| !matches!(op.route, Route::Topk(_)))
            .map(|op| op.due)
            .collect();
        // Writes and decisions alternate every quarter second.
        for w in heavy.windows(2) {
            assert!((w[1] - w[0] - 0.25).abs() < 0.01, "{w:?}");
        }
        // No `/topk` is due within the guard after a heavy request.
        for op in ops.iter().filter(|op| matches!(op.route, Route::Topk(_))) {
            let since = heavy
                .iter()
                .filter(|&&h| h <= op.due)
                .map(|h| op.due - h)
                .fold(f64::INFINITY, f64::min);
            assert!(
                since > 0.25 * GUARD - 0.01,
                "a /topk is due {since:.3}s after"
            );
        }
    }

    #[test]
    fn scaled_mix_keeps_its_shares() {
        let m = MIX.at_rate(44.0);
        assert!((m.topk_rps - 36.0).abs() < 1e-9);
        assert!((m.align_rps - 4.0).abs() < 1e-9);
        assert!((m.delta_rps - 4.0).abs() < 1e-9);
    }
}
