//! Statistics shared by every workload: medians, the tail rule, failure
//! accounting and the rate-ladder search.

/// Median of a sample (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples needed beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of a sample that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / n`.
    pub percentile: f64,
    /// Size of the whole sample.
    pub samples: usize,
}

/// The tail of a sample: with `n` samples sorted ascending, the value of
/// rank `n − 10` (1-based). `None` when fewer than 11 samples exist, so no
/// rank has ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Operations attempted and failed. A failure is a shed, an error
/// status, a transport failure or a wrong output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not produce a correct answer.
    pub failed: u64,
}

impl Outcomes {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A fixed geometric ladder of offered rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// Rates, strictly increasing.
    pub rungs: Vec<f64>,
}

impl Ladder {
    /// Rates `lo, lo·ratio, lo·ratio², …` up to and including the last one
    /// not above `hi`. `ratio` must lie in `(1, 1.1]`, so no step exceeds
    /// 10%.
    pub fn geometric(lo: f64, hi: f64, ratio: f64) -> Ladder {
        assert!(lo > 0.0 && hi >= lo, "ladder bounds must be positive");
        assert!(
            ratio > 1.0 && ratio <= 1.1,
            "ladder steps must be at most 10%"
        );
        let mut rungs = vec![lo];
        loop {
            let next = rungs[rungs.len() - 1] * ratio;
            if next > hi * (1.0 + 1e-12) {
                break;
            }
            rungs.push(next);
        }
        Ladder { rungs }
    }

    /// The highest rung at which `passes` holds, assuming it passes up to
    /// some rung and fails above it; found by bisection, so a ladder of
    /// `n` rungs is probed about `log2(n)` times. `None` when even the
    /// lowest rung fails.
    pub fn search(&self, mut passes: impl FnMut(f64) -> bool) -> Option<f64> {
        let (mut lo, mut hi) = (0usize, self.rungs.len());
        // Invariant: every rung below `lo` passed; every rung at or above
        // `hi` failed (or is untested past the end).
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if passes(self.rungs[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1).map(|i| self.rungs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        // Rank 1 is the only rank with ten samples above it.
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 12, 20, 100, 101, 1000] {
            let sample: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&sample).expect("enough samples");
            let beyond = sample.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.samples, n);
        }
        let t = tail(&(0..100).map(f64::from).collect::<Vec<_>>()).expect("tail");
        assert_eq!((t.value, t.percentile), (89.0, 90.0));
        let t = tail(&(0..1000).map(f64::from).collect::<Vec<_>>()).expect("tail");
        assert_eq!((t.value, t.percentile), (989.0, 99.0));
    }

    #[test]
    fn outcomes_count_failures_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.fail_rate(), 0.0);
        o.record(true);
        o.record(false);
        o.record(true);
        o.record(true);
        assert_eq!((o.attempted, o.failed), (4, 1));
        assert_eq!(o.fail_rate(), 0.25);
        o.merge(Outcomes {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(o.fail_rate(), 0.125);
    }

    #[test]
    fn ladder_steps_are_increasing_and_at_most_ten_percent() {
        let ladder = Ladder::geometric(5.0, 400.0, 1.1);
        assert_eq!(ladder.rungs[0], 5.0);
        assert!(*ladder.rungs.last().expect("rungs") <= 400.0);
        for w in ladder.rungs.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] / w[0] <= 1.1 + 1e-12);
        }
    }

    #[test]
    fn ladder_search_is_monotone_in_capacity() {
        let ladder = Ladder::geometric(5.0, 400.0, 1.08);
        let mut previous = None;
        // A system with more capacity never gets a lower answer.
        for capacity in [1.0, 5.0, 7.3, 20.0, 99.0, 250.0, 1e6] {
            let mut probes = 0;
            let found = ladder.search(|rate| {
                probes += 1;
                rate <= capacity
            });
            let expected = ladder.rungs.iter().copied().rfind(|&r| r <= capacity);
            assert_eq!(found, expected, "capacity {capacity}");
            assert!(found >= previous, "capacity {capacity}");
            previous = found;
            // Bisection: about log2(rungs) probes, never a linear scan.
            assert!(probes <= 1 + (ladder.rungs.len() as f64).log2().ceil() as usize);
        }
    }
}
