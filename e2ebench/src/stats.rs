//! Summary statistics and failure accounting.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this benchmark prints are
//! the spreads a reader recomputes from the raw values with the standard
//! library.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let (q1, q3) = quartiles(&sorted)?;
        Some(Summary { n: sorted.len(), median: median(&sorted)?, q1, q3 })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of ascending `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of ascending `sorted`, by the exclusive
/// method of `statistics.quantiles(n=4)`. A single sample is its own
/// quartiles (Python needs two).
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    match ld {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The percentiles a latency may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten of
/// `n` samples strictly beyond it, or `None` when even p75 has fewer —
/// a tail percentile resting on fewer samples is noise.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in integer per-mille arithmetic so that e.g. p99.9 of 10 000 samples
/// is exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Percentile `p` of `samples` by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// Operations attempted and failed. A failed, refused or mismatched
/// operation counts once in each; the run is correct only when none
/// failed and at least one was attempted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 3.0) && close(s.q3, 4.5));
        assert!(close(s.spread(), 1.0));
    }

    #[test]
    fn summary_of_edge_cases() {
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[2.5]).unwrap();
        assert_eq!((one.n, one.median, one.q1, one.q3), (1, 2.5, 2.5, 2.5));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None); // p75 leaves 9 beyond
        assert_eq!(tail_percentile(40), Some(75.0)); // p75 leaves 10
        assert_eq!(tail_percentile(99), Some(75.0)); // p90 leaves 9
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0)); // p99 leaves 9
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tally_counts_every_failure_against_attempts() {
        let mut tally = Tally::default();
        assert!(!tally.correct(), "nothing attempted is not a pass");
        assert_eq!(tally.failed_frac(), 1.0);
        tally.record(Ok(()));
        tally.record(Ok(()));
        assert!(tally.correct());
        assert_eq!(tally.failed_frac(), 0.0);
        tally.record(Err("csv mismatch".into()));
        assert!(!tally.correct());
        assert!(close(tally.failed_frac(), 1.0 / 3.0));

        let mut other = Tally::default();
        other.record(Err("refused".into()));
        other.record(Ok(()));
        tally.absorb(other);
        assert_eq!((tally.attempted, tally.failed), (5, 2));
        assert_eq!(tally.reasons, vec!["csv mismatch".to_owned(), "refused".to_owned()]);
    }

    #[test]
    fn tally_keeps_only_the_first_reasons() {
        let mut tally = Tally::default();
        for i in 0..20 {
            tally.record(Err(format!("failure {i}")));
        }
        assert_eq!(tally.failed, 20);
        assert_eq!(tally.reasons.len(), 8);
        assert_eq!(tally.reasons[0], "failure 0");
    }
}
