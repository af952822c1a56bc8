//! Order statistics for the benchmark's reported timings, and the window
//! a run repeats its work in.

use std::time::{Duration, Instant};

/// How long a workload repeats its unit of work: at least `min` times,
/// and until `end`.
pub struct Window {
    end: Instant,
    min: u64,
    done: u64,
}

impl Window {
    /// Repeat for `seconds` from now, at least twice (a best-of needs two).
    pub fn seconds(seconds: u64) -> Window {
        Window {
            end: Instant::now() + Duration::from_secs(seconds),
            min: 2,
            done: 0,
        }
    }

    /// Repeat exactly `n` times.
    pub fn times(n: u64) -> Window {
        Window {
            end: Instant::now(),
            min: n,
            done: 0,
        }
    }

    /// Start one more repetition, if the window allows it.
    pub fn next(&mut self) -> bool {
        let more = self.done < self.min || Instant::now() < self.end;
        self.done += u64::from(more);
        more
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Highest percentile ever reported as a tail, even when more samples
/// would allow a higher one: far tails of a few thousand samples are
/// too noisy to compare between runs.
pub const TAIL_CAP_PCT: f64 = 99.0;

/// Median of `v` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile chosen by the "at least ten samples beyond" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value stands for, by nearest rank.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// The highest percentile, capped at [`TAIL_CAP_PCT`], that has at least
/// [`TAIL_BEYOND`] samples ranked beyond it; `None` when the sample is too
/// small for any percentile to qualify.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank of the cap, 0-based, then pulled down until enough
    // samples remain above it.
    let capped = ((TAIL_CAP_PCT / 100.0 * n as f64).ceil() as usize).max(1) - 1;
    let k = capped.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        pct: 100.0 * (k + 1) as f64 / n as f64,
        value: s[k],
        n,
        beyond: n - 1 - k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).expect("eleven samples qualify");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_sets() {
        for n in [11, 16, 50, 80, 200, 999] {
            let t = tail(&ramp(n)).unwrap();
            assert_eq!(t.beyond, TAIL_BEYOND, "n={n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n={n}");
            assert!((t.pct - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_caps_at_p99_on_large_sets() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 99_000.0, 1000));
    }
}
