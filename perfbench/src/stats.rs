//! Order statistics over timing samples.
//!
//! Timings are summarised as a median plus the highest tail percentile that
//! still has at least [`MIN_TAIL_SAMPLES`] samples beyond it, so a tail is
//! never read off a handful of observations.

/// Samples a reported tail percentile must have beyond it.
const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles in basis points (1/100 of a percent),
/// highest first.
const TAIL_LADDER_BP: [usize; 5] = [9999, 9990, 9900, 9000, 5000];

/// The `p`-th percentile (0..=100) of `sorted` by linear interpolation
/// between closest ranks; `None` for an empty slice.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p.clamp(0.0, 100.0) / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `values` (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// First and third quartiles of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark reports agree with that definition.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        // Exclusive method: position j = i * (n + 1) / 4, 1-based.
        let m = (n + 1) as f64;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// A tail summary: which percentile was reported, its value and the sample
/// count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile of `values` with at least [`MIN_TAIL_SAMPLES`]
/// samples strictly beyond it; `None` below `2 * MIN_TAIL_SAMPLES` samples,
/// where even the median has too few.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    TAIL_LADDER_BP.iter().find_map(|&bp| {
        // Samples strictly above the percentile's rank, in exact integers.
        let beyond = n - (bp * n).div_ceil(10_000);
        let p = bp as f64 / 100.0;
        (beyond >= MIN_TAIL_SAMPLES).then(|| Tail {
            percentile: p,
            value: percentile(&s, p).expect("non-empty"),
            samples: n,
        })
    })
}

/// Whether `name` is a valid metric name: non-empty, at most 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19]), None);
        let t = tail(&[1.0; 20]).unwrap();
        assert_eq!((t.percentile, t.samples), (50.0, 20));
        assert_eq!(tail(&vec![1.0; 100]).unwrap().percentile, 90.0);
        assert_eq!(tail(&vec![1.0; 999]).unwrap().percentile, 90.0);
        assert_eq!(tail(&vec![1.0; 1000]).unwrap().percentile, 99.0);
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        let t = tail(&many).unwrap();
        assert_eq!((t.percentile, t.samples), (99.9, 20_000));
        assert!((t.value - 19_979.001).abs() < 1e-6, "{}", t.value);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "compute.encoder_fwd_s", "a-b.c_1", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
