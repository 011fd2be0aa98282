//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, in tenths of a percent (whole
/// numbers keep the "samples beyond" rule exact), lowest first.
const TAIL_LADDER_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// Fewest samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the middle two for an even count); NaN
/// for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so spreads computed here match the ones
/// the benchmark contract is checked with. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    Some((q3 - q1) / median(samples).abs())
}

/// The `pct`-th percentile (nearest rank) of `samples`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps 99.9 % of 1000 at rank 999, not 1000.
    let rank = (pct / 100.0 * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; the median when even the lowest rung has not.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .map_or(50.0, |&p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.9), 999.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_pct(9), 50.0);
        assert_eq!(tail_pct(39), 50.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
    }
}
