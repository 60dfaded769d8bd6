//! Summary statistics the benchmark reports: median, quartiles, the tail
//! percentile rule, and open-loop lateness.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here matches the one computed over runs.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    if s.len() < 2 {
        return None;
    }
    Some((exclusive_quantile(&s, 1, 4), exclusive_quantile(&s, 3, 4)))
}

/// Python's exclusive-method cut point `i` of `n` over sorted data.
fn exclusive_quantile(s: &[f64], i: usize, n: usize) -> f64 {
    let m = s.len() + 1;
    let j = (i * m / n).clamp(1, s.len() - 1);
    // Measured from the clamped cut, so the ends extrapolate as Python's do.
    let delta = (i * m) as f64 - (j * n) as f64;
    (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
}

/// Percentiles the tail rule considers, highest first, in per-mille so
/// the rank arithmetic stays exact.
const TAIL_CANDIDATES_PERMILLE: [usize; 4] = [999, 990, 950, 900];

/// A tail percentile chosen by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest of p99.9/p99/p95/p90 that has at least ten samples beyond
/// it, with its sample count. `None` when even p90 has fewer than ten
/// (under 100 samples): such a tail is one or two outliers, not a
/// percentile.
pub fn tail_percentile(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    TAIL_CANDIDATES_PERMILLE.iter().find_map(|&pm| {
        // Nearest rank: the smallest value with at least pm/1000 of the
        // samples at or below it.
        let rank = (pm * n).div_ceil(1000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= 10).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: s[rank - 1],
            beyond,
            samples: n,
        })
    })
}

/// Lateness of each open-loop arrival: completion time minus the time it
/// was due, both in seconds from the schedule's start. Arrival `i` is due
/// at `i / rate`, whenever the generator actually got round to sending
/// it, so a stall counts against every arrival queued behind it.
pub fn open_loop_lag(completed_s: &[f64], rate_per_s: f64) -> Vec<f64> {
    completed_s
        .iter()
        .enumerate()
        .map(|(i, &done)| done - i as f64 / rate_per_s)
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some((1.0, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=256).map(f64::from).collect();
        // p99 of 256 leaves 2 beyond, p95 leaves 12.
        let t = tail_percentile(&v).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (95.0, 244.0, 12, 256)
        );

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&v).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 10));

        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
    }

    #[test]
    fn lag_is_measured_from_due_time_not_send_time() {
        // 10/s: arrivals due at 0.0, 0.1, 0.2, 0.3. The second one stalls
        // for 0.25 s; the third was due during the stall and is sent late,
        // but its lag still counts from 0.2, not from when it was sent.
        let done = [0.01, 0.36, 0.37, 0.38];
        let lag = open_loop_lag(&done, 10.0);
        let want = [0.01, 0.26, 0.17, 0.08];
        for (got, want) in lag.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{lag:?}");
        }
    }
}
