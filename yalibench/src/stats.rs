//! The benchmark's own statistics: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" tail rule,
//! and the bisection that finds the highest offered rate meeting a
//! latency limit.

/// Percentiles a tail may be reported at, lowest first. The tail of a
/// sample set is the highest of these with [`MIN_BEYOND`] samples beyond
/// it; the median is always reported separately.
pub const TAIL_LADDER: [f64; 2] = [90.0, 99.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample set");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The epsilon keeps exact products (p = 90, n = 540) from rounding up
    // through floating-point error.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The median of an unsorted set (nearest rank, so always a sample).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample set summarised as its median and tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Summarises `samples`; `None` when there are too few for any tail.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_p = tail_percentile(samples.len())?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_p,
        tail: percentile(&v, tail_p),
    })
}

/// Summarises each series window by window — consecutive runs of
/// `window` samples, a series' short remainder dropped — and reports the
/// median over all windows of each window's median and tail. A stall on
/// a shared machine then moves one window's tail, not the reported one.
/// `None` when no full window exists or a window is too small for a
/// tail.
pub fn windowed(series: &[Vec<f64>], window: usize) -> Option<Summary> {
    if window == 0 {
        return None;
    }
    let sums: Vec<Summary> = series
        .iter()
        .flat_map(|s| s.chunks_exact(window))
        .map(summarize)
        .collect::<Option<_>>()?;
    let first = sums.first()?;
    let p50s: Vec<f64> = sums.iter().map(|s| s.p50).collect();
    let tails: Vec<f64> = sums.iter().map(|s| s.tail).collect();
    Some(Summary {
        n: sums.len() * window,
        p50: median(&p50s),
        tail_p: first.tail_p,
        tail: median(&tails),
    })
}

/// Element-wise minimum over repeats of the same sample set: each
/// sample's fastest time. A slow spell of a shared machine slows every
/// sample it covers, so the fastest repeat is the one it spared. `None`
/// when there are no repeats or their lengths differ.
pub fn best_of(repeats: &[Vec<f64>]) -> Option<Vec<f64>> {
    let (first, rest) = repeats.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(rest.iter().fold(first.clone(), |best, r| {
        best.iter().zip(r).map(|(a, b)| a.min(*b)).collect()
    }))
}

/// Bisects for the highest rate in `[lo, hi]` that `meets`, in `steps`
/// probes. `lo` is assumed to meet and `hi` to miss; each probe halves
/// the bracket, and the result is the highest rate that met (`lo` when
/// none did). `meets` is called once per probe, so a noisy limit is
/// never re-sampled into a different answer.
pub fn bisect_max_rate(lo: f64, hi: f64, steps: usize, mut meets: impl FnMut(f64) -> bool) -> f64 {
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_pick_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        let w: Vec<f64> = (1..=540).map(f64::from).collect();
        assert_eq!(percentile(&w, 90.0), 486.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 900 sweep points: p99 has 9 beyond, p90 has 90.
        assert_eq!(beyond(900, 99.0), 9);
        assert_eq!(tail_percentile(900), Some(90.0));
        // 225 Game-3 points: p90 has 22 beyond; 675 light points: 67.
        assert_eq!(tail_percentile(225), Some(90.0));
        assert_eq!(beyond(675, 99.0), 6);
        assert_eq!(tail_percentile(675), Some(90.0));
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n {n} p {p}");
            }
        }
        let s = summarize(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (1000, 500.0, 99.0, 990.0));
        assert!(summarize(&[1.0; 50]).is_none());
    }

    #[test]
    fn windowed_summaries_ignore_one_stalled_window() {
        // Five windows of 100 samples 1..=100 over two series; one window
        // stalls at 1e3, and each series' short remainder is dropped.
        let window: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut a: Vec<f64> = window.repeat(3);
        a[100..200].fill(1e3);
        a.extend([5.0; 40]);
        let mut b = window.repeat(2);
        b.extend([7.0; 99]);
        let series = vec![a, b];
        let s = windowed(&series, 100).unwrap();
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (500, 50.0, 90.0, 90.0));
        assert!(
            windowed(&series, 99).is_none(),
            "99-sample windows have no tail"
        );
        assert!(
            windowed(&[window[..99].to_vec()], 100).is_none(),
            "no full window"
        );
        assert!(windowed(&series, 0).is_none());
    }

    #[test]
    fn best_of_takes_each_samples_fastest_repeat() {
        let repeats = vec![
            vec![3.0, 1.0, 9.0],
            vec![2.0, 4.0, 9.5],
            vec![5.0, 1.5, 8.0],
        ];
        assert_eq!(best_of(&repeats), Some(vec![2.0, 1.0, 8.0]));
        assert_eq!(best_of(&repeats[..1]), Some(repeats[0].clone()));
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn bisection_finds_the_knee_of_a_synthetic_latency_curve() {
        // An M/M/1-like p99: latency explodes as the rate nears capacity.
        let capacity = 20_000.0;
        let p99_ms = |rate: f64| {
            if rate >= capacity {
                f64::INFINITY
            } else {
                4.6e3 / (capacity - rate)
            }
        };
        let limit_ms = 2.0;
        // Exact answer: 4.6e3 / (c - r) = 2  =>  r = c - 2300.
        let exact = capacity - 4.6e3 / limit_ms;
        let mut probes = Vec::new();
        let got = bisect_max_rate(2_000.0, 40_000.0, 8, |r| {
            probes.push(r);
            p99_ms(r) <= limit_ms
        });
        assert_eq!(probes.len(), 8);
        assert!(got <= exact, "{got} overshoots {exact}");
        assert!(
            exact - got <= 38_000.0 / 256.0,
            "{got} too far below {exact}"
        );
        // Every probe lies strictly inside the starting bracket.
        assert!(probes.iter().all(|&r| r > 2_000.0 && r < 40_000.0));
    }

    #[test]
    fn bisection_returns_lo_when_nothing_meets() {
        assert_eq!(bisect_max_rate(100.0, 200.0, 5, |_| false), 100.0);
        let top = bisect_max_rate(100.0, 200.0, 5, |_| true);
        assert!(top < 200.0 && top > 196.0);
    }
}
