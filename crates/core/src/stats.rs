//! Small statistics toolkit: summaries, histograms and a Gaussian kernel
//! density estimator (used to regenerate the probability-density curves of
//! paper Fig. 1).

/// Summary statistics over a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Compute summary statistics. Panics on an empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summarize: empty sample");
    let n = xs.len();
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += x;
    }
    let mean = sum / n as f64;
    let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    Summary {
        n,
        min,
        max,
        mean,
        std: var.sqrt(),
    }
}

/// `q`-quantile (0..=1) using linear interpolation on the sorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile: empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let w = pos - lo as f64;
        s[lo] * (1.0 - w) + s[hi] * w
    }
}

/// Equal-width histogram over `[lo, hi]` with `bins` buckets; values outside
/// the range are clamped into the edge buckets. Returns `(bin_center, count)`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, usize)> {
    assert!(bins > 0 && hi > lo, "histogram: bad configuration");
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &x in xs {
        let idx = (((x - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + (i as f64 + 0.5) * width, c))
        .collect()
}

/// Silverman's rule-of-thumb bandwidth for a Gaussian KDE.
pub fn silverman_bandwidth(xs: &[f64]) -> f64 {
    let s = summarize(xs);
    let n = s.n as f64;
    (1.06 * s.std * n.powf(-0.2)).max(1e-9)
}

/// Gaussian kernel density estimate evaluated at `grid` points.
///
/// Returns `(x, density)` pairs; densities integrate to ~1 over the grid.
pub fn gaussian_kde(xs: &[f64], grid: &[f64], bandwidth: f64) -> Vec<(f64, f64)> {
    assert!(!xs.is_empty(), "kde: empty sample");
    assert!(bandwidth > 0.0, "kde: bandwidth must be positive");
    let norm = 1.0 / (xs.len() as f64 * bandwidth * (2.0 * std::f64::consts::PI).sqrt());
    grid.iter()
        .map(|&g| {
            let d: f64 = xs
                .iter()
                .map(|&x| {
                    let u = (g - x) / bandwidth;
                    (-0.5 * u * u).exp()
                })
                .sum();
            (g, d * norm)
        })
        .collect()
}

/// `n` evenly spaced points over `[lo, hi]`, inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// `n` log-spaced points over `[lo, hi]`, inclusive; `lo`, `hi` > 0.
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "logspace needs 0 < lo < hi");
    linspace(lo.ln(), hi.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// Number of log2 latency buckets used by the telemetry histograms:
/// upper edges `2^0 .. 2^41` (nanosecond scale: ~1 ns to ~36 minutes)
/// plus a final `+Inf` bucket. The edge set is fixed, so every
/// histogram renders the same bucket rows and re-renders
/// byte-identically from run to run.
pub const LOG2_BUCKETS: usize = 43;

/// Bucket index of `v` under the fixed log2 edges: the smallest `k`
/// with `v <= 2^k` (bucket 0 holds 0 and 1), or the `+Inf` bucket
/// (`LOG2_BUCKETS - 1`) past the last finite edge.
pub fn log2_bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    // ceil(log2(v)) for v >= 2.
    let idx = 64 - (v - 1).leading_zeros() as usize;
    idx.min(LOG2_BUCKETS - 1)
}

/// Upper edge of bucket `i` (`Some(2^i)`), or `None` for the `+Inf`
/// bucket.
pub fn log2_bucket_le(i: usize) -> Option<u64> {
    assert!(i < LOG2_BUCKETS, "bucket index out of range");
    (i < LOG2_BUCKETS - 1).then(|| 1u64 << i)
}

/// Geometric mean (all inputs must be positive).
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean: empty sample");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.1, 0.2, 0.9, -5.0, 99.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1, 3); // 0.1, 0.2, -5.0 clamped
        assert_eq!(h[1].1, 2); // 0.9, 99.0 clamped
        assert!((h[0].0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kde_integrates_to_one() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let grid = linspace(-10.0, 20.0, 601);
        let bw = silverman_bandwidth(&xs);
        let kde = gaussian_kde(&xs, &grid, bw);
        let dx = grid[1] - grid[0];
        let integral: f64 = kde.iter().map(|(_, d)| d * dx).sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn kde_peaks_near_mode() {
        let xs = vec![5.0; 50];
        let grid = linspace(0.0, 10.0, 101);
        let kde = gaussian_kde(&xs, &grid, 0.5);
        let (best_x, _) = kde
            .iter()
            .cloned()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((best_x - 5.0).abs() < 0.1);
    }

    #[test]
    fn linspace_and_logspace() {
        let l = linspace(0.0, 1.0, 5);
        assert_eq!(l, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let g = logspace(1.0, 16.0, 5);
        assert!((g[2] - 4.0).abs() < 1e-9);
        assert!((g[4] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summarize_rejects_empty() {
        summarize(&[]);
    }
}
