//! Order statistics over timing samples: median, quartiles and the tail.

/// Percentiles the tail is chosen from, lowest first.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile before it may be reported as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread printed here matches one computed from the printed samples.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `n` samples: the 1-based
/// rank of the sample that is reported.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of the samples; NaN when there are none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// The tail: the highest of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`. `None`
/// when even the median has fewer than that many samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| beyond(xs.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(xs, p)))
}
