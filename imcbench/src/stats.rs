//! Order statistics over timing samples.

/// Samples sorted ascending (timings are finite by construction).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for even counts); 0 when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile, `q` in `[0, 1]`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail sample: the highest percentile with at least ten samples beyond
/// it, as `(percentile, value)`. With fewer than eleven samples no such
/// percentile exists and the maximum is returned at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    let index = n - 11;
    (100.0 * (index + 1) as f64 / n as f64, v[index])
}
