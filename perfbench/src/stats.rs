//! Order statistics over host-time samples.

/// Linear-interpolated quantile `q` in `[0, 1]`; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
