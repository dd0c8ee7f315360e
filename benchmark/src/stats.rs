//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between the two closest ranks (position `q·(N−1)`), so `q = 0.5` on
/// an even count is the midpoint of the two middle samples. Returns
/// `None` on an empty slice.
///
/// Interpolation rather than nearest-rank matters on the mixed
/// workloads: `run_comm` has eight op kinds in equal numbers, so the
/// 50 % point sits exactly on the boundary between the fourth and fifth
/// kinds, and nearest-rank would report whichever side rounding picks.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Sorts `samples` in place and returns its median (`None` if empty).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile position — the
/// figure that says whether a tail percentile is resolved (the
/// choosing-metrics guide asks for at least ten).
pub fn samples_beyond(count: usize, q: f64) -> usize {
    match count.checked_sub(1) {
        None => 0,
        Some(last) => last - (q.clamp(0.0, 1.0) * last as f64).ceil() as usize,
    }
}
