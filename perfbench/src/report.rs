//! Statistics and the one-line JSON result.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower quartile of `values`: the element at 1-based rank
/// `ceil(n/4)` (the minimum for up to four values); 0 when empty.
///
/// `endpoint_monitor`'s per-run figures are the slower quartile of the
/// run's passes: the lower quartile of rates, the upper quartile of
/// times. Set-up times are the upper quartile of every workload's
/// set-ups. On a shared machine a core's speed changes with its
/// neighbours' load for seconds at a time, and the slower quartile
/// leans on the slow spells, which most runs visit.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 25.0)
}

/// The upper quartile of `values`: the element at 1-based rank
/// `ceil(3n/4)`; 0 when empty. See [`lower_quartile`].
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 75.0)
}

/// Percentile `q` (0–100) of a sorted slice: the element at 1-based rank
/// `ceil(q/100 * n)`, as `plab_runner::report::percentile` ranks.
pub fn percentile_sorted<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles the tail metric may report, lowest first.
const TAIL_CANDIDATES: [f64; 9] = [90.0, 95.0, 96.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.99];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (50 when even the 90th has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&q| {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One named metric with its unit.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Collects metrics in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        debug_assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} emitted twice"
        );
        self.0.push(Metric { name, unit, value });
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so no digit of the measurement is lost.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(512), 98.0);
        assert_eq!(tail_percentile(256), 96.0);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(8), 50.0);
    }

    #[test]
    fn percentile_matches_runner_ranking() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
    }

    #[test]
    fn quartiles_pick_the_slower_repetitions() {
        assert_eq!(
            lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0]),
            2.0
        );
        assert_eq!(
            upper_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0]),
            6.0
        );
        assert_eq!(lower_quartile(&[3.0, 1.0]), 1.0);
        assert_eq!(upper_quartile(&[3.0, 1.0]), 3.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn median_of_even_count_is_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
