//! Pure arithmetic the benchmark reports with: quantiles from raw samples,
//! the ladder rung verdict, the metric-name grammar, and span self time.
//! Kept free of I/O so the unit tests below pin every formula.

/// The `q`-quantile (`0 < q <= 1`) of raw samples by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. Returns
/// `None` for an empty sample. No bucketing: every sample counts exactly.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median of raw samples (nearest-rank 0.5-quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The raw-sample `q`-quantile of each of `windows` equal consecutive
/// slices of `samples` (in arrival order).
pub fn window_quantiles(samples: &[f64], windows: usize, q: f64) -> Vec<f64> {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    samples.chunks(size).filter_map(|w| quantile(w, q)).collect()
}

/// The lower quartile (nearest rank) of [`window_quantiles`]. Host noise on a shared machine only ever adds latency and
/// comes in bursts, so the quieter windows track the program; taking the
/// quartile rather than the minimum keeps one lucky window from setting the
/// figure.
pub fn quiet_window_quantile(samples: &[f64], windows: usize, q: f64) -> Option<f64> {
    quantile(&window_quantiles(samples, windows, q), 0.25)
}

/// Arithmetic mean, `0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// What one ladder rung measured.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate (requests/s).
    pub rate_rps: f64,
    /// p99 latency over the whole rung (ms), from raw samples.
    pub p99_ms: f64,
    /// Median latency of requests due in the rung's first half (ms).
    pub p50_first_ms: f64,
    /// Median latency of requests due in the rung's second half (ms).
    pub p50_second_ms: f64,
    /// Requests that failed or never completed.
    pub failed: u64,
}

/// A rung passes when every request completed, its p99 is at or below
/// `limit_ms`, and the backlog is not growing: the second half's median may
/// exceed the first half's by at most one epoch (`epoch_ms`). A queue that
/// grows without bound pushes each later request's wait up, so the two
/// halves drift apart by more than the batching quantum.
pub fn rung_passes(r: &Rung, limit_ms: f64, epoch_ms: f64) -> bool {
    r.failed == 0 && r.p99_ms <= limit_ms && r.p50_second_ms - r.p50_first_ms <= epoch_ms
}

/// The highest rate among the leading run of passing rungs (a ladder stops
/// at its first failing rung), or `None` if the first rung fails.
pub fn max_passing_rate(rungs: &[Rung], limit_ms: f64, epoch_ms: f64) -> Option<f64> {
    rungs.iter().take_while(|r| rung_passes(r, limit_ms, epoch_ms)).map(|r| r.rate_rps).last()
}

/// Checks a metric name against the benchmark's grammar: starts with a
/// letter or digit, at most 64 characters from letters, digits, `_`, `.`
/// and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Checks a unit: 1 to 16 characters from letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// One recorded span: a named interval with an optional parent (an index
/// into the same span list) and the epoch it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `lb.make_batches`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Replay epoch id the span belongs to.
    pub epoch: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of span `idx`: its duration minus the union of the intervals
/// its direct children cover (clipped to the parent, overlaps counted once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let p = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = p.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    p.dur_ns() - covered
}

/// The share (percent) of root spans named `root` that no child accounts
/// for: Σ self time / Σ duration over those roots. `0` when there are none.
pub fn unattributed_pct(spans: &[Span], root: &str) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == root && s.parent.is_none() {
            own += self_time_ns(spans, i);
            total += s.dur_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * own as f64 / total as f64
    }
}

/// Total duration (ns) of all spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
}

/// Total duration (ns) of the spans named `name` that sit inside another
/// span (excludes root spans timed beside the tree).
pub fn nested_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name && s.parent.is_some()).map(Span::dur_ns).sum()
}

/// Mean duration (ms) of the spans named `name`; `0` if there are none.
pub fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let n = spans.iter().filter(|s| s.name == name).count();
    if n == 0 {
        0.0
    } else {
        total_ns(spans, name) as f64 / n as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_every_raw_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.001), Some(1.0));
        // Order of arrival does not matter; values between buckets survive.
        let ys = [503.0, 453.0, 470.5, 481.25];
        assert_eq!(median(&ys), Some(470.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn quiet_window_quantiles_take_the_lower_quartile_window() {
        // Eight windows of 100, each shifted up by its index; two hold bursts.
        let mut xs = Vec::new();
        for k in 0..8 {
            let burst = if k == 1 || k == 6 { 10.0 } else { 1.0 };
            xs.extend((1..=100).map(|x| (f64::from(x) + f64::from(k)) * burst));
        }
        // Window quantiles ranked: the 2nd of 8 is the window shifted by 2.
        assert_eq!(quiet_window_quantile(&xs, 8, 0.99), Some(101.0));
        assert_eq!(quiet_window_quantile(&xs, 8, 0.5), Some(52.0));
        assert_eq!(quiet_window_quantile(&xs, 1, 0.5), median(&xs));
        assert_eq!(quiet_window_quantile(&[], 8, 0.5), None);
        // Fewer samples than windows still answers.
        assert_eq!(quiet_window_quantile(&[4.0, 2.0], 8, 0.5), Some(2.0));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    fn rung(rate: f64, p99: f64, a: f64, b: f64, failed: u64) -> Rung {
        Rung { rate_rps: rate, p99_ms: p99, p50_first_ms: a, p50_second_ms: b, failed }
    }

    #[test]
    fn rung_verdict_needs_p99_within_limit_and_a_flat_backlog() {
        assert!(rung_passes(&rung(8000.0, 150.0, 60.0, 70.0, 0), 150.0, 50.0));
        // p99 just over the limit.
        assert!(!rung_passes(&rung(8000.0, 150.1, 60.0, 70.0, 0), 150.0, 50.0));
        // Growing backlog: the second half waits more than an epoch longer.
        assert!(!rung_passes(&rung(8000.0, 120.0, 40.0, 91.0, 0), 150.0, 50.0));
        // A failed request fails the rung.
        assert!(!rung_passes(&rung(8000.0, 100.0, 40.0, 40.0, 1), 150.0, 50.0));
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let rungs = [
            rung(4000.0, 90.0, 60.0, 61.0, 0),
            rung(8000.0, 120.0, 62.0, 64.0, 0),
            rung(12000.0, 400.0, 80.0, 300.0, 0),
            rung(16000.0, 100.0, 60.0, 60.0, 0),
        ];
        assert_eq!(max_passing_rate(&rungs, 150.0, 50.0), Some(8000.0));
        assert_eq!(max_passing_rate(&rungs[2..], 150.0, 50.0), None);
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        for ok in ["p99_ms.hi", "obliv.osort_ms.tN", "setup_s", "2x", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".p99", "_x", "p99 ms", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "MB/s", "count", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: s, end_ns: e, parent, epoch: 1 }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),  // overlaps a by 5
            span("c", 90, 120, Some(0)), // sticks out past the parent
            span("a.inner", 12, 14, Some(1)),
        ];
        // Children cover [10,50) and [90,100): 50 ns, so 50 ns remain.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 18);
        assert_eq!(self_time_ns(&spans, 4), 2);
        assert_eq!(unattributed_pct(&spans, "epoch"), 50.0);
        assert_eq!(total_ns(&spans, "a"), 20);
        assert_eq!(nested_ns(&spans, "epoch"), 0);
        assert_eq!(nested_ns(&spans, "c"), 30);
        assert_eq!(mean_ms(&spans, "a"), 20.0 / 1e6);
        assert_eq!(mean_ms(&spans, "missing"), 0.0);
    }

    #[test]
    fn unattributed_share_pools_every_root() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("x", 0, 100, Some(0)),
            span("epoch", 200, 300, None),
            span("x", 200, 250, Some(2)),
        ];
        // 0 + 50 unattributed over 200 total.
        assert_eq!(unattributed_pct(&spans, "epoch"), 25.0);
        assert_eq!(unattributed_pct(&spans, "missing"), 0.0);
    }
}
