//! Order statistics for reported timings.

/// Fewest samples a reported tail percentile must leave above it.
pub const TAIL_MARGIN: usize = 10;

/// A percentile read from a sample set, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples.
fn rank_of(pct: f64, n: usize) -> usize {
    // pct·n before the division keeps whole ranks exact (99·1000/100).
    ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `pct` of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank_of(pct, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// The median of `sorted` (ascending, non-empty).
pub fn median(sorted: &[f64]) -> Percentile {
    assert!(!sorted.is_empty(), "median of no samples");
    Percentile {
        pct: 50.0,
        value: nearest_rank(sorted, 50.0),
        samples: sorted.len(),
    }
}

/// The highest percentile up to `want` that still has at least
/// [`TAIL_MARGIN`] samples above its rank. With too few samples for any
/// tail, this falls back to the median.
pub fn tail(sorted: &[f64], want: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    if n <= 2 * TAIL_MARGIN {
        return median(sorted);
    }
    let rank = rank_of(want, n).min(n - TAIL_MARGIN);
    let pct = if rank == rank_of(want, n) {
        want
    } else {
        100.0 * rank as f64 / n as f64
    };
    Percentile {
        pct,
        value: sorted[rank - 1],
        samples: n,
    }
}

/// Median of an unsorted slice of values (copies).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median(&v).value
}

/// Passes a run of `seconds` makes when one pass takes about
/// `pass_seconds` (never fewer than `min`). The count depends only on the
/// arguments, so a faster program does the same work in less time and
/// its per-operation minima rest on the same number of repeats.
pub fn passes_for(seconds: f64, pass_seconds: f64, min: usize) -> usize {
    ((seconds / pass_seconds).round() as usize).max(min)
}

/// Each operation's least-disturbed time: the element-wise minimum over
/// passes that replay the same operations in the same order. Interference
/// from the rest of the host only ever adds time, so the minimum is the
/// steadiest estimate of what the code itself costs.
pub fn per_op_min<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut passes = passes.into_iter();
    let mut out = passes.next().expect("at least one pass").to_vec();
    for pass in passes {
        assert_eq!(pass.len(), out.len(), "passes replay the same operations");
        for (m, &v) in out.iter_mut().zip(pass) {
            *m = m.min(v);
        }
    }
    out
}

/// Tracing overhead: the traced pass's median operation time over the
/// median of the untraced passes' medians, minus one.
pub fn trace_overhead(pass_medians: &[f64], traced: usize) -> f64 {
    let untraced: Vec<f64> = pass_medians
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != traced)
        .map(|(_, &m)| m)
        .collect();
    pass_medians[traced] / median_of(&untraced) - 1.0
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let p = tail(&ramp(1_000), 99.0);
        assert_eq!((p.pct, p.value, p.samples), (99.0, 990.0, 1_000));
        // Ten samples lie above the reported rank.
        assert_eq!(1_000 - p.value as usize, TAIL_MARGIN);
    }

    #[test]
    fn short_sets_fall_back_to_the_highest_percentile_with_margin() {
        let p = tail(&ramp(500), 99.0);
        assert_eq!(p.pct, 98.0);
        assert_eq!(p.value, 490.0);
        assert_eq!(p.samples, 500);
        let p = tail(&ramp(333), 99.0);
        assert!(p.pct < 97.0 && p.pct > 96.9, "{}", p.pct);
        assert_eq!(333 - p.value as usize, TAIL_MARGIN);
    }

    #[test]
    fn tiny_sets_report_the_median() {
        let p = tail(&ramp(15), 99.0);
        assert_eq!((p.pct, p.value, p.samples), (50.0, 8.0, 15));
    }

    #[test]
    fn per_op_min_takes_each_operations_fastest_pass() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 5.0];
        assert_eq!(per_op_min([&a[..], &b[..]]), vec![2.0, 1.0, 5.0]);
    }

    #[test]
    fn pass_count_follows_the_arguments_only() {
        assert_eq!(passes_for(10.0, 2.5, 2), 4);
        assert_eq!(passes_for(10.0, 12.0, 2), 2);
        assert_eq!(passes_for(60.0, 12.0, 2), 5);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(4)).value, 2.0);
        assert_eq!(median(&ramp(5)).value, 3.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
