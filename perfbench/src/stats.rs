//! Order statistics and rates. Every timing the benchmark reports is a
//! nearest-rank percentile of per-operation samples; rates are built
//! from those percentiles, never from total wall time.

/// Nearest-rank percentile of `samples` (unsorted), `p` in `(0, 100]`:
/// the smallest sample such that at least `p` % of samples are `<=` it.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples that lie strictly above the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile is reported only with at least this many samples
/// beyond it; a tail read off fewer samples moves with single outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it (p99 needs 1000).
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The percentile of per-operation times that every end-to-end timing
/// and rate is built from. Other tenants of the host slow single
/// operations by up to a third, in bursts of seconds to minutes; the
/// fastest tenth of a run's operations is the part those bursts miss
/// most often, so it moves least between runs (see NOTES.md, "Steadiness
/// and bounds", for the measurement behind this choice).
pub const FAST_PERCENTILE: f64 = 10.0;

/// Work per second from a percentile of each item's times:
/// `Σ work_i / Σ percentile(times_i, p)`. Each item is one input that
/// was timed repeatedly; slow repeats of an item move its
/// [`FAST_PERCENTILE`], not the rate. `None` when any item has no
/// samples or the times sum to zero.
pub fn rate_at(items: &[(f64, &[f64])], p: f64) -> Option<f64> {
    let mut work = 0.0;
    let mut secs = 0.0;
    for (w, times) in items {
        work += w;
        secs += percentile(times, p)?;
    }
    (secs > 0.0).then_some(work / secs)
}

/// Work per second over classes of operations that each ran once on a
/// new input: `C / Σ_c percentile_i(secs_i / work_i, p)` over the `C`
/// classes, each given as `(work, secs)` pairs. Classes of one stream
/// run at very different speeds, so one percentile over all of them
/// would fall in whichever class happens to hold it; a percentile of
/// each class stays inside that class, and how many operations each
/// class got does not move the rate. `None` when any class has no
/// operations.
pub fn rate_over_classes(classes: &[Vec<(f64, f64)>], p: f64) -> Option<f64> {
    let mut secs_per_work = 0.0;
    for ops in classes {
        let per: Vec<f64> = ops
            .iter()
            .filter(|(w, _)| *w > 0.0)
            .map(|(w, s)| s / w)
            .collect();
        secs_per_work += percentile(&per, p)?;
    }
    (secs_per_work > 0.0).then(|| classes.len() as f64 / secs_per_work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        // order of the input does not matter
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(median(&rev), Some(5.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        // the median of a handful of samples is always reportable
        assert_eq!(tail_percentile(&[1.0; 21], 50.0), Some(1.0));
    }

    #[test]
    fn rates_come_from_per_item_percentiles() {
        // two items; one has a slow outlier that must not move the rate
        let a = [0.10, 0.10, 0.10, 5.0, 0.10];
        let b = [0.30, 0.30, 0.30];
        let r = rate_at(&[(1.0, &a), (3.0, &b)], 50.0).unwrap();
        assert!((r - 10.0).abs() < 1e-12, "{r}");
        assert_eq!(rate_at(&[(1.0, &[])], 50.0), None);

        // at the fast percentile, slowed repeats move the rate only once
        // they make up more than nine tenths of an item's samples
        let mut c = vec![0.40; 20];
        c[..2].fill(0.10);
        let r = rate_at(&[(1.0, &c)], FAST_PERCENTILE).unwrap();
        assert!((r - 10.0).abs() < 1e-12, "{r}");
        c[0] = 0.40;
        let r = rate_at(&[(1.0, &c)], FAST_PERCENTILE).unwrap();
        assert!((r - 2.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn class_rates_come_from_per_class_percentiles() {
        // a fast class (1 s per unit of work) and a slow one (3 s); the
        // slow class's outlier and the fast class's extra operations do
        // not move the rate: 2 units / (1 s + 3 s)
        let fast = vec![(2.0, 2.0), (1.0, 1.0), (4.0, 4.0), (1.0, 1.0), (3.0, 3.0)];
        let slow = vec![(1.0, 3.0), (2.0, 6.0), (1.0, 90.0)];
        let r = rate_over_classes(&[fast.clone(), slow.clone()], 50.0).unwrap();
        assert!((r - 0.5).abs() < 1e-12, "{r}");
        let r = rate_over_classes(&[fast.clone(), slow], FAST_PERCENTILE).unwrap();
        assert!((r - 0.5).abs() < 1e-12, "{r}");
        assert_eq!(rate_over_classes(&[fast, vec![]], 50.0), None);
    }
}
