//! Percentiles, quartiles and the `--compare` verdict rule.

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` of an ascending slice, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail read from a
/// handful of samples is noise, so it is refused rather than reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // the epsilon keeps 0.9 * 100 from rounding up to rank 91
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of any non-empty sample (no tail rule); 0 for an empty one,
/// which is how per-layer metrics of a layer a workload never enters
/// read.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads read the same here and in any
/// script that checks them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Quartile spread as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// How side B compares with side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// The benchmark's comparison rule for one metric: medians compared
/// against `bound` (a share of A's median). When either side's quartile
/// spread is wider than the bound the metric is `Unresolved`, unless
/// every B run beats every A run.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    if spread(a) > bound || spread(b) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    // relative change in the "worse" direction
    let worse_by =
        (if lower_is_better { mb - ma } else { ma - mb }) / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// FNV-1a, folded over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.90),
            Some(90.0),
            "10 samples beyond p90 of 100"
        );
        assert_eq!(percentile(&v, 0.99), None, "1 sample beyond p99 of 100");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.995), None, "5 beyond");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn compare_verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // higher is better, 10% bound
        assert_eq!(
            verdict(&a, &[102.0, 103.0, 101.0], false, 0.1),
            Verdict::Same
        );
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0], false, 0.1), Verdict::Worse);
        assert_eq!(
            verdict(&a, &[130.0, 131.0, 129.0], false, 0.1),
            Verdict::Better
        );
        // lower is better flips the direction
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0], true, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&a, &[130.0, 131.0, 129.0], true, 0.1),
            Verdict::Worse
        );
        // a wide spread cannot be called same...
        let wide = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(verdict(&a, &wide, false, 0.1), Verdict::Unresolved);
        // ...unless every B run beats every A run
        let wide_but_better = [150.0, 200.0, 250.0, 190.0, 230.0];
        assert_eq!(verdict(&a, &wide_but_better, false, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &[], false, 0.1), Verdict::Unresolved);
    }
}
