//! The benchmark's own statistics: percentile choice, the failure
//! ledger and the latency budget's residual.

use std::collections::BTreeMap;

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail figure
/// resting on a handful of samples does not repeat between runs.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `samples` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Splits `[0, span)` into `keep.len()` equal sub-windows, applies `f`
/// to the values whose time falls in each kept sub-window, and returns
/// the median of the results (sub-windows where `f` gives `None` are left
/// out). A burst of interference confined to a minority of the
/// sub-windows does not move the result.
pub fn median_over_windows<T>(
    timed: &[(f64, T)],
    span: f64,
    keep: &[bool],
    f: impl Fn(&[&T]) -> Option<f64>,
) -> Option<f64> {
    let len = span / keep.len() as f64;
    let per_window: Vec<f64> = (0..keep.len())
        .filter(|&k| keep[k])
        .filter_map(|k| {
            let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
            let inside: Vec<&T> =
                timed.iter().filter(|(t, _)| (lo..hi).contains(t)).map(|(_, v)| v).collect();
            f(&inside)
        })
        .collect();
    median(&per_window)
}

/// The quieter half of a run's sub-windows: those in which no more CPU
/// was stolen from the machine than in the median sub-window. With no
/// stealing at all, every sub-window is kept.
pub fn quiet_windows(stolen: &[u64]) -> Vec<bool> {
    let mut sorted = stolen.to_vec();
    sorted.sort_unstable();
    let Some(&limit) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    stolen.iter().map(|&x| x <= limit).collect()
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// Refused by admission (token bucket or a full queue).
    Shed,
    /// Answered with any other error frame.
    ErrorFrame,
    /// The connection failed mid-exchange.
    Transport,
    /// The output disagreed with its reference.
    Mismatch,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::Shed => "shed",
            Failure::ErrorFrame => "error_frame",
            Failure::Transport => "transport",
            Failure::Mismatch => "mismatch",
        }
    }
}

/// Counts attempted operations and failed ones. An operation counts as
/// failed once, under the first reason reported for it, however many
/// problems it shows (a shed request also has no output to verify).
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    attempted: u64,
    failed: BTreeMap<u64, Failure>,
}

impl Ledger {
    /// Records one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Marks operation `op` as failed for `why`.
    pub fn fail(&mut self, op: u64, why: Failure) {
        self.failed.entry(op).or_insert(why);
    }

    /// Folds another ledger (another connection's) into this one.
    /// Operation ids must be unique across the ledgers merged.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        for (op, why) in other.failed {
            self.fail(op, why);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Failed operations per reason.
    pub fn by_reason(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for why in self.failed.values() {
            *out.entry(why.name()).or_insert(0) += 1;
        }
        out
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The part of a round trip that no measured layer accounts for: the
/// round trip minus the sum of the layers' self times.
pub fn residual(round_trip: f64, layer_self_times: &[f64]) -> f64 {
    round_trip - layer_self_times.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples is the 190th value, with 10 beyond it.
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        // p99 would rest on 2 samples.
        assert_eq!(percentile(&xs, 0.99), None);
        // 199 samples leave only 9 beyond the p95 rank.
        assert_eq!(percentile(&xs[..199], 0.95), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&xs, 0.5);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 0.5));
        assert_eq!(a, Some(49.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_a_disturbed_window() {
        // Five one-second windows of 1 ms reads; the third is ten times
        // slower.
        let timed: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let t = f64::from(i) / 100.0;
                (t, if (2.0..3.0).contains(&t) { 10.0 } else { 1.0 })
            })
            .collect();
        let p50 = |xs: &[&f64]| percentile(&xs.iter().map(|&&x| x).collect::<Vec<_>>(), 0.5);
        let all = [true; 5];
        assert_eq!(median_over_windows(&timed, 5.0, &all, p50), Some(1.0));
        let count = |xs: &[&f64]| Some(xs.len() as f64);
        assert_eq!(median_over_windows(&timed, 5.0, &all, count), Some(100.0));
        assert_eq!(median_over_windows(&timed, 5.0, &all, |_| None), None);
        // Keeping only the disturbed window reports it.
        let third = [false, false, true, false, false];
        assert_eq!(median_over_windows(&timed, 5.0, &third, p50), Some(10.0));
    }

    #[test]
    fn quiet_windows_drop_the_most_stolen_half() {
        assert_eq!(quiet_windows(&[0, 0, 0, 0]), vec![true; 4]);
        assert_eq!(quiet_windows(&[3, 0, 9, 1, 0]), vec![false, true, false, true, true]);
        assert_eq!(quiet_windows(&[5, 1, 2, 8]), vec![false, true, true, false]);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn each_failure_counts_once() {
        let mut ledger = Ledger::default();
        for _ in 0..10 {
            ledger.attempt();
        }
        ledger.fail(1, Failure::Shed);
        ledger.fail(2, Failure::ErrorFrame);
        ledger.fail(3, Failure::Mismatch);
        assert_eq!(ledger.failed(), 3);
        // A second report for an operation already failed adds nothing.
        ledger.fail(1, Failure::Mismatch);
        ledger.fail(3, Failure::Mismatch);
        assert_eq!(ledger.failed(), 3);
        let reasons = ledger.by_reason();
        assert_eq!(reasons["shed"], 1);
        assert_eq!(reasons["error_frame"], 1);
        assert_eq!(reasons["mismatch"], 1);
        assert!((ledger.failed_frac() - 0.3).abs() < 1e-12);

        let mut other = Ledger::default();
        other.attempt();
        other.fail(11, Failure::Transport);
        ledger.merge(other);
        assert_eq!((ledger.attempted(), ledger.failed()), (11, 4));
    }

    #[test]
    fn residual_is_round_trip_minus_layer_self_times() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(4.0, &[]), 4.0);
    }
}
