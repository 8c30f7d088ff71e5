//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; 0 for
/// an empty one.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One whole-phase latency summary, microseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

pub fn summarize_ns(samples: &[u64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let us = |q| percentile_sorted(&sorted, q) as f64 / 1e3;
    Summary {
        n: sorted.len(),
        p50: us(0.50),
        p90: us(0.90),
        p99: us(0.99),
        p999: us(0.999),
        max: us(1.0),
    }
}

/// Median over fixed windows of each window's p99, so that one stall
/// owns one window instead of the whole phase's tail. `samples` are
/// `(due_ns, latency_ns)`; a request belongs to the window it was due
/// in. Windows with fewer than 100 samples (a partial last window) are
/// left out. Returns ns.
pub fn windowed_p99(samples: &[(u64, u64)], window_ns: u64) -> f64 {
    let mut windows: Vec<Vec<u64>> = Vec::new();
    for &(due, lat) in samples {
        let w = (due / window_ns) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(lat);
    }
    let p99s: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() >= 100)
        .map(|w| {
            w.sort_unstable();
            percentile_sorted(w, 0.99) as f64
        })
        .collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50);
        assert_eq!(percentile_sorted(&s, 0.90), 90);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sum = summarize_ns(&[3_000, 1_000, 2_000, 4_000]);
        assert_eq!((sum.n, sum.p50, sum.max), (4, 2.0, 4.0));
    }

    #[test]
    fn one_stall_owns_one_window_not_the_tail() {
        // Five 1-s windows of 1,000 requests at 100 ns; window 2 stalls
        // and every request in it takes 1 ms.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..1000u64 {
                let lat = if w == 2 { 1_000_000 } else { 100 + i % 7 };
                samples.push((w * 1_000_000_000 + i * 1_000_000, lat));
            }
        }
        let lats: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(
            summarize_ns(&lats).p99,
            1000.0,
            "whole-phase p99 is the stall"
        );
        assert_eq!(windowed_p99(&samples, 1_000_000_000), 106.0);
        // A thin last window is ignored instead of voting.
        samples.push((5_000_000_000, 9_999_999));
        assert_eq!(windowed_p99(&samples, 1_000_000_000), 106.0);
    }
}
