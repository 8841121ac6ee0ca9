//! The harness's own statistics: interpolated percentiles under the
//! ten-samples-beyond rule, per-kind medians, the geometric mean, and
//! open-loop due-time accounting. A failed or refused request is a
//! sample of `None`, which sorts above every latency: it misses every
//! percentile limit.

use std::collections::BTreeMap;

/// A percentile, with what the reporting rule needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at position `q·(n−1)` of the sorted samples, linearly
    /// interpolated between the two ranks around it; `None` when either
    /// rank lands on a failed request.
    pub value: Option<f64>,
    /// Samples in the population, failures included.
    pub samples: usize,
    /// Samples ranked strictly above the upper of the two ranks.
    pub beyond: usize,
}

/// Samples that must rank above a reported percentile.
const MIN_BEYOND: usize = 10;

impl Percentile {
    /// At least [`MIN_BEYOND`] samples rank above the reported one.
    pub fn meets_rule(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Percentile `q` in `[0, 1]` of `samples` (`None` for no samples), by
/// linear interpolation between ranks, as Python's
/// `statistics.quantiles(method="inclusive")` and NumPy's default do:
/// the median of an even count is the mean of the middle two.
pub fn percentile(samples: &[Option<f64>], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    let at = q * (n - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    let value = if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (at - lo as f64) * (sorted[hi] - sorted[lo])
    };
    Some(Percentile {
        value: value.is_finite().then_some(value),
        samples: n,
        beyond: n - 1 - hi,
    })
}

/// Percentile `q` of a mix of request kinds (`kinds[i]` is sample `i`'s
/// kind), interpolated over the kinds' medians. Each kind counts once,
/// as each has the same number of samples in a run that closes at a mix
/// cycle boundary. A kind whose median lands on a failure sorts above
/// every latency. `samples` and `beyond` count requests: `beyond` is the
/// requests of the kinds ranked above the upper of the two kinds.
pub fn kind_percentile(samples: &[Option<f64>], kinds: &[usize], q: f64) -> Option<Percentile> {
    let mut by_kind: BTreeMap<usize, Vec<Option<f64>>> = BTreeMap::new();
    for (s, k) in samples.iter().zip(kinds) {
        by_kind.entry(*k).or_default().push(*s);
    }
    let mut medians: Vec<(f64, usize)> = by_kind
        .values()
        .map(|v| {
            let median = percentile(v, 0.5).and_then(|p| p.value);
            (median.unwrap_or(f64::INFINITY), v.len())
        })
        .collect();
    medians.sort_by(|a, b| a.0.total_cmp(&b.0));
    let typical: Vec<Option<f64>> = medians
        .iter()
        .map(|m| m.0.is_finite().then_some(m.0))
        .collect();
    let p = percentile(&typical, q)?;
    let upper = medians.len() - p.beyond;
    Some(Percentile {
        value: p.value,
        samples: samples.len(),
        beyond: medians[upper..].iter().map(|m| m.1).sum(),
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty() && values.iter().all(|v| *v > 0.0),
        "geomean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (0 for no values).
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

/// Splits `[0, span)` into `windows` equal slices and groups the samples
/// by their start times, keeping their order.
pub fn windowed(
    starts: &[f64],
    samples: &[Option<f64>],
    span: f64,
    windows: usize,
) -> Vec<Vec<Option<f64>>> {
    let mut slices = vec![Vec::new(); windows];
    for (t, s) in starts.iter().zip(samples) {
        let w = ((t / span * windows as f64) as usize).min(windows - 1);
        slices[w].push(*s);
    }
    slices
}

/// The (lower) median of per-window statistics, where `None` (a window
/// whose percentile landed on a failure) sorts above every value.
pub fn median_of(mut values: Vec<Option<f64>>) -> Option<f64> {
    values.sort_by(|a, b| {
        a.unwrap_or(f64::INFINITY)
            .total_cmp(&b.unwrap_or(f64::INFINITY))
    });
    values
        .get(values.len().saturating_sub(1) / 2)
        .copied()
        .flatten()
}

/// One open-loop request, in seconds since the run started. No workload
/// runs an open loop yet; its accounting is defined and tested here so
/// that one can be added on it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually started writing it.
    pub sent: f64,
    /// When its reply was fully read; `None` if it failed.
    pub done: Option<f64>,
}

/// Open-loop accounting: latency runs from the due time, so a stall
/// charges every request queued behind it; lateness is how far behind
/// its schedule the generator ran.
#[cfg(test)]
pub fn open_loop(samples: &[OpenSample]) -> (Vec<Option<f64>>, Vec<f64>) {
    let latencies = samples.iter().map(|s| s.done.map(|d| d - s.due)).collect();
    let late = samples.iter().map(|s| (s.sent - s.due).max(0.0)).collect();
    (latencies, late)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort-free oracle: the `k`-th smallest sample (from 0) is the
    /// smallest `v` with more than `k` samples `<= v`, failures counting
    /// as `+inf`; the percentile interpolates between two of them.
    fn oracle(samples: &[Option<f64>], q: f64) -> Option<f64> {
        let key = |s: &Option<f64>| s.unwrap_or(f64::INFINITY);
        let kth = |k: usize| {
            samples
                .iter()
                .map(key)
                .filter(|v| samples.iter().filter(|s| key(s) <= *v).count() > k)
                .min_by(f64::total_cmp)
                .expect("k < n")
        };
        let at = q * (samples.len() - 1) as f64;
        let (lo, hi) = (kth(at.floor() as usize), kth(at.ceil() as usize));
        if !hi.is_finite() {
            return None;
        }
        Some(lo + (at - at.floor()) * (hi - lo))
    }

    fn pseudo_random(n: usize, seed: u64, fail_every: usize) -> Vec<Option<f64>> {
        let mut rng = crate::workload::Rng::new(seed);
        (0..n)
            .map(|i| {
                let v = (rng.unit() * 100.0).round();
                (fail_every == 0 || i % fail_every != 0).then_some(v)
            })
            .collect()
    }

    #[test]
    fn percentile_matches_the_sort_oracle() {
        for seed in 0..40 {
            for (n, fail_every) in [(20, 0), (100, 0), (137, 0), (250, 7), (1000, 40)] {
                let samples = pseudo_random(n, seed, fail_every);
                for q in [0.5, 0.9] {
                    let p = percentile(&samples, q).expect("non-empty");
                    let want = oracle(&samples, q);
                    match (p.value, want) {
                        (Some(got), Some(want)) => {
                            assert!((got - want).abs() < 1e-9, "n={n} q={q} seed={seed}")
                        }
                        (got, want) => assert_eq!(got, want, "n={n} q={q} seed={seed}"),
                    }
                    assert_eq!(p.samples, n);
                    assert_eq!(p.beyond, n - 1 - (q * (n - 1) as f64).ceil() as usize);
                }
            }
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let of = |n: usize, q: f64| percentile(&vec![Some(1.0); n], q).unwrap();
        assert!(!of(20, 0.5).meets_rule() && of(20, 0.5).beyond == 9);
        assert!(of(21, 0.5).meets_rule() && of(21, 0.5).beyond == 10);
        assert!(!of(100, 0.9).meets_rule() && of(100, 0.9).beyond == 9);
        assert!(of(101, 0.9).meets_rule() && of(101, 0.9).beyond == 10);
        assert_eq!(of(16, 0.9).beyond, 1);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn a_failure_counts_as_a_latency_miss() {
        // 100 fast requests: p90 is fast. Turn 11 of them into failures
        // and the 90th-percentile rank lands on a failure.
        let mut samples = vec![Some(0.001); 100];
        assert_eq!(percentile(&samples, 0.9).unwrap().value, Some(0.001));
        for s in samples.iter_mut().take(11) {
            *s = None;
        }
        assert_eq!(percentile(&samples, 0.9).unwrap().value, None);
        assert_eq!(percentile(&samples, 0.5).unwrap().value, Some(0.001));
    }

    #[test]
    fn kind_percentiles_interpolate_between_kind_medians() {
        // Two kinds, fast and slow, in equal numbers: the raw median
        // rests on the clusters' edges (the fast one's largest sample and
        // the slow one's smallest), the per-kind one between their medians.
        let kinds: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let samples: Vec<Option<f64>> = (0..20)
            .map(|i| {
                Some(if i % 2 == 0 {
                    1.0 + i as f64 / 100.0
                } else {
                    50.0 + i as f64
                })
            })
            .collect();
        let raw = percentile(&samples, 0.5).unwrap().value.unwrap();
        assert!((raw - (1.18 + 51.0) / 2.0).abs() < 1e-9);
        let of = |q: f64| kind_percentile(&samples, &kinds, q).unwrap();
        assert!((of(0.5).value.unwrap() - (1.09 + 60.0) / 2.0).abs() < 1e-9);
        assert!((of(0.9).value.unwrap() - (1.09 + 0.9 * (60.0 - 1.09))).abs() < 1e-9);
        assert_eq!((of(0.5).samples, of(0.5).beyond), (20, 0));
        // Against the sort oracle on a random mix of five kinds: the
        // oracle's percentile of the oracle's per-kind medians.
        for seed in 0..20 {
            let samples = pseudo_random(250, seed, 0);
            let kinds: Vec<usize> = (0..250).map(|i| i % 5).collect();
            let medians: Vec<Option<f64>> = (0..5)
                .map(|k| {
                    let own: Vec<Option<f64>> =
                        samples.iter().skip(k).step_by(5).copied().collect();
                    oracle(&own, 0.5)
                })
                .collect();
            for q in [0.5, 0.9] {
                let p = kind_percentile(&samples, &kinds, q).unwrap();
                let want = oracle(&medians, q).unwrap();
                assert!((p.value.unwrap() - want).abs() < 1e-9, "seed={seed} q={q}");
                // Kinds above the upper rank: 5 − 1 − ceil(q·4), 50 requests each.
                assert_eq!(p.beyond, 50 * (4 - (q * 4.0).ceil() as usize));
            }
        }
    }

    #[test]
    fn a_failing_kind_misses_its_percentiles() {
        // The slowest of four kinds fails in 6 of its 10 requests: its
        // median is a failure, so p90 is one, while p50 stays on the
        // other kinds.
        let kinds: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let samples: Vec<Option<f64>> = (0..40)
            .map(|i| match i % 4 {
                3 if i < 24 => None,
                3 => Some(9.0),
                _ => Some(1.0),
            })
            .collect();
        assert_eq!(
            kind_percentile(&samples, &kinds, 0.5).unwrap().value,
            Some(1.0)
        );
        assert_eq!(kind_percentile(&samples, &kinds, 0.9).unwrap().value, None);
    }

    #[test]
    fn geomean_matches_the_definition() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0; 7]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        // A 0.1 s generator stall delays the second send; its latency
        // and the third request's (queued behind it) include the stall.
        let samples = [
            OpenSample {
                due: 0.0,
                sent: 0.0,
                done: Some(0.01),
            },
            OpenSample {
                due: 0.02,
                sent: 0.12,
                done: Some(0.13),
            },
            OpenSample {
                due: 0.04,
                sent: 0.125,
                done: Some(0.14),
            },
            OpenSample {
                due: 0.06,
                sent: 0.06,
                done: None,
            },
        ];
        let (lat, late) = open_loop(&samples);
        let expect = [Some(0.01), Some(0.11), Some(0.10), None];
        for (got, want) in lat.iter().zip(expect) {
            match (got, want) {
                (Some(g), Some(w)) => assert!((g - w).abs() < 1e-12),
                (g, w) => assert_eq!(*g, w),
            }
        }
        assert!((late[1] - 0.1).abs() < 1e-12 && (late[2] - 0.085).abs() < 1e-12);
        assert_eq!(late[0], 0.0);
    }

    #[test]
    fn windows_split_by_start_time_and_take_the_median() {
        let starts = [0.1, 0.5, 1.2, 1.9, 2.5, 2.99, 3.0];
        let samples: Vec<Option<f64>> = (0..7).map(|i| Some(i as f64)).collect();
        let slices = windowed(&starts, &samples, 3.0, 3);
        assert_eq!(slices[0], vec![Some(0.0), Some(1.0)]);
        assert_eq!(slices[1], vec![Some(2.0), Some(3.0)]);
        assert_eq!(slices[2], vec![Some(4.0), Some(5.0), Some(6.0)]);
        assert_eq!(median_of(vec![Some(3.0), Some(1.0), Some(2.0)]), Some(2.0));
        assert_eq!(median_of(vec![None, Some(1.0), Some(2.0)]), Some(2.0));
        assert_eq!(median_of(vec![None, None, Some(2.0)]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
