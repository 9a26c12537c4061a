//! Open-loop load arithmetic: arrival schedules, lateness, and the
//! rate-ladder rule behind the serving capacity figure.

use dp_bench::load::{BoundedPareto, OpenLoop};
use std::time::Duration;

/// Pareto shape of the inter-arrival gaps (`gap = base · u^(-1/α)`).
/// Milder than the `dp_bench::load` default (α = 1.25, cap 100): with
/// that tail a few seconds of traffic hold too few bursts for a p99 to
/// repeat from one seed to the next.
pub const ALPHA: f64 = 2.0;
/// Gaps are truncated at this multiple of the base gap.
pub const CAP: f64 = 10.0;

/// Mean gap over base gap of the bounded Pareto: `E[min(u^(-1/α), cap)]`
/// for `u` uniform on (0, 1].
pub fn mean_gap_factor(alpha: f64, cap: f64) -> f64 {
    let k = 1.0 - 1.0 / alpha;
    let u_cap = cap.powf(-alpha);
    (1.0 - u_cap.powf(k)) / k + cap * u_cap
}

/// Arrival offsets of an open loop over `(0, seconds]` carrying
/// exactly `round(rate_hz · seconds)` requests: bounded-Pareto gaps,
/// deterministic in `seed`, scaled so the last arrival lands at
/// `seconds`. Every schedule at one rate offers the same load; only
/// the burst pattern depends on the seed.
pub fn schedule(rate_hz: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let n = (rate_hz * seconds).round() as usize;
    let base = Duration::from_secs_f64(1.0 / (rate_hz * mean_gap_factor(ALPHA, CAP)));
    let gaps: Vec<f64> = OpenLoop::new(BoundedPareto::new(base, ALPHA, CAP), seed)
        .take(n)
        .map(|g| g.as_secs_f64())
        .collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    gaps.iter()
        .map(|g| {
            at += g * scale;
            Duration::from_secs_f64(at.min(seconds))
        })
        .collect()
}

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
pub fn ms_between(from: Duration, to: Duration) -> f64 {
    (to.as_nanos() as i128 - from.as_nanos() as i128) as f64 / 1e6
}

/// Latency of one open-loop request: from its *scheduled* send time to
/// its completion, so a generator that ran late charges the lateness
/// to the request instead of hiding it.
pub fn latency_ms(scheduled: Duration, completed: Duration) -> f64 {
    ms_between(scheduled, completed)
}

/// How late the generator sent a request (0 when on time or early).
pub fn lateness_ms(scheduled: Duration, sent: Duration) -> f64 {
    ms_between(scheduled, sent).max(0.0)
}

/// Windows a rung's p99 is taken over (see
/// [`crate::stats::windowed_percentile`]).
pub const RUNG_WINDOWS: usize = 3;

/// One rung's verdict. `latencies` holds one entry per request sent,
/// in schedule order: `None` for a request that failed, was shed or
/// was refused — it counts as missing the limit. The rung passes when
/// the windowed p99 meets `slo_ms` and the queue drained within
/// `slo_ms` of the last scheduled send (no growing backlog).
pub fn rung_passes(latencies: &[Option<f64>], slo_ms: f64, drain_ms: f64) -> bool {
    let v: Vec<f64> = latencies
        .iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect();
    crate::stats::windowed_percentile(&v, RUNG_WINDOWS, 99.0)
        .is_some_and(|p99| p99 <= slo_ms && drain_ms <= slo_ms)
}

/// Index of the highest passing rung of an ascending ladder of `n`
/// rungs, by bisection (capacity is monotone in the offered rate);
/// `None` when the lowest rung fails. `passes(i)` runs rung `i`.
pub fn highest_passing(n: usize, mut passes: impl FnMut(usize) -> bool) -> Option<usize> {
    let (mut lo, mut hi) = (None, n);
    let mut first = 0usize;
    while first < hi {
        let mid = first + (hi - first) / 2;
        if passes(mid) {
            lo = Some(mid);
            first = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_hits_the_nominal_mean_rate() {
        let factor = mean_gap_factor(ALPHA, CAP);
        assert!((factor - 1.9).abs() < 1e-12, "analytic factor {factor}");
        assert!((mean_gap_factor(1.25, 100.0) - 3.735_09).abs() < 1e-4);
        // Unscaled, the clock's long-run rate is the nominal one.
        let base = Duration::from_secs_f64(1.0 / (200.0 * factor));
        let gaps: f64 = OpenLoop::new(BoundedPareto::new(base, ALPHA, CAP), 3)
            .take(200_000)
            .map(|g| g.as_secs_f64())
            .sum();
        assert!(
            (200_000.0 / gaps - 200.0).abs() / 200.0 < 0.03,
            "clock rate {}",
            200_000.0 / gaps
        );
        // Scaled schedules carry exactly rate × seconds requests.
        let arrivals = schedule(150.0, 2.0, 11);
        assert_eq!(arrivals.len(), 300);
        assert!((arrivals[299].as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(
            arrivals,
            schedule(150.0, 2.0, 11),
            "same seed, same schedule"
        );
        assert_ne!(
            arrivals,
            schedule(150.0, 2.0, 12),
            "another seed, another burst pattern"
        );
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lateness_is_charged_to_the_request() {
        // Three requests due at 10, 20, 30 ms; a 25 ms stall delays the
        // first two sends. Service takes 2 ms after each send.
        let ms = Duration::from_millis;
        let scheduled = [ms(10), ms(20), ms(30)];
        let sent = [ms(35), ms(36), ms(30)];
        let done: Vec<Duration> = sent.iter().map(|&s| s + ms(2)).collect();
        let lat: Vec<f64> = scheduled
            .iter()
            .zip(&done)
            .map(|(&s, &d)| latency_ms(s, d))
            .collect();
        let late: Vec<f64> = scheduled
            .iter()
            .zip(&sent)
            .map(|(&s, &t)| lateness_ms(s, t))
            .collect();
        assert_eq!(lat, vec![27.0, 18.0, 2.0]);
        assert_eq!(late, vec![25.0, 16.0, 0.0]);
        // Timing from the send instead would hide the stall entirely.
        assert!(sent
            .iter()
            .zip(&done)
            .all(|(&s, &d)| ms_between(s, d) == 2.0));
    }

    #[test]
    fn failures_count_as_misses() {
        let ok: Vec<Option<f64>> = (0..300).map(|i| Some((i % 100) as f64 / 10.0)).collect();
        assert!(rung_passes(&ok, 10.0, 1.0));
        // In a window of 100, one failure lies beyond the nearest-rank
        // p99; a second one is the p99 sample and misses the limit.
        let mut once = ok.clone();
        let mut twice = ok.clone();
        for w in 0..3 {
            once[w * 100 + 3] = None;
            twice[w * 100 + 3] = None;
            twice[w * 100 + 4] = None;
        }
        assert!(rung_passes(&once, 10.0, 1.0));
        assert!(!rung_passes(&twice, 10.0, 1.0));
        // Failures in one window only are outvoted by the other two.
        let mut one_window = ok.clone();
        for v in &mut one_window[150..160] {
            *v = None;
        }
        assert!(rung_passes(&one_window, 10.0, 1.0));
        // A backlog that outlasts the limit fails even at a good p99.
        assert!(!rung_passes(&ok, 10.0, 10.5));
        assert!(!rung_passes(&[], 10.0, 0.0));
    }

    #[test]
    fn bisection_selects_the_highest_passing_rung() {
        for capacity in 0..=8usize {
            let mut probes = Vec::new();
            let got = highest_passing(8, |i| {
                probes.push(i);
                i < capacity
            });
            assert_eq!(got, capacity.checked_sub(1), "capacity {capacity}");
            assert!(probes.len() <= 4, "{probes:?}");
        }
        // Rung outcomes with failures counted as misses: rungs 0..=2
        // meet the limit, rung 3 has a failed request, rung 4 is slow.
        let slo = 10.0;
        let rungs: Vec<Vec<Option<f64>>> = vec![
            vec![Some(1.0); 60],
            vec![Some(2.0); 60],
            vec![Some(9.0); 60],
            (0..60)
                .map(|i| if i % 20 == 7 { None } else { Some(3.0) })
                .collect(),
            vec![Some(30.0); 60],
        ];
        assert_eq!(
            highest_passing(rungs.len(), |i| rung_passes(&rungs[i], slo, 0.0)),
            Some(2)
        );
    }
}
