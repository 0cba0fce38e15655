//! Fixed-bucket atomic latency histograms for the operability plane.
//!
//! The status wire (see [`crate::status`]) reports per-stage latency
//! for the CAS serving path. The recorder must sit on the hot path —
//! inside the reactor's compute workers — so it is built from plain
//! atomics: recording a sample is three relaxed read-modify-writes and
//! never takes a lock, allocates, or syscalls. Quantiles are computed on the (cold) read
//! side from the bucket counts.
//!
//! Buckets are log₂-spaced over nanoseconds: bucket *i* covers
//! samples whose duration in nanoseconds has `ilog2() == i`, i.e.
//! `[2^i, 2^(i+1))` ns, with bucket 0 also absorbing sub-2ns samples.
//! 64 buckets cover every representable `u64` nanosecond count, so no
//! sample is ever clamped or dropped. Reported quantiles are the
//! *upper bound* of the bucket holding the requested rank —
//! conservative (never under-reports) and within 2× of the true
//! value, which is plenty for "how slow is the sign path right now".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets — one per possible `u64::ilog2` result.
const BUCKETS: usize = 64;

/// A lock-free fixed-bucket latency histogram.
///
/// Writers call [`Histogram::record`]; readers take a [`HistogramView`]
/// snapshot via [`Histogram::view`]. Counters are updated with relaxed
/// ordering: a view is not an atomic cut across buckets, which is fine
/// for monitoring (each bucket is individually monotone).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; safe from any thread.
    pub fn record(&self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        let bucket = nanos.max(1).ilog2() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Takes a read-side snapshot for rendering and assertions.
    #[must_use]
    pub fn view(&self) -> HistogramView {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramView {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s counters.
#[derive(Clone, Copy, Debug)]
pub struct HistogramView {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl HistogramView {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (for mean computation by the reader).
    #[must_use]
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos)
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The quantile `q` (in `[0, 1]`), reported as the upper bound of
    /// the log₂ bucket holding that rank. Returns zero on an empty
    /// histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        // Rank of the requested quantile, 1-based, clamped into range.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1 ns (saturated
                // at the top bucket), tightened by the observed max —
                // both are valid upper bounds for the true quantile.
                let bound =
                    if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)).saturating_sub(1) };
                return Duration::from_nanos(bound.min(self.max_nanos));
            }
        }
        self.max()
    }

    /// Median (upper-bound of the bucket holding the 50th percentile).
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    #[must_use]
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(lower_bound_nanos, upper_bound_nanos,
    /// count)` rows, for the status wire's histogram view.
    #[must_use]
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                (lower, upper, n)
            })
            .collect()
    }
}

/// One histogram per instrumented serving stage, shared by the
/// reactor's compute workers so every request reports through the
/// same place.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Quote/SigStruct verification inside the issuer (cache-aware:
    /// warm hits record here too, which is the point — the operator
    /// sees the *served* latency, not the cold-path latency).
    pub verify: Histogram,
    /// RSA signing of the on-demand SigStruct.
    pub sign: Histogram,
    /// Sealing and writing a reply frame onto the channel.
    pub seal: Histogram,
    /// The journal group-commit flush (leader batches only).
    pub journal_flush: Histogram,
    /// End-to-end request latency: raw frame received → reply written.
    pub request: Histogram,
}

impl StageHistograms {
    /// The stages as `(name, histogram)` pairs, in reporting order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("verify", &self.verify),
            ("sign", &self.sign),
            ("seal", &self.seal),
            ("journal_flush", &self.journal_flush),
            ("request", &self.request),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let v = h.view();
        assert_eq!(v.count(), 0);
        assert_eq!(v.p50(), Duration::ZERO);
        assert_eq!(v.p99(), Duration::ZERO);
        assert_eq!(v.max(), Duration::ZERO);
        assert!(v.rows().is_empty());
    }

    #[test]
    fn quantiles_are_ordered_and_bound_the_samples() {
        let h = Histogram::new();
        for micros in [1u64, 5, 10, 50, 100, 500, 1000, 5000, 10000] {
            h.record(Duration::from_micros(micros));
        }
        let v = h.view();
        assert_eq!(v.count(), 9);
        assert!(v.p50() <= v.p95());
        assert!(v.p95() <= v.p99());
        assert!(v.p99() <= v.max().max(v.p99()));
        // Upper-bound semantics: p50 covers the median sample.
        assert!(v.p50() >= Duration::from_micros(100));
        assert_eq!(v.max(), Duration::from_millis(10));
    }

    #[test]
    fn extreme_samples_do_not_panic() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(u64::MAX / 1_000_000_000));
        let v = h.view();
        assert_eq!(v.count(), 3);
        assert!(v.p99() >= v.p50());
    }

    #[test]
    fn buckets_are_log2_spaced() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(7)); // bucket 2: [4, 8)
        h.record(Duration::from_nanos(1024)); // bucket 10: [1024, 2048)
        let rows = h.view().rows();
        assert_eq!(rows, vec![(4, 7, 1), (1024, 2047, 1)]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i + 1));
                    }
                });
            }
        });
        assert_eq!(h.view().count(), 4000);
    }
}
