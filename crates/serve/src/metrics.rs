//! Serve-side metrics: request latencies, batch shapes, queue depth
//! and status counts.
//!
//! Responses deliberately carry no timing fields (see the crate-level
//! determinism contract), so this collector is the only place latency
//! and batch shape are visible.  The `kc_serve --metrics` flag prints
//! one [`MetricsReport`] at shutdown.

use kc_core::quantile;
use serde::Serialize;
use std::fmt;
use std::sync::Mutex;

/// Thread-safe serve-metrics collector.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    latencies: Vec<f64>,
    /// Batch shape as exact running aggregates: the report needs only
    /// the count, the mean and the max.
    batches: u64,
    batch_sum: usize,
    batch_max: usize,
    peak_queue_depth: usize,
    ok: u64,
    errors: u64,
    overloaded: u64,
    deadline_expired: u64,
}

impl ServeMetrics {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one answered request: terminal status and end-to-end
    /// seconds from admission to response.
    pub fn record_request(&self, status: &str, latency_secs: f64) {
        let mut m = self.inner.lock().unwrap();
        match status {
            crate::protocol::status::OK => m.ok += 1,
            crate::protocol::status::OVERLOADED => m.overloaded += 1,
            crate::protocol::status::DEADLINE => m.deadline_expired += 1,
            _ => m.errors += 1,
        }
        m.latencies.push(latency_secs);
    }

    /// Record one engine batch's size.
    pub fn record_batch(&self, size: usize) {
        let mut m = self.inner.lock().unwrap();
        m.batches += 1;
        m.batch_sum += size;
        m.batch_max = m.batch_max.max(size);
    }

    /// Track the peak pending-queue depth.
    pub fn observe_queue_depth(&self, depth: usize) {
        let mut m = self.inner.lock().unwrap();
        m.peak_queue_depth = m.peak_queue_depth.max(depth);
    }

    /// Snapshot the aggregates.
    pub fn report(&self) -> MetricsReport {
        let m = self.inner.lock().unwrap();
        let mut sorted = m.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let batch_mean = if m.batches > 0 {
            m.batch_sum as f64 / m.batches as f64
        } else {
            0.0
        };
        MetricsReport {
            requests: m.ok + m.errors + m.overloaded + m.deadline_expired,
            ok: m.ok,
            errors: m.errors,
            overloaded: m.overloaded,
            deadline_expired: m.deadline_expired,
            latency_p50_secs: quantile(&sorted, 0.50),
            latency_p90_secs: quantile(&sorted, 0.90),
            latency_p99_secs: quantile(&sorted, 0.99),
            latency_max_secs: sorted.last().copied().unwrap_or(0.0),
            batches: m.batches,
            batch_mean,
            batch_max: m.batch_max,
            peak_queue_depth: m.peak_queue_depth,
        }
    }
}

/// End-of-run serve aggregates.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MetricsReport {
    /// Total answered requests (every status).
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `error`.
    pub errors: u64,
    /// Requests rejected `overloaded`.
    pub overloaded: u64,
    /// Requests shed `deadline` (expired in the queue).
    pub deadline_expired: u64,
    /// Median end-to-end request latency, seconds.
    pub latency_p50_secs: f64,
    /// 90th-percentile latency, seconds.
    pub latency_p90_secs: f64,
    /// 99th-percentile latency, seconds.
    pub latency_p99_secs: f64,
    /// Worst observed latency, seconds.
    pub latency_max_secs: f64,
    /// Engine batches resolved.
    pub batches: u64,
    /// Mean requests per batch.
    pub batch_mean: f64,
    /// Largest batch.
    pub batch_max: usize,
    /// Peak pending-queue depth observed at admission.
    pub peak_queue_depth: usize,
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests   {} total (ok {}, error {}, overloaded {}, deadline {})",
            self.requests, self.ok, self.errors, self.overloaded, self.deadline_expired,
        )?;
        writeln!(
            f,
            "latency    p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
            1e3 * self.latency_p50_secs,
            1e3 * self.latency_p90_secs,
            1e3 * self.latency_p99_secs,
            1e3 * self.latency_max_secs,
        )?;
        writeln!(
            f,
            "batches    {} resolved, mean size {:.1}, max size {}, peak queue depth {}",
            self.batches, self.batch_mean, self.batch_max, self.peak_queue_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::status;

    #[test]
    fn empty_collector_reports_zeroes() {
        let r = ServeMetrics::new().report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.latency_max_secs, 0.0);
        assert_eq!(r.batches, 0);
        assert_eq!(r.batch_mean, 0.0);
        assert_eq!(r.batch_max, 0);
    }

    #[test]
    fn statuses_and_latencies_aggregate() {
        let m = ServeMetrics::new();
        for (i, s) in [
            status::OK,
            status::OK,
            status::ERROR,
            status::OVERLOADED,
            status::DEADLINE,
        ]
        .iter()
        .enumerate()
        {
            m.record_request(s, (i + 1) as f64 * 0.010);
        }
        m.record_batch(1);
        m.record_batch(3);
        m.observe_queue_depth(2);
        m.observe_queue_depth(1);
        let r = m.report();
        assert_eq!(r.requests, 5);
        assert_eq!(r.ok, 2);
        assert_eq!(r.errors, 1);
        assert_eq!(r.overloaded, 1);
        assert_eq!(r.deadline_expired, 1);
        assert!((r.latency_p50_secs - 0.030).abs() < 1e-12);
        assert!((r.latency_max_secs - 0.050).abs() < 1e-12);
        assert_eq!(r.batches, 2);
        assert!((r.batch_mean - 2.0).abs() < 1e-12);
        assert_eq!(r.batch_max, 3);
        assert_eq!(r.peak_queue_depth, 2, "peak, not last");
        let text = r.to_string();
        assert!(text.contains("5 total"));
        assert!(text.contains("deadline 1"));
        assert!(text.contains("peak queue depth 2"));
    }
}
