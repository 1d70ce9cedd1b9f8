//! The campaign-backed prediction engine for `kc-serve`.
//!
//! [`CampaignEngine`] adapts a [`Campaign`] to the
//! [`kc_serve::PredictionEngine`] trait: each server batch is
//! validated into [`AnalysisSpec`]s, prefetched **as one set** through
//! the campaign's shared cache and bounded cell scheduler — so
//! duplicate cells across a batch's requests execute exactly once
//! and executor concurrency stays bounded by the campaign's `--jobs`
//! pool — then assembled per request into a
//! [`kc_serve::PredictionReport`] with the coupling-composed
//! prediction, the summation baseline and the per-kernel breakdown.
//!
//! Validation failures (unknown benchmark, bad class letter, invalid
//! grid, out-of-range chain length, `fine` outside BT) are values:
//! they become `error` responses and never reach the measurement
//! layer.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::{Prediction, Predictor};
use kc_npb::{Benchmark, Class};
use kc_serve::{KernelContribution, PredictRequest, PredictionEngine, PredictionReport};
use std::sync::Arc;

/// A [`PredictionEngine`] over one shared [`Campaign`].
pub struct CampaignEngine {
    campaign: Arc<Campaign>,
}

impl CampaignEngine {
    /// An engine resolving requests through `campaign`'s cache and
    /// scheduler.
    pub fn new(campaign: Arc<Campaign>) -> Self {
        Self { campaign }
    }

    /// The underlying campaign (for stats, telemetry and stores).
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Validate one request into an analysis spec, without touching
    /// the measurement layer.
    pub fn validate(&self, request: &PredictRequest) -> Result<AnalysisSpec, String> {
        let benchmark = Benchmark::from_name(&request.benchmark).ok_or_else(|| {
            format!(
                "unknown benchmark `{}` (expected bt, sp or lu)",
                request.benchmark.to_lowercase()
            )
        })?;
        let class = Class::from_name(&request.class).ok_or_else(|| {
            format!(
                "unknown class `{}` (expected S, W, A or B)",
                request.class.to_uppercase()
            )
        })?;
        if request.procs == 0 || !benchmark.valid_procs(request.procs) {
            let shape = match benchmark {
                Benchmark::Bt | Benchmark::Sp => "a perfect square",
                Benchmark::Lu => "a power of two",
            };
            return Err(format!(
                "invalid processor count {} for {} (must be {shape})",
                request.procs,
                benchmark.name(),
            ));
        }
        if request.fine && benchmark != Benchmark::Bt {
            return Err(format!(
                "the fine decomposition exists only for bt, not {}",
                benchmark.name(),
            ));
        }
        let mut spec = AnalysisSpec::new(benchmark, class, request.procs, request.chain_len);
        if request.fine {
            spec = spec.fine();
        }
        let kernels = spec.kernel_set().len();
        if request.chain_len == 0 || request.chain_len > kernels {
            return Err(format!(
                "chain length {} out of range (this decomposition has {kernels} kernels)",
                request.chain_len,
            ));
        }
        Ok(spec)
    }

    /// Assemble one validated spec.  After a successful batch
    /// prefetch its cells are cached and it is only assembled;
    /// otherwise it goes through [`Campaign::analysis`], whose own
    /// prefetch reports this spec's error.
    fn report(&self, spec: &AnalysisSpec, prefetched: bool) -> Result<PredictionReport, String> {
        let analysis = if prefetched {
            self.campaign.assemble(spec)
        } else {
            self.campaign.analysis(spec)
        }
        .map_err(|e| e.to_string())?;
        let coefficients = analysis.coefficients().map_err(|e| e.to_string())?;
        let coupled_secs = analysis
            .predict(Predictor::coupling(spec.chain_len))
            .map_err(|e| e.to_string())?;
        let summation_secs = analysis
            .predict(Predictor::Summation)
            .map_err(|e| e.to_string())?;
        let actual_secs = analysis.actual().mean();
        let iterations = analysis.loop_iterations() as f64;
        let set = analysis.kernel_set().clone();
        let kernels = set
            .ids()
            .map(|k| {
                let alpha = coefficients.alpha(k);
                let isolated_secs = analysis.isolated(k).mean();
                KernelContribution {
                    name: set.name(k).to_string(),
                    alpha,
                    isolated_secs,
                    coupled_total_secs: alpha * isolated_secs * iterations,
                }
            })
            .collect();
        let rel = |predicted: f64| {
            Prediction {
                predicted,
                actual: actual_secs,
            }
            .rel_err_pct()
        };
        Ok(PredictionReport {
            benchmark: spec.benchmark.name().to_string(),
            class: spec.class.letter().to_string(),
            procs: spec.procs,
            chain_len: spec.chain_len,
            loop_iterations: analysis.loop_iterations() as u64,
            overhead_secs: analysis.overhead().mean(),
            actual_secs,
            coupled_rel_err_pct: rel(coupled_secs),
            summation_rel_err_pct: rel(summation_secs),
            coupled_secs,
            summation_secs,
            kernels,
        })
    }
}

impl PredictionEngine for CampaignEngine {
    fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
        let validated: Vec<Result<AnalysisSpec, String>> =
            batch.iter().map(|r| self.validate(r)).collect();
        let specs: Vec<AnalysisSpec> = validated
            .iter()
            .filter_map(|v| v.as_ref().ok())
            .cloned()
            .collect();
        // one batch-wide prefetch: every valid request's cells dedupe
        // against each other in one drain, and each request is then
        // only assembled.  A prefetch failure surfaces per request:
        // each then runs its own (mostly cached) prefetch.  Deadlines
        // act earlier, in the server's batch formation.
        let prefetched = !specs.is_empty() && self.campaign.prefetch(&specs).is_ok();
        validated
            .into_iter()
            .map(|v| v.and_then(|spec| self.report(&spec, prefetched)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;

    fn engine() -> CampaignEngine {
        CampaignEngine::new(Arc::new(Campaign::builder(Runner::noise_free()).build()))
    }

    fn request(benchmark: &str, class: &str, procs: usize, chain_len: usize) -> PredictRequest {
        PredictRequest {
            id: 0,
            benchmark: benchmark.into(),
            class: class.into(),
            procs,
            chain_len,
            fine: false,
            deadline_ms: None,
        }
    }

    #[test]
    fn validation_rejects_bad_specs_without_measuring() {
        let e = engine();
        let cases = [
            (request("ft", "S", 4, 2), "unknown benchmark"),
            (request("bt", "C", 4, 2), "unknown class"),
            (request("bt", "S", 5, 2), "perfect square"),
            (request("lu", "S", 6, 2), "power of two"),
            (request("bt", "S", 0, 2), "invalid processor count"),
            (request("bt", "S", 4, 0), "chain length 0 out of range"),
            (request("bt", "S", 4, 99), "chain length 99 out of range"),
        ];
        for (req, needle) in cases {
            let err = e.validate(&req).unwrap_err();
            assert!(err.contains(needle), "{req:?}: {err}");
        }
        let mut fine = request("sp", "S", 4, 2);
        fine.fine = true;
        assert!(e.validate(&fine).unwrap_err().contains("only for bt"));
        assert_eq!(e.campaign().cache_stats().requests, 0, "nothing measured");
    }

    #[test]
    fn case_insensitive_names_validate() {
        let e = engine();
        let spec = e.validate(&request("BT", "w", 9, 3)).unwrap();
        assert_eq!(spec.benchmark, Benchmark::Bt);
        assert_eq!(spec.class, Class::W);
    }

    #[test]
    fn batch_mixes_reports_and_errors_in_order() {
        let e = engine();
        let results = e.predict_batch(&[
            request("bt", "S", 4, 2),
            request("ft", "S", 4, 2),
            request("bt", "S", 4, 2),
        ]);
        assert_eq!(results.len(), 3);
        let first = results[0].as_ref().unwrap();
        assert!(results[1].is_err());
        let third = results[2].as_ref().unwrap();
        assert_eq!(first, third, "identical requests get identical reports");
        assert_eq!(first.benchmark, "bt");
        assert_eq!(first.class, "S");
        assert_eq!(first.kernels.len(), 5, "BT has five loop kernels");
        // the breakdown recomposes the prediction exactly
        let total: f64 = first.kernels.iter().map(|k| k.coupled_total_secs).sum();
        assert!(
            (first.overhead_secs + total - first.coupled_secs).abs() < 1e-9,
            "overhead + Σ α_k·E_k·iters = coupled prediction"
        );
        assert!(first.actual_secs > 0.0);
    }

    #[test]
    fn a_batch_drains_once_and_assembles_each_request() {
        use kc_core::{MemorySink, TelemetryEvent};

        let sink = Arc::new(MemorySink::new());
        let e = CampaignEngine::new(Arc::new(
            Campaign::builder(Runner::noise_free())
                .sink(sink.clone())
                .build(),
        ));
        let count = || {
            let events = sink.canonical_events();
            let drains = events
                .iter()
                .filter(|ev| matches!(ev, TelemetryEvent::SchedulerDrain { .. }))
                .count();
            (drains, events.len())
        };
        let batch = [request("bt", "S", 4, 2), request("lu", "S", 4, 2)];
        e.predict_batch(&batch);
        let (cold_drains, cold_events) = count();
        assert_eq!(cold_drains, 1, "one prefetch for the whole batch");
        e.predict_batch(&batch);
        let (warm_drains, warm_events) = count();
        assert_eq!(
            warm_drains, 2,
            "a warm batch still drains once, not per request"
        );
        // a warm batch logs one enumerate/dedupe/execute bracket and
        // its drain event, then per request one assemble bracket and a
        // started/finished pair per cell read
        let cells: usize = batch
            .iter()
            .map(|r| e.campaign().cells(&e.validate(r).unwrap()).unwrap().len())
            .sum();
        assert_eq!(
            warm_events - cold_events,
            3 * 2 + 1 + batch.len() * 2 + 2 * cells
        );
    }

    #[test]
    fn retained_telemetry_does_not_grow_with_warm_traffic() {
        use crate::campaign::SummaryOpts;

        const N: usize = 4;
        let e = engine();
        let batch = [request("bt", "S", 4, 2), request("lu", "S", 4, 2)];
        e.predict_batch(&batch); // cold: every cell executes once
        let cold = e.campaign().summary(SummaryOpts::top(0)).requests;
        let run = |batches: usize| {
            for _ in 0..batches {
                e.predict_batch(&batch);
            }
            (
                e.campaign().retained_telemetry(),
                e.campaign().summary(SummaryOpts::top(usize::MAX)),
            )
        };
        let ((kept_n, sinks_n), after_n) = run(N);
        let ((kept_11n, sinks_11n), after_11n) = run(10 * N);
        assert!(after_n.requests > cold, "warm batches read cells");
        assert_eq!(
            after_11n.requests - after_n.requests,
            10 * (after_n.requests - cold),
            "every later request was counted"
        );
        // the fold's sets only grow, so equal sizes mean equal entries
        assert_eq!(kept_11n, kept_n, "10x the traffic retains nothing more");
        assert_eq!(after_11n.unique_cells, after_n.unique_cells);
        assert_eq!(after_11n.workers, after_n.workers);
        assert_eq!(after_11n.slowest, after_n.slowest, "no new executions");
        assert_eq!(
            (sinks_n, sinks_11n),
            (1, 1),
            "the fold is the campaign's only sink: it holds no event log"
        );
    }

    #[test]
    fn duplicate_requests_in_one_batch_measure_cells_once() {
        let e = engine();
        let req = request("bt", "S", 4, 2);
        e.predict_batch(&[req.clone(), req.clone(), req]);
        let stats = e.campaign().cache_stats();
        // 5 isolated + 5 pair windows + overhead + application
        assert_eq!(stats.executed, 12, "each unique cell executed once");
    }
}
