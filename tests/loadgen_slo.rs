//! Integration: the `kc-loadgen` harness against the real
//! campaign-backed serving stack.
//!
//! Three properties:
//!
//! 1. **Warm serving is contract-clean** — a load run against a
//!    warmed campaign answers every well-formed request `ok` with
//!    **zero** cell executions and **zero** exactly-once violations,
//!    and a generous SLO spec passes while a tightened one
//!    (`p99_ms` below anything physically measurable) is detected
//!    and reported.
//! 2. **Saturation is bounded, not fatal** — driving an engine that
//!    is slower than the arrival rate into a small `max_inflight`
//!    admission window sheds load as `overloaded` responses: the
//!    overload rate lands strictly inside (0, 1) and every frame is
//!    accounted for in exactly one status bucket.
//! 3. **Deadlines shed under pressure** — the same saturated stack
//!    with tight per-request deadlines answers part of the stream
//!    with `deadline` sheds instead of burning engine calls on
//!    requests whose clients have already given up.

use kernel_couplings::coupling::MemorySink;
use kernel_couplings::experiments::{Campaign, CampaignEngine, Runner};
use kernel_couplings::loadgen::{
    drive_server, exactly_once_violations, schedule, unique_requests, LoadReport, SloSpec,
    WorkloadConfig,
};
use kernel_couplings::serve::{
    PredictRequest, PredictionEngine, PredictionReport, Server, ServerConfig, Status,
};
use std::sync::Arc;
use std::time::Duration;

/// Build the real serving stack, with a sink that records the
/// campaign's events, and warm it over `cfg`'s distinct specs, so the
/// timed run measures pure cache-hit serving.
fn warm_stack(cfg: &WorkloadConfig) -> (Arc<Campaign>, Arc<MemorySink>, Server) {
    let events = Arc::new(MemorySink::new());
    let campaign = Arc::new(
        Campaign::builder(Runner::noise_free())
            .sink(events.clone())
            .build(),
    );
    let server = Server::new(
        Arc::new(CampaignEngine::new(campaign.clone())),
        ServerConfig::default(),
    );
    let tickets: Vec<_> = unique_requests(&schedule(cfg))
        .into_iter()
        .map(|r| server.submit(r))
        .collect();
    for t in &tickets {
        assert_eq!(t.wait().status, Status::Ok, "warmup must resolve cleanly");
    }
    (campaign, events, server)
}

#[test]
fn warm_load_run_has_zero_executions_and_passes_its_slo() {
    let cfg = WorkloadConfig {
        rps: 400.0,
        duration: Duration::from_millis(500),
        hot_fraction: 0.8,
        deadline_ms: Some(5_000.0),
        malformed_every: 25,
        seed: 11,
        ..WorkloadConfig::default()
    };
    let (campaign, events, server) = warm_stack(&cfg);

    let executed_before = campaign.cache_stats().executed;
    let result = drive_server(&server, &schedule(&cfg));
    server.shutdown();

    let executions = campaign.cache_stats().executed - executed_before;
    let violations = exactly_once_violations(&events.canonical_events());
    let report = LoadReport::from_outcomes(
        &result.outcomes,
        result.elapsed_secs,
        executions,
        violations,
    );

    assert_eq!(report.requests, 200, "400 rps over 500 ms, all answered");
    assert_eq!(report.executions, 0, "a warm store never executes");
    assert_eq!(report.exactly_once_violations, 0);
    assert_eq!(report.overloaded, 0, "warm serving never saturates");
    assert_eq!(report.deadline_expired, 0, "5s budgets never expire warm");
    assert_eq!(report.errors, 8, "exactly the malformed frames (200/25)");
    assert_eq!(report.ok + report.errors, report.requests);

    let generous: SloSpec =
        "executions<=0,exactly_once_violations<=0,overload_rate<=0,error_rate<=0.05,p99_ms<=5000"
            .parse()
            .unwrap();
    assert!(
        generous.check(&report).is_empty(),
        "the generous SLO must pass: {:?}",
        generous.check(&report)
    );

    // the gate actually gates: a bound tighter than anything
    // physically measurable must be detected and named
    let tightened: SloSpec = "p99_ms<=0.00001".parse().unwrap();
    let failures = tightened.check(&report);
    assert_eq!(failures.len(), 1);
    assert!(
        failures[0].contains("p99_ms<=0.00001") && failures[0].contains("measured"),
        "violation names the bound and the measurement: {}",
        failures[0]
    );
}

/// An engine slower than the arrival rate: each batch holds its
/// requests for a fixed wall-clock beat, so a small admission window
/// must shed.
struct SlowEngine(Duration);

impl PredictionEngine for SlowEngine {
    fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
        std::thread::sleep(self.0);
        batch
            .iter()
            .map(|r| {
                Ok(PredictionReport {
                    benchmark: r.benchmark.clone(),
                    class: r.class.clone(),
                    procs: r.procs,
                    chain_len: r.chain_len,
                    loop_iterations: 1,
                    overhead_secs: 0.0,
                    actual_secs: 1.0,
                    coupled_secs: 1.0,
                    summation_secs: 1.0,
                    coupled_rel_err_pct: 0.0,
                    summation_rel_err_pct: 0.0,
                    kernels: Vec::new(),
                })
            })
            .collect()
    }
}

#[test]
fn saturating_max_inflight_bounds_the_overload_rate() {
    let server = Server::new(
        Arc::new(SlowEngine(Duration::from_millis(25))),
        ServerConfig {
            max_inflight: 4,
            max_batch: 2,
        },
    );
    let cfg = WorkloadConfig {
        rps: 400.0,
        duration: Duration::from_millis(400),
        seed: 3,
        ..WorkloadConfig::default()
    };
    let result = drive_server(&server, &schedule(&cfg));
    server.shutdown();
    let report = LoadReport::from_outcomes(&result.outcomes, result.elapsed_secs, 0, 0);

    assert_eq!(report.requests, 160);
    assert!(
        report.overloaded > 0,
        "a 25 ms/batch engine under 400 rps with max_inflight=4 must shed"
    );
    assert!(report.ok > 0, "the admission window still serves what fits");
    assert!(
        report.overload_rate > 0.0 && report.overload_rate < 1.0,
        "overload rate strictly inside (0, 1), got {}",
        report.overload_rate
    );
    assert_eq!(
        report.ok + report.errors + report.overloaded + report.deadline_expired,
        report.requests,
        "every frame lands in exactly one status bucket"
    );
    let slo: SloSpec = "overload_rate<=1".parse().unwrap();
    assert!(slo.check(&report).is_empty());
}

#[test]
fn tight_deadlines_shed_instead_of_queueing_under_pressure() {
    let server = Server::new(
        Arc::new(SlowEngine(Duration::from_millis(30))),
        ServerConfig {
            max_inflight: 64,
            max_batch: 1,
        },
    );
    // 15 ms budgets against a 30 ms/request engine: everything that
    // queues behind the first request is expired by its turn
    let cfg = WorkloadConfig {
        rps: 200.0,
        duration: Duration::from_millis(300),
        deadline_ms: Some(15.0),
        seed: 5,
        ..WorkloadConfig::default()
    };
    let result = drive_server(&server, &schedule(&cfg));
    server.shutdown();
    let report = LoadReport::from_outcomes(&result.outcomes, result.elapsed_secs, 0, 0);

    assert!(
        report.deadline_expired > 0,
        "expired requests must be shed with 'deadline', not served late"
    );
    assert!(report.ok > 0, "the head of each queue still makes it");
    assert!(
        report.deadline_miss_rate > 0.0 && report.deadline_miss_rate < 1.0,
        "got miss rate {}",
        report.deadline_miss_rate
    );
    assert_eq!(
        report.ok + report.errors + report.overloaded + report.deadline_expired,
        report.requests
    );
}
