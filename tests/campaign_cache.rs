//! Integration: the cached measurement campaign is invisible in the
//! numbers.  Tables assembled through the shared cell cache must be
//! identical to the legacy serial path, every unique cell must be
//! measured exactly once across a multi-table campaign, and cells
//! measured under one machine or protocol must never be served to
//! another.

use kernel_couplings::coupling::{CouplingAnalysis, Predictor};
use kernel_couplings::experiments::{catalog, AnalysisSpec, Campaign, Runner};
use kernel_couplings::machine::MachineConfig;
use kernel_couplings::npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};

/// Noise-free, the memoized campaign and the legacy direct path
/// (one executor, sequential measurement) agree bit-for-bit.
#[test]
fn campaign_matches_direct_measurement_noise_free() {
    let campaign = Campaign::builder(Runner::noise_free()).build();
    for procs in [4, 9] {
        let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, procs, 2);
        let cached = campaign.analysis(&spec).unwrap();

        let mut exec = NpbExecutor::new(
            NpbApp::new(Benchmark::Bt, Class::S, procs),
            campaign.runner().machine.clone(),
            ExecConfig::default(),
        );
        let direct = CouplingAnalysis::collect(&mut exec, 2, campaign.reps()).unwrap();

        assert_eq!(
            cached.couplings().unwrap(),
            direct.couplings().unwrap(),
            "couplings must be bit-identical at p={procs}"
        );
        assert_eq!(cached.actual().mean(), direct.actual().mean());
        for pred in [Predictor::Summation, Predictor::coupling(2)] {
            assert_eq!(
                cached.predict(pred).unwrap(),
                direct.predict(pred).unwrap(),
                "{pred:?} must be bit-identical at p={procs}"
            );
        }
    }
}

/// A multi-table campaign executes each unique cell exactly once:
/// cells shared between tables (isolated runs, overhead, ground
/// truth — and whole analyses requested twice) come from the cache.
#[test]
fn multi_table_campaign_measures_each_unique_cell_exactly_once() {
    let campaign = Campaign::builder(Runner::noise_free()).build();

    // two tables over the same benchmark/class share isolated +
    // overhead + application cells; requesting table 2's specs twice
    // shares everything
    let tables = ["bt-s", "sp-w"].map(|id| catalog::get(id).unwrap());
    let machine = &campaign.runner().machine;
    let mut requests = tables[0].requests(machine);
    requests.extend(tables[0].requests(machine));
    requests.extend(tables[1].requests(machine));
    let stats = campaign.prefetch(&requests).unwrap();

    assert!(stats.cells_requested > stats.cells_unique, "{stats}");
    assert_eq!(
        stats.cells_executed, stats.cells_unique,
        "first campaign must execute every unique cell exactly once: {stats}"
    );
    assert_eq!(stats.cache_hits, 0, "{stats}");

    // assembling the tables afterwards must not execute anything new
    let executed_before = campaign.cache_stats().executed;
    for table in tables {
        table.assemble(&campaign).unwrap();
    }
    assert_eq!(
        campaign.cache_stats().executed,
        executed_before,
        "table assembly after prefetch must be measurement-free"
    );

    // and a repeat prefetch is all hits
    let again = campaign.prefetch(&requests).unwrap();
    assert_eq!(again.cells_executed, 0, "{again}");
    assert_eq!(again.cache_hits, again.cells_unique, "{again}");
}

/// Cells measured under one machine (or protocol) are never served
/// to a campaign over a different one: the key fingerprints differ,
/// so the same workload re-measures and yields different numbers.
#[test]
fn cache_never_serves_cells_across_machine_fingerprints() {
    let campaign = Campaign::builder(Runner::noise_free()).build();
    let base = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    let other_machine = MachineConfig::ethernet_cluster().without_noise();
    let on_other = base.clone().on(other_machine);

    let a = campaign.analysis(&base).unwrap();
    let executed_after_first = campaign.cache_stats().executed;
    let b = campaign.analysis(&on_other).unwrap();

    assert!(
        campaign.cache_stats().executed > executed_after_first,
        "a different machine must not hit the first machine's cells"
    );
    assert_ne!(
        a.actual().mean(),
        b.actual().mean(),
        "different machines must produce different measurements"
    );
}

/// Same machine but a different measurement protocol is also a
/// different cell — even through a shared persistent backend.
#[test]
fn cache_never_serves_cells_across_protocol_digests() {
    use kernel_couplings::prophesy::CellStore;
    use std::sync::Arc;

    let base = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    let store = Arc::new(CellStore::new());

    let first = Campaign::builder(Runner::noise_free())
        .backend(Box::new(Arc::clone(&store)))
        .build();
    first.analysis(&base).unwrap();
    let cells_after_first = store.len();
    assert!(cells_after_first > 0);

    // extra warm-up iteration: same machine and workload, but a
    // different protocol digest in every key
    let mut runner = Runner::noise_free();
    runner.exec.warmup_iters += 1;
    let second = Campaign::builder(runner)
        .backend(Box::new(Arc::clone(&store)))
        .build();
    second.analysis(&base).unwrap();

    let stats = second.cache_stats();
    assert_eq!(
        stats.backend_hits, 0,
        "a protocol change must never be served another protocol's cells"
    );
    assert!(
        store.len() > cells_after_first,
        "the second protocol's cells must be stored separately"
    );

    // sharing the backend with an IDENTICAL protocol, by contrast,
    // is measurement-free
    let third = Campaign::builder(Runner::noise_free())
        .backend(Box::new(Arc::clone(&store)))
        .build();
    third.analysis(&base).unwrap();
    assert_eq!(third.cache_stats().executed, 0);
}
