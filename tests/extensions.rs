//! Integration tests for the extensions beyond the paper's tables:
//! analytic-model composition (Eq. 3 proper), coupling reuse (§6
//! future work) and cross-machine relative-performance prediction
//! (§1 motivation), all through the facade crate.

use kernel_couplings::coupling::{CouplingAnalysis, Predictor, ReuseStudy};
use kernel_couplings::experiments::machines;
use kernel_couplings::machine::MachineConfig;
use kernel_couplings::npb::models::{analytic_isolated_totals, analytic_loop_models};
use kernel_couplings::npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};

fn analysis(b: Benchmark, class: Class, p: usize, len: usize) -> CouplingAnalysis {
    let mut exec = NpbExecutor::new(
        NpbApp::new(b, class, p),
        MachineConfig::ibm_sp_p2sc().without_noise(),
        ExecConfig::default(),
    );
    CouplingAnalysis::collect(&mut exec, len, 2).unwrap()
}

#[test]
fn analytic_models_compose_like_eq3() {
    let machine = MachineConfig::ibm_sp_p2sc().without_noise();
    let app = NpbApp::new(Benchmark::Bt, Class::W, 9);
    let a = analysis(Benchmark::Bt, Class::W, 9, 3);
    let models = analytic_isolated_totals(&app, &machine);
    let actual = a.actual().mean();
    let summed = a
        .predict_with_models(Predictor::Summation, &models)
        .unwrap();
    let coupled = a
        .predict_with_models(Predictor::coupling(3), &models)
        .unwrap();
    let err = |t: f64| (t - actual).abs() / actual;
    assert!(
        err(coupled) < err(summed),
        "composition must improve the hand models"
    );
    assert!(
        err(coupled) < 0.15,
        "composed hand models should be within 15%: {}",
        err(coupled)
    );
}

#[test]
fn analytic_model_terms_are_positive_and_ordered() {
    let machine = MachineConfig::ibm_sp_p2sc();
    let app = NpbApp::new(Benchmark::Sp, Class::A, 9);
    for m in analytic_loop_models(&app, &machine) {
        assert!(
            m.compute >= 0.0 && m.memory >= 0.0 && m.comm >= 0.0,
            "{m:?}"
        );
        assert!(m.isolated_total() >= m.total(), "{m:?}");
    }
}

#[test]
fn coefficients_transfer_within_a_regime_on_npb() {
    // BT class W stays in the L2 regime for 4..=16 procs
    let a4 = analysis(Benchmark::Bt, Class::W, 4, 3);
    let a16 = analysis(Benchmark::Bt, Class::W, 16, 3);
    let mut study = ReuseStudy::new();
    study.record(&a4, "p4", &a16, "p16").unwrap();
    study.record(&a16, "p16", &a4, "p4").unwrap();
    assert_eq!(study.transfer_win_rate(), 1.0);
    assert!(
        study.mean_transfer_err() < 0.05,
        "err {}",
        study.mean_transfer_err()
    );
}

#[test]
fn cross_machine_ratio_is_predicted() {
    use kernel_couplings::experiments::{Campaign, Runner};
    let mut runner = Runner::noise_free();
    runner.reps = 2;
    let campaign = Campaign::builder(runner).build();
    campaign
        .prefetch(&machines::comparison_requests(
            Benchmark::Bt,
            Class::W,
            9,
            3,
        ))
        .unwrap();
    let (_, outcomes) =
        machines::machine_comparison(&campaign, Benchmark::Bt, Class::W, 9, 3).unwrap();
    let (pred, actual) = machines::relative_performance(&outcomes);
    assert!(
        (pred - actual).abs() / actual < 0.10,
        "pred {pred:.3} vs actual {actual:.3}"
    );
}

#[test]
fn single_rank_degenerate_configuration_works_end_to_end() {
    // p = 1: no communication at all, still a valid coupling campaign
    let a = analysis(Benchmark::Bt, Class::S, 1, 2);
    let actual = a.actual().mean();
    let coupled = a.predict(Predictor::coupling(2)).unwrap();
    let summed = a.predict(Predictor::Summation).unwrap();
    assert!(actual > 0.0);
    assert!((coupled - actual).abs() <= (summed - actual).abs() + 1e-12);
}

#[test]
fn comm_tracing_composes_with_the_benchmarks() {
    use kernel_couplings::machine::Cluster;
    use kernel_couplings::npb::{Mode, RankState};
    let app = NpbApp::new(Benchmark::Lu, Class::S, 4);
    let machine = MachineConfig::ibm_sp_p2sc()
        .without_noise()
        .with_comm_trace();
    let spec = app.benchmark.spec();
    let out = Cluster::new(machine).run(app.procs, |ctx| {
        let mut st = RankState::new(
            app.benchmark,
            app.physics(),
            app.problem().dims(),
            app.grid(),
            ctx,
            false,
        );
        for k in &spec.loop_kernels {
            (k.run)(&mut st, ctx, Mode::Profile);
        }
    });
    // the wavefront sweeps generate per-plane traffic on every rank
    let total_events: usize = out.reports.iter().map(|r| r.comm_trace.len()).sum();
    assert!(
        total_events > 4 * 12,
        "expected per-plane events, got {total_events}"
    );
}
