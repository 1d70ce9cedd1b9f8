//! Integration: the whole stack is deterministic — identical
//! campaigns produce bit-identical tables regardless of OS thread
//! scheduling, and the noise model replays per seed.

use kernel_couplings::coupling::{ChainExecutor, CouplingAnalysis};
use kernel_couplings::experiments::{bt, Campaign, Runner};
use kernel_couplings::machine::MachineConfig;
use kernel_couplings::npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};

#[test]
fn repeated_table_builds_are_bit_identical() {
    // two independent campaigns (separate caches) must agree exactly
    let a = bt::table2(&Campaign::builder(Runner::noise_free()).build()).unwrap();
    let b = bt::table2(&Campaign::builder(Runner::noise_free()).build()).unwrap();
    assert_eq!(a.couplings[0], b.couplings[0]);
    assert_eq!(a.predictions, b.predictions);
}

#[test]
fn noisy_campaigns_replay_for_a_fixed_seed() {
    let run = |seed: u64| {
        let machine = MachineConfig::ibm_sp_p2sc().with_seed(seed);
        let mut exec = NpbExecutor::new(
            NpbApp::new(Benchmark::Bt, Class::S, 4),
            machine,
            ExecConfig::default(),
        );
        let analysis = CouplingAnalysis::collect(&mut exec, 2, 5).unwrap();
        (analysis.couplings().unwrap(), analysis.actual().mean())
    };
    assert_eq!(run(7), run(7), "same seed must replay exactly");
    assert_ne!(run(7), run(8), "different seeds must differ");
}

#[test]
fn chain_order_of_measurement_does_not_change_raw_times() {
    let exec = NpbExecutor::new(
        NpbApp::new(Benchmark::Sp, Class::S, 4),
        MachineConfig::ibm_sp_p2sc().without_noise(),
        ExecConfig::default(),
    );
    let ids: Vec<_> = exec.kernel_set().ids().collect();
    let t_before = exec.run_chain_raw(&ids[..3]);
    // run something else in between
    let _ = exec.run_chain_raw(&ids[2..5]);
    let t_after = exec.run_chain_raw(&ids[..3]);
    assert_eq!(
        t_before, t_after,
        "raw chain times must not depend on history"
    );
}

#[test]
fn timer_noise_averages_toward_truth_with_repetitions() {
    let machine = MachineConfig::ibm_sp_p2sc();
    let mut noisy = NpbExecutor::new(
        NpbApp::new(Benchmark::Bt, Class::W, 4),
        machine.clone(),
        ExecConfig::default(),
    );
    let mut clean = NpbExecutor::new(
        NpbApp::new(Benchmark::Bt, Class::W, 4),
        machine.without_noise(),
        ExecConfig::default(),
    );
    let ids: Vec<_> = noisy.kernel_set().ids().collect();
    let m_noisy = noisy.measure_chain(&ids, 40);
    let m_clean = clean.measure_chain(&ids, 1);
    let rel = (m_noisy.mean() - m_clean.mean()).abs() / m_clean.mean();
    assert!(
        rel < 0.05,
        "40-rep average should be within 5% of truth, got {rel:.4}"
    );
    assert!(m_noisy.std_dev() > 0.0);
}
