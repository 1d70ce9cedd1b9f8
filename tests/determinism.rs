//! Integration: the whole stack is deterministic — identical
//! campaigns produce bit-identical tables regardless of OS thread
//! scheduling, and the noise model replays per seed.

use kernel_couplings::cachesim::AccessCounts;
use kernel_couplings::coupling::{ChainExecutor, CouplingAnalysis};
use kernel_couplings::experiments::{catalog, Campaign, Runner};
use kernel_couplings::machine::{MachineConfig, PerfContext};
use kernel_couplings::npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};
use proptest::prelude::*;

#[test]
fn repeated_table_builds_are_bit_identical() {
    // two independent campaigns (separate caches) must agree exactly
    let table2 = || {
        let campaign = Campaign::builder(Runner::noise_free()).build();
        let (output, _) = catalog::get("bt-s").unwrap().run(&campaign).unwrap();
        output.artifact.unwrap()
    };
    let (a, b) = (table2(), table2());
    assert_eq!(a.couplings, b.couplings);
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

/// A cell's pinned outcome: the bits of its timed region and, per
/// rank, `(hits per level, lines from memory)`.
type Pinned = (u64, &'static [([u64; 4], u64)]);

/// The simulator's exact work and exact clock on four small cells, run
/// through `NpbExecutor::run_chain`, the protocol every chain cell is
/// measured with.  The constants were captured at the commit before the span walker
/// replaced the per-line path; a faster simulator must reproduce every
/// one of them — the counts pin each replacement decision, the bits
/// pin the order of the clock's f64 additions.
#[test]
fn cache_work_and_virtual_time_are_pinned_exactly() {
    let sp = MachineConfig::ibm_sp_p2sc().without_noise();
    let smp = MachineConfig::multicore_smp().without_noise();
    // three ranks per node: a 1365-set LLC, not a power of two
    let smp3 = MachineConfig::multicore_smp().with_node(3).without_noise();
    let cells: [(NpbApp, &MachineConfig, &[&str], Pinned); 4] = [
        (
            NpbApp::new(Benchmark::Sp, Class::W, 4),
            &sp,
            &["x_solve", "y_solve"],
            (0x3fba1d9033bf4138, &[([17172, 78003, 0, 0], 12393); 4]),
        ),
        (
            // a single kernel: every repetition starts on flushed caches
            NpbApp::new(Benchmark::Lu, Class::W, 8),
            &sp,
            &["ssor_lt"],
            (
                0x3fa8a91e2a45dbce,
                &[
                    ([10391, 5487, 0, 0], 14472),
                    ([6960, 5047, 0, 0], 13061),
                    ([6960, 5047, 0, 0], 13061),
                    ([6727, 4718, 0, 0], 12886),
                    ([9790, 5165, 0, 0], 13623),
                    ([6551, 4753, 0, 0], 12293),
                    ([6551, 4753, 0, 0], 12293),
                    ([6315, 4461, 0, 0], 12128),
                ],
            ),
        ),
        (
            NpbApp::new(Benchmark::Bt, Class::S, 9),
            &smp,
            &["copy_faces", "x_solve", "y_solve", "z_solve", "add"],
            (
                0x3f8a77c22012362e,
                &[
                    ([10584, 0, 0, 0], 510),
                    ([10794, 0, 0, 0], 525),
                    ([10584, 0, 0, 0], 510),
                    ([10686, 0, 0, 0], 525),
                    ([10896, 0, 0, 0], 540),
                    ([10686, 0, 0, 0], 525),
                    ([10584, 0, 0, 0], 510),
                    ([10794, 0, 0, 0], 525),
                    ([10584, 0, 0, 0], 510),
                ],
            ),
        ),
        (
            NpbApp::new(Benchmark::Sp, Class::W, 4),
            &smp3,
            &[
                "copy_faces",
                "txinvr",
                "x_solve",
                "y_solve",
                "z_solve",
                "add",
            ],
            (
                0x3fcce051b9dc1923,
                &[
                    ([59936, 176124, 0, 0], 25465),
                    ([59911, 176109, 0, 0], 25505),
                    ([59959, 176096, 0, 0], 25470),
                    ([59942, 176078, 0, 0], 25505),
                ],
            ),
        ),
    ];
    for (app, machine, chain, (bits, per_rank)) in cells {
        let exec = NpbExecutor::new(app, machine.clone(), ExecConfig::default());
        let ids: Vec<_> = chain
            .iter()
            .map(|name| exec.kernel_set().id_of(name).expect("kernel name"))
            .collect();
        let label = format!("{} {chain:?} on {}", app.label(), machine.name);
        let run = exec.run_chain(&ids);
        assert_eq!(run.results[0].to_bits(), bits, "{label}: time");
        let caches: Vec<AccessCounts> = run.reports.iter().map(|r| r.cache).collect();
        let pinned: Vec<AccessCounts> = per_rank
            .iter()
            .map(|&(hits, memory)| AccessCounts { hits, memory })
            .collect();
        assert_eq!(caches, pinned, "{label}: per-rank cache totals");
    }
}

proptest! {
    /// `stall_time` sums only the levels the machine has; that must be
    /// bit-equal to the full five-term sum the goldens were built on.
    #[test]
    fn stall_time_is_bit_equal_to_the_five_term_sum(
        hits in prop::collection::vec(0u64..1 << 40, 4),
        memory in 0u64..1 << 40,
        sharers in 1usize..6,
    ) {
        let counts = AccessCounts { hits: [hits[0], hits[1], hits[2], hits[3]], memory };
        for machine in [
            MachineConfig::ibm_sp_p2sc(),
            MachineConfig::ethernet_cluster(),
            MachineConfig::test_tiny(),
            MachineConfig::multicore_smp().effective_for_ranks(sharers),
        ] {
            let mut reference = counts.memory as f64 * machine.mem.memory_time;
            for (level, &n) in counts.hits.iter().enumerate() {
                reference += n as f64 * machine.mem.hit_time[level];
            }
            let stall = PerfContext::new(machine).stall_time(&counts);
            prop_assert_eq!(stall.to_bits(), reference.to_bits());
        }
    }
}
