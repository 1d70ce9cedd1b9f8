//! Integration: parallel campaign execution is schedule-independent.
//! Each measurement cell runs on its own simulated cluster with a
//! seed derived from (machine seed, cell key), so the same campaign
//! produces bit-identical tables no matter how many scheduler workers
//! (`jobs`) execute it — even with measurement noise enabled.

use kernel_couplings::experiments::{catalog, Campaign, Runner};

fn table2_numbers(campaign: &Campaign) -> (Vec<Vec<f64>>, String) {
    let (output, _) = catalog::get("bt-s").unwrap().run(campaign).unwrap();
    let tables = output.artifact.unwrap();
    let values = tables
        .couplings
        .iter()
        .flat_map(|t| t.rows.iter().map(|r| r.values.clone()))
        .collect();
    (values, tables.render_text())
}

#[test]
fn noisy_campaign_is_bit_identical_across_worker_counts() {
    // seeded noise ON: the strongest form of the claim — noise is
    // part of the cell, not of the worker schedule
    let serial = table2_numbers(&Campaign::builder(Runner::default()).jobs(1).build());
    let parallel = table2_numbers(&Campaign::builder(Runner::default()).jobs(8).build());
    assert_eq!(
        serial.0, parallel.0,
        "coupling values must not depend on the worker count"
    );
    assert_eq!(
        serial.1, parallel.1,
        "rendered tables must be bit-identical"
    );
}

#[test]
fn noise_free_campaign_is_bit_identical_across_worker_counts() {
    let serial = table2_numbers(&Campaign::builder(Runner::noise_free()).jobs(1).build());
    // default pool size: whatever the machine offers
    let parallel = table2_numbers(&Campaign::builder(Runner::noise_free()).build());
    assert_eq!(serial, parallel);
}

/// Names of this process's live rank threads (`kc-rank-<r>`, what
/// `Cluster::run` names them), sorted.
#[cfg(target_os = "linux")]
fn rank_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("kc-rank-"))
        .collect();
    names.sort();
    names
}

/// A cell's ranks are futures on the scheduler worker that executes
/// it: while a campaign executes cells, a helper thread scanning this
/// process's threads sees no rank thread.  Blocking runs' rank threads
/// are gone once the run returns, so the scan runs alongside the
/// campaign; the positive control first shows that the scan sees them
/// while they live.  (One test, so no other test's ranks run during
/// the scan.)
#[cfg(target_os = "linux")]
#[test]
fn executed_cells_start_no_rank_threads() {
    use kernel_couplings::machine::{Cluster, MachineConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    // positive control: four blocking ranks park at a barrier shared
    // with this thread, which scans while they wait there
    let parked = Barrier::new(5);
    let seen_parked = std::thread::scope(|scope| {
        scope.spawn(|| {
            Cluster::new(MachineConfig::test_tiny()).run(4, |_| {
                parked.wait();
                parked.wait();
            })
        });
        parked.wait(); // every rank thread is running
        let seen = rank_threads();
        parked.wait(); // release them
        seen
    });
    assert_eq!(
        seen_parked,
        ["kc-rank-0", "kc-rank-1", "kc-rank-2", "kc-rank-3"]
    );

    let stop = AtomicBool::new(false);
    let campaign = Campaign::builder(Runner::noise_free()).jobs(2).build();
    let seen = std::thread::scope(|scope| {
        let scanner = scope.spawn(|| {
            let mut seen = std::collections::BTreeSet::new();
            while !stop.load(Ordering::Acquire) {
                seen.extend(rank_threads());
                std::thread::yield_now();
            }
            seen
        });
        table2_numbers(&campaign);
        stop.store(true, Ordering::Release);
        scanner.join().unwrap()
    });
    assert!(campaign.cache_stats().executed > 0);
    assert!(seen.is_empty(), "{seen:?}");
}
