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

/// Names of this process's live threads.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// A cell's ranks are futures on the scheduler worker that executes
/// it: a campaign that has executed cells, and still holds its
/// workers, has started no rank thread.
#[cfg(target_os = "linux")]
#[test]
fn executed_cells_start_no_rank_threads() {
    let campaign = Campaign::builder(Runner::noise_free()).jobs(2).build();
    table2_numbers(&campaign);
    assert!(campaign.cache_stats().executed > 0);
    let rank_threads: Vec<_> = thread_names()
        .into_iter()
        .filter(|name| name.starts_with("kc-rank-"))
        .collect();
    assert!(rank_threads.is_empty(), "{rank_threads:?}");
}
