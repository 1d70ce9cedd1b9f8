//! The paper's scaling finding (§4.1.4, §6): "the coupling values go
//! through a finite number of major value changes \[as\] the problem
//! size and number of processors scale, … dependent on the memory
//! subsystem of the processor architecture."
//!
//! This experiment quantifies that: for BT, the mean pairwise coupling
//! value per (class × processor count) cell, together with the cache
//! level the per-processor working set lands in.  The regimes are
//! visible as plateaus of the coupling value that shift when the
//! working set crosses L1 or L2 capacity.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::{CouplingRow, CouplingTable, KcResult};
use kc_npb::state::{lhs_bytes_per_cell, CELL_BYTES};
use kc_npb::{Benchmark, Class};

/// Mean coupling value over all windows of length `chain_len`.
pub fn mean_coupling(campaign: &Campaign, spec: &AnalysisSpec) -> KcResult<f64> {
    let analysis = campaign.analysis(spec)?;
    let cs = analysis.couplings()?;
    Ok(cs.iter().sum::<f64>() / cs.len() as f64)
}

/// Approximate per-processor *resident* working set of a benchmark
/// instance in bytes: the three 5-component fields a loop iteration
/// keeps coming back to (`u`, `rhs`, `forcing`).  Solver scratch
/// streams through once per solve and is excluded — see
/// [`lhs_bytes_per_cell`] for its footprint.
pub fn working_set_bytes(benchmark: Benchmark, class: Class, procs: usize) -> usize {
    let _ = lhs_bytes_per_cell(benchmark); // scratch is charged to the cache model, not counted here
    let n = benchmark.problem(class).size;
    let cells_per_proc = n * n * n / procs;
    cells_per_proc * 3 * CELL_BYTES
}

/// Which cache level of `machine` holds a working set of `bytes`
/// (0 = L1, 1 = L2, …, `levels` = memory).
pub fn cache_regime(machine: &kc_machine::MachineConfig, bytes: usize) -> usize {
    for (i, c) in machine.caches.iter().enumerate() {
        if bytes <= c.capacity {
            return i;
        }
    }
    machine.caches.len()
}

/// The analyses [`transition_table`] reads; prefetch them first.
pub fn transition_requests(classes: &[Class], procs: &[usize]) -> Vec<AnalysisSpec> {
    classes
        .iter()
        .flat_map(|&class| {
            procs
                .iter()
                .map(move |&p| AnalysisSpec::new(Benchmark::Bt, class, p, 2))
        })
        .collect()
}

/// The transition table: one row per class, one column per processor
/// count, each cell the mean pairwise coupling value.
pub fn transition_table(
    campaign: &Campaign,
    classes: &[Class],
    procs: &[usize],
) -> KcResult<CouplingTable> {
    let mut rows = Vec::new();
    for &class in classes {
        let mut values = Vec::new();
        for &p in procs {
            values.push(mean_coupling(
                campaign,
                &AnalysisSpec::new(Benchmark::Bt, class, p, 2),
            )?);
        }
        rows.push(CouplingRow {
            label: format!("class {class}"),
            values,
        });
    }
    Ok(CouplingTable {
        title: "Coupling regime transitions: mean BT pairwise coupling vs class and processors"
            .to_string(),
        columns: procs.iter().map(|p| format!("{p} processors")).collect(),
        rows,
    })
}

/// Companion table: the cache regime (0 = fits L1, 1 = fits L2,
/// 2 = spills to memory) for each (class × procs) cell.  Pure
/// arithmetic over the campaign's machine — no measurements.
pub fn regime_table(campaign: &Campaign, classes: &[Class], procs: &[usize]) -> CouplingTable {
    let machine = &campaign.runner().machine;
    let rows = classes
        .iter()
        .map(|&class| CouplingRow {
            label: format!("class {class}"),
            values: procs
                .iter()
                .map(|&p| cache_regime(machine, working_set_bytes(Benchmark::Bt, class, p)) as f64)
                .collect(),
        })
        .collect();
    CouplingTable {
        title: "Cache level holding the per-processor working set (0=L1, 1=L2, 2=memory)"
            .to_string(),
        columns: procs.iter().map(|p| format!("{p} processors")).collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_sets_cross_cache_levels_with_class() {
        let machine = kc_machine::MachineConfig::ibm_sp_p2sc();
        // class S at 4 procs fits in L1; class W spills L1 but fits
        // L2; class A at 4 procs spills L2 — the paper's three regimes
        let s = cache_regime(&machine, working_set_bytes(Benchmark::Bt, Class::S, 4));
        let w = cache_regime(&machine, working_set_bytes(Benchmark::Bt, Class::W, 4));
        let a = cache_regime(&machine, working_set_bytes(Benchmark::Bt, Class::A, 4));
        assert_eq!(s, 0, "class S per-proc data should fit L1");
        assert_eq!(w, 1, "class W per-proc data should fit L2 but not L1");
        assert_eq!(a, 2, "class A per-proc data at 4 procs should exceed L2");
    }

    #[test]
    fn class_a_returns_to_l2_at_high_processor_counts() {
        let machine = kc_machine::MachineConfig::ibm_sp_p2sc();
        let a25 = cache_regime(&machine, working_set_bytes(Benchmark::Bt, Class::A, 25));
        assert!(a25 <= 1, "class A at 25 procs should fit in cache again");
    }
}
