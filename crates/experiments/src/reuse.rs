//! Coupling-reuse study — the paper's future work, quantified.
//!
//! "Future work is focused on determining which coupling values must
//! be obtained and which values can be reused, thereby reducing the
//! number of needed experiments."  This experiment measures exactly
//! that on the benchmarks: take coefficients from one processor count
//! (or class) and predict another, measuring only the target's
//! isolated kernel times.  A full native campaign needs `N + N`
//! chain measurements per configuration; reuse needs `N` — the
//! question is what it costs in accuracy.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::{CouplingAnalysis, CouplingRow, CouplingTable, KcResult, ReuseStudy};
use kc_npb::{Benchmark, Class};

/// The analyses [`proc_transfer_table`] reads; prefetch them first.
pub fn proc_transfer_requests(
    benchmark: Benchmark,
    class: Class,
    procs: &[usize],
    len: usize,
) -> Vec<AnalysisSpec> {
    procs
        .iter()
        .map(|&p| AnalysisSpec::new(benchmark, class, p, len))
        .collect()
}

/// Read the analysis of every spec from the campaign cache.
fn analyses(campaign: &Campaign, specs: &[AnalysisSpec]) -> KcResult<Vec<CouplingAnalysis>> {
    specs.iter().map(|s| campaign.analysis(s)).collect()
}

/// The source × target transfer matrix across processor counts:
/// cell (row = source procs, column = target procs) is the relative
/// error (%) of predicting the target with the source's coefficients.
/// The diagonal is the native coupling predictor.
pub fn proc_transfer_table(
    campaign: &Campaign,
    benchmark: Benchmark,
    class: Class,
    procs: &[usize],
    len: usize,
) -> KcResult<(CouplingTable, ReuseStudy)> {
    let all = analyses(
        campaign,
        &proc_transfer_requests(benchmark, class, procs, len),
    )?;
    let mut study = ReuseStudy::new();
    let mut rows = Vec::new();
    for (si, &sp) in procs.iter().enumerate() {
        let mut values = Vec::new();
        for (ti, &tp) in procs.iter().enumerate() {
            let cell = study.record(&all[si], &format!("p{sp}"), &all[ti], &format!("p{tp}"))?;
            values.push(100.0 * cell.rel_err());
        }
        rows.push(CouplingRow {
            label: format!("from {sp} procs"),
            values,
        });
    }
    let table = CouplingTable {
        title: format!(
            "Coupling reuse across processor counts: rel. error (%) predicting column \
             from row's coefficients — {benchmark} class {class}, {len}-kernel chains"
        ),
        columns: procs.iter().map(|p| format!("{p} procs")).collect(),
        rows,
    };
    Ok((table, study))
}

/// The analyses [`class_transfer_table`] reads; prefetch them first.
pub fn class_transfer_requests(
    benchmark: Benchmark,
    classes: &[Class],
    procs: usize,
    len: usize,
) -> Vec<AnalysisSpec> {
    classes
        .iter()
        .map(|&c| AnalysisSpec::new(benchmark, c, procs, len))
        .collect()
}

/// Transfer across classes at a fixed processor count: coefficients
/// from each class predicting each other class.
pub fn class_transfer_table(
    campaign: &Campaign,
    benchmark: Benchmark,
    classes: &[Class],
    procs: usize,
    len: usize,
) -> KcResult<(CouplingTable, ReuseStudy)> {
    let all = analyses(
        campaign,
        &class_transfer_requests(benchmark, classes, procs, len),
    )?;
    let mut study = ReuseStudy::new();
    let mut rows = Vec::new();
    for (si, &sc) in classes.iter().enumerate() {
        let mut values = Vec::new();
        for (ti, &tc) in classes.iter().enumerate() {
            let cell = study.record(
                &all[si],
                &format!("class {sc}"),
                &all[ti],
                &format!("class {tc}"),
            )?;
            values.push(100.0 * cell.rel_err());
        }
        rows.push(CouplingRow {
            label: format!("from class {sc}"),
            values,
        });
    }
    let table = CouplingTable {
        title: format!(
            "Coupling reuse across classes at {procs} procs: rel. error (%) — {benchmark}, \
             {len}-kernel chains"
        ),
        columns: classes.iter().map(|c| format!("class {c}")).collect(),
        rows,
    };
    Ok((table, study))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_transfer_stays_cheap_within_a_regime() {
        // BT class W sits in one cache regime at every processor
        // count, so coefficients transfer across processor counts with
        // little loss and always beat summation
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        let (table, study) =
            proc_transfer_table(&campaign, Benchmark::Bt, Class::W, &[4, 16], 3).unwrap();
        table.check();
        assert_eq!(
            study.transfer_win_rate(),
            1.0,
            "reuse must beat summation in-regime"
        );
        assert!(
            study.mean_transfer_err() < 0.05,
            "mean transfer error {:.4} too large",
            study.mean_transfer_err()
        );
        // the native (diagonal) predictor stays accurate; transfers
        // can land on either side of it by luck, so only bound them
        for (i, r) in table.rows.iter().enumerate() {
            assert!(
                r.values[i] < 3.0,
                "native error {:.2}% too large",
                r.values[i]
            );
            for v in &r.values {
                assert!(*v < 6.0, "in-regime transfer error {v:.2}% too large");
            }
        }
    }
}
