//! Kernel-granularity study.
//!
//! The paper defines a kernel as "a unit of computation that denotes a
//! logical entity … a loop, procedure, or file depending on the level
//! of granularity of detail that is desired."  Its evaluation uses
//! procedure-level kernels; this experiment asks what changes at
//! *loop-level* granularity: BT with each solve split into its
//! elimination and substitution halves (8 loop kernels instead of 5).
//!
//! Two findings to expect:
//!
//! * elimination/substitution pairs couple far more strongly than any
//!   procedure-level pair — the substitution immediately re-reads the
//!   coefficient planes the elimination just wrote;
//! * the summation baseline degrades further (more isolated-run
//!   penalties to sum) while the coupling predictor holds up, so the
//!   methodology's advantage *grows* with decomposition detail.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::report::TableCell;
use kc_core::{
    CouplingAnalysis, CouplingRow, CouplingTable, KcResult, PredictionRow, PredictionTable,
    Predictor,
};
use kc_npb::{Benchmark, Class};

/// Collect an analysis at the fine (8-kernel) BT decomposition.
pub fn fine_analysis(
    campaign: &Campaign,
    class: Class,
    procs: usize,
    chain_len: usize,
) -> KcResult<CouplingAnalysis> {
    campaign.analysis(&AnalysisSpec::new(Benchmark::Bt, class, procs, chain_len).fine())
}

/// The analyses [`granularity_tables`] reads; prefetch them first.
pub fn granularity_requests(class: Class, procs: &[usize]) -> Vec<AnalysisSpec> {
    procs
        .iter()
        .flat_map(|&p| {
            [
                AnalysisSpec::new(Benchmark::Bt, class, p, 3),
                AnalysisSpec::new(Benchmark::Bt, class, p, 2).fine(),
                AnalysisSpec::new(Benchmark::Bt, class, p, 5).fine(),
            ]
        })
        .collect()
}

/// The granularity comparison for BT at one class: coarse (paper)
/// vs fine decomposition, each with its best-suited chain length.
pub fn granularity_tables(
    campaign: &Campaign,
    class: Class,
    procs: &[usize],
) -> KcResult<(CouplingTable, PredictionTable)> {
    let columns: Vec<String> = procs.iter().map(|p| format!("{p} processors")).collect();
    let mut pair_coupling = Vec::new(); // strongest fine pair per proc
    let mut actual = Vec::new();
    let mut coarse_sum = Vec::new();
    let mut coarse_cpl = Vec::new();
    let mut fine_sum = Vec::new();
    let mut fine_cpl = Vec::new();

    for &p in procs {
        // coarse: the paper's decomposition, 3-kernel chains
        let coarse = campaign.analysis(&AnalysisSpec::new(Benchmark::Bt, class, p, 3))?;
        actual.push(coarse.actual().mean());
        coarse_sum.push(coarse.predict(Predictor::Summation)?);
        coarse_cpl.push(coarse.predict(Predictor::coupling(3))?);

        // fine: 8 kernels, pairwise chains highlight the elim/subst bond
        let fine2 = fine_analysis(campaign, class, p, 2)?;
        let set = fine2.kernel_set().clone();
        let elim_subst = fine2
            .windows()
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                let l = w.label(&set);
                l.contains("x_elim, x_subst")
                    || l.contains("y_elim, y_subst")
                    || l.contains("z_elim, z_subst")
            })
            .map(|(i, _)| fine2.coupling(i).unwrap())
            .fold(f64::INFINITY, f64::min);
        pair_coupling.push(elim_subst);
        fine_sum.push(fine2.predict(Predictor::Summation)?);
        // longer chains for the prediction at the fine granularity
        let fine5 = fine_analysis(campaign, class, p, 5)?;
        fine_cpl.push(fine5.predict(Predictor::coupling(5))?);
    }

    let couplings = CouplingTable {
        title: format!(
            "Granularity study: strongest elimination/substitution pair coupling — BT class {class}"
        ),
        columns: columns.clone(),
        rows: vec![CouplingRow {
            label: "min elim/subst pair coupling".to_string(),
            values: pair_coupling,
        }],
    };

    let err = |t: f64, a: f64| Some(100.0 * (t - a).abs() / a);
    let rows = vec![
        PredictionRow {
            label: "Actual".to_string(),
            cells: actual
                .iter()
                .map(|&t| TableCell {
                    time: t,
                    rel_err_pct: None,
                })
                .collect(),
        },
        PredictionRow {
            label: "Coarse summation (5 kernels)".to_string(),
            cells: coarse_sum
                .iter()
                .zip(&actual)
                .map(|(&t, &a)| TableCell {
                    time: t,
                    rel_err_pct: err(t, a),
                })
                .collect(),
        },
        PredictionRow {
            label: "Coarse coupling (L=3)".to_string(),
            cells: coarse_cpl
                .iter()
                .zip(&actual)
                .map(|(&t, &a)| TableCell {
                    time: t,
                    rel_err_pct: err(t, a),
                })
                .collect(),
        },
        PredictionRow {
            label: "Fine summation (8 kernels)".to_string(),
            cells: fine_sum
                .iter()
                .zip(&actual)
                .map(|(&t, &a)| TableCell {
                    time: t,
                    rel_err_pct: err(t, a),
                })
                .collect(),
        },
        PredictionRow {
            label: "Fine coupling (L=5)".to_string(),
            cells: fine_cpl
                .iter()
                .zip(&actual)
                .map(|(&t, &a)| TableCell {
                    time: t,
                    rel_err_pct: err(t, a),
                })
                .collect(),
        },
    ];
    let predictions = PredictionTable {
        title: format!("Granularity study: prediction accuracy — BT class {class}"),
        columns,
        rows,
    };
    Ok((couplings, predictions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_npb::{NpbApp, NpbExecutor};

    #[test]
    fn elim_subst_pairs_couple_strongly() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        let fine = fine_analysis(&campaign, Class::S, 4, 2).unwrap();
        let set = fine.kernel_set().clone();
        assert_eq!(set.len(), 8);
        // the x_elim/x_subst pair must couple more constructively than
        // the coarse copy_faces/x_solve pair does
        let (mut pair_c, mut other_min) = (f64::NAN, f64::INFINITY);
        for (i, w) in fine.windows().iter().enumerate() {
            let c = fine.coupling(i).unwrap();
            if w.label(&set).contains("x_elim, x_subst") {
                pair_c = c;
            } else {
                other_min = other_min.min(c);
            }
        }
        assert!(pair_c.is_finite());
        assert!(
            pair_c < 1.0,
            "elim/subst must couple constructively, got {pair_c}"
        );
    }

    #[test]
    fn fine_numeric_decomposition_is_equivalent_to_coarse() {
        // running the 8-kernel loop numerically produces exactly the
        // same physics as the 5-kernel loop
        use kc_machine::MachineConfig;
        use kc_npb::{ExecConfig, Mode};
        let cfg = ExecConfig {
            mode: Mode::Numeric,
            ..ExecConfig::default()
        };
        let coarse = NpbExecutor::new(
            NpbApp::new(Benchmark::Bt, Class::S, 4),
            MachineConfig::test_tiny(),
            cfg,
        );
        let fine = NpbExecutor::with_spec(
            NpbApp::new(Benchmark::Bt, Class::S, 4),
            MachineConfig::test_tiny(),
            cfg,
            kc_npb::bt::fine_spec(),
        );
        let a = coarse.run_numeric(3, 0.1).verify;
        let b = fine.run_numeric(3, 0.1).verify;
        assert_eq!(
            a, b,
            "fine and coarse decompositions must compute identically"
        );
    }

    #[test]
    fn coupling_advantage_grows_with_granularity() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        let (_, table) = granularity_tables(&campaign, Class::S, &[4]).unwrap();
        let get = |label: &str| table.row(label).unwrap().avg_rel_err_pct().unwrap();
        let coarse_sum = get("Coarse summation (5 kernels)");
        let fine_sum = get("Fine summation (8 kernels)");
        let fine_cpl = get("Fine coupling (L=5)");
        assert!(
            fine_sum > coarse_sum,
            "finer decomposition should hurt summation: {fine_sum:.2}% vs {coarse_sum:.2}%"
        );
        assert!(
            fine_cpl < fine_sum / 2.0,
            "coupling must hold up at fine granularity"
        );
    }
}
