//! The experiment runner: machine + measurement protocol + generic
//! table builders.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::report::TableCell;
use kc_core::{CouplingRow, CouplingTable, KcResult, PredictionRow, PredictionTable, Predictor};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class, ExecConfig, NpbApp, NpbExecutor};

/// Owns the simulated machine and the measurement-protocol settings
/// used for every experiment.
#[derive(Clone, Debug)]
pub struct Runner {
    /// The machine all measurements run on.
    pub machine: MachineConfig,
    /// Measurement protocol (warm-up/timed iterations, mode).
    pub exec: ExecConfig,
    /// Timing repetitions per measurement (the paper uses 50 per
    /// kernel; 5 keeps the campaign quick with the same averaging
    /// effect under our noise model).
    pub reps: u32,
}

impl Default for Runner {
    fn default() -> Self {
        Self {
            machine: MachineConfig::ibm_sp_p2sc(),
            exec: ExecConfig::default(),
            reps: 5,
        }
    }
}

impl Runner {
    /// A runner with all timer noise disabled (for shape-focused
    /// tests).
    pub fn noise_free() -> Self {
        let mut r = Self::default();
        r.machine = r.machine.without_noise();
        r
    }

    /// Build the executor for one benchmark instance.
    pub fn executor(&self, benchmark: Benchmark, class: Class, procs: usize) -> NpbExecutor {
        NpbExecutor::new(
            NpbApp::new(benchmark, class, procs),
            self.machine.clone(),
            self.exec,
        )
    }
}

/// A paper table pair: the coupling-value tables (one per chain
/// length) and the execution-time comparison table.
#[derive(Clone, Debug)]
pub(crate) struct TablePair {
    /// Coupling tables, one per requested chain length (paper's
    /// "a"-tables).
    pub(crate) couplings: Vec<CouplingTable>,
    /// Execution-time comparison (paper's "b"-tables).
    pub(crate) predictions: PredictionTable,
}

/// Prediction-table rows: `Actual`, then one row per `(label,
/// predicted times)`, each cell with its relative error (%) against
/// the actual time of its column.
pub(crate) fn prediction_rows(
    actual: &[f64],
    predicted: Vec<(String, Vec<f64>)>,
) -> Vec<PredictionRow> {
    let row = |label: String, times: &[f64], rel_err: bool| PredictionRow {
        label,
        cells: times
            .iter()
            .zip(actual)
            .map(|(&t, &a)| TableCell {
                time: t,
                rel_err_pct: rel_err.then(|| 100.0 * (t - a).abs() / a),
            })
            .collect(),
    };
    let mut rows = vec![row("Actual".to_string(), actual, false)];
    for (label, times) in predicted {
        rows.push(row(label, &times, true));
    }
    rows
}

/// The analysis specs a [`build_tables`] call reads, processor-major —
/// prefetch these (possibly merged with other tables' requests) to
/// measure the whole study as one deduplicated parallel campaign.
pub(crate) fn table_requests(
    benchmark: Benchmark,
    class: Class,
    procs: &[usize],
    chain_lens: &[usize],
) -> Vec<AnalysisSpec> {
    procs
        .iter()
        .flat_map(|&p| {
            chain_lens
                .iter()
                .map(move |&len| AnalysisSpec::new(benchmark, class, p, len))
        })
        .collect()
}

/// The paper's table pair for one benchmark × class over a set of
/// processor counts and chain lengths, assembled from the analyses
/// [`table_requests`] names (which a prefetch must have brought in).
pub(crate) fn build_tables(
    campaign: &Campaign,
    benchmark: Benchmark,
    class: Class,
    procs: &[usize],
    chain_lens: &[usize],
    coupling_title: &str,
    prediction_title: &str,
) -> KcResult<TablePair> {
    assert!(!procs.is_empty() && !chain_lens.is_empty());
    let columns: Vec<String> = procs.iter().map(|p| format!("{p} processors")).collect();

    struct ProcResult {
        actual: f64,
        summation: f64,
        labels: Vec<Vec<String>>,
        couplings: Vec<Vec<f64>>,
        coupled: Vec<f64>,
    }
    let mut per_proc: Vec<ProcResult> = Vec::new();
    for specs in table_requests(benchmark, class, procs, chain_lens).chunks(chain_lens.len()) {
        let mut res = ProcResult {
            actual: 0.0,
            summation: 0.0,
            labels: Vec::new(),
            couplings: Vec::new(),
            coupled: Vec::new(),
        };
        for (li, spec) in specs.iter().enumerate() {
            let analysis = campaign.assemble(spec)?;
            res.labels.push(
                analysis
                    .windows()
                    .iter()
                    .map(|w| w.label(analysis.kernel_set()))
                    .collect(),
            );
            res.couplings
                .push(analysis.couplings().expect("positive kernel times"));
            if li == 0 {
                res.actual = analysis.actual().mean();
                res.summation = analysis.predict(Predictor::Summation).expect("summation");
            }
            res.coupled.push(
                analysis
                    .predict(Predictor::coupling(spec.chain_len))
                    .expect("coupling"),
            );
        }
        per_proc.push(res);
    }

    let mut coupling_values: Vec<Vec<Vec<f64>>> = vec![Vec::new(); chain_lens.len()];
    let window_labels: Vec<Vec<String>> = per_proc[0].labels.clone();
    let mut actual: Vec<f64> = Vec::new();
    let mut summation: Vec<f64> = Vec::new();
    let mut coupled: Vec<Vec<f64>> = vec![Vec::new(); chain_lens.len()];
    for res in per_proc {
        actual.push(res.actual);
        summation.push(res.summation);
        for (li, c) in res.couplings.into_iter().enumerate() {
            coupling_values[li].push(c);
        }
        for (li, c) in res.coupled.into_iter().enumerate() {
            coupled[li].push(c);
        }
    }

    let couplings = chain_lens
        .iter()
        .enumerate()
        .map(|(li, &len)| {
            let rows = window_labels[li]
                .iter()
                .enumerate()
                .map(|(w, label)| CouplingRow {
                    label: label.clone(),
                    values: coupling_values[li].iter().map(|per_proc| per_proc[w]).collect(),
                })
                .collect();
            CouplingTable {
                title: format!(
                    "{coupling_title}: Coupling values for {benchmark} {len}-kernel chains, class {class}"
                ),
                columns: columns.clone(),
                rows,
            }
        })
        .collect();

    let mut predicted = vec![("Summation".to_string(), summation)];
    predicted.extend(
        chain_lens
            .iter()
            .zip(coupled)
            .map(|(&len, times)| (Predictor::coupling(len).label(), times)),
    );
    let predictions = PredictionTable {
        title: format!(
            "{prediction_title}: Comparison of execution times for {benchmark} with class {class}"
        ),
        columns,
        rows: prediction_rows(&actual, predicted),
    };
    Ok(TablePair {
        couplings,
        predictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_class_s_tables_have_paper_shape() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        campaign
            .prefetch(&table_requests(Benchmark::Bt, Class::S, &[4], &[2]))
            .unwrap();
        let pair = build_tables(
            &campaign,
            Benchmark::Bt,
            Class::S,
            &[4],
            &[2],
            "Table 2a",
            "Table 2b",
        )
        .unwrap();
        assert_eq!(pair.couplings.len(), 1);
        assert_eq!(
            pair.couplings[0].rows.len(),
            5,
            "five pairwise chains for BT"
        );
        assert_eq!(pair.couplings[0].rows[0].label, "{copy_faces, x_solve}");
        assert_eq!(
            pair.predictions.rows.len(),
            3,
            "actual + summation + coupling"
        );
        pair.couplings[0].check();
        pair.predictions.check();
    }

    #[test]
    fn coupling_beats_summation_for_bt_class_s() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        campaign
            .prefetch(&table_requests(Benchmark::Bt, Class::S, &[4], &[4]))
            .unwrap();
        let pair =
            build_tables(&campaign, Benchmark::Bt, Class::S, &[4], &[4], "Ta", "Tb").unwrap();
        let sum_err = pair
            .predictions
            .row("Summation")
            .unwrap()
            .avg_rel_err_pct()
            .unwrap();
        let cpl_err = pair
            .predictions
            .row("Coupling: 4 kernels")
            .unwrap()
            .avg_rel_err_pct()
            .unwrap();
        assert!(
            cpl_err < sum_err,
            "coupling ({cpl_err:.2}%) should beat summation ({sum_err:.2}%)"
        );
    }
}
