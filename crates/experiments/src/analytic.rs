//! The composition algebra applied to *analytical* kernel models —
//! the use case paper Eq. 3 is written for.
//!
//! Section 3 of the paper assumes the analyst has hand-derived models
//! `E_A … E_D` of the kernels ("we have manually analyzed these two
//! functions such that we have modelA and modelB") and asks how to
//! combine them.  The evaluation section then uses measured kernel
//! times as the models; here we close the loop with genuinely
//! analytical `E_k` from `kc_npb::models` (closed-form flop / memory /
//! communication terms, no simulation) and compare three compositions:
//!
//! * analytic summation: `Σ E_k` — a hand model with no interaction
//!   correction;
//! * analytic + coupling: `Σ α_k E_k` with measured coefficients;
//! * measured + coupling: the paper's evaluation setting, for
//!   reference.

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::report::TableCell;
use kc_core::{KcResult, PredictionRow, PredictionTable, Predictor};
use kc_npb::models::analytic_isolated_totals;
use kc_npb::{Benchmark, Class};

/// The analyses [`analytic_table`] reads; prefetch them first.
pub fn analytic_requests(
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

/// Build the analytic-composition table for one benchmark × class over
/// processor counts, at chain length `len`.
pub fn analytic_table(
    campaign: &Campaign,
    benchmark: Benchmark,
    class: Class,
    procs: &[usize],
    len: usize,
) -> KcResult<PredictionTable> {
    let columns: Vec<String> = procs.iter().map(|p| format!("{p} processors")).collect();
    let mut actual = Vec::new();
    let mut rows_data: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for &p in procs {
        let analysis = campaign.analysis(&AnalysisSpec::new(benchmark, class, p, len))?;
        let models = analytic_isolated_totals(
            &kc_npb::NpbApp::new(benchmark, class, p),
            &campaign.runner().machine,
        );
        actual.push(analysis.actual().mean());
        rows_data[0].push(analysis.predict_with_models(Predictor::Summation, &models)?);
        rows_data[1].push(analysis.predict_with_models(Predictor::coupling(len), &models)?);
        rows_data[2].push(analysis.predict(Predictor::coupling(len))?);
    }
    let err = |t: f64, a: f64| Some(100.0 * (t - a).abs() / a);
    let mut rows = vec![PredictionRow {
        label: "Actual".to_string(),
        cells: actual
            .iter()
            .map(|&t| TableCell {
                time: t,
                rel_err_pct: None,
            })
            .collect(),
    }];
    for (label, data) in [
        ("Analytic models (of isolated runs), summed", &rows_data[0]),
        (
            &*format!("Analytic models + coupling ({len} kernels)"),
            &rows_data[1],
        ),
        (
            &*format!("Measured kernels + coupling ({len} kernels)"),
            &rows_data[2],
        ),
    ] {
        rows.push(PredictionRow {
            label: label.to_string(),
            cells: data
                .iter()
                .zip(&actual)
                .map(|(&t, &a)| TableCell {
                    time: t,
                    rel_err_pct: err(t, a),
                })
                .collect(),
        });
    }
    Ok(PredictionTable {
        title: format!(
            "Analytic composition (paper Eq. 3): {benchmark} class {class}, {len}-kernel coefficients"
        ),
        columns,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_composition_beats_analytic_summation() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        let t = analytic_table(&campaign, Benchmark::Bt, Class::W, &[4, 9], 3).unwrap();
        t.check();
        let summed = t
            .row("Analytic models (of isolated runs), summed")
            .unwrap()
            .avg_rel_err_pct()
            .unwrap();
        let coupled = t
            .row("Analytic models + coupling (3 kernels)")
            .unwrap()
            .avg_rel_err_pct()
            .unwrap();
        assert!(
            coupled < summed,
            "coupling composition ({coupled:.2}%) must beat plain analytic summation ({summed:.2}%)"
        );
        // and the hand models should land in the paper's "good model"
        // band of ~15% once composed with coupling coefficients
        assert!(
            coupled < 15.0,
            "analytic+coupling error {coupled:.2}% too large"
        );
    }
}
