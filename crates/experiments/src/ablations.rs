//! Ablation studies over the design choices DESIGN.md calls out: how
//! the headline conclusions respond to chain length, cache capacity,
//! network contention and timer noise.
//!
//! Sweeps that vary the machine (cache capacity, contention, noise)
//! express each variant as an [`AnalysisSpec`] with a machine
//! override — every variant is a distinct fingerprint, hence a
//! distinct set of cells in the campaign cache.  Each sweep assembles
//! exactly the analyses its `*_requests` function names, which a
//! prefetch must have brought in.

use crate::campaign::{AnalysisSpec, Campaign};
use crate::transitions::mean_coupling;
use kc_core::{CouplingRow, CouplingTable, KcResult, Predictor};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class};

/// The analyses [`chain_length_sweep`] needs.
pub(crate) fn chain_length_requests(
    benchmark: Benchmark,
    class: Class,
    procs: usize,
) -> Vec<AnalysisSpec> {
    let n_kernels = benchmark.spec().loop_kernels.len();
    (1..=n_kernels)
        .map(|len| AnalysisSpec::new(benchmark, class, procs, len))
        .collect()
}

/// Chain-length sweep (the paper's open question: "as to which group
/// of equations will lead to the best prediction"): relative error of
/// the coupling predictor for every admissible chain length, plus the
/// summation baseline as length 0.
pub(crate) fn chain_length_sweep(
    campaign: &Campaign,
    benchmark: Benchmark,
    class: Class,
    procs: usize,
) -> KcResult<CouplingTable> {
    let requests = chain_length_requests(benchmark, class, procs);
    let analyses = requests
        .iter()
        .map(|spec| campaign.assemble(spec))
        .collect::<KcResult<Vec<_>>>()?;
    let mut rows = Vec::new();
    // summation baseline (coefficients all 1), from the length-1 analysis
    let base = &analyses[0];
    let actual = base.actual().mean();
    let err = |pred: f64| 100.0 * (pred - actual).abs() / actual;
    rows.push(CouplingRow {
        label: "summation".to_string(),
        values: vec![err(base.predict(Predictor::Summation)?)],
    });
    for (spec, analysis) in requests.iter().zip(&analyses) {
        let pred = analysis.predict(Predictor::coupling(spec.chain_len))?;
        rows.push(CouplingRow {
            label: format!("coupling, {len}-kernel chains", len = spec.chain_len),
            values: vec![err(pred)],
        });
    }
    Ok(CouplingTable {
        title: format!(
            "Ablation: prediction error vs chain length — {benchmark} class {class}, {procs} processors"
        ),
        columns: vec!["rel. error %".to_string()],
        rows,
    })
}

/// The analyses [`cache_capacity_sweep`] needs.
pub(crate) fn cache_capacity_requests(
    base: &MachineConfig,
    l2_capacities: &[usize],
) -> Vec<AnalysisSpec> {
    l2_capacities
        .iter()
        .map(|&cap| {
            let mut m = base.clone();
            m.caches[1].capacity = cap;
            AnalysisSpec::new(Benchmark::Bt, Class::A, 4, 4).on(m)
        })
        .collect()
}

/// Cache-capacity sweep: the mean coupling value of BT class A as the
/// second-level cache grows, demonstrating that the coupling regime is
/// a function of the memory subsystem (paper §4.1.4).
pub(crate) fn cache_capacity_sweep(
    campaign: &Campaign,
    l2_capacities: &[usize],
) -> KcResult<CouplingTable> {
    let requests = cache_capacity_requests(&campaign.runner().machine, l2_capacities);
    let mut values = Vec::new();
    for spec in &requests {
        values.push(mean_coupling(&campaign.assemble(spec)?)?);
    }
    Ok(CouplingTable {
        title: "Ablation: mean BT class-A 4-chain coupling vs L2 capacity".to_string(),
        columns: l2_capacities
            .iter()
            .map(|c| format!("{} MiB", c / (1024 * 1024)))
            .collect(),
        rows: vec![CouplingRow {
            label: "mean coupling".to_string(),
            values,
        }],
    })
}

/// The analyses [`contention_sweep`] needs.
pub(crate) fn contention_requests(base: &MachineConfig, contentions: &[f64]) -> Vec<AnalysisSpec> {
    contentions
        .iter()
        .map(|&c| {
            let mut m = base.clone();
            m.net.contention = c;
            AnalysisSpec::new(Benchmark::Lu, Class::W, 8, 3).on(m)
        })
        .collect()
}

/// Network-contention sweep: LU's sensitivity to small-message
/// performance (paper §4.3) — mean 3-chain coupling value and
/// predictor error as the switch-contention coefficient grows.
pub(crate) fn contention_sweep(
    campaign: &Campaign,
    contentions: &[f64],
) -> KcResult<CouplingTable> {
    let requests = contention_requests(&campaign.runner().machine, contentions);
    let mut mean_c = Vec::new();
    let mut sum_err = Vec::new();
    let mut cpl_err = Vec::new();
    for spec in &requests {
        let analysis = campaign.assemble(spec)?;
        mean_c.push(mean_coupling(&analysis)?);
        let actual = analysis.actual().mean();
        let err = |p: f64| 100.0 * (p - actual).abs() / actual;
        sum_err.push(err(analysis.predict(Predictor::Summation)?));
        cpl_err.push(err(analysis.predict(Predictor::coupling(3))?));
    }
    Ok(CouplingTable {
        title: "Ablation: LU class W (8 procs) vs network contention".to_string(),
        columns: contentions.iter().map(|c| format!("c={c}")).collect(),
        rows: vec![
            CouplingRow {
                label: "mean 3-chain coupling".to_string(),
                values: mean_c,
            },
            CouplingRow {
                label: "summation rel. err %".to_string(),
                values: sum_err,
            },
            CouplingRow {
                label: "coupling rel. err %".to_string(),
                values: cpl_err,
            },
        ],
    })
}

/// The analyses [`noise_sweep`] needs.
pub(crate) fn noise_requests(base: &MachineConfig, floor_multipliers: &[f64]) -> Vec<AnalysisSpec> {
    let base_floor = MachineConfig::ibm_sp_p2sc().timer.noise_floor;
    floor_multipliers
        .iter()
        .map(|&mult| {
            let mut m = base.clone();
            m.timer.noise_floor = base_floor * mult;
            m.timer.noise_frac = 0.004;
            AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2).on(m)
        })
        .collect()
}

/// Timer-noise sweep: the class-S effect (paper §4.1.1) — prediction
/// errors of both methods as the measurement-noise floor grows.
pub(crate) fn noise_sweep(
    campaign: &Campaign,
    floor_multipliers: &[f64],
) -> KcResult<CouplingTable> {
    let requests = noise_requests(&campaign.runner().machine, floor_multipliers);
    let mut sum_err = Vec::new();
    let mut cpl_err = Vec::new();
    for spec in &requests {
        let analysis = campaign.assemble(spec)?;
        let actual = analysis.actual().mean();
        let err = |p: f64| 100.0 * (p - actual).abs() / actual;
        sum_err.push(err(analysis.predict(Predictor::Summation)?));
        cpl_err.push(err(analysis.predict(Predictor::coupling(2))?));
    }
    Ok(CouplingTable {
        title: "Ablation: BT class S (4 procs) prediction error vs timer-noise floor".to_string(),
        columns: floor_multipliers
            .iter()
            .map(|m| format!("{m}x floor"))
            .collect(),
        rows: vec![
            CouplingRow {
                label: "summation rel. err %".to_string(),
                values: sum_err,
            },
            CouplingRow {
                label: "coupling rel. err %".to_string(),
                values: cpl_err,
            },
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_length_sweep_runs_for_lu() {
        let campaign = Campaign::builder(crate::Runner::noise_free()).build();
        campaign
            .prefetch(&chain_length_requests(Benchmark::Lu, Class::S, 4))
            .unwrap();
        let t = chain_length_sweep(&campaign, Benchmark::Lu, Class::S, 4).unwrap();
        // summation + 4 chain lengths
        assert_eq!(t.rows.len(), 5);
        t.check();
        // full-length chains reproduce the bracketed loop; the
        // residual vs the free-running application is the bracket
        // cost, a few percent at the tiny class S
        let full = t.rows.last().unwrap().values[0];
        let summation = t.rows[0].values[0];
        assert!(
            full < 5.0,
            "full-chain prediction error should be small, got {full}%"
        );
        assert!(
            full < summation / 2.0,
            "full-chain must far outperform summation"
        );
    }
}
