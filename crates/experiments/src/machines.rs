//! Cross-machine study — the paper's opening motivation.
//!
//! §1: "models can be used to predict the relative performance of
//! different systems used to execute an application".  Here we run the
//! coupling methodology on two different simulated machines (the IBM
//! SP stand-in and an Ethernet commodity cluster) and check that the
//! *relative* performance it predicts — which machine is faster, and
//! by what factor — matches the measured ratio, even though the
//! absolute coupling values differ per machine (the regimes move with
//! the memory subsystem).
//!
//! Both machines' campaigns flow through the same shared cache: each
//! is an [`AnalysisSpec`] with a machine override, so their cells are
//! distinct by fingerprint but can be measured in one parallel
//! prefetch of [`comparison_requests`].

use crate::campaign::{AnalysisSpec, Campaign};
use kc_core::{CouplingRow, CouplingTable, KcResult, Predictor};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class};

/// The outcome of one machine's campaign.
#[derive(Clone, Debug)]
pub struct MachineOutcome {
    /// Machine name.
    pub machine: String,
    /// Measured application time.
    pub actual: f64,
    /// Coupling-predicted application time.
    pub predicted: f64,
    /// Mean coupling value at the studied chain length.
    pub mean_coupling: f64,
}

/// The two machines of the study, noise-free (the comparison is about
/// architecture, not measurement error).
fn study_machines() -> [MachineConfig; 2] {
    [
        MachineConfig::ibm_sp_p2sc().without_noise(),
        MachineConfig::ethernet_cluster().without_noise(),
    ]
}

/// The analyses [`machine_comparison`] needs.
pub fn comparison_requests(
    benchmark: Benchmark,
    class: Class,
    procs: usize,
    len: usize,
) -> Vec<AnalysisSpec> {
    study_machines()
        .into_iter()
        .map(|m| AnalysisSpec::new(benchmark, class, procs, len).on(m))
        .collect()
}

/// Run the campaign for one machine-override spec.
pub fn outcome_on(campaign: &Campaign, spec: &AnalysisSpec) -> KcResult<MachineOutcome> {
    let machine_name = spec
        .machine
        .as_ref()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| campaign.runner().machine.name.clone());
    let analysis = campaign.analysis(spec)?;
    let cs = analysis.couplings()?;
    Ok(MachineOutcome {
        machine: machine_name,
        actual: analysis.actual().mean(),
        predicted: analysis.predict(Predictor::coupling(spec.chain_len))?,
        mean_coupling: cs.iter().sum::<f64>() / cs.len() as f64,
    })
}

/// The cross-machine comparison table for one workload.
pub fn machine_comparison(
    campaign: &Campaign,
    benchmark: Benchmark,
    class: Class,
    procs: usize,
    len: usize,
) -> KcResult<(CouplingTable, Vec<MachineOutcome>)> {
    let outcomes = comparison_requests(benchmark, class, procs, len)
        .iter()
        .map(|spec| outcome_on(campaign, spec))
        .collect::<KcResult<Vec<_>>>()?;
    let columns = outcomes.iter().map(|o| o.machine.clone()).collect();
    let rows = vec![
        CouplingRow {
            label: "actual time (s)".to_string(),
            values: outcomes.iter().map(|o| o.actual).collect(),
        },
        CouplingRow {
            label: "coupling prediction (s)".to_string(),
            values: outcomes.iter().map(|o| o.predicted).collect(),
        },
        CouplingRow {
            label: format!("mean {len}-chain coupling"),
            values: outcomes.iter().map(|o| o.mean_coupling).collect(),
        },
    ];
    let table = CouplingTable {
        title: format!("Cross-machine study: {benchmark} class {class} on {procs} processors"),
        columns,
        rows,
    };
    Ok((table, outcomes))
}

/// Relative-performance check: (predicted ratio, actual ratio) of
/// machine 0 over machine 1.
pub fn relative_performance(outcomes: &[MachineOutcome]) -> (f64, f64) {
    assert!(outcomes.len() >= 2);
    (
        outcomes[0].predicted / outcomes[1].predicted,
        outcomes[0].actual / outcomes[1].actual,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;

    fn quick_campaign() -> Campaign {
        let mut runner = Runner::noise_free();
        runner.reps = 2;
        Campaign::builder(runner).build()
    }

    #[test]
    fn relative_performance_is_predicted_accurately() {
        let (_, outcomes) =
            machine_comparison(&quick_campaign(), Benchmark::Bt, Class::W, 9, 3).unwrap();
        let (pred_ratio, actual_ratio) = relative_performance(&outcomes);
        let err = (pred_ratio - actual_ratio).abs() / actual_ratio;
        assert!(
            err < 0.10,
            "relative-performance prediction off by {:.1}% (pred {pred_ratio:.3}, actual {actual_ratio:.3})",
            100.0 * err
        );
    }

    #[test]
    fn coupling_values_are_machine_dependent() {
        // the same workload couples differently on a machine with a
        // different memory subsystem — the paper's architectural claim
        let (_, outcomes) =
            machine_comparison(&quick_campaign(), Benchmark::Bt, Class::S, 4, 2).unwrap();
        let diff = (outcomes[0].mean_coupling - outcomes[1].mean_coupling).abs();
        assert!(
            diff > 0.01,
            "couplings should differ across machines: {} vs {}",
            outcomes[0].mean_coupling,
            outcomes[1].mean_coupling
        );
    }

    #[test]
    fn per_machine_predictions_stay_accurate() {
        let (_, outcomes) =
            machine_comparison(&quick_campaign(), Benchmark::Bt, Class::S, 4, 2).unwrap();
        for o in &outcomes {
            let err = (o.predicted - o.actual).abs() / o.actual;
            assert!(
                err < 0.20,
                "{}: prediction error {:.1}%",
                o.machine,
                100.0 * err
            );
        }
    }
}
