//! Sweep-campaign assembly and curve extraction.
//!
//! A sweep turns a [`SweepSpec`] into one measurement campaign:
//! every `(machine, class, p)` triple is an [`AnalysisSpec`] with a
//! machine override, so each swept cell is a canonical
//! `MeasurementKey` cell in the shared store — exactly the cells
//! `paper_tables` would measure for the same configuration, deduped
//! by the campaign scheduler and byte-identical under any `--jobs`
//! setting.
//!
//! The sweep's output is a set of *curves*: for each machine and each
//! chain (window label), the coupling value `C_S` as a function of
//! working-set-per-rank, sorted by working set with deterministic
//! tie-breaks.  Change-point detection runs on these curves
//! ([`crate::detect`]), so sorting here is what makes detection
//! permutation-invariant over sweep order.

use crate::spec::{SpecError, SweepSpec};
use kc_core::KcResult;
use kc_experiments::transitions::{cache_regime, working_set_bytes};
use kc_experiments::{AnalysisSpec, Campaign};
use kc_machine::MachineConfig;
use serde::{Deserialize, Serialize};

/// One swept point on a chain's coupling curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Problem class letter.
    pub class: String,
    /// Processor count.
    pub procs: usize,
    /// Per-rank resident working set in bytes.
    pub working_set: u64,
    /// Coupling value `C_S` of this chain at this point.
    pub coupling: f64,
    /// Cache level the working set lands in on the *effective*
    /// (contention-derated) hierarchy: `0` = L1, …, `depth` = memory.
    pub cache_level: usize,
}

/// The coupling curve of one chain on one machine, ordered by working
/// set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChainCurve {
    /// Machine name.
    pub machine: String,
    /// Chain label, e.g. `{copy_faces, x_solve}`.
    pub chain: String,
    /// Cache depth of the machine (for naming levels; `cache_level ==
    /// levels` means memory).
    pub levels: usize,
    /// Points in ascending working-set order.
    pub points: Vec<CurvePoint>,
}

/// Sort curve points the canonical way: ascending working set, then
/// procs, then class letter.  Working set already encodes `(class,
/// p)` almost uniquely; the trailing keys pin ties so any enumeration
/// order of the sweep yields the same curve.
pub fn sort_points(points: &mut [CurvePoint]) {
    points.sort_by(|a, b| {
        a.working_set
            .cmp(&b.working_set)
            .then(a.procs.cmp(&b.procs))
            .then(a.class.cmp(&b.class))
    });
}

/// Every analysis the sweep needs: the `(machine, class, p)` cross
/// product as machine-override specs.
pub fn sweep_requests(spec: &SweepSpec) -> Result<Vec<AnalysisSpec>, SpecError> {
    let bench = spec.benchmark()?;
    let classes = spec.class_list()?;
    let machines = spec.machine_configs()?;
    let mut out = Vec::new();
    for machine in &machines {
        for &class in &classes {
            for &p in &spec.procs {
                out.push(AnalysisSpec::new(bench, class, p, spec.chain_len).on(machine.clone()));
            }
        }
    }
    Ok(out)
}

/// Assemble one curve per `(machine, chain)` from the analyses
/// [`sweep_requests`] names.  Those must have been brought in by a
/// [`Campaign::prefetch`]: assembly reads the campaign's cache only,
/// and a cell no prefetch measured is an error.  Curves come back
/// machine-major in spec order, chains in window order.
pub fn run_sweep(campaign: &Campaign, spec: &SweepSpec) -> KcResult<Vec<ChainCurve>> {
    let machines = spec.machine_configs().expect("validated spec");
    let per_machine = spec.class_list().expect("validated spec").len() * spec.procs.len();
    let mut requests = sweep_requests(spec).expect("validated spec").into_iter();

    let mut curves = Vec::new();
    for machine in &machines {
        // chain labels are a property of the benchmark's kernel set
        // and the chain length, identical across (class, p)
        let mut chains: Vec<String> = Vec::new();
        let mut chain_points: Vec<Vec<CurvePoint>> = Vec::new();
        for aspec in requests.by_ref().take(per_machine) {
            let analysis = campaign.assemble(&aspec)?;
            let couplings = analysis.couplings()?;
            if chains.is_empty() {
                chains = analysis
                    .windows()
                    .iter()
                    .map(|w| w.label(analysis.kernel_set()))
                    .collect();
                chain_points = vec![Vec::new(); chains.len()];
            }
            let (class, p) = (aspec.class, aspec.procs);
            let ws = working_set_bytes(aspec.benchmark, class, p);
            let level = cache_level_at(machine, p, ws);
            for (w, &c) in couplings.iter().enumerate() {
                chain_points[w].push(CurvePoint {
                    class: class.to_string(),
                    procs: p,
                    working_set: ws as u64,
                    coupling: c,
                    cache_level: level,
                });
            }
        }
        for (chain, mut points) in chains.into_iter().zip(chain_points) {
            sort_points(&mut points);
            curves.push(ChainCurve {
                machine: machine.name.clone(),
                chain,
                levels: machine.caches.len(),
                points,
            });
        }
    }
    Ok(curves)
}

/// Which cache level holds a working set of `ws` bytes for one rank
/// of a `p`-rank job on `machine`, accounting for shared-LLC
/// contention via [`MachineConfig::effective_for_ranks`].
pub fn cache_level_at(machine: &MachineConfig, p: usize, ws: usize) -> usize {
    cache_regime(&machine.effective_for_ranks(p), ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(ws: u64, procs: usize, class: &str) -> CurvePoint {
        CurvePoint {
            class: class.to_string(),
            procs,
            working_set: ws,
            coupling: 1.0,
            cache_level: 0,
        }
    }

    #[test]
    fn sorting_is_total_and_deterministic() {
        let mut a = vec![
            point(100, 4, "W"),
            point(50, 9, "S"),
            point(100, 2, "A"),
            point(100, 2, "B"),
        ];
        let mut b = a.clone();
        b.reverse();
        sort_points(&mut a);
        sort_points(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].working_set, 50);
        assert_eq!((a[1].procs, a[1].class.as_str()), (2, "A"));
        assert_eq!((a[2].procs, a[2].class.as_str()), (2, "B"));
        assert_eq!(a[3].procs, 4);
    }

    #[test]
    fn shared_llc_moves_the_cache_level() {
        let smp = MachineConfig::multicore_smp();
        let sp = MachineConfig::ibm_sp_p2sc();
        // 2 MiB per rank: fits the SP's 4 MiB L2 but not a quarter of
        // the SMP's shared LLC
        let ws = 2 * 1024 * 1024;
        assert_eq!(cache_level_at(&sp, 16, ws), 1);
        assert_eq!(cache_level_at(&smp, 16, ws), 2, "spills to memory");
        // a single rank owns the whole LLC
        assert_eq!(cache_level_at(&smp, 1, ws), 1);
    }

    #[test]
    fn sweep_requests_cover_the_cross_product() {
        let spec = SweepSpec {
            name: "t".into(),
            benchmark: "BT".into(),
            classes: vec!["S".into(), "W".into()],
            procs: vec![4, 9],
            chain_len: 2,
            machines: vec!["ibm-sp-p2sc".into(), "multicore-smp".into()],
            noise_free: true,
        };
        let reqs = sweep_requests(&spec).unwrap();
        assert_eq!(reqs.len(), 2 * 2 * 2);
        // machine overrides are set and noise-free
        for r in &reqs {
            let m = r.machine.as_ref().expect("machine override");
            assert_eq!(m.timer.noise_floor, 0.0);
        }
    }
}
