//! The experiment catalogue: every paper table and study this crate
//! regenerates, defined once.
//!
//! An [`Experiment`] is an id, the name of the artifact it writes and
//! a list of studies, each at the shape the evaluation uses
//! (benchmark, class, processor counts, chain lengths, sweep values).
//! The shape is written in this module's table and nowhere else: the
//! analyses to measure ([`Experiment::requests`]) and the tables to
//! build from them ([`Experiment::assemble`]) are both read from it,
//! so the `paper_tables` binary, the golden tests and the examples
//! cannot disagree about what an experiment is.  Each builder
//! assembles exactly the analyses its `*_requests` function returns,
//! from the cache only, so `requests` is the one statement of an
//! experiment's cells.  Adding one is one entry here plus its golden
//! snapshot.

use crate::campaign::{AnalysisSpec, Campaign, CampaignStats};
use crate::render::Artifact;
use crate::runner::{build_tables, table_requests};
use crate::{ablations, analytic, granularity, machines, reuse, transitions};
use kc_core::{KcError, KcResult};
use kc_machine::MachineConfig;
use kc_npb::Benchmark::{self, Bt, Lu, Sp};
use kc_npb::Class::{self, A, B, S, W};
use Study::*;

/// One study at one shape.  The variants mirror the table builders of
/// this crate; the fields are the builder's arguments.
enum Study {
    /// The data-set tables: `(title, benchmark, classes)` each.
    Classes(&'static [(&'static str, Benchmark, &'static [Class])]),
    /// A paper table pair ([`build_tables`]): benchmark, class,
    /// processor counts, chain lengths, coupling-table title prefix,
    /// prediction-table title prefix.
    Tables(
        Benchmark,
        Class,
        &'static [usize],
        &'static [usize],
        &'static str,
        &'static str,
    ),
    /// Mean BT pairwise coupling and cache regime, classes × procs.
    Transitions(&'static [Class], &'static [usize]),
    /// Prediction error at every chain length.
    ChainLength(Benchmark, Class, usize),
    /// Mean coupling against these L2 capacities (bytes).
    CacheCapacity(&'static [usize]),
    /// LU against these switch-contention coefficients.
    Contention(&'static [f64]),
    /// BT class S against these multiples of the timer-noise floor.
    Noise(&'static [f64]),
    /// Analytic kernel models composed at one chain length.
    Analytic(Benchmark, Class, &'static [usize], usize),
    /// Coefficient transfer across processor counts.
    ProcTransfer(Benchmark, Class, &'static [usize], usize),
    /// Coefficient transfer across classes at one processor count.
    ClassTransfer(Benchmark, &'static [Class], usize, usize),
    /// The SP stand-in against the Ethernet cluster.
    Machines(Benchmark, Class, usize, usize),
    /// Procedure-level against loop-level BT kernels.
    Granularity(Class, &'static [usize]),
}

/// One entry of the catalogue.
pub struct Experiment {
    /// The id the command line selects it by.
    pub id: &'static str,
    /// Name of the artifact it writes (`<name>.json`, …); `None` for an
    /// experiment that only prints.
    pub artifact: Option<&'static str>,
    studies: &'static [Study],
}

/// What one experiment produced.
pub struct Output {
    /// Free-form stdout lines, printed before the tables.
    pub notes: Vec<String>,
    /// The tables, if the experiment has any.
    pub artifact: Option<Artifact>,
}

const SQUARE_PROCS: &[usize] = &[4, 9, 16, 25];
const POW2_PROCS: &[usize] = &[4, 8, 16, 32];

/// Every experiment, in `paper_tables all` order.
static CATALOG: [Experiment; 16] = [
    Experiment {
        id: "classes",
        artifact: None,
        studies: &[Classes(&[
            ("Table 1: Data sets used with the NPB BT", Bt, &[S, W, A]),
            ("Table 5: Data sets used with the NPB SP", Sp, &[W, A, B]),
            ("Table 7: Data sets used with the NPB LU", Lu, &[W, A, B]),
        ])],
    },
    // BT: the chain length the paper found best for each class
    Experiment {
        id: "bt-s",
        artifact: Some("table2_bt_s"),
        studies: &[Tables(Bt, S, &[4, 9, 16], &[2], "Table 2a", "Table 2b")],
    },
    Experiment {
        id: "bt-w",
        artifact: Some("table3_bt_w"),
        studies: &[Tables(Bt, W, SQUARE_PROCS, &[3], "Table 3a", "Table 3b")],
    },
    Experiment {
        id: "bt-a",
        artifact: Some("table4_bt_a"),
        studies: &[Tables(Bt, A, SQUARE_PROCS, &[4], "Table 4a", "Table 4b")],
    },
    Experiment {
        id: "sp-w",
        artifact: Some("table6a_sp_w"),
        studies: &[Tables(
            Sp,
            W,
            SQUARE_PROCS,
            &[4, 5],
            "Table 6a supplement (the paper omits SP coupling values for brevity)",
            "Table 6a",
        )],
    },
    Experiment {
        id: "sp-a",
        artifact: Some("table6b_sp_a"),
        studies: &[Tables(
            Sp,
            A,
            SQUARE_PROCS,
            &[4, 5],
            "Table 6b supplement (the paper omits SP coupling values for brevity)",
            "Table 6b",
        )],
    },
    Experiment {
        id: "sp-b",
        artifact: Some("table6c_sp_b"),
        studies: &[Tables(
            Sp,
            B,
            SQUARE_PROCS,
            &[4, 5],
            "Table 6c supplement (the paper omits SP coupling values for brevity)",
            "Table 6c",
        )],
    },
    // LU requires powers of two
    Experiment {
        id: "lu-w",
        artifact: Some("table8a_lu_w"),
        studies: &[Tables(
            Lu,
            W,
            POW2_PROCS,
            &[3],
            "Table 8a supplement (the paper omits LU coupling values for brevity)",
            "Table 8a",
        )],
    },
    Experiment {
        id: "lu-a",
        artifact: Some("table8b_lu_a"),
        studies: &[Tables(
            Lu,
            A,
            POW2_PROCS,
            &[3],
            "Table 8b supplement (the paper omits LU coupling values for brevity)",
            "Table 8b",
        )],
    },
    Experiment {
        id: "lu-b",
        artifact: Some("table8c_lu_b"),
        studies: &[Tables(
            Lu,
            B,
            POW2_PROCS,
            &[3],
            "Table 8c supplement (the paper omits LU coupling values for brevity)",
            "Table 8c",
        )],
    },
    Experiment {
        id: "transitions",
        artifact: Some("transitions"),
        studies: &[Transitions(&[S, W, A], SQUARE_PROCS)],
    },
    Experiment {
        id: "ablations",
        artifact: Some("ablations"),
        studies: &[
            ChainLength(Bt, W, 9),
            CacheCapacity(&[1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20]),
            Contention(&[0.0, 0.01, 0.02, 0.05, 0.1]),
            Noise(&[0.0, 1.0, 4.0, 16.0]),
        ],
    },
    Experiment {
        id: "analytic",
        artifact: Some("analytic"),
        studies: &[
            Analytic(Bt, W, SQUARE_PROCS, 3),
            Analytic(Sp, A, SQUARE_PROCS, 5),
            Analytic(Lu, A, POW2_PROCS, 3),
        ],
    },
    Experiment {
        id: "reuse",
        artifact: Some("reuse"),
        studies: &[
            ProcTransfer(Bt, W, SQUARE_PROCS, 3),
            ClassTransfer(Bt, &[S, W, A], 16, 3),
            ProcTransfer(Lu, A, POW2_PROCS, 3),
        ],
    },
    Experiment {
        id: "machines",
        artifact: Some("machines"),
        studies: &[Machines(Bt, W, 9, 3), Machines(Lu, W, 8, 3)],
    },
    Experiment {
        id: "granularity",
        artifact: Some("granularity"),
        studies: &[Granularity(W, &[4, 9, 16])],
    },
];

/// Every experiment, in `paper_tables all` order.
pub fn all() -> &'static [Experiment] {
    &CATALOG
}

/// The experiment with this id.
pub fn get(id: &str) -> Option<&'static Experiment> {
    CATALOG.iter().find(|e| e.id == id)
}

impl Study {
    /// The analyses this study reads; `machine` is the campaign's.
    fn requests(&self, machine: &MachineConfig) -> Vec<AnalysisSpec> {
        match *self {
            Classes(_) => Vec::new(),
            Tables(b, class, procs, lens, ..) => table_requests(b, class, procs, lens),
            Transitions(classes, procs) => transitions::transition_requests(classes, procs),
            ChainLength(b, class, p) => ablations::chain_length_requests(b, class, p),
            CacheCapacity(caps) => ablations::cache_capacity_requests(machine, caps),
            Contention(values) => ablations::contention_requests(machine, values),
            Noise(mults) => ablations::noise_requests(machine, mults),
            Analytic(b, class, procs, len) => analytic::analytic_requests(b, class, procs, len),
            ProcTransfer(b, class, procs, len) => {
                reuse::proc_transfer_requests(b, class, procs, len)
            }
            ClassTransfer(b, classes, p, len) => reuse::class_transfer_requests(b, classes, p, len),
            Machines(b, class, p, len) => machines::comparison_requests(b, class, p, len),
            Granularity(class, procs) => granularity::granularity_requests(class, procs),
        }
    }

    /// Append this study's tables to `out`, and what it prints besides
    /// tables to `notes`, reading the analyses from `campaign`.
    fn assemble(
        &self,
        campaign: &Campaign,
        notes: &mut Vec<String>,
        out: &mut Artifact,
    ) -> KcResult<()> {
        let (couplings, predictions) = (&mut out.couplings, &mut out.predictions);
        match *self {
            Classes(tables) => notes.push(class_tables(tables)),
            Tables(b, class, procs, lens, coupling_title, prediction_title) => {
                let pair = build_tables(
                    campaign,
                    b,
                    class,
                    procs,
                    lens,
                    coupling_title,
                    prediction_title,
                )?;
                couplings.extend(pair.couplings);
                predictions.push(pair.predictions);
            }
            Transitions(classes, procs) => {
                couplings.push(transitions::transition_table(campaign, classes, procs)?);
                couplings.push(transitions::regime_table(campaign, classes, procs));
            }
            ChainLength(b, class, p) => {
                couplings.push(ablations::chain_length_sweep(campaign, b, class, p)?)
            }
            CacheCapacity(caps) => couplings.push(ablations::cache_capacity_sweep(campaign, caps)?),
            Contention(values) => couplings.push(ablations::contention_sweep(campaign, values)?),
            Noise(mults) => couplings.push(ablations::noise_sweep(campaign, mults)?),
            Analytic(b, class, procs, len) => {
                predictions.push(analytic::analytic_table(campaign, b, class, procs, len)?)
            }
            ProcTransfer(b, class, procs, len) => {
                couplings.push(reuse::proc_transfer_table(campaign, b, class, procs, len)?.0)
            }
            ClassTransfer(b, classes, p, len) => {
                couplings.push(reuse::class_transfer_table(campaign, b, classes, p, len)?.0)
            }
            Machines(b, class, p, len) => {
                let (table, outcomes) = machines::machine_comparison(campaign, b, class, p, len)?;
                let (predicted, actual) = machines::relative_performance(&outcomes);
                notes.push(format!(
                    "{b} {class}/{p}: predicted machine ratio {predicted:.3}, actual {actual:.3} \
                     ({:.1}% off)",
                    100.0 * (predicted - actual).abs() / actual
                ));
                couplings.push(table);
            }
            Granularity(class, procs) => {
                let (c, p) = granularity::granularity_tables(campaign, class, procs)?;
                couplings.push(c);
                predictions.push(p);
            }
        }
        Ok(())
    }
}

/// The data-set tables (paper Tables 1, 5 and 7) as text.
fn class_tables(tables: &[(&str, Benchmark, &[Class])]) -> String {
    let mut s = String::new();
    for &(title, benchmark, classes) in tables {
        s.push_str(title);
        s.push('\n');
        for &c in classes {
            let p = benchmark.problem(c);
            s.push_str(&format!(
                "  {c}   {n} x {n} x {n}   ({iters} loop iterations)\n",
                n = p.size,
                iters = p.iterations
            ));
        }
        s.push('\n');
    }
    s
}

impl Experiment {
    /// The analyses this experiment reads, for a campaign whose
    /// default machine is `machine` (the machine-varying sweeps derive
    /// their variants from it).
    pub fn requests(&self, machine: &MachineConfig) -> Vec<AnalysisSpec> {
        self.studies
            .iter()
            .flat_map(|s| s.requests(machine))
            .collect()
    }

    /// Build the output from the campaign's cache.  Reads exactly the
    /// analyses [`Experiment::requests`] names, which a prefetch must
    /// have brought in: a missing cell is a
    /// [`KcError::NotPrefetched`] naming it and this experiment, and
    /// nothing is measured.
    pub fn assemble(&self, campaign: &Campaign) -> KcResult<Output> {
        let mut notes = Vec::new();
        let mut tables = Artifact {
            id: self.artifact.unwrap_or_default().to_string(),
            couplings: Vec::new(),
            predictions: Vec::new(),
        };
        for study in self.studies {
            study
                .assemble(campaign, &mut notes, &mut tables)
                .map_err(|e| match e {
                    KcError::NotPrefetched { key, reader } => KcError::NotPrefetched {
                        key,
                        reader: format!("experiment `{}` ({reader})", self.id),
                    },
                    e => e,
                })?;
        }
        Ok(Output {
            notes,
            artifact: self.artifact.map(|_| tables),
        })
    }

    /// Measure and assemble: prefetch every analysis of the experiment
    /// as one deduplicated parallel batch — the one prefetch an
    /// experiment makes — then [`Experiment::assemble`].
    pub fn run(&self, campaign: &Campaign) -> KcResult<(Output, CampaignStats)> {
        let requests = self.requests(&campaign.runner().machine);
        // the data-set tables read no analysis: nothing to measure
        let stats = if requests.is_empty() {
            CampaignStats::default()
        } else {
            campaign.prefetch(&requests)?
        };
        Ok((self.assemble(campaign)?, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::MemorySink;
    use std::sync::Arc;

    #[test]
    fn assembling_without_a_prefetch_is_an_error_and_measures_nothing() {
        let sink = Arc::new(MemorySink::new());
        let campaign = Campaign::builder(crate::Runner::noise_free())
            .sink(sink.clone())
            .build();
        let Err(e) = get("bt-s").unwrap().assemble(&campaign) else {
            panic!("an unprefetched assembly must fail");
        };
        let KcError::NotPrefetched { key, .. } = &e else {
            panic!("expected NotPrefetched, got {e}");
        };
        let message = e.to_string();
        assert!(message.contains("experiment `bt-s`"), "{message}");
        assert!(message.contains(key.as_str()), "{message}");
        assert_eq!(campaign.cache_stats().executed, 0);
        assert!(!sink
            .events()
            .iter()
            .any(|e| matches!(e, kc_core::TelemetryEvent::SchedulerDrain { .. })));
    }
}
