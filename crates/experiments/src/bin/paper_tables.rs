//! Regenerate the paper's tables from the command line.
//!
//! ```text
//! paper_tables [EXPERIMENT ...] [--noise-free] [--out DIR] [--reps N] [--store SPEC]
//!              [--trace FILE] [--metrics] [--history FILE]
//!              [--cost-model MODEL] [--jobs N]
//!
//! EXPERIMENT: classes | bt-s | bt-w | bt-a | sp-w | sp-a | sp-b |
//!             lu-w | lu-a | lu-b | transitions | ablations | all
//! ```
//!
//! All selected experiments (duplicates dropped, order preserved) run
//! as ONE measurement campaign over a shared cell cache, and the
//! campaign is *pipelined*: each experiment gets its own worker thread
//! that enqueues its cells on the campaign-global bounded scheduler
//! and assembles its tables as soon as they are ready, so assembly of
//! finished experiments overlaps the ongoing execute phase of the
//! others.  The scheduler's fixed worker pool (`--jobs N`, default:
//! available parallelism) caps how many cells execute concurrently no
//! matter how many experiments are selected; its queue collapses
//! cross-experiment duplicates, and per-cell noise seeding keeps every
//! table bit-identical under any `--jobs` value or schedule.  Output
//! is buffered and printed in experiment order.
//!
//! With `--out DIR`, each experiment additionally writes `<id>.txt`
//! and `<id>.json` artifacts into DIR (consumed by EXPERIMENTS.md).
//! With `--store SPEC`, raw cell measurements are loaded from and
//! saved to a `kc-prophesy` cell store, so a re-run (or a run with
//! more experiments) measures only what the store doesn't hold — and
//! each run appends its `RunSummary`, backend counters and measured
//! cell durations to the run-history sidecar `PATH.history.jsonl`
//! (`--history` overrides the sidecar path, or enables it without a
//! store).  SPEC is a bare PATH — the on-disk format is auto-detected
//! (a JSON file or a sharded binary directory) and a fresh store is
//! created as JSON — or `sharded:PATH` / `json:PATH` to force the
//! format (`kc_prophesy::StoreSpec`).  Table values are byte-identical
//! whichever format backs the run.
//!
//! With `--cost-model measured`, the execute phase is scheduled by the
//! real cell durations recorded in the history sidecar (or a prior
//! `--trace` file), longest first; unseen cells fall back to the
//! static estimate.  The cost model only permutes the schedule — table
//! values are unchanged.
//!
//! With `--trace FILE`, the campaign's telemetry stream (cell spans,
//! phases, end-of-run summary) is written as canonical JSON lines —
//! identical in content across thread counts, only durations vary.
//! With `--metrics`, the end-of-run aggregates (cache hit rate,
//! per-benchmark cell counts, parallel efficiency, slowest cells) are
//! printed to stderr.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::render::Artifact;
use kc_experiments::{
    ablations, analytic, bt, granularity, lu, machines, reuse, sp, transitions, AnalysisSpec,
    Campaign, CampaignArgs, CampaignStats, CostModel, MeasuredCost, Session, StaticCost,
};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class};
use std::path::PathBuf;
use std::sync::Arc;

const TRANSITION_CLASSES: [Class; 3] = [Class::S, Class::W, Class::A];
const TRANSITION_PROCS: [usize; 4] = [4, 9, 16, 25];
const L2_CAPS: [usize; 5] = [1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20];
const CONTENTIONS: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];
const NOISE_MULTS: [f64; 4] = [0.0, 1.0, 4.0, 16.0];
const GRANULARITY_PROCS: [usize; 3] = [4, 9, 16];

/// Every experiment id, in canonical (`all`) order.
const EXPERIMENTS: [&str; 16] = [
    "classes",
    "bt-s",
    "bt-w",
    "bt-a",
    "sp-w",
    "sp-a",
    "sp-b",
    "lu-w",
    "lu-a",
    "lu-b",
    "transitions",
    "ablations",
    "analytic",
    "reuse",
    "machines",
    "granularity",
];

/// Everything the command line configures.
#[derive(Default)]
pub(crate) struct Options {
    pub(crate) experiments: Vec<String>,
    pub(crate) campaign: CampaignArgs,
    out: Option<PathBuf>,
    measured_cost: bool,
}

impl AsMut<CampaignArgs> for Options {
    fn as_mut(&mut self) -> &mut CampaignArgs {
        &mut self.campaign
    }
}

fn flags() -> Vec<Flag<Options>> {
    vec![
        CampaignArgs::noise_free(),
        Flag::value(
            "--out",
            "DIR",
            "write <id>.txt / <id>.json artifacts into DIR",
            cli::path,
            |o, dir| o.out = Some(dir),
        ),
        CampaignArgs::reps(),
        CampaignArgs::store(),
        CampaignArgs::trace(),
        CampaignArgs::metrics(),
        CampaignArgs::history(),
        CampaignArgs::jobs(),
        Flag::value(
            "--cost-model",
            "MODEL",
            "schedule execution by 'static' estimates or 'measured' history durations",
            |name, v| match v {
                "static" => Ok(false),
                "measured" => Ok(true),
                other => Err(format!("bad {name} value '{other}'")),
            },
            |o, measured| o.measured_cost = measured,
        ),
    ]
}

fn usage() -> String {
    let header = format!(
        "usage: paper_tables [EXPERIMENT ...] [FLAG ...]\nexperiments: {}  all\n",
        EXPERIMENTS.join(" ")
    );
    cli::usage(&header, &flags(), 20)
}

/// Parse the command line: experiments are positional, `all` (or
/// none) selects every one, and repeats are dropped keeping
/// first-occurrence order — `paper_tables bt-s bt-s` must not spawn
/// duplicate workers or print the table twice.
pub(crate) fn parse_cli(args: &[String]) -> Result<Options, CliError> {
    let every = || EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let mut o = cli::parse(args, &flags(), |o: &mut Options, arg| {
        if arg == "all" {
            o.experiments = every();
        } else if EXPERIMENTS.contains(&arg) {
            o.experiments.push(arg.to_string());
        } else {
            return Err(format!("unknown experiment '{arg}'"));
        }
        Ok(())
    })?;
    if o.experiments.is_empty() {
        o.experiments = every();
    }
    let mut seen = std::collections::BTreeSet::new();
    o.experiments.retain(|e| seen.insert(e.clone()));
    Ok(o)
}

fn classes_tables() -> String {
    let mut s = String::new();
    for (name, b, classes) in [
        (
            "Table 1: Data sets used with the NPB BT",
            Benchmark::Bt,
            vec![Class::S, Class::W, Class::A],
        ),
        (
            "Table 5: Data sets used with the NPB SP",
            Benchmark::Sp,
            vec![Class::W, Class::A, Class::B],
        ),
        (
            "Table 7: Data sets used with the NPB LU",
            Benchmark::Lu,
            vec![Class::W, Class::A, Class::B],
        ),
    ] {
        s.push_str(name);
        s.push('\n');
        for c in classes {
            let p = b.problem(c);
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

/// The analyses one experiment id needs (empty for purely static ones).
fn requests_for(exp: &str, machine: &MachineConfig) -> Vec<AnalysisSpec> {
    match exp {
        "classes" => Vec::new(),
        "bt-s" => bt::table2_requests(),
        "bt-w" => bt::table3_requests(),
        "bt-a" => bt::table4_requests(),
        "sp-w" => sp::table6_requests(Class::W),
        "sp-a" => sp::table6_requests(Class::A),
        "sp-b" => sp::table6_requests(Class::B),
        "lu-w" => lu::table8_requests(Class::W),
        "lu-a" => lu::table8_requests(Class::A),
        "lu-b" => lu::table8_requests(Class::B),
        "transitions" => transitions::transition_requests(&TRANSITION_CLASSES, &TRANSITION_PROCS),
        "ablations" => {
            let mut r = ablations::chain_length_requests(Benchmark::Bt, Class::W, 9);
            r.extend(ablations::cache_capacity_requests(machine, &L2_CAPS));
            r.extend(ablations::contention_requests(machine, &CONTENTIONS));
            r.extend(ablations::noise_requests(machine, &NOISE_MULTS));
            r
        }
        "analytic" => {
            let mut r = analytic::analytic_requests(Benchmark::Bt, Class::W, &[4, 9, 16, 25], 3);
            r.extend(analytic::analytic_requests(
                Benchmark::Sp,
                Class::A,
                &[4, 9, 16, 25],
                5,
            ));
            r.extend(analytic::analytic_requests(
                Benchmark::Lu,
                Class::A,
                &[4, 8, 16, 32],
                3,
            ));
            r
        }
        "granularity" => granularity::granularity_requests(Class::W, &GRANULARITY_PROCS),
        "machines" => {
            let mut r = machines::comparison_requests(Benchmark::Bt, Class::W, 9, 3);
            r.extend(machines::comparison_requests(Benchmark::Lu, Class::W, 8, 3));
            r
        }
        "reuse" => {
            let mut r = reuse::proc_transfer_requests(Benchmark::Bt, Class::W, &[4, 9, 16, 25], 3);
            r.extend(reuse::class_transfer_requests(
                Benchmark::Bt,
                &[Class::S, Class::W, Class::A],
                16,
                3,
            ));
            r.extend(reuse::proc_transfer_requests(
                Benchmark::Lu,
                Class::A,
                &[4, 8, 16, 32],
                3,
            ));
            r
        }
        other => unreachable!("experiment '{other}' passed validation"),
    }
}

/// One experiment's finished output, buffered so the pipelined workers
/// can print in deterministic experiment order at the end.
struct ExperimentOutput {
    /// Free-form stdout lines (the classes tables, machine ratios).
    notes: Vec<String>,
    /// The renderable/writable artifact, if the experiment has one.
    artifact: Option<Artifact>,
}

/// Assemble one experiment's tables from the (warm) campaign cache.
fn assemble(exp: &str, campaign: &Campaign) -> ExperimentOutput {
    let mut notes = Vec::new();
    let artifact: Option<Artifact> = match exp {
        "classes" => {
            notes.push(classes_tables());
            None
        }
        "bt-s" => Some(Artifact::from_pair(
            "table2_bt_s",
            &bt::table2(campaign).unwrap(),
        )),
        "bt-w" => Some(Artifact::from_pair(
            "table3_bt_w",
            &bt::table3(campaign).unwrap(),
        )),
        "bt-a" => Some(Artifact::from_pair(
            "table4_bt_a",
            &bt::table4(campaign).unwrap(),
        )),
        "sp-w" => Some(Artifact::from_pair(
            "table6a_sp_w",
            &sp::table6(campaign, Class::W).unwrap(),
        )),
        "sp-a" => Some(Artifact::from_pair(
            "table6b_sp_a",
            &sp::table6(campaign, Class::A).unwrap(),
        )),
        "sp-b" => Some(Artifact::from_pair(
            "table6c_sp_b",
            &sp::table6(campaign, Class::B).unwrap(),
        )),
        "lu-w" => Some(Artifact::from_pair(
            "table8a_lu_w",
            &lu::table8(campaign, Class::W).unwrap(),
        )),
        "lu-a" => Some(Artifact::from_pair(
            "table8b_lu_a",
            &lu::table8(campaign, Class::A).unwrap(),
        )),
        "lu-b" => Some(Artifact::from_pair(
            "table8c_lu_b",
            &lu::table8(campaign, Class::B).unwrap(),
        )),
        "transitions" => Some(Artifact::from_couplings(
            "transitions",
            vec![
                transitions::transition_table(campaign, &TRANSITION_CLASSES, &TRANSITION_PROCS)
                    .unwrap(),
                transitions::regime_table(campaign, &TRANSITION_CLASSES, &TRANSITION_PROCS),
            ],
        )),
        "analytic" => {
            let mut a = Artifact::from_couplings("analytic", vec![]);
            a.predictions = vec![
                analytic::analytic_table(campaign, Benchmark::Bt, Class::W, &[4, 9, 16, 25], 3)
                    .unwrap(),
                analytic::analytic_table(campaign, Benchmark::Sp, Class::A, &[4, 9, 16, 25], 5)
                    .unwrap(),
                analytic::analytic_table(campaign, Benchmark::Lu, Class::A, &[4, 8, 16, 32], 3)
                    .unwrap(),
            ];
            Some(a)
        }
        "granularity" => {
            let (c, p) =
                granularity::granularity_tables(campaign, Class::W, &GRANULARITY_PROCS).unwrap();
            let mut a = Artifact::from_couplings("granularity", vec![c]);
            a.predictions = vec![p];
            Some(a)
        }
        "machines" => {
            let (t1, o1) =
                machines::machine_comparison(campaign, Benchmark::Bt, Class::W, 9, 3).unwrap();
            let (t2, o2) =
                machines::machine_comparison(campaign, Benchmark::Lu, Class::W, 8, 3).unwrap();
            for (label, o) in [("BT W/9", &o1), ("LU W/8", &o2)] {
                let (pr, ar) = machines::relative_performance(o);
                notes.push(format!(
                    "{label}: predicted machine ratio {pr:.3}, actual {ar:.3} ({:.1}% off)",
                    100.0 * (pr - ar).abs() / ar
                ));
            }
            Some(Artifact::from_couplings("machines", vec![t1, t2]))
        }
        "reuse" => {
            let (t1, _) =
                reuse::proc_transfer_table(campaign, Benchmark::Bt, Class::W, &[4, 9, 16, 25], 3)
                    .unwrap();
            let (t2, _) = reuse::class_transfer_table(
                campaign,
                Benchmark::Bt,
                &[Class::S, Class::W, Class::A],
                16,
                3,
            )
            .unwrap();
            let (t3, _) =
                reuse::proc_transfer_table(campaign, Benchmark::Lu, Class::A, &[4, 8, 16, 32], 3)
                    .unwrap();
            Some(Artifact::from_couplings("reuse", vec![t1, t2, t3]))
        }
        "ablations" => Some(Artifact::from_couplings(
            "ablations",
            vec![
                ablations::chain_length_sweep(campaign, Benchmark::Bt, Class::W, 9).unwrap(),
                ablations::cache_capacity_sweep(campaign, &L2_CAPS).unwrap(),
                ablations::contention_sweep(campaign, &CONTENTIONS).unwrap(),
                ablations::noise_sweep(campaign, &NOISE_MULTS).unwrap(),
            ],
        )),
        other => unreachable!("experiment '{other}' passed validation"),
    };
    ExperimentOutput { notes, artifact }
}

/// Build the scheduling cost model: measured durations from the
/// history sidecar (preferred) or a prior `--trace` file, else static.
fn build_cost_model(
    measured: bool,
    history_path: Option<&PathBuf>,
    trace_path: Option<&PathBuf>,
) -> Arc<dyn CostModel> {
    if !measured {
        return Arc::new(StaticCost);
    }
    let mut model = MeasuredCost::new();
    if let Some(p) = history_path {
        match MeasuredCost::from_history(p) {
            Ok(m) => model = m,
            Err(e) => eprintln!("[cost-model] cannot read history {}: {e}", p.display()),
        }
    }
    if model.is_empty() {
        if let Some(p) = trace_path.filter(|p| p.exists()) {
            match MeasuredCost::from_trace(p) {
                Ok(m) => model = m,
                Err(e) => eprintln!("[cost-model] cannot read trace {}: {e}", p.display()),
            }
        }
    }
    if model.is_empty() {
        eprintln!(
            "[cost-model] no recorded durations found; \
             all cells fall back to static estimates"
        );
    } else {
        eprintln!("[cost-model] measured durations for {} cells", model.len());
    }
    Arc::new(model)
}

/// Run the campaign and print the tables; an `Err` is a run-time
/// failure (exit 1).
fn run(mut opts: Options) -> Result<(), String> {
    // the sidecar rides along with --store unless --history overrides
    opts.campaign.default_history_to_sidecar();
    let cost_model = build_cost_model(
        opts.measured_cost,
        opts.campaign.history.as_ref(),
        opts.campaign.trace.as_ref(),
    );
    let session = Session::open(&opts.campaign, cost_model).unwrap_or_else(|e| cli::reject(e));
    let campaign: &Campaign = session.campaign();

    // Pipelined campaign: one thread per experiment, all feeding the
    // campaign-global bounded scheduler.  Each experiment enqueues its
    // own cells and blocks only on their completion, then assembles
    // its tables the moment they are ready — assembly of finished
    // experiments overlaps the ongoing execute phase of the rest,
    // while at most `jobs` cells execute at any instant and the queue
    // collapses cells two experiments race for.  Output is buffered
    // per experiment and printed in experiment order below.
    let outputs: Vec<(ExperimentOutput, CampaignStats, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = opts
            .experiments
            .iter()
            .map(|exp| {
                s.spawn(move || {
                    let started = std::time::Instant::now();
                    let requests = requests_for(exp, &campaign.runner().machine);
                    let stats = campaign.prefetch(&requests)?;
                    let output = assemble(exp, campaign);
                    Ok((output, stats, started.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect::<kc_core::KcResult<_>>()
    })
    .map_err(|e| format!("campaign measurement failed: {e}"))?;

    let mut merged = CampaignStats::default();
    for ((output, stats, secs), exp) in outputs.iter().zip(&opts.experiments) {
        merged.absorb(stats);
        for note in &output.notes {
            println!("{note}");
        }
        if let Some(a) = &output.artifact {
            println!("{}", a.render_text());
            if let Some(dir) = &opts.out {
                a.write_to(dir)
                    .map_err(|e| format!("cannot write artifacts to {}: {e}", dir.display()))?;
            }
            eprintln!("[{exp}] done in {secs:.1}s");
        }
    }
    eprintln!(
        "[campaign] {merged} (per-experiment sums over disjoint dispositions; \
         a cell shared across experiments counts once, for the experiment \
         that enqueued it; cost model: {}, jobs: {})",
        campaign.cost_model_name(),
        campaign.jobs()
    );
    session.finish("").map_err(|e| e.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = cli::exit_on(parse_cli(&args), usage);
    if let Err(e) = run(opts) {
        cli::fail(e);
    }
}
