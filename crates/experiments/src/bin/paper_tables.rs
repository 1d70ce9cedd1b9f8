//! Regenerate the paper's tables from the command line.
//!
//! ```text
//! paper_tables [EXPERIMENT ...] [--noise-free] [--out DIR] [--reps N] [--store SPEC]
//!              [--trace FILE] [--metrics] [--jobs N]
//!
//! EXPERIMENT: an id of `kc_experiments::catalog` (classes, bt-s, …,
//!             granularity; `--help` lists them) or `all`
//! ```
//!
//! All selected experiments (duplicates dropped, order preserved) run
//! as ONE measurement campaign over a shared cell cache: the union of
//! their analyses is prefetched once — every distinct cell executed
//! once, longest first, on the scheduler's fixed worker pool (`--jobs
//! N`, default: available parallelism) — and then each experiment
//! assembles its tables from the cache, in order, on the main thread.
//! Per-cell noise seeding keeps every table bit-identical under any
//! `--jobs` value.
//!
//! With `--out DIR`, each experiment that has tables additionally
//! writes `<id>.txt`, `<id>.json` and `<id>.csv` into DIR, where
//! `<id>` is its catalogue artifact name (consumed by EXPERIMENTS.md).
//! With `--store SPEC`, raw cell measurements are loaded from and
//! saved to a `kc-prophesy` cell store, so a re-run (or a run with
//! more experiments) measures only what the store doesn't hold.  SPEC
//! is a bare PATH — the on-disk format is auto-detected (a JSON file
//! or a sharded binary directory) and a fresh store is created as
//! JSON — or `sharded:PATH` / `json:PATH` to force the format
//! (`kc_prophesy::StoreSpec`).  Table values are byte-identical
//! whichever format backs the run.
//!
//! With `--trace FILE`, the campaign's telemetry stream (cell spans,
//! phases, end-of-run summary) is written as canonical JSON lines.
//! Phases never interleave, and two traces of one selection are
//! identical after `canonicalize` + `redacted` whatever `--jobs` is
//! (`tests/tables_trace.rs`).
//! With `--metrics`, the end-of-run aggregates (cache hit rate,
//! per-benchmark cell counts, parallel efficiency, slowest cells) are
//! printed to stderr.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::catalog::{self, Experiment};
use kc_experiments::{Campaign, CampaignArgs, CampaignStats, Session};
use std::path::PathBuf;

/// Everything the command line configures.
#[derive(Default)]
pub(crate) struct Options {
    pub(crate) experiments: Vec<&'static Experiment>,
    pub(crate) campaign: CampaignArgs,
    out: Option<PathBuf>,
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
            "write <id>.txt / .json / .csv artifacts into DIR",
            cli::path,
            |o, dir| o.out = Some(dir),
        ),
        CampaignArgs::reps(),
        CampaignArgs::store(),
        CampaignArgs::trace(),
        CampaignArgs::metrics(),
        CampaignArgs::jobs(),
    ]
}

fn usage() -> String {
    let ids: Vec<&str> = catalog::all().iter().map(|e| e.id).collect();
    let header = format!(
        "usage: paper_tables [EXPERIMENT ...] [FLAG ...]\nexperiments: {}  all\n",
        ids.join(" ")
    );
    cli::usage(&header, &flags(), 20)
}

/// Parse the command line: experiments are positional, `all` (or
/// none) selects every one, and repeats are dropped keeping
/// first-occurrence order — `paper_tables bt-s bt-s` must not print
/// the table twice.
pub(crate) fn parse_cli(args: &[String]) -> Result<Options, CliError> {
    let every = || catalog::all().iter().collect();
    let mut o = cli::parse(args, &flags(), |o: &mut Options, arg| {
        if arg == "all" {
            o.experiments = every();
        } else {
            let exp = catalog::get(arg).ok_or_else(|| format!("unknown experiment '{arg}'"))?;
            o.experiments.push(exp);
        }
        Ok(())
    })?;
    if o.experiments.is_empty() {
        o.experiments = every();
    }
    let mut seen = std::collections::BTreeSet::new();
    o.experiments.retain(|e| seen.insert(e.id));
    Ok(o)
}

/// Run the campaign and print the tables; an `Err` is a run-time
/// failure (exit 1).
fn run(opts: Options) -> Result<(), String> {
    let session = Session::open(&opts.campaign).unwrap_or_else(|e| cli::reject(e));
    let campaign: &Campaign = session.campaign();

    // One prefetch over every selected experiment's analyses, then
    // assembly from the warm cache in catalogue order.
    let requests: Vec<_> = opts
        .experiments
        .iter()
        .flat_map(|exp| exp.requests(&campaign.runner().machine))
        .collect();
    // the data-set tables read no analysis: nothing to measure
    let stats = if requests.is_empty() {
        CampaignStats::default()
    } else {
        campaign
            .prefetch(&requests)
            .map_err(|e| format!("campaign failed: {e}"))?
    };
    for exp in &opts.experiments {
        let output = exp
            .assemble(campaign)
            .map_err(|e| format!("campaign failed: {e}"))?;
        for note in &output.notes {
            println!("{note}");
        }
        if let Some(a) = &output.artifact {
            println!("{}", a.render_text());
            if let Some(dir) = &opts.out {
                a.write_to(dir)
                    .map_err(|e| format!("cannot write artifacts to {}: {e}", dir.display()))?;
            }
        }
    }
    eprintln!("[campaign] {stats} (jobs: {})", campaign.jobs());
    session.finish("").map_err(|e| e.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = cli::exit_on(parse_cli(&args), usage);
    if let Err(e) = run(opts) {
        cli::fail(e);
    }
}
