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
//! more experiments) measures only what the store doesn't hold.  SPEC
//! is a bare PATH — the on-disk format is auto-detected (a JSON file
//! or a sharded binary directory) and a fresh store is created as
//! JSON — or `sharded:PATH` / `json:PATH` to force the format
//! (`kc_prophesy::StoreSpec`).  Table values are byte-identical
//! whichever format backs the run.
//!
//! With `--trace FILE`, the campaign's telemetry stream (cell spans,
//! phases, end-of-run summary) is written as canonical JSON lines —
//! identical in content across thread counts, only durations vary.
//! With `--metrics`, the end-of-run aggregates (cache hit rate,
//! per-benchmark cell counts, parallel efficiency, slowest cells) are
//! printed to stderr.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::catalog::{self, Experiment, Output};
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
            "write <id>.txt / <id>.json artifacts into DIR",
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
/// first-occurrence order — `paper_tables bt-s bt-s` must not spawn
/// duplicate workers or print the table twice.
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

    // Pipelined campaign: one thread per experiment, all feeding the
    // campaign-global bounded scheduler.  Each experiment enqueues its
    // own cells and blocks only on their completion, then assembles
    // its tables the moment they are ready — assembly of finished
    // experiments overlaps the ongoing execute phase of the rest,
    // while at most `jobs` cells execute at any instant and the queue
    // collapses cells two experiments race for.  Output is buffered
    // per experiment and printed in experiment order below.
    let outputs: Vec<(Output, CampaignStats, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = opts
            .experiments
            .iter()
            .map(|exp| {
                s.spawn(move || {
                    let started = std::time::Instant::now();
                    let (output, stats) = exp.run(campaign)?;
                    Ok((output, stats, started.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect::<kc_core::KcResult<_>>()
    })
    .map_err(|e| format!("campaign failed: {e}"))?;

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
            eprintln!("[{}] done in {secs:.1}s", exp.id);
        }
    }
    eprintln!(
        "[campaign] {merged} (per-experiment sums over disjoint dispositions; \
         a cell shared across experiments counts once, for the experiment \
         that enqueued it; jobs: {})",
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
