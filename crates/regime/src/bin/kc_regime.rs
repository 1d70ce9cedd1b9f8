//! Explore coupling regimes from the command line.
//!
//! ```text
//! kc_regime sweep --spec FILE [--store SPEC] [--jobs N] [--reps N]
//!                 [--json FILE]
//! ```
//!
//! Runs the sweep a [`SweepSpec`] describes as one measurement
//! campaign (shared cell cache, deduped, `--jobs`-wide scheduler),
//! detects regime boundaries on every chain's coupling curve, and
//! prints the regime map to stdout.  With `--store` the swept cells
//! load from / persist to a `kc-prophesy` cell store — the same cells
//! `paper_tables` uses, so a sweep warms the table runs and vice
//! versa.  With `--json FILE` the map is also written as canonical
//! JSON (the format `artifacts/golden/regime_map.json` snapshots).
//!
//! Stdout is byte-identical across `--jobs` settings and repeat runs;
//! campaign statistics go to stderr.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::{CampaignArgs, Session};
use kc_regime::{build_map, run_sweep, sweep_requests, DetectParams, SweepSpec};
use std::path::PathBuf;

#[derive(Default)]
pub(crate) struct Options {
    spec: PathBuf,
    pub(crate) campaign: CampaignArgs,
    json: Option<PathBuf>,
}

impl AsMut<CampaignArgs> for Options {
    fn as_mut(&mut self) -> &mut CampaignArgs {
        &mut self.campaign
    }
}

fn flags() -> Vec<Flag<Options>> {
    vec![
        Flag::value(
            "--spec",
            "FILE",
            "sweep spec (JSON: name, benchmark, classes, procs, chain_len, machines, noise_free)",
            cli::path,
            |o, file| o.spec = file,
        ),
        CampaignArgs::store(),
        CampaignArgs::jobs(),
        CampaignArgs::reps(),
        Flag::value(
            "--json",
            "FILE",
            "also write the regime map as canonical JSON",
            cli::path,
            |o, file| o.json = Some(file),
        ),
    ]
}

fn usage() -> String {
    cli::usage(
        "usage: kc_regime sweep --spec FILE [FLAG ...]\n",
        &flags(),
        22,
    )
}

pub(crate) fn parse_cli(args: &[String]) -> Result<Options, CliError> {
    let (command, rest) = cli::subcommand(args)?;
    if command != "sweep" {
        return Err(CliError::Usage(
            "expected the 'sweep' subcommand".to_string(),
        ));
    }
    let opts = cli::parse(rest, &flags(), cli::no_positional)?;
    if opts.spec.as_os_str().is_empty() {
        return Err(CliError::Usage("--spec is required".to_string()));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = cli::exit_on(parse_cli(&args), usage);

    // a spec that does not load or expand is a spec error, like a
    // store that does not open
    let spec = SweepSpec::load(&opts.spec).unwrap_or_else(|e| cli::reject(e));
    let requests = sweep_requests(&spec).unwrap_or_else(|e| cli::reject(e));
    opts.campaign.noise_free = spec.noise_free;
    let session = Session::open(&opts.campaign).unwrap_or_else(|e| cli::reject(e));
    let campaign = session.campaign().clone();

    let stats = campaign
        .prefetch(&requests)
        .unwrap_or_else(|e| cli::fail(format!("sweep measurement failed: {e}")));
    let curves = run_sweep(&campaign, &spec)
        .unwrap_or_else(|e| cli::fail(format!("curve assembly failed: {e}")));
    let map = build_map(
        &spec.name,
        &spec.benchmark,
        spec.chain_len,
        &curves,
        &DetectParams::default(),
    );
    if let Err(e) = session.finish("") {
        cli::fail(e);
    }

    print!("{}", map.render());
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, map.to_json_pretty()) {
            cli::fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    eprintln!(
        "[sweep] {} analyses, {} cells executed, {} cache hits, {} backend hits",
        requests.len(),
        stats.cells_executed,
        stats.cache_hits,
        stats.backend_hits
    );
}
