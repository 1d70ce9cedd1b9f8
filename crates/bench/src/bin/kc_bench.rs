//! `kc-bench` — CLI over the bench trajectories.
//!
//! ```text
//! kc-bench diff <dir-a> <dir-b> [--threshold PCT] [--min-secs S]
//!               [--trace-dir DIR]
//! ```
//!
//! Compares two `KC_BENCH_TRAJECTORY` directories cell by cell and
//! lists every cell whose simulation time regressed by more than
//! `--threshold` percent (default 10) and at least `--min-secs`
//! absolute seconds (default 0.001 — sub-millisecond cells jitter).
//! With `--trace-dir` each regressed bench links its rendered
//! `--trace` timeline SVG (if one is in the directory), so the report
//! points straight at the span-level view of the slow run.
//! Exits 1 when any cell regressed, 2 on usage errors, 0 otherwise.

use kc_bench::trajectory::{diff_dirs, trace_svg_for, DirDiff};
use kc_core::cli::{self, CliError, Flag};
use std::path::PathBuf;

const USAGE_HEADER: &str =
    "usage: kc-bench diff <dir-a> <dir-b> [--threshold PCT] [--min-secs S] [--trace-dir DIR]\n\
     \n\
     compares the BENCH_*.json trajectories of two KC_BENCH_TRAJECTORY\n\
     directories (matched by file name) and lists cells whose simulation\n\
     time regressed beyond the threshold; exits 1 on any regression\n\
     \n";

/// What `diff`'s arguments configure.
pub(crate) struct DiffArgs {
    pub(crate) dirs: Vec<PathBuf>,
    pub(crate) threshold_pct: f64,
    min_secs: f64,
    trace_dir: Option<PathBuf>,
}

impl Default for DiffArgs {
    fn default() -> Self {
        Self {
            dirs: Vec::new(),
            threshold_pct: 10.0,
            min_secs: 0.001,
            trace_dir: None,
        }
    }
}

fn flags() -> [Flag<DiffArgs>; 3] {
    [
        Flag::value(
            "--threshold",
            "PCT",
            "relative growth a cell must exceed to count (default 10)",
            cli::number,
            |o, pct| o.threshold_pct = pct,
        ),
        Flag::value(
            "--min-secs",
            "S",
            "absolute growth floor, seconds (default 0.001)",
            cli::number,
            |o, secs| o.min_secs = secs,
        ),
        Flag::value(
            "--trace-dir",
            "DIR",
            "link regressed benches to their rendered --trace timeline SVGs \
             (BENCH_<name>.svg or <name>.svg in DIR)",
            cli::path,
            |o, dir| o.trace_dir = Some(dir),
        ),
    ]
}

pub(crate) fn parse_cli(args: &[String]) -> Result<DiffArgs, CliError> {
    let (command, rest) = cli::subcommand(args)?;
    if command != "diff" {
        return Err(CliError::Usage(format!("unknown subcommand '{command}'")));
    }
    let diff = cli::parse(rest, &flags(), |o: &mut DiffArgs, dir| {
        o.dirs.push(PathBuf::from(dir));
        Ok(())
    })?;
    if diff.dirs.len() != 2 {
        return Err(CliError::Usage(format!(
            "diff needs exactly two directories, got {}",
            diff.dirs.len()
        )));
    }
    Ok(diff)
}

fn print_diff(d: &DirDiff, threshold_pct: f64, trace_dir: Option<&std::path::Path>) {
    for name in &d.only_before {
        println!("BENCH {name}: only in the before directory (removed)");
    }
    for name in &d.only_after {
        println!("BENCH {name}: only in the after directory (no baseline)");
    }
    for diff in &d.diffs {
        println!(
            "BENCH {}: {} regressed, {} improved, {} unchanged, {} added, {} removed \
             (threshold {threshold_pct}%)",
            diff.name,
            diff.regressions.len(),
            diff.improved,
            diff.unchanged,
            diff.added,
            diff.removed,
        );
        for r in &diff.regressions {
            println!(
                "  {:>+7.1}%  {:.4}s -> {:.4}s  {}",
                r.change_pct(),
                r.before_secs,
                r.after_secs,
                r.key
            );
        }
        if diff.has_regressions() {
            if let Some(dir) = trace_dir {
                match trace_svg_for(dir, &diff.name) {
                    Some(svg) => println!("  trace: {}", svg.display()),
                    None => println!("  trace: none rendered in {}", dir.display()),
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || cli::usage(USAGE_HEADER, &flags(), 18);
    let a = cli::exit_on(parse_cli(&args), usage);
    let d = diff_dirs(&a.dirs[0], &a.dirs[1], a.threshold_pct, a.min_secs)
        .unwrap_or_else(|e| cli::reject(format!("cannot read trajectories: {e}")));
    print_diff(&d, a.threshold_pct, a.trace_dir.as_deref());
    if d.has_regressions() {
        let total: usize = d.diffs.iter().map(|t| t.regressions.len()).sum();
        eprintln!("{total} cell(s) regressed");
        std::process::exit(1);
    }
    println!("no regressions");
}
