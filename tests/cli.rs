//! Integration: the one command-line front end and the one campaign
//! session behind all six binaries.
//!
//! The binaries' own flag tables and parsers are compiled into this
//! test (`#[path]`), so every row below runs the code the shipped
//! binary runs: `kc_core::cli::parse` over that binary's table plus
//! its positional handling.  Exiting is `cli::exit_on`'s job; the
//! crates that own the binaries check it on the real executables
//! (`crates/*/tests/exit_codes.rs`, `crates/prophesy/tests/kc_store.rs`).

#[allow(dead_code)]
#[path = "../crates/loadgen/src/bin/kc_loadgen.rs"]
mod kc_loadgen_bin;
#[allow(dead_code)]
#[path = "../crates/regime/src/bin/kc_regime.rs"]
mod kc_regime_bin;
#[allow(dead_code)]
#[path = "../crates/experiments/src/bin/kc_served.rs"]
mod kc_served_bin;
#[allow(dead_code)]
#[path = "../crates/prophesy/src/bin/kc_store.rs"]
mod kc_store_bin;
#[allow(dead_code)]
#[path = "../crates/experiments/src/bin/kc_trace.rs"]
mod kc_trace_bin;
#[allow(dead_code)]
#[path = "../crates/experiments/src/bin/paper_tables.rs"]
mod paper_tables_bin;

use kernel_couplings::coupling::cli::CliError;
use kernel_couplings::experiments::{AnalysisSpec, CampaignArgs, Session};
use kernel_couplings::npb::{Benchmark, Class};
use kernel_couplings::prophesy::{CellBackend, ShardedStore, StoreFormat, StoreSpec};
use std::path::PathBuf;

/// The store-format alias this PR removed, spelled in two pieces so
/// the "gone everywhere" grep stays empty outside CHANGES.md.
const REMOVED_ALIAS: &str = concat!("--store", "-format");

/// The removed server batch-size flag, spelled in two pieces for the
/// same reason.
const REMOVED_BATCH_FLAG: &str = concat!("--max", "-batch");

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// One binary's parser with its options type erased, plus a valid
/// command line to append the argument under test to.
struct Bin {
    name: &'static str,
    parse: fn(&[String]) -> Result<(), CliError>,
    valid: &'static [&'static str],
    /// A flag of this binary that takes a value.
    value_flag: &'static str,
}

const BINS: [Bin; 6] = [
    Bin {
        name: "paper_tables",
        parse: |a| paper_tables_bin::parse_cli(a).map(drop),
        valid: &[],
        value_flag: "--out",
    },
    Bin {
        name: "kc_served",
        parse: |a| kc_served_bin::parse_cli(a).map(drop),
        valid: &[],
        value_flag: "--listen",
    },
    Bin {
        name: "kc-loadgen",
        parse: |a| kc_loadgen_bin::parse_cli(a).map(drop),
        valid: &[],
        value_flag: "--rps",
    },
    Bin {
        name: "kc_regime",
        parse: |a| kc_regime_bin::parse_cli(a).map(drop),
        valid: &["sweep", "--spec", "sweep.json"],
        value_flag: "--json",
    },
    Bin {
        name: "kc_store convert",
        parse: |a| kc_store_bin::parse_convert(a).map(drop),
        valid: &["src.json", "sharded:dst.kcs"],
        value_flag: "--shards",
    },
    Bin {
        name: "kc_trace",
        parse: |a| kc_trace_bin::parse_cli(a).map(drop),
        valid: &["render", "trace.jsonl"],
        value_flag: "-o",
    },
];

/// The campaign binaries, for the shared flag group's rows.
fn campaign_bins() -> impl Iterator<Item = &'static Bin> {
    BINS.iter().take(4)
}

fn run(bin: &Bin, extra: &[&str]) -> Result<(), CliError> {
    let mut args = argv(bin.valid);
    args.extend(argv(extra));
    (bin.parse)(&args)
}

#[track_caller]
fn assert_usage(bin: &Bin, extra: &[&str], needle: &str) {
    match run(bin, extra) {
        Err(CliError::Usage(msg)) if msg.contains(needle) => {}
        other => panic!(
            "{} {extra:?}: expected a usage error naming '{needle}', got {other:?}",
            bin.name
        ),
    }
}

#[test]
fn every_binary_accepts_its_valid_line_and_answers_help_anywhere() {
    for bin in &BINS {
        assert_eq!(run(bin, &[]), Ok(()), "{}", bin.name);
        for help in ["--help", "-h"] {
            assert_eq!(run(bin, &[help]), Err(CliError::Help), "{}", bin.name);
            // in front of everything, and after an error that comes first
            let mut front = argv(&[help]);
            front.extend(argv(bin.valid));
            assert_eq!((bin.parse)(&front), Err(CliError::Help), "{}", bin.name);
            assert_eq!(
                run(bin, &["--no-such-flag", help]),
                Err(CliError::Help),
                "{}",
                bin.name
            );
        }
    }
}

#[test]
fn unknown_flags_missing_values_and_removed_aliases_are_usage_errors() {
    for bin in &BINS {
        assert_usage(bin, &["--no-such-flag"], "unknown flag '--no-such-flag'");
        assert_usage(bin, &[bin.value_flag], "needs a value");
        // the deprecated aliases are gone, not silently accepted
        assert_usage(bin, &[REMOVED_ALIAS, "json"], "unknown flag '--store-");
        assert_usage(bin, &["--format", "json"], "unknown flag '--format'");
    }
}

#[test]
fn shared_flags_are_range_checked_in_every_binary_that_lists_them() {
    for bin in campaign_bins() {
        assert_usage(bin, &["--jobs", "0"], "--jobs must be at least 1");
        assert_usage(bin, &["--jobs", "many"], "bad --jobs value 'many'");
        assert_usage(bin, &["--reps", "x"], "bad --reps value 'x'");
        assert_usage(bin, &["--store", "sharded:"], "names no path");
        assert_eq!(
            run(bin, &["--jobs", "3", "--reps", "2", "--store", "sharded:c"]),
            Ok(())
        );
        // compaction is not a knob: its ratio is a constant of the store
        assert_usage(
            bin,
            &["--compact-ratio", "0.5"],
            "unknown flag '--compact-ratio'",
        );
    }
    for bin in BINS
        .iter()
        .filter(|b| ["kc_served", "kc-loadgen"].contains(&b.name))
    {
        assert_usage(bin, &["--max-inflight", "0"], "must be at least 1");
        // the batch cap is a constant of the server, not a knob
        assert_usage(
            bin,
            &[REMOVED_BATCH_FLAG, "4"],
            &format!("unknown flag '{REMOVED_BATCH_FLAG}'"),
        );
        assert_usage(bin, &["stray"], "unknown argument 'stray'");
    }
}

#[test]
fn a_repeated_flag_keeps_the_last_value() {
    let o = paper_tables_bin::parse_cli(&argv(&[
        "--jobs",
        "2",
        "--store",
        "a.json",
        "--jobs",
        "5",
        "--store",
        "sharded:b.kcs",
    ]))
    .unwrap();
    assert_eq!(o.campaign.jobs, Some(5));
    assert_eq!(
        o.campaign.store,
        Some(StoreSpec {
            path: PathBuf::from("b.kcs"),
            format: Some(StoreFormat::Sharded),
        })
    );
    let o =
        kc_served_bin::parse_cli(&argv(&["--max-inflight", "4", "--max-inflight", "9"])).unwrap();
    assert_eq!(o.serve.config().max_inflight, 9);
    assert_eq!(o.serve.config().max_batch, 64);
}

#[test]
fn paper_tables_experiments_dedup_and_expand_all() {
    let picked = |args: &[&str]| -> Vec<&str> {
        let options = paper_tables_bin::parse_cli(&argv(args)).unwrap();
        options.experiments.iter().map(|e| e.id).collect()
    };
    assert_eq!(
        picked(&["bt-s", "lu-a", "bt-s", "--noise-free", "lu-a"]),
        ["bt-s", "lu-a"]
    );
    let all = picked(&["all"]);
    assert_eq!(all.len(), 16);
    assert_eq!((all[0], all[15]), ("classes", "granularity"));
    assert_eq!(picked(&[]), all, "no experiment means every experiment");
    assert_eq!(
        picked(&["sp-w", "all"]),
        all,
        "'all' resets to canonical order"
    );
    assert_eq!(
        picked(&["all", "sp-w"]),
        all,
        "a repeat after 'all' is dropped"
    );
    assert_usage(&BINS[0], &["bt-x"], "unknown experiment 'bt-x'");
}

/// What follows `paper_tables` on a documented command line: cargo's
/// `--` separator dropped, cut at a shell comment or redirection.
/// `None` for a line that does not run the binary.
fn paper_tables_args(line: &str) -> Option<Vec<String>> {
    let mut tokens = line.split_whitespace().map(|t| t.trim_matches('`'));
    tokens.find(|t| t.ends_with("paper_tables"))?;
    Some(
        tokens
            .skip_while(|t| *t == "--")
            .take_while(|t| !t.starts_with('#') && !t.contains(['<', '>', '|']))
            .map(String::from)
            .collect(),
    )
}

/// The lines inside a markdown text's fenced code blocks, with shell
/// continuations (`\` at the end of a line) joined.
fn fenced_lines(markdown: &str) -> Vec<String> {
    let (mut fenced, mut lines, mut pending) = (false, Vec::new(), String::new());
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            match line.strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => lines.push(std::mem::take(&mut pending) + line),
            }
        }
    }
    lines
}

/// Docs that name things which do not exist: every `paper_tables`
/// command line in a fenced block of the user-facing docs, and every
/// regenerator of DESIGN §6's index, must parse with the binary's own
/// parser — and the index must cover every experiment.
#[test]
fn documented_paper_tables_command_lines_parse() {
    let read = |name: &str| {
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)).unwrap()
    };
    let parse = |doc: &str, line: &str| {
        let args = paper_tables_args(line)?;
        match paper_tables_bin::parse_cli(&args) {
            Ok(options) => Some(options.experiments),
            Err(e) => panic!("{doc}: `{line}` does not parse: {e:?}"),
        }
    };

    for doc in ["README.md", "EXPERIMENTS.md"] {
        let parsed = fenced_lines(&read(doc))
            .iter()
            .filter_map(|line| parse(doc, line))
            .count();
        assert!(parsed >= 2, "{doc}: found {parsed} paper_tables lines");
    }

    let design = read("DESIGN.md");
    let index = design
        .split("\n## ")
        .find(|section| section.starts_with("6. Experiment index"))
        .expect("DESIGN.md has its experiment index");
    let indexed: Vec<&str> = index
        .lines()
        .filter_map(|row| row.strip_suffix('|')?.rsplit('|').next())
        .filter_map(|regenerator| parse("DESIGN.md §6", regenerator))
        .flatten()
        .map(|e| e.id)
        .collect();
    let all = paper_tables_bin::parse_cli(&argv(&["all"])).unwrap();
    let all: Vec<&str> = all.experiments.iter().map(|e| e.id).collect();
    assert_eq!(indexed, all, "DESIGN.md §6 lists the catalogue, in order");
}

#[test]
fn kc_store_convert_takes_exactly_src_and_dst() {
    let c = kc_store_bin::parse_convert(&argv(&["a.json", "--shards", "4", "sharded:b"])).unwrap();
    assert_eq!(c.shards, 4);
    assert_eq!(c.stores[0], StoreSpec::new("a.json"));
    assert_eq!(c.stores[1].format, Some(StoreFormat::Sharded));
    let convert = &BINS[4];
    assert_usage(convert, &["third"], "convert needs SRC and DST");
    assert_usage(convert, &["--shards", "0"], "bad --shards value '0'");
    assert_eq!(
        kc_store_bin::parse_convert(&argv(&["only-src"])),
        Err(CliError::Usage("convert needs SRC and DST".to_string()))
    );
}

/// `inspect` opens a sharded store once, so the torn tail that open
/// truncated is the one it reports — and only that once.
#[test]
fn kc_store_inspect_reports_the_torn_tail_its_open_repaired() {
    let dir = temp_dir("inspect").join("cells.kcs");
    let store = ShardedStore::create(&dir, 1).unwrap();
    store.append_raw("BT|whole", &[1.0, 2.0]).unwrap();
    store.append_raw("BT|torn", &[3.0]).unwrap();
    store.flush().unwrap();
    drop(store);
    let segment = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("shard-000.seg"))
        .unwrap();
    let len = segment.metadata().unwrap().len();
    segment.set_len(len - 3).unwrap();

    let spec = StoreSpec::new(&dir);
    let report = kc_store_bin::inspect(&spec);
    for line in [
        "format:  sharded\n",
        "cells:   1\n",
        "shards:  1\n",
        "repaired: 32 torn-tail bytes truncated\n",
        "  shard   0: 1 cells\n",
    ] {
        assert!(report.contains(line), "no {line:?} in\n{report}");
    }
    assert!(
        !kc_store_bin::inspect(&spec).contains("repaired:"),
        "nothing left to repair on the second look"
    );
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

/// A store that lists fewer cells than its index holds is a failed
/// read, not a smaller store: `convert` and `inspect` must not copy or
/// count what they could not read.
#[test]
fn kc_store_refuses_a_listing_shorter_than_the_index() {
    let dir = temp_dir("short").join("cells.kcs");
    let store = ShardedStore::create(&dir, 2).unwrap();
    for i in 0..6 {
        store
            .append_raw(&format!("BT|cell{i}"), &[i as f64])
            .unwrap();
    }
    store.flush().unwrap();
    assert_eq!(kc_store_bin::read_all(&dir, &store).unwrap().len(), 6);

    let segment = dir.join("shard-000.seg");
    std::fs::remove_file(&segment).unwrap();
    std::fs::create_dir(&segment).unwrap();
    let err = kc_store_bin::read_all(&dir, &store).unwrap_err();
    assert!(err.contains(&dir.display().to_string()), "{err}");
    assert!(err.contains("of its 6 cells"), "{err}");
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn subcommand_binaries_check_their_command_and_operands() {
    let regime = kc_regime_bin::parse_cli;
    assert!(matches!(regime(&[]), Err(CliError::Usage(m)) if m == "a command is required"));
    assert!(matches!(regime(&argv(&["map"])), Err(CliError::Usage(m)) if m.contains("'sweep'")));
    assert!(
        matches!(regime(&argv(&["sweep"])), Err(CliError::Usage(m)) if m == "--spec is required")
    );

    let trace = kc_trace_bin::parse_cli;
    for out_flag in ["-o", "--out"] {
        let r = trace(&argv(&["render", "t.jsonl", out_flag, "t.svg"])).unwrap();
        assert_eq!(r.out, Some(PathBuf::from("t.svg")));
    }
    assert_usage(&BINS[5], &["second.jsonl"], "unexpected argument");
    assert!(matches!(trace(&argv(&["render"])), Err(CliError::Usage(m)) if m.contains("TRACE")));
    assert!(matches!(trace(&argv(&["draw"])), Err(CliError::Usage(m)) if m.contains("'draw'")));

    // `index` was a second spelling of `stat`
    assert_eq!(
        kc_store_bin::run(&argv(&["index", "cells.kcs"])),
        Err(CliError::Usage("unknown command 'index'".to_string()))
    );

    let loadgen = kc_loadgen_bin::parse_cli;
    assert!(matches!(
        loadgen(&argv(&["--connect", "h:1", "--store", "c.json"])),
        Err(CliError::Usage(m)) if m.contains("mutually exclusive")
    ));
    assert_eq!(loadgen(&argv(&["--rps", "50"])).unwrap().workload.rps, 50.0);
    // the bench-trajectory flag is gone, not silently accepted
    assert_usage(
        &BINS[2],
        &["--trajectory", "x"],
        "unknown flag '--trajectory'",
    );
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kc_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_format_clash_names_the_spec_not_a_removed_flag() {
    let dir = temp_dir("clash");
    let path = dir.join("cells.json");
    StoreSpec::new(&path).open().unwrap().flush().unwrap();
    let forced = StoreSpec {
        path,
        format: Some(StoreFormat::Sharded),
    };
    let err = forced.open().map(drop).unwrap_err().to_string();
    assert!(
        err.contains("is json, but the spec forces sharded"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_round_trip_fills_the_store_then_answers_from_it() {
    let dir = temp_dir("session");
    let store = dir.join("cells.kcs");
    let args = CampaignArgs {
        store: Some(StoreSpec {
            path: store.clone(),
            format: Some(StoreFormat::Sharded),
        }),
        noise_free: true,
        jobs: Some(2),
        ..CampaignArgs::default()
    };
    let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);

    let cold = Session::open(&args).unwrap();
    let stats = cold
        .campaign()
        .prefetch(std::slice::from_ref(&spec))
        .unwrap();
    assert!(stats.cells_executed > 0);
    cold.finish("").unwrap();
    assert!(store.join("kcstore.json").is_file(), "store not written");

    let warm = Session::open(&args).unwrap();
    warm.campaign()
        .prefetch(std::slice::from_ref(&spec))
        .unwrap();
    let cache = warm.campaign().cache_stats();
    assert_eq!(cache.executed, 0, "a warm store re-executes nothing");
    assert_eq!(cache.backend_hits, stats.cells_executed as u64);
    warm.finish("").unwrap();
    let sidecars: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".history.jsonl"))
        .collect();
    assert!(
        sidecars.is_empty(),
        "a run wrote a history file: {sidecars:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_open_and_finish_return_errors_instead_of_panicking() {
    let dir = temp_dir("failing");
    // a directory without a manifest is not a store
    let not_a_store = CampaignArgs {
        store: Some(StoreSpec::new(&dir)),
        ..CampaignArgs::default()
    };
    let err = Session::open(&not_a_store).map(drop).unwrap_err();
    assert!(err.starts_with("cannot open cell store"), "{err}");

    // the JSON store's flush target turns into a directory mid-run
    let path = dir.join("cells.json");
    let args = CampaignArgs {
        store: Some(StoreSpec::new(&path)),
        ..CampaignArgs::default()
    };
    let session = Session::open(&args).unwrap();
    std::fs::create_dir_all(&path).unwrap();
    let err = session.finish("").unwrap_err().to_string();
    assert!(err.starts_with("cannot save cell store"), "{err}");
    assert!(err.contains("cells.json"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
