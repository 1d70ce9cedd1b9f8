//! `kc_store` — cell-store maintenance from the command line.
//!
//! ```text
//! kc_store convert SRC DST [--shards N]
//! kc_store inspect SPEC
//! kc_store stat PATH
//! kc_store compact PATH
//! ```
//!
//! Store arguments are `kc_prophesy::StoreSpec`s: a bare PATH
//! (format auto-detected) or `sharded:PATH` / `json:PATH` to force
//! one.  `convert` copies every cell from one store into a freshly
//! created one (refusing to overwrite an existing DST).  The target
//! format is taken from DST's spec prefix, or inferred as the opposite
//! of SRC's — converting is almost always a json↔sharded move.  Samples travel
//! as raw `f64` values through both formats, so convert is lossless:
//! `json → sharded → json` reproduces the original file byte for
//! byte.
//!
//! `inspect` prints a store's format, cell and sample counts, and
//! per-shard layout for sharded stores.  `stat` prints a sharded
//! store's per-shard frame counts, live cells and superseded ratios.
//! `compact` rewrites a sharded store's segments with one record per
//! live cell, dropping superseded appends.

use kc_core::cli::{self, fail, CliError, Flag};
use kc_prophesy::{detect_format, CellBackend, ShardedStore, StoreFormat, StoreSpec};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

const USAGE: &str = "usage: kc_store COMMAND ...\n\
     commands:\n\
     \x20 convert SRC DST [--shards N]\n\
     \x20     copy every cell of the store at SRC into a new store at DST;\n\
     \x20     SRC/DST are PATH or 'sharded:PATH' / 'json:PATH' specs\n\
     \x20     (default DST format: the opposite of SRC's),\n\
     \x20     --shards N sets the segment count of a sharded DST\n\
     \x20 inspect SPEC\n\
     \x20     print format, cell/sample counts and shard layout\n\
     \x20 stat PATH\n\
     \x20     print a sharded store's per-shard frame counts, live cells\n\
     \x20     and superseded ratios\n\
     \x20 compact PATH\n\
     \x20     drop superseded records from a sharded store's segments\n";

/// Open an existing store or bail out (never creates).  A spec that
/// forces a format acts as an assertion against what is on disk.
fn open_existing(spec: &StoreSpec) -> Arc<dyn CellBackend> {
    if detect_format(&spec.path).is_none() {
        fail(format!("no cell store at {}", spec.path.display()));
    }
    spec.open()
        .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", spec.path.display())))
}

/// What `convert`'s arguments configure.
#[derive(Debug, PartialEq)]
pub(crate) struct Convert {
    pub(crate) stores: Vec<StoreSpec>,
    pub(crate) shards: u32,
}

impl Default for Convert {
    fn default() -> Self {
        Self {
            stores: Vec::new(),
            shards: ShardedStore::DEFAULT_SHARDS,
        }
    }
}

pub(crate) fn parse_convert(args: &[String]) -> Result<Convert, CliError> {
    let flags = [Flag::value(
        "--shards",
        "N",
        "segment count of a sharded DST",
        |name, v| match cli::number(name, v)? {
            0 => Err(format!("bad {name} value '{v}'")),
            n => Ok(n),
        },
        |o: &mut Convert, n| o.shards = n,
    )];
    let convert = cli::parse(args, &flags, |o, arg| {
        o.stores.push(arg.parse()?);
        Ok(())
    })?;
    if convert.stores.len() != 2 {
        return Err(CliError::Usage("convert needs SRC and DST".to_string()));
    }
    Ok(convert)
}

fn convert(Convert { stores, shards }: Convert) {
    let [src, dst] = <[StoreSpec; 2]>::try_from(stores).expect("parse_convert checked the count");
    if detect_format(&dst.path).is_some() {
        fail(format!(
            "{} already holds a store; convert refuses to overwrite",
            dst.path.display()
        ));
    }
    let source = open_existing(&src);
    let target_format = dst.format.unwrap_or(match source.format() {
        StoreFormat::Json => StoreFormat::Sharded,
        StoreFormat::Sharded => StoreFormat::Json,
    });
    let dst = dst.path;
    let target: Arc<dyn CellBackend> = match target_format {
        StoreFormat::Sharded => Arc::new(
            ShardedStore::create(&dst, shards)
                .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dst.display()))),
        ),
        StoreFormat::Json => StoreSpec {
            path: dst.clone(),
            format: Some(StoreFormat::Json),
        }
        .open()
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dst.display()))),
    };
    let entries = read_all(&src.path, &*source).unwrap_or_else(|e| fail(e));
    let cells = entries.len();
    for (key, samples) in entries {
        target
            .append_raw(&key, &samples)
            .unwrap_or_else(|e| fail(format!("append to {} failed: {e}", dst.display())));
    }
    target
        .flush()
        .unwrap_or_else(|e| fail(format!("flush of {} failed: {e}", dst.display())));
    println!(
        "converted {cells} cells: {} ({}) -> {} ({target_format})",
        src.path.display(),
        source.format(),
        dst.display()
    );
}

/// Every cell of `store`, or an error naming it when the read came
/// back short.  `CellBackend::entries` has no error channel: a store
/// whose segment read fails reports the failure to stderr and lists
/// nothing, so the listing is checked against `len`, which counts
/// the index and does no I/O.
pub(crate) fn read_all(
    path: &Path,
    store: &dyn CellBackend,
) -> Result<Vec<(String, Vec<f64>)>, String> {
    let entries = store.entries();
    let expected = store.len();
    if entries.len() < expected {
        return Err(format!(
            "cannot read {}: listed {} of its {expected} cells",
            path.display(),
            entries.len()
        ));
    }
    Ok(entries)
}

/// The lines every format's `inspect` report starts with.
fn summary(path: &Path, store: &dyn CellBackend) -> String {
    let entries = read_all(path, store).unwrap_or_else(|e| fail(e));
    let samples: usize = entries.iter().map(|(_, s)| s.len()).sum();
    format!(
        "path:    {}\nformat:  {}\ncells:   {}\nsamples: {samples}\n",
        path.display(),
        store.format(),
        entries.len()
    )
}

/// `inspect`'s report.  A sharded store is opened once, through its
/// own type: the handle whose open truncated a torn tail is the one
/// that reports it.
pub(crate) fn inspect(spec: &StoreSpec) -> String {
    let path = spec.path.as_path();
    if detect_format(path) != Some(StoreFormat::Sharded) || spec.format == Some(StoreFormat::Json) {
        // a JSON store — or no store, or a format clash for open to name
        return summary(path, &*open_existing(spec));
    }
    let store = ShardedStore::open(path)
        .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", path.display())));
    let mut out = summary(path, &store);
    let _ = writeln!(out, "shards:  {}", store.shards());
    if store.repaired_bytes() > 0 {
        let _ = writeln!(
            out,
            "repaired: {} torn-tail bytes truncated",
            store.repaired_bytes()
        );
    }
    for stat in store.segment_stats() {
        let _ = writeln!(out, "  shard {:3}: {} cells", stat.shard, stat.live);
    }
    out
}

fn stat(path: &Path) {
    if detect_format(path) != Some(StoreFormat::Sharded) {
        fail(format!(
            "{} is not a sharded store (stat reads segment indexes)",
            path.display()
        ));
    }
    let store = ShardedStore::open(path)
        .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", path.display())));
    let stats = store.segment_stats();
    println!("path:    {}", path.display());
    println!("shards:  {}", store.shards());
    println!("  shard   bytes  frames    live  superseded");
    let mut frames = 0u64;
    let mut live = 0u64;
    let mut bytes = 0u64;
    for s in &stats {
        println!(
            "  {:5} {:7} {:7} {:7}  {:4} ({:4.0}%)",
            s.shard,
            s.bytes,
            s.frames,
            s.live,
            s.superseded(),
            100.0 * s.superseded_ratio()
        );
        frames += s.frames;
        live += s.live;
        bytes += s.bytes;
    }
    let superseded = frames.saturating_sub(live);
    let ratio = if frames == 0 {
        0.0
    } else {
        superseded as f64 / frames as f64
    };
    println!(
        "total:   {bytes} bytes, {frames} frames, {live} live, \
         {superseded} superseded ({:.0}% superseded ratio)",
        100.0 * ratio
    );
}

fn compact(path: &Path) {
    if detect_format(path) != Some(StoreFormat::Sharded) {
        fail(format!(
            "{} is not a sharded store (only sharded stores compact)",
            path.display()
        ));
    }
    let store = ShardedStore::open(path)
        .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", path.display())));
    let report = store
        .compact()
        .unwrap_or_else(|e| fail(format!("compaction failed: {e}")));
    println!(
        "compacted {}: {} -> {} records, {} -> {} bytes",
        path.display(),
        report.records_before,
        report.records_after,
        report.bytes_before,
        report.bytes_after
    );
}

/// The one operand of `inspect` / `stat` / `compact`.
fn operand<'a>(rest: &'a [String], what: &str) -> Result<&'a str, CliError> {
    match rest {
        [one] => Ok(one),
        _ => Err(CliError::Usage(what.to_string())),
    }
}

pub(crate) fn run(args: &[String]) -> Result<(), CliError> {
    let (command, rest) = cli::subcommand(args)?;
    match command {
        "convert" => convert(parse_convert(rest)?),
        "inspect" => {
            let spec = operand(rest, "inspect needs exactly one store spec")?;
            print!("{}", inspect(&spec.parse().map_err(CliError::Usage)?))
        }
        "stat" => stat(Path::new(operand(rest, "stat needs exactly one PATH")?)),
        "compact" => compact(Path::new(operand(rest, "compact needs exactly one PATH")?)),
        other => return Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::exit_on(run(&args), || USAGE.to_string());
}
