//! One campaign session behind every campaign-driving binary.
//!
//! `paper_tables`, `kc_served`, `kc-loadgen` and `kc_regime` are views
//! over one [`Campaign`] and one cell store.  What they share lives
//! here, written once:
//!
//! * [`CampaignArgs`] — the `--store` / `--jobs` / `--reps` /
//!   `--noise-free` / `--trace` / `--metrics` group.
//!   Each flag is defined by one associated function; a binary lists
//!   the ones it exposes in its own `kc_core::cli` table.
//! * [`ServeArgs`] — `--max-inflight`.
//! * [`Session`] — the prologue ([`Session::open`]: runner, store,
//!   campaign, sinks) and the epilogue ([`Session::finish`]: the
//!   `[cache]` / `[metrics]` / `[trace]` / `[store]` stderr lines
//!   with the flushes that make them true).

use crate::{Campaign, CampaignEngine, Runner, SummaryOpts};
use kc_core::cli::{self, Flag};
use kc_core::{JsonLinesSink, TelemetrySink};
use kc_prophesy::{CellBackend, StoreSpec};
use kc_serve::{Server, ServerConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Slow cells to keep in the `--metrics` / trace summary.
const SUMMARY_TOP_N: usize = 10;

/// Name the artifact a failed write belonged to.
fn cannot<'a>(verb: &'a str, path: &'a Path) -> impl FnOnce(io::Error) -> io::Error + 'a {
    move |e| io::Error::new(e.kind(), format!("cannot {verb} {}: {e}", path.display()))
}

/// What the shared campaign flags configure.
#[derive(Clone, Debug, Default)]
pub struct CampaignArgs {
    /// `--store SPEC`: the persistent cell store.
    pub store: Option<StoreSpec>,
    /// `--jobs N`, at least 1.
    pub jobs: Option<usize>,
    /// `--reps N`.
    pub reps: Option<u32>,
    /// `--noise-free`.
    pub noise_free: bool,
    /// `--trace FILE`.
    pub trace: Option<PathBuf>,
    /// `--metrics`.
    pub metrics: bool,
}

impl CampaignArgs {
    /// `--store SPEC`.
    pub fn store<O: AsMut<Self> + 'static>() -> Flag<O> {
        Flag::value(
            "--store",
            "SPEC",
            "load/save raw cell measurements in a kc-prophesy cell store; \
             SPEC is PATH (format auto-detected) or 'sharded:PATH' / \
             'json:PATH' to force a format for a fresh store",
            cli::spec,
            |o, spec| o.as_mut().store = Some(spec),
        )
    }

    /// `--jobs N`.
    pub fn jobs<O: AsMut<Self> + 'static>() -> Flag<O> {
        Flag::value(
            "--jobs",
            "N",
            "scheduler worker-pool size, >= 1 (default: available parallelism)",
            cli::positive,
            |o, n| o.as_mut().jobs = Some(n),
        )
    }

    /// `--reps N`.
    pub fn reps<O: AsMut<Self> + 'static>() -> Flag<O> {
        Flag::value(
            "--reps",
            "N",
            "timing repetitions per chain cell",
            cli::number,
            |o, n| o.as_mut().reps = Some(n),
        )
    }

    /// `--noise-free`.
    pub fn noise_free<O: AsMut<Self>>() -> Flag<O> {
        Flag::switch("--noise-free", "disable the machine's timer noise", |o| {
            o.as_mut().noise_free = true
        })
    }

    /// `--trace FILE`.
    pub fn trace<O: AsMut<Self> + 'static>() -> Flag<O> {
        Flag::value(
            "--trace",
            "FILE",
            "write the telemetry stream as canonical JSON lines",
            cli::path,
            |o, file| o.as_mut().trace = Some(file),
        )
    }

    /// `--metrics`.
    pub fn metrics<O: AsMut<Self>>() -> Flag<O> {
        Flag::switch("--metrics", "print end-of-run aggregates to stderr", |o| {
            o.as_mut().metrics = true
        })
    }
}

/// What the shared server flags configure.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeArgs {
    /// `--max-inflight N`, at least 1.
    pub max_inflight: Option<usize>,
}

impl ServeArgs {
    /// `--max-inflight N`.
    pub fn max_inflight<O: AsMut<Self> + 'static>() -> Flag<O> {
        Flag::value(
            "--max-inflight",
            "N",
            "max requests queued or resolving before overload responses (default 256)",
            cli::positive,
            |o, n| o.as_mut().max_inflight = Some(n),
        )
    }

    /// The server limits: defaults overridden by the given flags.
    pub fn config(&self) -> ServerConfig {
        let defaults = ServerConfig::default();
        ServerConfig {
            max_inflight: self.max_inflight.unwrap_or(defaults.max_inflight),
            ..defaults
        }
    }
}

/// An open campaign with its store and sinks attached.
pub struct Session {
    campaign: Arc<Campaign>,
    store: Option<(Arc<dyn CellBackend>, PathBuf)>,
    trace: Option<Arc<JsonLinesSink>>,
    metrics: bool,
}

impl Session {
    /// Open the store `args` names, build the campaign over it and
    /// attach the sinks.  The error is a start-up (exit 2) message.
    pub fn open(args: &CampaignArgs) -> Result<Session, String> {
        let mut runner = Runner::default();
        if args.noise_free {
            runner.machine = runner.machine.without_noise();
        }
        if let Some(reps) = args.reps {
            runner.reps = reps;
        }
        let mut builder = Campaign::builder(runner);
        let mut store = None;
        if let Some(spec) = &args.store {
            let backend = spec
                .open()
                .map_err(|e| format!("cannot open cell store {}: {e}", spec.path.display()))?;
            builder = builder.backend(Box::new(Arc::clone(&backend)));
            store = Some((backend, spec.path.clone()));
        }
        if let Some(jobs) = args.jobs {
            builder = builder.jobs(jobs);
        }
        let campaign = Arc::new(builder.build());
        if let Some((backend, _)) = &store {
            // store diagnostics (read errors answered as misses) land in
            // the campaign's event stream instead of stderr
            backend.attach_sink(campaign.sink());
        }
        let trace = args.trace.as_ref().map(|path| {
            let sink = Arc::new(JsonLinesSink::new(path.clone()));
            campaign.attach_sink(sink.clone());
            sink
        });
        Ok(Session {
            campaign,
            store,
            trace,
            metrics: args.metrics,
        })
    }

    /// The session's campaign.
    pub fn campaign(&self) -> &Arc<Campaign> {
        &self.campaign
    }

    /// A prediction server over the campaign; its request events land
    /// in the same trace as the cell spans.
    pub fn server(&self, config: ServerConfig) -> Server {
        let server = Server::new(Arc::new(CampaignEngine::new(self.campaign.clone())), config);
        if let Some(sink) = &self.trace {
            server.attach_sink(sink.clone() as Arc<dyn TelemetrySink>);
        }
        server
    }

    /// End the run: report the cache traffic, print `extra_metrics`
    /// and the summary under `--metrics`, and flush the trace and the
    /// store.  The summary is computed only under `--metrics` or
    /// `--trace`.  A write that fails is returned, not panicked on;
    /// nothing is reported as written before its flush succeeded.
    pub fn finish(self, extra_metrics: &str) -> io::Result<()> {
        let campaign = &self.campaign;
        let cache = campaign.cache_stats();
        eprintln!(
            "[cache] {} requests, {} memory hits, {} backend hits, {} executed",
            cache.requests, cache.hits, cache.backend_hits, cache.executed
        );
        // traces end with a summary line, so a traced summary is recorded
        let summary = (self.metrics || self.trace.is_some()).then(|| {
            let opts = SummaryOpts::top(SUMMARY_TOP_N);
            campaign.summary(if self.trace.is_some() {
                opts.recorded()
            } else {
                opts
            })
        });
        if let (true, Some(summary)) = (self.metrics, &summary) {
            eprint!("[metrics]\n{extra_metrics}{summary}");
        }
        if let Some(sink) = &self.trace {
            campaign
                .flush_sinks()
                .map_err(cannot("write telemetry trace", sink.path()))?;
            eprintln!(
                "[trace] {} events written to {}",
                sink.len(),
                sink.path().display()
            );
        }
        if let Some((store, path)) = &self.store {
            store.flush().map_err(cannot("save cell store", path))?;
            let b = store.stats();
            let errors = if b.read_errors > 0 {
                format!(", {} read errors", b.read_errors)
            } else {
                String::new()
            };
            eprintln!(
                "[store] {} cells saved to {} ({}, {} loads, {} hits, {} stores{errors})",
                store.len(),
                path.display(),
                store.format(),
                b.loads,
                b.load_hits,
                b.stores
            );
        }
        Ok(())
    }
}
