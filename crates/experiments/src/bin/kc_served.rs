//! `kc_served` — the long-running prediction daemon.
//!
//! ```text
//! kc_served [--listen ADDR] [--store SPEC]
//!          [--noise-free] [--reps N] [--jobs N] [--max-inflight N]
//!          [--trace FILE] [--metrics]
//! ```
//!
//! Reads line-delimited JSON [`kc_serve::PredictRequest`]s — from
//! stdin by default (**pipe mode**: one response line per request
//! line, in input order, drains and exits 0 at EOF), or from TCP
//! connections with `--listen ADDR` (each connection is an
//! independent pipe stream; concurrent connections batch together;
//! SIGTERM stops accepting and drains).
//!
//! Requests resolve through one shared [`kc_experiments::Campaign`]: each server
//! batch prefetches its cells as one drain of the bounded cell
//! scheduler, from the server's single batcher thread, so duplicate
//! cells across a batch's requests execute exactly once and at most
//! `--jobs` cells execute at any instant.  Request deadlines order
//! and shed requests in batch formation; a batch's cells then run
//! longest first.  With `--store`, cells load from / save to a kc-prophesy
//! cell store — a warm store answers every request with zero
//! executions.  The store spec is a bare PATH — the format is
//! auto-detected (JSON file or sharded binary directory) — or
//! `sharded:PATH` / `json:PATH` to force the format for a fresh store.
//! The sharded format appends each measured cell immediately, but
//! another process sees those cells only after it reopens the store:
//! each process builds its frame index at open.  Two processes must
//! not hold one sharded store at the same time.  `--trace` writes the
//! canonical telemetry stream (cell spans + `RequestServed` events);
//! `--metrics` prints
//! request-latency percentiles, batch shape and cache hit rate to
//! stderr at shutdown.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::{CampaignArgs, ServeArgs, Session};
use std::sync::Arc;

/// Everything the command line configures.
#[derive(Default)]
pub(crate) struct Options {
    listen: Option<String>,
    pub(crate) campaign: CampaignArgs,
    pub(crate) serve: ServeArgs,
}

impl AsMut<CampaignArgs> for Options {
    fn as_mut(&mut self) -> &mut CampaignArgs {
        &mut self.campaign
    }
}

impl AsMut<ServeArgs> for Options {
    fn as_mut(&mut self) -> &mut ServeArgs {
        &mut self.serve
    }
}

fn flags() -> Vec<Flag<Options>> {
    vec![
        Flag::value(
            "--listen",
            "ADDR",
            "serve TCP connections on ADDR (e.g. 127.0.0.1:7070) instead of stdin",
            cli::text,
            |o, addr| o.listen = Some(addr),
        ),
        CampaignArgs::store(),
        CampaignArgs::noise_free(),
        CampaignArgs::reps(),
        CampaignArgs::jobs(),
        ServeArgs::max_inflight(),
        CampaignArgs::trace()
            .help("write the telemetry stream (cells + requests) as canonical JSON lines"),
        CampaignArgs::metrics().help("print serve + campaign aggregates to stderr at shutdown"),
    ]
}

fn usage() -> String {
    let header = "usage: kc_served [FLAG ...]\n\
                  reads line-delimited JSON prediction requests from stdin \
                  (one response line per request line, in order; EOF drains \
                  and exits) unless --listen is given\n";
    cli::usage(header, &flags(), 22)
}

pub(crate) fn parse_cli(args: &[String]) -> Result<Options, CliError> {
    cli::parse(args, &flags(), cli::no_positional)
}

/// Point SIGTERM at the server's shutdown flag, so the TCP accept
/// loop stops and drains.  Pipe mode drains at EOF, which is the
/// reliable shutdown path there (a blocked stdin read resumes after
/// the handler runs and keeps the process alive until the pipe
/// closes).
#[cfg(unix)]
fn install_sigterm(flag: Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::OnceLock;
    static FLAG: OnceLock<Arc<std::sync::atomic::AtomicBool>> = OnceLock::new();
    let _ = FLAG.set(flag);
    extern "C" fn on_sigterm(_sig: i32) {
        if let Some(f) = FLAG.get() {
            f.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm(_flag: Arc<std::sync::atomic::AtomicBool>) {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = cli::exit_on(parse_cli(&args), usage);
    let session = Session::open(&opts.campaign).unwrap_or_else(|e| cli::reject(e));
    let config = opts.serve.config();
    let server = session.server(config);
    install_sigterm(server.shutdown_flag());

    let served = match &opts.listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| cli::reject(format!("cannot listen on {addr}: {e}")));
            eprintln!(
                "[serve] listening on {} (jobs {}, max inflight {}, max batch {})",
                listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone()),
                session.campaign().jobs(),
                config.max_inflight,
                config.max_batch,
            );
            server.serve_tcp(listener)
        }
        None => {
            let stdin = std::io::stdin();
            server.serve_pipe(stdin.lock(), std::io::stdout())
        }
    };
    if let Err(e) = served {
        cli::fail(format!("serve loop failed: {e}"));
    }
    // drain every admitted request, then stop the batcher
    server.shutdown();

    let report = server.metrics().report();
    if let Err(e) = session.finish(&report.to_string()) {
        cli::fail(e);
    }
    eprintln!(
        "[serve] {} request(s) answered (ok {}, error {}, overloaded {}); exiting 0",
        report.requests, report.ok, report.errors, report.overloaded
    );
}
