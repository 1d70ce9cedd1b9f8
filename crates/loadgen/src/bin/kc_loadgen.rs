//! `kc-loadgen` — deadline-aware load generation with an SLO gate.
//!
//! ```text
//! kc-loadgen [--rps F] [--duration-ms N] [--seed N] [--hot-fraction F]
//!            [--deadline-ms F] [--burst N] [--burst-every-ms N]
//!            [--malformed-every N] [--fault-disconnects N]
//!            [--fault-stalls N] [--fault-stall-ms N]
//!            [--connect ADDR | --store SPEC]
//!            [--noise-free] [--reps N] [--jobs N] [--max-inflight N]
//!            [--warm] [--slo SPEC]
//! ```
//!
//! Generates a deterministic open-loop request schedule (hot/cold mix,
//! optional bursts, deadlines and malformed fault frames — see
//! `kc_loadgen::workload`) and drives it at the configured RPS into
//! either a server it hosts **in-process** (default; the same
//! campaign-backed engine `kc_served` runs, so server-side executions
//! and the exactly-once contract are auditable) or a remote
//! `kc_served --listen` instance via `--connect ADDR` (server
//! internals opaque; executions report as 0).
//!
//! `--warm` resolves every distinct spec in the schedule once before
//! the timed window, so the measured run exercises pure cache-hit
//! serving — the regime where an SLO on executions (`executions<=0`)
//! is meaningful.  Transport faults (`--fault-disconnects`,
//! `--fault-stalls`) run *concurrently* with the measured load over
//! TCP; in-process runs with faults configured automatically host the
//! server on an ephemeral local port so the fault clients have a wire
//! to cut.
//!
//! The run's [`LoadReport`] is printed as JSON on stdout (a summary on
//! stderr).  With `--slo SPEC` — comma-separated `metric<=value` /
//! `metric>=value` bounds, e.g.
//! `p99_ms<=50,overload_rate<=0.05,exactly_once_violations<=0` — the
//! process exits 1 if any bound is violated, making a load run a CI
//! gate.

use kc_core::cli::{self, CliError, Flag};
use kc_experiments::{CampaignArgs, ServeArgs, Session};
use kc_loadgen::{
    drive_server, drive_tcp, schedule, spawn_faults, unique_requests, DriveResult, ExecutionAudit,
    FaultConfig, LoadReport, SloSpec, WorkloadConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// Everything the command line configures.
pub(crate) struct Options {
    pub(crate) workload: WorkloadConfig,
    faults: FaultConfig,
    connect: Option<String>,
    pub(crate) campaign: CampaignArgs,
    serve: ServeArgs,
    warm: bool,
    slo: Option<SloSpec>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: WorkloadConfig::default(),
            faults: FaultConfig {
                stall: Duration::from_millis(200),
                ..FaultConfig::default()
            },
            connect: None,
            campaign: CampaignArgs::default(),
            serve: ServeArgs::default(),
            warm: false,
            slo: None,
        }
    }
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

fn millis(name: &str, v: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(cli::positive(name, v)? as u64))
}

fn positive_f64(name: &str, v: &str) -> Result<f64, String> {
    match cli::finite(name, v)? {
        x if x > 0.0 => Ok(x),
        _ => Err(format!("{name} must be positive")),
    }
}

fn flags() -> Vec<Flag<Options>> {
    vec![
        Flag::value(
            "--rps",
            "F",
            "target arrival rate, requests/second (default 200)",
            positive_f64,
            |o, rps| o.workload.rps = rps,
        ),
        Flag::value(
            "--duration-ms",
            "N",
            "paced window length, milliseconds (default 2000)",
            millis,
            |o, window| o.workload.duration = window,
        ),
        Flag::value(
            "--seed",
            "N",
            "workload seed: same seed, same request stream (default 42)",
            cli::number,
            |o, seed| o.workload.seed = seed,
        ),
        Flag::value(
            "--hot-fraction",
            "F",
            "share of requests drawn from the hot key set, 0..=1 (default 0.9)",
            |name, v| match cli::finite(name, v)? {
                f if (0.0..=1.0).contains(&f) => Ok(f),
                _ => Err(format!("{name} must be in 0..=1")),
            },
            |o, f| o.workload.hot_fraction = f,
        ),
        Flag::value(
            "--deadline-ms",
            "F",
            "attach this deadline to every request (default: none — \
             a deadline-free, strictly FIFO-batched stream)",
            positive_f64,
            |o, ms| o.workload.deadline_ms = Some(ms),
        ),
        Flag::value(
            "--burst",
            "N",
            "extra back-to-back requests at each burst boundary (default 0)",
            cli::number,
            |o, n| o.workload.burst_size = n,
        ),
        Flag::value(
            "--burst-every-ms",
            "N",
            "burst period, milliseconds (default: bursts disabled)",
            millis,
            |o, period| o.workload.burst_every = Some(period),
        ),
        Flag::value(
            "--malformed-every",
            "N",
            "replace every Nth frame with truncated JSON (default 0: off)",
            cli::number,
            |o, n| o.workload.malformed_every = n,
        ),
        Flag::value(
            "--fault-disconnects",
            "N",
            "concurrent clients that send 1.5 requests then vanish (default 0)",
            cli::number,
            |o, n| o.faults.disconnects = n,
        ),
        Flag::value(
            "--fault-stalls",
            "N",
            "concurrent clients that send half a line then go silent (default 0)",
            cli::number,
            |o, n| o.faults.stalls = n,
        ),
        Flag::value(
            "--fault-stall-ms",
            "N",
            "how long a stalling client squats, milliseconds (default 200)",
            millis,
            |o, squat| o.faults.stall = squat,
        ),
        Flag::value(
            "--connect",
            "ADDR",
            "drive a remote kc_served --listen instance instead of an \
             in-process server (executions report as 0)",
            cli::text,
            |o, addr| o.connect = Some(addr),
        ),
        CampaignArgs::store().help(
            "back the in-process server with a kc-prophesy cell store; \
             SPEC is PATH (format auto-detected) or 'sharded:PATH' / \
             'json:PATH' to force a format for a fresh store",
        ),
        CampaignArgs::noise_free().help("disable the in-process machine's timer noise"),
        CampaignArgs::reps().help("timing repetitions per chain cell (in-process server)"),
        CampaignArgs::jobs().help("in-process scheduler worker-pool size, >= 1"),
        ServeArgs::max_inflight()
            .help("in-process admission bound before overload responses (default 256)"),
        Flag::switch(
            "--warm",
            "resolve every distinct spec once before the timed window, \
             so the measured run is pure cache-hit serving",
            |o| o.warm = true,
        ),
        Flag::value(
            "--slo",
            "SPEC",
            "exit 1 unless every bound holds, e.g. \
             'p99_ms<=50,overload_rate<=0.05,exactly_once_violations<=0'",
            cli::spec,
            |o, slo| o.slo = Some(slo),
        ),
    ]
}

fn usage() -> String {
    let header = "usage: kc-loadgen [FLAG ...]\n\
                  paces a deterministic open-loop request schedule into an \
                  in-process campaign-backed server (default) or a remote \
                  kc_served --listen instance (--connect), prints the run's \
                  LoadReport as JSON on stdout, and exits 1 if an --slo bound \
                  is violated\n";
    cli::usage(header, &flags(), 22)
}

pub(crate) fn parse_cli(args: &[String]) -> Result<Options, CliError> {
    let o = cli::parse(args, &flags(), cli::no_positional)?;
    if o.connect.is_some() {
        if o.campaign.store.is_some() {
            return Err(CliError::Usage(
                "--connect and --store are mutually exclusive (the store \
                 belongs to the remote server)"
                    .to_string(),
            ));
        }
        if o.faults.is_active() {
            // the fault clients would hit a server whose recovery we
            // cannot audit; keep fault injection to hosted runs
            return Err(CliError::Usage(
                "--fault-* needs the in-process server (drop --connect)".to_string(),
            ));
        }
    }
    Ok(o)
}

/// Drive the schedule against a remote server: plain TCP, no
/// server-side telemetry.
fn run_remote(opts: &Options) -> DriveResult {
    let addr = opts.connect.as_deref().expect("remote mode");
    if opts.warm {
        let warm_slots: Vec<kc_loadgen::Slot> = unique_requests(&schedule(&opts.workload))
            .into_iter()
            .map(|r| kc_loadgen::Slot {
                offset: Duration::ZERO,
                frame: kc_loadgen::Frame::Request(r),
            })
            .collect();
        if let Err(e) = drive_tcp(addr, &warm_slots) {
            cli::fail(format!("warmup against {addr} failed: {e}"));
        }
    }
    match drive_tcp(addr, &schedule(&opts.workload)) {
        Ok(result) => result,
        Err(e) => cli::fail(format!("load run against {addr} failed: {e}")),
    }
}

/// Host the campaign-backed server in-process and drive the schedule
/// at it; returns the drive plus `(executions, exactly-once
/// violations)` audited from campaign telemetry as it streams.
fn run_hosted(opts: &Options) -> (DriveResult, u64, u64) {
    let session = Session::open(&opts.campaign).unwrap_or_else(|e| cli::reject(e));
    let campaign = session.campaign().clone();
    let audit = Arc::new(ExecutionAudit::new());
    campaign.attach_sink(audit.clone());
    let server = Arc::new(session.server(opts.serve.config()));

    let slots = schedule(&opts.workload);
    if opts.warm {
        let tickets: Vec<_> = unique_requests(&slots)
            .into_iter()
            .map(|r| server.submit(r))
            .collect();
        for t in &tickets {
            let response = t.wait();
            if response.status != kc_serve::Status::Ok {
                eprintln!(
                    "warning: warmup request drew status '{}': {}",
                    response.status,
                    response.error.as_deref().unwrap_or("")
                );
            }
        }
        eprintln!(
            "[warm] {} distinct spec(s) resolved ({} cells executed)",
            tickets.len(),
            campaign.cache_stats().executed
        );
    }

    let executed_before = campaign.cache_stats().executed;
    let result = if opts.faults.is_active() {
        // fault clients need a wire to cut: host the server on an
        // ephemeral local port and drive the measured load over TCP
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap_or_else(|e| cli::fail(format!("cannot bind fault-injection listener: {e}")));
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|e| cli::fail(format!("cannot resolve listener address: {e}")));
        let acceptor = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(listener))
        };
        let fault_handles = spawn_faults(&addr, &opts.faults);
        let result = match drive_tcp(&addr, &slots) {
            Ok(r) => r,
            Err(e) => cli::fail(format!("load run against {addr} failed: {e}")),
        };
        for h in fault_handles {
            let _ = h.join();
        }
        server.request_shutdown();
        if let Err(e) = acceptor.join().expect("acceptor thread") {
            eprintln!("warning: accept loop ended with: {e}");
        }
        result
    } else {
        drive_server(&server, &slots)
    };
    server.shutdown();
    let executions = campaign.cache_stats().executed - executed_before;
    let violations = audit.violations();
    if let Err(e) = session.finish("") {
        cli::fail(e);
    }
    (result, executions, violations)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = cli::exit_on(parse_cli(&args), usage);

    let (result, executions, violations) = match &opts.connect {
        Some(_) => (run_remote(&opts), 0, 0),
        None => run_hosted(&opts),
    };
    let report = LoadReport::from_outcomes(
        &result.outcomes,
        result.elapsed_secs,
        executions,
        violations,
    );
    if opts.connect.is_some() {
        eprintln!(
            "[note] remote run: executions and exactly-once violations are \
             not observable over the wire and report as 0"
        );
    }
    eprint!("{report}");
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );

    if let Some(slo) = &opts.slo {
        let failures = slo.check(&report);
        if !failures.is_empty() {
            for line in &failures {
                eprintln!("{line}");
            }
            eprintln!("[slo] FAIL: {} bound(s) violated", failures.len());
            std::process::exit(1);
        }
        eprintln!("[slo] PASS: {} bound(s) hold", slo.bounds.len());
    }
}
