//! Concurrency contract of the `kc-serve` subsystem: overlapping
//! requests from many clients share one measurement plan (duplicate
//! cells execute exactly once), responses are byte-identical across
//! `--jobs` settings, a warm cell store answers whole batches
//! without a single execution, and a TCP round trip costs no kernel
//! timer.

use kernel_couplings::experiments::{AnalysisSpec, Campaign, CampaignEngine, Runner};
use kernel_couplings::npb::{Benchmark, Class};
use kernel_couplings::prophesy::CellStore;
use kernel_couplings::serve::{
    PredictRequest, PredictResponse, PredictionEngine, PredictionReport, Server, ServerConfig,
    Status,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

fn quick_runner() -> Runner {
    let mut runner = Runner::noise_free();
    runner.reps = 2;
    runner
}

fn request(
    id: u64,
    benchmark: &str,
    class: &str,
    procs: usize,
    chain_len: usize,
) -> PredictRequest {
    PredictRequest {
        id,
        benchmark: benchmark.to_string(),
        class: class.to_string(),
        procs,
        chain_len,
        fine: false,
        deadline_ms: None,
    }
}

/// Eight clients hammer the server with overlapping chains of the
/// same workload; the campaign must execute each unique cell exactly
/// once — the same set a direct prefetch of the unique specs needs.
#[test]
fn concurrent_overlapping_clients_execute_cells_exactly_once() {
    // baseline: how many cells do the unique specs actually need?
    let baseline = Campaign::builder(quick_runner()).jobs(2).build();
    baseline
        .prefetch(&[
            AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2),
            AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 3),
        ])
        .unwrap();
    let unique_cells = baseline.cache_stats().executed;
    assert!(unique_cells > 0);

    let campaign = Arc::new(Campaign::builder(quick_runner()).jobs(4).build());
    let engine = Arc::new(CampaignEngine::new(Arc::clone(&campaign)));
    let server = Server::new(engine, ServerConfig::default());

    thread::scope(|scope| {
        for client in 0..8u64 {
            let server = &server;
            scope.spawn(move || {
                for round in 0..3u64 {
                    let chain_len = 2 + (client % 2) as usize; // overlap: len 2 and len 3
                    let ticket =
                        server.submit(request(client * 10 + round, "bt", "S", 4, chain_len));
                    let response = ticket.wait();
                    assert_eq!(response.status, Status::Ok, "{:?}", response.error);
                    assert!(response.result.is_some());
                }
            });
        }
    });
    server.shutdown();

    let stats = campaign.cache_stats();
    assert_eq!(
        stats.executed, unique_cells,
        "24 overlapping requests must execute the {unique_cells} unique cells exactly once"
    );
    assert!(
        stats.hits > 0,
        "duplicate requests should be served from the in-memory cache"
    );
}

fn run_pipe(jobs: usize, input: &str) -> Vec<u8> {
    let campaign = Arc::new(Campaign::builder(quick_runner()).jobs(jobs).build());
    let engine = Arc::new(CampaignEngine::new(campaign));
    let server = Server::new(engine, ServerConfig::default());
    let mut out = Vec::new();
    server.serve_pipe(input.as_bytes(), &mut out).unwrap();
    server.shutdown();
    out
}

/// The determinism contract: the response stream carries no timing or
/// scheduling state, so a `--jobs 1` server and a `--jobs 8` server
/// must produce byte-identical output for the same input — errors,
/// duplicates and malformed lines included.
#[test]
fn responses_are_byte_identical_across_jobs_settings() {
    let input = concat!(
        r#"{"id":1,"benchmark":"bt","class":"S","procs":4,"chain_len":2}"#,
        "\n",
        r#"{"id":2,"benchmark":"bt","class":"S","procs":4,"chain_len":2}"#,
        "\n",
        r#"{"id":3,"benchmark":"lu","class":"S","procs":8,"chain_len":2}"#,
        "\n",
        r#"{"id":4,"benchmark":"ft","class":"S","procs":4,"chain_len":2}"#,
        "\n",
        "not json at all\n",
        "\n",
        r#"{"id":5,"benchmark":"bt","class":"S","procs":7,"chain_len":2}"#,
        "\n",
    );
    let serial = run_pipe(1, input);
    let parallel = run_pipe(8, input);
    assert!(!serial.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel),
        "jobs=1 and jobs=8 responses must be byte-identical"
    );
    // sanity on content: 6 response lines (blank input line is skipped)
    let text = String::from_utf8(serial).unwrap();
    assert_eq!(text.lines().count(), 6);
    assert_eq!(text.matches(r#""status":"ok""#).count(), 3);
    assert_eq!(text.matches(r#""status":"error""#).count(), 3);
}

/// The acceptance bar from the issue: against a warm store, a
/// 100-request batch is answered entirely from committed cells — the
/// campaign reports zero executions.
#[test]
fn warm_store_answers_hundred_requests_with_zero_executions() {
    let store = Arc::new(CellStore::new());

    // phase 1: a cold server fills the store through its backend
    {
        let campaign = Arc::new(
            Campaign::builder(quick_runner())
                .backend(Box::new(Arc::clone(&store)))
                .jobs(2)
                .build(),
        );
        let engine = Arc::new(CampaignEngine::new(Arc::clone(&campaign)));
        let server = Server::new(engine, ServerConfig::default());
        for (id, (benchmark, procs)) in [("bt", 4), ("lu", 8)].iter().enumerate() {
            let response = server
                .submit(request(id as u64, benchmark, "S", *procs, 2))
                .wait();
            assert_eq!(response.status, Status::Ok, "{:?}", response.error);
        }
        server.shutdown();
        assert!(campaign.cache_stats().executed > 0);
    }
    assert!(!store.is_empty());

    // phase 2: a fresh server over the warm store answers 100
    // requests without executing anything
    let campaign = Arc::new(
        Campaign::builder(quick_runner())
            .backend(Box::new(Arc::clone(&store)))
            .jobs(4)
            .build(),
    );
    let engine = Arc::new(CampaignEngine::new(Arc::clone(&campaign)));
    let server = Server::new(engine, ServerConfig::default());
    let tickets: Vec<_> = (0..100u64)
        .map(|i| {
            let (benchmark, procs) = if i % 2 == 0 { ("bt", 4) } else { ("lu", 8) };
            server.submit(request(i, benchmark, "S", procs, 2))
        })
        .collect();
    for ticket in tickets {
        let response = ticket.wait();
        assert_eq!(response.status, Status::Ok, "{:?}", response.error);
    }
    server.shutdown();

    let stats = campaign.cache_stats();
    assert_eq!(
        stats.executed, 0,
        "warm-store batch must not execute any cell"
    );
    assert!(stats.backend_hits > 0, "cells should come from the store");
    assert!(server.metrics().report().ok >= 100);
}

/// Answers every request with the same report, at once.
struct EchoEngine;

impl PredictionEngine for EchoEngine {
    fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
        batch
            .iter()
            .map(|r| {
                Ok(PredictionReport {
                    benchmark: r.benchmark.clone(),
                    class: r.class.clone(),
                    procs: r.procs,
                    chain_len: r.chain_len,
                    loop_iterations: 1,
                    overhead_secs: 0.0,
                    actual_secs: 1.0,
                    coupled_secs: 1.0,
                    summation_secs: 1.0,
                    coupled_rel_err_pct: 0.0,
                    summation_rel_err_pct: 0.0,
                    kernels: Vec::new(),
                })
            })
            .collect()
    }
}

/// One request/response exchange on `stream`: the response's id and
/// the round trip.
fn exchange(stream: &mut TcpStream, reader: &mut impl BufRead, id: u64) -> (u64, Duration) {
    let line = format!(
        "{{\"id\":{id},\"benchmark\":\"bt\",\"class\":\"S\",\"procs\":4,\"chain_len\":2}}\n"
    );
    let started = Instant::now();
    stream.write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let elapsed = started.elapsed();
    let response: PredictResponse = serde_json::from_str(&response).unwrap();
    assert_eq!(response.status, Status::Ok);
    (response.id, elapsed)
}

/// A client that leaves Nagle on gets each answer without waiting for
/// a delayed ACK (≈ 40 ms on Linux): the server writes a response as
/// one segment with `TCP_NODELAY` set.  The accept loop still drains
/// an open connection after `request_shutdown` and then returns.
#[test]
fn tcp_round_trips_do_not_wait_for_delayed_acks() {
    let server = Arc::new(Server::new(Arc::new(EchoEngine), ServerConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done) = mpsc::channel();
    {
        let server = server.clone();
        thread::spawn(move || {
            let _ = done_tx.send(server.serve_tcp(listener));
        });
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut round_trips = Vec::new();
    for id in 1..=20 {
        let (answered, elapsed) = exchange(&mut stream, &mut reader, id);
        assert_eq!(answered, id);
        round_trips.push(elapsed);
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}: a response waited for the client's delayed ACK"
    );

    // shutdown stops accepting, but the open connection is still served
    server.request_shutdown();
    assert_eq!(exchange(&mut stream, &mut reader, 21).0, 21);
    stream.shutdown(Shutdown::Write).unwrap();
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "EOF after the drain"
    );
    let served = done
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_tcp returned after its last connection closed");
    served.unwrap();
    server.shutdown();
}

/// A request line nested 10,000 levels deep gets an error response on
/// its own connection; it does not overflow the connection thread's
/// stack, which would abort the process and every other client with
/// it.  Client B, connected before the hostile line and served before
/// and after it, and a client connecting afterwards still get `ok`.
#[test]
fn a_deeply_nested_line_fails_alone_over_tcp() {
    let server = Arc::new(Server::new(Arc::new(EchoEngine), ServerConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done) = mpsc::channel();
    {
        let server = server.clone();
        thread::spawn(move || {
            let _ = done_tx.send(server.serve_tcp(listener));
        });
    }
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };

    let (mut b, mut b_reader) = connect();
    assert_eq!(exchange(&mut b, &mut b_reader, 1).0, 1);

    let (mut a, mut a_reader) = connect();
    a.write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
        .unwrap();
    let mut response = String::new();
    a_reader.read_line(&mut response).unwrap();
    let response: PredictResponse = serde_json::from_str(&response).unwrap();
    assert_eq!(response.status, Status::Error);
    let error = response.error.unwrap_or_default();
    assert!(error.contains("recursion limit"), "{error}");

    assert_eq!(exchange(&mut b, &mut b_reader, 2).0, 2);
    let (mut c, mut c_reader) = connect();
    assert_eq!(exchange(&mut c, &mut c_reader, 3).0, 3);

    server.request_shutdown();
    for stream in [&a, &b, &c] {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    done.recv_timeout(Duration::from_secs(10))
        .expect("serve_tcp returned after its connections closed")
        .unwrap();
    server.shutdown();
}

/// In pipe mode a 100,000-deep line between two valid requests is
/// answered in order, with an error, and the stream goes on.
#[test]
fn a_deeply_nested_line_fails_alone_in_pipe_mode() {
    let server = Server::new(Arc::new(EchoEngine), ServerConfig::default());
    let input = format!(
        "{}\n{}\n{}\n",
        r#"{"id":1,"benchmark":"bt","class":"S","procs":4,"chain_len":2}"#,
        "[".repeat(100_000),
        r#"{"id":3,"benchmark":"bt","class":"S","procs":4,"chain_len":2}"#,
    );
    let mut out = Vec::new();
    server.serve_pipe(input.as_bytes(), &mut out).unwrap();
    server.shutdown();
    let responses: Vec<PredictResponse> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let statuses: Vec<_> = responses.iter().map(|r| (r.id, r.status)).collect();
    assert_eq!(
        statuses,
        [(1, Status::Ok), (0, Status::Error), (3, Status::Ok)]
    );
}
