//! Integration: transport faults against the TCP serving path.
//!
//! Three fault families, each with the same two-part claim — the
//! fault is *contained* (a follow-up client gets clean answers) and
//! the cell store underneath is *uncorrupted* (a fresh stack over the
//! same store serves the same specs with zero executions):
//!
//! 1. **Mid-request disconnects** — clients that send one full
//!    request plus half of a second one and vanish without reading.
//! 2. **Malformed frames** — a broken JSON line on a live connection
//!    draws an `error` response and the *same* connection keeps
//!    serving.
//! 3. **Shutdown mid-stream** — `Server::request_shutdown` (exactly
//!    what the `kc_served` SIGTERM handler calls) drains every
//!    admitted request before the accept loop exits.

use kernel_couplings::experiments::{Campaign, CampaignEngine, Runner};
use kernel_couplings::loadgen::{drive_tcp, spawn_faults, FaultConfig, Frame, Slot};
use kernel_couplings::prophesy::{StoreFormat, StoreSpec};
use kernel_couplings::serve::{
    status, PredictRequest, PredictResponse, Server, ServerConfig, Status,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Unique not-yet-existing store path per call (`StoreSpec::open`
/// treats a fresh path as a new store and an existing one as a store
/// to load).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("kc_serve_faults_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p.join("cells")
}

fn request(id: u64, procs: usize, chain_len: usize) -> PredictRequest {
    PredictRequest {
        id,
        benchmark: "bt".to_string(),
        class: "S".to_string(),
        procs,
        chain_len,
        fine: false,
        deadline_ms: None,
    }
}

/// The campaign-backed server over a sharded store in `dir`, listening
/// on an ephemeral local port.  Returns the stack plus the acceptor
/// thread to join after `request_shutdown`.
fn tcp_stack(
    dir: &std::path::Path,
) -> (
    Arc<Campaign>,
    Arc<Server>,
    String,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = StoreSpec {
        path: dir.to_path_buf(),
        format: Some(StoreFormat::Sharded),
    }
    .open()
    .unwrap();
    let campaign = Arc::new(
        Campaign::builder(Runner::noise_free())
            .backend(Box::new(Arc::clone(&store)))
            .build(),
    );
    let server = Arc::new(Server::new(
        Arc::new(CampaignEngine::new(campaign.clone())),
        ServerConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    (campaign, server, addr, acceptor)
}

/// A fresh stack over `dir` must serve `specs` entirely from the
/// persistent store: zero executions proves the fault never corrupted
/// or dropped a committed cell.
fn assert_store_serves_warm(dir: &std::path::Path, specs: &[(usize, usize)]) {
    let store = StoreSpec::new(dir).open().unwrap();
    assert!(!store.is_empty(), "the store kept its cells");
    let campaign = Arc::new(
        Campaign::builder(Runner::noise_free())
            .backend(Box::new(Arc::clone(&store)))
            .build(),
    );
    let server = Server::new(
        Arc::new(CampaignEngine::new(campaign.clone())),
        ServerConfig::default(),
    );
    for (i, &(procs, chain_len)) in specs.iter().enumerate() {
        let response = server.submit(request(i as u64, procs, chain_len)).wait();
        assert_eq!(response.status, Status::Ok, "{:?}", response.error);
    }
    server.shutdown();
    assert_eq!(
        campaign.cache_stats().executed,
        0,
        "a clean store serves every spec without re-executing"
    );
}

fn valid_slots(specs: &[(usize, usize)]) -> Vec<Slot> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(procs, chain_len))| Slot {
            offset: Duration::ZERO,
            frame: Frame::Request(request(i as u64 + 1, procs, chain_len)),
        })
        .collect()
}

const SPECS: [(usize, usize); 2] = [(4, 2), (9, 2)];

#[test]
fn mid_request_disconnects_leave_the_server_responsive_and_the_store_clean() {
    let dir = scratch("disconnect");
    let (campaign, server, addr, acceptor) = tcp_stack(&dir);

    let handles = spawn_faults(
        &addr,
        &FaultConfig {
            disconnects: 4,
            stalls: 2,
            stall: Duration::from_millis(50),
        },
    );
    // a well-behaved client runs concurrently with the vandals
    let result = drive_tcp(&addr, &valid_slots(&SPECS)).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(result.outcomes.len(), SPECS.len());
    assert!(
        result.outcomes.iter().all(|o| o.status == status::OK),
        "concurrent fault clients must not touch the measured stream: {:?}",
        result.outcomes
    );

    // ...and a follow-up client after the carnage still gets answers
    let follow_up = drive_tcp(&addr, &valid_slots(&SPECS)).unwrap();
    assert!(follow_up.outcomes.iter().all(|o| o.status == status::OK));

    server.request_shutdown();
    acceptor.join().unwrap().unwrap();
    server.shutdown();
    assert!(campaign.cache_stats().executed > 0, "the run was cold");
    assert_store_serves_warm(&dir, &SPECS);
}

#[test]
fn malformed_frame_draws_an_error_and_the_same_connection_keeps_serving() {
    let dir = scratch("malformed");
    let (_campaign, server, addr, acceptor) = tcp_stack(&dir);

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<PredictResponse>(&line).unwrap()
    };

    writeln!(stream, "{{\"benchmark\":\"bt\",\"class\":\"S\",\"pro").unwrap();
    let broken = read_response();
    assert_eq!(
        broken.status,
        Status::Error,
        "truncated JSON draws an error"
    );

    writeln!(
        stream,
        "{}",
        serde_json::to_string(&request(7, 4, 2)).unwrap()
    )
    .unwrap();
    let healthy = read_response();
    assert_eq!(
        healthy.status,
        Status::Ok,
        "the connection survives its own bad frame: {:?}",
        healthy.error
    );
    assert_eq!(healthy.id, 7, "responses stay correlated after the fault");
    stream.shutdown(Shutdown::Both).unwrap();

    server.request_shutdown();
    acceptor.join().unwrap().unwrap();
    server.shutdown();
    assert_store_serves_warm(&dir, &[(4, 2)]);
}

#[test]
fn shutdown_mid_stream_drains_every_admitted_request() {
    let dir = scratch("drain");
    let (_campaign, server, addr, acceptor) = tcp_stack(&dir);

    let mut stream = TcpStream::connect(&addr).unwrap();
    for (i, &(procs, chain_len)) in SPECS.iter().enumerate() {
        writeln!(
            stream,
            "{}",
            serde_json::to_string(&request(i as u64 + 1, procs, chain_len)).unwrap()
        )
        .unwrap();
    }
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // wait for the first response — proof the connection is accepted
    // and the stream admitted — THEN pull the plug the way the
    // kc_served SIGTERM handler does: stop accepting, drain the rest
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let first: PredictResponse = serde_json::from_str(&first).unwrap();
    assert_eq!(first.status, Status::Ok, "{:?}", first.error);
    server.request_shutdown();

    stream.shutdown(Shutdown::Write).unwrap();
    let rest: Vec<PredictResponse> = reader
        .lines()
        .map(|l| serde_json::from_str(&l.unwrap()).unwrap())
        .collect();
    assert_eq!(
        rest.len(),
        SPECS.len() - 1,
        "every admitted request is answered before exit"
    );
    for r in &rest {
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    }

    acceptor.join().unwrap().unwrap();
    server.shutdown();
    assert_store_serves_warm(&dir, &SPECS);
}
