//! Drivers: pace a [`Slot`] schedule into a server and collect
//! client-side [`Outcome`]s, plus the transport-level fault clients.
//!
//! Both drivers are **open-loop**: a slot is sent at its scheduled
//! offset whether or not earlier responses have arrived, so a slow
//! server faces the configured arrival rate and its admission control
//! (not the client's patience) decides what sheds.

use crate::report::Outcome;
use crate::workload::{Frame, Slot};
use kc_core::{TelemetryEvent, TelemetrySink};
use kc_serve::{PredictResponse, Server, Ticket};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One driven run: every frame's outcome plus the wall clock it took.
#[derive(Clone, Debug)]
pub struct DriveResult {
    /// Per-frame outcomes, in send order.
    pub outcomes: Vec<Outcome>,
    /// First send to last response, seconds.
    pub elapsed_secs: f64,
}

/// Sleep until `start + offset` (no-op when already past it — an
/// open-loop generator that falls behind sends immediately rather
/// than stretching the run).
fn pace(start: Instant, offset: Duration) {
    let due = start + offset;
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Drive an in-process [`Server`] (pipe-mode serving without the
/// pipe): submissions go straight into admission control, a collector
/// thread waits the tickets in send order — the same ordered delivery
/// a pipe client sees — and stamps each response's latency.
pub fn drive_server(server: &Server, slots: &[Slot]) -> DriveResult {
    let (tx, rx) = mpsc::channel::<(Instant, Ticket)>();
    let collector = std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        for (sent, ticket) in rx {
            let response = ticket.wait();
            outcomes.push(Outcome {
                status: response.status.to_string(),
                latency_secs: sent.elapsed().as_secs_f64(),
            });
        }
        outcomes
    });
    let start = Instant::now();
    for slot in slots {
        pace(start, slot.offset);
        let sent = Instant::now();
        let ticket = match &slot.frame {
            Frame::Request(request) => server.submit(request.clone()),
            Frame::Malformed(line) => server.submit_line(line),
        };
        tx.send((sent, ticket)).expect("collector alive");
    }
    drop(tx);
    let outcomes = collector.join().expect("collector thread");
    DriveResult {
        elapsed_secs: start.elapsed().as_secs_f64(),
        outcomes,
    }
}

/// Drive a remote server over one TCP connection: a reader thread
/// matches response lines to send times positionally (the protocol
/// answers in input order per connection).
pub fn drive_tcp(addr: &str, slots: &[Slot]) -> std::io::Result<DriveResult> {
    let mut stream = TcpStream::connect(addr)?;
    // each request goes out as one whole line at its scheduled time;
    // Nagle would hold it back behind the previous one's ACK
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let sent: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));
    let sent_reader = sent.clone();
    let reader: JoinHandle<std::io::Result<Vec<Outcome>>> = std::thread::spawn(move || {
        let mut outcomes = Vec::new();
        for line in BufReader::new(reader_stream).lines() {
            let line = line?;
            let latency_secs = sent_reader
                .lock()
                .unwrap()
                .pop_front()
                .map(|t| t.elapsed().as_secs_f64())
                .unwrap_or(0.0);
            let status = serde_json::from_str::<PredictResponse>(&line)
                .map(|r| r.status.to_string())
                .unwrap_or_else(|_| "garbled".to_string());
            outcomes.push(Outcome {
                status,
                latency_secs,
            });
        }
        Ok(outcomes)
    });
    let start = Instant::now();
    for slot in slots {
        pace(start, slot.offset);
        let mut line = match &slot.frame {
            Frame::Request(request) => serde_json::to_string(request).expect("requests serialize"),
            Frame::Malformed(line) => line.clone(),
        };
        line.push('\n');
        sent.lock().unwrap().push_back(Instant::now());
        stream.write_all(line.as_bytes())?;
    }
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    let outcomes = reader.join().expect("reader thread")?;
    Ok(DriveResult {
        elapsed_secs: start.elapsed().as_secs_f64(),
        outcomes,
    })
}

/// The transport-fault mix to run alongside the measured load.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Clients that send a whole request plus half of a second one,
    /// then vanish without reading a byte.
    pub disconnects: usize,
    /// Clients that send half a line and then hold the connection
    /// open, silent, for `stall`.
    pub stalls: usize,
    /// How long a stalling client squats on its connection.
    pub stall: Duration,
}

impl FaultConfig {
    /// Whether any fault client is configured.
    pub fn is_active(&self) -> bool {
        self.disconnects > 0 || self.stalls > 0
    }
}

/// Launch the fault clients against `addr`.  Each returned handle
/// completes when its client has done its damage; join them after the
/// measured run to bound the test.  Connection errors are swallowed —
/// a server that refuses a fault client has survived it.
pub fn spawn_faults(addr: &str, faults: &FaultConfig) -> Vec<JoinHandle<()>> {
    let mut handles = Vec::new();
    for i in 0..faults.disconnects {
        let addr = addr.to_string();
        handles.push(std::thread::spawn(move || {
            let Ok(mut s) = TcpStream::connect(&addr) else {
                return;
            };
            let _ = writeln!(
                s,
                "{{\"id\":{},\"benchmark\":\"bt\",\"class\":\"S\",\"procs\":4,\"chain_len\":2}}",
                900_000 + i
            );
            // half a request, no newline — then the socket dies
            let _ = s.write_all(b"{\"benchmark\":\"bt\",\"class\":\"S\",\"pro");
            let _ = s.flush();
            let _ = s.shutdown(Shutdown::Both);
        }));
    }
    for _ in 0..faults.stalls {
        let addr = addr.to_string();
        let stall = faults.stall;
        handles.push(std::thread::spawn(move || {
            let Ok(mut s) = TcpStream::connect(&addr) else {
                return;
            };
            let _ = s.write_all(b"{\"benchmark\":");
            let _ = s.flush();
            std::thread::sleep(stall);
        }));
    }
    handles
}

/// Count exactly-once violations in a telemetry stream: the number of
/// extra executions beyond the first, summed over every cell key.
/// The campaign scheduler's one-drain-at-a-time dedup guarantees this
/// is 0; a load run asserts the guarantee holds under concurrent
/// traffic.
pub fn exactly_once_violations(events: &[TelemetryEvent]) -> u64 {
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for event in events {
        if let TelemetryEvent::CellExecuted { key, .. } = event {
            *counts.entry(key.as_str()).or_insert(0) += 1;
        }
    }
    counts.values().map(|c| c - 1).sum()
}

/// The exactly-once audit as a telemetry sink: counts `CellExecuted`
/// events per cell key as they arrive, so a hosted load run audits
/// its campaign without keeping the event stream.  Bounded by the
/// number of distinct cells executed; [`ExecutionAudit::violations`]
/// equals [`exactly_once_violations`] over the same events.
#[derive(Debug, Default)]
pub struct ExecutionAudit {
    executions: Mutex<HashMap<String, u64>>,
}

impl ExecutionAudit {
    /// An audit that has seen no executions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extra executions beyond the first, summed over every cell key.
    pub fn violations(&self) -> u64 {
        let counts = self.executions.lock().unwrap_or_else(|e| e.into_inner());
        counts.values().map(|c| c - 1).sum()
    }
}

impl TelemetrySink for ExecutionAudit {
    fn record(&self, event: TelemetryEvent) {
        if let TelemetryEvent::CellExecuted { key, .. } = event {
            let mut counts = self.executions.lock().unwrap_or_else(|e| e.into_inner());
            *counts.entry(key).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{schedule, WorkloadConfig};
    use kc_serve::{PredictRequest, PredictionEngine, PredictionReport, ServerConfig};

    /// Answers instantly from the request's fields; no measurement
    /// layer, so driver tests are fast and deterministic.
    struct EchoEngine;

    impl PredictionEngine for EchoEngine {
        fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
            batch
                .iter()
                .map(|r| {
                    Ok(PredictionReport {
                        benchmark: r.benchmark.to_lowercase(),
                        class: r.class.to_uppercase(),
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

    fn quick_cfg() -> WorkloadConfig {
        WorkloadConfig {
            rps: 500.0,
            duration: Duration::from_millis(200),
            malformed_every: 10,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn in_process_driver_answers_every_slot() {
        let server = Server::new(Arc::new(EchoEngine), ServerConfig::default());
        let slots = schedule(&quick_cfg());
        let result = drive_server(&server, &slots);
        server.shutdown();
        assert_eq!(result.outcomes.len(), slots.len());
        let ok = result.outcomes.iter().filter(|o| o.status == "ok").count();
        let errors = result
            .outcomes
            .iter()
            .filter(|o| o.status == "error")
            .count();
        assert_eq!(errors, 10, "every malformed frame drew an error");
        assert_eq!(ok + errors, slots.len());
        assert!(result.outcomes.iter().all(|o| o.latency_secs >= 0.0));
        assert!(result.elapsed_secs >= 0.19, "paced over the window");
    }

    #[test]
    fn tcp_driver_matches_responses_to_send_times() {
        let server = Arc::new(Server::new(Arc::new(EchoEngine), ServerConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(listener))
        };
        let slots = schedule(&quick_cfg());
        let result = drive_tcp(&addr, &slots).unwrap();
        assert_eq!(result.outcomes.len(), slots.len());
        assert!(result.outcomes.iter().any(|o| o.status == "ok"));
        assert!(result.outcomes.iter().any(|o| o.status == "error"));
        server.request_shutdown();
        acceptor.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn fault_clients_leave_the_server_answering() {
        let server = Arc::new(Server::new(Arc::new(EchoEngine), ServerConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let acceptor = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(listener))
        };
        let faults = FaultConfig {
            disconnects: 3,
            stalls: 2,
            stall: Duration::from_millis(100),
        };
        assert!(faults.is_active());
        let handles = spawn_faults(&addr, &faults);
        // measured load runs while the fault clients do their damage
        let slots = schedule(&WorkloadConfig {
            rps: 300.0,
            duration: Duration::from_millis(300),
            malformed_every: 0,
            ..WorkloadConfig::default()
        });
        let result = drive_tcp(&addr, &slots).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(result.outcomes.len(), slots.len());
        assert!(
            result.outcomes.iter().all(|o| o.status == "ok"),
            "the measured stream is untouched by concurrent fault clients"
        );
        // a follow-up client still gets answers after the carnage
        let follow_up = drive_tcp(&addr, &slots[..3]).unwrap();
        assert!(follow_up.outcomes.iter().all(|o| o.status == "ok"));
        server.request_shutdown();
        acceptor.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn exactly_once_counts_repeat_executions() {
        let cell = |key: &str| TelemetryEvent::CellExecuted {
            key: key.to_string(),
            duration_secs: 0.1,
            worker: "w0".to_string(),
        };
        assert_eq!(exactly_once_violations(&[]), 0);
        assert_eq!(
            exactly_once_violations(&[cell("a"), cell("b"), cell("c")]),
            0
        );
        assert_eq!(
            exactly_once_violations(&[cell("a"), cell("b"), cell("a"), cell("a")]),
            2,
            "`a` ran three times: two violations"
        );
    }

    #[test]
    fn the_streaming_audit_agrees_with_the_slice_oracle() {
        let cell = |key: &str| TelemetryEvent::CellExecuted {
            key: key.to_string(),
            duration_secs: 0.1,
            worker: "w0".to_string(),
        };
        let other = TelemetryEvent::CellStarted {
            key: "a".to_string(),
            worker: "w0".to_string(),
        };
        let stream = [cell("a"), other, cell("b"), cell("a"), cell("a")];
        let audit = ExecutionAudit::new();
        assert_eq!(audit.violations(), 0, "nothing seen yet");
        for event in stream.iter().cloned() {
            audit.record(event);
        }
        assert_eq!(audit.violations(), exactly_once_violations(&stream));
        assert_eq!(audit.violations(), 2);
    }
}
