//! The serving engine: bounded admission, a single batcher thread,
//! ordered response delivery and graceful drain.
//!
//! ## Threading model
//!
//! * **Admission** ([`Server::submit`] / [`Server::submit_line`])
//!   happens on the caller's thread and never blocks: a request is
//!   either enqueued (returning a pending [`Ticket`]) or rejected
//!   immediately (parse error → `error`, queue full or draining →
//!   `overloaded`) with a pre-filled ticket.  At most `max_inflight`
//!   requests are queued or resolving at once — memory is bounded no
//!   matter how fast clients submit.
//! * **Batching**: one batcher thread repeatedly takes up to
//!   `max_batch` queued requests and resolves them through a single
//!   [`PredictionEngine::predict_batch`] call.  Engines resolve a
//!   batch's cell needs through a shared cache/scheduler, so
//!   duplicate cells across in-flight requests execute exactly once
//!   and executor concurrency stays bounded by the engine's `--jobs`
//!   pool — the server itself never spawns per-request work.
//! * **Delivery**: transports wait on tickets **in submission order**,
//!   so the response stream is deterministic for a given input stream
//!   regardless of batch splits or engine parallelism.  Each response
//!   is encoded with its newline into one buffer and written once,
//!   through a buffered writer: responses whose tickets are already
//!   filled coalesce into one write.  The writer flushes before every
//!   blocking wait — for the next ticket, or for the next ticket's
//!   response — so an answered request never sits in the buffer.  TCP
//!   connections set `TCP_NODELAY`, so a whole-line write leaves at
//!   once instead of waiting for the client's delayed ACK.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] marks the queue draining (new submissions get
//! `overloaded`), lets the batcher finish every queued request, and
//! joins it.  Pipe transports drain naturally at EOF: every submitted
//! ticket is waited and written before [`Server::serve_pipe`] returns.

use crate::metrics::ServeMetrics;
use crate::protocol::{
    encode_response, parse_request, PredictRequest, PredictResponse, PredictionReport, Status,
};
use kc_core::{TelemetryEvent, TelemetrySink};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolves batches of prediction requests.
///
/// One call resolves every request in the batch; implementations
/// should funnel the batch's measurement needs through a shared
/// cache/scheduler so duplicates across requests execute exactly
/// once.  Per-request failures are values, not panics.
pub trait PredictionEngine: Send + Sync {
    /// Resolve `batch`, returning one result per request, in order.
    fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>>;
}

/// Admission and batching limits.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Max requests queued or resolving at once; beyond this,
    /// submissions get `overloaded` responses.
    pub max_inflight: usize,
    /// Max requests resolved per engine call.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight: 256,
            max_batch: 64,
        }
    }
}

/// A claim on one response: filled by the batcher (or pre-filled at
/// admission), waited on by the transport.
#[derive(Clone)]
pub struct Ticket(Arc<TicketState>);

#[derive(Default)]
struct TicketState {
    slot: Mutex<Option<PredictResponse>>,
    ready: Condvar,
}

impl Ticket {
    fn pending() -> Self {
        Self(Arc::default())
    }

    fn filled(response: PredictResponse) -> Self {
        let t = Self::pending();
        t.fill(response);
        t
    }

    fn fill(&self, response: PredictResponse) {
        *self.0.slot.lock().unwrap() = Some(response);
        self.0.ready.notify_all();
    }

    /// Whether [`Ticket::wait`] would return without blocking.
    fn is_ready(&self) -> bool {
        self.0.slot.lock().unwrap().is_some()
    }

    /// Block until the response is available.
    pub fn wait(&self) -> PredictResponse {
        let mut slot = self.0.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.0.ready.wait(slot).unwrap();
        }
        slot.clone().expect("slot filled")
    }
}

struct Pending {
    request: PredictRequest,
    ticket: Ticket,
    admitted: Instant,
    /// Admission sequence number: the FIFO tie-break for batch
    /// formation (and the whole order when no deadlines are present).
    seq: u64,
    /// When the request's deadline passes, if it has one.
    expires_at: Option<Instant>,
}

struct Queue {
    pending: VecDeque<Pending>,
    /// Submitted but not yet answered (queued + resolving).
    inflight: usize,
    next_seq: u64,
    draining: bool,
}

struct Shared {
    engine: Arc<dyn PredictionEngine>,
    config: ServerConfig,
    queue: Mutex<Queue>,
    work: Condvar,
    metrics: Arc<ServeMetrics>,
    sink: Mutex<Option<Arc<dyn TelemetrySink>>>,
}

impl Shared {
    fn emit(
        &self,
        request: &PredictRequest,
        status: &str,
        batch_size: u64,
        duration_secs: f64,
        deadline_slack_secs: f64,
    ) {
        if let Some(sink) = self.sink.lock().unwrap().clone() {
            sink.record(TelemetryEvent::RequestServed {
                request: request.describe(),
                status: status.to_string(),
                batch_size,
                duration_secs,
                deadline_slack_secs,
            });
        }
    }

    /// Answer one admitted request: metrics, telemetry, ticket.
    fn finish(&self, pending: &Pending, response: PredictResponse, batch_size: u64) {
        let latency = pending.admitted.elapsed().as_secs_f64();
        // budget left when the response landed; negative = missed
        let slack = pending
            .request
            .deadline_ms
            .map(|ms| ms / 1e3 - latency)
            .unwrap_or(0.0);
        self.metrics
            .record_request(response.status.as_str(), latency);
        self.emit(
            &pending.request,
            response.status.as_str(),
            batch_size,
            latency,
            slack,
        );
        pending.ticket.fill(response);
        self.queue.lock().unwrap().inflight -= 1;
    }
}

fn batcher_loop(shared: &Shared) {
    loop {
        let batch: Vec<Pending> = {
            let mut q = shared.queue.lock().unwrap();
            while q.pending.is_empty() && !q.draining {
                q = shared.work.wait(q).unwrap();
            }
            if q.pending.is_empty() {
                // draining and nothing left: every admitted request
                // has been answered
                return;
            }
            let n = q.pending.len().min(shared.config.max_batch);
            // Earliest-deadline-first batch formation: requests with
            // deadlines sort ahead of deadline-free ones, the
            // admission sequence breaks every tie.  A stream with no
            // deadlines therefore batches strictly FIFO — bit-for-bit
            // the pre-deadline behaviour.
            q.pending
                .make_contiguous()
                .sort_by(|a, b| match (a.expires_at, b.expires_at) {
                    (Some(x), Some(y)) => x.cmp(&y).then(a.seq.cmp(&b.seq)),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => a.seq.cmp(&b.seq),
                });
            q.pending.drain(..n).collect()
        };
        // Shed requests whose deadline already passed in the queue:
        // the client has given up, so answering `deadline` immediately
        // costs nothing, while resolving them would burn engine batch
        // capacity urgent requests are waiting for.
        let now = Instant::now();
        let (expired, batch): (Vec<Pending>, Vec<Pending>) = batch
            .into_iter()
            .partition(|p| p.expires_at.is_some_and(|t| t <= now));
        for pending in &expired {
            let ms = pending.request.deadline_ms.unwrap_or(0.0);
            let response = PredictResponse::new(
                pending.request.id,
                Status::Deadline,
                Err(format!("deadline of {ms} ms expired in queue")),
            );
            shared.finish(pending, response, 0);
        }
        if batch.is_empty() {
            continue;
        }
        let requests: Vec<PredictRequest> = batch.iter().map(|p| p.request.clone()).collect();
        shared.metrics.record_batch(batch.len());
        let results = catch_unwind(AssertUnwindSafe(|| shared.engine.predict_batch(&requests)))
            .unwrap_or_else(|_| {
                batch
                    .iter()
                    .map(|_| Err("engine panicked".to_string()))
                    .collect()
            });
        let batch_size = batch.len() as u64;
        for (i, pending) in batch.iter().enumerate() {
            let id = pending.request.id;
            let response = match results.get(i) {
                Some(Ok(report)) => PredictResponse::new(id, Status::Ok, Ok(report.clone())),
                Some(Err(message)) => PredictResponse::new(id, Status::Error, Err(message.clone())),
                // an engine that returned too few results is a bug;
                // answer rather than hang the ticket
                None => PredictResponse::new(
                    id,
                    Status::Error,
                    Err("engine returned too few results".to_string()),
                ),
            };
            shared.finish(pending, response, batch_size);
        }
    }
}

/// The prediction server: admission control + batcher + transports.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    shutdown_requested: Arc<AtomicBool>,
}

impl Server {
    /// Start a server (and its batcher thread) over `engine`.
    pub fn new(engine: Arc<dyn PredictionEngine>, config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            engine,
            config,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                inflight: 0,
                next_seq: 0,
                draining: false,
            }),
            work: Condvar::new(),
            metrics: Arc::new(ServeMetrics::new()),
            sink: Mutex::new(None),
        });
        let batcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("kc-serve-batcher".into())
                .spawn(move || batcher_loop(&shared))
                .expect("spawn batcher")
        };
        Self {
            shared,
            batcher: Mutex::new(Some(batcher)),
            shutdown_requested: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Attach a telemetry sink; every subsequently answered request
    /// emits a `RequestServed` event into it.
    pub fn attach_sink(&self, sink: Arc<dyn TelemetrySink>) {
        *self.shared.sink.lock().unwrap() = Some(sink);
    }

    /// The serve-metrics collector.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.shared.metrics.clone()
    }

    /// The flag [`Server::serve_tcp`] polls; setting it (e.g. from a
    /// signal handler) stops the accept loop.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown_requested.clone()
    }

    /// Ask the TCP accept loop to stop after in-flight connections
    /// complete.
    pub fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Submit one parsed request.  Never blocks: returns a pending
    /// ticket, or one pre-filled with an `overloaded` response when
    /// the queue is full or the server is draining.
    pub fn submit(&self, request: PredictRequest) -> Ticket {
        let ticket = Ticket::pending();
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.draining {
                drop(q);
                return self.reject(&request, "server draining");
            }
            if q.inflight >= self.shared.config.max_inflight {
                let limit = self.shared.config.max_inflight;
                drop(q);
                return self.reject(&request, format!("queue full ({limit} in flight)"));
            }
            q.inflight += 1;
            let admitted = Instant::now();
            // clamp hostile deadline values so admission never panics:
            // NaN and non-positive budgets expire immediately, huge or
            // infinite ones saturate at a year
            let expires_at = request.deadline_ms.map(|ms| {
                if ms > 0.0 {
                    admitted + Duration::from_secs_f64((ms / 1e3).min(365.0 * 86_400.0))
                } else {
                    admitted
                }
            });
            let seq = q.next_seq;
            q.next_seq += 1;
            q.pending.push_back(Pending {
                request,
                ticket: ticket.clone(),
                admitted,
                seq,
                expires_at,
            });
            self.shared.metrics.observe_queue_depth(q.pending.len());
        }
        self.shared.work.notify_one();
        ticket
    }

    fn reject(&self, request: &PredictRequest, message: impl Into<String>) -> Ticket {
        let response = PredictResponse::new(request.id, Status::Overloaded, Err(message.into()));
        self.shared
            .metrics
            .record_request(response.status.as_str(), 0.0);
        self.shared
            .emit(request, response.status.as_str(), 0, 0.0, 0.0);
        Ticket::filled(response)
    }

    /// Parse and submit one request line.  A line that does not parse
    /// gets an immediate `error` ticket (id 0 — the id was part of
    /// what failed to parse).
    pub fn submit_line(&self, line: &str) -> Ticket {
        match parse_request(line) {
            Ok(request) => self.submit(request),
            Err(message) => {
                let response = PredictResponse::new(0, Status::Error, Err(message));
                self.shared
                    .metrics
                    .record_request(response.status.as_str(), 0.0);
                Ticket::filled(response)
            }
        }
    }

    /// Serve a line-delimited request stream: one response line per
    /// request line, in input order.  Reading and response-writing
    /// overlap (a writer thread waits on tickets in order while the
    /// reader keeps admitting), so consecutive requests batch in the
    /// engine.  Responses whose tickets are already filled go out
    /// together; the writer flushes before it waits for anything, so
    /// no answered request sits in its buffer.  Returns after EOF once
    /// every response is written and flushed.
    pub fn serve_pipe<R, W>(&self, reader: R, writer: W) -> std::io::Result<()>
    where
        R: BufRead,
        W: Write + Send,
    {
        let (tx, rx) = mpsc::channel::<Ticket>();
        std::thread::scope(|scope| {
            let write_responses = scope.spawn(move || -> std::io::Result<()> {
                let mut out = BufWriter::new(writer);
                loop {
                    let ticket = match rx.try_recv() {
                        Ok(ticket) => ticket,
                        Err(_) => {
                            out.flush()?;
                            match rx.recv() {
                                Ok(ticket) => ticket,
                                Err(_) => break,
                            }
                        }
                    };
                    if !ticket.is_ready() {
                        out.flush()?;
                    }
                    // the line and its newline in one buffer, so the
                    // transport never receives half a response
                    let mut line = encode_response(&ticket.wait());
                    line.push('\n');
                    out.write_all(line.as_bytes())?;
                }
                out.flush()
            });
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                if tx.send(self.submit_line(&line)).is_err() {
                    break; // writer failed; stop admitting
                }
            }
            drop(tx);
            write_responses
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("response writer panicked")))?;
            Ok(())
        })
    }

    /// Accept TCP connections until [`Server::request_shutdown`], each
    /// served as an independent pipe stream; concurrent connections
    /// share the batcher, so their requests batch together.  Returns
    /// after every accepted connection has drained.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            while !self.shutdown_requested.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        scope.spawn(move || -> std::io::Result<()> {
                            stream.set_nonblocking(false)?;
                            // responses are whole lines written once:
                            // Nagle would only hold each one back
                            // until the client's delayed ACK
                            stream.set_nodelay(true)?;
                            let reader = BufReader::new(stream.try_clone()?);
                            self.serve_pipe(reader, stream)
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
            // scope exit joins the per-connection threads: shutdown
            // drains in-flight connections before returning
        })
    }

    /// Drain and stop the batcher: new submissions get `overloaded`,
    /// every already-admitted request is answered, then the batcher
    /// thread exits and is joined.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.draining = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.batcher.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kc_core::MemorySink;

    /// Answers every request from the request's own fields; optional
    /// gate blocks resolution until released, so tests can control
    /// batch boundaries deterministically.
    struct MockEngine {
        gate: Option<Arc<(Mutex<bool>, Condvar)>>,
        calls: Mutex<Vec<Vec<u64>>>,
    }

    impl MockEngine {
        fn new() -> Self {
            Self {
                gate: None,
                calls: Mutex::new(Vec::new()),
            }
        }

        fn gated() -> (Self, Arc<(Mutex<bool>, Condvar)>) {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            (
                Self {
                    gate: Some(gate.clone()),
                    calls: Mutex::new(Vec::new()),
                },
                gate,
            )
        }

        fn batch_sizes(&self) -> Vec<usize> {
            self.calls.lock().unwrap().iter().map(Vec::len).collect()
        }

        fn seen_ids(&self) -> Vec<u64> {
            self.calls
                .lock()
                .unwrap()
                .iter()
                .flatten()
                .copied()
                .collect()
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    fn report_for(request: &PredictRequest) -> PredictionReport {
        PredictionReport {
            benchmark: request.benchmark.to_lowercase(),
            class: request.class.to_uppercase(),
            procs: request.procs,
            chain_len: request.chain_len,
            loop_iterations: 100,
            overhead_secs: 1.0,
            actual_secs: 10.0,
            coupled_secs: 9.9,
            summation_secs: 9.0,
            coupled_rel_err_pct: -1.0,
            summation_rel_err_pct: -10.0,
            kernels: Vec::new(),
        }
    }

    impl PredictionEngine for MockEngine {
        fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
            if let Some(gate) = &self.gate {
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            }
            self.calls
                .lock()
                .unwrap()
                .push(batch.iter().map(|r| r.id).collect());
            batch
                .iter()
                .map(|r| {
                    if r.benchmark == "nope" {
                        Err(format!("unknown benchmark `{}`", r.benchmark))
                    } else {
                        Ok(report_for(r))
                    }
                })
                .collect()
        }
    }

    fn request(id: u64, benchmark: &str) -> PredictRequest {
        PredictRequest {
            id,
            benchmark: benchmark.into(),
            class: "S".into(),
            procs: 4,
            chain_len: 2,
            fine: false,
            deadline_ms: None,
        }
    }

    fn deadline_request(id: u64, deadline_ms: f64) -> PredictRequest {
        PredictRequest {
            deadline_ms: Some(deadline_ms),
            ..request(id, "bt")
        }
    }

    fn line(id: u64) -> String {
        format!(r#"{{"id":{id},"benchmark":"bt","class":"S","procs":4,"chain_len":2}}"#)
    }

    #[test]
    fn requests_resolve_and_echo_ids() {
        let server = Server::new(Arc::new(MockEngine::new()), ServerConfig::default());
        let t1 = server.submit(request(7, "bt"));
        let t2 = server.submit(request(8, "nope"));
        let r1 = t1.wait();
        let r2 = t2.wait();
        assert_eq!(r1.id, 7);
        assert_eq!(r1.status, Status::Ok);
        assert_eq!(r1.result.unwrap().benchmark, "bt");
        assert_eq!(r2.id, 8);
        assert_eq!(r2.status, Status::Error, "engine errors are responses");
        assert!(r2.error.unwrap().contains("nope"));
        server.shutdown();
        let report = server.metrics().report();
        assert_eq!(report.requests, 2);
        assert_eq!(report.ok, 1);
        assert_eq!(report.errors, 1);
    }

    #[test]
    fn malformed_lines_get_error_responses_without_reaching_the_engine() {
        let server = Server::new(Arc::new(MockEngine::new()), ServerConfig::default());
        let r = server.submit_line("this is not json").wait();
        assert_eq!(r.status, Status::Error);
        assert_eq!(r.id, 0, "no id could be parsed");
        assert!(r.error.unwrap().contains("bad request"));
        server.shutdown();
    }

    #[test]
    fn queued_requests_batch_through_one_engine_call() {
        let (engine, gate) = MockEngine::gated();
        let engine = Arc::new(engine);
        let server = Server::new(engine.clone(), ServerConfig::default());
        // first submission occupies the batcher at the closed gate;
        // the rest pile up in the queue
        let first = server.submit(request(0, "bt"));
        std::thread::sleep(Duration::from_millis(30));
        let rest: Vec<Ticket> = (1..=5).map(|i| server.submit(request(i, "bt"))).collect();
        open_gate(&gate);
        first.wait();
        for t in &rest {
            t.wait();
        }
        server.shutdown();
        let sizes = engine.batch_sizes();
        assert!(
            sizes.iter().any(|&s| s >= 2),
            "queued requests coalesce into one batch, got {sizes:?}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), 6, "every request resolved");
        assert!(server.metrics().report().batch_max >= 2);
    }

    #[test]
    fn admission_control_rejects_beyond_max_inflight() {
        let (engine, gate) = MockEngine::gated();
        let server = Server::new(
            Arc::new(engine),
            ServerConfig {
                max_inflight: 2,
                max_batch: 1,
            },
        );
        let admitted: Vec<Ticket> = (0..2).map(|i| server.submit(request(i, "bt"))).collect();
        let rejected = server.submit(request(99, "bt")).wait();
        assert_eq!(rejected.status, Status::Overloaded);
        assert_eq!(rejected.id, 99, "rejections still echo the id");
        assert!(rejected.error.unwrap().contains("queue full"));
        open_gate(&gate);
        for t in &admitted {
            assert_eq!(t.wait().status, Status::Ok, "admitted requests complete");
        }
        server.shutdown();
        assert_eq!(server.metrics().report().overloaded, 1);
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_rejects_new_ones() {
        let (engine, gate) = MockEngine::gated();
        let server = Server::new(Arc::new(engine), ServerConfig::default());
        let admitted = server.submit(request(1, "bt"));
        open_gate(&gate);
        server.shutdown();
        assert_eq!(admitted.wait().status, Status::Ok, "drained before exit");
        let after = server.submit(request(2, "bt")).wait();
        assert_eq!(after.status, Status::Overloaded);
        assert!(after.error.unwrap().contains("draining"));
        server.shutdown(); // idempotent
    }

    #[test]
    fn serve_pipe_answers_in_input_order_and_flushes_at_eof() {
        let server = Server::new(Arc::new(MockEngine::new()), ServerConfig::default());
        let input = format!("{}\n{}\nnot json\n\n{}\n", line(3), line(1), line(2));
        let mut output = Vec::new();
        server
            .serve_pipe(std::io::Cursor::new(input), &mut output)
            .unwrap();
        server.shutdown();
        let lines: Vec<String> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(
            lines.len(),
            4,
            "blank lines are skipped, bad lines answered"
        );
        let ids: Vec<u64> = lines
            .iter()
            .map(|l| serde_json::from_str::<PredictResponse>(l).unwrap().id)
            .collect();
        assert_eq!(ids, vec![3, 1, 0, 2], "input order, parse failures as id 0");
    }

    /// A request stream that yields `first`, then blocks until
    /// `release` is signalled or dropped, then yields `rest` and EOF.
    struct HeldReader {
        first: Option<String>,
        release: mpsc::Receiver<()>,
        rest: Option<String>,
    }

    impl std::io::Read for HeldReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let next = match self.first.take() {
                Some(first) => Some(first),
                None => {
                    let _ = self.release.recv();
                    self.rest.take()
                }
            };
            let Some(bytes) = next else { return Ok(0) };
            assert!(bytes.len() <= buf.len(), "test lines fit one read");
            buf[..bytes.len()].copy_from_slice(bytes.as_bytes());
            Ok(bytes.len())
        }
    }

    /// Hands every `write` it receives to the test, whole.
    struct RecordingWriter(mpsc::Sender<Vec<u8>>);

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The writer flushes before it blocks: a response is delivered
    /// while the client has not yet sent (or closed) anything more,
    /// and every write the transport sees is whole lines.
    #[test]
    fn serve_pipe_flushes_each_response_before_blocking() {
        let server = Arc::new(Server::new(
            Arc::new(MockEngine::new()),
            ServerConfig::default(),
        ));
        let (release, held) = mpsc::channel();
        let (writes_tx, writes) = mpsc::channel();
        let reader = HeldReader {
            first: Some(format!("{}\n", line(1))),
            release: held,
            rest: Some(format!("{}\n{}\n", line(2), line(3))),
        };
        let pipe = {
            let server = server.clone();
            std::thread::spawn(move || {
                server.serve_pipe(BufReader::new(reader), RecordingWriter(writes_tx))
            })
        };
        let first = writes.recv_timeout(Duration::from_secs(10));
        // let the reader go whatever happened, so a failure cannot hang
        drop(release);
        pipe.join().unwrap().unwrap();
        server.shutdown();
        let first = first.expect("the response was written while the reader still blocked");

        // the ids each write carried, write by write
        let writes: Vec<Vec<u64>> = std::iter::once(first)
            .chain(writes.try_iter())
            .map(|chunk| {
                let text = String::from_utf8(chunk).unwrap();
                assert!(text.ends_with('\n'), "a write ended mid-line: {text:?}");
                text.lines()
                    .map(|l| serde_json::from_str::<PredictResponse>(l).unwrap().id)
                    .collect()
            })
            .collect();
        assert_eq!(
            writes[0],
            vec![1],
            "the first write answers the first request"
        );
        assert_eq!(writes.concat(), vec![1, 2, 3]);
    }

    #[test]
    fn serve_tcp_serves_connections_until_shutdown() {
        let server = Arc::new(Server::new(
            Arc::new(MockEngine::new()),
            ServerConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(listener))
        };
        {
            use std::io::{BufRead, BufReader, Write};
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .write_all(format!("{}\n{}\n", line(5), line(6)).as_bytes())
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let reader = BufReader::new(stream);
            let responses: Vec<PredictResponse> = reader
                .lines()
                .map(|l| serde_json::from_str(&l.unwrap()).unwrap())
                .collect();
            assert_eq!(responses.len(), 2);
            assert_eq!(responses[0].id, 5);
            assert_eq!(responses[1].id, 6);
            assert!(responses.iter().all(|r| r.status == Status::Ok));
        }
        server.request_shutdown();
        acceptor.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn answered_requests_emit_request_served_telemetry() {
        let server = Server::new(Arc::new(MockEngine::new()), ServerConfig::default());
        let sink = Arc::new(MemorySink::new());
        server.attach_sink(sink.clone());
        server.submit(request(1, "bt")).wait();
        server.submit_line("garbage"); // parse errors skip telemetry: no request to describe
        server.shutdown();
        let events = sink.events();
        let served: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::RequestServed {
                    request,
                    status,
                    batch_size,
                    ..
                } => Some((request.clone(), status.clone(), *batch_size)),
                _ => None,
            })
            .collect();
        assert_eq!(
            served,
            vec![("bt/S/p4/len2".to_string(), "ok".to_string(), 1)]
        );
    }

    #[test]
    fn deadline_requests_jump_deadline_free_ones_in_the_queue() {
        let (engine, gate) = MockEngine::gated();
        let engine = Arc::new(engine);
        let server = Server::new(
            engine.clone(),
            ServerConfig {
                max_inflight: 256,
                max_batch: 1,
            },
        );
        // first submission occupies the batcher at the closed gate;
        // the rest queue behind it
        let first = server.submit(request(0, "bt"));
        std::thread::sleep(Duration::from_millis(30));
        let slow: Vec<Ticket> = (1..=2).map(|i| server.submit(request(i, "bt"))).collect();
        let urgent = server.submit(deadline_request(9, 60_000.0));
        open_gate(&gate);
        first.wait();
        urgent.wait();
        for t in &slow {
            t.wait();
        }
        server.shutdown();
        assert_eq!(
            engine.seen_ids(),
            vec![0, 9, 1, 2],
            "the deadlined request is batched ahead of earlier deadline-free ones"
        );
    }

    #[test]
    fn deadline_free_streams_resolve_strictly_fifo() {
        let (engine, gate) = MockEngine::gated();
        let engine = Arc::new(engine);
        let server = Server::new(
            engine.clone(),
            ServerConfig {
                max_inflight: 256,
                max_batch: 1,
            },
        );
        let first = server.submit(request(0, "bt"));
        std::thread::sleep(Duration::from_millis(30));
        let rest: Vec<Ticket> = (1..=4).map(|i| server.submit(request(i, "bt"))).collect();
        open_gate(&gate);
        first.wait();
        for t in &rest {
            t.wait();
        }
        server.shutdown();
        assert_eq!(
            engine.seen_ids(),
            vec![0, 1, 2, 3, 4],
            "no deadlines: admission order is batch order"
        );
    }

    #[test]
    fn expired_deadlines_are_shed_without_reaching_the_engine() {
        let (engine, gate) = MockEngine::gated();
        let engine = Arc::new(engine);
        let server = Server::new(engine.clone(), ServerConfig::default());
        let first = server.submit(request(0, "bt"));
        std::thread::sleep(Duration::from_millis(30));
        // a 5 ms budget that is guaranteed to lapse while the gate
        // holds the batcher
        let doomed = server.submit(deadline_request(7, 5.0));
        std::thread::sleep(Duration::from_millis(30));
        open_gate(&gate);
        assert_eq!(first.wait().status, Status::Ok);
        let shed = doomed.wait();
        assert_eq!(shed.status, Status::Deadline);
        assert_eq!(shed.id, 7);
        assert!(shed.error.unwrap().contains("expired"));
        server.shutdown();
        assert_eq!(
            engine.seen_ids(),
            vec![0],
            "the expired request never reached the engine"
        );
        let report = server.metrics().report();
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn hostile_deadline_values_shed_immediately_without_panicking() {
        let (engine, gate) = MockEngine::gated();
        let server = Server::new(Arc::new(engine), ServerConfig::default());
        let first = server.submit(request(0, "bt"));
        std::thread::sleep(Duration::from_millis(30));
        let tickets: Vec<Ticket> = [f64::NAN, f64::NEG_INFINITY, -5.0, 0.0, f64::INFINITY]
            .into_iter()
            .enumerate()
            .map(|(i, ms)| server.submit(deadline_request(i as u64 + 1, ms)))
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        open_gate(&gate);
        assert_eq!(first.wait().status, Status::Ok);
        for (i, t) in tickets.iter().enumerate() {
            let r = t.wait();
            if i + 1 == 5 {
                // +inf is a real (unbounded-but-clamped) budget
                assert_eq!(r.status, Status::Ok, "infinite deadline still resolves");
            } else {
                assert_eq!(r.status, Status::Deadline, "non-budget value {i} sheds");
            }
        }
        server.shutdown();
    }

    #[test]
    fn deadline_slack_rides_into_request_served_telemetry() {
        let server = Server::new(Arc::new(MockEngine::new()), ServerConfig::default());
        let sink = Arc::new(MemorySink::new());
        server.attach_sink(sink.clone());
        server.submit(deadline_request(1, 60_000.0)).wait();
        server.submit(request(2, "bt")).wait();
        server.shutdown();
        let slacks: Vec<f64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::RequestServed {
                    deadline_slack_secs,
                    ..
                } => Some(*deadline_slack_secs),
                _ => None,
            })
            .collect();
        assert_eq!(slacks.len(), 2);
        assert!(
            slacks[0] > 0.0 && slacks[0] <= 60.0,
            "a met deadline leaves positive slack, got {}",
            slacks[0]
        );
        assert_eq!(slacks[1], 0.0, "no deadline reports zero slack");
    }
}
