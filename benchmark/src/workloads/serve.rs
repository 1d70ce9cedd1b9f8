//! `serve_session`: a `kc_served --listen` child process driven over
//! one TCP connection, the way scripts (one request at a time) and
//! pipelines (many outstanding) use it.

use super::setups;
use crate::campaign_trace::{set_experiments_layers, TraceDigest, TracedChild};
use crate::harness::{parse_cache_line, parse_listening_line, Env, CHILD_FLAGS};
use crate::report::{Gate, Layers, Outcome};
use crate::spans::Tracer;
use crate::stats::{self, Latency};
use crate::sys;
use rand::SmallRng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Stdio};
use std::time::{Duration, Instant};

/// The spec nine in ten requests of the hit phases repeat.
const HOT_SPEC: Spec = Spec("bt", 'S', 4, 2);

/// Outstanding requests in the saturation phase.
const WINDOW: usize = 32;

/// Open-loop rungs of the traced run, requests per second.  Both sit
/// well below the capacity knee (near 4000 here, where identical runs
/// varied fivefold and the server began to refuse requests).
const RUNGS: [u32; 2] = [500, 2000];

/// Latency limit for `serve.max_rate_in_limit_rps`, on the p99.
const LIMIT_MS: f64 = 10.0;

/// A rung whose generator ran later than this (p99) reports nothing.
const MAX_LATE_MS: f64 = 5.0;

/// Requests of the two closed-loop phases per second of `--seconds`.
/// The phases are sized in requests, not time, so that a faster server
/// answers the same number: its memory (it keeps per-request
/// telemetry) and CPU per request stay comparable between commits.
/// At today's speed (44 ms and 1.4 ms per request) they take about
/// 0.45 and 0.3 of `--seconds`.
const SYNC_REQUESTS_PER_SEC: f64 = 10.0;
const WINDOW_REQUESTS_PER_SEC: f64 = 200.0;

/// The traced run's phases: about two seconds each at today's speed.
const TRACE_SYNC_REQUESTS: usize = 50;
const TRACE_WINDOW_REQUESTS: usize = 1500;
const TRACE_RUNG_SECS: f64 = 2.0;

/// How long a server may take to drain after SIGTERM before it is
/// killed.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// benchmark, class, processors, chain length.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Spec(&'static str, char, usize, usize);

/// The 36 first-time specs of the start-up phase: small classes on
/// many ranks, where messages and rank dispatch — not cache-line
/// accesses — dominate a cell.
fn startup_specs() -> Vec<Spec> {
    let grids: [(&str, [usize; 3]); 3] = [
        ("bt", [9, 16, 25]),
        ("sp", [9, 16, 25]),
        ("lu", [8, 16, 32]),
    ];
    let mut specs = Vec::new();
    for (benchmark, procs) in grids {
        for p in procs {
            for class in ['S', 'W'] {
                for chain_len in [2, 3] {
                    specs.push(Spec(benchmark, class, p, chain_len));
                }
            }
        }
    }
    specs
}

fn request_line(id: u64, spec: Spec) -> String {
    let Spec(benchmark, class, procs, chain_len) = spec;
    format!(
        "{{\"id\":{id},\"benchmark\":\"{benchmark}\",\"class\":\"{class}\",\"procs\":{procs},\"chain_len\":{chain_len}}}\n"
    )
}

/// The seeded request mix of the hit phases: 90 % the hot spec, 10 %
/// spread over the start-up specs.  Ids count up across the session.
struct Mix {
    rng: SmallRng,
    cold: Vec<Spec>,
    next_id: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            cold: startup_specs(),
            next_id: 1,
        }
    }

    /// The next request: its id and its wire line.
    fn next(&mut self) -> (u64, String) {
        let spec = if self.rng.gen_f64() < 0.9 {
            HOT_SPEC
        } else {
            self.cold[self.rng.gen_range(0..self.cold.len() as u64) as usize]
        };
        self.request(spec)
    }

    fn request(&mut self, spec: Spec) -> (u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        (id, request_line(id, spec))
    }
}

/// Check that `line` is the `ok` response to request `id`.  Responses
/// always start `{"id":N,"status":"...",`, so a prefix comparison
/// checks both without parsing a kilobyte of JSON per request.
fn check_ok(line: &str, id: u64) -> Result<(), String> {
    let expected = format!("{{\"id\":{id},\"status\":\"ok\",");
    if line.starts_with(&expected) {
        Ok(())
    } else {
        let shown: String = line.chars().take(80).collect();
        Err(format!("request {id} answered `{shown}`"))
    }
}

/// A running `kc_served`; stopped (SIGTERM, then kill) when dropped,
/// whichever way the harness leaves.
struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    reaped: bool,
}

impl Server {
    /// Start a server on an ephemeral port; returns it with the
    /// address it announced.
    fn spawn(env: &Env, store: &Path, trace: Option<&Path>) -> io::Result<(Self, SocketAddr)> {
        let mut cmd = env.bin("kc_served");
        cmd.args(["--listen", "127.0.0.1:0"])
            .arg("--store")
            .arg(format!("sharded:{}", store.display()))
            .args(CHILD_FLAGS);
        if let Some(file) = trace {
            cmd.arg("--trace").arg(file).arg("--metrics");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        // from here on the child is stopped however this function ends
        let mut server = Self {
            child,
            stderr,
            reaped: false,
        };
        let mut first = String::new();
        server.stderr.read_line(&mut first)?;
        let addr = parse_listening_line(first.trim_end()).ok_or_else(|| {
            io::Error::other(format!("kc_served did not announce a port: `{first}`"))
        })?;
        Ok((server, addr))
    }

    /// Terminate the server and return what it printed while draining.
    /// The client must have closed its connection: the server waits
    /// for open connections before it exits.
    fn stop(&mut self) -> io::Result<String> {
        if self.reaped {
            return Ok(String::new());
        }
        sys::terminate(self.child.id());
        let asked = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if asked.elapsed() > DRAIN_LIMIT {
                self.child.kill()?;
                break self.child.wait()?;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.reaped = true;
        let mut rest = String::new();
        self.stderr.read_to_string(&mut rest)?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "kc_served exited with {status}: {rest}"
            )));
        }
        Ok(rest)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // errors cannot be reported from here; `stop` already killed
        // and reaped the child if it could
        let _ = self.stop();
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The harness's one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "kc_served closed the connection",
            ));
        }
        Ok(line)
    }

    /// Send one request, wait for its response; seconds it took.
    fn exchange(&mut self, id: u64, line: &str, gate: &mut Gate) -> io::Result<f64> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let response = self.read_line()?;
        let secs = start.elapsed().as_secs_f64();
        gate.check(check_ok(&response, id));
        Ok(secs)
    }

    /// Replay the committed smoke requests and compare the transcript
    /// with the golden one, byte for byte.
    fn replay_smoke(&mut self, env: &Env) -> io::Result<Result<(), String>> {
        let requests = std::fs::read_to_string(env.scripts.join("serve_smoke_requests.jsonl"))?;
        let golden = std::fs::read_to_string(env.golden.join("serve_smoke.jsonl"))?;
        self.writer.write_all(requests.as_bytes())?;
        let mut transcript = String::new();
        for _ in requests.lines() {
            transcript.push_str(&self.read_line()?);
        }
        Ok(if transcript == golden {
            Ok(())
        } else {
            Err("smoke transcript differs from artifacts/golden/serve_smoke.jsonl".into())
        })
    }

    /// Closed loop, one outstanding, `count` requests: latencies in
    /// seconds.
    fn sync_phase(&mut self, mix: &mut Mix, count: usize, gate: &mut Gate) -> io::Result<Vec<f64>> {
        let mut latencies = Vec::with_capacity(count);
        for _ in 0..count {
            let (id, line) = mix.next();
            latencies.push(self.exchange(id, &line, gate)?);
        }
        Ok(latencies)
    }

    /// Closed loop, `WINDOW` outstanding, `count` requests: each
    /// completion releases the next request.  Completions per second.
    fn window_phase(&mut self, mix: &mut Mix, count: usize, gate: &mut Gate) -> io::Result<f64> {
        let mut outstanding = std::collections::VecDeque::new();
        let mut unsent = count;
        let start = Instant::now();
        loop {
            while unsent > 0 && outstanding.len() < WINDOW {
                let (id, line) = mix.next();
                self.writer.write_all(line.as_bytes())?;
                outstanding.push_back(id);
                unsent -= 1;
            }
            let Some(id) = outstanding.pop_front() else {
                break;
            };
            let response = self.read_line()?;
            gate.check(check_ok(&response, id));
        }
        Ok(count as f64 / start.elapsed().as_secs_f64())
    }

    /// Open loop at `rate` requests per second for `secs`: request *i*
    /// is due at `i / rate` whatever happened to the ones before it.
    /// Latencies run from each request's due time; lateness is how
    /// long after its due time the generator sent it.
    fn open_loop(
        &mut self,
        mix: &mut Mix,
        rate: u32,
        secs: f64,
        gate: &mut Gate,
    ) -> io::Result<OpenLoop> {
        let frames: Vec<(u64, String)> = (0..(f64::from(rate) * secs) as usize)
            .map(|_| mix.next())
            .collect();
        let due = |i: usize| Duration::from_secs_f64(i as f64 / f64::from(rate));
        let Self { writer, reader } = self;
        let start = Instant::now();
        let (sent, received) = std::thread::scope(|scope| {
            let ids: Vec<u64> = frames.iter().map(|(id, _)| *id).collect();
            let responses =
                scope.spawn(move || -> io::Result<Vec<(Duration, Result<(), String>)>> {
                    let mut seen = Vec::with_capacity(ids.len());
                    let mut line = String::new();
                    for id in ids {
                        line.clear();
                        if reader.read_line(&mut line)? == 0 {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        seen.push((start.elapsed(), check_ok(&line, id)));
                    }
                    Ok(seen)
                });
            let mut sent = Vec::with_capacity(frames.len());
            let mut send_error = None;
            for (i, (_, line)) in frames.iter().enumerate() {
                pace_until(start, due(i));
                sent.push(start.elapsed());
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    // unblock the reader, which waits for responses
                    // that will now never be requested
                    let _ = writer.shutdown(Shutdown::Both);
                    send_error = Some(e);
                    break;
                }
            }
            let received = responses.join().expect("response reader panicked");
            match send_error {
                Some(e) => Err(e),
                None => received.map(|r| (sent, r)),
            }
        })?;
        let mut latencies = Vec::with_capacity(received.len());
        for (i, (at, outcome)) in received.into_iter().enumerate() {
            latencies.push(at.saturating_sub(due(i)).as_secs_f64());
            gate.check(outcome);
        }
        let late: Vec<f64> = sent
            .iter()
            .enumerate()
            .map(|(i, at)| at.saturating_sub(due(i)).as_secs_f64())
            .collect();
        Ok(OpenLoop {
            latency: Latency::of(&latencies),
            late_p99_ms: 1e3 * kc_core::quantile(&stats::sorted(&late), 0.99),
        })
    }
}

struct OpenLoop {
    latency: Latency,
    late_p99_ms: f64,
}

/// Wait until `due` after `start`: sleep while far, spin when close
/// (a sleep overshoots by tens of microseconds, a tenth of the gap
/// between requests at the highest rung).
fn pace_until(start: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = start.elapsed();
        if now >= due {
            return;
        }
        let remaining = due - now;
        if remaining > SPIN {
            std::thread::sleep(remaining - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A server with the harness's connection to it.  Fields drop in
/// order: the connection closes before the server is asked to stop,
/// which waits for open connections.
struct Session {
    client: Client,
    server: Server,
    /// Latencies of the start-up phase's first-time requests, seconds.
    miss_secs: Vec<f64>,
}

impl Session {
    /// A server on an empty store with one connection to it, checked
    /// against the smoke transcript and with every start-up spec
    /// resolved once, one at a time.
    fn start(env: &Env, trace: Option<&Path>, mix: &mut Mix, gate: &mut Gate) -> io::Result<Self> {
        let store = env.fresh_path("serve-store")?;
        let (server, addr) = Server::spawn(env, &store, trace)?;
        let mut client = Client::connect(addr)?;
        gate.check(client.replay_smoke(env)?);
        let mut miss_secs = Vec::new();
        for spec in startup_specs() {
            let (id, line) = mix.request(spec);
            miss_secs.push(client.exchange(id, &line, gate)?);
        }
        Ok(Self {
            client,
            server,
            miss_secs,
        })
    }

    /// Close the connection, stop the server, and return what it
    /// printed while draining.
    fn finish(self) -> io::Result<String> {
        let Self {
            client, mut server, ..
        } = self;
        drop(client);
        server.stop()
    }
}

pub fn run(env: &Env, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut gate = Gate::default();
    let mut mix = Mix::new(seed);
    let (setup_secs, mut session) = setups(|| Session::start(env, None, &mut mix, &mut gate))?;

    let pid = session.server.child.id();
    let cpu_before = sys::running_cpu_secs(pid)?;
    let sync_requests = (SYNC_REQUESTS_PER_SEC * seconds).ceil() as usize;
    let window_requests = (WINDOW_REQUESTS_PER_SEC * seconds).ceil() as usize;
    let client = &mut session.client;
    let op_secs = client.sync_phase(&mut mix, sync_requests, &mut gate)?;
    let ops_per_s = client.window_phase(&mut mix, window_requests, &mut gate)?;
    let cpu_secs = sys::running_cpu_secs(pid)? - cpu_before;
    session.finish()?;
    Ok(Outcome {
        setup_secs,
        op_secs,
        ops_per_s,
        cpu_secs_per_op: cpu_secs / (sync_requests + window_requests) as f64,
        gate,
    })
}

/// `mean size X` of the `batches` line `kc_served --metrics` prints.
fn parse_batch_mean(stderr: &str) -> Option<f64> {
    let line = stderr.lines().find(|l| l.starts_with("batches "))?;
    let rest = line.split("mean size ").nth(1)?;
    rest.split(',').next()?.trim().parse().ok()
}

/// Traced `serve_session`: the server runs with `--trace --metrics`;
/// start-up, sync, two open-loop rungs and the saturation window,
/// each about two seconds.
pub fn trace(env: &Env, seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> io::Result<Gate> {
    let mut gate = Gate::default();
    let mut mix = Mix::new(seed);
    let trace_file = env.work.join("serve-trace.jsonl");
    let started = Instant::now();
    let mut session = tracer.span("kc_served start-up", |_| {
        Session::start(env, Some(&trace_file), &mut mix, &mut gate)
    })?;
    layers.set("serve.miss_ms_p50", 1e3 * stats::median(&session.miss_secs));
    let client = &mut session.client;

    let sync = tracer.span("kc_served sync", |_| {
        client.sync_phase(&mut mix, TRACE_SYNC_REQUESTS, &mut gate)
    })?;
    layers.set("serve.sync_ms_p50", 1e3 * stats::median(&sync));

    let mut worst_late_ms: f64 = 0.0;
    let mut max_rate_in_limit = 0.0;
    for rate in RUNGS {
        let failures_before = gate.failures.len();
        let rung = tracer.span(&format!("kc_served open loop r{rate}"), |_| {
            client.open_loop(&mut mix, rate, TRACE_RUNG_SECS, &mut gate)
        })?;
        worst_late_ms = worst_late_ms.max(rung.late_p99_ms);
        if rung.late_p99_ms > MAX_LATE_MS {
            eprintln!(
                "serve_session: r{rate} unresolved, the generator ran {:.1} ms late (p99)",
                rung.late_p99_ms
            );
            continue;
        }
        let ms = |permille| rung.latency.tail(permille).map(|s| 1e3 * s);
        layers.set(
            &format!("serve.hit_ms_p50_r{rate}"),
            1e3 * rung.latency.p50(),
        );
        layers.set_if(&format!("serve.hit_ms_p90_r{rate}"), ms(900));
        layers.set_if(&format!("serve.hit_ms_p99_r{rate}"), ms(990));
        let all_ok = gate.failures.len() == failures_before;
        if all_ok && ms(990).is_some_and(|p99| p99 <= LIMIT_MS) {
            max_rate_in_limit = f64::from(rate);
        }
    }
    layers.set("serve.gen_late_ms_p99", worst_late_ms);
    layers.set("serve.max_rate_in_limit_rps", max_rate_in_limit);

    let rps = tracer.span("kc_served window 32", |_| {
        client.window_phase(&mut mix, TRACE_WINDOW_REQUESTS, &mut gate)
    })?;
    layers.set("serve.sat_rps_w32", rps);

    let cpu_secs = sys::running_cpu_secs(session.server.child.id())?;
    let drained = tracer.span("kc_served drain", |_| session.finish())?;
    let wall_secs = started.elapsed().as_secs_f64();
    if let Some(mean) = parse_batch_mean(&drained) {
        layers.set("serve.batch_mean", mean);
    }
    let cache = parse_cache_line(&drained);
    gate.check(
        cache
            .map(drop)
            .ok_or("kc_served printed no [cache] line".into()),
    );
    if let Some(cache) = cache {
        let digest = TraceDigest::of(&kc_core::telemetry::read_jsonl(&trace_file)?);
        layers.set("serve.miss_cells_executed", digest.executed as f64);
        let child = TracedChild {
            digest: &digest,
            cache,
            wall_secs,
            cpu_secs,
            // this session has no untraced twin
            untraced_wall_secs: None,
        };
        set_experiments_layers(layers, &child);
    }
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_bytes() {
        let stream = |seed| {
            let mut mix = Mix::new(seed);
            (0..500).map(|_| mix.next().1).collect::<String>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn the_mix_is_mostly_the_hot_spec_with_counting_ids() {
        let mut mix = Mix::new(3);
        let frames: Vec<(u64, String)> = (0..2000).map(|_| mix.next()).collect();
        let ids: Vec<u64> = frames.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (1..=2000).collect::<Vec<u64>>());
        let hot = frames
            .iter()
            .filter(|(id, line)| *line == request_line(*id, HOT_SPEC))
            .count();
        assert!((1700..=1900).contains(&hot), "{hot} of 2000 hot");
        assert_eq!(frames[0].1.matches('\n').count(), 1, "one line per request");
    }

    #[test]
    fn startup_specs_are_36_distinct_valid_shapes() {
        let specs = startup_specs();
        assert_eq!(specs.len(), 36);
        for (i, a) in specs.iter().enumerate() {
            assert!(!specs[..i].contains(a));
            assert_ne!(*a, HOT_SPEC);
        }
        assert_eq!(
            request_line(5, specs[0]),
            "{\"id\":5,\"benchmark\":\"bt\",\"class\":\"S\",\"procs\":9,\"chain_len\":2}\n"
        );
    }

    #[test]
    fn ok_prefix_check() {
        let ok = "{\"id\":12,\"status\":\"ok\",\"error\":null,\"result\":{}}\n";
        assert!(check_ok(ok, 12).is_ok());
        assert!(check_ok(ok, 13).is_err(), "out of order");
        let shed = "{\"id\":12,\"status\":\"overloaded\",\"error\":\"queue full\"}\n";
        assert!(check_ok(shed, 12).is_err());
    }

    #[test]
    fn batch_mean_of_the_metrics_block() {
        let stderr = "[metrics]\nrequests   9 total (ok 9, error 0, overloaded 0, deadline 0)\n\
                      latency    p50 0.1 ms, p90 0.2 ms, p99 0.3 ms, max 0.4 ms\n\
                      batches    4 resolved, mean size 2.3, max size 5, peak queue depth 3\n";
        assert_eq!(parse_batch_mean(stderr), Some(2.3));
        assert_eq!(parse_batch_mean("[metrics]\n"), None);
    }
}
