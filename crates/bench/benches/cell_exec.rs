//! Benches the hot execution path of a single campaign cell — the
//! simulated cluster run behind every `CellExecuted` event:
//!
//! * **dispatch and chain**: a bare ring dispatch and one BT/S profile
//!   chain window on the thread's persistent
//!   [`RankPool`](kc_machine::RankPool), where parked workers are
//!   re-dispatched without thread churn;
//! * **traced vs untraced**: a fresh one-spec campaign with and
//!   without a buffered `JsonLinesSink` attached, bracketing what
//!   event framing costs on the campaign hot path.
//!
//! With `KC_BENCH_TRAJECTORY=<dir>` the bench leaves a
//! `BENCH_cell_exec.json` breakdown behind whose cells carry each
//! variant's best-of-rounds duration (`dispatch|p8|pooled`, the chain
//! run, traced/untraced campaigns), so `kc-bench diff` tracks them
//! across commits.

use criterion::{criterion_group, criterion_main, Criterion};
use kc_bench::{trajectory_dir, BenchTrajectory};
use kc_core::{JsonLinesSink, SlowCell};
use kc_experiments::{AnalysisSpec, Campaign, Runner};
use kc_machine::{Cluster, MachineConfig};
use kc_npb::{Benchmark, Class, NpbApp, NpbExecutor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranks for the bare-dispatch cell: big enough that per-rank hand-off
/// cost is unmistakable, small enough for any CI box.
const DISPATCH_RANKS: usize = 8;

/// One bare cluster dispatch: the smallest unit the rank pool
/// carries.  A ring exchange keeps every rank honest without
/// adding numeric work that would drown the dispatch cost.
fn dispatch(cluster: &Cluster, ranks: usize) -> f64 {
    cluster
        .run(ranks, |ctx| {
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(right, 0, vec![1.0]);
            let m = ctx.recv(left, 0);
            black_box(m.data.len());
            ctx.now()
        })
        .elapsed()
}

/// One profile-mode chain window — the realistic per-cell workload.
fn chain(exec: &NpbExecutor, ids: &[kc_core::KernelId]) -> f64 {
    exec.run_chain_raw(ids)
}

/// One full single-spec campaign, optionally tracing into `sink_dir`.
fn campaign_run(runner: &Runner, traced: Option<&std::path::Path>) {
    let mut builder = Campaign::builder(runner.clone());
    if let Some(dir) = traced {
        let sink = JsonLinesSink::new(dir.join("cell_exec_trace.jsonl"));
        builder = builder.sink(Arc::new(sink));
    }
    let campaign = builder.build();
    let spec = AnalysisSpec::new(Benchmark::Bt, Class::S, 4, 2);
    campaign
        .prefetch(std::slice::from_ref(&spec))
        .expect("campaign failed");
    campaign.flush_sinks().expect("trace flush failed");
}

fn bench_cell_exec(c: &mut Criterion) {
    let machine = MachineConfig::test_tiny();
    let app = NpbApp::new(Benchmark::Bt, Class::S, 4);
    let ids: Vec<_> = app.benchmark.spec().kernel_set().ids().collect();
    let exec = NpbExecutor::new(app, machine.clone(), Default::default());
    let runner = Runner::noise_free();
    let scratch = std::env::temp_dir().join(format!("kc_bench_cell_exec_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let mut g = c.benchmark_group("cell_exec");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(3));

    // bare dispatch on the parked pool
    let cluster = Cluster::new(machine.clone());
    g.bench_function("dispatch_p8_pooled", |b| {
        b.iter(|| black_box(dispatch(&cluster, DISPATCH_RANKS)))
    });

    // realistic cell: one BT/S profile chain window
    g.bench_function("chain_bt_s_p4_pooled", |b| {
        b.iter(|| black_box(chain(&exec, &ids)))
    });

    // event framing: full single-spec campaign with and without a
    // buffered JSON-lines sink attached
    g.bench_function("campaign_bt_s_p4_untraced", |b| {
        b.iter(|| campaign_run(&runner, None))
    });
    g.bench_function("campaign_bt_s_p4_traced", |b| {
        b.iter(|| campaign_run(&runner, Some(&scratch)))
    });
    g.finish();

    emit_trajectory(&cluster, &exec, &ids, &runner, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Best-of-rounds wall time of `f`.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// With `KC_BENCH_TRAJECTORY=<dir>`, record each variant's
/// best-of-rounds duration as a trajectory cell.
fn emit_trajectory(
    cluster: &Cluster,
    exec: &NpbExecutor,
    ids: &[kc_core::KernelId],
    runner: &Runner,
    scratch: &std::path::Path,
) {
    let Some(out) = trajectory_dir() else {
        return;
    };
    const ROUNDS: usize = 20;
    let mut cells = Vec::new();
    let mut measure = |key: &str, f: &mut dyn FnMut()| {
        f(); // warm once so thread-local pools and caches exist
        cells.push(SlowCell {
            key: key.to_string(),
            duration_secs: best_of(ROUNDS, f),
        });
    };
    measure("dispatch|p8|pooled", &mut || {
        black_box(dispatch(cluster, DISPATCH_RANKS));
    });
    measure("chain|BT|S|p4|pooled", &mut || {
        black_box(chain(exec, ids));
    });
    measure("campaign|BT|S|p4|untraced", &mut || {
        campaign_run(runner, None);
    });
    measure("campaign|BT|S|p4|traced", &mut || {
        campaign_run(runner, Some(scratch));
    });
    let path = BenchTrajectory::from_cells("cell_exec", cells)
        .write_to(&out)
        .expect("failed to write bench trajectory");
    eprintln!("[trajectory] {}", path.display());
}

criterion_group!(benches, bench_cell_exec);
criterion_main!(benches);
