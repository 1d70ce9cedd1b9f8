//! `kc-npb`: host time of single measurement cells, divided by the
//! simulated work they do.
//!
//! `NpbExecutor::run_chain_raw` returns only the virtual time, so the
//! probe replays its loop — init kernels, one warm-up and two timed
//! iterations of the whole loop body, bracketed by barriers — on
//! `Cluster::run` with the public kernel table, and reads the line
//! accesses and messages out of the `RunOutcome`.

use super::{timed, Bench};
use kc_machine::{Cluster, MachineConfig};
use kc_npb::{Benchmark, Class, ExecConfig, Mode, NpbApp, NpbExecutor, RankState};
use std::io;

/// `(metric suffix, benchmark, class, ranks)`: three cells whose host
/// time is line accesses, two whose host time is messages.
const CELLS: [(&str, Benchmark, Class, usize); 5] = [
    ("sp_b_p9", Benchmark::Sp, Class::B, 9),
    ("lu_b_p32", Benchmark::Lu, Class::B, 32),
    ("bt_a_p16", Benchmark::Bt, Class::A, 16),
    ("lu_w_p32", Benchmark::Lu, Class::W, 32),
    ("bt_s_p16", Benchmark::Bt, Class::S, 16),
];

/// One cell: the full-loop chain of `app` in profile mode.  Returns
/// line accesses, messages and the virtual seconds of the timed part.
fn run_cell(cluster: &Cluster, app: NpbApp) -> (u64, u64, u64) {
    let spec = app.benchmark.spec();
    let cfg = ExecConfig::default();
    let out = cluster.run(app.procs, |ctx| {
        let mut st = RankState::new(
            app.benchmark,
            app.physics(),
            app.problem().dims(),
            app.grid(),
            ctx,
            false,
        );
        for k in &spec.init {
            (k.run)(&mut st, ctx, Mode::Profile);
        }
        ctx.barrier();
        let mut t0 = 0.0;
        for iteration in 0..cfg.warmup_iters + cfg.timed_iters {
            if iteration == cfg.warmup_iters {
                ctx.barrier();
                t0 = ctx.now();
            }
            for k in &spec.loop_kernels {
                (k.run)(&mut st, ctx, Mode::Profile);
            }
            ctx.barrier();
        }
        ctx.barrier();
        let elapsed = ctx.now() - t0;
        st.recycle();
        elapsed
    });
    let lines = out.reports.iter().map(|r| r.cache.total()).sum();
    (lines, out.total_messages(), out.results[0].to_bits())
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    let machine = MachineConfig::ibm_sp_p2sc().without_noise();
    let cluster = Cluster::new(machine.clone());
    for (name, benchmark, class, procs) in CELLS {
        let app = NpbApp::new(benchmark, class, procs);
        cluster.run(procs, |_| ()); // rank pool built before timing
        let (secs, (lines, messages, _virt)) = b.repeat(&format!("npb.{name}"), || {
            let (secs, counts) = timed(|| run_cell(&cluster, app));
            Ok((secs, counts))
        })?;
        b.layers.set(&format!("npb.cell_ms.{name}"), 1e3 * secs);
        b.layers.set(
            &format!("npb.ns_per_line.{name}"),
            1e9 * secs / lines as f64,
        );
        b.layers.set(
            &format!("npb.us_per_msg.{name}"),
            1e6 * secs / messages as f64,
        );
        b.layers.set(&format!("npb.lines.{name}"), lines as f64);
        b.layers.set(&format!("npb.msgs.{name}"), messages as f64);
    }

    // the numeric path: real arithmetic, two iterations of BT class S
    let exec = NpbExecutor::new(
        NpbApp::new(Benchmark::Bt, Class::S, 4),
        machine,
        ExecConfig::default(),
    );
    let (secs, _) = b.repeat("npb.numeric_bt_s_p4", || {
        let (secs, summary) = timed(|| exec.run_numeric(2, 0.0));
        Ok((secs, summary.total_time.to_bits()))
    })?;
    b.layers.set("npb.numeric_ms.bt_s_p4", 1e3 * secs);
    Ok(())
}
