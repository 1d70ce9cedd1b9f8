//! The bridge between the benchmarks and the coupling framework:
//! [`NpbExecutor`] implements `kc_core::ChainExecutor` by running
//! kernel chains on the simulated cluster under the paper's
//! measurement protocol.

use crate::app::{AppSpec, NpbApp};
use crate::common::VerifyResult;
use crate::kernel::{KernelSpec, Mode};
use crate::state::RankState;
use kc_core::{ChainExecutor, KernelId, KernelSet, Measurement};
use kc_machine::{Cluster, MachineConfig, NoisyTimer, RankCtx, RunOutcome};

/// Measurement-protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Untimed warm-up repetitions of the chain before the timed
    /// region (fills caches and solver pipelines, as the paper's
    /// "loop dominates the execution time" protocol implies).
    pub warmup_iters: u32,
    /// Timed repetitions of the chain; the result is divided by this.
    pub timed_iters: u32,
    /// Execution mode for measurement runs (profile is the default:
    /// identical virtual times at a fraction of the wall-clock cost —
    /// asserted equal by the `kc-npb` mode-equivalence tests).
    pub mode: Mode,
    /// Whether chain measurements synchronize between iterations —
    /// the standard per-kernel timing instrumentation, where every
    /// timed repetition is bracketed so the reading reflects exactly
    /// the kernels under study.  This is what makes isolated kernel
    /// times *sum* to more than the integrated loop: the bracketing
    /// exposes pipeline fill/drain and per-kernel load imbalance that
    /// the un-instrumented application overlaps across kernel
    /// boundaries.  Longer chains amortize one bracket over more
    /// kernels — the constructive-coupling signal the paper measures.
    /// The full application (ground truth) never synchronizes.
    pub barrier_per_iteration: bool,
    /// Cold-cache policy for bracketed repetitions.  The paper uses
    /// two measurement protocols: isolated kernel times come from
    /// "running the kernel 50 times" — repeated fresh executions that
    /// each pay a cold reload of the kernel's working set — while
    /// chains are measured by "placing \[them\] into a loop such that
    /// the loop dominates the application execution time", i.e. in a
    /// warm steady state.  [`ColdStart::IsolatedOnly`] (the default)
    /// reproduces exactly that asymmetry, which is where the paper's
    /// constructive coupling lives: the summed isolated times carry
    /// one cold working-set reload *per kernel*, the chain carries
    /// none — as long as the working set fits in a cache level.  When
    /// it doesn't (class A at small processor counts), warm and cold
    /// runs both stream from memory and the effect disappears —
    /// the regime transitions of §4.1.4.  The full application
    /// (ground truth) always runs warm.
    pub cold_start: ColdStart,
}

/// Which measurements begin each repetition with flushed caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdStart {
    /// Everything runs warm (steady-state loops only).
    None,
    /// Only single-kernel measurements are fresh runs (paper default).
    IsolatedOnly,
    /// Every chain measurement is a fresh run per repetition.
    All,
}

impl ColdStart {
    /// Whether a chain of `len` kernels flushes between repetitions.
    pub fn applies_to(self, len: usize) -> bool {
        match self {
            ColdStart::None => false,
            ColdStart::IsolatedOnly => len == 1,
            ColdStart::All => true,
        }
    }
}

impl ExecConfig {
    /// A compact, canonical digest of every protocol field, used in
    /// measurement-cell keys: two configs digest equal iff they
    /// measure identically.
    pub fn digest(&self) -> String {
        let mode = match self.mode {
            Mode::Numeric => 'n',
            Mode::Profile => 'p',
        };
        let cold = match self.cold_start {
            ColdStart::None => 'n',
            ColdStart::IsolatedOnly => 'i',
            ColdStart::All => 'a',
        };
        format!(
            "w{}t{}m{}b{}c{}",
            self.warmup_iters,
            self.timed_iters,
            mode,
            u8::from(self.barrier_per_iteration),
            cold
        )
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            warmup_iters: 1,
            timed_iters: 2,
            mode: Mode::Profile,
            barrier_per_iteration: true,
            cold_start: ColdStart::IsolatedOnly,
        }
    }
}

/// Summary of a full application run (used by examples and tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppRunSummary {
    /// Total virtual execution time (seconds), extrapolated to the
    /// class's full iteration count.
    pub total_time: f64,
    /// Verification norms from the FINAL kernel.
    pub verify: VerifyResult,
    /// Iterations actually executed (timed + warm-up).
    pub iters_executed: u32,
}

/// Executes BT/SP/LU kernel chains on the simulated cluster.
pub struct NpbExecutor {
    app: NpbApp,
    spec: AppSpec,
    cluster: Cluster,
    cfg: ExecConfig,
    timer: NoisyTimer,
    kernel_set: KernelSet,
}

impl NpbExecutor {
    /// Build an executor for `app` on `machine`, using the
    /// benchmark's standard (paper) kernel decomposition.
    pub fn new(app: NpbApp, machine: MachineConfig, cfg: ExecConfig) -> Self {
        Self::with_spec(app, machine, cfg, app.benchmark.spec())
    }

    /// Build an executor with a custom kernel decomposition (e.g.
    /// `kc_npb::bt::fine_spec()` for the granularity study).
    pub fn with_spec(app: NpbApp, machine: MachineConfig, cfg: ExecConfig, spec: AppSpec) -> Self {
        let timer = NoisyTimer::new(machine.timer);
        let kernel_set = spec.kernel_set();
        Self {
            app,
            spec,
            cluster: Cluster::new(machine),
            cfg,
            timer,
            kernel_set,
        }
    }

    /// The application instance.
    pub fn app(&self) -> &NpbApp {
        &self.app
    }

    fn resolve(&self, chain: &[KernelId]) -> Vec<KernelSpec> {
        chain
            .iter()
            .map(|k| self.spec.loop_kernels[k.index()])
            .collect()
    }

    fn make_state(&self, ctx: &mut RankCtx, mode: Mode) -> RankState {
        RankState::new(
            self.app.benchmark,
            self.app.physics(),
            self.app.problem().dims(),
            self.app.grid(),
            ctx,
            mode.numeric(),
        )
    }

    /// Run a loop whose body is `chain` under the measurement
    /// protocol; returns the *noise-free* total time of the timed
    /// region (seconds for `timed_iters` iterations).
    pub fn run_chain_raw(&self, chain: &[KernelId]) -> f64 {
        self.run_chain(chain).results[0]
    }

    /// [`NpbExecutor::run_chain_raw`]'s whole run: every rank's timed
    /// region as its result, and every rank's report (cache and
    /// message totals over the run).
    pub fn run_chain(&self, chain: &[KernelId]) -> RunOutcome<f64> {
        let kernels = self.resolve(chain);
        let spec = &self.spec;
        let cfg = self.cfg;
        let cold = cfg.cold_start.applies_to(chain.len());
        self.cluster.run(self.app.procs, |ctx| {
            let mut st = self.make_state(ctx, cfg.mode);
            for k in &spec.init {
                (k.run)(&mut st, ctx, cfg.mode);
            }
            ctx.barrier();
            for _ in 0..cfg.warmup_iters {
                if cold {
                    ctx.flush_caches();
                }
                for k in &kernels {
                    (k.run)(&mut st, ctx, cfg.mode);
                }
                if cfg.barrier_per_iteration {
                    ctx.barrier();
                }
            }
            ctx.barrier();
            let t0 = ctx.now();
            for _ in 0..cfg.timed_iters {
                if cold {
                    ctx.flush_caches();
                }
                for k in &kernels {
                    (k.run)(&mut st, ctx, cfg.mode);
                }
                if cfg.barrier_per_iteration {
                    ctx.barrier();
                }
            }
            ctx.barrier();
            ctx.now() - t0
        })
    }

    /// Noise-free total time of the one-off init + final kernels.
    pub fn run_overhead_raw(&self) -> f64 {
        let spec = &self.spec;
        let cfg = self.cfg;
        let out = self.cluster.run(self.app.procs, |ctx| {
            let mut st = self.make_state(ctx, cfg.mode);
            for k in spec.init.iter().chain(&spec.final_kernels) {
                (k.run)(&mut st, ctx, cfg.mode);
            }
            ctx.barrier();
            ctx.now()
        });
        out.results[0]
    }

    /// Noise-free total application time: init + `iterations` loop
    /// bodies + final, with the loop's steady-state per-iteration time
    /// measured over `timed_iters` and extrapolated to the class's
    /// full count.
    pub fn run_application_raw(&self) -> f64 {
        let spec = &self.spec;
        let cfg = self.cfg;
        let iterations = self.app.problem().iterations;
        let out = self.cluster.run(self.app.procs, |ctx| {
            let mut st = self.make_state(ctx, cfg.mode);
            for k in &spec.init {
                (k.run)(&mut st, ctx, cfg.mode);
            }
            ctx.barrier();
            for _ in 0..cfg.warmup_iters {
                for k in &spec.loop_kernels {
                    (k.run)(&mut st, ctx, cfg.mode);
                }
            }
            ctx.barrier();
            let t0 = ctx.now();
            for _ in 0..cfg.timed_iters {
                for k in &spec.loop_kernels {
                    (k.run)(&mut st, ctx, cfg.mode);
                }
            }
            ctx.barrier();
            let t1 = ctx.now();
            for k in &spec.final_kernels {
                (k.run)(&mut st, ctx, cfg.mode);
            }
            ctx.barrier();
            // serial parts + extrapolated loop
            let per_iter = (t1 - t0) / cfg.timed_iters as f64;
            let loop_total = per_iter * iterations as f64;
            let warm_start = t0 - per_iter * cfg.warmup_iters as f64;
            let serial = warm_start + (ctx.now() - t1);
            serial + loop_total
        });
        out.results[0]
    }

    /// Run the application numerically (real arithmetic) for
    /// `iters` iterations with an initial perturbation; returns the
    /// verification summary of rank 0.
    pub fn run_numeric(&self, iters: u32, perturb: f64) -> AppRunSummary {
        let spec = &self.spec;
        let out = self.cluster.run(self.app.procs, |ctx| {
            let mut st = self.make_state(ctx, Mode::Numeric);
            st.perturb_amp = perturb;
            for k in &spec.init {
                (k.run)(&mut st, ctx, Mode::Numeric);
            }
            for _ in 0..iters {
                for k in &spec.loop_kernels {
                    (k.run)(&mut st, ctx, Mode::Numeric);
                }
            }
            for k in &spec.final_kernels {
                (k.run)(&mut st, ctx, Mode::Numeric);
            }
            ctx.barrier();
            (
                ctx.now(),
                st.verify.take().unwrap_or_default(),
                st.iters_run,
            )
        });
        let (t, verify, iters_executed) = out.results[0];
        AppRunSummary {
            total_time: t,
            verify,
            iters_executed,
        }
    }

    fn noisy_measurement(&mut self, true_time: f64, reps: u32, scale: f64) -> Measurement {
        let samples = (0..reps.max(1))
            .map(|_| self.timer.sample(true_time) * scale)
            .collect();
        Measurement::from_samples(samples)
    }
}

impl ChainExecutor for NpbExecutor {
    fn kernel_set(&self) -> &KernelSet {
        &self.kernel_set
    }

    fn loop_iterations(&self) -> u32 {
        self.app.problem().iterations
    }

    fn measure_chain(&mut self, chain: &[KernelId], reps: u32) -> Measurement {
        let total = self.run_chain_raw(chain);
        let scale = 1.0 / self.cfg.timed_iters as f64;
        self.noisy_measurement(total, reps, scale)
    }

    fn measure_serial_overhead(&mut self) -> Measurement {
        let total = self.run_overhead_raw();
        self.noisy_measurement(total, 1, 1.0)
    }

    fn measure_application(&mut self) -> Measurement {
        let total = self.run_application_raw();
        self.noisy_measurement(total, 1, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Benchmark;
    use crate::classes::Class;

    fn executor(b: Benchmark, p: usize) -> NpbExecutor {
        NpbExecutor::new(
            NpbApp::new(b, Class::S, p),
            MachineConfig::test_tiny(),
            ExecConfig::default(),
        )
    }

    #[test]
    fn exec_config_digest_distinguishes_protocols() {
        let base = ExecConfig::default();
        assert_eq!(base.digest(), "w1t2mpb1ci");
        assert_eq!(base.digest(), ExecConfig::default().digest());
        let numeric = ExecConfig {
            mode: Mode::Numeric,
            ..base
        };
        assert_ne!(base.digest(), numeric.digest());
        let cold = ExecConfig {
            cold_start: ColdStart::All,
            ..base
        };
        assert_ne!(base.digest(), cold.digest());
        let unbracketed = ExecConfig {
            barrier_per_iteration: false,
            ..base
        };
        assert_ne!(base.digest(), unbracketed.digest());
    }

    #[test]
    fn kernel_set_matches_benchmark() {
        let e = executor(Benchmark::Bt, 4);
        assert_eq!(e.kernel_set().len(), 5);
        assert_eq!(e.loop_iterations(), 60);
    }

    #[test]
    fn chain_measurements_are_deterministic() {
        let e = executor(Benchmark::Bt, 4);
        let ids: Vec<KernelId> = e.kernel_set().ids().collect();
        let a = e.run_chain_raw(&ids);
        let b = e.run_chain_raw(&ids);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn full_chain_time_close_to_sum_of_parts_order_of_magnitude() {
        // sanity: the chain time is within a factor of 3 of the
        // summation (couplings are never that extreme)
        let e = executor(Benchmark::Bt, 4);
        let ids: Vec<KernelId> = e.kernel_set().ids().collect();
        let whole = e.run_chain_raw(&ids);
        let parts: f64 = ids.iter().map(|&k| e.run_chain_raw(&[k])).sum();
        assert!(
            whole < 3.0 * parts && whole > parts / 3.0,
            "whole={whole} parts={parts}"
        );
    }

    #[test]
    fn application_time_dominated_by_loop() {
        let e = executor(Benchmark::Bt, 4);
        let app_t = e.run_application_raw();
        let overhead = e.run_overhead_raw();
        assert!(
            app_t > 10.0 * overhead,
            "app {app_t} vs overhead {overhead}"
        );
    }

    #[test]
    fn measurements_flow_through_trait() {
        let mut e = executor(Benchmark::Lu, 4);
        let ids: Vec<KernelId> = e.kernel_set().ids().collect();
        let m = e.measure_chain(&ids[..2], 3);
        assert_eq!(m.reps(), 3);
        assert!(m.mean() > 0.0);
        assert!(e.measure_application().mean() > 0.0);
        assert!(e.measure_serial_overhead().mean() > 0.0);
    }

    #[test]
    fn numeric_run_verifies_on_all_benchmarks() {
        for b in Benchmark::ALL {
            let e = executor(b, 4); // 4 is admissible for all three benchmarks
            let s = e.run_numeric(2, 0.0);
            assert!(
                s.verify.resid_norm < 1e-20,
                "{b}: resid {}",
                s.verify.resid_norm
            );
            assert!(s.verify.dev_norm < 1e-20, "{b}: dev {}", s.verify.dev_norm);
            assert_eq!(s.iters_executed, 2);
        }
    }
}
