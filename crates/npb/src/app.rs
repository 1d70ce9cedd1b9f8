//! Benchmark descriptors: which kernels, which problem, which
//! processor-count rule.

use crate::classes::{bt_problem, lu_problem, sp_problem, Class, Problem};
use crate::kernel::KernelSpec;
use crate::physics::Physics;
use kc_core::KernelSet;
use kc_grid::ProcGrid;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three NPB application benchmarks of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// Block Tridiagonal (paper §4.1; seven kernels).
    Bt,
    /// Scalar Pentadiagonal (paper §4.2; eight kernels).
    Sp,
    /// LU / SSOR (paper §4.3; ten kernels).
    Lu,
}

impl Benchmark {
    /// All benchmarks.
    pub const ALL: [Benchmark; 3] = [Benchmark::Bt, Benchmark::Sp, Benchmark::Lu];

    /// The problem (grid size + iterations) for a class.
    pub fn problem(self, class: Class) -> Problem {
        match self {
            Benchmark::Bt => bt_problem(class),
            Benchmark::Sp => sp_problem(class),
            Benchmark::Lu => lu_problem(class),
        }
    }

    /// Diffusion number used by this benchmark's solver (chosen so
    /// the iterations converge and the per-cell work is realistic).
    pub fn sigma(self) -> f64 {
        match self {
            Benchmark::Bt => 0.4,
            Benchmark::Sp => 0.3,
            Benchmark::Lu => 0.4,
        }
    }

    /// Whether `p` processors are admissible (BT/SP: perfect squares;
    /// LU: powers of two) — the NPB rules the paper quotes.
    pub fn valid_procs(self, p: usize) -> bool {
        match self {
            Benchmark::Bt | Benchmark::Sp => {
                let q = (p as f64).sqrt().round() as usize;
                q * q == p
            }
            Benchmark::Lu => p.is_power_of_two(),
        }
    }

    /// The logical process grid for `p` processors.
    ///
    /// # Panics
    /// If `p` violates [`Benchmark::valid_procs`].
    pub fn grid(self, p: usize) -> ProcGrid {
        match self {
            Benchmark::Bt | Benchmark::Sp => ProcGrid::square(p),
            Benchmark::Lu => ProcGrid::power_of_two(p),
        }
    }

    /// The kernel decomposition: init kernels, loop kernels (in
    /// control-flow order) and final kernels.
    pub fn spec(self) -> AppSpec {
        match self {
            Benchmark::Bt => crate::bt::spec(),
            Benchmark::Sp => crate::sp::spec(),
            Benchmark::Lu => crate::lu::spec(),
        }
    }

    /// Short lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bt => "bt",
            Benchmark::Sp => "sp",
            Benchmark::Lu => "lu",
        }
    }

    /// The benchmark a user typed, matching [`Benchmark::name`] in any
    /// case (`bt`, `BT`, `Bt`, ...).
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Self::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name().to_uppercase())
    }
}

/// The kernel decomposition of one benchmark.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// One-off kernels before the main loop.
    pub init: Vec<KernelSpec>,
    /// Main-loop kernels in control-flow order.
    pub loop_kernels: Vec<KernelSpec>,
    /// One-off kernels after the main loop.
    pub final_kernels: Vec<KernelSpec>,
}

impl AppSpec {
    /// The loop kernels as a `kc-core` kernel set.
    pub fn kernel_set(&self) -> KernelSet {
        KernelSet::new(
            self.loop_kernels
                .iter()
                .map(|k| k.name.to_string())
                .collect(),
        )
    }

    /// Find a loop kernel by name.
    pub fn loop_kernel(&self, name: &str) -> Option<&KernelSpec> {
        self.loop_kernels.iter().find(|k| k.name == name)
    }
}

/// One benchmark instance: benchmark × class × processor count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NpbApp {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Which problem class.
    pub class: Class,
    /// How many processors.
    pub procs: usize,
}

impl NpbApp {
    /// Create an instance, validating the processor count.
    pub fn new(benchmark: Benchmark, class: Class, procs: usize) -> Self {
        assert!(
            benchmark.valid_procs(procs),
            "{benchmark} does not admit {procs} processors"
        );
        let grid = benchmark.grid(procs);
        let n = benchmark.problem(class).size;
        assert!(
            grid.cols() <= n && grid.rows() <= n,
            "{benchmark} class {class} ({n}^3) cannot be split over a {}x{} grid",
            grid.cols(),
            grid.rows()
        );
        Self {
            benchmark,
            class,
            procs,
        }
    }

    /// The problem solved.
    pub fn problem(&self) -> Problem {
        self.benchmark.problem(self.class)
    }

    /// The process grid.
    pub fn grid(&self) -> ProcGrid {
        self.benchmark.grid(self.procs)
    }

    /// The physics instance.
    pub fn physics(&self) -> Physics {
        Physics::new(self.problem().size, self.benchmark.sigma())
    }

    /// Label like `BT class A, 9 processors`.
    pub fn label(&self) -> String {
        format!(
            "{} class {}, {} processors",
            self.benchmark, self.class, self.procs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_rules() {
        for p in [4, 9, 16, 25] {
            assert!(Benchmark::Bt.valid_procs(p));
            assert!(Benchmark::Sp.valid_procs(p));
        }
        assert!(!Benchmark::Bt.valid_procs(8));
        for p in [4, 8, 16, 32] {
            assert!(Benchmark::Lu.valid_procs(p));
        }
        assert!(!Benchmark::Lu.valid_procs(9));
    }

    #[test]
    fn user_names_match_in_any_case() {
        assert_eq!(Benchmark::from_name("bt"), Some(Benchmark::Bt));
        assert_eq!(Benchmark::from_name("Sp"), Some(Benchmark::Sp));
        assert_eq!(Benchmark::from_name("LU"), Some(Benchmark::Lu));
        assert_eq!(Benchmark::from_name("ft"), None);
        assert_eq!(Benchmark::from_name(""), None);
        assert_eq!(Class::from_name("w"), Some(Class::W));
        assert_eq!(Class::from_name("B"), Some(Class::B));
        assert_eq!(Class::from_name("c"), None);
        assert_eq!(Class::from_name("SS"), None);
        assert_eq!(Class::from_name(""), None);
    }

    #[test]
    fn loop_kernel_counts_match_paper() {
        // paper: BT has 5 loop kernels, SP 6, LU 4
        assert_eq!(Benchmark::Bt.spec().loop_kernels.len(), 5);
        assert_eq!(Benchmark::Sp.spec().loop_kernels.len(), 6);
        assert_eq!(Benchmark::Lu.spec().loop_kernels.len(), 4);
    }

    #[test]
    fn kernel_names_match_paper() {
        let bt: Vec<&str> = Benchmark::Bt
            .spec()
            .loop_kernels
            .iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(
            bt,
            vec!["copy_faces", "x_solve", "y_solve", "z_solve", "add"]
        );
        let sp: Vec<&str> = Benchmark::Sp
            .spec()
            .loop_kernels
            .iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(
            sp,
            vec![
                "copy_faces",
                "txinvr",
                "x_solve",
                "y_solve",
                "z_solve",
                "add"
            ]
        );
        let lu: Vec<&str> = Benchmark::Lu
            .spec()
            .loop_kernels
            .iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(lu, vec!["ssor_iter", "ssor_lt", "ssor_ut", "ssor_rs"]);
    }

    #[test]
    fn total_kernel_counts_match_paper() {
        // paper: "We divided the application benchmark into seven
        // kernels" (BT), eight (SP), ten (LU)
        let count = |b: Benchmark| {
            let s = b.spec();
            s.init.len() + s.loop_kernels.len() + s.final_kernels.len()
        };
        assert_eq!(count(Benchmark::Bt), 7);
        assert_eq!(count(Benchmark::Sp), 8);
        assert_eq!(count(Benchmark::Lu), 10);
    }

    #[test]
    fn app_instances_validate() {
        let app = NpbApp::new(Benchmark::Bt, Class::W, 9);
        assert_eq!(app.problem().size, 32);
        assert_eq!(app.grid().size(), 9);
        assert!(app.label().contains("BT"));
    }

    #[test]
    #[should_panic]
    fn invalid_proc_count_panics() {
        NpbApp::new(Benchmark::Sp, Class::W, 6);
    }

    #[test]
    fn kernel_set_roundtrip() {
        let ks = Benchmark::Bt.spec().kernel_set();
        assert_eq!(ks.len(), 5);
        assert!(ks.id_of("z_solve").is_some());
    }
}
