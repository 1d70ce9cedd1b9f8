//! Property-based tests of the core invariants, spanning the coupling
//! algebra, the cache simulator and the grid decompositions.

use kernel_couplings::cachesim::{ReuseDistance, SetAssocCache};
use kernel_couplings::coupling::{ChainExecutor, CouplingAnalysis, Predictor, SyntheticExecutor};
use kernel_couplings::grid::{Decomp1d, ProcGrid};
use proptest::prelude::*;

/// Build a synthetic app from generated base times and interactions.
fn synthetic(bases: &[f64], deltas: &[(usize, usize, f64)], iters: u32) -> SyntheticExecutor {
    let names: Vec<String> = (0..bases.len()).map(|i| format!("k{i}")).collect();
    let mut b = SyntheticExecutor::builder();
    for (n, &t) in names.iter().zip(bases) {
        b = b.kernel(n, t);
    }
    for &(i, j, d) in deltas {
        b = b.interaction(&names[i % bases.len()], &names[j % bases.len()], d);
    }
    b.loop_iterations(iters).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With no interactions every coupling value is exactly 1 and the
    /// coupling predictor equals summation (and both are exact).
    #[test]
    fn unit_coupling_without_interactions(
        bases in prop::collection::vec(0.1f64..10.0, 2..6),
        chain_len in 1usize..6,
        iters in 1u32..500,
    ) {
        let chain_len = chain_len.min(bases.len());
        let mut app = synthetic(&bases, &[], iters);
        let analysis = CouplingAnalysis::collect(&mut app, chain_len, 3).unwrap();
        for c in analysis.couplings().unwrap() {
            prop_assert!((c - 1.0).abs() < 1e-12);
        }
        let actual = app.measure_application().mean();
        let coupled = analysis.predict(Predictor::coupling(chain_len)).unwrap();
        let summed = analysis.predict(Predictor::Summation).unwrap();
        prop_assert!((coupled - summed).abs() <= 1e-9 * summed.abs());
        prop_assert!((coupled - actual).abs() <= 1e-9 * actual.abs());
    }

    /// The full-length-chain coupling predictor is exact for ANY
    /// interaction structure (the composition-algebra fixed point).
    #[test]
    fn full_chain_predictor_is_exact(
        bases in prop::collection::vec(0.1f64..10.0, 2..6),
        deltas in prop::collection::vec(
            (0usize..6, 0usize..6, -0.04f64..0.2), 0..8),
        iters in 1u32..300,
    ) {
        let n = bases.len();
        let mut app = synthetic(&bases, &deltas, iters);
        let analysis = CouplingAnalysis::collect(&mut app, n, 3).unwrap();
        let actual = app.measure_application().mean();
        let coupled = analysis.predict(Predictor::coupling(n)).unwrap();
        prop_assert!(
            (coupled - actual).abs() <= 1e-9 * actual.abs(),
            "predicted {coupled}, actual {actual}"
        );
    }

    /// Composition coefficients are convex combinations of the window
    /// coupling values: min C_W <= alpha_k <= max C_W.
    #[test]
    fn coefficients_bounded_by_couplings(
        bases in prop::collection::vec(0.5f64..5.0, 3..6),
        deltas in prop::collection::vec(
            (0usize..6, 0usize..6, -0.05f64..0.3), 1..8),
        chain_len in 2usize..5,
    ) {
        let chain_len = chain_len.min(bases.len());
        let mut app = synthetic(&bases, &deltas, 10);
        let analysis = CouplingAnalysis::collect(&mut app, chain_len, 3).unwrap();
        let cs = analysis.couplings().unwrap();
        let lo = cs.iter().copied().fold(f64::INFINITY, f64::min) - 1e-12;
        let hi = cs.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 1e-12;
        let coeff = analysis.coefficients().unwrap();
        for &a in coeff.as_slice() {
            prop_assert!(a >= lo && a <= hi, "alpha {a} outside [{lo}, {hi}]");
        }
    }

    /// Purely constructive interaction structures give predictors that
    /// never overshoot summation.
    #[test]
    fn constructive_interactions_lower_the_prediction(
        bases in prop::collection::vec(1.0f64..5.0, 2..5),
        chain_len in 2usize..5,
    ) {
        let n = bases.len();
        let chain_len = chain_len.min(n);
        let deltas: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, (i + 1) % n, -0.1)).collect();
        let mut app = synthetic(&bases, &deltas, 10);
        let analysis = CouplingAnalysis::collect(&mut app, chain_len, 3).unwrap();
        let coupled = analysis.predict(Predictor::coupling(chain_len)).unwrap();
        let summed = analysis.predict(Predictor::Summation).unwrap();
        prop_assert!(coupled <= summed + 1e-12);
    }

    /// LRU inclusion: at fixed set count, doubling associativity (and
    /// therefore capacity) never increases the miss count on any
    /// access trace.
    #[test]
    fn lru_inclusion_property(
        addrs in prop::collection::vec(0u64..4096, 1..300),
    ) {
        let line = 64;
        let sets = 8;
        let mut misses = Vec::new();
        for ways in [1usize, 2, 4, 8] {
            let mut c = SetAssocCache::new(sets * ways * line, line, ways);
            let mut m = 0u64;
            for &a in &addrs {
                if !c.access(a * 8) {
                    m += 1;
                }
            }
            misses.push(m);
        }
        for w in misses.windows(2) {
            prop_assert!(w[1] <= w[0], "misses increased with capacity: {misses:?}");
        }
    }

    /// A cache large enough for the whole trace only takes cold
    /// misses: one per distinct line.
    #[test]
    fn big_cache_only_cold_misses(
        addrs in prop::collection::vec(0u64..10_000, 1..200),
    ) {
        let line = 64u64;
        let mut c = SetAssocCache::fully_associative(1 << 20, line as usize);
        let mut distinct = std::collections::HashSet::new();
        for &a in &addrs {
            c.access(a * 8);
            distinct.insert((a * 8) / line);
        }
        prop_assert_eq!(c.misses(), distinct.len() as u64);
    }

    /// The stack-distance oracle: a fully-associative LRU cache of C
    /// lines misses exactly the accesses whose reuse distance is not
    /// below C, on any line trace.
    #[test]
    fn fully_associative_misses_match_the_reuse_distance_oracle(
        lines in prop::collection::vec(0u64..256, 1..400),
        capacity_lines in 1u64..128,
    ) {
        let line = 64u64;
        let mut oracle = ReuseDistance::new();
        let mut cache =
            SetAssocCache::fully_associative((capacity_lines * line) as usize, line as usize);
        for &l in &lines {
            oracle.access(l);
            cache.access(l * line);
        }
        prop_assert_eq!(
            cache.misses(),
            oracle.total_accesses() - oracle.hits_under(capacity_lines)
        );
    }

    /// 1-D decompositions cover the index space exactly, in order,
    /// with part sizes differing by at most one.
    #[test]
    fn decomp_coverage_and_balance(n in 1usize..500, parts in 1usize..64) {
        prop_assume!(parts <= n);
        let d = Decomp1d::new(n, parts);
        let mut next = 0;
        for r in d.ranges() {
            prop_assert_eq!(r.lo, next);
            next = r.hi;
            prop_assert!(r.len() == d.min_part() || r.len() == d.max_part());
        }
        prop_assert_eq!(next, n);
        prop_assert!(d.max_part() - d.min_part() <= 1);
    }

    /// Process-grid coordinates round-trip and neighbour relations are
    /// symmetric for arbitrary grid shapes.
    #[test]
    fn proc_grid_roundtrip(cols in 1usize..9, rows in 1usize..9) {
        let g = ProcGrid::new(cols, rows);
        for r in 0..g.size() {
            prop_assert_eq!(g.rank(g.coords(r)), r);
            if let Some(e) = g.east(r) {
                prop_assert_eq!(g.west(e), Some(r));
            }
            if let Some(n) = g.north(r) {
                prop_assert_eq!(g.south(n), Some(r));
            }
            prop_assert!(g.neighbors(r).len() <= 4);
        }
    }
}
