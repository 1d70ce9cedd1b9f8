//! Property-based tests of the core invariants, spanning the coupling
//! algebra, the cache simulator and the grid decompositions.

use kernel_couplings::cachesim::{
    AccessCounts, CacheConfig, CacheHierarchy, ReuseDistance, SetAssocCache, Span,
};
use kernel_couplings::coupling::{ChainExecutor, CouplingAnalysis, Predictor, SyntheticExecutor};
use kernel_couplings::grid::{Decomp1d, ProcGrid};
use kernel_couplings::machine::MachineConfig;
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};

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

/// The cache hierarchy written the obvious way, sharing no code with
/// `kc-cachesim`: per level one LRU queue of line numbers per set
/// (front = most recent), `set = line % sets`, a deeper level
/// consulted only when the one above missed.  The span walker is
/// checked against this line by line.
struct ModelHierarchy {
    /// Per level: `(ways, one queue per set)`.
    levels: Vec<(usize, Vec<VecDeque<u64>>)>,
    line: u64,
    totals: ModelCounts,
}

/// Lines served per level and by memory — the model's own tally, laid
/// out like `AccessCounts` so the two compare field by field.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct ModelCounts {
    hits: [u64; 4],
    memory: u64,
}

impl ModelCounts {
    fn add(&mut self, other: ModelCounts) {
        for (mine, theirs) in self.hits.iter_mut().zip(other.hits) {
            *mine += theirs;
        }
        self.memory += other.memory;
    }
}

impl PartialEq<ModelCounts> for AccessCounts {
    fn eq(&self, model: &ModelCounts) -> bool {
        (self.hits, self.memory) == (model.hits, model.memory)
    }
}

impl ModelHierarchy {
    fn new(configs: &[CacheConfig]) -> Self {
        let levels = configs
            .iter()
            .map(|c| (c.ways, vec![VecDeque::new(); c.capacity / c.line / c.ways]))
            .collect();
        Self {
            levels,
            line: configs[0].line as u64,
            totals: ModelCounts::default(),
        }
    }

    fn access_line(&mut self, line: u64, counts: &mut ModelCounts) {
        for (level, (ways, sets)) in self.levels.iter_mut().enumerate() {
            let n = sets.len() as u64;
            let set = &mut sets[(line % n) as usize];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                set.push_front(line);
                counts.hits[level] += 1;
                return;
            }
            set.push_front(line);
            if set.len() > *ways {
                set.pop_back();
            }
        }
        counts.memory += 1;
    }

    fn touch(&mut self, addr: u64, bytes: u64) -> ModelCounts {
        let mut counts = ModelCounts::default();
        if bytes > 0 {
            for line in addr / self.line..=(addr + bytes - 1) / self.line {
                self.access_line(line, &mut counts);
            }
        }
        self.totals.add(counts);
        counts
    }

    fn touch_strided(&mut self, start: u64, stride: u64, elem: u64, count: u64) -> ModelCounts {
        let mut counts = ModelCounts::default();
        for n in 0..count {
            counts.add(self.touch(start + n * stride, elem));
        }
        counts
    }

    fn flush(&mut self) {
        for (_, sets) in &mut self.levels {
            sets.iter_mut().for_each(VecDeque::clear);
        }
    }

    fn holds(&self, level: usize, line: u64) -> bool {
        let sets = &self.levels[level].1;
        sets[(line % sets.len() as u64) as usize].contains(&line)
    }
}

/// Where an access starts: some multiples of the first and last
/// levels' way sizes (so different places collide in the same sets of
/// both) plus a byte offset.
#[derive(Clone, Copy, Debug)]
struct Place {
    l1_ways: u64,
    llc_ways: u64,
    offset: u64,
}

impl Place {
    fn addr(self, configs: &[CacheConfig]) -> u64 {
        let way_bytes = |c: &CacheConfig| (c.capacity / c.ways) as u64;
        self.l1_ways * way_bytes(&configs[0])
            + self.llc_ways * way_bytes(&configs[configs.len() - 1])
            + self.offset
    }
}

#[derive(Clone, Debug)]
enum CacheOp {
    Touch {
        at: Place,
        bytes: u64,
    },
    /// `stride = stride_lines * line + stride_rest`.
    Strided {
        at: Place,
        stride_lines: u64,
        stride_rest: u64,
        elem: u64,
        count: u64,
    },
    Flush,
}

fn place() -> impl Strategy<Value = Place> {
    (
        0u64..6,
        0u64..10,
        prop_oneof![3 => 0u64..2048, 1 => 0u64..200_000],
    )
        .prop_map(|(l1_ways, llc_ways, offset)| Place {
            l1_ways,
            llc_ways,
            offset,
        })
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        // mostly row-sized spans, some longer than the 4096-set LLC
        12 => (place(), prop_oneof![8 => 0u64..1500, 1 => 0u64..700_000])
            .prop_map(|(at, bytes)| CacheOp::Touch { at, bytes }),
        // strides that are and are not whole lines, some longer than a
        // level's way, elements that fit or straddle a line
        6 => (
            place(),
            (
                prop_oneof![4 => 0u64..40, 1 => 0u64..6000],
                prop_oneof![1 => Just(0u64), 1 => 1u64..128],
            ),
            0u64..200,
            0u64..120,
        )
            .prop_map(|(at, (stride_lines, stride_rest), elem, count)| CacheOp::Strided {
                at,
                stride_lines,
                stride_rest,
                elem,
                count,
            }),
        1 => Just(CacheOp::Flush),
    ]
}

/// Every geometry the campaigns simulate (all 4- or 8-way), plus a toy:
/// a 1-set/2-way L1 in front of a 3-set/2-way L2, where every span
/// wraps both set cursors many times and the lookup is the one for
/// associativities the presets do not use.
fn geometries() -> Vec<(String, Vec<CacheConfig>)> {
    let toy = |levels: &[(usize, usize)]| -> Vec<CacheConfig> {
        levels
            .iter()
            .map(|&(sets, ways)| CacheConfig {
                capacity: sets * ways * 64,
                line: 64,
                ways,
            })
            .collect()
    };
    let mut all = vec![
        (
            "ibm-sp-p2sc".to_string(),
            MachineConfig::ibm_sp_p2sc().caches,
        ),
        (
            "ethernet-cluster".to_string(),
            MachineConfig::ethernet_cluster().caches,
        ),
        ("test-tiny".to_string(), MachineConfig::test_tiny().caches),
        ("toy 1x2 / 3x2".to_string(), toy(&[(1, 2), (3, 2)])),
    ];
    for sharers in [2, 3, 4] {
        all.push((
            format!("multicore-smp / {sharers} sharers"),
            MachineConfig::multicore_smp()
                .effective_for_ranks(sharers)
                .caches,
        ));
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulator agrees with the independent model on every call's
    /// counts, on the running totals, and on which lines each level
    /// holds at the end — for contiguous, strided and flushed traffic
    /// on every built-in geometry (the 3-sharer LLC has 1365 sets).
    #[test]
    fn hierarchy_matches_the_independent_per_line_model(
        ops in prop::collection::vec(cache_op(), 1..48),
    ) {
        for (name, configs) in geometries() {
            let mut sim = CacheHierarchy::new(configs.clone());
            let mut model = ModelHierarchy::new(&configs);
            let line = configs[0].line as u64;
            let mut touched = BTreeSet::new();
            let mut note = |addr: u64, bytes: u64| {
                if bytes > 0 {
                    touched.extend(addr / line..=(addr + bytes - 1) / line);
                }
            };
            for (step, op) in ops.iter().enumerate() {
                let (got, want) = match *op {
                    CacheOp::Touch { at, bytes } => {
                        let addr = at.addr(&configs);
                        note(addr, bytes);
                        (sim.touch(Span { addr, bytes }), model.touch(addr, bytes))
                    }
                    CacheOp::Strided { at, stride_lines, stride_rest, elem, count } => {
                        let start = at.addr(&configs);
                        let stride = stride_lines * line + stride_rest;
                        for n in 0..count {
                            note(start + n * stride, elem);
                        }
                        (
                            sim.touch_strided(start, stride, elem, count),
                            model.touch_strided(start, stride, elem, count),
                        )
                    }
                    CacheOp::Flush => {
                        sim.flush();
                        model.flush();
                        continue;
                    }
                };
                prop_assert_eq!(got, want, "{}: step {} {:?}", name, step, op);
            }
            prop_assert_eq!(sim.totals(), model.totals, "{}: totals", name);
            for level in 0..configs.len() {
                for &l in &touched {
                    prop_assert_eq!(
                        sim.is_resident(level, l * line),
                        model.holds(level, l),
                        "{}: line {} at level {}", name, l, level
                    );
                }
            }
        }
    }
}
