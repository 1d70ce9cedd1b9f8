//! Regime maps: classified segmentations of coupling curves.
//!
//! [`build_map`] runs change-point detection over every
//! [`ChainCurve`] and labels each detected segment with the paper's
//! regime vocabulary — *constructive* (`C_S < 1`), *neutral*
//! (`C_S ≈ 1`), *destructive* (`C_S > 1`) — plus the cache level(s)
//! the working set straddles on the machine's (contention-derated)
//! hierarchy.  The map renders both as a text table and as canonical
//! JSON for golden snapshotting; both forms are deterministic
//! byte-for-byte for a given sweep.

use crate::detect::{detect_changepoints, segments_at, DetectParams};
use crate::sweep::{ChainCurve, CurvePoint};
use serde::{Deserialize, Serialize};

/// Half-width of the neutral band around `C_S = 1`.
pub const NEUTRAL_EPS: f64 = 0.02;

/// One classified regime segment of a chain's curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeSegment {
    /// First curve-point index (inclusive).
    pub start: usize,
    /// One past the last curve-point index.
    pub end: usize,
    /// Mean coupling value over the segment.
    pub mean_coupling: f64,
    /// `constructive`, `neutral` or `destructive`.
    pub regime: String,
    /// Cache level(s) the segment's working sets land in, e.g. `L1`
    /// or `L2->mem` when the segment straddles a crossing.
    pub cache_levels: String,
    /// Working set of the first point (bytes).
    pub ws_from: u64,
    /// Working set of the last point (bytes).
    pub ws_to: u64,
}

/// The detected regime structure of one chain on one machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeChain {
    /// Machine name.
    pub machine: String,
    /// Chain label.
    pub chain: String,
    /// Boundary point indices (a boundary at `b` starts a new regime
    /// at point `b`).
    pub boundaries: Vec<usize>,
    /// Working set (bytes) at each boundary's first point.
    pub boundary_ws: Vec<u64>,
    /// Classified segments, in curve order.
    pub segments: Vec<RegimeSegment>,
    /// The underlying curve points.
    pub points: Vec<CurvePoint>,
}

/// A full regime map: every chain of every machine in a sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeMap {
    /// Sweep spec name.
    pub spec: String,
    /// Benchmark swept.
    pub benchmark: String,
    /// Chain length analyzed.
    pub chain_len: usize,
    /// Chains, machine-major in spec order.
    pub chains: Vec<RegimeChain>,
}

/// Classify a mean coupling value against the neutral band.
pub fn classify(mean: f64) -> &'static str {
    if mean < 1.0 - NEUTRAL_EPS {
        "constructive"
    } else if mean > 1.0 + NEUTRAL_EPS {
        "destructive"
    } else {
        "neutral"
    }
}

/// Human name of a cache level on a `levels`-deep machine.
pub fn level_name(level: usize, levels: usize) -> String {
    if level >= levels {
        "mem".to_string()
    } else {
        format!("L{}", level + 1)
    }
}

fn segment_levels(points: &[CurvePoint], levels: usize) -> String {
    let lo = points.iter().map(|p| p.cache_level).min().unwrap_or(0);
    let hi = points.iter().map(|p| p.cache_level).max().unwrap_or(0);
    if lo == hi {
        level_name(lo, levels)
    } else {
        format!("{}->{}", level_name(lo, levels), level_name(hi, levels))
    }
}

/// Detect and classify the regimes of one curve.
pub fn detect_chain(curve: &ChainCurve, params: &DetectParams) -> RegimeChain {
    let values: Vec<f64> = curve.points.iter().map(|p| p.coupling).collect();
    let boundaries = detect_changepoints(&values, params);
    let segments = segments_at(&values, &boundaries)
        .into_iter()
        .map(|seg| {
            let pts = &curve.points[seg.start..seg.end];
            RegimeSegment {
                start: seg.start,
                end: seg.end,
                mean_coupling: seg.mean,
                regime: classify(seg.mean).to_string(),
                cache_levels: segment_levels(pts, curve.levels),
                ws_from: pts.first().map_or(0, |p| p.working_set),
                ws_to: pts.last().map_or(0, |p| p.working_set),
            }
        })
        .collect();
    RegimeChain {
        machine: curve.machine.clone(),
        chain: curve.chain.clone(),
        boundary_ws: boundaries
            .iter()
            .map(|&b| curve.points[b].working_set)
            .collect(),
        boundaries,
        segments,
        points: curve.points.clone(),
    }
}

/// Build the full regime map for a sweep's curves.
pub fn build_map(
    spec_name: &str,
    benchmark: &str,
    chain_len: usize,
    curves: &[ChainCurve],
    params: &DetectParams,
) -> RegimeMap {
    RegimeMap {
        spec: spec_name.to_string(),
        benchmark: benchmark.to_string(),
        chain_len,
        chains: curves.iter().map(|c| detect_chain(c, params)).collect(),
    }
}

/// Deterministic human-readable byte count (binary units, one
/// decimal).
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes}B")
    } else if b < KIB * KIB {
        format!("{:.1}KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else {
        format!("{:.1}GiB", b / (KIB * KIB * KIB))
    }
}

impl RegimeMap {
    /// The most-segmented chain of `machine`, if any.
    pub fn busiest_chain(&self, machine: &str) -> Option<&RegimeChain> {
        self.chains
            .iter()
            .filter(|c| c.machine == machine)
            .max_by_key(|c| c.boundaries.len())
    }

    /// Render the map as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "regime map — {} ({}, chain len {})\n",
            self.spec, self.benchmark, self.chain_len
        ));
        let mut last_machine = "";
        for chain in &self.chains {
            if chain.machine != last_machine {
                out.push_str(&format!("\n== {} ==\n", chain.machine));
                last_machine = &chain.machine;
            }
            let ws_list: Vec<String> = chain.boundary_ws.iter().map(|&w| fmt_bytes(w)).collect();
            out.push_str(&format!(
                "{}  [{} boundaries{}{}]\n",
                chain.chain,
                chain.boundaries.len(),
                if ws_list.is_empty() { "" } else { " at ws " },
                ws_list.join(", ")
            ));
            for seg in &chain.segments {
                out.push_str(&format!(
                    "  pts {:>2}-{:<2} ws {:>9}..{:<9} {:<8} C\u{0304}={:.4}  {}\n",
                    seg.start + 1,
                    seg.end,
                    fmt_bytes(seg.ws_from),
                    fmt_bytes(seg.ws_to),
                    seg.cache_levels,
                    seg.mean_coupling,
                    seg.regime,
                ));
            }
        }
        out
    }

    /// Canonical pretty JSON (trailing newline included), suitable
    /// for golden snapshotting and byte-compare across runs.
    pub fn to_json_pretty(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("regime map serializes");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(machine: &str, chain: &str, cs: &[f64]) -> ChainCurve {
        ChainCurve {
            machine: machine.to_string(),
            chain: chain.to_string(),
            levels: 2,
            points: cs
                .iter()
                .enumerate()
                .map(|(i, &c)| CurvePoint {
                    class: "S".to_string(),
                    procs: 4,
                    working_set: (i as u64 + 1) * 1024,
                    coupling: c,
                    cache_level: if i < cs.len() / 2 { 0 } else { 1 },
                })
                .collect(),
        }
    }

    #[test]
    fn classification_bands() {
        assert_eq!(classify(0.9), "constructive");
        assert_eq!(classify(1.0), "neutral");
        assert_eq!(classify(1.019), "neutral");
        assert_eq!(classify(1.2), "destructive");
    }

    #[test]
    fn level_names() {
        assert_eq!(level_name(0, 2), "L1");
        assert_eq!(level_name(1, 2), "L2");
        assert_eq!(level_name(2, 2), "mem");
    }

    #[test]
    fn bytes_format_is_stable() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(8294), "8.1KiB");
        assert_eq!(fmt_bytes(1024 * 1024), "1.0MiB");
        assert_eq!(fmt_bytes(1318 * 1024), "1.3MiB");
    }

    #[test]
    fn a_stepped_curve_maps_to_classified_segments() {
        let c = curve("m", "{a, b}", &[0.9, 0.9, 0.9, 0.91, 1.3, 1.31, 1.3, 1.29]);
        let chain = detect_chain(&c, &DetectParams::default());
        assert_eq!(chain.boundaries, vec![4]);
        assert_eq!(chain.boundary_ws, vec![5 * 1024]);
        assert_eq!(chain.segments.len(), 2);
        assert_eq!(chain.segments[0].regime, "constructive");
        assert_eq!(chain.segments[1].regime, "destructive");
        assert_eq!(chain.segments[0].cache_levels, "L1");
        assert_eq!(chain.segments[1].cache_levels, "L2");
        let map = build_map("t", "BT", 2, &[c], &DetectParams::default());
        assert_eq!(map.busiest_chain("m").unwrap().chain, "{a, b}");
        // render + json round out deterministically
        let text = map.render();
        assert!(text.contains("constructive"));
        assert!(text.contains("1 boundaries"));
        let json = map.to_json_pretty();
        assert_eq!(json, map.to_json_pretty());
        let back: RegimeMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn flat_neutral_curves_are_one_segment() {
        let c = curve("m", "{a}", &[1.0; 8]);
        let chain = detect_chain(&c, &DetectParams::default());
        assert!(chain.boundaries.is_empty());
        assert_eq!(chain.segments.len(), 1);
        assert_eq!(chain.segments[0].regime, "neutral");
        assert_eq!(chain.segments[0].cache_levels, "L1->L2");
    }
}
