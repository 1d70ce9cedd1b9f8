//! Offline change-point detection on coupling curves.
//!
//! The paper's qualitative claim is that coupling values move through
//! a finite set of *regimes* as the per-rank working set crosses cache
//! levels.  Given a curve of `C_S` values ordered by working set, this
//! module finds the regime boundaries by exact penalized segmentation
//! — the optimization PELT solves — with a squared-error segment cost
//! and the PELT pruning rule.
//!
//! Everything here is deterministic: no RNG, no hash iteration, ties
//! broken toward the earliest (fewest-segment) solution via strict
//! comparison in candidate order.  The penalty is scaled by a *robust*
//! noise estimate (median absolute successive difference), so smooth
//! within-regime drift does not read as a boundary, and a variance
//! floor guarantees constant curves segment into exactly one piece.

/// Tuning knobs for [`detect_changepoints`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectParams {
    /// Penalty multiplier `beta`: each boundary must buy at least
    /// `beta * sigma^2 * ln(n)` of squared-error reduction.
    pub penalty: f64,
    /// Minimum points per segment.
    pub min_segment: usize,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            penalty: 3.0,
            min_segment: 2,
        }
    }
}

/// One detected segment of a curve: points `start..end` with their
/// mean value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First point index (inclusive).
    pub start: usize,
    /// One past the last point index.
    pub end: usize,
    /// Mean of the segment's values.
    pub mean: f64,
}

/// Robust per-step noise scale: the median absolute successive
/// difference, rescaled to a Gaussian sigma (MAD of a difference of
/// two iid normals is `0.6745 * sqrt(2) * sigma`).
fn robust_sigma(xs: &[f64]) -> f64 {
    let mut diffs: Vec<f64> = xs.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    if diffs.is_empty() {
        return 0.0;
    }
    diffs.sort_by(f64::total_cmp);
    let mid = diffs.len() / 2;
    let median = if diffs.len() % 2 == 1 {
        diffs[mid]
    } else {
        0.5 * (diffs[mid - 1] + diffs[mid])
    };
    median / (0.6745 * std::f64::consts::SQRT_2)
}

/// The boundary penalty for a curve: `penalty * sigma^2 * ln(n)` with
/// a floor so a constant curve (sigma 0) still charges every split.
fn penalty_for(xs: &[f64], params: &DetectParams) -> f64 {
    let n = xs.len() as f64;
    let scale = xs.iter().fold(1.0f64, |a, &x| a.max(x.abs()));
    let sigma = robust_sigma(xs);
    let var = (sigma * sigma).max(1e-12 * scale * scale);
    (params.penalty * var * n.ln()).max(1e-9 * scale * scale)
}

/// Detect change points in `xs`.
///
/// Returns the sorted boundary indices `b` (each `0 < b < xs.len()`):
/// a boundary at `b` separates the segment ending at `b - 1` from the
/// one starting at `b`.  An empty result means the whole curve is one
/// regime.
///
/// Exact penalized least-squares segmentation (the PELT objective):
/// minimizes `sum of segment SSE + beta * (#segments)` by dynamic
/// programming with the PELT candidate-pruning rule, `O(n)`–`O(n^2)`.
/// Deterministic for any input.
pub fn detect_changepoints(xs: &[f64], params: &DetectParams) -> Vec<usize> {
    let n = xs.len();
    let min_seg = params.min_segment.max(1);
    if n < 2 * min_seg {
        return Vec::new();
    }

    // Prefix sums make any segment's SSE O(1).
    let mut s = vec![0.0f64; n + 1];
    let mut s2 = vec![0.0f64; n + 1];
    for (i, &x) in xs.iter().enumerate() {
        s[i + 1] = s[i] + x;
        s2[i + 1] = s2[i] + x * x;
    }
    let cost = |a: usize, b: usize| -> f64 {
        let len = (b - a) as f64;
        let sum = s[b] - s[a];
        (s2[b] - s2[a] - sum * sum / len).max(0.0)
    };

    let beta = penalty_for(xs, params);
    // f[t] = optimal penalized cost of xs[..t]; f[0] = -beta so a
    // solution with m segments pays (m - 1) * beta in boundaries.
    let mut f = vec![f64::INFINITY; n + 1];
    let mut prev = vec![0usize; n + 1];
    f[0] = -beta;
    // Candidate segment starts, ascending; scanning in order with a
    // strict `<` prefers the earliest start on ties (fewer segments).
    let mut cands: Vec<usize> = vec![0];
    for t in min_seg..=n {
        let mut best = f64::INFINITY;
        let mut arg = 0usize;
        for &tau in &cands {
            if t - tau < min_seg {
                continue;
            }
            let v = f[tau] + cost(tau, t) + beta;
            if v < best {
                best = v;
                arg = tau;
            }
        }
        f[t] = best;
        prev[t] = arg;
        // PELT pruning: a start that cannot beat f[t] even without its
        // boundary penalty can never be optimal for any t' > t.
        cands.retain(|&tau| t - tau < min_seg || f[tau] + cost(tau, t) <= f[t]);
        cands.push(t);
    }

    let mut boundaries = Vec::new();
    let mut t = n;
    while t > 0 {
        let tau = prev[t];
        if tau > 0 {
            boundaries.push(tau);
        }
        t = tau;
    }
    boundaries.reverse();
    boundaries
}

/// Split `xs` into [`Segment`]s at the detected boundaries.
pub fn segments(xs: &[f64], params: &DetectParams) -> Vec<Segment> {
    segments_at(xs, &detect_changepoints(xs, params))
}

/// Split `xs` into [`Segment`]s at explicit `boundaries` (sorted,
/// in-range — what [`detect_changepoints`] returns).
pub fn segments_at(xs: &[f64], boundaries: &[usize]) -> Vec<Segment> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(boundaries.len() + 1);
    let mut start = 0usize;
    for &b in boundaries.iter().chain(std::iter::once(&xs.len())) {
        let slice = &xs[start..b];
        out.push(Segment {
            start,
            end: b,
            mean: slice.iter().sum::<f64>() / slice.len() as f64,
        });
        start = b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_curves_have_no_boundaries() {
        let p = DetectParams::default();
        for v in [0.0, 1.0, -3.5, 1e6] {
            let xs = vec![v; 16];
            assert_eq!(detect_changepoints(&xs, &p), Vec::<usize>::new(), "v={v}");
            let segs = segments(&xs, &p);
            assert_eq!(segs.len(), 1);
            assert_eq!(
                segs[0],
                Segment {
                    start: 0,
                    end: 16,
                    mean: v
                }
            );
        }
    }

    #[test]
    fn a_clean_step_is_found_exactly() {
        let p = DetectParams::default();
        let xs: Vec<f64> = (0..12).map(|i| if i < 7 { 0.9 } else { 1.3 }).collect();
        assert_eq!(detect_changepoints(&xs, &p), vec![7]);
    }

    #[test]
    fn two_steps_yield_two_boundaries() {
        let p = DetectParams::default();
        let mut xs = vec![0.95; 5];
        xs.extend(vec![1.0; 4]);
        xs.extend(vec![1.4; 5]);
        assert_eq!(detect_changepoints(&xs, &p), vec![5, 9]);
    }

    #[test]
    fn short_curves_never_split() {
        let p = DetectParams::default();
        assert!(detect_changepoints(&[], &p).is_empty());
        assert!(detect_changepoints(&[1.0], &p).is_empty());
        assert!(detect_changepoints(&[0.0, 10.0], &p).is_empty());
        assert!(detect_changepoints(&[0.0, 0.0, 10.0], &p).is_empty());
    }

    #[test]
    fn boundaries_respect_min_segment() {
        let p = DetectParams {
            penalty: 3.0,
            min_segment: 3,
        };
        let xs: Vec<f64> = (0..12).map(|i| if i < 2 { 0.0 } else { 5.0 }).collect();
        // the true break at 2 is closer to the edge than min_segment
        // allows; the detector must place boundaries >= 3 apart
        for b in detect_changepoints(&xs, &p) {
            assert!((3..=9).contains(&b));
        }
    }

    #[test]
    fn a_noisy_step_is_found_and_noise_alone_is_not() {
        // deterministic "noise" an order of magnitude under the step
        let p = DetectParams::default();
        let noise = |i: usize| 0.02 * ((i * 2654435761) % 7) as f64 / 7.0 - 0.01;
        let xs: Vec<f64> = (0..20)
            .map(|i| if i < 11 { 1.0 } else { 1.5 } + noise(i))
            .collect();
        assert_eq!(detect_changepoints(&xs, &p), vec![11]);
        let flat: Vec<f64> = (0..20).map(|i| 1.0 + noise(i)).collect();
        assert_eq!(detect_changepoints(&flat, &p), Vec::<usize>::new());
    }
}
