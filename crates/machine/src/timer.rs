//! Deterministic measurement-noise model.
//!
//! Real performance measurements carry error from timer granularity,
//! interrupts and system daemons.  The paper's class-S experiments are
//! dominated by exactly this effect.  [`NoisyTimer`] adds a seeded,
//! reproducible perturbation to a true virtual time: an absolute floor
//! term plus a proportional term, both approximately Gaussian.

use crate::config::TimerModel;

/// A deterministic noisy timer.
///
/// Each call to [`NoisyTimer::sample`] consumes one position in the
/// noise stream, so repeated measurements of the same quantity differ
/// — exactly like back-to-back stopwatch readings on a real system —
/// while whole experiments replay bit-identically for a fixed seed.
#[derive(Clone, Debug)]
pub struct NoisyTimer {
    model: TimerModel,
    counter: u64,
}

impl NoisyTimer {
    /// A timer using the given noise model.
    pub fn new(model: TimerModel) -> Self {
        Self { model, counter: 0 }
    }

    /// Perturb `true_time` (seconds).  Results are clamped to be
    /// non-negative; a disabled model (all-zero noise) returns the
    /// input exactly.
    pub fn sample(&mut self, true_time: f64) -> f64 {
        self.counter += 1;
        if self.model.noise_floor == 0.0 && self.model.noise_frac == 0.0 {
            return true_time;
        }
        let g1 = gaussian(self.model.seed, self.counter, 0);
        let g2 = gaussian(self.model.seed, self.counter, 1);
        let noisy =
            true_time * (1.0 + self.model.noise_frac * g1) + self.model.noise_floor * g2.abs();
        noisy.max(0.0)
    }

    /// Reset the stream to its beginning.
    pub fn reset(&mut self) {
        self.counter = 0;
    }
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Approximately standard-normal deviate from `(seed, counter, lane)`,
/// via the sum of four uniforms (Irwin–Hall, variance-corrected).
fn gaussian(seed: u64, counter: u64, lane: u64) -> f64 {
    let mut acc = 0.0;
    for i in 0..4u64 {
        let h = splitmix64(seed ^ counter.wrapping_mul(0x100_0000_01b3) ^ (lane << 32) ^ i);
        acc += (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0,1)
    }
    // sum of 4 uniforms: mean 2, variance 4/12; normalize
    (acc - 2.0) / (4.0f64 / 12.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(floor: f64, frac: f64) -> TimerModel {
        TimerModel {
            noise_floor: floor,
            noise_frac: frac,
            seed: 42,
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut t = NoisyTimer::new(model(0.0, 0.0));
        assert_eq!(t.sample(1.5), 1.5);
        assert_eq!(t.sample(0.0), 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = NoisyTimer::new(model(1e-3, 0.01));
        let mut b = NoisyTimer::new(model(1e-3, 0.01));
        for _ in 0..10 {
            assert_eq!(a.sample(2.0), b.sample(2.0));
        }
    }

    #[test]
    fn consecutive_samples_differ() {
        let mut t = NoisyTimer::new(model(1e-3, 0.01));
        let s1 = t.sample(2.0);
        let s2 = t.sample(2.0);
        assert_ne!(s1, s2);
    }

    #[test]
    fn samples_never_negative() {
        let mut t = NoisyTimer::new(model(1.0, 0.5));
        for _ in 0..100 {
            assert!(t.sample(1e-9) >= 0.0);
        }
    }

    #[test]
    fn relative_error_grows_as_times_shrink() {
        // the class-S effect: with a fixed noise floor, small true
        // times have much larger relative error
        let m = model(1e-3, 0.002);
        let mut t = NoisyTimer::new(m);
        let mut rel = |true_t: f64| {
            let mut worst: f64 = 0.0;
            for _ in 0..50 {
                let s = t.sample(true_t);
                worst = worst.max(((s - true_t) / true_t).abs());
            }
            worst
        };
        let small = rel(5e-3);
        let large = rel(50.0);
        assert!(small > 10.0 * large, "small={small} large={large}");
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let n = 10_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let g = gaussian(7, i, 0);
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reset_replays_stream() {
        let mut t = NoisyTimer::new(model(1e-3, 0.01));
        let first = t.sample(1.0);
        t.reset();
        assert_eq!(t.sample(1.0), first);
    }
}
