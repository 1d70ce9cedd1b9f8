//! `kc-cachesim`: host nanoseconds per simulated cache-line access.
//!
//! Footprints are sized against the modelled levels (the IBM SP's
//! 128 KiB L1 and 4 MiB L2), as in Kerncraft's layer conditions: one
//! that fits L1, one that fits only L2, one that streams from memory,
//! a strided one that thrashes a few sets, and an L2-sized one on the
//! `multicore-smp` hierarchy after its shared LLC is split 4 ways.

use super::{timed, Bench};
use kc_cachesim::{AccessCounts, CacheConfig, CacheHierarchy, Span};
use kc_machine::MachineConfig;
use std::hint::black_box;
use std::io;

/// Line accesses each repetition times, at least.
const LINES_PER_REP: u64 = 4_000_000;

/// How a case touches memory in one pass.
enum Pattern {
    /// One contiguous span of this many bytes.
    Contiguous(u64),
    /// `count` elements of `elem` bytes, `stride` bytes apart.
    Strided { stride: u64, elem: u64, count: u64 },
}

impl Pattern {
    fn pass(&self, h: &mut CacheHierarchy) -> AccessCounts {
        match *self {
            Pattern::Contiguous(bytes) => h.touch(Span { addr: 0, bytes }),
            Pattern::Strided {
                stride,
                elem,
                count,
            } => h.touch_strided(0, stride, elem, count),
        }
    }
}

/// Time passes over `pattern` on a warm hierarchy; `name` is the
/// metric suffix.
fn case(b: &mut Bench, name: &str, levels: &[CacheConfig], pattern: Pattern) -> io::Result<()> {
    let (secs, (lines, to_memory)) = b.repeat(&format!("cachesim.{name}"), || {
        let mut h = CacheHierarchy::new(levels.to_vec());
        pattern.pass(&mut h); // timed passes start on filled caches
        let mut counts = AccessCounts::zero();
        let (secs, ()) = timed(|| {
            while counts.total() < LINES_PER_REP {
                counts += black_box(pattern.pass(black_box(&mut h)));
            }
        });
        Ok((secs, (counts.total(), counts.misses_to_memory())))
    })?;
    b.layers.set(
        &format!("cachesim.ns_per_line.{name}"),
        1e9 * secs / lines as f64,
    );
    b.layers.set(
        &format!("cachesim.mem_miss_share.{name}"),
        to_memory as f64 / lines as f64,
    );
    Ok(())
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    const KIB: u64 = 1024;
    let sp = MachineConfig::ibm_sp_p2sc().caches;
    let smp = MachineConfig::multicore_smp()
        .effective_for_ranks(16)
        .caches;
    case(b, "l1_fit", &sp, Pattern::Contiguous(16 * KIB))?;
    case(b, "l2_fit", &sp, Pattern::Contiguous(512 * KIB))?;
    case(b, "mem_stream", &sp, Pattern::Contiguous(16 * KIB * KIB))?;
    // 8192 five-double elements 2 KiB apart: 1 MiB of lines, but every
    // 16th set only, so the 8-way L2 holds a quarter of them
    let pencil = Pattern::Strided {
        stride: 2 * KIB,
        elem: 40,
        count: 8192,
    };
    case(b, "strided", &sp, pencil)?;
    case(b, "smp_shared_llc", &smp, Pattern::Contiguous(512 * KIB))
}
