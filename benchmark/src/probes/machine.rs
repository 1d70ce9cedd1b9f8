//! `kc-machine`: host time per message, collective and cluster
//! dispatch, from programs that do nothing else.

use super::{timed, Bench};
use kc_machine::{Cluster, MachineConfig, RankCtx};
use std::io;

/// Time `program` on `p` ranks; returns host seconds, messages sent
/// and the virtual time the run took (which must repeat exactly).
fn run_program(
    b: &mut Bench,
    name: &str,
    p: usize,
    program: impl Fn(&mut RankCtx) + Sync,
) -> io::Result<(f64, u64, f64)> {
    let cluster = Cluster::new(MachineConfig::ibm_sp_p2sc().without_noise());
    cluster.run(p, |_| ()); // the rank pool for `p` exists before timing
    let (secs, (messages, virt_bits)) = b.repeat(name, || {
        let (secs, out) = timed(|| cluster.run(p, &program));
        Ok((secs, (out.total_messages(), out.elapsed().to_bits())))
    })?;
    Ok((secs, messages, f64::from_bits(virt_bits)))
}

pub fn run(b: &mut Bench) -> io::Result<()> {
    // every rank passes a token to its right-hand neighbour
    let ring = |ctx: &mut RankCtx| {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..2000 {
            ctx.send(right, 7, vec![1.0]);
            ctx.recv(left, 7);
        }
    };
    for p in [4, 32] {
        let name = format!("machine.ring_p{p}");
        let (secs, messages, virt) = run_program(b, &name, p, ring)?;
        b.layers.set(
            &format!("machine.ns_per_msg.ring_p{p}"),
            1e9 * secs / messages as f64,
        );
        if p == 32 {
            b.layers.set("machine.virt_s.ring_p32", virt);
        }
    }

    // a 4x4 torus exchanging 8 KiB faces with all four neighbours
    let halo = |ctx: &mut RankCtx| {
        let (row, col) = (ctx.rank() / 4, ctx.rank() % 4);
        let at = |r: usize, c: usize| (r % 4) * 4 + c % 4;
        let neighbours = [
            at(row + 3, col),
            at(row + 1, col),
            at(row, col + 3),
            at(row, col + 1),
        ];
        for _ in 0..200 {
            for (tag, &n) in neighbours.iter().enumerate() {
                ctx.send(n, tag as u32, vec![0.0; 1024]);
            }
            // a face sent "up" (tag 0) arrives from the rank below
            for (tag, &n) in [1, 0, 3, 2].iter().zip(&neighbours) {
                ctx.recv(n, *tag);
            }
        }
    };
    let (secs, messages, _) = run_program(b, "machine.halo_p16_8k", 16, halo)?;
    b.layers.set(
        "machine.ns_per_msg.halo_p16_8k",
        1e9 * secs / messages as f64,
    );

    const COLLECTIVES: u32 = 500;
    let barriers = |ctx: &mut RankCtx| (0..COLLECTIVES).for_each(|_| ctx.barrier());
    let (secs, ..) = run_program(b, "machine.barrier_p32", 32, barriers)?;
    b.layers.set(
        "machine.us_per_barrier.p32",
        1e6 * secs / f64::from(COLLECTIVES),
    );
    let reductions = |ctx: &mut RankCtx| {
        for _ in 0..COLLECTIVES {
            ctx.allreduce_sum(1.0);
        }
    };
    let (secs, ..) = run_program(b, "machine.allreduce_p32", 32, reductions)?;
    b.layers.set(
        "machine.us_per_allreduce.p32",
        1e6 * secs / f64::from(COLLECTIVES),
    );

    const DISPATCHES: u32 = 200;
    for p in [8, 32] {
        let cluster = Cluster::new(MachineConfig::ibm_sp_p2sc().without_noise());
        cluster.run(p, |_| ());
        let (secs, ()) = b.repeat(&format!("machine.dispatch_p{p}"), || {
            let (secs, ()) = timed(|| (0..DISPATCHES).for_each(|_| drop(cluster.run(p, |_| ()))));
            Ok((secs, ()))
        })?;
        b.layers.set(
            &format!("machine.us_per_dispatch.p{p}"),
            1e6 * secs / f64::from(DISPATCHES),
        );
    }
    Ok(())
}
