//! Thread-local recycling of per-rank numeric buffers.
//!
//! A numeric cell execution allocates one [`crate::state::RankState`]
//! per rank — three `Field3` fields, four halo buffers and the solver
//! scratch — and drops it all when the cell finishes.  `kc-machine`
//! keeps its rank threads parked between runs: rank *r* of every cell
//! a scheduler worker executes runs on that worker's parked thread *r*,
//! whatever the cell's rank count.  So those allocations can be handed
//! back to a thread-local free list instead of the allocator: the next
//! `RankState::new` on the same thread pops a buffer, zeroes it and
//! resizes it to the new shape.
//!
//! Buffers are always fully zeroed on checkout, so a recycled state is
//! bit-for-bit the state a fresh allocation would produce — recycling
//! cannot change any computed result.  Bins are bounded (a handful of
//! buffers per thread) so a one-off huge cell cannot pin its arrays
//! forever.

use crate::blocks::Block;
use std::cell::RefCell;

/// At most one numeric `RankState`'s worth of `f64` buffers (3 fields
/// + 4 halos + 2 pentadiagonal coefficient vectors) per thread.
const F64_BIN_CAP: usize = 9;
/// BT recycles a single `Ctil` block vector per state.
const BLOCK_BIN_CAP: usize = 2;

#[derive(Default)]
struct Arena {
    f64_bufs: Vec<Vec<f64>>,
    block_bufs: Vec<Vec<Block>>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// Pop the recycled buffer with the most capacity, if any.
fn take_roomiest<T>(bin: &mut Vec<Vec<T>>) -> Option<Vec<T>> {
    let idx = bin
        .iter()
        .enumerate()
        .max_by_key(|(_, b)| b.capacity())
        .map(|(i, _)| i)?;
    Some(bin.swap_remove(idx))
}

/// A zeroed `Vec<f64>` of length `len`, reusing a recycled allocation
/// when one is available.
pub(crate) fn zeroed_f64(len: usize) -> Vec<f64> {
    let mut buf = ARENA
        .with(|a| take_roomiest(&mut a.borrow_mut().f64_bufs))
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// A raw recycled `f64` allocation (possibly empty) for callers that
/// zero and size it themselves, e.g. `Field3::zeros_in`.
pub(crate) fn raw_f64() -> Vec<f64> {
    ARENA
        .with(|a| take_roomiest(&mut a.borrow_mut().f64_bufs))
        .unwrap_or_default()
}

/// A zeroed `Vec<Block>` of length `len`, reusing a recycled
/// allocation when one is available.
pub(crate) fn zeroed_blocks(len: usize) -> Vec<Block> {
    let mut buf = ARENA
        .with(|a| take_roomiest(&mut a.borrow_mut().block_bufs))
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, [[0.0; 5]; 5]);
    buf
}

/// Hand an `f64` allocation back to this thread's free list.
pub(crate) fn recycle_f64(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    ARENA.with(|a| {
        let bin = &mut a.borrow_mut().f64_bufs;
        if bin.len() < F64_BIN_CAP {
            bin.push(buf);
        }
    });
}

/// Hand a `Block` allocation back to this thread's free list.
pub(crate) fn recycle_blocks(buf: Vec<Block>) {
    if buf.capacity() == 0 {
        return;
    }
    ARENA.with(|a| {
        let bin = &mut a.borrow_mut().block_bufs;
        if bin.len() < BLOCK_BIN_CAP {
            bin.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_come_back_zeroed_and_keep_their_capacity() {
        let mut a = zeroed_f64(64);
        a.iter_mut().for_each(|v| *v = 9.0);
        let cap = a.capacity();
        recycle_f64(a);
        let b = zeroed_f64(32);
        assert_eq!(b.len(), 32);
        assert_eq!(b.capacity(), cap, "same allocation, reused");
        assert!(b.iter().all(|&v| v == 0.0));
        recycle_f64(b);
    }

    #[test]
    fn block_bin_round_trips() {
        let mut c = zeroed_blocks(8);
        c[3][2][1] = 5.0;
        recycle_blocks(c);
        let d = zeroed_blocks(8);
        assert!(d.iter().all(|b| *b == [[0.0; 5]; 5]));
    }

    #[test]
    fn bins_are_bounded() {
        for _ in 0..(F64_BIN_CAP + 4) {
            recycle_f64(vec![0.0; 8]);
        }
        ARENA.with(|a| assert!(a.borrow().f64_bufs.len() <= F64_BIN_CAP));
        // empty buffers are not worth keeping
        recycle_f64(Vec::new());
        recycle_blocks(Vec::new());
    }
}
