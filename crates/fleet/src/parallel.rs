//! A tiny fork/join helper for the figure generators.
//!
//! Every table in the harness is a cartesian product of independent cells
//! (policy × cipher × scenario), each seeding its own RNG, so the cells can
//! be evaluated on separate OS threads without changing a single output
//! value. [`par_map`] does exactly that: a shared atomic index hands cells
//! to workers (work stealing, so a slow simulation cell does not hold up a
//! batch of cheap analytic ones) and each result lands in the slot of its
//! input, keeping row order identical to the sequential loop.
//!
//! `std::thread::scope` is all it needs — no external thread-pool crate and
//! no `unsafe` (the crate forbids it). On a single-core host the helper
//! degenerates to a plain sequential map, so determinism is preserved
//! everywhere and speedup arrives wherever `available_parallelism` > 1.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Split flows `0..n_flows` into at most `shards` contiguous, ascending,
/// non-empty ranges (`0` picks 8), so flattening per-shard outputs yields
/// flow-id order without a sort.
pub(crate) fn shard_ranges(n_flows: usize, shards: usize) -> Vec<Range<usize>> {
    let requested = if shards == 0 { 8 } else { shards };
    let count = requested.min(n_flows).max(1);
    let per_shard = n_flows.div_ceil(count);
    (0..count)
        .map(|s| (s * per_shard).min(n_flows)..((s + 1) * per_shard).min(n_flows))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Map `f` over `items` on up to `available_parallelism` threads, returning
/// the results in input order.
///
/// Work is distributed by an atomic next-index counter, so threads that
/// finish early steal the remaining cells. Results are written into
/// per-slot [`OnceLock`]s, which keeps the output order equal to the input
/// order regardless of completion order. If `f` panics on any item, the
/// first panicking worker's payload is re-raised on the caller once every
/// worker has stopped, so the caller sees the original panic message.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        // Single core (or ≤1 item): the threaded path would only add
        // spawn/join overhead around the same sequential execution.
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Each index is claimed exactly once, so `set` cannot
                    // fail; the Err arm only exists because OnceLock
                    // returns the value.
                    let _ = slots[i].set(f(&items[i]));
                })
            })
            .collect();
        // Joining every handle here, rather than letting the scope do it,
        // keeps the panic payload: the scope would re-panic with a generic
        // "a scoped thread panicked" message instead.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("worker filled every claimed slot"))
        .collect()
}

/// [`par_map`] for cell functions that yield several rows each: the
/// per-item `Vec`s are concatenated in input order.
pub fn par_flat_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> Vec<R> + Sync,
{
    par_map(items, f).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map_with_uneven_work() {
        // Uneven per-item cost shuffles completion order; output order and
        // values must not move.
        let items: Vec<u64> = (0..64).collect();
        let work = |&i: &u64| {
            let spins = if i % 7 == 0 { 20_000 } else { 10 };
            (0..spins).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        assert_eq!(
            par_map(&items, work),
            items.iter().map(work).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(&Vec::<u8>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        let items = [1usize, 2, 3];
        let out = par_flat_map(&items, |&i| vec![i; i]);
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "cell 13")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..32).collect();
        let _ = par_map(&items, |&i| {
            assert!(i != 13, "cell 13");
            i
        });
    }
}
