//! Bounded worker pool for parallel compilation.
//!
//! Bulk profile loads and `SackPolicy::compile` both reduce to the same
//! shape: N independent DFA builds, each over its own globs and its own
//! byte classes. The builds share no state, so they are embarrassingly
//! parallel — this module provides the one scoped worker pool both call
//! sites use.
//!
//! The pool is deliberately *not* routed through the `sync::shim` seam:
//! compilation is control-plane work (no hook ever runs inside it), the
//! pool owns no cross-call state, and its only synchronisation is a
//! work-index counter plus per-slot once-cells that the `thread::scope`
//! join fully orders. A table built here is published through the
//! profile table's `Rcu`, which the schedule executor explores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of workers a compile pool should use when the caller does not
/// pin one: the machine's available parallelism, with a floor of 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `workers` scoped threads, preserving
/// order. `workers <= 1` (or fewer than two items) runs inline — the
/// serial baseline the differential tests compare against is literally
/// this branch.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join rethrows it).
pub fn map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let filled = slots[i].set(f(item));
                debug_assert!(filled.is_ok(), "work index hands out each slot once");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot was filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for workers in [0, 1, 2, 4, 16] {
            assert_eq!(map_parallel(&items, workers, |i| i * 3), expect);
        }
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        let none: Vec<u32> = Vec::new();
        assert!(map_parallel(&none, 8, |x| *x).is_empty());
        assert_eq!(map_parallel(&[5u32], 8, |x| x + 1), vec![6]);
    }

    #[test]
    fn for_each_visits_every_item_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        map_parallel(&items, 4, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
