//! A bounded work-stealing pool for campaign cells.
//!
//! Every experiment in this harness decomposes into *cells* — pure
//! functions of their seeds (an `(app, run)` pair, a `(rate, app)`
//! pair, a sweep point). The ad-hoc pattern used to be one OS thread
//! per application; [`map_cells`] generalizes it: the caller hands over
//! a slice of cell descriptors and a worker count, workers pull the
//! next unclaimed index from a shared atomic counter (work stealing by
//! competition — a fast cell's worker immediately claims the next one),
//! and results are slotted **by cell index**, never by completion
//! order.
//!
//! Determinism contract: because cells are pure and results are
//! index-slotted, the returned vector is bit-identical for every
//! `jobs` value, including `jobs == 1`, which runs inline on the
//! calling thread without spawning at all (so a serial campaign really
//! is serial — no pool overhead, no thread churn).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every cell and returns the results in cell order.
///
/// `jobs` bounds the number of worker threads; it is further clamped
/// to the number of cells. With `jobs <= 1` (or fewer than two cells)
/// the map runs inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the campaign is torn down, matching
/// the previous per-app `thread::scope` behaviour).
pub fn map_cells<T, R, F>(jobs: usize, cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || cells.len() <= 1 {
        return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(cells.len());
    let mut slots: Vec<Option<R>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        mine.push((i, f(i, &cells[i])));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("campaign worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every cell index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order_for_any_jobs() {
        let cells: Vec<u64> = (0..37).collect();
        let serial = map_cells(1, &cells, |i, &c| (i as u64) * 1000 + c * c);
        for jobs in [2, 3, 8, 64] {
            let parallel = map_cells(jobs, &cells, |i, &c| (i as u64) * 1000 + c * c);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let cells = vec![(); 23];
        let out = map_cells(4, &cells, |i, ()| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 23);
        assert_eq!(out, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_runs_inline_without_spawning() {
        // An inline map sees the calling thread's name; a spawned
        // worker would not.
        let here = std::thread::current().id();
        let ids = map_cells(1, &[(), ()], |_, ()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == here));
    }

    #[test]
    fn empty_and_singleton_inputs_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_cells::<u32, u32, _>(8, &empty, |_, &c| c).is_empty());
        assert_eq!(map_cells(8, &[7u32], |_, &c| c + 1), vec![8]);
    }

    #[test]
    fn jobs_beyond_cells_is_clamped() {
        let cells: Vec<u32> = (0..3).collect();
        assert_eq!(map_cells(100, &cells, |_, &c| c * 2), vec![0, 2, 4]);
    }
}
