//! A scoped `std::thread` worker pool for independent items.
//!
//! [`parallel_map`] distributes an item slice over a fixed number of
//! workers (work-stealing by atomic index claiming) and returns results
//! **in input order**, so parallel runs are deterministic and
//! bit-identical to sequential ones. `tpnc`'s multi-file invocations,
//! `tpnc fuzz` and the table binaries run on it.
//!
//! ```
//! use tpn::batch::parallel_map;
//!
//! let squares = parallel_map(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
//! assert_eq!(squares, [1, 4, 9, 16]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count used when none is configured: the machine's available
/// parallelism, at least 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Stringifies a caught panic payload: `&str` and `String` payloads are
/// carried verbatim, anything else becomes a placeholder. Shared with
/// the service layer's worker pool, which isolates per-request panics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item of `items` on `threads` scoped workers and
/// returns the results in input order.
///
/// Items are claimed one at a time from a shared atomic counter, so
/// uneven per-item costs balance across workers. `f` receives the item's
/// index alongside the item. With `threads <= 1` (or a single item) the
/// map runs on the calling thread — the output is identical either way.
///
/// # Panics
///
/// Propagates the panic of the lowest-index panicking item — but only
/// after every other item has been processed (per-item panics are caught,
/// so one poisoned item cannot abandon the rest of the batch).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = if threads <= 1 || items.len() <= 1 {
        1
    } else {
        threads.min(items.len())
    };
    type WorkerOut<R> = Vec<(usize, std::thread::Result<R>)>;
    let run_worker = |next: &AtomicUsize| -> WorkerOut<R> {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            out.push((i, catch_unwind(AssertUnwindSafe(|| f(i, item)))));
        }
        out
    };
    let next = AtomicUsize::new(0);
    let chunks: Vec<WorkerOut<R>> = if workers == 1 {
        vec![run_worker(&next)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| run_worker(&next)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker died outside an item"))
                .collect()
        })
    };
    let mut indexed: WorkerOut<R> = chunks.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed
        .into_iter()
        .map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_threaded_matches() {
        let items: Vec<u64> = (0..37).collect();
        let seq = parallel_map(&items, 1, |_, &x| x * x);
        let par = parallel_map(&items, 4, |_, &x| x * x);
        assert_eq!(seq, par);
    }
}
