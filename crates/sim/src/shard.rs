//! The one sharding primitive behind every parallel loop in the crate:
//! the fleet pass (one item per worker shard), the scenario matrix (one
//! item per cell) and the Monte-Carlo repetitions (one item per run).
//!
//! The partition is static — item `i` always runs on worker `i mod W` —
//! so it never depends on thread scheduling, and results come back in
//! index order. A caller that reports the first `Err` therefore reports
//! the lowest-index failure, the same one for every worker count and
//! every run.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f(i)` for every `i` in `0..n` on up to `workers` crossbeam-scoped
/// threads and return the results in index order.
///
/// Item `i` runs on worker `i mod W` (`W` is `workers` clamped to
/// `1..=n`), in ascending order within a worker. Each item runs under
/// `catch_unwind`: a panic becomes `Err(message)` in that item's slot
/// and the worker goes on with its next item. With one worker the items
/// run on the calling thread.
pub fn map_ordered<T, F>(n: usize, workers: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(&*p));
    if workers == 1 {
        return (0..n).map(run).collect();
    }
    let shards: Vec<Vec<Result<T, String>>> = crossbeam::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move |_| (w..n).step_by(workers).map(run).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            // invariant: every item runs under catch_unwind, so a worker
            // thread itself never unwinds.
            .map(|h| h.join().expect("shard workers catch item panics"))
            .collect()
    })
    .expect("shard workers catch item panics");
    // Interleave back: worker w's k-th result is item w + k·W.
    let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| shards[i % workers].next().expect("worker i mod W ran item i"))
        .collect()
}

/// Best-effort extraction of a panic payload's message (the two shapes
/// `panic!` produces, then a fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        for workers in [0, 1, 2, 3, 7, 50] {
            let got = map_ordered(23, workers, |i| i * i);
            let want: Vec<Result<usize, String>> = (0..23).map(|i| Ok(i * i)).collect();
            assert_eq!(got, want, "workers={workers}");
        }
        assert!(map_ordered(0, 4, |i| i).is_empty());
    }

    #[test]
    fn item_i_runs_on_worker_i_mod_w() {
        let got = map_ordered(9, 3, |_| std::thread::current().id());
        for (i, id) in got.iter().enumerate() {
            assert_eq!(id, &got[i % 3], "item {i}");
        }
        assert_ne!(got[0], got[1]);
    }

    #[test]
    fn a_panicking_item_fails_only_its_own_slot() {
        let got = map_ordered(6, 2, |i| {
            if i % 3 == 1 {
                panic!("item {i} failed");
            }
            i
        });
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Err("item 1 failed".to_string()));
        assert_eq!(got[3], Ok(3), "the worker keeps going after a panic");
        assert_eq!(got[4], Err("item 4 failed".to_string()));
        assert_eq!(got[5], Ok(5));
        let first_err = got.into_iter().collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(first_err, "item 1 failed", "the lowest failing index wins");
    }
}
