//! A minimal scoped-thread parallel map (std only — the workspace is
//! deliberately dependency-free, so this is the in-tree stand-in for
//! rayon's `par_iter().map().collect()`).
//!
//! Work is handed out through one atomic index, results land in their
//! input slot, so the output order is **deterministic** — identical to
//! the serial `items.into_iter().map(f).collect()` — regardless of
//! thread count or scheduling. That property is what lets the bench
//! sweep runner and the robustness matrix parallelize without changing
//! a single byte of their output.
//!
//! The calling thread works a share itself, so a map on `t` threads
//! spawns `t - 1` and leaves none of them blocked in a join while the
//! others compute.
//!
//! Nested calls degrade to serial execution (a global in-flight counter)
//! so fan-out over tasks that themselves fan out cannot explode the
//! thread count. The counter is one per process, not per call tree: of
//! two unrelated callers that overlap, the later one maps serially too.
//! `DATASYNC_THREADS` caps or disables parallelism
//! (`DATASYNC_THREADS=1` forces serial — useful for baselines and
//! debugging). A request above the machine's available parallelism is
//! capped at it: the workers are pure CPU-bound simulation loops, so
//! oversubscription buys nothing and costs scheduler churn — on a
//! one-core host it made the "parallel" sweep measurably *slower* than
//! serial while still being reported as a multi-thread run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of [`par_map`] calls currently executing (nested calls run
/// serially instead of spawning threads-of-threads).
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Parses a `DATASYNC_THREADS` value. Errors on anything that is not a
/// positive integer — including `0`, which used to be silently promoted
/// to 1 and made "parallelism off" indistinguishable from a typo.
///
/// # Errors
///
/// Returns a human-readable message naming the bad value.
pub fn threads_from_env(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "DATASYNC_THREADS={raw:?} is invalid: use 1 to force serial execution, \
             or unset the variable for auto-detection"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "DATASYNC_THREADS={raw:?} is not a positive integer; \
             unset it or set a thread count like DATASYNC_THREADS=4"
        )),
    }
}

/// The machine's available hardware parallelism (always `>= 1`).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Caps a requested worker count at the hardware parallelism.
///
/// The workers are CPU-bound simulation loops; running more of them than
/// the machine has cores adds context-switch churn without adding
/// throughput. This is the pure core of [`default_threads`], split out so
/// the clamp is testable without mutating process environment.
#[must_use]
pub fn effective_threads(requested: usize, available: usize) -> usize {
    requested.min(available.max(1)).max(1)
}

/// The default worker count: `DATASYNC_THREADS` if set and valid (capped
/// at [`available_threads`]), else the available parallelism, else 1.
///
/// An invalid `DATASYNC_THREADS` (unparsable, or `0`) is **not**
/// silently ignored: a warning naming the bad value is printed to
/// stderr and auto-detection takes over, so a typo degrades loudly
/// instead of quietly running on the wrong thread count. A valid value
/// above the hardware parallelism is likewise clamped with a warning —
/// oversubscribed workers made a "4-thread" sweep on a one-core host
/// come out *slower* than serial while the report still claimed
/// `threads: 4`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DATASYNC_THREADS") {
        match threads_from_env(&v) {
            Ok(n) => {
                let avail = available_threads();
                let eff = effective_threads(n, avail);
                if eff < n {
                    // Once per process: every par_map re-reads the
                    // default, and a sweep would otherwise repeat the
                    // warning hundreds of times.
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: DATASYNC_THREADS={n} exceeds the {avail} available \
                             hardware thread(s); capping at {eff}"
                        );
                    });
                }
                return eff;
            }
            Err(msg) => eprintln!("warning: {msg}; falling back to auto-detection"),
        }
    }
    available_threads()
}

/// Maps `f` over `items` on up to [`default_threads`] threads (the
/// caller's included); results keep input order. See
/// [`par_map_threads`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_threads(default_threads(), items, f)
}

/// Maps `f` over `items` on up to `threads` threads, returning results in
/// input order (bit-identical to the serial map). The calling thread
/// takes one share of the work itself, so only `threads - 1` scoped
/// workers are spawned and nobody sits blocked while the others compute.
/// Runs serially when `threads <= 1`, when there is at most one item, or
/// when called from inside another `par_map` (nested-parallelism guard).
///
/// # Panics
///
/// Propagates a panic from `f`, whichever thread ran it (the scope joins
/// every worker first).
pub fn par_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || IN_FLIGHT.load(Ordering::Relaxed) > 0 {
        return items.into_iter().map(f).collect();
    }
    IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
    // Each slot is locked exactly once by exactly one worker; the
    // mutexes only exist to hand owned items across the scope safely.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let share = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().expect("slot lock").take().expect("slot taken once");
        let r = f(item);
        *results[i].lock().expect("result lock") = Some(r);
    };
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(share);
            }
            share();
        });
    }));
    IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    if let Err(p) = run {
        std::panic::resume_unwind(p);
    }
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_env_parsing_is_strict() {
        assert_eq!(threads_from_env("1"), Ok(1));
        assert_eq!(threads_from_env(" 8 "), Ok(8));
        let zero = threads_from_env("0").unwrap_err();
        assert!(zero.contains("DATASYNC_THREADS"), "{zero}");
        assert!(zero.contains("serial"), "{zero}");
        for bad in ["", "four", "2.5", "-1", "1 2"] {
            let e = threads_from_env(bad).unwrap_err();
            assert!(e.contains("positive integer"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn effective_threads_clamps_oversubscription() {
        // Request within the hardware budget: honored as-is.
        assert_eq!(effective_threads(2, 8), 2);
        assert_eq!(effective_threads(8, 8), 8);
        // Request above it: capped (the one-core CI host bug — a
        // requested 4 ran as 4 oversubscribed workers and lost to the
        // serial baseline).
        assert_eq!(effective_threads(4, 1), 1);
        assert_eq!(effective_threads(64, 8), 8);
        // Degenerate inputs never yield zero workers.
        assert_eq!(effective_threads(1, 0), 1);
        assert_eq!(effective_threads(0, 4), 1);
        // And default_threads always lands inside the hardware budget.
        assert!(default_threads() >= 1);
        assert!(default_threads() <= available_threads());
    }

    /// `IN_FLIGHT` is process-global and the test harness runs tests on
    /// several threads: every test that enters the parallel path holds
    /// this, so each sees the guard at rest and really fans out.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static PARALLEL_TESTS: Mutex<()> = Mutex::new(());
        PARALLEL_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_order_and_results() {
        let _quiet = exclusive();
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 7] {
            let got = par_map_threads(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map_threads(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_threads(4, vec![9], |x: u32| x + 1), vec![10]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let _quiet = exclusive();
        let outer = par_map_threads(2, vec![1u64, 2, 3, 4], |x| {
            let inner = par_map_threads(2, vec![10u64, 20], move |y| y + x);
            inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![32, 34, 36, 38]);
    }

    #[test]
    fn moves_non_clone_items() {
        let _quiet = exclusive();
        let items: Vec<Box<u64>> = (0..16).map(Box::new).collect();
        let got = par_map_threads(3, items, |b| *b * 2);
        assert_eq!(got, (0..16).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn the_caller_works_a_share_beside_one_worker_fewer() {
        let _quiet = exclusive();
        let caller = std::thread::current().id();
        for threads in [2usize, 3, 5] {
            // The first `threads` items meet at a barrier, so that many
            // distinct threads must each be holding one: with only
            // `threads - 1` spawned, the caller has to be among them.
            let rendezvous = std::sync::Barrier::new(threads);
            let seen = Mutex::new(std::collections::HashSet::new());
            let got = par_map_threads(threads, (0..40usize).collect(), |i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                if i < threads {
                    rendezvous.wait();
                }
                i * 3
            });
            assert_eq!(got, (0..40).map(|i| i * 3).collect::<Vec<_>>(), "input order");
            let seen = seen.into_inner().unwrap();
            assert!(seen.contains(&caller), "threads = {threads}: the caller took no share");
            assert_eq!(seen.len() - 1, threads - 1, "threads = {threads}: spawned workers");
        }
    }

    #[test]
    fn a_panic_in_either_share_propagates_and_releases_the_guard() {
        let _quiet = exclusive();
        let caller = std::thread::current().id();
        for in_callers_share in [true, false] {
            // Both threads hold an item before either may panic, so the
            // chosen share is sure to be the one that blows up.
            let rendezvous = std::sync::Barrier::new(2);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map_threads(2, vec![0u32, 1, 2, 3], |x| {
                    if x < 2 {
                        rendezvous.wait();
                    }
                    let mine = std::thread::current().id() == caller;
                    assert_ne!(mine, in_callers_share, "boom");
                    x
                })
            }));
            assert!(r.is_err(), "caller's share = {in_callers_share}");
            assert_eq!(IN_FLIGHT.load(Ordering::Relaxed), 0, "caller's share = {in_callers_share}");
            // Released: the next call fans out again instead of
            // mistaking itself for a nested one.
            let rendezvous = std::sync::Barrier::new(2);
            let got = par_map_threads(2, vec![1u32, 2], |x| {
                rendezvous.wait();
                x
            });
            assert_eq!(got, vec![1, 2]);
        }
    }
}
