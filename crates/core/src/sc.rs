//! Statement counters — the statement-oriented scheme (Section 3.2) on
//! real threads, Alliant `Advance`/`Await` semantics.
//!
//! One counter per source statement, shared "horizontally" by all
//! iterations: after iteration `i` completes source `Sa` it waits for
//! `SC[a] == i-1` and sets it to `i`, so iteration `i`'s update cannot
//! happen before every earlier iteration's — the serialization the
//! paper's Section 4 criticizes (and which [`crate::pc::PcPool`]'s
//! "vertical" sharing avoids). Counters store `last_advanced + 1`
//! (initially 0) so 0-based iteration ids need no signed values.

use crate::pad::CachePadded;
use crate::wait::WaitStrategy;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pool of statement counters.
///
/// # Examples
///
/// ```
/// use datasync_core::sc::ScPool;
///
/// let scs = ScPool::new(2); // two source statements
/// // Iteration 0 completes source 0 and advances it.
/// scs.advance(0, 0);
/// // Iteration 1 may await source 0 of iteration 0 (distance 1)...
/// scs.await_sc(0, 1, 1);
/// // ...and then advance its own instance.
/// scs.advance(0, 1);
/// ```
#[derive(Debug)]
pub struct ScPool {
    scs: Box<[CachePadded<AtomicU64>]>,
    strategy: WaitStrategy,
}

impl ScPool {
    /// Creates `n` counters, all at "no iteration has advanced yet".
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_strategy(n, WaitStrategy::default())
    }

    /// [`ScPool::new`] with an explicit wait strategy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_strategy(n: usize, strategy: WaitStrategy) -> Self {
        assert!(n > 0, "a pool needs at least one statement counter");
        Self { scs: (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect(), strategy }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.scs.len()
    }

    /// `true` if the pool is empty (never — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.scs.is_empty()
    }

    /// `Advance(sc)` for iteration `pid`: waits until every earlier
    /// iteration advanced this counter, then records this one.
    pub fn advance(&self, sc: usize, pid: u64) {
        let cell = &*self.scs[sc];
        self.strategy.wait_until(|| cell.load(Ordering::Acquire) == pid);
        cell.store(pid + 1, Ordering::Release);
    }

    /// `Await(d, sc)` for iteration `pid`: waits until iteration
    /// `pid - dist` advanced the counter; no-op at the loop boundary.
    pub fn await_sc(&self, sc: usize, pid: u64, dist: u64) {
        if dist > pid {
            return;
        }
        let threshold = pid - dist + 1;
        let cell = &*self.scs[sc];
        self.strategy.wait_until(|| cell.load(Ordering::Acquire) >= threshold);
    }

    /// Non-blocking probe of [`ScPool::advance`]: records iteration
    /// `pid`'s advance if every earlier iteration has already advanced,
    /// returning `false` (without waiting) otherwise.
    pub fn try_advance(&self, sc: usize, pid: u64) -> bool {
        let cell = &*self.scs[sc];
        if cell.load(Ordering::Acquire) != pid {
            return false;
        }
        cell.store(pid + 1, Ordering::Release);
        true
    }

    /// Non-blocking probe of [`ScPool::await_sc`]: `true` when the wait
    /// would return immediately.
    pub fn try_await_sc(&self, sc: usize, pid: u64, dist: u64) -> bool {
        if dist > pid {
            return true;
        }
        self.scs[sc].load(Ordering::Acquire) > pid - dist
    }

    /// [`ScPool::advance`] with a deadline. Returns `true` once the
    /// advance is recorded; a `false` means some earlier iteration never
    /// advanced this counter within `timeout` — the library-user
    /// equivalent of the simulator's deadlock detector.
    pub fn advance_timeout(&self, sc: usize, pid: u64, timeout: std::time::Duration) -> bool {
        let cell = &*self.scs[sc];
        if !self
            .strategy
            .wait_until_timeout(|| cell.load(Ordering::Acquire) == pid, timeout)
        {
            return false;
        }
        cell.store(pid + 1, Ordering::Release);
        true
    }

    /// [`ScPool::await_sc`] with a deadline: `true` when the awaited
    /// iteration advanced before `timeout` elapsed.
    pub fn await_sc_timeout(
        &self,
        sc: usize,
        pid: u64,
        dist: u64,
        timeout: std::time::Duration,
    ) -> bool {
        if dist > pid {
            return true;
        }
        let threshold = pid - dist + 1;
        let cell = &*self.scs[sc];
        self.strategy
            .wait_until_timeout(|| cell.load(Ordering::Acquire) >= threshold, timeout)
    }

    /// Current value (last advanced iteration + 1).
    pub fn load(&self, sc: usize) -> u64 {
        self.scs[sc].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Cell;

    #[test]
    fn advance_serializes_iterations() {
        // Iterations advancing one SC from many threads must form the
        // strict sequence 0, 1, 2, ... The counter is the log: it may
        // not pass `pid` before iteration `pid` advances (so on entry
        // it reads at most `pid`, and exactly `pid` once every earlier
        // iteration is through), and it never falls back below
        // `pid + 1` afterwards. Iterations are dealt round-robin, so
        // every `advance` past the first really waits on another thread.
        const THREADS: u64 = 4;
        const ITERATIONS: u64 = 200;
        let scs = ScPool::new(1);
        std::thread::scope(|s| {
            for first in 0..THREADS {
                let scs = &scs;
                s.spawn(move || {
                    for pid in (first..ITERATIONS).step_by(THREADS as usize) {
                        let entry = scs.load(0);
                        assert!(entry <= pid, "iteration {pid} was overtaken: SC = {entry}");
                        scs.advance(0, pid);
                        let after = scs.load(0);
                        assert!(after > pid, "iteration {pid}'s Advance was undone: SC = {after}");
                    }
                });
            }
        });
        assert_eq!(scs.load(0), ITERATIONS);
    }

    #[test]
    fn await_boundary_and_satisfaction() {
        let scs = ScPool::new(2);
        scs.await_sc(1, 0, 3); // boundary: returns immediately
        scs.advance(1, 0);
        scs.await_sc(1, 1, 1); // satisfied by the advance above
    }

    #[test]
    fn doacross_with_scs_matches_chain_order() {
        // The Fig 2.1-style pattern: one source, sinks await distance 2.
        let scs = ScPool::new(1);
        let produced: Vec<Cell> = (0..100).map(|_| Cell::new(0)).collect();
        let next = Cell::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (scs, produced, next) = (&scs, &produced, &next);
                s.spawn(move || loop {
                    let pid = next.fetch_add(1, Ordering::Relaxed);
                    if pid >= 100 {
                        return;
                    }
                    scs.await_sc(0, pid, 2);
                    let upstream = if pid >= 2 {
                        produced[pid as usize - 2].load(Ordering::Acquire)
                    } else {
                        1
                    };
                    assert_ne!(upstream, 0, "await(2) must guarantee the source ran");
                    produced[pid as usize].store(upstream + 1, Ordering::Release);
                    scs.advance(0, pid);
                });
            }
        });
        assert_eq!(produced[98].load(Ordering::Relaxed), 51);
    }

    #[test]
    #[should_panic(expected = "at least one statement counter")]
    fn empty_pool_panics() {
        let _ = ScPool::new(0);
    }

    #[test]
    fn try_variants_probe_without_blocking() {
        let scs = ScPool::new(1);
        assert!(scs.try_await_sc(0, 0, 2), "boundary awaits are trivially satisfied");
        assert!(!scs.try_await_sc(0, 1, 1), "iteration 0 has not advanced yet");
        assert!(!scs.try_advance(0, 1), "iteration 1 may not advance before iteration 0");
        assert!(scs.try_advance(0, 0));
        assert!(scs.try_await_sc(0, 1, 1));
        assert!(scs.try_advance(0, 1));
        assert_eq!(scs.load(0), 2);
    }

    #[test]
    fn timeout_variants_detect_missing_advances() {
        let scs = ScPool::new(1);
        let t0 = std::time::Instant::now();
        assert!(
            !scs.await_sc_timeout(0, 2, 1, std::time::Duration::from_millis(5)),
            "iteration 1 never advances: the await must time out"
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        assert!(
            !scs.advance_timeout(0, 3, std::time::Duration::from_millis(5)),
            "iterations 0..3 never advanced: the advance must time out"
        );
        // The failed advance must not have disturbed the counter.
        assert_eq!(scs.load(0), 0);
        assert!(scs.advance_timeout(0, 0, std::time::Duration::ZERO));
        assert!(scs.await_sc_timeout(0, 1, 1, std::time::Duration::ZERO));
        assert!(scs.await_sc_timeout(0, 0, 4, std::time::Duration::ZERO), "boundary: immediate");
    }
}
