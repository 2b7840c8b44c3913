//! Process counters and the basic primitives of Fig 4.2.a.
//!
//! A process counter (PC) holds `<owner, step>`: the id of the process
//! that currently owns it and the number of source statements that
//! process has completed. The paper's ordering —
//! `<w,x> >= <y,z>` iff `w > y`, or `w = y` and `x >= z` — is preserved
//! by packing `owner` into the high 32 bits of a `u64`, so a single
//! atomic load plus an integer compare implements `wait_PC`.
//!
//! As the paper notes (Section 6), the primitives need no atomic
//! read-modify-write operations: each PC is written by exactly one
//! process at a time and `wait_PC` waits for the value to *exceed* a
//! threshold. The Rust implementation uses plain `Release` stores and
//! `Acquire` loads, which is also what makes a source's memory effects
//! visible before its completion is signalled (requirement (1) of
//! Section 2.2).

use crate::pad::CachePadded;
use crate::wait::WaitStrategy;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-counter value `<owner, step>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PcValue {
    /// Owning process id.
    pub owner: u64,
    /// Completed source-statement count of the owner.
    pub step: u32,
}

impl PcValue {
    /// Creates a value.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= 2^32` (the packed representation reserves
    /// 32 bits for each field).
    pub fn new(owner: u64, step: u32) -> Self {
        assert!(owner < (1 << 32), "process id {owner} exceeds 32 bits");
        Self { owner, step }
    }

    /// Packs into the atomic representation.
    pub fn pack(self) -> u64 {
        (self.owner << 32) | u64::from(self.step)
    }

    /// Unpacks from the atomic representation.
    pub fn unpack(v: u64) -> Self {
        Self { owner: v >> 32, step: (v & 0xffff_ffff) as u32 }
    }
}

impl std::fmt::Display for PcValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}, {}>", self.owner, self.step)
    }
}

/// A pool of `X` process counters shared by all iterations of a Doacross
/// loop (the *folding* of Section 4: processes `i`, `X+i`, `2X+i`, …
/// share `PC[i mod X]`).
///
/// # Examples
///
/// ```
/// use datasync_core::pc::{PcPool, PcValue};
///
/// let pool = PcPool::new(4);
/// // Initially PC[i] = <i, 0>.
/// assert_eq!(pool.load(2), PcValue::new(2, 0));
/// // Process 2 completes its first source statement...
/// pool.set_pc(2, 1);
/// assert_eq!(pool.load(2), PcValue::new(2, 1));
/// // ...and eventually hands the counter to process 6.
/// pool.release_pc(2);
/// assert_eq!(pool.load(6), PcValue::new(6, 0));
/// ```
#[derive(Debug)]
pub struct PcPool {
    pcs: Box<[CachePadded<AtomicU64>]>,
    x: usize,
    strategy: WaitStrategy,
}

impl PcPool {
    /// Creates a pool of `x` counters, `PC[i] = <i, 0>`.
    ///
    /// The paper recommends `x` a power of two (index masking) and a
    /// small multiple of the processor count; any `x >= 1` is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`.
    pub fn new(x: usize) -> Self {
        Self::with_strategy(x, WaitStrategy::default())
    }

    /// [`PcPool::new`] with an explicit busy-wait strategy.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`.
    pub fn with_strategy(x: usize, strategy: WaitStrategy) -> Self {
        assert!(x > 0, "a pool needs at least one process counter");
        let pcs = (0..x)
            .map(|i| CachePadded::new(AtomicU64::new(PcValue::new(i as u64, 0).pack())))
            .collect();
        Self { pcs, x, strategy }
    }

    /// Number of counters (`X`).
    pub fn x(&self) -> usize {
        self.x
    }

    /// The busy-wait strategy.
    pub fn strategy(&self) -> WaitStrategy {
        self.strategy
    }

    /// Index of the counter used by process `pid`.
    pub fn index_of(&self, pid: u64) -> usize {
        (pid % self.x as u64) as usize
    }

    /// Reads the counter of process `pid`'s slot.
    pub fn load(&self, pid: u64) -> PcValue {
        PcValue::unpack(self.pcs[self.index_of(pid)].load(Ordering::Acquire))
    }

    /// `set_PC(step)`: publishes that process `pid` has completed source
    /// statement `step`.
    ///
    /// The caller must own the counter (i.e. be process `pid` after
    /// acquiring ownership); this is the basic primitive of Fig 4.2.a —
    /// see [`crate::handle::ProcessHandle`] for the improved variant that
    /// tolerates not owning it yet.
    pub fn set_pc(&self, pid: u64, step: u32) {
        self.pcs[self.index_of(pid)].store(PcValue::new(pid, step).pack(), Ordering::Release);
    }

    /// `release_PC()`: hands the counter to process `pid + X` with step 0.
    pub fn release_pc(&self, pid: u64) {
        self.pcs[self.index_of(pid)]
            .store(PcValue::new(pid + self.x as u64, 0).pack(), Ordering::Release);
    }

    /// `wait_PC(dist, step)`: busy-waits until process `pid - dist` has
    /// reached `step` (or a later process owns the slot).
    ///
    /// Per the loop-boundary rule, returns immediately when
    /// `dist > pid` (no such source iteration exists).
    pub fn wait_pc(&self, pid: u64, dist: u64, step: u32) {
        if dist > pid {
            return;
        }
        let target = pid - dist;
        let threshold = PcValue::new(target, step).pack();
        let cell = &self.pcs[self.index_of(target)];
        self.strategy.wait_until(|| cell.load(Ordering::Acquire) >= threshold);
    }

    /// `get_PC()`: waits until process `pid` owns its counter
    /// (equivalent to `wait_PC(0, 0)`).
    pub fn get_pc(&self, pid: u64) {
        self.wait_pc(pid, 0, 0);
    }

    /// Non-blocking probe of `wait_PC(dist, step)`: `true` when the wait
    /// would return immediately.
    pub fn try_wait_pc(&self, pid: u64, dist: u64, step: u32) -> bool {
        if dist > pid {
            return true;
        }
        let target = pid - dist;
        let threshold = PcValue::new(target, step).pack();
        self.pcs[self.index_of(target)].load(Ordering::Acquire) >= threshold
    }

    /// `wait_PC` with a deadline: busy-waits until the condition holds or
    /// `timeout` elapses. Returns `true` on success — a `false` usually
    /// means a missing `mark_PC`/`transfer_PC` upstream (the library-user
    /// equivalent of the simulator's deadlock detector).
    pub fn wait_pc_timeout(
        &self,
        pid: u64,
        dist: u64,
        step: u32,
        timeout: std::time::Duration,
    ) -> bool {
        if dist > pid {
            return true;
        }
        let target = pid - dist;
        let threshold = PcValue::new(target, step).pack();
        let cell = &self.pcs[self.index_of(target)];
        self.strategy
            .wait_until_timeout(|| cell.load(Ordering::Acquire) >= threshold, timeout)
    }

    /// `true` if process `pid` currently owns its slot.
    pub fn owns(&self, pid: u64) -> bool {
        self.load(pid).owner >= pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pc_value_ordering_matches_paper() {
        // <w,x> >= <y,z> iff w>y or (w=y and x>=z).
        assert!(PcValue::new(3, 0).pack() > PcValue::new(2, 999).pack());
        assert!(PcValue::new(2, 5).pack() >= PcValue::new(2, 5).pack());
        assert!(PcValue::new(2, 5).pack() < PcValue::new(2, 6).pack());
        let v = PcValue::new(7, 42);
        assert_eq!(PcValue::unpack(v.pack()), v);
        assert_eq!(format!("{v}"), "<7, 42>");
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn oversized_pid_panics() {
        let _ = PcValue::new(1 << 32, 0);
    }

    #[test]
    fn initial_assignment() {
        let pool = PcPool::new(8);
        for i in 0..8 {
            assert_eq!(pool.load(i), PcValue::new(i, 0));
            assert!(pool.owns(i));
        }
        // Folded processes do not own their slot initially.
        assert!(!pool.owns(9));
    }

    #[test]
    fn set_release_cycle() {
        let pool = PcPool::new(4);
        pool.set_pc(1, 1);
        pool.set_pc(1, 2);
        assert_eq!(pool.load(1), PcValue::new(1, 2));
        pool.release_pc(1);
        assert_eq!(pool.load(5), PcValue::new(5, 0));
        assert!(pool.owns(5));
        pool.set_pc(5, 3);
        pool.release_pc(5);
        assert!(pool.owns(9));
    }

    #[test]
    fn boundary_wait_returns_immediately() {
        let pool = PcPool::new(4);
        // dist > pid: no source iteration; must not block.
        pool.wait_pc(2, 3, 7);
        pool.wait_pc(0, 1, 1);
    }

    #[test]
    fn wait_satisfied_by_later_owner() {
        // Waiting for <1, 3> is satisfied by <5, 0> (owner dominance).
        let pool = PcPool::new(4);
        pool.release_pc(1);
        pool.wait_pc(2, 1, 3); // target = 1, now owned by 5 -> proceed
    }

    #[test]
    fn cross_thread_handoff() {
        let pool = Arc::new(PcPool::new(2));
        let p2 = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            // Process 3 waits for process 2 to reach step 1, then for
            // ownership of its own slot.
            p2.wait_pc(3, 1, 1);
            p2.get_pc(3);
            p2.set_pc(3, 1);
            p2.release_pc(3);
        });
        // Process 2: mark step 1, release; process 1: release slot 1 to 3.
        pool.set_pc(2, 1);
        pool.get_pc(1);
        pool.release_pc(1);
        pool.release_pc(2);
        t.join().unwrap();
        assert!(pool.owns(5));
        assert!(pool.owns(4));
    }

    #[test]
    #[should_panic(expected = "at least one process counter")]
    fn zero_pool_panics() {
        let _ = PcPool::new(0);
    }

    #[test]
    fn try_wait_probes_without_blocking() {
        let pool = PcPool::new(4);
        assert!(pool.try_wait_pc(2, 3, 9), "boundary waits are trivially satisfied");
        assert!(!pool.try_wait_pc(2, 1, 1), "process 1 has not marked step 1");
        pool.set_pc(1, 1);
        assert!(pool.try_wait_pc(2, 1, 1));
    }

    #[test]
    fn wait_timeout_detects_missing_marks() {
        let pool = PcPool::new(4);
        let t0 = std::time::Instant::now();
        let ok = pool.wait_pc_timeout(3, 1, 5, std::time::Duration::from_millis(10));
        assert!(!ok, "nobody marks step 5: the wait must time out");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        pool.set_pc(2, 5);
        assert!(pool.wait_pc_timeout(3, 1, 5, std::time::Duration::from_millis(10)));
    }

    #[test]
    fn wait_timeout_honours_every_strategy() {
        use crate::wait::WaitStrategy;
        for s in
            [WaitStrategy::Spin, WaitStrategy::SpinThenYield { spins: 4 }, WaitStrategy::Backoff]
        {
            let pool = PcPool::with_strategy(4, s);
            // Boundary waits never consult the clock.
            assert!(pool.wait_pc_timeout(1, 2, 9, std::time::Duration::ZERO));
            assert!(!pool.wait_pc_timeout(2, 1, 3, std::time::Duration::from_millis(2)));
            pool.set_pc(1, 3);
            assert!(pool.wait_pc_timeout(2, 1, 3, std::time::Duration::ZERO));
        }
    }
}
