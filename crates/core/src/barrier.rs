//! Barriers built on process counters (Example 4) plus baselines.
//!
//! The paper implements a **butterfly barrier** with one PC per processor
//! and no atomic operations: in round `i`, processor `pid` marks step `i`
//! and waits for `PC[pid xor 2^(i-1)].step >= i`. [`ButterflyBarrier`] is
//! that code with a monotone per-processor counter so the barrier is
//! reusable across episodes. [`DisseminationBarrier`] is the
//! Hensgen–Finkel–Manber variant the paper cites (\[11\]) that works for
//! any processor count, and [`CounterBarrier`] is the centralized
//! (hot-spot prone) baseline the butterfly is compared against.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::wait::WaitStrategy;

/// A reusable barrier addressed by processor id.
///
/// Contract: exactly one thread calls [`PhaseBarrier::wait`] per `pid`
/// in `0..processors()`, and every pid participates in every episode.
pub trait PhaseBarrier: Sync {
    /// Blocks until all processors have arrived.
    fn wait(&self, pid: usize);
    /// Number of participating processors.
    fn processors(&self) -> usize;
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The butterfly barrier of Fig 5.4, on per-processor process counters.
///
/// Uses no atomic read-modify-write operations — only single-writer
/// stores and loads, exactly as the paper's hardware argument requires.
///
/// # Examples
///
/// ```
/// use datasync_core::barrier::{ButterflyBarrier, PhaseBarrier};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let b = ButterflyBarrier::new(4);
/// let hits = AtomicUsize::new(0);
/// std::thread::scope(|s| {
///     for pid in 0..4 {
///         let (b, hits) = (&b, &hits);
///         s.spawn(move || {
///             hits.fetch_add(1, Ordering::SeqCst);
///             b.wait(pid);
///             assert_eq!(hits.load(Ordering::SeqCst), 4);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct ButterflyBarrier {
    counters: Box<[CachePadded<AtomicU64>]>,
    log_p: u32,
    strategy: WaitStrategy,
}

impl ButterflyBarrier {
    /// Creates a barrier for `p` processors.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a power of two and `p >= 1` (use
    /// [`DisseminationBarrier`] for other counts).
    pub fn new(p: usize) -> Self {
        Self::with_strategy(p, WaitStrategy::default())
    }

    /// [`ButterflyBarrier::new`] with an explicit wait strategy.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is a power of two and `p >= 1`.
    pub fn with_strategy(p: usize, strategy: WaitStrategy) -> Self {
        assert!(
            p >= 1 && p.is_power_of_two(),
            "butterfly barrier needs a power-of-two processor count"
        );
        Self {
            counters: (0..p).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            log_p: p.trailing_zeros(),
            strategy,
        }
    }

    /// [`PhaseBarrier::wait`] with a deadline: `true` once every partner
    /// round completed, `false` if some partner failed to arrive within
    /// `timeout` — the library-user equivalent of the simulator's
    /// deadlock detector for barrier episodes.
    ///
    /// # Episode poisoning
    ///
    /// The butterfly has no atomic read-modify-write to retract an
    /// arrival: each round *stores* this processor's monotone counter
    /// before waiting for the partner (the paper's single-writer
    /// hardware argument). A wait that returns `false` has therefore
    /// already published arrivals for the rounds it got through, and the
    /// episode is **poisoned**: partners may legitimately observe this
    /// processor as arrived and sail through, while this processor's
    /// counter is now out of phase for any future episode. After a
    /// `false` return the barrier must be discarded (and the computation
    /// it guarded treated as failed) — re-entering `wait`,
    /// `wait_timeout` or `try_wait` on a poisoned barrier may wedge or
    /// let an episode leak.
    pub fn wait_timeout(&self, pid: usize, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let base = self.counters[pid].load(Ordering::Relaxed);
        for i in 0..self.log_p {
            let round = base + u64::from(i) + 1;
            self.counters[pid].store(round, Ordering::Release);
            let partner = pid ^ (1usize << i);
            let cell = &self.counters[partner];
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if !self
                .strategy
                .wait_until_timeout(|| cell.load(Ordering::Acquire) >= round, remaining)
            {
                return false;
            }
        }
        true
    }

    /// Non-blocking barrier attempt: completes the episode (returning
    /// `true`) only if every partner round is immediately satisfied.
    ///
    /// Like [`ButterflyBarrier::wait_timeout`], a `false` return has
    /// already published this processor's arrival for the rounds it got
    /// through and **poisons** the episode — see the episode-poisoning
    /// discussion there. `try_wait` is a last-check probe ("has everyone
    /// else already arrived?"), not a polling primitive: calling it in a
    /// retry loop republishes arrivals and corrupts the phase.
    pub fn try_wait(&self, pid: usize) -> bool {
        let base = self.counters[pid].load(Ordering::Relaxed);
        for i in 0..self.log_p {
            let round = base + u64::from(i) + 1;
            self.counters[pid].store(round, Ordering::Release);
            let partner = pid ^ (1usize << i);
            if self.counters[partner].load(Ordering::Acquire) < round {
                return false;
            }
        }
        true
    }
}

impl PhaseBarrier for ButterflyBarrier {
    fn wait(&self, pid: usize) {
        // Only thread `pid` ever writes counters[pid], so its own value
        // can be read relaxed.
        let base = self.counters[pid].load(Ordering::Relaxed);
        for i in 0..self.log_p {
            let round = base + u64::from(i) + 1;
            self.counters[pid].store(round, Ordering::Release);
            let partner = pid ^ (1usize << i);
            let cell = &self.counters[partner];
            self.strategy.wait_until(|| cell.load(Ordering::Acquire) >= round);
        }
    }

    fn processors(&self) -> usize {
        self.counters.len()
    }

    fn name(&self) -> &'static str {
        "butterfly"
    }
}

/// The dissemination barrier of Hensgen, Finkel and Manber (the paper's
/// reference \[11\]); works for any processor count in `ceil(log2 P)`
/// rounds.
#[derive(Debug)]
pub struct DisseminationBarrier {
    counters: Box<[CachePadded<AtomicU64>]>,
    rounds: u32,
    strategy: WaitStrategy,
}

impl DisseminationBarrier {
    /// Creates a barrier for `p >= 1` processors.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        Self::with_strategy(p, WaitStrategy::default())
    }

    /// [`DisseminationBarrier::new`] with an explicit wait strategy.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn with_strategy(p: usize, strategy: WaitStrategy) -> Self {
        assert!(p >= 1, "barrier needs at least one processor");
        let rounds = usize::BITS - (p - 1).leading_zeros(); // ceil(log2 p); 0 for p == 1
        Self {
            counters: (0..p).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            rounds,
            strategy,
        }
    }
}

impl PhaseBarrier for DisseminationBarrier {
    fn wait(&self, pid: usize) {
        let p = self.counters.len();
        let base = self.counters[pid].load(Ordering::Relaxed);
        for i in 0..self.rounds {
            let round = base + u64::from(i) + 1;
            self.counters[pid].store(round, Ordering::Release);
            // In round i, pid is signalled by (pid - 2^i) mod p.
            let signaller = (pid + p - ((1usize << i) % p)) % p;
            let cell = &self.counters[signaller];
            self.strategy.wait_until(|| cell.load(Ordering::Acquire) >= round);
        }
    }

    fn processors(&self) -> usize {
        self.counters.len()
    }

    fn name(&self) -> &'static str {
        "dissemination"
    }
}

/// The centralized sense-reversing counter barrier — the baseline whose
/// hot-spot behaviour Example 4 argues against. Requires an atomic
/// fetch-and-add per arrival and makes every processor spin on one shared
/// location.
#[derive(Debug)]
pub struct CounterBarrier {
    count: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicU64>,
    episodes: Box<[CachePadded<AtomicU64>]>,
    p: usize,
    strategy: WaitStrategy,
}

impl CounterBarrier {
    /// Creates a barrier for `p >= 1` processors.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        Self::with_strategy(p, WaitStrategy::default())
    }

    /// [`CounterBarrier::new`] with an explicit wait strategy.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn with_strategy(p: usize, strategy: WaitStrategy) -> Self {
        assert!(p >= 1, "barrier needs at least one processor");
        Self {
            count: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicU64::new(0)),
            episodes: (0..p).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            p,
            strategy,
        }
    }
}

impl PhaseBarrier for CounterBarrier {
    fn wait(&self, pid: usize) {
        let episode = self.episodes[pid].load(Ordering::Relaxed) + 1;
        self.episodes[pid].store(episode, Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.p {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(episode, Ordering::Release);
        } else {
            let sense = &*self.sense;
            self.strategy.wait_until(|| sense.load(Ordering::Acquire) >= episode);
        }
    }

    fn processors(&self) -> usize {
        self.p
    }

    fn name(&self) -> &'static str {
        "counter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Classic barrier stress: each thread increments a per-episode slot
    /// before the barrier and checks everyone's increment after it.
    fn stress(barrier: &dyn PhaseBarrier, episodes: usize) {
        let p = barrier.processors();
        let slots: Vec<AtomicUsize> = (0..episodes).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for pid in 0..p {
                let slots = &slots;
                s.spawn(move || {
                    for (e, slot) in slots.iter().enumerate() {
                        slot.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(pid);
                        assert_eq!(
                            slot.load(Ordering::SeqCst),
                            p,
                            "{} barrier episode {e} leaked (pid {pid})",
                            barrier.name()
                        );
                        barrier.wait(pid);
                    }
                });
            }
        });
    }

    #[test]
    fn butterfly_many_episodes() {
        for p in [1usize, 2, 4, 8] {
            let b = ButterflyBarrier::new(p);
            stress(&b, 50);
        }
    }

    #[test]
    fn dissemination_any_p() {
        for p in [1usize, 2, 3, 5, 6, 7, 8] {
            let b = DisseminationBarrier::new(p);
            stress(&b, 30);
        }
    }

    #[test]
    fn counter_many_episodes() {
        for p in [1usize, 3, 4, 7] {
            let b = CounterBarrier::new(p);
            stress(&b, 50);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn butterfly_rejects_non_power_of_two() {
        let _ = ButterflyBarrier::new(6);
    }

    #[test]
    fn names_and_sizes() {
        assert_eq!(ButterflyBarrier::new(4).name(), "butterfly");
        assert_eq!(DisseminationBarrier::new(5).processors(), 5);
        assert_eq!(CounterBarrier::new(3).name(), "counter");
    }

    #[test]
    fn single_processor_barriers_are_noops() {
        ButterflyBarrier::new(1).wait(0);
        DisseminationBarrier::new(1).wait(0);
        CounterBarrier::new(1).wait(0);
    }

    #[test]
    fn butterfly_wait_timeout_completes_full_episodes() {
        let b = ButterflyBarrier::new(4);
        std::thread::scope(|s| {
            for pid in 0..4 {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..20 {
                        assert!(b.wait_timeout(pid, std::time::Duration::from_secs(60)));
                    }
                });
            }
        });
        // Zero rounds for p == 1: trivially true even with a zero deadline.
        assert!(ButterflyBarrier::new(1).wait_timeout(0, std::time::Duration::ZERO));
    }

    #[test]
    fn butterfly_wait_timeout_detects_missing_partner() {
        let b = ButterflyBarrier::new(2);
        let t0 = std::time::Instant::now();
        assert!(
            !b.wait_timeout(0, std::time::Duration::from_millis(5)),
            "partner 1 never arrives: the episode must time out"
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        // The timed-out wait already published pid 0's arrival (the
        // poisoning documented on wait_timeout): the late partner is
        // released by it, but the barrier must now be discarded.
        b.wait(1);
    }

    #[test]
    fn butterfly_try_wait_is_a_last_check_probe() {
        // p == 1: no rounds, always true.
        assert!(ButterflyBarrier::new(1).try_wait(0));
        let b = ButterflyBarrier::new(2);
        std::thread::scope(|s| {
            let b = &b;
            s.spawn(move || b.wait(1));
            // Wait until the partner has published its arrival, then the
            // probe both succeeds and releases the partner.
            while b.counters[1].load(Ordering::Acquire) < 1 {
                std::hint::spin_loop();
            }
            assert!(b.try_wait(0));
        });
        // A fresh episode with an absent partner: the probe fails (and
        // per its contract this barrier is now poisoned).
        let b = ButterflyBarrier::new(2);
        assert!(!b.try_wait(0));
    }
}
