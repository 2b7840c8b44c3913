//! Per-processor machine state in struct-of-arrays lanes, and what
//! every write to it keeps true: the cached population counters, the
//! lazy cycle accounting, the wake set and the waiter index.

use super::memory::DataReqKind;
use super::schedule::{WaiterIndex, WakeSet};
use crate::program::{Pred, SyncVar};
use crate::stats::ProcBreakdown;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpinPhase {
    WaitingResult,
    Backoff { until: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Idle,
    Ready,
    /// Busy through cycle `until - 1`; the processor issues again at
    /// `until`. An absolute cycle, so nothing counts down: the state is
    /// only rewritten when the compute retires (or a stall onset pushes
    /// `until` out by the stall's length).
    Computing {
        until: u64,
    },
    BlockedData,
    BlockedSync,
    SpinLocal {
        var: SyncVar,
        pred: Pred,
    },
    /// Busy-wait through shared memory: `retry` is re-issued after each
    /// backoff until it succeeds.
    SpinMem {
        retry: DataReqKind,
        phase: SpinPhase,
    },
}

/// The [`ProcBreakdown`] bucket a processor's cycles accrue to — a
/// function of (dead, frozen, state), see [`ProcLanes::bucket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Busy,
    Spin,
    Blocked,
    Idle,
    Stalled,
    Dead,
}

/// Per-processor state in struct-of-arrays layout: one lane per field,
/// not a `Vec` of processor structs.
///
/// The `state`, `dead` and `frozen` lanes are private: every transition
/// must go through [`ProcLanes::set_state`] / [`ProcLanes::set_current`]
/// / [`ProcLanes::kill`] / [`ProcLanes::freeze`] / [`ProcLanes::thaw`],
/// which keep three things true at once:
///
/// * the cached population counters (`engaged`, `active`, `computing`)
///   that make [`super::Machine::finished`], [`super::Machine::deadlocked`] and the
///   watchdog's progressing test O(1);
/// * **lazy cycle accounting**: `stats[p]` is charged up to cycle
///   `charged_to[p]`, and every cycle since belongs to `p`'s current
///   bucket. A lane write that changes the bucket first charges the
///   elapsed span to the old one; [`ProcLanes::flush_all`] settles
///   everyone at run end. Nothing ticks per cycle;
/// * the wake set and the waiter index: a written processor is marked
///   for a visit (or a re-arm), and a processor is listed under a
///   variable exactly while it spins on its local image of it.
#[derive(Debug)]
pub(crate) struct ProcLanes {
    state: Vec<ProcState>,
    current: Vec<Option<usize>>,
    pub(crate) ip: Vec<usize>,
    /// Index of the instruction execution would resume from if this
    /// program had to move to another processor right now: everything
    /// before it has fully retired (re-running it would duplicate side
    /// effects), nothing at or after it has (skipping it would lose
    /// work). Maintained at dispatch and at every instruction issue;
    /// the fail-stop rescue rung reads it when reclaiming work.
    pub(crate) resume_ip: Vec<usize>,
    /// Cycle breakdown, charged up to `charged_to` (read it only after
    /// a flush).
    pub(super) stats: Vec<ProcBreakdown>,
    /// First cycle of each processor not yet charged to `stats`.
    charged_to: Vec<u64>,
    /// Per-processor injected-stall end cycle (0 = never stalled).
    pub(crate) stall_until: Vec<u64>,
    /// Per-processor cycle of the next stall onset (`u64::MAX` when
    /// stalls are disabled).
    pub(crate) next_stall: Vec<u64>,
    /// Per-processor planned fail-stop cycle (`u64::MAX` = never).
    pub(crate) fail_at: Vec<u64>,
    /// Fail-stop flag: a dead processor never steps, dispatches or
    /// answers the sync bus again; its cycles accrue to `dead`.
    dead: Vec<bool>,
    /// Inside an injected stall (onset visited, thaw not yet): cycles
    /// accrue to `stalled` and a `Computing` processor makes no
    /// progress.
    frozen: Vec<bool>,
    /// Processors to deal with before the current stepped cycle ends:
    /// to visit if their slot in the ascending-id loop is still ahead,
    /// and to re-arm in the calendar afterwards either way. Wakes are
    /// *absolute* cycles (a retire cycle, a NACK deadline, a stall
    /// end), so a processor outside this set still has a live, correct
    /// calendar entry.
    pub(super) wake: WakeSet,
    /// Local-image spinners by variable (see [`WaiterIndex`]).
    waiters: WaiterIndex,
    /// Spans charged so far ([`super::KernelCounters::accounting_flushes`]).
    pub(super) flushes: u64,
    /// Processors (dead or alive) that are not (`Idle` with no program):
    /// 0 is the processor side of [`super::Machine::finished`].
    pub(super) engaged: usize,
    /// Live processors in `Ready`/`Computing`/`Blocked*` — states that
    /// by themselves rule out a deadlock verdict.
    pub(super) active: usize,
    /// Live, unfrozen processors in `Computing` — each makes progress
    /// every cycle, which is what the watchdog's progressing test wants.
    pub(super) computing: usize,
}

impl ProcLanes {
    pub(super) fn new(p: usize, next_stall: Vec<u64>, fail_at: Vec<u64>) -> Self {
        Self {
            state: vec![ProcState::Idle; p],
            current: vec![None; p],
            ip: vec![0; p],
            resume_ip: vec![0; p],
            stats: vec![ProcBreakdown::default(); p],
            charged_to: vec![0; p],
            stall_until: vec![0; p],
            next_stall,
            fail_at,
            dead: vec![false; p],
            frozen: vec![false; p],
            wake: WakeSet::new(p),
            waiters: WaiterIndex::new(p),
            flushes: 0,
            engaged: 0,
            active: 0,
            computing: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    #[inline]
    pub(crate) fn state(&self, p: usize) -> ProcState {
        self.state[p]
    }

    #[inline]
    pub(crate) fn current(&self, p: usize) -> Option<usize> {
        self.current[p]
    }

    #[inline]
    pub(crate) fn is_dead(&self, p: usize) -> bool {
        self.dead[p]
    }

    #[inline]
    pub(crate) fn is_frozen(&self, p: usize) -> bool {
        self.frozen[p]
    }

    /// This processor's contribution to the cached counters under its
    /// current lanes.
    #[inline]
    fn contrib(&self, p: usize) -> (usize, usize, usize) {
        let engaged =
            usize::from(!(matches!(self.state[p], ProcState::Idle) && self.current[p].is_none()));
        if self.dead[p] {
            return (engaged, 0, 0);
        }
        match self.state[p] {
            ProcState::Ready | ProcState::BlockedData | ProcState::BlockedSync => (engaged, 1, 0),
            ProcState::Computing { .. } => (engaged, 1, usize::from(!self.frozen[p])),
            _ => (engaged, 0, 0),
        }
    }

    /// The bucket `p`'s cycles accrue to under its current lanes.
    /// `Ready` never lasts a cycle on a live, unfrozen processor (it is
    /// visited the cycle it becomes ready), so it shares `Computing`'s
    /// bucket and a compute retiring into the next issue is no change.
    #[inline]
    fn bucket(&self, p: usize) -> Bucket {
        if self.dead[p] {
            return Bucket::Dead;
        }
        if self.frozen[p] {
            return Bucket::Stalled;
        }
        match self.state[p] {
            ProcState::Idle => Bucket::Idle,
            ProcState::Ready | ProcState::Computing { .. } => Bucket::Busy,
            ProcState::BlockedData | ProcState::BlockedSync => Bucket::Blocked,
            ProcState::SpinLocal { .. } | ProcState::SpinMem { .. } => Bucket::Spin,
        }
    }

    /// Charges `p`'s cycles `charged_to[p]..now` to `bucket`.
    #[inline]
    fn charge(&mut self, p: usize, bucket: Bucket, now: u64) {
        debug_assert!(now >= self.charged_to[p], "accounting runs forward");
        let span = now.saturating_sub(self.charged_to[p]);
        let s = &mut self.stats[p];
        *match bucket {
            Bucket::Busy => &mut s.busy,
            Bucket::Spin => &mut s.spin,
            Bucket::Blocked => &mut s.blocked,
            Bucket::Idle => &mut s.idle,
            Bucket::Stalled => &mut s.stalled,
            Bucket::Dead => &mut s.dead,
        } += span;
        self.charged_to[p] = now;
        self.flushes += 1;
    }

    /// Applies one lane write to `p`: marks `p` and keeps the
    /// population counters.
    #[inline]
    fn recount(&mut self, p: usize, lane_write: impl FnOnce(&mut Self)) {
        self.mark_wake(p);
        let (e, a, c) = self.contrib(p);
        lane_write(self);
        let (e2, a2, c2) = self.contrib(p);
        self.engaged = self.engaged - e + e2;
        self.active = self.active - a + a2;
        self.computing = self.computing - c + c2;
    }

    /// [`Self::recount`] for a write that can change `p`'s bucket,
    /// effective from cycle `now`: if it does, the span before `now` is
    /// charged to the old bucket.
    #[inline]
    fn write(&mut self, p: usize, now: u64, lane_write: impl FnOnce(&mut Self)) {
        let before = self.bucket(p);
        self.recount(p, lane_write);
        if self.bucket(p) != before {
            self.charge(p, before, now);
        }
    }

    /// Charges every processor up to `now` — run end, and the rescue
    /// rung's progress marker (both O(P) already).
    pub(crate) fn flush_all(&mut self, now: u64) {
        for p in 0..self.len() {
            self.charge(p, self.bucket(p), now);
        }
    }

    /// Busy cycles over all processors; exact only after
    /// [`Self::flush_all`].
    pub(crate) fn total_busy(&self) -> u64 {
        self.stats.iter().map(|s| s.busy).sum()
    }

    /// Puts `p` into the current stepped cycle's wake set: it is
    /// visited this cycle if its slot is still ahead, and its calendar
    /// deadline is recomputed when the cycle ends.
    #[inline]
    pub(crate) fn mark_wake(&mut self, p: usize) {
        self.wake.insert(p);
    }

    /// Moves `p` to state `s` from cycle `now` on (`now` is the current
    /// cycle, or the next one for a transition that still costs the
    /// current cycle in the old state).
    #[inline]
    pub(crate) fn set_state(&mut self, p: usize, s: ProcState, now: u64) {
        if let ProcState::SpinLocal { var, .. } = self.state[p] {
            self.waiters.remove(p, var);
        }
        if let ProcState::SpinLocal { var, pred } = s {
            self.waiters.insert(p, var, pred.bound());
        }
        self.write(p, now, |l| l.state[p] = s);
    }

    /// Pushes a `Computing` processor's retire cycle out by `by` (a
    /// stall froze it mid-compute). Same state, same bucket: nothing to
    /// charge or recount.
    #[inline]
    pub(crate) fn extend_compute(&mut self, p: usize, by: u64) {
        if let ProcState::Computing { until } = &mut self.state[p] {
            *until += by;
        }
    }

    #[inline]
    pub(crate) fn set_current(&mut self, p: usize, cur: Option<usize>) {
        // `current` only moves the `engaged` counter, never the bucket.
        self.recount(p, |l| l.current[p] = cur);
    }

    /// Marks processor `p` fail-stopped from cycle `now` (never
    /// un-killed).
    pub(crate) fn kill(&mut self, p: usize, now: u64) {
        if let ProcState::SpinLocal { var, .. } = self.state[p] {
            self.waiters.remove(p, var);
        }
        self.write(p, now, |l| l.dead[p] = true);
    }

    /// Stall onset: `p` is frozen from cycle `now`.
    pub(crate) fn freeze(&mut self, p: usize, now: u64) {
        self.write(p, now, |l| l.frozen[p] = true);
    }

    /// Stall end: `p` runs again from cycle `now` (its `stall_until`).
    pub(crate) fn thaw(&mut self, p: usize, now: u64) {
        self.write(p, now, |l| l.frozen[p] = false);
    }

    /// Wakes the local spinners on `var` among processors `lo..hi`
    /// that a delivery of `val` can satisfy. O(1) while `val` is below
    /// every waiter's bound; otherwise walks the variable's waiter list
    /// (tightening the cached bound on the way) and returns `true`.
    pub(crate) fn wake_waiters(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) -> bool {
        if val < self.waiters.min_bound(var) {
            return false;
        }
        let mut min = u64::MAX;
        for &q in self.waiters.of(var) {
            let q = q as usize;
            let ProcState::SpinLocal { pred, .. } = self.state[q] else {
                unreachable!("waiter index lists a processor that is not spinning locally")
            };
            min = min.min(pred.bound());
            if (lo..hi).contains(&q) && pred.eval(val) {
                self.wake.insert(q);
            }
        }
        self.waiters.set_min_bound(var, min);
        true
    }

    /// Wakes `p` if it spins on its local image of `var` and `val`
    /// satisfies it — the single-image delivery paths.
    #[inline]
    pub(crate) fn wake_if_satisfied(&mut self, p: usize, var: SyncVar, val: u64) {
        if let ProcState::SpinLocal { var: v, pred } = self.state[p] {
            if v == var && pred.eval(val) {
                self.wake.insert(p);
            }
        }
    }
}
