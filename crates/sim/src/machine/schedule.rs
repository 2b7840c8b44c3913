//! The event schedule: a calendar (bucket) queue over per-processor
//! wake deadlines, replacing the fast-forward kernel's O(P) linear scan
//! with an O(occupied-buckets) lookup.
//!
//! Each source (processor) has one **authoritative deadline** in
//! [`Calendar::deadline`] (`u64::MAX` = parked). Scheduling never
//! removes old ring entries; it appends a new one and lets the stale
//! entries die by **lazy invalidation**: an entry is live only while the
//! source's authoritative deadline still falls in the bucket it sits
//! in. Invariants:
//!
//! * every finite authoritative deadline has a live entry (in the ring
//!   if it falls inside the horizon, in the overflow list otherwise);
//! * [`Calendar::earliest`] returns exactly the minimum finite
//!   authoritative deadline (or `u64::MAX`), never a later one — the
//!   fast-forward kernel's safety rests on this never being late;
//! * time only moves forward: `earliest(now)` is called with
//!   non-decreasing `now`, and deadlines are only scheduled at or after
//!   the `now` of the next query, so buckets strictly behind `now` hold
//!   only dead entries and are recycled as the base advances.
//!
//! The ring spans `BUCKETS << BUCKET_SHIFT` cycles; deadlines beyond it
//! (fail-stop windows, watchdog bounds) go to the small overflow list,
//! consulted only when the ring is empty or the horizon reaches
//! [`Calendar::overflow_min`]. A jump past the whole ring (a long quiet
//! stretch) triggers a cold [`Calendar::rebase`] that rebuilds from the
//! authoritative deadlines.
//!
//! The calendar answers two questions per advance: *when* is the next
//! wake ([`Calendar::earliest`], the jump target) and *who* is due at a
//! stepped cycle ([`Calendar::drain_due`], the visit set). The second
//! answer lands in a [`WakeSet`], the bitset that also
//! collects processors whose lanes were written this cycle, so the
//! stepper visits due ∪ touched in ascending id without walking all P.

/// Log2 of the bucket width in cycles.
const BUCKET_SHIFT: u32 = 6;
/// Ring length in buckets (power of two).
const BUCKETS: usize = 256;
/// Occupancy-bitmap words (64 buckets per word).
const WORDS: usize = BUCKETS / 64;
/// Source counts at or below this bypass the ring: min-scanning one
/// occupancy word's worth of packed `u64` deadlines is cheaper than the
/// ring's bucket bookkeeping (push, retain, base advance), so small
/// machines read the authoritative lane directly and only large ones
/// pay for — and win from — the calendar structure.
const SCAN_THRESHOLD: usize = 64;

/// Cycle-keyed calendar queue with lazy invalidation (see module docs).
#[derive(Debug)]
pub(crate) struct Calendar {
    /// Authoritative deadline per source (`u64::MAX` = parked).
    deadline: Vec<u64>,
    /// Ring of buckets holding source ids; entries are validated against
    /// `deadline` on inspection (lazy invalidation).
    buckets: Vec<Vec<u32>>,
    /// One occupancy bit per ring slot, so the scan skips empty runs a
    /// word at a time.
    occupied: [u64; WORDS],
    /// Absolute bucket index of the ring's earliest slot.
    base: u64,
    /// Sources whose deadline lay beyond the ring horizon at insert
    /// time. Swept (and re-homed into the ring) only when the horizon
    /// reaches `overflow_min`.
    overflow: Vec<u32>,
    /// Lower bound on the overflow entries' live deadlines.
    overflow_min: u64,
    /// `false` for small machines (≤ [`SCAN_THRESHOLD`] sources):
    /// `earliest` min-scans the deadline lane and the ring structures
    /// stay untouched and empty.
    use_ring: bool,
}

impl Calendar {
    /// A calendar for `n` sources, all initially due at cycle 0.
    pub(crate) fn new(n: usize) -> Self {
        Self::with_ring(n, n > SCAN_THRESHOLD)
    }

    /// Like [`Calendar::new`] with the ring-vs-scan choice forced —
    /// tests use this to drive the ring path at small source counts.
    pub(crate) fn with_ring(n: usize, use_ring: bool) -> Self {
        let mut cal = Self {
            deadline: vec![u64::MAX; n],
            buckets: vec![Vec::new(); BUCKETS],
            occupied: [0; WORDS],
            base: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            use_ring,
        };
        for src in 0..n {
            cal.schedule(src, 0);
        }
        cal
    }

    fn slot(abs: u64) -> usize {
        (abs % BUCKETS as u64) as usize
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn clear(&mut self, slot: usize) {
        self.buckets[slot].clear();
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// Sets `src`'s authoritative deadline to `t` (`u64::MAX` parks it).
    /// Old entries are left behind to die by lazy invalidation.
    pub(crate) fn schedule(&mut self, src: usize, t: u64) {
        if self.deadline[src] == t {
            // The live entry for this exact deadline is already placed.
            return;
        }
        self.deadline[src] = t;
        if t == u64::MAX || !self.use_ring {
            return;
        }
        self.insert(src, t);
    }

    fn insert(&mut self, src: usize, t: u64) {
        let abs = t >> BUCKET_SHIFT;
        if abs >= self.base + BUCKETS as u64 {
            self.overflow.push(src as u32);
            self.overflow_min = self.overflow_min.min(t);
            return;
        }
        // Deadlines behind the base can only arise from a caller bug
        // (time runs forward); clamp into the base bucket so the entry
        // is still found rather than silently lost.
        let abs = abs.max(self.base);
        let slot = Self::slot(abs);
        self.buckets[slot].push(src as u32);
        self.mark(slot);
    }

    /// Brings the ring up to `now`: recycles buckets strictly behind it
    /// (or rebases after a jump past the whole ring) and re-homes
    /// overflow entries the horizon has reached. Returns whether the
    /// overflow list was swept.
    fn settle(&mut self, now: u64) -> bool {
        let now_abs = now >> BUCKET_SHIFT;
        if now_abs >= self.base + BUCKETS as u64 {
            self.rebase(now_abs);
        } else {
            while self.base < now_abs {
                let slot = Self::slot(self.base);
                let word = self.occupied[slot / 64] >> (slot % 64);
                if word == 0 {
                    // Rest of this bitmap word is empty; like the scan
                    // in `earliest`, the skip stops at the word boundary
                    // so it never crosses the ring seam mid-word.
                    self.base = (self.base + (64 - slot % 64) as u64).min(now_abs);
                    continue;
                }
                let hop = u64::from(word.trailing_zeros());
                if hop > 0 {
                    self.base = (self.base + hop).min(now_abs);
                    continue;
                }
                self.clear(slot);
                self.base += 1;
            }
        }
        if self.overflow_min >> BUCKET_SHIFT < self.base + BUCKETS as u64 {
            self.sweep_overflow();
            true
        } else {
            false
        }
    }

    /// Calls `due` with every source whose authoritative deadline is at
    /// or before `now` — the processors a stepped cycle must visit. A
    /// source may be reported more than once (stale ring entries that
    /// happen to share the bucket); callers collect into a set. Entries
    /// stay in place: the visit re-arms each due source, which kills
    /// them by lazy invalidation like any reschedule.
    ///
    /// Same contract as [`Calendar::earliest`]: `now` is non-decreasing
    /// and time never passes a live deadline, so every due deadline sits
    /// in the bucket `now` falls in.
    pub(crate) fn drain_due(&mut self, now: u64, mut due: impl FnMut(usize)) {
        if !self.use_ring {
            for (src, &d) in self.deadline.iter().enumerate() {
                if d <= now {
                    due(src);
                }
            }
            return;
        }
        self.settle(now);
        for &src in &self.buckets[Self::slot(self.base)] {
            if self.deadline[src as usize] <= now {
                due(src as usize);
            }
        }
    }

    /// The minimum finite authoritative deadline, or `u64::MAX` when
    /// every source is parked. `now` must be non-decreasing across
    /// calls; buckets strictly behind it are recycled.
    pub(crate) fn earliest(&mut self, now: u64) -> u64 {
        if !self.use_ring {
            return self.deadline.iter().copied().min().unwrap_or(u64::MAX);
        }
        let mut swept = self.settle(now);
        loop {
            let end = self.base + BUCKETS as u64;
            let mut abs = self.base;
            while abs < end {
                let slot = Self::slot(abs);
                let word = self.occupied[slot / 64] >> (slot % 64);
                if word == 0 {
                    // The rest of this bitmap word is empty; slots wrap
                    // only at word boundaries, so the skip never crosses
                    // the ring seam mid-word.
                    abs += 64 - (slot % 64) as u64;
                    continue;
                }
                let hop = u64::from(word.trailing_zeros());
                if hop > 0 {
                    abs += hop;
                    continue;
                }
                if let Some(min) = self.inspect(abs) {
                    return min;
                }
                abs += 1;
            }
            // Nothing live in the ring: the answer is the overflow's
            // minimum. `overflow_min` is only a lower bound (entries
            // rescheduled later leave it stale-low), so sweep once to
            // tighten it — the sweep may also re-home entries into the
            // ring, in which case the rescan above finds them.
            if swept || self.overflow.is_empty() {
                return self.overflow_min;
            }
            self.sweep_overflow();
            swept = true;
        }
    }

    /// Minimum live deadline in the bucket at absolute index `abs`,
    /// dropping dead entries; clears the bucket if none are live.
    fn inspect(&mut self, abs: u64) -> Option<u64> {
        let slot = Self::slot(abs);
        let mut min = u64::MAX;
        let deadline = &self.deadline;
        self.buckets[slot].retain(|&src| {
            let d = deadline[src as usize];
            let live = d >> BUCKET_SHIFT == abs;
            if live {
                min = min.min(d);
            }
            live
        });
        if self.buckets[slot].is_empty() {
            self.clear(slot);
        }
        (min != u64::MAX).then_some(min)
    }

    /// Re-homes overflow entries whose deadline now falls inside the
    /// ring horizon; drops dead ones and recomputes `overflow_min`.
    #[cold]
    fn sweep_overflow(&mut self) {
        let horizon = self.base + BUCKETS as u64;
        let mut kept = std::mem::take(&mut self.overflow);
        let mut min = u64::MAX;
        kept.retain(|&src| {
            let d = self.deadline[src as usize];
            if d == u64::MAX || d >> BUCKET_SHIFT < self.base {
                return false; // dead (rescheduled or parked)
            }
            if d >> BUCKET_SHIFT < horizon {
                let slot = Self::slot(d >> BUCKET_SHIFT);
                self.buckets[slot].push(src);
                self.occupied[slot / 64] |= 1 << (slot % 64);
                return false;
            }
            min = min.min(d);
            true
        });
        self.overflow = kept;
        self.overflow_min = min;
    }

    /// A jump past the whole ring: rebuild every structure from the
    /// authoritative deadlines. Cold — only long fully-quiet stretches
    /// (watchdog-scale silences) reach it.
    #[cold]
    fn rebase(&mut self, now_abs: u64) {
        for slot in 0..BUCKETS {
            self.buckets[slot].clear();
        }
        self.occupied = [0; WORDS];
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.base = now_abs;
        for src in 0..self.deadline.len() {
            let d = self.deadline[src];
            if d != u64::MAX {
                self.insert(src, d);
            }
        }
    }
}

/// A set of processor ids as a flat bitset. It holds the processors a
/// stepped cycle still has to deal with — to visit (due or touched
/// before their slot) or merely to re-arm (touched after it).
#[derive(Debug)]
pub(crate) struct WakeSet {
    words: Vec<u64>,
}

impl WakeSet {
    /// An empty set over ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self { words: vec![0; n.div_ceil(64).max(1)] }
    }

    #[inline]
    pub(crate) fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    #[inline]
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.words[id / 64] & (1 << (id % 64)) != 0
    }

    /// Removes and returns the smallest member `>= from`, scanning
    /// forward from `from`'s word (a walk with an ascending cursor
    /// crosses each word once).
    pub(crate) fn take_next(&mut self, from: usize) -> Option<usize> {
        let first = from / 64;
        // Members of the first word below `from` are not candidates.
        let mut mask = u64::MAX << (from % 64);
        for (w, word) in self.words.iter_mut().enumerate().skip(first) {
            let candidates = *word & mask;
            if candidates != 0 {
                let bit = candidates.trailing_zeros() as usize;
                *word &= !(1 << bit);
                return Some(w * 64 + bit);
            }
            mask = u64::MAX;
        }
        None
    }

    /// Number of 64-id words, for [`WakeSet::take_word`].
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Removes and returns the members `64 * w ..` of word `w` as a bit
    /// mask — the end-of-cycle drain, one word at a time.
    pub(crate) fn take_word(&mut self, w: usize) -> u64 {
        std::mem::take(&mut self.words[w])
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Per-variable index of the processors spinning on their local image
/// of a synchronization variable, so an image delivery wakes exactly
/// the spinners it can satisfy instead of every processor.
///
/// Invariants (maintained by `ProcLanes`, the only writer):
///
/// * `lists[var]` holds every live processor whose state is
///   `SpinLocal { var, .. }`, each once, and nothing else;
/// * `min_bound[var]` is a **lower bound** on the smallest value any
///   listed waiter's predicate can accept (`u64::MAX` when the list is
///   empty). Removals leave it stale-low — that only costs a walk, which
///   recomputes it exactly — so a delivered value below it provably
///   satisfies nobody and is rejected in O(1).
#[derive(Debug)]
pub(crate) struct WaiterIndex {
    lists: Vec<Vec<u32>>,
    min_bound: Vec<u64>,
    /// Position of each processor in its variable's list
    /// (`u32::MAX` = not listed).
    pos: Vec<u32>,
}

impl WaiterIndex {
    const ABSENT: u32 = u32::MAX;

    /// An empty index for `procs` processors; variables are added on
    /// first use.
    pub(crate) fn new(procs: usize) -> Self {
        Self { lists: Vec::new(), min_bound: Vec::new(), pos: vec![Self::ABSENT; procs] }
    }

    /// Lists `p` as waiting on `var` for a value of at least `bound`.
    pub(crate) fn insert(&mut self, p: usize, var: usize, bound: u64) {
        debug_assert_eq!(self.pos[p], Self::ABSENT, "a processor waits on one variable");
        if var >= self.lists.len() {
            self.lists.resize_with(var + 1, Vec::new);
            self.min_bound.resize(var + 1, u64::MAX);
        }
        self.pos[p] = self.lists[var].len() as u32;
        self.lists[var].push(p as u32);
        self.min_bound[var] = self.min_bound[var].min(bound);
    }

    /// Unlists `p` from `var` (a no-op if it is not listed).
    pub(crate) fn remove(&mut self, p: usize, var: usize) {
        let at = std::mem::replace(&mut self.pos[p], Self::ABSENT);
        if at == Self::ABSENT {
            return;
        }
        let list = &mut self.lists[var];
        list.swap_remove(at as usize);
        if let Some(&moved) = list.get(at as usize) {
            self.pos[moved as usize] = at;
        } else if list.is_empty() {
            self.min_bound[var] = u64::MAX;
        }
    }

    /// The cached lower bound for `var` (`u64::MAX` = no waiters).
    #[inline]
    pub(crate) fn min_bound(&self, var: usize) -> u64 {
        self.min_bound.get(var).copied().unwrap_or(u64::MAX)
    }

    /// Replaces the cached bound after a walk computed it exactly.
    pub(crate) fn set_min_bound(&mut self, var: usize, bound: u64) {
        if let Some(b) = self.min_bound.get_mut(var) {
            *b = bound;
        }
    }

    /// The processors waiting on `var`.
    pub(crate) fn of(&self, var: usize) -> &[u32] {
        self.lists.get(var).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The retained linear-scan oracle: the minimum authoritative
    /// deadline, computed the way the old O(P) quiet-horizon scan did.
    fn oracle(deadlines: &[u64]) -> u64 {
        deadlines.iter().copied().min().unwrap_or(u64::MAX)
    }

    #[test]
    fn starts_with_every_source_due_at_zero() {
        let mut cal = Calendar::with_ring(4, true);
        assert_eq!(cal.earliest(0), 0);
    }

    #[test]
    fn tracks_simple_schedules_and_cancellations() {
        let mut cal = Calendar::with_ring(3, true);
        cal.schedule(0, 10);
        cal.schedule(1, 7);
        cal.schedule(2, u64::MAX);
        assert_eq!(cal.earliest(1), 7);
        // Reschedule (NACK refresh style): the old entry dies lazily.
        cal.schedule(1, 40);
        assert_eq!(cal.earliest(2), 10);
        // Cancellation (fail-stop style): parking removes the source.
        cal.schedule(0, u64::MAX);
        assert_eq!(cal.earliest(3), 40);
        cal.schedule(1, u64::MAX);
        assert_eq!(cal.earliest(4), u64::MAX);
    }

    #[test]
    fn far_deadlines_take_the_overflow_path_and_migrate_back() {
        let mut cal = Calendar::with_ring(2, true);
        let far = (BUCKETS as u64) << (BUCKET_SHIFT + 2); // well past the horizon
        cal.schedule(0, far);
        cal.schedule(1, u64::MAX);
        assert_eq!(cal.earliest(0), far);
        // Advancing near the far deadline re-homes it into the ring.
        assert_eq!(cal.earliest(far - 5), far);
        assert_eq!(cal.earliest(far), far);
    }

    #[test]
    fn jump_past_the_whole_ring_rebases_correctly() {
        let mut cal = Calendar::with_ring(3, true);
        let span = (BUCKETS as u64) << BUCKET_SHIFT;
        cal.schedule(0, 3 * span + 17);
        cal.schedule(1, 5 * span + 1);
        cal.schedule(2, u64::MAX);
        assert_eq!(cal.earliest(3 * span), 3 * span + 17);
        cal.schedule(0, u64::MAX);
        assert_eq!(cal.earliest(3 * span + 20), 5 * span + 1);
    }

    /// `drain_due` reports exactly the sources whose deadline has come,
    /// on the ring and on the small-machine scan path alike, and leaves
    /// them due until they are re-armed.
    #[test]
    fn drain_due_yields_exactly_the_due_sources() {
        for use_ring in [true, false] {
            let mut cal = Calendar::with_ring(5, use_ring);
            let due_at = |cal: &mut Calendar, now| {
                let mut due = Vec::new();
                cal.drain_due(now, |src| due.push(src));
                due.sort_unstable();
                due.dedup();
                due
            };
            assert_eq!(due_at(&mut cal, 0), vec![0, 1, 2, 3, 4], "all start due at 0");
            for (src, t) in [(0, 3), (1, 70), (2, 3), (3, u64::MAX), (4, 1 << 20)] {
                cal.schedule(src, t);
            }
            assert_eq!(due_at(&mut cal, 2), Vec::<usize>::new());
            assert_eq!(cal.earliest(2), 3);
            assert_eq!(due_at(&mut cal, 3), vec![0, 2]);
            assert_eq!(due_at(&mut cal, 3), vec![0, 2], "still due until re-armed");
            cal.schedule(0, 70);
            cal.schedule(2, u64::MAX);
            // Same bucket as the stale entries for 3, different deadline.
            assert_eq!(due_at(&mut cal, 4), Vec::<usize>::new());
            assert_eq!(due_at(&mut cal, 70), vec![0, 1]);
            cal.schedule(0, u64::MAX);
            cal.schedule(1, u64::MAX);
            // The far deadline migrates in from the overflow list.
            assert_eq!(due_at(&mut cal, (1 << 20) - 1), Vec::<usize>::new());
            assert_eq!(due_at(&mut cal, 1 << 20), vec![4]);
        }
    }

    #[test]
    fn wake_set_takes_members_in_ascending_order_from_a_cursor() {
        let mut set = WakeSet::new(10_000);
        assert_eq!(set.take_next(0), None);
        for id in [9_999, 64, 4_096, 3, 63, 4_095, 8_192] {
            set.insert(id);
            set.insert(id); // idempotent
        }
        assert!(set.contains(4_096) && !set.contains(4_097));
        // A cursor skips members behind it and leaves them in the set.
        assert_eq!(set.take_next(64), Some(64));
        assert_eq!(set.take_next(65), Some(4_095));
        // Inserting ahead of the cursor mid-walk is picked up in order...
        set.insert(4_100);
        set.insert(10);
        assert_eq!(set.take_next(4_096), Some(4_096));
        assert_eq!(set.take_next(4_097), Some(4_100));
        assert_eq!(set.take_next(4_101), Some(8_192));
        assert_eq!(set.take_next(8_193), Some(9_999));
        assert_eq!(set.take_next(10_000), None);
        // ...and what was behind it drains afterwards, still ascending.
        let rest: Vec<usize> = std::iter::from_fn(|| set.take_next(0)).collect();
        assert_eq!(rest, vec![3, 10, 63]);
        // The end-of-cycle drain takes whole words.
        for id in [77, 100, 9_000] {
            set.insert(id);
        }
        assert_eq!(set.take_word(1), (1 << 13) | (1 << 36));
        assert_eq!(set.take_next(0), Some(9_000));
        set.insert(77);
        set.clear();
        assert!((0..set.words()).all(|w| set.take_word(w) == 0));
    }

    #[test]
    fn waiter_index_tracks_membership_and_a_lower_bound() {
        let mut idx = WaiterIndex::new(6);
        assert_eq!(idx.min_bound(3), u64::MAX, "unknown variables have no waiters");
        assert!(idx.of(3).is_empty());
        idx.insert(0, 3, 50);
        idx.insert(1, 3, 20);
        idx.insert(2, 3, 90);
        idx.insert(5, 0, 7);
        assert_eq!(idx.min_bound(3), 20);
        assert_eq!(idx.min_bound(0), 7);
        // Removing the minimum holder leaves the bound stale-low (still
        // a lower bound); a walk tightens it.
        idx.remove(1, 3);
        idx.remove(1, 3); // absent: no-op
        assert_eq!(idx.min_bound(3), 20);
        let mut waiters = idx.of(3).to_vec();
        waiters.sort_unstable();
        assert_eq!(waiters, vec![0, 2]);
        idx.set_min_bound(3, 50);
        // The swap-remove kept positions straight.
        idx.remove(0, 3);
        assert_eq!(idx.of(3), &[2]);
        idx.remove(2, 3);
        assert_eq!(idx.min_bound(3), u64::MAX, "an emptied list resets the bound");
        idx.insert(2, 3, 4);
        assert_eq!((idx.of(3), idx.min_bound(3)), (&[2u32][..], 4));
    }

    /// Property test: across seeded random schedules — including
    /// rescheduled deadlines (watchdog re-arm, NACK refresh), parked
    /// sources (fail-stop) and big time jumps — the calendar and the
    /// linear-scan oracle always pick the same next event.
    #[test]
    fn matches_linear_scan_oracle_on_random_schedules() {
        for case in 0..40u64 {
            // Even cases force the bucket ring at small source counts
            // (the default would min-scan); odd cases take the default
            // path, covering the scan bypass too.
            let (seed, force_ring) = (case / 2, case % 2 == 0);
            let mut rng = SplitMix64::new(0xCA1E_0000 + seed);
            let n = 1 + rng.below(24) as usize;
            let mut cal = Calendar::with_ring(n, force_ring || n > SCAN_THRESHOLD);
            let mut shadow = vec![0u64; n];
            let mut now = 0u64;
            for _ in 0..400 {
                match rng.below(10) {
                    // Advance time to (at most) the next event, the way
                    // the fast-forward kernel does, sometimes far past.
                    0..=3 => {
                        let next = oracle(&shadow);
                        let jump = match rng.below(4) {
                            0 => 1 + rng.below(16),
                            1 => 1 + rng.below(1 << 10),
                            2 => 1 + rng.below(1 << 15), // past the ring
                            _ => 1 + rng.below(64),
                        };
                        now = now.max(next.min(now + jump));
                        // Sources that came due get rescheduled forward,
                        // as a stepped cycle refreshes every wake.
                        for (src, slot) in shadow.iter_mut().enumerate() {
                            if *slot <= now {
                                let t = now + 1 + rng.below(1 << 8);
                                *slot = t;
                                cal.schedule(src, t);
                            }
                        }
                    }
                    // Reschedule a live source (earlier or later).
                    4..=6 => {
                        let src = rng.below(n as u64) as usize;
                        let t = now + 1 + rng.below(1 << 12);
                        shadow[src] = t;
                        cal.schedule(src, t);
                    }
                    // Park (cancel) a source, fail-stop style.
                    7 => {
                        let src = rng.below(n as u64) as usize;
                        shadow[src] = u64::MAX;
                        cal.schedule(src, u64::MAX);
                    }
                    // Far-future deadline (fail window / watchdog bound).
                    _ => {
                        let src = rng.below(n as u64) as usize;
                        let t = now + 1 + rng.below(1 << 22);
                        shadow[src] = t;
                        cal.schedule(src, t);
                    }
                }
                assert_eq!(
                    cal.earliest(now),
                    oracle(&shadow),
                    "calendar diverged from the linear-scan oracle (seed {seed}, now {now})"
                );
            }
        }
    }
}
