//! The recovery engine: the self-healing ladder behind the sync fabric
//! (gap NACKs → refresh retransmission → watchdog repair) plus the
//! per-processor wait-episode bookkeeping the ladder hangs off.
//!
//! The ladder operates on the fabric's queued-broadcast machinery: a
//! local-image waiter that can prove a sequence gap (its predicate holds
//! on the global variable but not on its image) NACKs, queueing a
//! refresh broadcast; a persistently lossy image tap escalates to the
//! watchdog's force-sync repair rung. It draws no RNG and acts only at
//! stepped cycles, so arming it preserves fast-forward/reference
//! equivalence; with [`crate::recovery::RecoveryPolicy::Off`] it is
//! bit-inert.

use super::fabric::{QueuedSync, SyncReq};
use super::memory::DataReqKind;
use super::{Machine, ProcState};
use crate::events::SimEventKind;
use crate::program::{Instr, Pred, SyncVar};
use crate::recovery::WaitEdge;

/// Gap NACKs allowed per wait episode before the waiter falls silent
/// and escalates to the watchdog repair rung.
const NACK_TRIES_MAX: u32 = 4;

/// Self-healing ladder state plus wait-episode bookkeeping.
#[derive(Debug)]
pub(crate) struct RecoveryEngine {
    /// Whether the ladder (gap NACKs, retransmission, watchdog repair)
    /// is armed. Derived from [`crate::config::MachineConfig::recovery`];
    /// with it off the machine behaves bit-identically to one without
    /// recovery support.
    pub(crate) on: bool,
    /// Cycles a local-image waiter tolerates before suspecting a
    /// sequence gap (derived from the configured latencies and fault
    /// magnitudes; always well below the watchdog limit).
    pub(crate) nack_delay: u64,
    /// Per-processor cycle of the next gap check (`u64::MAX` when the
    /// processor is not in a local spin or has spent its NACK budget).
    pub(crate) nack_due: Vec<u64>,
    /// Per-processor NACKs issued in the current wait episode.
    pub(crate) nack_tries: Vec<u32>,
    /// Watchdog repair rungs taken this run (event numbering).
    pub(crate) repairs_done: u32,
    /// Watchdog rescue rungs taken this run (event numbering).
    pub(crate) rescues_done: u32,
    /// Rescue rungs taken since the machine last made observable
    /// progress — the runaway bound: capped at `2 * programs + P` so a
    /// pathological fault mix cannot swap work between survivors
    /// forever. Any retired instruction or dispatch resets it, so a
    /// rescue sequence that keeps the machine moving is never starved
    /// of rungs no matter how many it needs.
    pub(crate) rescue_futile: u32,
    /// Progress marker sampled at the last rescue (see
    /// [`Machine::rescue_progress_marker`]).
    pub(crate) rescue_marker: u64,
    /// Per-processor open wait episode: `(begin_cycle, var,
    /// through_memory)` from spin entry until satisfaction.
    pub(crate) wait_since: Vec<Option<(u64, SyncVar, bool)>>,
}

impl RecoveryEngine {
    /// Fresh ladder state for `p` processors.
    pub(crate) fn new(p: usize, nack_delay: u64, on: bool) -> Self {
        Self {
            on,
            nack_delay,
            nack_due: vec![u64::MAX; p],
            nack_tries: vec![0; p],
            repairs_done: 0,
            rescues_done: 0,
            rescue_futile: 0,
            rescue_marker: 0,
            wait_since: vec![None; p],
        }
    }
}

impl<'a> Machine<'a> {
    /// Closes processor `p`'s open wait episode, if any, recording its
    /// duration in the per-processor histogram and the event ring.
    /// Never inlined: this runs once per episode, not per cycle, and
    /// inlining it bloats `step_proc`'s per-cycle spin loop.
    #[inline(never)]
    pub(crate) fn close_wait(&mut self, p: usize) {
        if let Some((start, var, _)) = self.rec.wait_since[p].take() {
            let waited = self.cycle - start;
            self.metrics.wait[p].record(waited);
            self.events.record(self.cycle, SimEventKind::WaitEnd { proc: p, var, waited });
            if self.rec.nack_tries[p] > 0 {
                // The episode needed recovery intervention: its full
                // duration is the heal latency.
                self.stats.recovery.healed_waits += 1;
                self.stats.recovery.heal_latency_total += waited;
                self.stats.recovery.heal_latency_max =
                    self.stats.recovery.heal_latency_max.max(waited);
            }
        }
        self.rec.nack_due[p] = u64::MAX;
        self.rec.nack_tries[p] = 0;
    }

    /// Opens a wait episode for processor `p` on `var`.
    #[inline(never)]
    pub(crate) fn begin_wait(&mut self, p: usize, var: SyncVar, through_memory: bool) {
        self.rec.wait_since[p] = Some((self.cycle, var, through_memory));
        if self.rec.on && !through_memory {
            // Local-image spins arm the gap detector; memory polls read
            // the global variable directly and cannot gap.
            self.rec.nack_due[p] = self.cycle + self.rec.nack_delay;
            self.rec.nack_tries[p] = 0;
        }
        self.events
            .record(self.cycle, SimEventKind::WaitBegin { proc: p, var, through_memory });
    }

    /// Rung 1–2 of the recovery ladder: a local-image waiter whose
    /// deadline passed checks for a sequence gap (its predicate holds on
    /// the global variable but not on its image) and, if proven, NACKs —
    /// queueing a refresh broadcast of the global value. After
    /// [`NACK_TRIES_MAX`] NACKs the waiter falls silent so a persistently
    /// lossy tap escalates to the watchdog repair rung instead of
    /// re-NACKing forever (each refresh grant is bus progress, so
    /// unbounded NACKing would disarm the watchdog while healing
    /// nothing). Draws no RNG; runs only at stepped cycles.
    #[inline(never)]
    pub(crate) fn check_gap(&mut self, p: usize, var: SyncVar, pred: Pred) {
        if !pred.eval(self.sync.vars.global[var]) {
            // No gap: the awaited value has not performed globally yet.
            // Keep watching — the producer may still be on its way.
            self.rec.nack_due[p] = self.cycle + self.rec.nack_delay;
            return;
        }
        self.rec.nack_tries[p] += 1;
        let tries = self.rec.nack_tries[p];
        self.stats.recovery.gap_nacks += 1;
        self.events.record(self.cycle, SimEventKind::GapNack { proc: p, var, tries });
        let val = self.sync.vars.global[var];
        let seq = self.next_sync_seq();
        self.stats.recovery.retransmits += 1;
        self.events.record(self.cycle, SimEventKind::Retransmit { var, val });
        // Pushed directly (never coalesced into) and subject to the same
        // faults as any broadcast — a retransmission can itself be lost.
        // The refresh rides the NACKing processor's own bus (it heals
        // that bus's images; gaps on other buses raise their own NACKs).
        let mut msg = QueuedSync::new(SyncReq::Post { proc: p, var, val }, seq);
        msg.refresh = true;
        self.sync.enqueue(p, msg);
        self.rec.nack_due[p] = if tries >= NACK_TRIES_MAX {
            u64::MAX // budget spent: silence lets the watchdog escalate
        } else {
            self.cycle + self.rec.nack_delay
        };
    }

    /// The wait-for state of every local-image spinner, with the
    /// controller's verdict on whether re-broadcasting the global state
    /// would wake it. This is both the repair-rung trigger and the proof
    /// attached to unrecoverable failures.
    pub(crate) fn wait_diagnosis(&self) -> Vec<WaitEdge> {
        // "Producer is dead" verdict: unretired work is stranded on a
        // fail-stopped processor (or reclaimed but not yet finished), so
        // an unhealable wait is explained by the lost producer rather
        // than a value lost in flight.
        let producer_lost = !self.disp.rescue.is_empty()
            || (0..self.procs.len()).any(|i| {
                self.procs.is_dead(i)
                    && (self.procs.current(i).is_some() || !self.disp.queues[i].is_empty())
            });
        let mut edges = Vec::new();
        for i in 0..self.procs.len() {
            // A dead processor's own parked spin waits on nothing any
            // more — it neither needs repair nor proves a wedge.
            if self.procs.is_dead(i) {
                continue;
            }
            if let ProcState::SpinLocal { var, pred } = self.procs.state(i) {
                let image = self.sync.images.get(i, var);
                let global = self.sync.vars.global[var];
                let healable = pred.eval(global) && !pred.eval(image);
                edges.push(WaitEdge {
                    proc: i,
                    var,
                    need: pred.to_string(),
                    image,
                    global,
                    healable,
                    producer_dead: !healable && producer_lost,
                });
            }
        }
        edges
    }

    /// Rung 3: the watchdog's repair action. If any spinner is healable
    /// (satisfied globally, gapped locally), flush every deferred image
    /// update in order and force-sync all images from the global state —
    /// the controller re-broadcasting its state wholesale. Sound because
    /// sync variables are monotone counters and the global variable is
    /// the authoritative newest value. Returns `false` when nothing is
    /// healable, letting the caller fire the watchdog for real.
    #[cold]
    #[inline(never)]
    pub(crate) fn watchdog_repair(&mut self) -> bool {
        if !self.wait_diagnosis().iter().any(|e| e.healable) {
            return false;
        }
        // Apply what was already in flight in its original order…
        for p in 0..self.procs.len() {
            while let Some((_, var, val)) = self.sync.pop_defer(p) {
                self.sync.images.set(p, var, val);
            }
        }
        // …then bring every image up to the authoritative value, which
        // also drops all divergence.
        let healed = self.sync.images.heal(&self.sync.vars.global);
        self.sync.due_min = u64::MAX;
        self.rec.repairs_done += 1;
        self.stats.recovery.watchdog_repairs += 1;
        self.stats.recovery.images_repaired += healed;
        self.events.record(
            self.cycle,
            SimEventKind::WatchdogRepair { rung: self.rec.repairs_done, healed },
        );
        self.note_progress();
        true
    }

    /// The bound on consecutive *futile* rescues (rungs fired with no
    /// observable machine progress in between): generous enough for a
    /// full reshuffle of every program across the survivor quorum, small
    /// enough that a genuinely wedged pool fails fast.
    pub(crate) fn rescue_cap(&self) -> u32 {
        (self.workload.programs.len() * 2 + self.procs.len()) as u32
    }

    /// A monotone marker that advances whenever the machine does real
    /// work: any retired instruction moves at least one of these
    /// counters (computes burn busy cycles; accesses, RMWs and sync
    /// posts count transactions; a completed program's successor claim
    /// counts a dispatch). Sampled at each rescue so the runaway bound
    /// only counts rescues that achieved nothing.
    fn rescue_progress_marker(&mut self) -> u64 {
        // Busy cycles accrue lazily: settle them before reading.
        self.procs.flush_all(self.cycle);
        self.stats.dispatched
            + self.stats.data_transactions
            + self.stats.rmw_ops
            + self.stats.sync_broadcasts
            + self.stats.coalesced_writes
            + self.procs.total_busy()
    }

    /// Rung 4: the rescue (reconfigure) action for fail-stopped
    /// processors. Reclaims every unretired program a dead processor
    /// holds — its in-flight program at the provably-safe resume point,
    /// plus never-started static-queue assignments — into the dispatch
    /// rescue pool, where survivors claim it with priority over fresh
    /// work. If work is pending but no survivor is idle, a spinning
    /// survivor whose own wait is globally unsatisfiable (it cannot
    /// progress on its own) is preempted to run a rescued program —
    /// preferring one whose resume instruction can execute right now,
    /// so each preemption buys real progress; the victim's own program
    /// is suspended back into the pool.
    ///
    /// Fires only at quiescent points (the precise deadlock detector or
    /// the silence watchdog), so no reclaimed processor has a
    /// transaction in flight and no duplicated side effect is possible.
    /// Draws no RNG. Returns `false` when there is nothing to rescue,
    /// letting the caller fail the run for real.
    #[cold]
    #[inline(never)]
    pub(crate) fn watchdog_rescue(&mut self) -> bool {
        // Progress since the last rescue proves the rungs are working:
        // reset the futility counter so a long but productive rescue
        // sequence (every program reshuffled through a two-survivor
        // quorum, say) is never cut short. Only back-to-back rescues
        // with nothing retired in between count against the cap.
        let marker = self.rescue_progress_marker();
        if marker != self.rec.rescue_marker {
            self.rec.rescue_marker = marker;
            self.rec.rescue_futile = 0;
        }
        if self.rec.rescue_futile >= self.rescue_cap() {
            return false;
        }
        // Reclaim stranded work off every dead processor.
        let mut reclaimed = 0u64;
        for d in 0..self.procs.len() {
            if !self.procs.is_dead(d) {
                continue;
            }
            if let Some(prog) = self.procs.current(d) {
                self.procs.set_current(d, None);
                debug_assert!(
                    !matches!(self.procs.state(d), ProcState::BlockedData | ProcState::BlockedSync),
                    "dead processor holds an in-flight transaction at rescue time"
                );
                let resume = match self.procs.state(d) {
                    // Ready: the instruction at `ip` has not issued yet.
                    ProcState::Ready => self.procs.ip[d],
                    // Every other parked state re-executes the
                    // interrupted (unretired) instruction.
                    _ => self.procs.resume_ip[d],
                };
                self.procs.ip[d] = 0;
                self.procs.resume_ip[d] = 0;
                self.procs.set_state(d, ProcState::Idle, self.cycle);
                self.disp.rescue.push_back((prog, resume));
                self.events.record(
                    self.cycle,
                    SimEventKind::WorkReclaimed { from: d, program: prog, resume },
                );
                reclaimed += 1;
            }
            while let Some(prog) = self.disp.queues[d].pop_front() {
                self.disp.rescue.push_back((prog, 0));
                self.events.record(
                    self.cycle,
                    SimEventKind::WorkReclaimed { from: d, program: prog, resume: 0 },
                );
                reclaimed += 1;
            }
            // A dead processor's open wait episode can never close;
            // drop its bookkeeping without recording a satisfaction.
            self.rec.wait_since[d] = None;
            self.rec.nack_due[d] = u64::MAX;
            self.rec.nack_tries[d] = 0;
        }
        self.stats.recovery.programs_reclaimed += reclaimed;
        let mut acted = reclaimed > 0;
        // Reissue: an idle survivor claims from the pool on its next
        // step. With none idle, preempt a spinning survivor — but only
        // one parked in a pure, resumable state (a local-image spin or a
        // memory-poll backoff with nothing queued; preempting a proc
        // with a poll in flight would let the late completion clobber
        // its new state) whose own wait is globally unsatisfiable, so
        // the preemption costs no progress the victim could have made.
        // Waits run backward as well as forward (a barrier's lowest
        // iteration waits on arrivals from the highest), so eligibility
        // is judged by satisfiability, not program order. Highest
        // program first (furthest from runnable), ties to the lowest id.
        let any_idle = (0..self.procs.len())
            .any(|i| !self.procs.is_dead(i) && matches!(self.procs.state(i), ProcState::Idle));
        if !any_idle {
            let victim = (0..self.procs.len())
                .filter(|&i| !self.procs.is_dead(i))
                .filter(|&i| match self.procs.state(i) {
                    ProcState::SpinLocal { var, pred } => !pred.eval(self.sync.vars.global[var]),
                    ProcState::SpinMem { phase: super::SpinPhase::Backoff { .. }, retry } => {
                        match retry {
                            DataReqKind::Poll { var, pred } => {
                                !pred.eval(self.sync.vars.global[var])
                            }
                            DataReqKind::KeyedAttempt { var, geq } => {
                                self.sync.vars.global[var] < geq
                            }
                            _ => false,
                        }
                    }
                    _ => false,
                })
                .max_by_key(|&i| (self.procs.current(i), std::cmp::Reverse(i)));
            if let Some((v, (prog, resume))) =
                victim.and_then(|v| self.claim_runnable_rescue().map(|work| (v, work)))
            {
                let own = self.procs.current(v).expect("victim runs a program");
                // Spin states resume at the interrupted wait, so the
                // suspended program picks up exactly where it parked.
                self.disp.rescue.push_back((own, self.procs.resume_ip[v]));
                self.procs.set_current(v, Some(prog));
                self.procs.ip[v] = resume;
                self.procs.resume_ip[v] = resume;
                self.procs.set_state(v, ProcState::Ready, self.cycle);
                // The preempted wait episode is abandoned, not
                // satisfied: clear it without recording a WaitEnd.
                self.rec.wait_since[v] = None;
                self.rec.nack_due[v] = u64::MAX;
                self.rec.nack_tries[v] = 0;
                self.stats.recovery.rescue_swaps += 1;
                self.events.record(
                    self.cycle,
                    SimEventKind::WorkReissued { to: v, program: prog, resume },
                );
                acted = true;
            }
        }
        if !acted {
            return false;
        }
        self.rec.rescues_done += 1;
        self.rec.rescue_futile += 1;
        self.stats.recovery.fail_stop_rescues += 1;
        self.events.record(
            self.cycle,
            SimEventKind::WatchdogRescue { rung: self.rec.rescues_done, reclaimed },
        );
        self.note_progress();
        true
    }

    /// Pops the work item to reissue at a preemptive swap. Candidates
    /// are every rescue-pool entry plus the head of every live
    /// processor's static queue: reissuing rescued work ahead of fresh
    /// work can park a survivor's own next-phase program (whose barrier
    /// arrivals the rescued work waits on) behind it in its queue, so a
    /// swap restricted to the pool alone can starve. Every candidate
    /// must honor the static chain order ([`Dispatcher::claimable`]) —
    /// a never-started program whose queue predecessor is incomplete
    /// would run ahead of the phase barrier that predecessor ends with.
    /// Prefers the lowest program whose resume instruction can execute
    /// *right now* (judged against the global sync state — any non-wait
    /// instruction, or a wait already globally satisfied), so the swap
    /// is guaranteed to buy forward progress; falls back to the lowest
    /// program outright when every candidate is parked on an
    /// unsatisfied wait — re-parking is still bounded by the futility
    /// cap.
    fn claim_runnable_rescue(&mut self) -> Option<(usize, usize)> {
        let runnable = |prog: usize, resume: usize| -> bool {
            match self.workload.programs[prog].instrs.get(resume) {
                Some(Instr::SyncWait { var, pred }) => pred.eval(self.sync.vars.global[*var]),
                Some(Instr::KeyedAccess { var, geq }) => self.sync.vars.global[*var] >= *geq,
                _ => true,
            }
        };
        // (pool position) or (queue owner): where to pop the winner from.
        enum Source {
            Pool(usize),
            Queue(usize),
        }
        let mut best: Option<(bool, usize, usize, Source)> = None;
        let mut offer = |parked: bool, prog: usize, resume: usize, src: Source| {
            if best.as_ref().is_none_or(|&(p, g, _, _)| (parked, prog) < (p, g)) {
                best = Some((parked, prog, resume, src));
            }
        };
        for (i, &(prog, resume)) in self.disp.rescue.iter().enumerate() {
            if self.disp.claimable(prog, resume) {
                offer(!runnable(prog, resume), prog, resume, Source::Pool(i));
            }
        }
        for q in 0..self.disp.queues.len() {
            if self.procs.is_dead(q) {
                continue; // dead queues were reclaimed into the pool
            }
            if let Some(&prog) = self.disp.queues[q].front() {
                if self.disp.startable(prog) {
                    offer(!runnable(prog, 0), prog, 0, Source::Queue(q));
                }
            }
        }
        let (_, prog, resume, src) = best?;
        match src {
            Source::Pool(i) => self.disp.rescue.remove(i),
            Source::Queue(q) => {
                self.disp.queues[q].pop_front();
                Some((prog, resume))
            }
        }
    }
}
