//! The dispatch subsystem: hands loop-iteration programs to free
//! processors, either by self-scheduling (the paper's assumed policy)
//! or from a fixed per-processor assignment.

use super::workload::{DispatchMode, Workload};
use super::{Machine, ProcState};
use crate::events::SimEventKind;
use std::collections::VecDeque;

/// Iteration dispatch state: the self-scheduling cursor plus the static
/// per-processor work queues, plus the rescue pool of work reclaimed
/// from fail-stopped processors.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    /// Next unclaimed program under [`DispatchMode::Dynamic`].
    pub(crate) next_dynamic: usize,
    /// Per-processor pending program queues under
    /// [`DispatchMode::Static`] (empty under dynamic dispatch).
    pub(crate) queues: Vec<VecDeque<usize>>,
    /// Work reclaimed from dead processors: `(program, resume_ip)`
    /// pairs awaiting reissue. Claimed by any live processor with
    /// priority over fresh work (lowest program index first — the
    /// lowest unfinished iteration's producers have all finished, so
    /// reissuing it lowest-first guarantees forward progress).
    pub(crate) rescue: VecDeque<(usize, usize)>,
    /// Static-chain predecessor of each program. Under static dispatch
    /// a queue's programs run in order on their home processor, and
    /// compilers lean on that order as an implicit dependence: a
    /// phase-`k+1` program carries no leading wait — its legality rests
    /// on its queue predecessor, which *ends* with the phase barrier,
    /// having completed. Any path that issues work out of queue order
    /// (rescue reissue, preemptive swaps) must honor the same chain.
    pub(crate) chain_pred: Vec<Option<usize>>,
    /// Programs that have run to completion.
    pub(crate) done: Vec<bool>,
}

impl Dispatcher {
    /// Builds the dispatch state for `p` processors of `workload`.
    pub(crate) fn new(workload: &Workload, p: usize) -> Self {
        let queues = match &workload.dispatch {
            DispatchMode::Dynamic => vec![VecDeque::new(); p], // alloc-ok: setup
            DispatchMode::Static(assign) => {
                let mut qs = vec![VecDeque::new(); p]; // alloc-ok: setup
                for (i, q) in assign.iter().enumerate().take(p) {
                    qs[i] = q.iter().copied().collect(); // alloc-ok: setup
                }
                qs
            }
        };
        let mut chain_pred = vec![None; workload.programs.len()]; // alloc-ok: setup
        for q in &queues {
            for pair in q.iter().collect::<Vec<_>>().windows(2) {
                // alloc-ok: setup
                chain_pred[*pair[1]] = Some(*pair[0]);
            }
        }
        let done = vec![false; workload.programs.len()]; // alloc-ok: setup
        Self { next_dynamic: 0, queues, rescue: VecDeque::new(), chain_pred, done }
    }

    /// Whether a never-started program may be issued now: its static
    /// chain predecessor (if any) must have completed.
    pub(crate) fn startable(&self, prog: usize) -> bool {
        self.chain_pred[prog].is_none_or(|pred| self.done[pred])
    }

    /// Whether a rescue-pool entry may be (re)issued right now.
    /// Suspended work (`resume > 0`) was already legally started and
    /// resumes freely; never-started work waits for its chain
    /// predecessor like any other fresh issue.
    pub(crate) fn claimable(&self, prog: usize, resume: usize) -> bool {
        resume > 0 || self.startable(prog)
    }

    /// Whether the self-scheduling cursor still has unclaimed programs.
    pub(crate) fn dynamic_left(&self, workload: &Workload) -> bool {
        matches!(workload.dispatch, DispatchMode::Dynamic)
            && self.next_dynamic < workload.programs.len()
    }

    /// Whether processor `p` could claim a program right now.
    pub(crate) fn can_claim(&self, p: usize, workload: &Workload) -> bool {
        if self.rescue.iter().any(|&(prog, resume)| self.claimable(prog, resume)) {
            return true;
        }
        match workload.dispatch {
            DispatchMode::Dynamic => self.dynamic_left(workload),
            DispatchMode::Static(_) => self.queues[p].front().is_some_and(|&h| self.startable(h)),
        }
    }

    /// Pops the claimable rescued `(program, resume_ip)` with the
    /// lowest program index — the reissue order that guarantees
    /// forward progress.
    pub(crate) fn claim_rescue(&mut self) -> Option<(usize, usize)> {
        let pos = self
            .rescue
            .iter()
            .enumerate()
            .filter(|&(_, &(prog, resume))| self.claimable(prog, resume))
            .min_by_key(|(_, (prog, _))| *prog)
            .map(|(i, _)| i)?;
        self.rescue.remove(pos)
    }

    /// Claims the next `(program, resume_ip)` for processor `p`, if any.
    /// Rescued work is reissued before fresh work is handed out.
    pub(crate) fn claim(&mut self, p: usize, workload: &Workload) -> Option<(usize, usize)> {
        if let Some(rescued) = self.claim_rescue() {
            return Some(rescued);
        }
        match workload.dispatch {
            DispatchMode::Dynamic => {
                if self.next_dynamic >= workload.programs.len() {
                    return None;
                }
                let ix = self.next_dynamic;
                self.next_dynamic += 1;
                Some((ix, 0))
            }
            DispatchMode::Static(_) => {
                let head = *self.queues[p].front()?;
                if !self.startable(head) {
                    return None;
                }
                self.queues[p].pop_front().map(|ix| (ix, 0))
            }
        }
    }

    /// Whether every static queue and the rescue pool are empty.
    pub(crate) fn all_drained(&self) -> bool {
        self.rescue.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }
}

impl<'a> Machine<'a> {
    /// Returns `true` if a program was assigned to processor `p`.
    pub(crate) fn try_dispatch(&mut self, p: usize) -> bool {
        let Some((next, resume)) = self.disp.claim(p, self.workload) else {
            return false;
        };
        self.stats.dispatched += 1;
        self.note_progress();
        self.events
            .record(self.cycle, SimEventKind::Dispatch { proc: p, program: next });
        self.procs.set_current(p, Some(next));
        self.procs.ip[p] = resume;
        self.procs.resume_ip[p] = resume;
        let lat = u64::from(self.config.dispatch_latency);
        let state = if lat == 0 {
            ProcState::Ready
        } else {
            ProcState::Computing { until: self.cycle + lat }
        };
        self.procs.set_state(p, state, self.cycle);
        true
    }

    /// A program just completed: wakes the idle processors that may now
    /// be able to claim work. Normally that is nobody — the only work a
    /// completion frees is the finisher's own static-chain successor,
    /// and the finisher is mid-visit. Once the rescue rung has moved
    /// work around, a pool entry or another processor's queue head can
    /// be chained behind the finished program, so every idle processor
    /// is re-examined (O(P), fail-stop recovery only).
    pub(crate) fn wake_claimers(&mut self) {
        if self.disp.rescue.is_empty() && self.rec.rescues_done == 0 {
            return;
        }
        for q in 0..self.procs.len() {
            if matches!(self.procs.state(q), ProcState::Idle) {
                self.procs.mark_wake(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instr, Program};

    fn programs(n: usize) -> Vec<Program> {
        (0..n).map(|_| Program::from_instrs(vec![Instr::Compute(1)])).collect()
    }

    #[test]
    fn dynamic_claims_lowest_first_from_any_processor() {
        let w = Workload::dynamic(programs(3));
        let mut d = Dispatcher::new(&w, 2);
        assert!(d.dynamic_left(&w));
        assert_eq!(d.claim(1, &w), Some((0, 0)));
        assert_eq!(d.claim(0, &w), Some((1, 0)));
        assert_eq!(d.claim(0, &w), Some((2, 0)));
        assert_eq!(d.claim(1, &w), None);
        assert!(!d.dynamic_left(&w));
    }

    /// Pops a claim and marks the program retired, the way the machine
    /// does between successive claims by the same processor.
    fn claim_done(d: &mut Dispatcher, p: usize, w: &Workload) -> Option<(usize, usize)> {
        let got = d.claim(p, w);
        if let Some((prog, _)) = got {
            d.done[prog] = true;
        }
        got
    }

    #[test]
    fn static_cyclic_interleaves_claims() {
        let w = Workload::static_cyclic(programs(5), 2);
        let mut d = Dispatcher::new(&w, 2);
        assert_eq!(claim_done(&mut d, 0, &w), Some((0, 0)));
        assert_eq!(claim_done(&mut d, 1, &w), Some((1, 0)));
        assert_eq!(claim_done(&mut d, 0, &w), Some((2, 0)));
        assert_eq!(claim_done(&mut d, 1, &w), Some((3, 0)));
        assert_eq!(claim_done(&mut d, 0, &w), Some((4, 0)));
        assert!(d.all_drained());
    }

    #[test]
    fn static_blocked_gives_contiguous_chunks() {
        let w = Workload::static_blocked(programs(6), 2);
        let mut d = Dispatcher::new(&w, 2);
        assert!(d.can_claim(0, &w) && d.can_claim(1, &w));
        assert_eq!(
            (claim_done(&mut d, 0, &w), claim_done(&mut d, 0, &w), claim_done(&mut d, 0, &w)),
            (Some((0, 0)), Some((1, 0)), Some((2, 0)))
        );
        assert_eq!(
            (claim_done(&mut d, 1, &w), claim_done(&mut d, 1, &w), claim_done(&mut d, 1, &w)),
            (Some((3, 0)), Some((4, 0)), Some((5, 0)))
        );
        assert!(!d.can_claim(0, &w));
    }

    #[test]
    fn static_chain_order_gates_out_of_order_issue() {
        let w = Workload::static_cyclic(programs(4), 2);
        let mut d = Dispatcher::new(&w, 2);
        // Proc 0's chain is [0, 2]; claiming 0 without completing it
        // must park program 2 (and any rescue reissue of it).
        assert_eq!(d.claim(0, &w), Some((0, 0)));
        assert!(!d.startable(2), "program 2's chain predecessor has not completed");
        assert_eq!(d.claim(0, &w), None, "queue head gated on chain predecessor");
        assert!(!d.can_claim(0, &w));
        // A reclaimed, never-started copy of program 2 is equally gated;
        // the suspended (mid-run) program 0 itself is not.
        d.rescue.push_back((2, 0));
        d.rescue.push_back((0, 5));
        assert_eq!(d.claim_rescue(), Some((0, 5)), "suspended work resumes freely");
        assert_eq!(d.claim_rescue(), None, "never-started work honors the chain");
        d.done[0] = true;
        assert_eq!(d.claim_rescue(), Some((2, 0)), "chain satisfied, reissue allowed");
    }

    #[test]
    fn rescued_work_outranks_fresh_work_and_reissues_lowest_first() {
        let w = Workload::dynamic(programs(6));
        let mut d = Dispatcher::new(&w, 2);
        assert_eq!(d.claim(0, &w), Some((0, 0)));
        d.rescue.push_back((4, 3));
        d.rescue.push_back((2, 1));
        assert!(d.can_claim(1, &w));
        assert!(!d.all_drained(), "a pending rescue pool is undrained work");
        assert_eq!(d.claim(1, &w), Some((2, 1)), "lowest rescued program first");
        assert_eq!(d.claim(1, &w), Some((4, 3)));
        assert_eq!(d.claim(1, &w), Some((1, 0)), "then back to fresh work");
        assert!(d.all_drained());
    }
}
