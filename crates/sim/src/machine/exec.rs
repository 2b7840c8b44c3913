//! Per-processor execution: the per-cycle processor step and the
//! instruction-issue path that drives the dispatch, memory, fabric and
//! recovery subsystems.

use super::memory::{retry_addr, DataReq, DataReqKind};
use super::{Machine, ProcState, SpinPhase};
use crate::config::SyncTransport;
use crate::faults::FaultClass;
use crate::program::{Instr, Pred};

impl<'a> Machine<'a> {
    /// Visits processor `p` in the current cycle — the one transition
    /// function both step modes drive. "Free" instructions (notes,
    /// posted writes, satisfied waits, zero-cost computes) retire in the
    /// same cycle; the first costly one leaves `p` in the state that
    /// decides which bucket its cycles accrue to from now on. Nothing
    /// is charged here: a visit to a quiet processor (mid-compute,
    /// blocked, spinning on an unsatisfied image, idle with nothing to
    /// claim, dead) changes nothing at all.
    pub(crate) fn step_proc(&mut self, p: usize) {
        if self.procs.is_dead(p) {
            return;
        }
        if let ProcState::Computing { until } = self.procs.state(p) {
            if self.cycle >= until {
                // The compute retired with cycle `until - 1`.
                debug_assert_eq!(self.cycle, until, "a retiring compute is visited on time");
                self.procs.set_state(p, ProcState::Ready, until);
            }
        }
        if self.cycle >= self.procs.fail_at[p] {
            // Fail-stop onset: this processor permanently stops
            // dispatching, retiring and answering the sync bus. Its
            // gap detector is disarmed (a dead processor NACKs nothing);
            // its unretired work stays claimed until the watchdog's
            // rescue rung reclaims it. Trace notes witnessing work that
            // already completed (a keyed access whose transaction
            // performed last cycle, say) retire for free on a live
            // processor; record them before the stop so the order the
            // hardware actually enforced is not re-stamped late by the
            // rescue path.
            self.drain_notes(p);
            self.procs.kill(p, self.cycle);
            self.rec.nack_due[p] = u64::MAX;
            self.stats.faults.fail_stops += 1;
            self.record_fault(Some(p), FaultClass::ProcFailStop, 0);
            return;
        }
        if self.config.faults.stall_mean_interval > 0 {
            if self.procs.is_frozen(p) && self.cycle >= self.procs.stall_until[p] {
                self.procs.thaw(p, self.procs.stall_until[p]);
            }
            if !self.procs.is_frozen(p) && self.cycle >= self.procs.next_stall[p] {
                // Stall onset: freeze this processor for a bounded
                // interval and schedule the next onset. A compute in
                // progress resumes where it stopped, so it retires
                // later by the stall's length.
                let len = u64::from(self.rng.range_u32(1, self.config.faults.stall_max));
                self.procs.stall_until[p] = self.cycle + len;
                let mean = u64::from(self.config.faults.stall_mean_interval);
                self.procs.next_stall[p] = self.procs.stall_until[p] + 1 + self.rng.below(2 * mean);
                self.procs.extend_compute(p, len);
                self.procs.freeze(p, self.cycle);
                self.stats.faults.stalls += 1;
                self.stats.faults.stall_cycles += len;
                self.record_fault(Some(p), FaultClass::ProcStall, len);
            }
            if self.procs.is_frozen(p) {
                // A stall freezes real work, but trace notes are
                // bookkeeping, not machine work: an instruction that
                // already completed (e.g. a keyed access whose
                // transaction performed this cycle) must still be
                // witnessed now, or the trace would misreport the order
                // the hardware actually enforced.
                self.drain_notes(p);
                return;
            }
        }
        loop {
            match self.procs.state(p) {
                ProcState::Idle => {
                    if !self.try_dispatch(p) {
                        return;
                    }
                    // Dispatch may impose latency (state becomes Computing)
                    // or leave the proc Ready; loop to handle either.
                }
                ProcState::Computing { .. } | ProcState::BlockedData | ProcState::BlockedSync => {
                    return
                }
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.images.get(p, var)) {
                        self.close_wait(p);
                        // The successful check still costs this cycle:
                        // the processor is ready from the next one.
                        self.procs.set_state(p, ProcState::Ready, self.cycle + 1);
                    } else if self.cycle >= self.rec.nack_due[p] {
                        self.check_gap(p, var, pred);
                    }
                    return;
                }
                ProcState::SpinMem { retry, phase } => {
                    if let SpinPhase::Backoff { until } = phase {
                        if self.cycle >= until {
                            self.issue_data(DataReq::new(p, retry, retry_addr(retry)));
                            self.procs.set_state(
                                p,
                                ProcState::SpinMem { retry, phase: SpinPhase::WaitingResult },
                                self.cycle,
                            );
                        }
                    }
                    return;
                }
                ProcState::Ready => {
                    // Issue the next instruction; its cost (if any) is
                    // the state it leaves the processor in, so issuing
                    // does not add a cycle of its own.
                    self.execute_next_instr(p);
                }
            }
        }
    }

    /// Records any immediately-pending trace notes of a stalled (but
    /// otherwise ready) processor. Notes retire for free in normal
    /// stepping; draining them here keeps that invariant across stall
    /// onsets so completion events are never reported late.
    pub(crate) fn drain_notes(&mut self, p: usize) {
        while matches!(self.procs.state(p), ProcState::Ready) {
            let Some(prog_ix) = self.procs.current(p) else { return };
            let ip = self.procs.ip[p];
            let program = &self.workload.programs[prog_ix];
            if ip >= program.instrs.len() {
                return;
            }
            let Instr::Note(label) = program.instrs[ip] else { return };
            self.procs.ip[p] += 1;
            self.trace.record(self.cycle, p, label);
        }
    }

    /// Issues the next instruction; any cost shows up as a state change
    /// handled by [`Machine::step_proc`] in the same cycle. Sync
    /// operations on the dedicated transport go through the sync
    /// fabric ([`Machine::post`] / [`Machine::enqueue_rmw`]).
    pub(crate) fn execute_next_instr(&mut self, p: usize) {
        let prog_ix = match self.procs.current(p) {
            Some(ix) => ix,
            None => {
                self.procs.set_state(p, ProcState::Idle, self.cycle);
                return;
            }
        };
        let ip = self.procs.ip[p];
        let program = &self.workload.programs[prog_ix];
        if ip >= program.instrs.len() {
            self.disp.done[prog_ix] = true;
            self.procs.set_current(p, None);
            self.procs.ip[p] = 0;
            self.procs.set_state(p, ProcState::Idle, self.cycle);
            self.wake_claimers();
            return;
        }
        let instr = program.instrs[ip];
        // Everything before `ip` has retired; `instr` has not (a wait
        // that parks the processor re-executes from here, and KeyedAccess
        // rewinds `ip` itself). This is the provably-safe resume point
        // the rescue rung reads if this processor fail-stops mid-flight.
        self.procs.resume_ip[p] = ip;
        self.procs.ip[p] += 1;
        self.note_progress();
        match instr {
            Instr::Compute(0) => {}
            Instr::Compute(c) => {
                let until = self.cycle + u64::from(c);
                self.procs.set_state(p, ProcState::Computing { until }, self.cycle);
            }
            Instr::Note(label) => {
                self.trace.record(self.cycle, p, label);
            }
            Instr::Access { addr, write } => {
                self.issue_data(DataReq::new(p, DataReqKind::Access { write }, addr));
                self.procs.set_state(p, ProcState::BlockedData, self.cycle);
            }
            Instr::SyncSet { var, val } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    self.post(p, var, val);
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].posts += 1;
                    self.issue_data(DataReq::new(
                        p,
                        DataReqKind::SyncWrite { var, val },
                        var as u64,
                    ));
                    self.procs.set_state(p, ProcState::BlockedData, self.cycle);
                }
            },
            Instr::SyncRmw { var } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    self.metrics.sync_vars[var].rmws += 1;
                    if !self.enqueue_rmw(p, var) {
                        self.procs.set_state(p, ProcState::BlockedSync, self.cycle);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].rmws += 1;
                    self.issue_data(DataReq::new(p, DataReqKind::SyncRmw { var }, var as u64));
                    self.procs.set_state(p, ProcState::BlockedData, self.cycle);
                }
            },
            Instr::SyncWait { var, pred } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    self.metrics.sync_vars[var].waits += 1;
                    if !pred.eval(self.sync.images.get(p, var)) {
                        self.begin_wait(p, var, false);
                        self.procs.set_state(p, ProcState::SpinLocal { var, pred }, self.cycle);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.metrics.sync_vars[var].waits += 1;
                    self.begin_wait(p, var, true);
                    let kind = DataReqKind::Poll { var, pred };
                    self.issue_data(DataReq::new(p, kind, var as u64));
                    self.procs.set_state(
                        p,
                        ProcState::SpinMem { retry: kind, phase: SpinPhase::WaitingResult },
                        self.cycle,
                    );
                }
            },
            Instr::SyncSetIfGeq { var, guard, val } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    if self.sync.images.get(p, var) >= guard {
                        self.post(p, var, val);
                    }
                }
                SyncTransport::SharedMemory => {
                    self.issue_data(DataReq::new(
                        p,
                        DataReqKind::ReadCheck { var, guard, val },
                        var as u64,
                    ));
                    self.procs.set_state(p, ProcState::BlockedData, self.cycle);
                }
            },
            Instr::KeyedAccess { var, geq } => match self.config.sync_transport {
                SyncTransport::DedicatedBus => {
                    if self.sync.images.get(p, var) >= geq {
                        self.metrics.sync_vars[var].rmws += 1;
                        if !self.enqueue_rmw(p, var) {
                            self.procs.set_state(p, ProcState::BlockedSync, self.cycle);
                        }
                    } else {
                        // Spin on the local image, then re-issue this
                        // instruction once the key advances.
                        self.begin_wait(p, var, false);
                        self.procs.ip[p] -= 1;
                        self.procs.set_state(
                            p,
                            ProcState::SpinLocal { var, pred: Pred::Geq(geq) },
                            self.cycle,
                        );
                    }
                }
                SyncTransport::SharedMemory => {
                    self.begin_wait(p, var, true);
                    let kind = DataReqKind::KeyedAttempt { var, geq };
                    self.issue_data(DataReq::new(p, kind, var as u64));
                    self.procs.set_state(
                        p,
                        ProcState::SpinMem { retry: kind, phase: SpinPhase::WaitingResult },
                        self.cycle,
                    );
                }
            },
        }
    }
}
