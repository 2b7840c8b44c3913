//! The memory subsystem: data-bus arbitration, interleaved memory
//! banks, and the globally-performed effects of data-path requests
//! (shared accesses, through-memory sync operations, busy-wait polls).

use super::cache::Coh;
use super::{Machine, ProcState, SpinPhase};
use crate::config::MemoryModel;
use crate::events::SimEventKind;
use crate::faults::FaultClass;
use crate::program::{Pred, SyncVar};
use std::collections::VecDeque;

/// A data-path request kind (what happens when memory performs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataReqKind {
    Access {
        write: bool,
    },
    /// A pure coherence transaction (dirty-victim writeback): occupies
    /// the bus/bank like a write but has no waiting processor and no
    /// globally-performed effect.
    Coherence,
    SyncWrite {
        var: SyncVar,
        val: u64,
    },
    SyncRmw {
        var: SyncVar,
    },
    Poll {
        var: SyncVar,
        pred: Pred,
    },
    /// Read for a conditional write: on completion, a write of `val` is
    /// issued only when the value read is `>= guard`.
    ReadCheck {
        var: SyncVar,
        guard: u64,
        val: u64,
    },
    /// One attempt of a Cedar-style keyed access: test-and-(access +
    /// increment) in a single memory transaction; retries on failure.
    KeyedAttempt {
        var: SyncVar,
        geq: u64,
    },
}

impl DataReqKind {
    /// Whether the request writes memory — what decides between a
    /// shared fetch and an exclusive/updating one in the cache layer.
    /// Keyed attempts are pessimistically writes (each attempt is a
    /// test-and-set-style transaction that takes the line exclusively,
    /// which is exactly the ping-pong the paper's Section 3 worries
    /// about); polls and guard reads are reads.
    pub(crate) fn is_write(self) -> bool {
        match self {
            DataReqKind::Access { write } => write,
            DataReqKind::SyncWrite { .. }
            | DataReqKind::SyncRmw { .. }
            | DataReqKind::KeyedAttempt { .. }
            | DataReqKind::Coherence => true,
            DataReqKind::Poll { .. } | DataReqKind::ReadCheck { .. } => false,
        }
    }
}

/// Interleaving address of a re-issued spin request.
pub(crate) fn retry_addr(kind: DataReqKind) -> u64 {
    match kind {
        DataReqKind::Poll { var, .. }
        | DataReqKind::SyncWrite { var, .. }
        | DataReqKind::SyncRmw { var }
        | DataReqKind::ReadCheck { var, .. }
        | DataReqKind::KeyedAttempt { var, .. } => var as u64,
        DataReqKind::Access { .. } | DataReqKind::Coherence => 0,
    }
}

/// One queued data-path request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataReq {
    pub(crate) proc: usize,
    pub(crate) kind: DataReqKind,
    /// Address used for memory-bank interleaving (sync vars use their
    /// index).
    pub(crate) addr: u64,
    /// Coherence action carried for the cache layer
    /// ([`Coh::Uncached`] on a cacheless machine).
    pub(crate) coh: Coh,
}

impl DataReq {
    /// A plain (cache-unrouted) request; [`Machine::issue_data`] decides
    /// its coherence action.
    pub(crate) fn new(proc: usize, kind: DataReqKind, addr: u64) -> Self {
        Self { proc, kind, addr, coh: Coh::Uncached }
    }
}

/// One interleaved memory module (only used by [`MemoryModel::Banked`]).
#[derive(Debug, Default)]
pub(crate) struct Bank {
    pub(crate) active: Option<(DataReq, u64)>,
    pub(crate) queue: VecDeque<DataReq>,
}

/// Data-bus arbitration state plus the memory banks behind it.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    /// FIFO of requests waiting for the data bus.
    pub(crate) queue: VecDeque<DataReq>,
    /// The transaction currently holding the bus, with its end cycle.
    pub(crate) active: Option<(DataReq, u64)>,
    /// Interleaved memory modules (empty under [`MemoryModel::BusHeld`]).
    pub(crate) banks: Vec<Bank>,
}

impl MemorySystem {
    /// An idle memory system with `n_banks` interleaved modules.
    pub(crate) fn new(n_banks: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            active: None,
            banks: (0..n_banks).map(|_| Bank::default()).collect(),
        }
    }

    /// Whether any bank is serving or holding queued requests.
    pub(crate) fn banks_pending(&self) -> bool {
        self.banks.iter().any(|b| b.active.is_some() || !b.queue.is_empty())
    }
}

impl<'a> Machine<'a> {
    /// Completes the data-bus transaction and any bank services ending
    /// this cycle, applying their effects.
    pub(crate) fn complete_data(&mut self) {
        if self.cache.enabled {
            self.complete_cache_pending();
        }
        if let Some((req, end)) = self.mem.active {
            if end == self.cycle {
                self.mem.active = None;
                match self.config.memory_model {
                    MemoryModel::BusHeld => self.apply_data_effect(req),
                    MemoryModel::Banked { .. } if req.coh.bus_only() => {
                        // Served at the bus (cache-to-cache supply or an
                        // address/word-only coherence broadcast): never
                        // touches a memory bank.
                        self.apply_data_effect(req);
                    }
                    MemoryModel::Banked { banks } => {
                        // Bus phase done: hand the request to its bank.
                        let bank = (req.addr % banks as u64) as usize;
                        let depth = self.mem.banks[bank].queue.len()
                            + usize::from(self.mem.banks[bank].active.is_some());
                        if depth > 0 {
                            self.metrics.bank_conflicts += 1;
                            self.events
                                .record(self.cycle, SimEventKind::BankConflict { bank, depth });
                        }
                        self.mem.banks[bank].queue.push_back(req);
                    }
                }
            }
        }
        for b in 0..self.mem.banks.len() {
            if let Some((req, end)) = self.mem.banks[b].active {
                if end == self.cycle {
                    self.mem.banks[b].active = None;
                    self.apply_data_effect(req);
                }
            }
            if self.mem.banks[b].active.is_none() {
                if let Some(req) = self.mem.banks[b].queue.pop_front() {
                    let dur = u64::from(self.config.memory_latency).max(1);
                    self.metrics.bank_busy += dur;
                    self.events.record(
                        self.cycle,
                        SimEventKind::BankService { bank: b, proc: req.proc, dur },
                    );
                    self.mem.banks[b].active = Some((req, self.cycle + dur));
                }
            }
        }
    }

    /// Grants the data bus to the next queued request, if the bus — and,
    /// under a shared fabric, the one physical bus sync traffic also
    /// rides — is free.
    pub(crate) fn grant_data(&mut self) {
        if self.mem.active.is_some() {
            return;
        }
        // One physical bus: an in-flight sync broadcast holds it.
        if self.sync.inflight > 0
            && self.sync.buses.iter().any(|b| b.shares_data_bus && b.active.is_some())
        {
            return;
        }
        let f = self.config.faults;
        if let Some(mut req) = self.mem.queue.pop_front() {
            self.stats.data_transactions += 1;
            match req.kind {
                DataReqKind::Poll { .. } => self.stats.spin_polls += 1,
                DataReqKind::SyncRmw { .. } => self.stats.rmw_ops += 1,
                _ => {}
            }
            let bus = u64::from(self.config.data_bus_latency);
            let mut dur = match self.config.memory_model {
                MemoryModel::BusHeld => bus + u64::from(self.config.memory_latency),
                MemoryModel::Banked { .. } => bus,
            };
            if let super::cache::Coh::Fill { way, .. } = req.coh {
                // The snoop happens at grant: an owning cache supplies
                // the line bus-to-bus, skipping memory entirely.
                let key = self.cache.key_of(&req).expect("a fill is always cacheable");
                let line = self.cache.line_of(key);
                if self.cache.snoop_has(line, req.proc) {
                    req.coh = super::cache::Coh::Fill { way, c2c: true };
                    dur = bus + self.cache.c2c_latency;
                }
            } else if req.coh.bus_only() {
                // Upgrades and updates are address/word-only broadcasts.
                dur = bus;
            }
            if f.data_jitter_pct > 0 && self.rng.chance_pct(f.data_jitter_pct) {
                let extra = u64::from(self.rng.range_u32(1, f.data_jitter_max));
                dur += extra;
                self.stats.faults.jittered_transactions += 1;
                self.stats.faults.jitter_cycles += extra;
                self.record_fault(Some(req.proc), FaultClass::DataJitter, extra);
            }
            let poll =
                matches!(req.kind, DataReqKind::Poll { .. } | DataReqKind::KeyedAttempt { .. });
            if let DataReqKind::Poll { var, .. } | DataReqKind::KeyedAttempt { var, .. } = req.kind
            {
                self.metrics.sync_vars[var].polls += 1;
            }
            self.metrics.data_bus_busy += dur;
            self.events
                .record(self.cycle, SimEventKind::DataGrant { proc: req.proc, dur, poll });
            self.mem.active = Some((req, self.cycle + dur));
            self.note_progress();
        }
    }

    /// Applies the globally-performed effect of a data-path request.
    pub(crate) fn apply_data_effect(&mut self, req: DataReq) {
        self.note_progress();
        if self.cache.enabled {
            self.cache_complete(&req);
        }
        match req.kind {
            DataReqKind::Access { .. } => self.unblock(req.proc),
            DataReqKind::Coherence => {}
            DataReqKind::SyncWrite { var, val } => {
                self.write_sync(var, val);
                self.unblock(req.proc);
            }
            DataReqKind::SyncRmw { var } => {
                let v = self.sync.vars.global[var] + 1;
                self.write_sync(var, v);
                self.unblock(req.proc);
            }
            DataReqKind::Poll { var, pred } => {
                if pred.eval(self.sync.vars.global[var]) {
                    self.unblock(req.proc);
                } else {
                    self.procs.set_state(
                        req.proc,
                        ProcState::SpinMem {
                            retry: req.kind,
                            phase: SpinPhase::Backoff {
                                until: self.cycle + u64::from(self.config.spin_retry),
                            },
                        },
                        self.cycle,
                    );
                }
            }
            DataReqKind::ReadCheck { var, guard, val } => {
                if self.sync.vars.global[var] >= guard {
                    self.metrics.sync_vars[var].posts += 1;
                    self.issue_data(DataReq::new(
                        req.proc,
                        DataReqKind::SyncWrite { var, val },
                        req.addr,
                    ));
                } else {
                    self.unblock(req.proc);
                }
            }
            DataReqKind::KeyedAttempt { var, geq } => {
                if self.sync.vars.global[var] >= geq {
                    let v = self.sync.vars.global[var] + 1;
                    self.write_sync(var, v);
                    self.stats.rmw_ops += 1;
                    self.metrics.sync_vars[var].rmws += 1;
                    self.unblock(req.proc);
                } else {
                    self.procs.set_state(
                        req.proc,
                        ProcState::SpinMem {
                            retry: req.kind,
                            phase: SpinPhase::Backoff {
                                until: self.cycle + u64::from(self.config.spin_retry),
                            },
                        },
                        self.cycle,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_addr_interleaves_on_the_sync_var() {
        assert_eq!(retry_addr(DataReqKind::Poll { var: 3, pred: Pred::Geq(1) }), 3);
        assert_eq!(retry_addr(DataReqKind::KeyedAttempt { var: 7, geq: 2 }), 7);
        assert_eq!(retry_addr(DataReqKind::Access { write: false }), 0);
    }

    #[test]
    fn memory_system_tracks_bank_pendings() {
        let mut m = MemorySystem::new(2);
        assert!(!m.banks_pending());
        m.banks[1]
            .queue
            .push_back(DataReq::new(0, DataReqKind::Access { write: false }, 1));
        assert!(m.banks_pending());
        m.banks[1].queue.clear();
        m.banks[0].active = Some((DataReq::new(0, DataReqKind::Access { write: false }, 0), 5));
        assert!(m.banks_pending());
    }

    #[test]
    fn write_classification_is_pessimistic_for_keyed_attempts() {
        assert!(DataReqKind::Access { write: true }.is_write());
        assert!(!DataReqKind::Access { write: false }.is_write());
        assert!(DataReqKind::SyncWrite { var: 0, val: 1 }.is_write());
        assert!(DataReqKind::SyncRmw { var: 0 }.is_write());
        assert!(DataReqKind::KeyedAttempt { var: 0, geq: 1 }.is_write());
        assert!(!DataReqKind::Poll { var: 0, pred: Pred::Geq(1) }.is_write());
        assert!(!DataReqKind::ReadCheck { var: 0, guard: 1, val: 2 }.is_write());
    }
}
