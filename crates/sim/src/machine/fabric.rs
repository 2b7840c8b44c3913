//! The synchronization fabric: how sync-variable writes reach the
//! global state and every processor's local image.
//!
//! The paper's §6 hardware is one thing: a **broadcast bus** with a
//! local image of every sync variable in each processor. This module
//! has one such primitive, [`SyncBus`] — a FIFO of pending broadcasts,
//! at most one in flight, and the range of processors `lo..hi` whose
//! images it delivers to — and every fabric is a *topology* of them,
//! built once from [`FabricKind`] by [`SyncState::new`]:
//!
//! * **Dedicated** (the paper's hardware and the default) — one bus
//!   over `0..P`: posted broadcasts, local-image spinning at zero
//!   traffic.
//! * **Shared** — the same one bus, flagged
//!   [`SyncBus::shares_data_bus`]: there is only one physical bus, so a
//!   grant waits for the data bus to be free (data has priority), an
//!   in-flight broadcast blocks data grants, and its tenure is charged
//!   to both occupancy counters. Quantifies what §6's dedicated bus
//!   actually buys.
//! * **Ideal** — zero buses: posts and RMWs perform globally and in
//!   every image the instant they issue, at zero occupancy, with no RNG
//!   draws and immune to sync-path faults. The upper bound any
//!   interconnect could approach.
//! * **Clustered** — N buses, each over its own `P/N` processors, plus
//!   a [`Bridge`]. A completed broadcast performs globally, delivers to
//!   its own bus's images, and submits the variable to the bridge,
//!   which batches same-variable submissions within a coalescing window
//!   and then forwards one broadcast to every image. Because sync
//!   variables are monotone counters and the bridge re-reads the global
//!   value at delivery, folding partial barrier/SC/PC counts into one
//!   forward is lossless — the aggregation that keeps the bridge off
//!   the critical path at P=1024+.
//!
//! There is one issue path ([`Machine::post`], [`Machine::enqueue_rmw`]),
//! one arbitration function ([`Machine::grant_bus`]) and one completion
//! function ([`Machine::complete_bus`]); none of them asks which fabric
//! it serves. What differs between fabrics follows from the topology:
//! how many buses are visited (in index order, window flush first and
//! bridge last, so RNG draws and event order are deterministic in both
//! step modes), which images a completion reaches, whether a bridge
//! exists to submit to, and whether a stale delivery is a fault (it is
//! only where a single bus serializes every broadcast; across several
//! buses overtaking is routine).
//!
//! All transport state lives in [`SyncState`], owned by the machine,
//! and every function here runs only at stepped (non-quiet) cycles, so
//! the fast-forward and reference steppers are bit-identical per
//! fabric. Sync-path fault injection (drops, delays, reorders,
//! stale/lost images) and the NACK/retransmit recovery path operate on
//! the queued-broadcast machinery and therefore need a bus; the oracle
//! has none to fault. Queue faults are drawn per bus, and the per-image
//! loss/stale faults apply to bus and bridge deliveries alike, so the
//! recovery ladder is exercised across the bridge too.

use super::images::Images;
use super::Machine;
use crate::config::FabricKind;
use crate::events::SimEventKind;
use crate::faults::FaultClass;
use crate::program::SyncVar;
use std::collections::VecDeque;

/// A queued synchronization operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SyncReq {
    Post { proc: usize, var: SyncVar, val: u64 },
    Rmw { proc: usize, var: SyncVar },
}

/// A sync-bus message with its fault-injection bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedSync {
    pub(crate) req: SyncReq,
    /// Issue-order tag. Broadcast hardware stamps messages so a stale
    /// redelivery or reordered grant of an *older* write can be
    /// recognized and discarded instead of clobbering a newer value
    /// (sync variables are monotonic counters in every scheme; a
    /// regression would wedge every waiter past the lost value).
    pub(crate) seq: u64,
    /// Times this message was dropped and re-queued (capped by
    /// `FaultPlan::max_redeliveries`, so delivery is eventual).
    pub(crate) redeliveries: u32,
    /// Cycle of the first grant — or, for a message overtaken by a
    /// reordered grant, the cycle it *would* have been granted — used to
    /// measure recovery latency.
    pub(crate) first_grant: Option<u64>,
    /// Whether any fault touched this message (only faulted messages
    /// contribute to recovery-latency stats).
    pub(crate) faulted: bool,
    /// A NACK-triggered re-broadcast. A refresh carries no payload of
    /// its own: it re-reads the *current* global value at delivery time
    /// (a value captured at NACK time could be overtaken by an RMW
    /// granted in between and would regress the variable), and it is
    /// never a coalescing target (folding a real post into a refresh
    /// would discard the post's value).
    pub(crate) refresh: bool,
}

impl QueuedSync {
    pub(crate) fn new(req: SyncReq, seq: u64) -> Self {
        Self { req, seq, redeliveries: 0, first_grant: None, faulted: false, refresh: false }
    }
}

/// Per-variable synchronization state in struct-of-arrays layout: one
/// lane per field, indexed by [`SyncVar`].
#[derive(Debug)]
pub(crate) struct VarLanes {
    /// Globally-performed value of each synchronization variable.
    pub(crate) global: Vec<u64>,
    /// Per-variable tag of the last applied sync write; an arriving
    /// message with an older tag is a stale redelivery and is discarded.
    pub(crate) applied_seq: Vec<u64>,
}

/// One broadcast bus: the §6 primitive every fabric is built from.
#[derive(Debug)]
pub(crate) struct SyncBus {
    /// Broadcasts waiting for the bus.
    pub(crate) queue: VecDeque<QueuedSync>,
    /// The broadcast holding the bus, with its end cycle.
    pub(crate) active: Option<(QueuedSync, u64)>,
    /// First processor of the broadcast domain.
    pub(crate) lo: usize,
    /// One past the last processor of the broadcast domain.
    pub(crate) hi: usize,
    /// There is no dedicated sync hardware: this bus *is* the data bus,
    /// so grants wait for data traffic and tenure is charged to both.
    pub(crate) shares_data_bus: bool,
}

/// The second level of a multi-bus fabric. Pipeline per submitted
/// variable: coalescing `window` (folds same-variable followers) →
/// `queue` → `active` (one forward at a time, delivering the *current*
/// global value to every image).
#[derive(Debug)]
pub(crate) struct Bridge {
    /// Cycles the bridge holds its channel per forward.
    latency: u64,
    /// Cycles a first submission waits for same-variable followers.
    coalesce_window: u64,
    /// Coalescing window: `(var, flush_cycle)` in submission order.
    /// Flush cycles are non-decreasing (every entry waits the same
    /// window), so the front is always the earliest.
    window: VecDeque<(SyncVar, u64)>,
    /// Variables flushed from the window, waiting for the channel.
    queue: VecDeque<SyncVar>,
    /// The forward holding the channel, with its end cycle.
    active: Option<(SyncVar, u64)>,
    /// Per-variable flag: a forward of this variable is pending
    /// somewhere in window/queue/active, so a new submission folds into
    /// it (O(1) membership instead of scanning the pipeline).
    pending: Vec<bool>,
}

/// All synchronization-transport state: the authoritative global
/// values, per-processor local images, the bus topology, and the
/// deferred-image and sequence-tag machinery faults and recovery hang
/// off. Owned by the machine.
///
/// Local images are *virtual* ([`Images`]): one word per (variable,
/// bus domain), because every delivery reaches a whole domain. The
/// image of `(p, v)` is its domain's word unless `(p, v)` diverged, and
/// divergence only arises on three paths — a lost or stale per-image
/// delivery ([`Machine::deliver_images`]'s faulted walk), a deferred
/// update applied late ([`Machine::apply_deferred_images`]) and the
/// recovery flush of deferred updates — until the watchdog repair
/// clears it. A fault-free broadcast therefore writes one word per
/// domain it reaches, independent of P.
#[derive(Debug)]
pub(crate) struct SyncState {
    /// Per-variable lanes (global values, applied sequence tags).
    pub(crate) vars: VarLanes,
    /// Every processor's local image of every variable, one broadcast
    /// domain per bus (a single one on the bus-less ideal fabric).
    pub(crate) images: Images,
    /// Processor count.
    procs: usize,
    /// The broadcast buses, partitioning `0..procs` in index order
    /// (none on the ideal fabric).
    pub(crate) buses: Vec<SyncBus>,
    /// The bridge joining the buses, iff there is more than one level.
    pub(crate) bridge: Option<Bridge>,
    /// Total entries across every bus queue and tenure and every bridge
    /// stage — 0 iff the whole transport is idle, giving
    /// `finished`/`deadlocked`/the fast-forward horizon an O(1) idle
    /// check.
    pub(crate) inflight: usize,
    /// Next sync-message issue tag (see [`QueuedSync::seq`]).
    pub(crate) seq: u64,
    /// Deferred local-image updates per processor: `(apply_cycle, var,
    /// val)` in FIFO order, so one image always sees writes in the order
    /// they were performed globally, just late.
    pub(crate) defer: Vec<VecDeque<(u64, SyncVar, u64)>>,
    /// Total entries across all `defer` queues; 0 lets
    /// [`Machine::deliver_images`] take the batched domain-fill path.
    defer_len: usize,
    /// Earliest due cycle across all `defer` queues (`u64::MAX` when
    /// every queue is empty), so quiescent processors cost nothing in
    /// [`Machine::apply_deferred_images`].
    pub(crate) due_min: u64,
}

impl SyncState {
    /// Fresh transport state for `p` processors and `n_vars` variables,
    /// with the bus topology `kind` describes. This is the only place
    /// the fabric kind is read.
    pub(crate) fn new(p: usize, n_vars: usize, kind: FabricKind) -> Self {
        let (n_buses, bridge) = match kind {
            FabricKind::Ideal => (0, None),
            FabricKind::Dedicated | FabricKind::Shared => (1, None),
            FabricKind::Clustered { clusters, bridge_latency, coalesce_window } => {
                let bridge = Bridge {
                    latency: u64::from(bridge_latency.max(1)),
                    coalesce_window: u64::from(coalesce_window),
                    window: VecDeque::new(),
                    queue: VecDeque::new(),
                    active: None,
                    pending: vec![false; n_vars], // alloc-ok: setup
                };
                ((clusters as usize).max(1), Some(bridge))
            }
        };
        debug_assert!(p.is_multiple_of(n_buses.max(1)), "validate() guarantees clusters divides P");
        let bus_span = p / n_buses.max(1);
        let bus = |b: usize| SyncBus {
            queue: VecDeque::new(),
            active: None,
            lo: b * bus_span,
            hi: (b + 1) * bus_span,
            shares_data_bus: kind == FabricKind::Shared,
        };
        Self {
            vars: VarLanes { global: vec![0; n_vars], applied_seq: vec![0; n_vars] }, // alloc-ok: setup
            images: Images::new(p, n_vars, n_buses.max(1)),
            procs: p,
            buses: (0..n_buses).map(bus).collect(), // alloc-ok: setup
            bridge,
            inflight: 0,
            seq: 0,
            defer: vec![VecDeque::new(); p], // alloc-ok: setup
            defer_len: 0,
            due_min: u64::MAX,
        }
    }

    /// The bus whose broadcast domain contains processor `p`.
    #[inline]
    fn bus_of(&mut self, p: usize) -> &mut SyncBus {
        &mut self.buses[p / self.images.span()]
    }

    /// Queues `msg` on processor `p`'s bus as it is (no coalescing).
    pub(crate) fn enqueue(&mut self, p: usize, msg: QueuedSync) {
        self.bus_of(p).queue.push_back(msg);
        self.inflight += 1;
    }

    /// Cycles the second level adds to the longest legitimate delivery
    /// path (window flush plus bridge tenure; 0 without a bridge).
    pub(crate) fn bridge_path(&self) -> u64 {
        self.bridge.as_ref().map_or(0, |b| b.coalesce_window + b.latency)
    }

    /// The transport's half of the fast-forward horizon: `None` when a
    /// bus or the bridge acts at cycle `c`, else the earliest future
    /// cycle one will (`u64::MAX` when idle). `inflight` gates the walk,
    /// so a drained transport costs one branch.
    pub(crate) fn horizon(&self, c: u64) -> Option<u64> {
        let mut next = u64::MAX;
        if self.inflight == 0 {
            return Some(next);
        }
        // A tenure ending is an event; an idle channel with a queued
        // entry grants this cycle.
        let mut channel = |end: Option<u64>, queued: bool| match end {
            Some(end) if end <= c => false,
            Some(end) => {
                next = next.min(end);
                true
            }
            None => !queued,
        };
        for bus in &self.buses {
            if !channel(bus.active.map(|(_, end)| end), !bus.queue.is_empty()) {
                return None;
            }
        }
        if let Some(bridge) = &self.bridge {
            let flush = bridge.window.front().map(|&(_, flush)| flush);
            if !channel(flush, false)
                || !channel(bridge.active.map(|(_, end)| end), !bridge.queue.is_empty())
            {
                return None;
            }
        }
        Some(next)
    }

    /// Number of synchronization variables.
    pub(crate) fn n_vars(&self) -> usize {
        self.vars.global.len()
    }

    /// Grows the per-variable lanes (and the image store) to `n` vars.
    pub(crate) fn resize_vars(&mut self, n: usize) {
        self.vars.global.resize(n, 0); // alloc-ok: setup
        self.vars.applied_seq.resize(n, 0); // alloc-ok: setup
        self.images.resize_vars(n);
        if let Some(bridge) = &mut self.bridge {
            bridge.pending.resize(n, false); // alloc-ok: setup
        }
    }

    /// Queues a deferred image update, maintaining the count and the
    /// due-time minimum. All deferral paths must go through here so the
    /// batched-broadcast guard (`defer_len == 0`) stays truthful.
    pub(crate) fn push_defer(&mut self, p: usize, when: u64, var: SyncVar, val: u64) {
        self.defer[p].push_back((when, var, val));
        self.defer_len += 1;
        self.due_min = self.due_min.min(when);
    }

    /// Pops processor `p`'s oldest deferred update, if any (callers
    /// recompute `due_min` when they stop popping).
    pub(crate) fn pop_defer(&mut self, p: usize) -> Option<(u64, SyncVar, u64)> {
        let e = self.defer[p].pop_front();
        if e.is_some() {
            self.defer_len -= 1;
        }
        e
    }
}

impl<'a> Machine<'a> {
    pub(crate) fn next_sync_seq(&mut self) -> u64 {
        self.sync.seq += 1;
        self.sync.seq
    }

    /// Issues a posted write of `val` to `var` from `proc` on the
    /// issuing processor's bus, coalescing into an already-queued post
    /// to the same variable from the same processor on that bus when
    /// enabled (Section 6 optimization). Posted writes never block the
    /// issuing processor. With no bus the write performs instantly.
    pub(crate) fn post(&mut self, proc: usize, var: SyncVar, val: u64) {
        self.metrics.sync_vars[var].posts += 1;
        if self.sync.buses.is_empty() {
            self.apply_instantly(var, val);
            return;
        }
        self.stats.sync_ops_issued += 1;
        let seq = self.next_sync_seq();
        let bus = self.sync.bus_of(proc);
        if self.config.coalesce_sync_writes {
            for pending in bus.queue.iter_mut() {
                if pending.refresh {
                    // Never fold a real post into a refresh: the refresh
                    // re-reads global at delivery and would drop `val`.
                    continue;
                }
                if let SyncReq::Post { proc: p, var: v, val: pv } = &mut pending.req {
                    if *p == proc && *v == var {
                        *pv = val;
                        // The coalesced message now carries the newest
                        // write: retag it so it is not discarded as stale.
                        pending.seq = seq;
                        self.stats.coalesced_writes += 1;
                        return;
                    }
                }
            }
        }
        bus.queue.push_back(QueuedSync::new(SyncReq::Post { proc, var, val }, seq));
        self.sync.inflight += 1;
    }

    /// Issues an atomic fetch-increment on `var` from `proc`. Returns
    /// `true` when it completed instantly (no bus to wait for), `false`
    /// when it was queued and the processor must block on its bus.
    pub(crate) fn enqueue_rmw(&mut self, proc: usize, var: SyncVar) -> bool {
        if self.sync.buses.is_empty() {
            self.stats.rmw_ops += 1;
            self.apply_instantly(var, self.sync.vars.global[var] + 1);
            return true;
        }
        self.stats.sync_ops_issued += 1;
        let seq = self.next_sync_seq();
        self.sync.enqueue(proc, QueuedSync::new(SyncReq::Rmw { proc, var }, seq));
        false
    }

    /// Performs a sync write instantly — globally and in every image —
    /// for the bus-less ideal fabric. Bypasses the faults and the
    /// deferral machinery entirely (the oracle cannot lose or lag an
    /// update), but still counts the delivery so traffic columns stay
    /// comparable across fabrics.
    fn apply_instantly(&mut self, var: SyncVar, val: u64) {
        self.stats.sync_ops_issued += 1;
        self.stats.sync_broadcasts += 1;
        self.sync.vars.global[var] = val;
        let procs = self.sync.procs;
        self.deliver_unfaulted(var, val, 0, procs);
        self.events
            .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
        self.note_progress();
    }

    /// One arbitration pass of the transport: flush the bridge's
    /// coalescing window, grant each idle bus, then grant the bridge.
    /// Buses arbitrate independently — with more than one, this is
    /// where a flat bus's P-wide serialization disappears.
    pub(crate) fn grant_sync(&mut self) {
        if self.sync.inflight == 0 {
            return;
        }
        self.flush_bridge_window();
        for b in 0..self.sync.buses.len() {
            self.grant_bus(b);
        }
        self.grant_bridge();
    }

    /// Grants bus `b` to its next queued broadcast, modelling the
    /// faulty-arbiter reordering and injected grant delays (each bus has
    /// its own arbiter and draws its own faults).
    fn grant_bus(&mut self, b: usize) {
        let bus = &mut self.sync.buses[b];
        // On a bus shared with data traffic, data was granted first this
        // cycle (priority); the bus must be entirely free for a
        // broadcast to start.
        let shared = bus.shares_data_bus;
        if bus.active.is_some() || (shared && self.mem.active.is_some()) {
            return;
        }
        let f = self.config.faults;
        let picked = if f.broadcast_reorder_pct > 0
            && bus.queue.len() >= 2
            && self.rng.chance_pct(f.broadcast_reorder_pct)
        {
            // Faulty arbiter: grant a younger message. The overtaken
            // head is marked faulted with its counterfactual grant
            // cycle, so its recovery latency is measured end-to-end.
            if let Some(head) = bus.queue.front_mut() {
                head.faulted = true;
                head.first_grant.get_or_insert(self.cycle);
            }
            let ix = self.rng.range_usize(1, bus.queue.len() - 1);
            let picked = bus.queue.remove(ix);
            self.stats.faults.reordered_broadcasts += 1;
            self.record_fault(None, FaultClass::BroadcastReorder, 0);
            picked
        } else {
            bus.queue.pop_front()
        };
        let Some(mut entry) = picked else { return };
        // Recovery refreshes occupy the bus but are not counted as
        // broadcasts: they re-deliver an already-performed value, and
        // counting them would break the conservation identity (issued ==
        // broadcasts + coalesced) whenever a legitimate fault-free NACK
        // fires.
        if !entry.refresh {
            self.stats.sync_broadcasts += 1;
        }
        if let SyncReq::Rmw { .. } = entry.req {
            self.stats.rmw_ops += 1;
        }
        entry.first_grant.get_or_insert(self.cycle);
        let mut dur = u64::from(self.config.sync_bus_latency);
        if f.broadcast_delay_pct > 0 && self.rng.chance_pct(f.broadcast_delay_pct) {
            let extra = u64::from(self.rng.range_u32(1, f.broadcast_delay_max));
            dur += extra;
            entry.faulted = true;
            self.stats.faults.delayed_broadcasts += 1;
            self.stats.faults.delay_cycles += extra;
            self.record_fault(None, FaultClass::BroadcastDelay, extra);
        }
        let (var, rmw) = match entry.req {
            SyncReq::Post { var, .. } => (var, false),
            SyncReq::Rmw { var, .. } => (var, true),
        };
        // Summed over parallel buses (can exceed makespan, like
        // bank_busy).
        self.metrics.sync_bus_busy += dur;
        if shared {
            // One physical bus: these cycles are lost to data traffic
            // too.
            self.metrics.data_bus_busy += dur;
        }
        self.events.record(self.cycle, SimEventKind::SyncGrant { var, rmw, dur });
        self.sync.buses[b].active = Some((entry, self.cycle + dur));
        self.note_progress();
    }

    /// Moves window entries whose coalescing window has elapsed to the
    /// bridge queue (in submission order).
    fn flush_bridge_window(&mut self) {
        let Some(bridge) = &mut self.sync.bridge else { return };
        while let Some(&(var, flush)) = bridge.window.front() {
            if flush > self.cycle {
                break;
            }
            bridge.window.pop_front();
            bridge.queue.push_back(var);
        }
    }

    /// Grants the bridge to the next flushed variable. One forward at a
    /// time: the bridge is a single shared channel, but aggregation
    /// (see [`Machine::bridge_submit`]) keeps its queue short.
    fn grant_bridge(&mut self) {
        let Some(bridge) = &mut self.sync.bridge else { return };
        if bridge.active.is_some() {
            return;
        }
        let Some(var) = bridge.queue.pop_front() else { return };
        let dur = bridge.latency;
        bridge.active = Some((var, self.cycle + dur));
        self.stats.bridge_broadcasts += 1;
        self.metrics.bridge_busy += dur;
        self.events.record(self.cycle, SimEventKind::BridgeForward { var, dur });
        self.note_progress();
    }

    /// Completes every broadcast whose tenure ends this cycle: each bus
    /// in index order (deterministic in both stepping modes), then the
    /// bridge — so a forward ending this cycle delivers a global value
    /// that already includes this cycle's bus completions.
    pub(crate) fn complete_sync(&mut self) {
        if self.sync.inflight == 0 {
            return;
        }
        for b in 0..self.sync.buses.len() {
            self.complete_bus(b);
        }
        self.complete_bridge();
    }

    /// Completes bus `b`'s broadcast if its tenure ends this cycle:
    /// re-queues it under an injected drop, discards it as stale if a
    /// newer write already performed, or performs it globally and
    /// delivers it to the bus's own images; every real completion then
    /// submits its variable to the bridge, if there is one.
    fn complete_bus(&mut self, b: usize) {
        let bus = &mut self.sync.buses[b];
        let Some((entry, end)) = bus.active else { return };
        if end != self.cycle {
            return;
        }
        bus.active = None;
        let (lo, hi) = (bus.lo, bus.hi);
        let f = self.config.faults;
        if f.broadcast_drop_pct > 0
            && entry.redeliveries < f.max_redeliveries
            && self.rng.chance_pct(f.broadcast_drop_pct)
        {
            // Lost broadcast: re-queue for (bounded) redelivery.
            bus.queue.push_back(QueuedSync {
                redeliveries: entry.redeliveries + 1,
                faulted: true,
                ..entry
            });
            self.stats.faults.dropped_broadcasts += 1;
            self.record_fault(None, FaultClass::BroadcastDrop, 0);
            return;
        }
        if entry.faulted {
            if let Some(first) = entry.first_grant {
                let fault_free = first + u64::from(self.config.sync_bus_latency);
                let rec = self.cycle.saturating_sub(fault_free);
                self.stats.faults.recovery_cycles += rec;
                self.stats.faults.recovery_max = self.stats.faults.recovery_max.max(rec);
            }
        }
        match entry.req {
            SyncReq::Post { var, .. } if entry.refresh => {
                // A refresh heals this bus's images from the *current*
                // global value (a payload captured at NACK time could
                // have been overtaken by an RMW granted since, and
                // re-applying it would regress the counter). It is not a
                // write: it never advances `applied_seq` — a refresh
                // outrunning an older-seq real post still in flight
                // (queued behind it after a reorder, or on another,
                // busier bus) would otherwise get that post discarded as
                // stale, losing the write for good — it cannot itself be
                // stale, and it never submits to the bridge.
                let val = self.sync.vars.global[var];
                self.events
                    .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
                self.deliver_images(var, val, lo, hi);
            }
            SyncReq::Post { var, val, .. } => {
                let stale = entry.seq <= self.sync.vars.applied_seq[var];
                self.events.record(self.cycle, SimEventKind::SyncDeliver { var, val, stale });
                if !stale {
                    self.sync.vars.applied_seq[var] = entry.seq;
                    self.sync.vars.global[var] = val;
                    self.deliver_images(var, val, lo, hi);
                } else if entry.faulted || self.sync.buses.len() == 1 {
                    // A newer write to this variable performed first:
                    // this late delivery must be discarded, not applied
                    // (sync variables are monotonic counters; regressing
                    // one would wedge every waiter past the lost value).
                    // A single bus serializes every broadcast, so there
                    // the discard always counts as a fault; across
                    // several buses an older post completing after a
                    // newer one on another bus is routine overtaking and
                    // counts only when a fault touched the message.
                    self.stats.faults.stale_deliveries_discarded += 1;
                }
                // Delivered or stale, every real completion submits to
                // the bridge: this keeps the two-level conservation
                // identity exact on fault-free runs (sync_broadcasts ==
                // bridge_broadcasts + bridge_coalesced).
                self.bridge_submit(var);
            }
            SyncReq::Rmw { proc, var } => {
                self.sync.vars.applied_seq[var] = self.sync.vars.applied_seq[var].max(entry.seq);
                let v = self.sync.vars.global[var] + 1;
                self.events
                    .record(self.cycle, SimEventKind::SyncDeliver { var, val: v, stale: false });
                self.sync.vars.global[var] = v;
                self.deliver_images(var, v, lo, hi);
                self.unblock(proc);
                self.bridge_submit(var);
            }
        }
        self.sync.inflight -= 1;
        self.note_progress();
    }

    /// Completes the bridge forward if its tenure ends this cycle.
    fn complete_bridge(&mut self) {
        let Some(bridge) = &mut self.sync.bridge else { return };
        let Some((var, end)) = bridge.active else { return };
        if end != self.cycle {
            return;
        }
        bridge.active = None;
        bridge.pending[var] = false;
        self.sync.inflight -= 1;
        // The forward carries no payload: it re-reads the current
        // global value, so every update folded into it since it was
        // submitted is delivered too (monotone counters make the
        // newer value satisfy every waiter of the older ones).
        let val = self.sync.vars.global[var];
        self.events
            .record(self.cycle, SimEventKind::SyncDeliver { var, val, stale: false });
        let procs = self.sync.procs;
        self.deliver_images(var, val, 0, procs);
        self.note_progress();
    }

    /// Submits a variable to the bridge (if the topology has one) after
    /// a bus completion. If a forward of the same variable is already
    /// pending anywhere in the bridge pipeline, the submission folds
    /// into it — the barrier/SC/PC aggregation that collapses P
    /// partial-count updates into one global broadcast.
    fn bridge_submit(&mut self, var: SyncVar) {
        let Some(bridge) = &mut self.sync.bridge else { return };
        if bridge.pending[var] {
            self.stats.bridge_coalesced += 1;
            return;
        }
        bridge.pending[var] = true;
        bridge.window.push_back((var, self.cycle + bridge.coalesce_window));
        self.sync.inflight += 1;
    }

    /// Performs a sync write that went through memory (the
    /// shared-memory transport): globally, and to every local image.
    pub(crate) fn write_sync(&mut self, var: SyncVar, val: u64) {
        self.sync.vars.global[var] = val;
        let procs = self.sync.procs;
        self.deliver_images(var, val, 0, procs);
    }

    /// Delivers `val` to the local images of processors `lo..hi` (one
    /// bus's broadcast domain, or `0..procs` for a bridge forward),
    /// subject to the per-image loss and staleness faults.
    ///
    /// With no image faults armed and no deferred update pending
    /// anywhere, every image takes the value unconditionally: the
    /// delivery is one word per domain in `lo..hi`, and the fault stream
    /// is untouched (the faulted path draws zero RNG under the same
    /// conditions, so the two are bit-identical).
    pub(crate) fn deliver_images(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        let f = self.config.faults;
        if f.broadcast_loss_pct == 0 && f.stale_image_pct == 0 && self.sync.defer_len == 0 {
            self.deliver_unfaulted(var, val, lo, hi);
            return;
        }
        self.deliver_images_faulted(var, val, lo, hi);
    }

    /// The batched delivery: one word per domain of `lo..hi`, then a
    /// wake of exactly the local spinners there the value satisfies —
    /// O(1) while it is below every waiter's bound (a barrier count
    /// still climbing), a walk of the variable's waiters otherwise.
    fn deliver_unfaulted(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        self.sync.images.fill(var, val, lo, hi);
        self.kernel.waiter_walks += u64::from(self.procs.wake_waiters(var, val, lo, hi));
    }

    /// The per-processor delivery walk for runs with image faults armed
    /// or deferred updates in flight: any processor may end up differing
    /// from its neighbours, so each domain's row is materialised once up
    /// front and written by index. Not `#[cold]`: chaos sweeps live here.
    fn deliver_images_faulted(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        let f = self.config.faults;
        let span = self.sync.images.span();
        for domain in (lo..hi).step_by(span) {
            let row = self.sync.images.diverge(var, domain);
            for p in domain..domain + span {
                if f.broadcast_loss_pct > 0 && self.rng.chance_pct(f.broadcast_loss_pct) {
                    // The write performed globally but this processor's
                    // image tap missed it *permanently* — the one
                    // unbounded fault. Only the recovery ladder (NACK
                    // refresh or watchdog repair) can re-deliver the value
                    // to this image.
                    self.stats.faults.lost_image_updates += 1;
                    self.record_fault(Some(p), FaultClass::BroadcastLoss, 0);
                    continue;
                }
                let pending = self.sync.defer[p].back().map(|&(when, _, _)| when);
                if f.stale_image_pct > 0 && self.rng.chance_pct(f.stale_image_pct) {
                    // This image lags the global write by a bounded window.
                    let window = u64::from(self.rng.range_u32(1, f.stale_window_max));
                    let when = (self.cycle + window).max(pending.unwrap_or(0));
                    self.stats.faults.stale_image_updates += 1;
                    self.record_fault(Some(p), FaultClass::StaleImage, window);
                    self.sync.push_defer(p, when, var, val);
                } else if let Some(pending) = pending {
                    // A fresh update must not overtake an older deferred
                    // one: queue behind it so each image sees writes in
                    // global order, merely late.
                    self.sync.push_defer(p, pending, var, val);
                } else {
                    self.sync.images.put(row + (p - domain), val);
                    self.procs.wake_if_satisfied(p, var, val);
                }
            }
        }
    }

    /// Applies deferred (stale-window) local-image updates that are due.
    /// `due_min` makes this O(1) whenever nothing is due (due times are
    /// non-decreasing within each queue, so fronts are the minima).
    pub(crate) fn apply_deferred_images(&mut self) {
        if self.sync.due_min > self.cycle {
            return;
        }
        let mut next_due = u64::MAX;
        for p in 0..self.sync.defer.len() {
            while let Some(&(when, var, val)) = self.sync.defer[p].front() {
                if when > self.cycle {
                    break;
                }
                self.sync.pop_defer(p);
                self.sync.images.set(p, var, val);
                self.procs.wake_if_satisfied(p, var, val);
                self.note_progress();
            }
            if let Some(&(when, _, _)) = self.sync.defer[p].front() {
                next_due = next_due.min(when);
            }
        }
        self.sync.due_min = next_due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::{StepMode, Workload};
    use crate::program::{Instr, Pred, Program};

    /// Entries actually held anywhere in the transport — what
    /// `inflight` claims to count.
    fn entries(s: &SyncState) -> usize {
        let held = |active: bool| usize::from(active);
        let buses: usize = s.buses.iter().map(|b| b.queue.len() + held(b.active.is_some())).sum();
        let bridge = s
            .bridge
            .as_ref()
            .map_or(0, |b| b.window.len() + b.queue.len() + held(b.active.is_some()));
        buses + bridge
    }

    #[test]
    fn every_kind_builds_its_topology_and_drains() {
        const P: usize = 8;
        // (kind, buses, bridge, shares the data bus)
        let table = [
            (FabricKind::Ideal, 0, false, false),
            (FabricKind::Dedicated, 1, false, false),
            (FabricKind::Shared, 1, false, true),
            (FabricKind::clustered(4), 4, true, false),
        ];
        // Every processor bumps a counter, posts a flag and waits for
        // all the bumps, so each bus (and the bridge) carries traffic.
        let progs = (0..P)
            .map(|_| {
                Program::from_instrs(vec![
                    Instr::SyncRmw { var: 0 },
                    Instr::SyncSet { var: 1, val: 1 },
                    Instr::SyncWait { var: 0, pred: Pred::Geq(P as u64) },
                ])
            })
            .collect();
        let w = Workload::static_cyclic(progs, P);
        for (kind, n_buses, bridge, shared) in table {
            let config = MachineConfig::with_processors(P).fabric(kind);
            let mut m = Machine::new(&config, &w);
            let s = &m.sync;
            assert_eq!(s.buses.len(), n_buses, "{kind}");
            assert_eq!(s.bridge.is_some(), bridge, "{kind}: bridge iff clustered");
            assert_eq!(s.bridge_path() > 0, bridge, "{kind}");
            // The buses partition 0..P in index order.
            let mut next = 0;
            for bus in &s.buses {
                assert_eq!(bus.lo, next, "{kind}");
                assert!(bus.hi > bus.lo, "{kind}");
                assert_eq!(bus.shares_data_bus, shared, "{kind}");
                next = bus.hi;
            }
            assert_eq!(next, if n_buses == 0 { 0 } else { P }, "{kind}");
            assert_eq!(s.horizon(0), Some(u64::MAX), "{kind}: a fresh transport is idle");

            // Step every cycle, checking the counter against the truth.
            m.set_mode(StepMode::Reference);
            let mut peak = 0;
            while !m.finished() {
                assert!(m.cycle < 10_000, "{kind}: the run must finish");
                m.step();
                assert_eq!(m.sync.inflight, entries(&m.sync), "{kind} @ {}", m.cycle);
                peak = peak.max(m.sync.inflight);
            }
            assert_eq!(peak > 0, n_buses > 0, "{kind}: traffic queues iff there is a bus");
            assert_eq!(m.sync.inflight, 0, "{kind}: the transport must drain");
            assert_eq!(m.sync.vars.global, vec![P as u64, 1], "{kind}");
        }
    }

    #[test]
    fn growing_the_variable_space_grows_the_bridge_lane() {
        let mut s = SyncState::new(8, 2, FabricKind::clustered(4));
        s.resize_vars(5);
        assert_eq!(s.bridge.as_ref().unwrap().pending.len(), 5);
    }

    #[test]
    fn sync_state_starts_quiescent() {
        let s = SyncState::new(3, 2, FabricKind::Dedicated);
        assert_eq!(s.vars.global, vec![0, 0]);
        assert_eq!(s.n_vars(), 2);
        for p in 0..3 {
            for var in 0..2 {
                assert_eq!(s.images.get(p, var), 0);
            }
        }
        assert!(s.buses[0].queue.is_empty() && s.buses[0].active.is_none());
        assert_eq!(s.inflight, 0);
        assert_eq!(s.due_min, u64::MAX);
        assert_eq!(s.vars.applied_seq, vec![0, 0]);
    }
}
