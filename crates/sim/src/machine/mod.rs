//! The cycle-driven machine model, decomposed into layered subsystems.
//!
//! A [`Machine`] simulates `P` processors sharing a **data bus** (to the
//! memory modules) and, optionally, a **dedicated synchronization bus**
//! with a local image of every synchronization variable in each processor
//! (Section 6 of the paper). The model is deliberately simple — a single
//! arbitrated transaction at a time per bus — because that is exactly the
//! regime in which the paper's claims about traffic, hot-spots and
//! busy-waiting live.
//!
//! The machine is a thin conductor over four subsystems, each in its own
//! module and separately testable:
//!
//! * [`fabric`] — the **synchronization fabric**: global sync values,
//!   per-processor local images, and the topology of broadcast buses
//!   (none / one / one shared with data / N plus a bridge) that
//!   carries them;
//! * `memory` — the **memory system**: data-bus arbitration, interleaved
//!   banks and the globally-performed effects of data-path requests;
//! * `dispatch` — the **dispatcher**: self-scheduling or static
//!   iteration hand-out;
//! * `recovery_engine` — the **recovery engine**: the self-healing
//!   ladder (gap NACKs, refresh retransmission, watchdog repair) and the
//!   per-processor wait-episode bookkeeping it hangs off;
//! * `exec` — the per-processor execution step that drives all of the
//!   above through one instruction at a time;
//! * `images` — every processor's local image of every sync variable,
//!   stored as one word per (variable, bus domain) plus rows for the
//!   domains a fault has made diverge;
//! * `lanes` — per-processor state in struct-of-arrays lanes, with the
//!   lazy cycle accounting and population counters its writes maintain;
//! * `schedule` — the **event schedule**: a calendar (bucket) queue over
//!   per-processor wake deadlines, which tells the kernel both *when* the
//!   next event is and *which* processors are due at a stepped cycle,
//!   plus the wake set and the per-variable waiter index that turn lane
//!   writes and image deliveries into targeted wakes.
//!
//! Data layout is struct-of-arrays: per-processor state lives in
//! [`ProcLanes`] (one lane per field, not a `Vec` of processor structs)
//! and per-variable sync state in [`fabric::VarLanes`], so the hot loops
//! walk contiguous memory; local images are stored per bus domain
//! (`images`), so a broadcast delivery to P consumers is one word.
//!
//! Determinism: processors are stepped in id order and bus queues are
//! FIFO, so a run is a pure function of the configuration and workload.
//! Fault injection ([`crate::faults::FaultPlan`]) preserves this: every
//! fault decision comes from a splitmix64 stream seeded by the plan, so
//! a faulted run is reproducible byte-for-byte from its configuration.
//!
//! Stepping: there is **one transition function**
//! ([`Machine::step_proc`]) and two visit policies. A processor that has
//! nothing to do this cycle is *quiet*, and visiting a quiet processor
//! is a no-op — cycle accounting is lazy (see [`ProcLanes`]): nothing
//! ticks per cycle, the elapsed span is charged to a processor's
//! current bucket only when a lane write changes that bucket.
//! [`StepMode::Reference`], the executable specification, visits all P
//! processors every cycle. The default **wake-driven fast-forward
//! kernel** ([`StepMode::FastForward`]) skips what the reference mode
//! proves unobservable: it jumps over cycles in which nothing acts, and
//! at a stepped cycle visits only the processors that are *due* — so a
//! busy-waiting processor costs the host nothing, as §6's local images
//! cost the bus nothing. Every RNG draw and trace write happens at a
//! visit of a non-quiet processor or in the channel phases, in the same
//! order in both modes, so they produce **bit-for-bit identical**
//! [`RunStats`], [`Trace`], `sync_final` and metrics (enforced by the
//! equivalence tests) under every fabric.
//!
//! The wake contract. Each processor has a wake deadline in the
//! [`schedule::Calendar`]; it is a **lower bound** on the processor's
//! next action (an early visit is a no-op, a late one is a bug). The
//! visit set of a stepped cycle is *calendar-due ∪ touched*: processors
//! whose deadline has come, plus those whose lanes were written in this
//! cycle's complete/grant phase. They are visited in ascending id (RNG
//! draws, trace order and queue order depend on it). A processor made
//! runnable while the loop runs is picked up in the same cycle if its id
//! is still ahead, and scheduled for `cycle + 1` if its slot has passed
//! — exactly when the all-P walk would have reached it. Every wake
//! source is explicit: lane writes mark their own processor, an image
//! delivery wakes the local spinners it can satisfy through the waiter
//! index, a program completion wakes idle processors only when rescued
//! work may have become claimable. The next event time is the minimum
//! of the O(banks) [`Machine::channel_horizon`] and the calendar's
//! earliest deadline. Debug builds assert at every stepped cycle that
//! each unvisited processor is quiet and cross-check every jump against
//! the retained linear-scan oracle ([`Machine::scan_horizon`]).
//!
//! Liveness under faults: on top of the precise [`Machine::deadlocked`]
//! check, a **progress watchdog** tracks the last cycle on which the
//! machine did anything observable (retired an instruction, performed a
//! transaction, applied an image update, dispatched). If no progress is
//! made for a bound derived from the configured latencies and fault
//! magnitudes, the run fails with [`SimError::Deadlock`] describing the
//! livelock — so even runs the precise checker cannot classify (e.g.
//! processors spinning on images that faults keep stale) terminate
//! detectably rather than burning cycles until `max_cycles`.

mod cache;
mod dispatch;
mod exec;
pub mod fabric;
mod images;
mod lanes;
mod memory;
mod recovery_engine;
mod schedule;
mod workload;

pub use workload::{DispatchMode, Workload};

use crate::config::{MachineConfig, MemoryModel};
use crate::events::{EventRing, SimEventKind};
use crate::faults::FaultClass;
use crate::metrics::RunMetrics;
use crate::program::SyncVar;
use crate::rng::SplitMix64;
use crate::stats::{ProcBreakdown, RunStats};
use crate::trace::Trace;
use cache::CacheSystem;
use dispatch::Dispatcher;
use fabric::SyncState;
use lanes::ProcLanes;
pub(crate) use lanes::{ProcState, SpinPhase};
use memory::{DataReqKind, MemorySystem};
use recovery_engine::RecoveryEngine;
use schedule::Calendar;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No processor can ever make progress again.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Processors stuck spinning.
        spinning: Vec<usize>,
        /// Human-readable description of each stuck processor.
        detail: Vec<String>,
    },
    /// `max_cycles` exceeded.
    Timeout {
        /// The configured cap.
        max_cycles: u64,
    },
    /// Invalid configuration.
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, spinning, detail } => {
                write!(
                    f,
                    "deadlock at cycle {cycle}: processors {spinning:?} spin forever ({})",
                    detail.join("; ")
                )
            }
            SimError::Timeout { max_cycles } => write!(f, "exceeded {max_cycles} cycles"),
            SimError::BadConfig(msg) => write!(f, "invalid machine config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The note trace.
    pub trace: Trace,
    /// Final values of all synchronization variables.
    pub sync_final: Vec<u64>,
    /// Derived metrics (always collected; see [`RunMetrics`]).
    pub metrics: RunMetrics,
    /// Structured events — empty unless recording was turned on with
    /// [`Machine::enable_events`].
    pub events: EventRing,
    /// Host-side work the simulator kernel did to produce the run.
    pub kernel: KernelCounters,
}

/// Deterministic work counters of the simulator kernel: what the host
/// did, not what the simulated machine did. They are outside `stats`
/// and `metrics` because they are allowed to depend on the step mode —
/// but only in the first three: [`StepMode::Reference`] steps every
/// cycle and visits every processor, and everything else (calendar,
/// waiter index, accounting) runs identically in both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Cycles stepped for real (channel phases + processor visits).
    pub stepped_cycles: u64,
    /// Fast-forward jumps over a quiet span.
    pub quiet_jumps: u64,
    /// Calls of the per-processor transition function.
    pub procs_visited: u64,
    /// Processors the wake calendar put into a stepped cycle's visit
    /// set because their deadline had come.
    pub calendar_drains: u64,
    /// Image deliveries that walked a variable's waiter list (the rest
    /// were rejected in O(1) by the cached minimum threshold).
    pub waiter_walks: u64,
    /// Spans charged to a [`ProcBreakdown`] bucket by lazy accounting.
    pub accounting_flushes: u64,
    /// Local-image words written by deliveries and presets: one per bus
    /// domain a broadcast reaches, plus one per processor on the faulted
    /// per-image paths (and the row those paths materialise).
    pub image_words: u64,
}

impl KernelCounters {
    /// The P-independence gate's ceiling on [`Self::visits_per_op`].
    pub const VISITS_PER_OP_MAX: f64 = 8.0;
    /// How far [`Self::visits_per_op`] may grow from a small machine to
    /// a large one before the gate calls the event cost P-dependent.
    pub const VISITS_GROWTH_MAX: f64 = 2.0;

    /// The P-independence gate on one workload: `visits_per_op` on a
    /// large machine is within [`Self::VISITS_GROWTH_MAX`] of the small
    /// machine's and under [`Self::VISITS_PER_OP_MAX`]. `datasync perf
    /// --check` and the sim crate's scaling test share it.
    pub fn p_independent(small: f64, large: f64) -> bool {
        large <= Self::VISITS_PER_OP_MAX && large <= Self::VISITS_GROWTH_MAX * small
    }

    /// Processor visits per simulator operation (dispatches + sync
    /// operations issued + data transactions) — the host-independent
    /// measure of per-event kernel cost. P-independent when the kernel
    /// only visits processors that act.
    pub fn visits_per_op(&self, stats: &RunStats) -> f64 {
        let ops = stats.dispatched + stats.sync_ops_issued + stats.data_transactions;
        self.procs_visited as f64 / ops.max(1) as f64
    }

    /// Image words written per broadcast (bus broadcasts plus bridge
    /// forwards): exactly 1 on a fault-free flat bus whatever P is, and
    /// at most `clusters` per bridge forward, because images are stored
    /// per bus domain. Not meaningful under the shared-memory transport,
    /// whose sync writes are data transactions, not broadcasts.
    pub fn words_per_broadcast(&self, stats: &RunStats) -> f64 {
        let broadcasts = stats.sync_broadcasts + stats.bridge_broadcasts;
        self.image_words as f64 / broadcasts.max(1) as f64
    }
}

/// Runs a workload to completion on a machine.
///
/// # Errors
///
/// Returns [`SimError::BadConfig`] for invalid configurations,
/// [`SimError::Deadlock`] when synchronization can never be satisfied and
/// [`SimError::Timeout`] past `max_cycles`.
pub fn run(config: &MachineConfig, workload: &Workload) -> Result<RunOutcome, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    Machine::new(config, workload).run_to_completion()
}

/// Runs a workload with the per-cycle reference stepper (the executable
/// specification the fast-forward kernel must match bit for bit).
///
/// # Errors
///
/// See [`run`].
pub fn run_reference(config: &MachineConfig, workload: &Workload) -> Result<RunOutcome, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    let mut m = Machine::new(config, workload);
    m.set_mode(StepMode::Reference);
    m.run_to_completion()
}

/// How the run loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Wake-driven: jump over cycles in which nothing acts, and at a
    /// stepped cycle visit only the processors that are due.
    /// Bit-identical to [`StepMode::Reference`].
    #[default]
    FastForward,
    /// Every cycle stepped, every processor visited — the executable
    /// specification. Kept for the equivalence tests and as the trusted
    /// baseline for `datasync perf`.
    Reference,
}

/// The machine state (see [`run`] for the one-shot entry point).
///
/// Borrows its configuration and workload: sweeps running thousands of
/// configurations share one `Workload` without re-allocating every
/// `Program` vector per run.
#[derive(Debug)]
pub struct Machine<'a> {
    pub(crate) config: &'a MachineConfig,
    pub(crate) workload: &'a Workload,
    mode: StepMode,
    pub(crate) cycle: u64,
    /// Per-processor state, one lane per field (see [`ProcLanes`]).
    pub(crate) procs: ProcLanes,
    /// Synchronization-transport state (global values, images, and the
    /// bus topology `config.sync_fabric` describes).
    pub(crate) sync: SyncState,
    /// Data-bus arbitration state and the memory banks behind it.
    pub(crate) mem: MemorySystem,
    /// Private per-processor caches in front of the bus (inert under
    /// [`crate::config::CacheModel::None`]).
    pub(crate) cache: CacheSystem,
    /// Iteration dispatch state.
    pub(crate) disp: Dispatcher,
    /// Self-healing ladder state and wait-episode bookkeeping.
    pub(crate) rec: RecoveryEngine,
    /// Calendar queue over per-processor wake deadlines: the next
    /// event time for a jump, the due processors for a stepped cycle.
    /// Maintained identically in both step modes (the reference stepper
    /// just does not act on it).
    sched: Calendar,
    pub(crate) stats: RunStats,
    pub(crate) trace: Trace,
    /// Fault-decision stream (seeded by `config.faults.seed`; untouched
    /// on fault-free runs, so they remain bit-identical to a machine
    /// without fault support).
    pub(crate) rng: SplitMix64,
    /// Last cycle on which the machine observably progressed.
    last_progress: u64,
    /// Progress-watchdog bound (cycles of silence tolerated).
    watchdog_limit: u64,
    /// Always-on derived metrics (cheap counters, no allocation per
    /// event). Updated only at stepped cycles — part of the equivalence
    /// contract.
    pub(crate) metrics: RunMetrics,
    /// Structured event ring; disabled (capacity 0) unless
    /// [`Machine::enable_events`] was called.
    pub(crate) events: EventRing,
    /// Host-side work counters (see [`KernelCounters`]).
    pub(crate) kernel: KernelCounters,
}

impl<'a> Machine<'a> {
    /// Builds a machine with all processors idle.
    pub fn new(config: &'a MachineConfig, workload: &'a Workload) -> Self {
        let p = config.processors;
        let n_vars = workload.n_sync_vars();
        let n_banks = match config.memory_model {
            MemoryModel::BusHeld => 0,
            MemoryModel::Banked { banks } => banks,
        };
        let f = config.faults;
        let mut rng = SplitMix64::new(f.seed);
        let next_stall: Vec<u64> = (0..p)
            .map(|_| {
                if f.stall_mean_interval > 0 {
                    1 + rng.below(2 * u64::from(f.stall_mean_interval))
                } else {
                    u64::MAX
                }
            })
            .collect();
        // Fail-stop victims and kill cycles, drawn only when the class
        // is armed (plans without it leave the fault stream untouched).
        // The victim count is clamped to P - 1 so at least one processor
        // always survives to run the rescued work.
        let mut fail_at = vec![u64::MAX; p];
        if f.fail_stop_procs > 0 && p > 1 {
            let victims = (f.fail_stop_procs as usize).min(p - 1);
            let window = u64::from(f.fail_stop_window.max(1));
            let mut chosen = 0;
            while chosen < victims {
                let v = rng.below(p as u64) as usize;
                if fail_at[v] == u64::MAX {
                    fail_at[v] = 1 + rng.below(window);
                    chosen += 1;
                }
            }
        }
        // Longest legitimate silent stretch: a held (possibly delayed /
        // jittered) transaction, a spin backoff, a stall or a stale
        // window. Generously padded — tripping it means livelock. The
        // P-scaled term covers queue-drain at scale: with P processors
        // contending, a single waiter can legitimately sit behind P
        // whole bus transactions, so the silence bound must grow with
        // the machine, not stay flat.
        // Two-level delivery stretches legitimate silences and delivery
        // paths by the coalescing window plus the bridge tenure (and a
        // cross-cluster waiter can sit behind a bridge queue that grows
        // with the cluster count).
        let sync = SyncState::new(p, n_vars, config.sync_fabric);
        let bridge_path = sync.bridge_path();
        let n_buses = sync.buses.len().max(1) as u64;
        let watchdog_limit = 256
            + 8 * (u64::from(
                config.spin_retry
                    + config.dispatch_latency
                    + config.data_bus_latency
                    + config.memory_latency
                    + config.sync_bus_latency
                    + f.broadcast_delay_max
                    + f.data_jitter_max
                    + f.stall_max
                    + f.stale_window_max,
            ) + bridge_path)
            + 2 * (p as u64)
                * u64::from(
                    config.sync_bus_latency + config.data_bus_latency + config.memory_latency,
                );
        // A waiter suspects a gap only after the longest legitimate
        // delivery path (bus grant + injected delay + stale window, plus
        // the window-flush + bridge hop and its queueing when clustered)
        // has comfortably elapsed; by construction this is well under
        // the watchdog limit, so all NACK tries fit before escalation.
        let nack_delay = 32
            + 4 * (u64::from(config.sync_bus_latency + f.broadcast_delay_max + f.stale_window_max)
                + bridge_path)
            + 2 * (n_buses - 1);
        Self {
            procs: ProcLanes::new(p, next_stall, fail_at),
            cycle: 0,
            sync,
            mem: MemorySystem::new(n_banks),
            cache: CacheSystem::new(&config.cache, p, config.memory_latency),
            disp: Dispatcher::new(workload, p),
            rec: RecoveryEngine::new(p, nack_delay, config.recovery.repairs()),
            sched: Calendar::new(p),
            stats: RunStats { procs: vec![ProcBreakdown::default(); p], ..Default::default() },
            trace: Trace::new(),
            metrics: RunMetrics::new(p, n_vars),
            events: EventRing::disabled(),
            kernel: KernelCounters::default(),
            rng,
            last_progress: 0,
            watchdog_limit,
            mode: StepMode::FastForward,
            config,
            workload,
        }
    }

    /// Selects the stepping strategy (fast-forward by default).
    pub fn set_mode(&mut self, mode: StepMode) {
        self.mode = mode;
    }

    /// Turns on structured event recording, keeping the most recent
    /// `capacity` events (0 leaves it disabled). Recording changes
    /// nothing observable: stats, trace, metrics and final sync values
    /// are bit-identical with it on or off.
    ///
    /// # Panics
    ///
    /// Panics if the machine already ran.
    pub fn enable_events(&mut self, capacity: usize) {
        assert_eq!(self.cycle, 0, "enable_events must be called before running");
        self.events = EventRing::with_capacity(capacity);
    }

    /// The progress watchdog's silence bound (cycles without observable
    /// progress tolerated before the run fails as a livelock).
    pub fn watchdog_limit(&self) -> u64 {
        self.watchdog_limit
    }

    /// Marks the current cycle as having made observable progress.
    pub(crate) fn note_progress(&mut self) {
        self.last_progress = self.cycle;
    }

    /// Overrides the initial value of a synchronization variable
    /// (before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or the machine already ran.
    pub fn preset_sync(&mut self, var: SyncVar, val: u64) {
        assert_eq!(self.cycle, 0, "preset_sync must be called before running");
        if var >= self.sync.n_vars() {
            self.sync.resize_vars(var + 1);
            self.metrics.sync_vars.resize(var + 1, Default::default());
        }
        self.sync.vars.global[var] = val;
        self.sync.images.fill(var, val, 0, self.config.processors);
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`run`].
    pub fn run_to_completion(mut self) -> Result<RunOutcome, SimError> {
        self.events
            .record(self.cycle, SimEventKind::WatchdogArm { limit: self.watchdog_limit });
        loop {
            if self.finished() {
                let mut stats = std::mem::take(&mut self.stats);
                stats.makespan = self.cycle;
                self.procs.flush_all(self.cycle);
                stats.procs.copy_from_slice(&self.procs.stats);
                self.kernel.accounting_flushes = self.procs.flushes;
                self.kernel.image_words = self.sync.images.words_written;
                return Ok(RunOutcome {
                    stats,
                    trace: std::mem::take(&mut self.trace),
                    sync_final: std::mem::take(&mut self.sync.vars.global),
                    metrics: std::mem::take(&mut self.metrics),
                    events: std::mem::take(&mut self.events),
                    kernel: self.kernel,
                });
            }
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Timeout { max_cycles: self.config.max_cycles });
            }
            if let Some(dead) = self.deadlocked() {
                // Before declaring the wedge fatal, try the rescue rung:
                // unretired work stranded on fail-stopped processors (or
                // already sitting in the rescue pool) can be reclaimed
                // and reissued to the survivor quorum. This hangs off the
                // precise detector, not just watchdog silence, because
                // memory-polling survivors keep the bus busy — their
                // polls count as progress — so a dead producer under the
                // shared-memory transport never trips the watchdog.
                if self.rec.on && self.watchdog_rescue() {
                    self.rearm_all_wakes();
                    continue;
                }
                if self.rec.on && self.rescue_settling() {
                    // Rescued work is pending but every would-be swap
                    // victim still has a busy-wait poll queued or in
                    // flight (unsafe to preempt: the late completion
                    // would clobber its new state). Step until the polls
                    // settle into backoff — bounded by the bus service
                    // latency — then the rescue is retried.
                    match self.mode {
                        StepMode::Reference => self.step(),
                        StepMode::FastForward => self.fast_step(),
                    }
                    continue;
                }
                let mut detail = self.stuck_detail(&dead);
                if self.rec.on {
                    // Unhealable by construction (deadlocked() treats
                    // globally-satisfied spins as healable): attach the
                    // wait-for proof so the caller can justify degrading.
                    detail.extend(self.wait_diagnosis().iter().map(ToString::to_string));
                }
                return Err(SimError::Deadlock { cycle: self.cycle, spinning: dead, detail });
            }
            if self.cycle.saturating_sub(self.last_progress) > self.watchdog_limit {
                // The escalation point: with recovery armed, try the
                // repair rung first — force-sync healable images from the
                // global state and keep running instead of failing.
                if self.rec.on && self.watchdog_repair() {
                    self.rearm_all_wakes();
                    continue;
                }
                // Repair can't help (no gapped-but-satisfied image). If
                // the diagnosis says the producer is *dead* rather than
                // the value lost in flight, take the rescue rung:
                // reclaim the fail-stopped processors' unretired work
                // and reissue it to the survivor quorum.
                if self.rec.on && self.watchdog_rescue() {
                    self.rearm_all_wakes();
                    continue;
                }
                // Livelock: cycles are being burned (spins, redeliveries,
                // stalls) but nothing observable has happened for longer
                // than any legitimate quiet period. Upgrade to a detected
                // deadlock instead of burning until max_cycles.
                self.events.record(
                    self.cycle,
                    SimEventKind::WatchdogFire { silent_for: self.cycle - self.last_progress },
                );
                let spinning: Vec<usize> = (0..self.procs.len())
                    .filter(|&i| {
                        matches!(
                            self.procs.state(i),
                            ProcState::SpinLocal { .. } | ProcState::SpinMem { .. }
                        )
                    })
                    .collect();
                let mut detail = vec![format!(
                    "livelock: no forward progress for {} cycles (watchdog limit)",
                    self.cycle - self.last_progress
                )];
                if self.rec.on {
                    detail.extend(self.wait_diagnosis().iter().map(ToString::to_string));
                }
                detail.extend(self.stuck_detail(&spinning));
                return Err(SimError::Deadlock { cycle: self.cycle, spinning, detail });
            }
            match self.mode {
                StepMode::Reference => self.step(),
                StepMode::FastForward => self.fast_step(),
            }
        }
    }

    /// Human-readable description of each stuck processor.
    fn stuck_detail(&self, stuck: &[usize]) -> Vec<String> {
        stuck
            .iter()
            .map(|&i| {
                let at = if self.procs.is_dead(i) {
                    "fail-stopped (unretired work stranded)".to_string()
                } else {
                    match self.procs.state(i) {
                        ProcState::SpinLocal { var, pred } => {
                            format!(
                                "waiting {var} {pred} (image {}, global {})",
                                self.sync.images.get(i, var),
                                self.sync.vars.global[var]
                            )
                        }
                        ProcState::SpinMem { retry, .. } => format!("retrying {retry:?}"),
                        _ => "?".to_string(),
                    }
                };
                format!(
                    "proc {i}: program {:?} ip {} {at}",
                    self.procs.current(i),
                    self.procs.ip[i]
                )
            })
            .collect()
    }

    fn finished(&self) -> bool {
        // `engaged == 0` is the cached form of "every processor is Idle
        // with no program" — O(1) instead of an O(P) scan per loop turn.
        self.procs.engaged == 0
            && self.mem.active.is_none()
            && self.mem.queue.is_empty()
            && self.sync.inflight == 0
            && self.cache.pending_count == 0
            && !self.mem.banks_pending()
            && !self.disp.dynamic_left(self.workload)
            && self.disp.all_drained()
    }

    /// If the machine can provably never progress, the spinning culprits.
    fn deadlocked(&self) -> Option<Vec<usize>> {
        // O(1) early-outs first, so the O(P + banks) scans below only run
        // at genuinely quiet points: a held transaction, a queued
        // broadcast or a deferred image update still in flight is pending
        // activity, not deadlock. The exception is a *futile* spin
        // re-issue — a poll or keyed attempt whose condition fails even
        // on the authoritative global state. Memory-transport waiters
        // whose producer fail-stopped re-poll forever, keeping the bus
        // busy; treating those as activity would hide the wedge until
        // the cycle cap. A satisfiable poll still suppresses the verdict
        // via the per-processor scan below.
        let futile_spin = |kind: DataReqKind| match kind {
            DataReqKind::Poll { var, pred } => !pred.eval(self.sync.vars.global[var]),
            DataReqKind::KeyedAttempt { var, geq } => self.sync.vars.global[var] < geq,
            _ => false,
        };
        if self.sync.inflight > 0 || self.sync.due_min != u64::MAX {
            return None;
        }
        // A live Ready/Computing/Blocked processor rules the verdict out
        // before any per-processor walk — the cached counter keeps the
        // no-fault fast path O(1) here.
        if self.procs.active > 0 {
            return None;
        }
        if self.mem.active.is_some_and(|(req, _)| !futile_spin(req.kind)) {
            return None;
        }
        let any_active = self.mem.queue.iter().any(|r| !futile_spin(r.kind))
            || self.mem.banks.iter().any(|b| {
                b.active.is_some_and(|(req, _)| !futile_spin(req.kind))
                    || b.queue.iter().any(|r| !futile_spin(r.kind))
            });
        if any_active {
            return None;
        }
        // Cache-hit completions still pending are activity unless they
        // are themselves futile polls (a spinner hitting forever in its
        // own cache burns no bus traffic but also makes no progress —
        // the per-processor scan below diagnoses its SpinMem state).
        if self.cache.pending_count > 0
            && self.cache.pending.iter().flatten().any(|&(req, _)| !futile_spin(req.kind))
        {
            return None;
        }
        let mut spinning = Vec::new();
        for i in 0..self.procs.len() {
            // A dead processor neither progresses nor blocks others from
            // being diagnosed; skip it (stranded work is handled below).
            if self.procs.is_dead(i) {
                continue;
            }
            match self.procs.state(i) {
                // A spin whose condition already holds will succeed on its
                // next check — that is progress, not deadlock.
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.images.get(i, var)) {
                        return None;
                    }
                    // With recovery armed, a spin satisfied *globally* is
                    // a healable sequence gap, not a deadlock: the NACK /
                    // watchdog-repair ladder will refresh the image.
                    if self.rec.on && pred.eval(self.sync.vars.global[var]) {
                        return None;
                    }
                    spinning.push(i);
                }
                ProcState::SpinMem { retry, .. } => {
                    let satisfiable = match retry {
                        DataReqKind::Poll { var, pred } => pred.eval(self.sync.vars.global[var]),
                        DataReqKind::KeyedAttempt { var, geq } => self.sync.vars.global[var] >= geq,
                        _ => true,
                    };
                    if satisfiable {
                        return None;
                    }
                    spinning.push(i);
                }
                ProcState::Idle if !self.disp.can_claim(i, self.workload) => {}
                // `active == 0` above rules out Ready/Computing/Blocked;
                // only a claimable Idle reaches here.
                _ => return None,
            }
        }
        // Pending polls only re-read values no one will write again.
        // Unretired work stranded on dead processors wedges the run
        // even with every survivor idle; dead holders are reported as
        // culprits alongside any spinning survivors. (With recovery on,
        // the caller's rescue rung reclaims the stranded work instead
        // of failing.)
        let mut stranded: Vec<usize> = (0..self.procs.len())
            .filter(|&i| {
                self.procs.is_dead(i)
                    && (self.procs.current(i).is_some() || !self.disp.queues[i].is_empty())
            })
            .collect();
        if spinning.is_empty() && stranded.is_empty() {
            None
        } else {
            spinning.append(&mut stranded);
            Some(spinning)
        }
    }

    /// `true` when a rescue is pending (work in the pool) but some live
    /// survivor is mid-poll: the deadlock verdict should wait for the
    /// poll to settle into backoff so the rescue rung gets a safe swap
    /// victim. Once the rescue rung has exhausted its futility budget it
    /// can never act again, so settling would defer the verdict until
    /// the cycle cap — report unsettled and let the wedge surface.
    fn rescue_settling(&self) -> bool {
        !self.disp.rescue.is_empty()
            && self.rec.rescue_futile < self.rescue_cap()
            && (0..self.procs.len()).any(|i| {
                !self.procs.is_dead(i)
                    && matches!(
                        self.procs.state(i),
                        ProcState::SpinMem { phase: SpinPhase::WaitingResult, .. }
                    )
            })
    }

    /// One stepped cycle: the channel phases, then the processors —
    /// all of them under [`StepMode::Reference`], only the wake set
    /// (calendar-due ∪ touched) under [`StepMode::FastForward`] — then
    /// the calendar re-arm of everyone in the wake set.
    fn step(&mut self) {
        self.kernel.stepped_cycles += 1;
        self.apply_deferred_images();
        self.complete_transactions();
        self.grant_transactions();
        let (procs, kernel) = (&mut self.procs, &mut self.kernel);
        self.sched.drain_due(self.cycle, |p| {
            kernel.calendar_drains += u64::from(!procs.wake.contains(p));
            procs.mark_wake(p);
        });
        match self.mode {
            StepMode::FastForward => {
                // Ascending id. A processor marked while the loop runs
                // is taken this cycle if its id is still ahead; an
                // earlier one stays in the set and is re-armed for the
                // next cycle below.
                let mut from = 0;
                while let Some(p) = self.procs.wake.take_next(from) {
                    #[cfg(debug_assertions)]
                    self.assert_quiet(from, p);
                    self.step_proc(p);
                    self.kernel.procs_visited += 1;
                    // A visit consumes the deadline it was due on.
                    self.procs.mark_wake(p);
                    from = p + 1;
                }
                #[cfg(debug_assertions)]
                self.assert_quiet(from, self.procs.len());
            }
            StepMode::Reference => {
                for p in 0..self.procs.len() {
                    #[cfg(debug_assertions)]
                    let scheduled = self.procs.wake.contains(p);
                    self.step_proc(p);
                    #[cfg(debug_assertions)]
                    debug_assert!(
                        scheduled || !self.procs.wake.contains(p),
                        "processor {p} acted at cycle {} without being due or touched",
                        self.cycle
                    );
                }
                self.kernel.procs_visited += self.procs.len() as u64;
            }
        }
        for w in 0..self.procs.wake.words() {
            let mut word = self.procs.wake.take_word(w);
            while word != 0 {
                let p = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let wake = self.proc_wake(p, self.cycle + 1);
                self.sched.schedule(p, wake);
            }
        }
        // A computing processor makes progress every cycle it computes;
        // nothing ticks per cycle, so note it once for all of them.
        if self.procs.computing > 0 {
            self.note_progress();
        }
        self.cycle += 1;
    }

    /// Debug check of the wake contract: no processor in `lo..hi` is in
    /// this cycle's visit set, so each must be quiet — its wake is
    /// still ahead. (A late wake would make fast-forward diverge from
    /// the reference stepper, which visits everyone.)
    #[cfg(debug_assertions)]
    fn assert_quiet(&self, lo: usize, hi: usize) {
        for q in lo..hi {
            debug_assert!(
                self.proc_wake(q, self.cycle) > self.cycle,
                "processor {q} is due at cycle {} but was not visited ({:?})",
                self.cycle,
                self.procs.state(q)
            );
        }
    }

    /// Data-path completions first, then the fabric's broadcast
    /// completions — the same per-cycle order the monolithic stepper had.
    fn complete_transactions(&mut self) {
        self.complete_data();
        self.complete_sync();
    }

    /// Data grant first (data traffic has priority on a shared bus),
    /// then the fabric's broadcast grants.
    fn grant_transactions(&mut self) {
        self.grant_data();
        self.grant_sync();
    }

    /// The channel half of the quiet test: `None` when a bus, bank or
    /// deferred-image update acts this cycle, else the earliest future
    /// cycle one will (`u64::MAX` if all idle). O(banks), no per-proc
    /// walk — processor wakes live in the calendar.
    fn channel_horizon(&self) -> Option<u64> {
        let c = self.cycle;
        let mut next = u64::MAX;
        // Deferred image updates wake local spinners when due.
        if self.sync.due_min <= c {
            return None;
        }
        next = next.min(self.sync.due_min);
        // Pending cache-hit completions.
        if self.cache.pending_min <= c {
            return None;
        }
        next = next.min(self.cache.pending_min);
        // Data bus: a completion is an event; an idle bus with a queued
        // request grants this cycle.
        if let Some((_, end)) = self.mem.active {
            if end <= c {
                return None;
            }
            next = next.min(end);
        } else if !self.mem.queue.is_empty() {
            return None;
        }
        // Memory banks, same shape.
        for b in &self.mem.banks {
            if let Some((_, end)) = b.active {
                if end <= c {
                    return None;
                }
                next = next.min(end);
            } else if !b.queue.is_empty() {
                return None;
            }
        }
        // Sync buses, the coalescing window and the bridge channel are
        // all delivery deadlines FF must honour.
        next = next.min(self.sync.horizon(c)?);
        Some(next)
    }

    /// The earliest cycle at or after `c1` at which processor `p` can do
    /// anything observable — `u64::MAX` if it never will on its own.
    /// `c1` is the first cycle the wake could land on: `cycle + 1` when
    /// evaluated at the end of a stepped cycle (the re-arm), `cycle`
    /// itself when the current cycle has not been stepped yet (a
    /// recovery rung changed state between cycles, or the debug quiet
    /// check). It mirrors [`Machine::scan_horizon`]'s per-processor
    /// clauses. Every quantity it reads is either written only by `p`'s
    /// own visit (which re-arms), an absolute deadline, or covered by an
    /// explicit wake: image deliveries go through the waiter index, and
    /// a program completion that may free claimable work wakes the idle
    /// processors.
    fn proc_wake(&self, p: usize, c1: u64) -> u64 {
        if self.procs.is_dead(p) {
            return u64::MAX;
        }
        let mut wake = self.procs.fail_at[p];
        if self.config.faults.stall_mean_interval > 0 {
            if self.procs.is_frozen(p) {
                // Frozen until the thaw visit at `stall_until`; only a
                // Ready processor (which drains trace notes while
                // stalled) steps sooner.
                if matches!(self.procs.state(p), ProcState::Ready) {
                    return wake.min(c1);
                }
                return wake.min(self.procs.stall_until[p].max(c1));
            }
            wake = wake.min(self.procs.next_stall[p]);
        }
        match self.procs.state(p) {
            ProcState::Idle => {
                if self.disp.can_claim(p, self.workload) {
                    wake.min(c1)
                } else {
                    wake
                }
            }
            ProcState::Ready => wake.min(c1),
            ProcState::Computing { until } => wake.min(until.max(c1)),
            ProcState::BlockedData | ProcState::BlockedSync => wake,
            ProcState::SpinLocal { var, pred } => {
                if pred.eval(self.sync.images.get(p, var)) {
                    wake.min(c1)
                } else {
                    // The gap check may have come due while this
                    // processor was frozen in a stall: it runs at the
                    // first unfrozen cycle, never in the past.
                    wake.min(self.rec.nack_due[p].max(c1))
                }
            }
            ProcState::SpinMem { phase, .. } => match phase {
                // A backoff that expired during a stall freeze re-issues
                // at the first unfrozen cycle (same clamp as above).
                SpinPhase::Backoff { until } => wake.min(until.max(c1)),
                // The pending transaction bounds the next event; the
                // channel horizon carries it.
                SpinPhase::WaitingResult => wake,
            },
        }
    }

    /// Re-arms every wake from *outside* a step — after a recovery rung
    /// (watchdog repair / rescue) rewrote processor state and images
    /// wholesale at a cycle that has not been stepped yet, so whoever it
    /// made runnable must be visited this very cycle, not the next.
    /// Cold and O(P), like the rungs themselves.
    fn rearm_all_wakes(&mut self) {
        self.procs.wake.clear();
        for p in 0..self.procs.len() {
            let wake = self.proc_wake(p, self.cycle);
            self.sched.schedule(p, wake);
        }
    }

    /// The retained linear-scan oracle: recomputes the quiet horizon the
    /// way the pre-calendar kernel did, in O(P). `None` means the cycle
    /// must be stepped; `Some(next)` that nothing observable happens
    /// before `next`. Debug builds cross-check every fast-forward jump
    /// against it.
    #[cfg(debug_assertions)]
    fn scan_horizon(&self) -> Option<u64> {
        let c = self.cycle;
        let mut next = self.channel_horizon()?;
        let stalls_on = self.config.faults.stall_mean_interval > 0;
        for p in 0..self.procs.len() {
            // Dead processors contribute no events: their stalls, spins
            // and compute remainders can never perform. A *pending* kill
            // is an event — it must land at a stepped cycle so both step
            // modes record it identically.
            if self.procs.is_dead(p) {
                continue;
            }
            if self.procs.fail_at[p] <= c {
                return None; // the fail-stop lands this cycle
            }
            next = next.min(self.procs.fail_at[p]);
            if stalls_on {
                if c >= self.procs.stall_until[p] && c >= self.procs.next_stall[p] {
                    return None; // stall onset draws RNG this cycle
                }
                if c < self.procs.stall_until[p] {
                    // Frozen until the stall ends — except that a stalled
                    // Ready processor drains trace notes every cycle.
                    if matches!(self.procs.state(p), ProcState::Ready) {
                        return None;
                    }
                    next = next.min(self.procs.stall_until[p]);
                    continue;
                }
                next = next.min(self.procs.next_stall[p]);
            }
            match self.procs.state(p) {
                ProcState::Idle => {
                    if self.disp.can_claim(p, self.workload) {
                        return None;
                    }
                }
                ProcState::Ready => return None,
                ProcState::Computing { until } => {
                    if until <= c {
                        return None; // the compute retired: issues this cycle
                    }
                    next = next.min(until);
                }
                ProcState::BlockedData | ProcState::BlockedSync => {}
                ProcState::SpinLocal { var, pred } => {
                    if pred.eval(self.sync.images.get(p, var)) {
                        return None; // the spin succeeds this cycle
                    }
                    if self.rec.nack_due[p] <= c {
                        return None; // the gap check runs this cycle
                    }
                    next = next.min(self.rec.nack_due[p]);
                }
                ProcState::SpinMem { phase, .. } => {
                    if let SpinPhase::Backoff { until } = phase {
                        if c >= until {
                            return None; // re-issues the poll this cycle
                        }
                        next = next.min(until);
                    }
                    // WaitingResult: the pending transaction bounds `next`.
                }
            }
        }
        Some(next)
    }

    /// One fast-forward advance: step a cycle in which something acts,
    /// or jump a whole quiet span at once. A jump only moves the clock
    /// (accounting is lazy, so nobody has to be charged for the span).
    /// The next event is the minimum of the channel horizon and the
    /// calendar's earliest processor wake — no O(P) scan.
    fn fast_step(&mut self) {
        let cal_next = self.sched.earliest(self.cycle);
        let quiet_until = match self.channel_horizon() {
            Some(h) if cal_next > self.cycle => Some(cal_next.min(h)),
            // A processor wake is due now, or a channel acts.
            _ => None,
        };
        #[cfg(debug_assertions)]
        match (quiet_until, self.scan_horizon()) {
            (Some(_), None) => {
                unreachable!("fast-forward would skip an event at cycle {}", self.cycle)
            }
            (Some(t), Some(h)) => {
                debug_assert!(t <= h, "fast-forward overshoots the horizon: {t} > {h}");
            }
            (None, _) => {}
        }
        let Some(next_event) = quiet_until else {
            self.step();
            return;
        };
        // Land exactly on `max_cycles` so the timeout check fires with
        // the same cycle as per-cycle stepping.
        let mut target = next_event.min(self.config.max_cycles);
        // A computing processor makes progress every cycle; only when
        // none is running (dead and stall-frozen ones do not count) can
        // the watchdog's silence bound bind.
        let progressing = self.procs.computing > 0;
        if !progressing {
            target = target.min(self.last_progress.saturating_add(self.watchdog_limit + 1));
        }
        debug_assert!(target > self.cycle, "quiet horizon must move time forward");
        if progressing {
            self.last_progress = target - 1;
        }
        self.kernel.quiet_jumps += 1;
        self.cycle = target;
    }

    pub(crate) fn unblock(&mut self, proc: usize) {
        self.close_wait(proc);
        self.procs.set_state(proc, ProcState::Ready, self.cycle);
        if self.procs.is_dead(proc) {
            // An in-flight transaction still performs after its issuer
            // fail-stops (it was already in the interconnect), but the
            // dead processor never steps again to witness it: record
            // its trailing trace notes at the completion cycle, exactly
            // when a live processor would have retired them.
            self.drain_notes(proc);
        }
    }

    /// Records an injected fault in both the note trace and the event
    /// ring.
    #[cold]
    #[inline(never)]
    pub(crate) fn record_fault(&mut self, proc: Option<usize>, class: FaultClass, magnitude: u64) {
        self.trace.record_fault(self.cycle, proc, class, magnitude);
        self.events.record(self.cycle, SimEventKind::Fault { class, proc, magnitude });
    }
}

#[cfg(test)]
mod tests;
