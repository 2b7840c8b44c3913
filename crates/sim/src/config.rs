//! Machine configuration.

use crate::faults::FaultPlan;
use crate::recovery::RecoveryPolicy;

/// How shared memory is reached through the data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryModel {
    /// The data bus is held for the whole access
    /// (`data_bus_latency + memory_latency` cycles) — a simple
    /// circuit-switched bus, the default.
    BusHeld,
    /// The bus is held only for the request (`data_bus_latency`); the
    /// access then proceeds in one of `banks` independent memory modules
    /// for `memory_latency` cycles (Cedar-style interleaving). Requests
    /// to the same bank queue up.
    Banked {
        /// Number of interleaved memory banks (>= 1).
        banks: usize,
    },
}

/// How synchronization variables are stored and reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncTransport {
    /// A dedicated synchronization bus with a local image of every
    /// variable in each processor (the Alliant-style hardware of
    /// Section 6). Writes are posted broadcasts; busy-waiting spins on the
    /// local image and generates **no** traffic.
    DedicatedBus,
    /// Synchronization variables live in shared memory and every
    /// operation — including each poll of a busy-wait — is a data-bus
    /// transaction. This is the transport that exhibits the hot-spot
    /// effect.
    SharedMemory,
}

/// Which backend carries dedicated-transport synchronization traffic
/// (see `datasync_sim::machine::fabric`). Orthogonal to
/// [`SyncTransport`]: schemes whose natural transport is
/// [`SyncTransport::SharedMemory`] route sync operations over the data
/// bus and are unaffected by this choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FabricKind {
    /// A dedicated synchronization bus, physically separate from the
    /// data bus (the paper's §6 hardware). The default, and the
    /// behaviour every pre-fabric version of this simulator had.
    #[default]
    Dedicated,
    /// No dedicated hardware: sync broadcasts arbitrate against data
    /// traffic for the one physical bus (data traffic has priority).
    /// Quantifies §6's argument for dedicated sync hardware.
    Shared,
    /// A zero-latency oracle: posts and RMWs perform globally and in
    /// every local image the instant they issue. Upper bound on what
    /// any sync interconnect could achieve.
    Ideal,
    /// A two-level hierarchy: `clusters` dedicated per-cluster sync
    /// buses with independent arbitration, joined by a bridge that
    /// batches same-variable image updates within `coalesce_window`
    /// cycles before forwarding one broadcast (`bridge_latency` cycles)
    /// to every cluster. Intra-cluster sync stays as cheap as the flat
    /// dedicated bus; only genuinely global traffic pays the bridge,
    /// and monotone-counter aggregation at the bridge collapses the
    /// broadcast storms that wall the flat bus at large P.
    Clustered {
        /// Number of per-cluster sync buses (must divide `processors`).
        clusters: u32,
        /// Cycles the bridge holds its channel per forwarded broadcast.
        bridge_latency: u32,
        /// Cycles a variable's first bridge submission waits for
        /// same-variable followers to coalesce before forwarding
        /// (0 = forward the same cycle).
        coalesce_window: u32,
    },
}

impl FabricKind {
    /// All *flat* fabric kinds, in ablation order. Clustered geometry
    /// depends on the processor count, so sweeps add it explicitly.
    pub const ALL: [FabricKind; 3] = [FabricKind::Dedicated, FabricKind::Shared, FabricKind::Ideal];

    /// A clustered fabric with default bridge timing (2-cycle bridge,
    /// 4-cycle coalescing window).
    pub fn clustered(clusters: u32) -> Self {
        FabricKind::Clustered { clusters, bridge_latency: 2, coalesce_window: 4 }
    }

    /// Parses the CLI spelling (`dedicated`, `shared`, `ideal`,
    /// `clustered` — the latter with default geometry; CLI knobs
    /// override the fields).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dedicated" => Some(FabricKind::Dedicated),
            "shared" => Some(FabricKind::Shared),
            "ideal" => Some(FabricKind::Ideal),
            "clustered" => Some(FabricKind::clustered(4)),
            _ => None,
        }
    }

    /// True for [`FabricKind::Clustered`].
    pub fn is_clustered(&self) -> bool {
        matches!(self, FabricKind::Clustered { .. })
    }

    /// Checks the fabric's geometry against a `processors`-wide
    /// machine: a clustered fabric needs at least one cluster, a bridge
    /// of at least one cycle, and a cluster count that divides the
    /// machine. Flat fabrics fit any machine.
    ///
    /// # Errors
    ///
    /// Names the first rule the geometry breaks.
    pub fn check(&self, processors: usize) -> Result<(), String> {
        if let FabricKind::Clustered { clusters, bridge_latency, .. } = *self {
            if clusters == 0 {
                return Err("clustered fabric needs at least one cluster".into());
            }
            if bridge_latency == 0 {
                return Err("bridge_latency must be at least 1 cycle".into());
            }
            let c = clusters as usize;
            if c > processors || !processors.is_multiple_of(c) {
                return Err(format!(
                    "clusters ({clusters}) must divide the processor count ({processors})"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FabricKind::Dedicated => "dedicated",
            FabricKind::Shared => "shared",
            FabricKind::Ideal => "ideal",
            FabricKind::Clustered { .. } => "clustered",
        })
    }
}

/// Which snooping coherence protocol the private caches run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoherenceProtocol {
    /// Invalidation-based MESI: a write to a shared line broadcasts a
    /// BusRdX/upgrade that invalidates every other copy; subsequent
    /// readers miss and refetch. The classic ping-pong model for sync
    /// hot-spots (key lines, SC/PC counters).
    #[default]
    Mesi,
    /// Update-based Dragon: a write to a shared line broadcasts the new
    /// value (BusUpd) to the other copies instead of invalidating them;
    /// readers keep hitting locally at the cost of a bus word per write.
    Dragon,
}

impl CoherenceProtocol {
    /// Both protocols, in ablation order.
    pub const ALL: [CoherenceProtocol; 2] = [CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];

    /// Parses the CLI spelling (`mesi`, `dragon`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mesi" => Some(CoherenceProtocol::Mesi),
            "dragon" => Some(CoherenceProtocol::Dragon),
            _ => None,
        }
    }
}

impl std::fmt::Display for CoherenceProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoherenceProtocol::Mesi => "mesi",
            CoherenceProtocol::Dragon => "dragon",
        })
    }
}

/// The private-cache layer between the processors and the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheModel {
    /// No caches: every data-path request arbitrates for the bus and
    /// reaches memory, exactly as in every pre-cache version of this
    /// simulator. The default — golden-stat pins are bit-identical under
    /// it.
    #[default]
    None,
    /// One private snooping cache per processor.
    Private {
        /// Coherence protocol the caches run.
        protocol: CoherenceProtocol,
        /// Number of sets (>= 1).
        sets: u32,
        /// Associativity: ways per set (>= 1).
        assoc: u32,
        /// Words per cache line (>= 1); addresses within the same line
        /// hit the same tag.
        line_words: u32,
        /// Whether through-memory synchronization variables are
        /// cacheable. The paper's Sec 6 ablation axis: cached sync lines
        /// ping-pong (MESI) or flood updates (Dragon); uncached ones pay
        /// full memory latency on every poll.
        cache_sync: bool,
        /// Cycles a cache hit costs the requesting processor (>= 1; the
        /// bus is not involved).
        hit_latency: u32,
    },
}

impl CacheModel {
    /// A private-cache model with the given protocol and small-machine
    /// defaults (64 sets x 2 ways x 4-word lines, sync cacheable, 1-cycle
    /// hits).
    pub fn private(protocol: CoherenceProtocol) -> Self {
        CacheModel::Private {
            protocol,
            sets: 64,
            assoc: 2,
            line_words: 4,
            cache_sync: true,
            hit_latency: 1,
        }
    }

    /// Whether any cache hardware is modeled.
    pub fn enabled(&self) -> bool {
        !matches!(self, CacheModel::None)
    }

    /// Returns the model with through-memory synchronization variables
    /// made uncacheable (no-op for [`CacheModel::None`]).
    #[must_use]
    pub fn sync_uncached(mut self) -> Self {
        if let CacheModel::Private { cache_sync, .. } = &mut self {
            *cache_sync = false;
        }
        self
    }

    /// Returns the model with the given geometry (no-op for
    /// [`CacheModel::None`]).
    #[must_use]
    pub fn geometry(mut self, new_sets: u32, new_assoc: u32, new_line_words: u32) -> Self {
        if let CacheModel::Private { sets, assoc, line_words, .. } = &mut self {
            *sets = new_sets;
            *assoc = new_assoc;
            *line_words = new_line_words;
        }
        self
    }
}

/// Parameters of the simulated multiprocessor.
///
/// All latencies are in cycles. The defaults model a small bus-based
/// machine of the Alliant FX/8 class: a handful of processors, a data bus
/// that is the main bottleneck, and a fast dedicated synchronization bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processors.
    pub processors: usize,
    /// Cycles the data bus is held per transaction.
    pub data_bus_latency: u32,
    /// Additional memory-module latency per data access.
    pub memory_latency: u32,
    /// Memory organisation behind the data bus.
    pub memory_model: MemoryModel,
    /// Private per-processor caches in front of the data bus
    /// ([`CacheModel::None`] by default: requests go straight to the
    /// bus, bit-identical to the cacheless machine).
    pub cache: CacheModel,
    /// Cycles the sync bus is held per broadcast.
    pub sync_bus_latency: u32,
    /// Where synchronization variables live.
    pub sync_transport: SyncTransport,
    /// Which fabric backend carries dedicated-transport sync traffic.
    pub sync_fabric: FabricKind,
    /// Coalesce posted sync-bus writes to the same variable from the same
    /// processor while still queued (Section 6 optimization).
    pub coalesce_sync_writes: bool,
    /// Cycles between successive polls when busy-waiting through shared
    /// memory.
    pub spin_retry: u32,
    /// Cycles charged to a processor for claiming the next iteration from
    /// the self-scheduling dispatcher.
    pub dispatch_latency: u32,
    /// Safety cap on simulated cycles.
    pub max_cycles: u64,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] by
    /// default: no faults, no per-cycle cost).
    pub faults: FaultPlan,
    /// Self-healing policy ([`RecoveryPolicy::Off`] by default: faults
    /// wedge and are detected, never silently repaired).
    pub recovery: RecoveryPolicy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            processors: 8,
            data_bus_latency: 2,
            memory_latency: 4,
            memory_model: MemoryModel::BusHeld,
            cache: CacheModel::None,
            sync_bus_latency: 1,
            sync_transport: SyncTransport::DedicatedBus,
            sync_fabric: FabricKind::Dedicated,
            coalesce_sync_writes: true,
            spin_retry: 4,
            dispatch_latency: 2,
            max_cycles: 200_000_000,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::Off,
        }
    }
}

impl MachineConfig {
    /// A config with `p` processors and defaults otherwise.
    pub fn with_processors(p: usize) -> Self {
        Self { processors: p, ..Self::default() }
    }

    /// Switches the sync transport.
    pub fn transport(mut self, t: SyncTransport) -> Self {
        self.sync_transport = t;
        self
    }

    /// Switches the synchronization-fabric backend.
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.sync_fabric = kind;
        self
    }

    /// Installs a private-cache model.
    pub fn with_cache(mut self, cache: CacheModel) -> Self {
        self.cache = cache;
        self
    }

    /// Enables or disables write coalescing.
    pub fn coalescing(mut self, on: bool) -> Self {
        self.coalesce_sync_writes = on;
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the self-healing policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any parameter is degenerate (zero processors,
    /// zero bus latency, zero spin retry).
    pub fn validate(&self) -> Result<(), String> {
        if self.processors == 0 {
            return Err("machine needs at least one processor".into());
        }
        if self.data_bus_latency == 0 || self.sync_bus_latency == 0 {
            return Err("bus latencies must be at least 1 cycle".into());
        }
        if self.spin_retry == 0 {
            return Err("spin_retry must be at least 1 cycle".into());
        }
        if let MemoryModel::Banked { banks: 0 } = self.memory_model {
            return Err("banked memory needs at least one bank".into());
        }
        if let CacheModel::Private { sets, assoc, line_words, hit_latency, .. } = self.cache {
            if sets == 0 || assoc == 0 || line_words == 0 {
                return Err("private caches need sets, assoc and line_words >= 1".into());
            }
            if hit_latency == 0 {
                return Err("cache hit_latency must be at least 1 cycle".into());
            }
        }
        if self.faults.broadcast_delay_pct > 0 && self.faults.broadcast_delay_max == 0 {
            return Err("broadcast delay enabled with a zero-cycle cap".into());
        }
        if self.faults.broadcast_drop_pct > 0 && self.faults.max_redeliveries == 0 {
            return Err("broadcast drops need max_redeliveries >= 1 (bounded delivery)".into());
        }
        if self.faults.stale_image_pct > 0 && self.faults.stale_window_max == 0 {
            return Err("stale images enabled with a zero-cycle window".into());
        }
        if self.faults.stall_mean_interval > 0 && self.faults.stall_max == 0 {
            return Err("stalls enabled with a zero-cycle cap".into());
        }
        if self.faults.data_jitter_pct > 0 && self.faults.data_jitter_max == 0 {
            return Err("data jitter enabled with a zero-cycle cap".into());
        }
        if self.faults.fail_stop_procs > 0 && self.faults.fail_stop_window == 0 {
            return Err("fail-stop enabled with a zero-cycle kill window".into());
        }
        self.sync_fabric.check(self.processors)?;
        Ok(())
    }

    /// A cycle budget scaled to the machine and workload at hand, for
    /// harnesses that would otherwise use one flat `max_cycles` across
    /// every cell of a sweep. A flat cap misreports big or
    /// heavily-faulted configurations as TIMEOUT when they are merely
    /// slow: the worst legitimate makespan grows with the iteration
    /// count (a fully serialized Doacross runs its iterations back to
    /// back), with every latency on the critical path, and with the
    /// fault magnitudes stretching each of those latencies. Callers
    /// should take `max_cycles.max(scaled_max_cycles(n))` so an explicit
    /// user cap is never *lowered*, only raised to stay achievable.
    pub fn scaled_max_cycles(&self, n_programs: usize) -> u64 {
        let f = &self.faults;
        let latency_sum = u64::from(
            self.data_bus_latency
                + self.memory_latency
                + self.sync_bus_latency
                + self.spin_retry
                + self.dispatch_latency
                + f.broadcast_delay_max
                + f.data_jitter_max
                + f.stall_max
                + f.stale_window_max,
        );
        // Worst-case serialized iteration cost: a handful of
        // instructions each eating the full latency path, plus slack for
        // recovery rungs; the per-machine term covers dispatch and
        // quiescence overheads that grow with P.
        let per_iter = 512 + 32 * latency_sum;
        let p = self.processors as u64;
        1_000_000 + (n_programs as u64 + p) * per_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MachineConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::with_processors(4)
            .transport(SyncTransport::SharedMemory)
            .coalescing(false)
            .with_recovery(RecoveryPolicy::Full);
        assert_eq!(c.processors, 4);
        assert_eq!(c.sync_transport, SyncTransport::SharedMemory);
        assert!(!c.coalesce_sync_writes);
        assert_eq!(c.recovery, RecoveryPolicy::Full);
        assert_eq!(MachineConfig::default().recovery, RecoveryPolicy::Off);
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(MachineConfig { processors: 0, ..Default::default() }.validate().is_err());
        assert!(MachineConfig { data_bus_latency: 0, ..Default::default() }.validate().is_err());
        assert!(MachineConfig { spin_retry: 0, ..Default::default() }.validate().is_err());
        assert!(MachineConfig {
            memory_model: MemoryModel::Banked { banks: 0 },
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn degenerate_fault_plans_rejected() {
        let bad = FaultPlan { broadcast_drop_pct: 10, max_redeliveries: 0, ..FaultPlan::none() };
        assert!(MachineConfig::default().with_faults(bad).validate().is_err());
        let bad = FaultPlan { stale_image_pct: 10, stale_window_max: 0, ..FaultPlan::none() };
        assert!(MachineConfig::default().with_faults(bad).validate().is_err());
        let ok = crate::faults::FaultPlan::chaos(1, 30);
        assert!(MachineConfig::default().with_faults(ok).validate().is_ok());
        let bad = FaultPlan { fail_stop_procs: 1, fail_stop_window: 0, ..FaultPlan::none() };
        assert!(MachineConfig::default().with_faults(bad).validate().is_err());
        let ok = crate::faults::FaultPlan::only(crate::faults::FaultClass::ProcFailStop, 1, 50);
        assert!(MachineConfig::default().with_faults(ok).validate().is_ok());
    }

    #[test]
    fn scaled_budget_grows_with_workload_machine_and_fault_magnitudes() {
        let base = MachineConfig::default();
        assert!(base.scaled_max_cycles(100) > base.scaled_max_cycles(10));
        let big = MachineConfig::with_processors(64);
        assert!(big.scaled_max_cycles(10) > base.scaled_max_cycles(10));
        let shaken = base.clone().with_faults(crate::faults::FaultPlan::chaos(1, 100));
        assert!(shaken.scaled_max_cycles(10) > base.scaled_max_cycles(10));
    }

    #[test]
    fn fabric_parse_round_trips() {
        for k in FabricKind::ALL {
            assert_eq!(FabricKind::parse(&k.to_string()), Some(k));
        }
        assert_eq!(FabricKind::parse("warp"), None);
        assert_eq!(MachineConfig::default().sync_fabric, FabricKind::Dedicated);
        let c = MachineConfig::default().fabric(FabricKind::Shared);
        assert_eq!(c.sync_fabric, FabricKind::Shared);
    }

    #[test]
    fn clustered_fabric_parses_and_validates_geometry() {
        let parsed = FabricKind::parse("clustered").unwrap();
        assert!(parsed.is_clustered());
        assert_eq!(parsed.to_string(), "clustered");
        assert_eq!(parsed, FabricKind::clustered(4));
        // ALL stays the flat ablation axis: clustered geometry depends
        // on P, so sweeps opt in explicitly.
        assert!(FabricKind::ALL.iter().all(|k| !k.is_clustered()));

        let with = |clusters, procs| {
            MachineConfig::with_processors(procs).fabric(FabricKind::clustered(clusters))
        };
        assert!(with(4, 8).validate().is_ok());
        assert!(with(1, 8).validate().is_ok(), "one cluster is degenerate but legal");
        assert!(with(8, 8).validate().is_ok(), "one proc per cluster is legal");
        assert!(with(3, 8).validate().is_err(), "clusters must divide P");
        assert!(with(16, 8).validate().is_err(), "more clusters than procs");
        assert!(with(0, 8).validate().is_err());
        let bad = MachineConfig::with_processors(8).fabric(FabricKind::Clustered {
            clusters: 4,
            bridge_latency: 0,
            coalesce_window: 4,
        });
        assert!(bad.validate().is_err(), "zero-latency bridge is degenerate");
    }

    #[test]
    fn cache_model_parses_validates_and_defaults_off() {
        assert_eq!(MachineConfig::default().cache, CacheModel::None);
        assert!(!CacheModel::None.enabled());
        for p in CoherenceProtocol::ALL {
            assert_eq!(CoherenceProtocol::parse(&p.to_string()), Some(p));
            let c = MachineConfig::default().with_cache(CacheModel::private(p));
            assert!(c.cache.enabled());
            assert!(c.validate().is_ok());
        }
        assert_eq!(CoherenceProtocol::parse("moesi"), None);
        let degenerate = |sets, assoc, line_words, hit_latency| {
            MachineConfig::default().with_cache(CacheModel::Private {
                protocol: CoherenceProtocol::Mesi,
                sets,
                assoc,
                line_words,
                cache_sync: true,
                hit_latency,
            })
        };
        assert!(degenerate(0, 2, 4, 1).validate().is_err());
        assert!(degenerate(64, 0, 4, 1).validate().is_err());
        assert!(degenerate(64, 2, 0, 1).validate().is_err());
        assert!(degenerate(64, 2, 4, 0).validate().is_err());
    }

    #[test]
    fn banked_model_valid() {
        let c =
            MachineConfig { memory_model: MemoryModel::Banked { banks: 8 }, ..Default::default() };
        assert!(c.validate().is_ok());
    }
}
