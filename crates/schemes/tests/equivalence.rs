//! Fast-forward/reference equivalence across every synchronization
//! scheme: the event-driven kernel must produce **bit-identical**
//! `RunStats`, `Trace`, and final sync-variable state to per-cycle
//! stepping — on clean runs, under every fault class, under combined
//! chaos, and on runs that fail (deadlock, timeout).

use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::Scheme;
use datasync_schemes::{
    BarrierPhased, CompiledLoop, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented,
};
use datasync_sim::{
    CacheModel, CoherenceProtocol, FabricKind, FaultClass, FaultPlan, MachineConfig,
    RecoveryPolicy, StepMode, SyncTransport,
};

fn roster(procs: usize, x: usize) -> Vec<Box<dyn Scheme>> {
    let mut v: Vec<Box<dyn Scheme>> = vec![
        Box::new(ReferenceBased::new()),
        Box::new(InstanceBased::new()),
        Box::new(StatementOriented::new()),
        Box::new(ProcessOriented::basic(x)),
        Box::new(ProcessOriented::new(x)),
    ];
    if procs.is_power_of_two() {
        v.push(Box::new(BarrierPhased::new(procs)));
    }
    v
}

fn assert_equivalent(compiled: &CompiledLoop, config: &MachineConfig, what: &str) {
    let fast = compiled.run_with(config, StepMode::FastForward);
    let reference = compiled.run_with(config, StepMode::Reference);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.stats, r.stats, "{what}: stats diverged");
            assert_eq!(f.trace, r.trace, "{what}: trace diverged");
            assert_eq!(f.sync_final, r.sync_final, "{what}: sync state diverged");
            assert_eq!(f.metrics, r.metrics, "{what}: metrics diverged");
        }
        (Err(f), Err(r)) => assert_eq!(f, r, "{what}: errors diverged"),
        (f, r) => panic!(
            "{what}: one mode failed and the other did not (fast ok = {}, reference ok = {})",
            f.is_ok(),
            r.is_ok()
        ),
    }
}

#[test]
fn every_scheme_fault_free() {
    let nest = fig21_loop(24);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    for procs in [1usize, 3, 4] {
        for scheme in roster(procs, 8) {
            let compiled = scheme.compile(&nest, &graph, &space);
            let config = MachineConfig {
                sync_transport: scheme.natural_transport(),
                ..MachineConfig::with_processors(procs)
            };
            assert_equivalent(&compiled, &config, &format!("{} P={procs}", scheme.name()));
        }
    }
}

#[test]
fn every_scheme_under_every_fault_class() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig { max_cycles: 400_000, ..MachineConfig::with_processors(4) };
    for scheme in roster(4, 8) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let clean = MachineConfig { sync_transport: scheme.natural_transport(), ..base.clone() };
        for class in FaultClass::ALL {
            for seed in [1u64, 42] {
                let config = clean.clone().with_faults(FaultPlan::only(class, seed, 65));
                assert_equivalent(
                    &compiled,
                    &config,
                    &format!("{} {class:?} seed={seed}", scheme.name()),
                );
            }
        }
        for seed in [3u64, 11] {
            let config = clean.clone().with_faults(FaultPlan::chaos(seed, 55));
            assert_equivalent(&compiled, &config, &format!("{} chaos seed={seed}", scheme.name()));
        }
    }
}

/// The fabric axis: the fast-forward kernel must stay bit-identical to
/// per-cycle stepping under every [`FabricKind`] — the shared fabric's
/// cross-bus blocking and the ideal fabric's instant delivery both have
/// to survive quiet-span jumping, clean and under chaos faults.
#[test]
fn every_scheme_on_every_fabric() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig { max_cycles: 400_000, ..MachineConfig::with_processors(4) };
    let kinds = FabricKind::ALL.into_iter().chain([
        FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 },
        FabricKind::Clustered { clusters: 4, bridge_latency: 1, coalesce_window: 0 },
    ]);
    for kind in kinds {
        for scheme in roster(4, 8) {
            let compiled = scheme.compile(&nest, &graph, &space);
            let clean = MachineConfig {
                sync_transport: scheme.natural_transport(),
                sync_fabric: kind,
                ..base.clone()
            };
            assert_equivalent(&compiled, &clean, &format!("{} {kind}", scheme.name()));
            let chaotic = clean.clone().with_faults(FaultPlan::chaos(7, 55));
            assert_equivalent(&compiled, &chaotic, &format!("{} {kind} chaos", scheme.name()));
            let recovering = MachineConfig { recovery: RecoveryPolicy::RepairOnly, ..clean }
                .with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 2, 80));
            assert_equivalent(&compiled, &recovering, &format!("{} {kind} loss", scheme.name()));
        }
    }
}

#[test]
fn failure_outcomes_are_identical() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = ProcessOriented::new(8);
    let compiled = scheme.compile(&nest, &graph, &space);

    // Timeout: the cap lands mid-run.
    let config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        max_cycles: 157,
        ..MachineConfig::with_processors(4)
    };
    assert_equivalent(&compiled, &config, "timeout");

    // Wedged runs (deadlock/livelock detection or timeout, whichever the
    // fault stream produces): statement-oriented on shared memory with
    // heavy broadcast drops, bounded by a small cycle cap.
    let so = StatementOriented::new();
    let compiled = so.compile(&nest, &graph, &space);
    let config = MachineConfig {
        sync_transport: SyncTransport::SharedMemory,
        max_cycles: 300_000,
        ..MachineConfig::with_processors(4)
    };
    for seed in 0..6u64 {
        let faulted =
            config.clone().with_faults(FaultPlan::only(FaultClass::BroadcastDrop, seed, 95));
        assert_equivalent(&compiled, &faulted, &format!("wedged seed={seed}"));
    }
}

/// The self-healing ladder (gap NACKs, refresh retransmissions, watchdog
/// repairs) must preserve bit-identical equivalence between the
/// fast-forward and reference kernels — for every scheme, under every
/// fault class, under chaos, and under the unbounded broadcast-loss
/// class the ladder exists to heal.
#[test]
fn every_scheme_with_recovery_enabled() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig {
        max_cycles: 400_000,
        recovery: RecoveryPolicy::RepairOnly,
        ..MachineConfig::with_processors(4)
    };
    for scheme in roster(4, 8) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let clean = MachineConfig { sync_transport: scheme.natural_transport(), ..base.clone() };
        for class in FaultClass::ALL {
            let config = clean.clone().with_faults(FaultPlan::only(class, 9, 65));
            assert_equivalent(&compiled, &config, &format!("{} recovery {class:?}", scheme.name()));
        }
        // Total broadcast loss: NACKs go silent and the watchdog repairs.
        let config = clean.clone().with_faults(FaultPlan::only(FaultClass::BroadcastLoss, 2, 100));
        assert_equivalent(&compiled, &config, &format!("{} recovery total-loss", scheme.name()));
        let config = clean.clone().with_faults(FaultPlan::chaos(13, 55));
        assert_equivalent(&compiled, &config, &format!("{} recovery chaos", scheme.name()));
    }
}

/// Regression: on a clustered fabric, bridge lag makes fault-free gap
/// NACKs legitimate (the predicate holds globally before the update
/// crosses the bridge), so armed recovery fires refreshes on perfectly
/// healthy runs. A refresh rides the NACKer's own cluster bus and can
/// complete *before* an older-seq real post still queued on another
/// cluster's bus; it must not advance the variable's applied sequence,
/// or that real post — carrying the genuinely newer value — is
/// discarded as stale and its write is lost for good. The observable
/// wedge was a barrier stuck one arrival short: DEADLOCK at P >= 64
/// with recovery *on* and zero faults injected. Every NACK must heal,
/// the run must complete, and both kernels must agree bit for bit.
#[test]
fn clustered_recovery_refreshes_never_discard_inflight_posts() {
    let nest = fig21_loop(8);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let procs = 64;
    let scheme = BarrierPhased::new(procs);
    let compiled = scheme.compile(&nest, &graph, &space);
    for clusters in [4u32, 8] {
        let config = MachineConfig {
            sync_transport: scheme.natural_transport(),
            sync_fabric: FabricKind::Clustered { clusters, bridge_latency: 2, coalesce_window: 4 },
            recovery: RecoveryPolicy::Full,
            max_cycles: 3_000_000,
            ..MachineConfig::with_processors(procs)
        };
        let out = compiled
            .run(&config)
            .unwrap_or_else(|e| panic!("fault-free clustered c={clusters} wedged: {e:?}"));
        assert_eq!(
            out.stats.recovery.gap_nacks, out.stats.recovery.healed_waits,
            "c={clusters}: every fault-free NACK must heal"
        );
        assert_eq!(out.stats.faults.total(), 0, "c={clusters}: no faults were injected");
        assert_equivalent(&compiled, &config, &format!("barrier clustered c={clusters} recovery"));
    }
}

/// Event recording must be a pure observer: enabling the ring changes
/// nothing about a run, and the captured event stream is itself
/// bit-identical across stepping modes — for every scheme, clean and
/// under chaos faults.
#[test]
fn event_streams_match_across_modes_and_recording_is_inert() {
    let nest = fig21_loop(20);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig { max_cycles: 400_000, ..MachineConfig::with_processors(4) };
    for scheme in roster(4, 8) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let clean = MachineConfig { sync_transport: scheme.natural_transport(), ..base.clone() };
        for (label, config) in [
            ("clean", clean.clone()),
            ("chaos", clean.clone().with_faults(FaultPlan::chaos(7, 50))),
        ] {
            let what = format!("{} {label}", scheme.name());
            let plain = compiled.run(&config).expect("run");
            let traced_fast = compiled
                .run_traced_with(&config, StepMode::FastForward, 1 << 16)
                .expect("traced fast");
            let traced_ref = compiled
                .run_traced_with(&config, StepMode::Reference, 1 << 16)
                .expect("traced reference");
            // Recording is inert.
            assert_eq!(plain.stats, traced_fast.stats, "{what}: recording changed stats");
            assert_eq!(plain.trace, traced_fast.trace, "{what}: recording changed the trace");
            assert_eq!(plain.metrics, traced_fast.metrics, "{what}: recording changed metrics");
            assert_eq!(plain.sync_final, traced_fast.sync_final, "{what}: sync state changed");
            // The event stream itself is mode-independent.
            assert_eq!(traced_fast.events, traced_ref.events, "{what}: event streams diverged");
            assert!(!traced_fast.events.is_empty(), "{what}: no events captured");
            assert_eq!(traced_fast.events.dropped(), 0, "{what}: ring too small for the test");
        }
    }
}

/// Fail-stop reconfiguration — the rescue rung reclaiming a dead
/// processor's unretired work and reissuing it to the survivor quorum —
/// must preserve bit-identical equivalence between the fast-forward and
/// reference kernels, for every scheme on every fabric, at both the
/// one-victim and two-victim intensities.
#[test]
fn failstop_reconfiguration_is_identical_across_modes() {
    let nest = fig21_loop(12);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig {
        max_cycles: 3_000_000,
        recovery: RecoveryPolicy::Full,
        ..MachineConfig::with_processors(4)
    };
    for kind in FabricKind::ALL {
        for scheme in roster(4, 8) {
            let compiled = scheme.compile(&nest, &graph, &space);
            let clean = MachineConfig {
                sync_transport: scheme.natural_transport(),
                sync_fabric: kind,
                ..base.clone()
            };
            for pct in [50u32, 100] {
                let mut config =
                    clean.clone().with_faults(FaultPlan::only(FaultClass::ProcFailStop, 3, pct));
                config.max_cycles = config
                    .max_cycles
                    .max(config.scaled_max_cycles(compiled.workload.programs.len()));
                assert_equivalent(
                    &compiled,
                    &config,
                    &format!("{} {kind} fail-stop {pct}%", scheme.name()),
                );
            }
        }
    }
}

/// Found by fuzzing the wake-driven kernel against its predecessor:
/// above the calendar's scan threshold, processor stalls combined with
/// a fail-stop rescue made the old fast-forward kernel drift from the
/// reference stepper (makespan 10113 vs 10194 on the first seed). The
/// specification was right; one transition function keeps them equal.
#[test]
fn stalls_and_a_failstop_rescue_above_the_scan_threshold_are_identical() {
    let nest = fig21_loop(140);
    let scheme = ProcessOriented::new(70);
    let cost = |_id, _pid| 350;
    let compiled = scheme.compile_with(&nest, &analyze(&nest), &IterSpace::of(&nest), Some(&cost));
    for seed in [62, 1, 2] {
        let faults = FaultPlan {
            seed,
            stall_mean_interval: 493,
            stall_max: 54,
            fail_stop_procs: 1,
            fail_stop_window: 2773,
            ..FaultPlan::none()
        };
        let config = MachineConfig {
            sync_transport: scheme.natural_transport(),
            sync_fabric: FabricKind::Ideal,
            ..MachineConfig::with_processors(70)
        }
        .with_faults(faults)
        .with_recovery(RecoveryPolicy::Full);
        assert_equivalent(&compiled, &config, &format!("seed {seed}"));
        let rescues = compiled.run(&config).unwrap().stats.recovery.fail_stop_rescues;
        assert!(rescues > 0, "seed {seed}: the rescue must fire");
    }
}

/// Private caches are a pure timing/traffic model riding the data bus,
/// and the fast-forward kernel must stay bit-identical to per-cycle
/// stepping with them enabled — for every scheme under both coherence
/// protocols, clean and under chaos faults. The shared-memory transport
/// cells must actually exercise the caches (non-zero traffic), or the
/// test would prove nothing.
#[test]
fn every_scheme_with_private_caches() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig { max_cycles: 400_000, ..MachineConfig::with_processors(4) };
    for protocol in CoherenceProtocol::ALL {
        for scheme in roster(4, 8) {
            let compiled = scheme.compile(&nest, &graph, &space);
            let clean =
                MachineConfig { sync_transport: scheme.natural_transport(), ..base.clone() }
                    .with_cache(CacheModel::private(protocol));
            let what = format!("{} {protocol} cached", scheme.name());
            assert_equivalent(&compiled, &clean, &what);
            let out = compiled.run(&clean).expect("cached run");
            assert!(out.metrics.cache.active(), "{what}: caches saw no traffic");
            if scheme.natural_transport() == SyncTransport::SharedMemory {
                assert!(
                    out.metrics.cache.coherence_traffic() > 0,
                    "{what}: spinning on memory produced no coherence traffic"
                );
            }
            let chaotic = clean.clone().with_faults(FaultPlan::chaos(7, 55));
            assert_equivalent(&compiled, &chaotic, &format!("{what} chaos"));
        }
    }
}

/// With caching of sync variables disabled (`cache_sync: false`), sync
/// traffic must bypass the caches entirely while plain shared accesses
/// still hit — and equivalence must hold in that mixed mode too.
#[test]
fn uncached_sync_variables_bypass_the_caches() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = StatementOriented::new();
    let compiled = scheme.compile(&nest, &graph, &space);
    let cache = CacheModel::private(CoherenceProtocol::Mesi).sync_uncached();
    let config = MachineConfig {
        sync_transport: SyncTransport::SharedMemory,
        max_cycles: 400_000,
        ..MachineConfig::with_processors(4)
    }
    .with_cache(cache);
    assert_equivalent(&compiled, &config, "sync-uncached");
    let out = compiled.run(&config).expect("run");
    assert!(out.metrics.cache.active(), "data accesses should still use the caches");
}

/// `CacheModel::None` (the default) must be byte-identical to a config
/// that never mentions caches at all: the golden pins of earlier PRs
/// stay valid because the cacheless path is the same code path.
#[test]
fn cacheless_model_is_the_default_and_inert() {
    assert_eq!(CacheModel::default(), CacheModel::None);
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    for scheme in roster(4, 8) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let implicit = MachineConfig {
            sync_transport: scheme.natural_transport(),
            max_cycles: 400_000,
            ..MachineConfig::with_processors(4)
        };
        let explicit = implicit.clone().with_cache(CacheModel::None);
        let a = compiled.run(&implicit).expect("implicit");
        let b = compiled.run(&explicit).expect("explicit");
        assert_eq!(a.stats, b.stats, "{}: explicit None changed stats", scheme.name());
        assert_eq!(a.trace, b.trace, "{}: explicit None changed trace", scheme.name());
        assert_eq!(a.metrics, b.metrics, "{}: explicit None changed metrics", scheme.name());
        assert!(!a.metrics.cache.active(), "{}: cacheless run counted traffic", scheme.name());
    }
}

/// Sync-operation conservation across fabrics (the broadcast-count
/// "discrepancy" from the bench report): on a fault-free run every
/// issued sync operation is either granted as its own broadcast or
/// folded into a queued one by write coalescing, so
/// `sync_ops_issued == sync_broadcasts + coalesced_writes` on every
/// fabric — and the *issued* count is fabric-invariant. The dedicated
/// bus showing fewer broadcasts than the ideal fabric is coalescing
/// under arbitration latency, not message loss.
#[test]
fn sync_op_conservation_holds_on_every_fabric() {
    let nest = fig21_loop(16);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    for scheme in roster(4, 8) {
        if scheme.natural_transport() != SyncTransport::DedicatedBus {
            continue;
        }
        let compiled = scheme.compile(&nest, &graph, &space);
        let mut issued = Vec::new();
        let kinds = FabricKind::ALL.into_iter().chain([
            FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 },
            FabricKind::Clustered { clusters: 4, bridge_latency: 1, coalesce_window: 8 },
        ]);
        for kind in kinds {
            let config = MachineConfig {
                sync_transport: SyncTransport::DedicatedBus,
                sync_fabric: kind,
                max_cycles: 400_000,
                ..MachineConfig::with_processors(4)
            };
            let out = compiled.run(&config).expect("run");
            assert_eq!(
                out.stats.sync_ops_issued,
                out.stats.sync_broadcasts + out.stats.coalesced_writes,
                "{} {kind}: issued ops must equal broadcasts + coalesced",
                scheme.name()
            );
            // The clustered fabric extends the identity one level down:
            // every cluster-bus grant either crosses the bridge or folds
            // into a pending same-variable forward. Flat fabrics keep
            // both bridge counters at zero.
            if kind.is_clustered() {
                assert_eq!(
                    out.stats.sync_broadcasts,
                    out.stats.bridge_broadcasts + out.stats.bridge_coalesced,
                    "{} {kind}: broadcasts must equal bridged + aggregated",
                    scheme.name()
                );
            } else {
                assert_eq!(out.stats.bridge_broadcasts, 0, "{kind}: no bridge on flat fabrics");
                assert_eq!(out.stats.bridge_coalesced, 0, "{kind}: no bridge on flat fabrics");
            }
            issued.push(out.stats.sync_ops_issued);
        }
        assert!(
            issued.windows(2).all(|w| w[0] == w[1]),
            "{}: issued sync ops differ across fabrics: {issued:?}",
            scheme.name()
        );
    }
}

/// Tracing off, two runs of the same compiled loop under the same seed
/// are byte-identical — for every scheme (satellite 4's determinism
/// guarantee, the foundation under the robustness matrix).
#[test]
fn identical_seeds_give_identical_runs_for_every_scheme() {
    let nest = fig21_loop(14);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig { max_cycles: 400_000, ..MachineConfig::with_processors(4) };
    for scheme in roster(4, 8) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let config = MachineConfig { sync_transport: scheme.natural_transport(), ..base.clone() }
            .with_faults(FaultPlan::chaos(1989, 45));
        let a = compiled.run(&config).expect("run a");
        let b = compiled.run(&config).expect("run b");
        assert_eq!(a.stats, b.stats, "{}: stats not deterministic", scheme.name());
        assert_eq!(a.trace, b.trace, "{}: trace not deterministic", scheme.name());
        assert_eq!(a.metrics, b.metrics, "{}: metrics not deterministic", scheme.name());
        assert_eq!(a.sync_final, b.sync_final, "{}: sync state not deterministic", scheme.name());
        // And the recorded event sequence reproduces too.
        let ta = compiled.run_traced(&config, 1 << 16).expect("traced a");
        let tb = compiled.run_traced(&config, 1 << 16).expect("traced b");
        assert_eq!(ta.events, tb.events, "{}: event stream not deterministic", scheme.name());
    }
}
