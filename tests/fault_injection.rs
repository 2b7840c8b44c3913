//! Fault injection: deliberately break synchronization and check that
//! the detection machinery — trace validation, deadlock detection, the
//! order-sensitive oracle — actually catches it. A validator that cannot
//! fail is not evidence of correctness.

use datasync_loopir::analysis::analyze;
use datasync_loopir::ir::StmtId;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::{CostFn, Scheme};
use datasync_schemes::{InstanceBased, ProcessOriented, ReferenceBased, StatementOriented};
use datasync_sim::{
    FaultClass, FaultPlan, Instr, MachineConfig, Pred, Program, RecoveryPolicy, SimError, Workload,
};

/// A cost function that makes one iteration dramatically slow, so any
/// missing synchronization lets later iterations race past it.
fn skewed() -> impl Fn(StmtId, u64) -> u32 {
    |_s, pid| if pid == 5 { 500 } else { 2 }
}

/// Every Section 3 scheme, boxed for uniform sabotage sweeps.
fn all_schemes() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(StatementOriented::new()),
        Box::new(ProcessOriented::new(8)),
        Box::new(InstanceBased::new()),
        Box::new(ReferenceBased::new()),
    ]
}

/// Strips every wait from compiled programs: removes `SyncWait` and
/// neutralizes the test half of `KeyedAccess` (geq 0 is always
/// satisfied), so reference-based programs also stop waiting while
/// keeping their accesses and trace notes.
fn drop_waits(compiled: &mut datasync_schemes::CompiledLoop) {
    for prog in &mut compiled.workload.programs {
        prog.instrs.retain(|i| !matches!(i, Instr::SyncWait { .. }));
        for i in &mut prog.instrs {
            if let Instr::KeyedAccess { geq, .. } = i {
                *geq = 0;
            }
        }
    }
}

/// Strips every sync write (marks/transfers/increments) from compiled
/// programs, leaving the waits to spin forever.
fn drop_marks(compiled: &mut datasync_schemes::CompiledLoop) {
    for prog in &mut compiled.workload.programs {
        prog.instrs.retain(|i| {
            !matches!(i, Instr::SyncSet { .. } | Instr::SyncSetIfGeq { .. } | Instr::SyncRmw { .. })
        });
    }
}

#[test]
fn removing_waits_is_detected_by_the_trace_validator() {
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let cost = skewed();
    let cost_ref: CostFn<'_> = &cost;
    let mut compiled = ProcessOriented::new(8).compile_with(&nest, &graph, &space, Some(cost_ref));
    drop_waits(&mut compiled);
    let out = compiled.run(&MachineConfig::with_processors(4)).expect("runs fine, just wrong");
    let violations = compiled.validate(&out);
    assert!(
        !violations.is_empty(),
        "a scheme with no waits must violate dependences around the slow iteration"
    );
}

#[test]
fn intact_scheme_passes_under_the_same_skew() {
    // Control: with its waits intact, the same skewed workload validates.
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let cost = skewed();
    let cost_ref: CostFn<'_> = &cost;
    let compiled = ProcessOriented::new(8).compile_with(&nest, &graph, &space, Some(cost_ref));
    let out = compiled.run(&MachineConfig::with_processors(4)).expect("simulation failed");
    assert!(compiled.validate(&out).is_empty());
}

#[test]
fn removing_marks_deadlocks_and_is_reported() {
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let mut compiled = ProcessOriented::new(8).compile(&nest, &graph, &space);
    drop_marks(&mut compiled);
    match compiled.run(&MachineConfig::with_processors(4)) {
        Err(SimError::Deadlock { spinning, .. }) => {
            assert!(!spinning.is_empty(), "deadlock must name the stuck processors");
        }
        Err(SimError::Timeout { .. }) => {} // also acceptable detection
        other => panic!("waits without marks must hang, got {other:?}"),
    }
}

#[test]
fn weakened_wait_steps_are_detected() {
    // Lower every wait threshold by two steps: sinks release too early
    // around the slow iteration.
    let nest = fig21_loop(48);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let cost = skewed();
    let cost_ref: CostFn<'_> = &cost;
    let mut compiled =
        ProcessOriented::basic(8).compile_with(&nest, &graph, &space, Some(cost_ref));
    for prog in &mut compiled.workload.programs {
        for i in &mut prog.instrs {
            if let Instr::SyncWait { pred: datasync_sim::Pred::Geq(v), .. } = i {
                // Drop the step requirement entirely (keep the owner part).
                *v &= !0xffff_ffff;
            }
        }
    }
    let out = compiled.run(&MachineConfig::with_processors(8)).expect("still terminates");
    let violations = compiled.validate(&out);
    assert!(!violations.is_empty(), "step-free waits must be caught");
}

#[test]
fn removing_waits_is_detected_for_every_scheme() {
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let cost = skewed();
    let cost_ref: CostFn<'_> = &cost;
    for scheme in all_schemes() {
        let mut compiled = scheme.compile_with(&nest, &graph, &space, Some(cost_ref));
        drop_waits(&mut compiled);
        let out = compiled.run(&MachineConfig::with_processors(4)).unwrap_or_else(|e| {
            panic!("{}: wait-free programs still run, got {e:?}", scheme.name())
        });
        assert!(
            !compiled.validate(&out).is_empty(),
            "{}: stripping every wait must violate dependences around the slow iteration",
            scheme.name()
        );
    }
}

#[test]
fn removing_marks_hangs_every_scheme_with_separable_marks() {
    // The reference-based scheme fuses its mark (the key increment) into
    // the access itself, so it has nothing separable to strip; it is
    // covered by the wait-neutralizing test above.
    let schemes: Vec<Box<dyn Scheme>> = vec![
        Box::new(StatementOriented::new()),
        Box::new(ProcessOriented::new(8)),
        Box::new(InstanceBased::new()),
    ];
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    for scheme in schemes {
        let mut compiled = scheme.compile(&nest, &graph, &space);
        drop_marks(&mut compiled);
        match compiled.run(&MachineConfig::with_processors(4)) {
            Err(SimError::Deadlock { spinning, .. }) => {
                assert!(
                    !spinning.is_empty(),
                    "{}: deadlock must name the stuck processors",
                    scheme.name()
                );
            }
            Err(SimError::Timeout { .. }) => {} // also acceptable detection
            other => panic!("{}: waits without marks must hang, got {other:?}", scheme.name()),
        }
    }
}

#[test]
fn same_fault_seed_reproduces_identical_stats_for_every_scheme() {
    // A chaos-faulted run is still a pure function of (config, workload):
    // re-running with the same seed must reproduce every statistic,
    // including the injected-fault counts and recovery latencies.
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let config = MachineConfig {
        max_cycles: 3_000_000,
        faults: FaultPlan::chaos(2024, 40),
        ..MachineConfig::with_processors(4)
    };
    for scheme in all_schemes() {
        let compiled = scheme.compile(&nest, &graph, &space);
        let a = compiled.run(&config).unwrap_or_else(|e| {
            panic!("{}: bounded chaos at 40% must still complete, got {e:?}", scheme.name())
        });
        let b = compiled.run(&config).expect("second run of the same pure function");
        assert_eq!(a.stats, b.stats, "{}: same seed, same stats", scheme.name());
        assert!(
            a.stats.faults.total() > 0,
            "{}: chaos at 40% must actually inject faults",
            scheme.name()
        );
        assert!(
            compiled.validate(&a).is_empty(),
            "{}: bounded faults may cost cycles but never break order",
            scheme.name()
        );
    }
}

#[test]
fn different_fault_seeds_diverge() {
    let nest = fig21_loop(40);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let compiled = ProcessOriented::new(8).compile(&nest, &graph, &space);
    let run = |seed: u64| {
        let config = MachineConfig {
            max_cycles: 3_000_000,
            faults: FaultPlan::chaos(seed, 40),
            ..MachineConfig::with_processors(4)
        };
        compiled.run(&config).expect("bounded chaos completes").stats
    };
    assert_ne!(run(1), run(2), "different seeds must shake the machine differently");
}

#[test]
fn dropping_the_final_broadcast_still_delivers_within_the_cap() {
    // The nastiest drop is the *last* broadcast a waiter needs: nothing
    // later will ever touch the variable, so eventual delivery must come
    // from the redelivery bound alone. At 100% drop probability the
    // message is dropped on every grant until the cap, then forced
    // through — exactly `max_redeliveries` drops, never a wedge.
    let producer = Program::from_instrs(vec![Instr::Compute(5), Instr::SyncSet { var: 0, val: 1 }]);
    let consumer = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(1) }]);
    let workload = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
    let plan = FaultPlan::only(FaultClass::BroadcastDrop, 11, 100);
    let config = MachineConfig::with_processors(2).with_faults(plan);
    let out = datasync_sim::run(&config, &workload).expect("bounded drops must complete");
    assert_eq!(out.sync_final[0], 1, "the final broadcast must eventually deliver");
    assert_eq!(
        out.stats.faults.dropped_broadcasts,
        u64::from(plan.max_redeliveries),
        "a certain drop fires exactly once per allowed redelivery"
    );
    assert!(out.stats.faults.recovery_cycles > 0, "the waiter paid for the redeliveries");
}

#[test]
fn back_to_back_drops_never_regress_an_overtaken_counter() {
    // Two posts to the same monotonic counter from different processors:
    // when drops hold the older value back long enough for the newer one
    // to perform first, the late redelivery must be discarded as stale —
    // applying it would regress the counter below what the waiter
    // already observed. Sweep seeds so both interleavings occur.
    let run_seed = |seed: u64| {
        let p0 = Program::from_instrs(vec![Instr::SyncSet { var: 0, val: 1 }]);
        let p1 = Program::from_instrs(vec![Instr::Compute(2), Instr::SyncSet { var: 0, val: 2 }]);
        let waiter = Program::from_instrs(vec![Instr::SyncWait { var: 0, pred: Pred::Geq(2) }]);
        let workload =
            Workload::static_assigned(vec![p0, p1, waiter], vec![vec![0], vec![1], vec![2]]);
        let config = MachineConfig::with_processors(3).with_faults(FaultPlan::only(
            FaultClass::BroadcastDrop,
            seed,
            70,
        ));
        datasync_sim::run(&config, &workload).expect("bounded drops must complete")
    };
    let mut saw_stale_discard = false;
    let mut saw_back_to_back = false;
    for seed in 0..40u64 {
        let out = run_seed(seed);
        assert_eq!(
            out.sync_final[0], 2,
            "seed {seed}: a stale redelivery must never regress the counter"
        );
        saw_stale_discard |= out.stats.faults.stale_deliveries_discarded > 0;
        // Two messages, three redeliveries each: > 3 drops means at
        // least one message was dropped on consecutive grants.
        saw_back_to_back |= out.stats.faults.dropped_broadcasts > 3;
    }
    assert!(saw_stale_discard, "some seed must overtake a dropped post");
    assert!(saw_back_to_back, "some seed must drop the same message repeatedly");
}

#[test]
fn drops_during_the_fallback_run_still_degrade_cleanly() {
    // Degradation re-runs the loop on the conservative scheme *with the
    // same fault plan*: the fallback machine also suffers broadcast
    // drops. A bounded class must not stop the fallback from carrying
    // the run, so the classifier still reports Degraded.
    use datasync_schemes::robustness::Outcome;
    use datasync_schemes::{BarrierPhased, Cell};
    use datasync_sim::{CacheModel, FabricKind};
    let nest = fig21_loop(12);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let mut sabotaged = ProcessOriented::new(8).compile(&nest, &graph, &space);
    drop_marks(&mut sabotaged);
    let fb_scheme = BarrierPhased::new(4);
    let cell = Cell {
        scheme: "process".into(),
        fabric: FabricKind::Dedicated,
        iterations: 12,
        processors: 4,
        cache: CacheModel::None,
        plan: FaultPlan::only(FaultClass::BroadcastDrop, 5, 85),
    };
    let config = MachineConfig {
        max_cycles: 1_000_000,
        recovery: RecoveryPolicy::Full,
        ..cell.machine(&sabotaged).expect("the process key builds")
    };
    let outcome = cell.run(&sabotaged, config).outcome;
    match outcome {
        Outcome::Degraded { fallback, makespan, .. } => {
            assert_eq!(fallback, fb_scheme.name());
            assert!(makespan > 0);
        }
        other => panic!("fallback under bounded drops must still carry the run, got {other:?}"),
    }
}

#[test]
fn oracle_catches_a_missing_wait_on_real_threads() {
    // Run the Fig 2.1 loop on real threads with the dist-1 waits removed:
    // the order-sensitive store comparison must (overwhelmingly) fail.
    // One lucky schedule could still match, so try a few rounds.
    use datasync_core::doacross::Doacross;
    use datasync_core::planexec::SharedArrayStore;
    use datasync_loopir::exec::{run_sequential, stmt_value};
    use datasync_loopir::plan::{IterOp, PcOp, SyncPlan};

    let nest = fig21_loop(300);
    let space = IterSpace::of(&nest);
    let graph = datasync_loopir::covering::reduce(&nest, &analyze(&nest)).linearized(&space);
    let plan = SyncPlan::build(&nest, &graph);
    let sequential = run_sequential(&nest);

    let mut any_divergence = false;
    for _round in 0..5 {
        let store = SharedArrayStore::new();
        let exec = Doacross::new(space.count()).threads(4).pcs(8);
        exec.run(|pid, ctx| {
            let indices = space.indices(pid);
            for op in plan.iteration_ops(&nest, pid) {
                match op {
                    IterOp::Wait(w) if w.dist == 1 => {} // sabotage: skip
                    IterOp::Wait(w) => ctx.wait(w.dist as u64, w.step),
                    IterOp::Exec(s) => {
                        // Make some iterations slow so the skipped waits
                        // actually race (deterministic skew).
                        if pid % 7 == 3 && s.0 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        let stmt = nest.stmt(s);
                        let reads: Vec<u64> = stmt
                            .reads()
                            .map(|r| store.read(r.array, &r.element(&indices)))
                            .collect();
                        let v = stmt_value(stmt, &indices, &reads);
                        for w in stmt.writes() {
                            store.write(w.array, w.element(&indices), v);
                        }
                    }
                    IterOp::Pc(PcOp::Mark(step)) => ctx.mark(step),
                    IterOp::Pc(PcOp::Transfer) => ctx.transfer(),
                }
            }
        });
        if store.into_store() != sequential {
            any_divergence = true;
            break;
        }
    }
    assert!(any_divergence, "skipping dist-1 waits should corrupt the result");
}
