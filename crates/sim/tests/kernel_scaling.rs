//! The kernel's host-independent scaling contract, stated in
//! [`KernelCounters`]: a stepped cycle costs O(processors that act), so
//! processor visits per simulator operation do not grow with the
//! machine, a broadcast writes one image word per bus domain — and the
//! two step modes differ in nothing but how many cycles they step and
//! how many processors they visit.
//!
//! The workloads here are hand-built from [`Instr`]; the same gate on
//! compiled schemes (Fig 2.1, the `perf --check` rows) is
//! `bench::scale::visit_gate`, tested in crates/bench.

use datasync_sim::{
    run, run_reference, FabricKind, FaultPlan, Instr, KernelCounters, MachineConfig, Pred, Program,
    RecoveryPolicy, Workload,
};

/// One program per processor, statically assigned.
fn one_each(p: usize, program: impl Fn(u64) -> Vec<Instr>) -> Workload {
    let programs = (0..p as u64).map(|i| Program::from_instrs(program(i))).collect();
    Workload::static_assigned(programs, (0..p).map(|i| vec![i]).collect())
}

/// A barrier hot-spot: every processor runs 4 rounds of compute → RMW
/// one counter → wait for the round total.
fn hotspot(p: usize) -> Workload {
    let round = |r: u64| {
        [
            Instr::Compute(200),
            Instr::SyncRmw { var: 0 },
            Instr::SyncWait { var: 0, pred: Pred::Geq(r * p as u64) },
        ]
    };
    one_each(p, |_| (1..=4).flat_map(round).collect())
}

/// A Doacross chain on one counter: processor `i` waits for `i`, then
/// posts `i + 1` — P spinners with P distinct thresholds, one of which
/// each broadcast satisfies.
fn chain(p: usize) -> Workload {
    one_each(p, |i| {
        vec![
            Instr::Compute(100),
            Instr::SyncWait { var: 0, pred: Pred::Geq(i) },
            Instr::SyncSet { var: 0, val: i + 1 },
        ]
    })
}

#[test]
fn visits_per_op_do_not_grow_with_the_machine() {
    let ratio = |w: Workload| {
        let out = run(&MachineConfig::with_processors(w.programs.len()), &w).unwrap();
        out.kernel.visits_per_op(&out.stats)
    };
    for (workload, small, large) in [
        ("barrier hot-spot (flat)", ratio(hotspot(64)), ratio(hotspot(1024))),
        ("doacross chain", ratio(chain(64)), ratio(chain(1024))),
    ] {
        assert!(
            KernelCounters::p_independent(small, large),
            "{workload}: {small:.3} visits/op at P=64, {large:.3} at P=1024"
        );
    }
}

#[test]
fn a_broadcast_writes_one_image_word_per_bus_domain_whatever_p_is() {
    for p in [64, 1024] {
        let flat = run(&MachineConfig::with_processors(p), &hotspot(p)).unwrap();
        assert_eq!(flat.kernel.image_words, flat.stats.sync_broadcasts, "flat, P={p}");
        assert_eq!(flat.kernel.words_per_broadcast(&flat.stats), 1.0, "flat, P={p}");

        // Two-level: one word per bus broadcast, `clusters` per forward.
        let clusters = p as u64 / 32;
        let config =
            MachineConfig::with_processors(p).fabric(FabricKind::clustered(clusters as u32));
        let out = run(&config, &hotspot(p)).unwrap();
        assert_eq!(
            out.kernel.image_words,
            out.stats.sync_broadcasts + clusters * out.stats.bridge_broadcasts,
            "clustered, P={p}"
        );
    }
}

#[test]
fn step_modes_differ_only_in_cycles_stepped_and_processors_visited() {
    let chaos = MachineConfig::with_processors(96)
        .with_faults(FaultPlan::chaos(7, 30))
        .with_recovery(RecoveryPolicy::Full);
    for config in [
        MachineConfig::with_processors(8),
        MachineConfig::with_processors(96),
        MachineConfig::with_processors(96).fabric(FabricKind::clustered(4)),
        chaos,
    ] {
        let w = hotspot(config.processors);
        let (ff, rf) = (run(&config, &w).unwrap(), run_reference(&config, &w).unwrap());
        assert_eq!(ff.stats, rf.stats);
        let (f, r) = (ff.kernel, rf.kernel);
        assert_eq!(
            (f.calendar_drains, f.waiter_walks, f.accounting_flushes, f.image_words),
            (r.calendar_drains, r.waiter_walks, r.accounting_flushes, r.image_words),
            "calendar, waiter index, accounting and images run the same in both modes"
        );
        // The reference stepper steps every cycle and visits everyone.
        assert_eq!((r.stepped_cycles, r.quiet_jumps), (rf.stats.makespan, 0));
        assert_eq!(r.procs_visited, rf.stats.makespan * config.processors as u64);
        assert!(f.stepped_cycles < r.stepped_cycles && f.procs_visited < r.procs_visited);
        assert_eq!(ff.kernel, run(&config, &w).unwrap().kernel, "counters are deterministic");
    }
}
