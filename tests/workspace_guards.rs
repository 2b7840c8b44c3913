//! Tier-1 guards for contracts whose full suites live in the member
//! crates (`cargo test -q` at the root runs only this package): the
//! simulator kernel's two step modes must stay bit-identical, and its
//! lazy cycle accounting must conserve every cycle.
//!
//! One cell per sync fabric at P = 128 — above the wake calendar's
//! scan threshold, so the bucket-ring `drain_due` path runs — under
//! dynamic and static dispatch, fault-free and with processor stalls,
//! lost image updates and fail-stopped processors healed by the full
//! recovery ladder.

use datasync_repro::loopir::analysis::analyze;
use datasync_repro::loopir::space::IterSpace;
use datasync_repro::loopir::workpatterns::fig21_loop;
use datasync_repro::schemes::scheme::Scheme;
use datasync_repro::schemes::{CompiledLoop, StatementOriented};
use datasync_repro::sim::{
    FabricKind, FaultPlan, MachineConfig, RecoveryPolicy, RunOutcome, StepMode, Workload,
};

const PROCS: usize = 128;

/// Fig 2.1, two iterations per processor, compiled statement-oriented
/// (the dedicated-transport scheme, so every fabric carries its sync
/// traffic).
fn compiled() -> CompiledLoop {
    let nest = fig21_loop(2 * PROCS as i64);
    StatementOriented::new().compile(&nest, &analyze(&nest), &IterSpace::of(&nest))
}

/// Runs with event recording on; the chosen cells all complete.
fn run(cell: &CompiledLoop, config: &MachineConfig, mode: StepMode) -> RunOutcome {
    cell.run_traced_with(config, mode, 1 << 16).unwrap_or_else(|e| {
        let e = e.to_string();
        panic!("the cell must complete: {}…", &e[..e.len().min(200)])
    })
}

#[test]
fn step_modes_are_bit_identical_and_every_cycle_is_accounted() {
    let faults = FaultPlan {
        seed: 7,
        stall_mean_interval: 300,
        stall_max: 40,
        broadcast_loss_pct: 10,
        fail_stop_procs: 2,
        fail_stop_window: 600,
        ..FaultPlan::none()
    };
    // The compiled (dynamic) loop and its static-cyclic twin.
    let dynamic = compiled();
    let fixed = CompiledLoop {
        workload: Workload::static_cyclic(dynamic.workload.programs.clone(), PROCS),
        ..dynamic.clone()
    };
    let cells = [("dynamic", dynamic), ("static", fixed)];
    let fabrics = [
        FabricKind::Dedicated,
        FabricKind::Shared,
        FabricKind::Ideal,
        FabricKind::Clustered { clusters: 4, bridge_latency: 2, coalesce_window: 4 },
    ];
    for fabric in fabrics {
        for (dispatch, cell) in &cells {
            for faulted in [false, true] {
                let what = format!("{fabric} {dispatch} faulted={faulted}");
                let mut config = MachineConfig::with_processors(PROCS).fabric(fabric);
                if faulted {
                    config = config.with_faults(faults).with_recovery(RecoveryPolicy::Full);
                }
                let fast = run(cell, &config, StepMode::FastForward);
                let slow = run(cell, &config, StepMode::Reference);
                assert_eq!(fast.stats, slow.stats, "{what}: stats diverged");
                assert_eq!(fast.trace, slow.trace, "{what}: trace diverged");
                assert_eq!(fast.sync_final, slow.sync_final, "{what}: sync state diverged");
                assert_eq!(fast.metrics, slow.metrics, "{what}: metrics diverged");
                assert_eq!(fast.events, slow.events, "{what}: event streams diverged");
                for (p, b) in fast.stats.procs.iter().enumerate() {
                    assert_eq!(b.total(), fast.stats.makespan, "{what}: processor {p} {b:?}");
                }
                if faulted {
                    let f = &fast.stats.faults;
                    assert!(f.stalls > 0 && f.fail_stops > 0, "{what}: faults must fire: {f:?}");
                    assert!(fast.stats.procs.iter().any(|b| b.dead > 0), "{what}");
                }
                assert!(
                    fast.kernel.procs_visited < slow.kernel.procs_visited / 8,
                    "{what}: fast-forward visits only processors that act"
                );
            }
        }
    }
}
