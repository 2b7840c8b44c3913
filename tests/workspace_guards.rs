//! Tier-1 guards for contracts whose full suites live in the member
//! crates (`cargo test -q` at the root runs only this package): the
//! simulator kernel's two step modes must stay bit-identical, its
//! lazy cycle accounting must conserve every cycle, and fault-free
//! sync traffic must satisfy both conservation identities. A cell the
//! sweep service quarantines must reload, from its reproducer document
//! alone, as exactly the cell that was run, and a sweep the service
//! has journaled must come back from a second server over the same
//! state directory with nothing recomputed and the same bytes.
//!
//! One cell per sync fabric at P = 128 — above the wake calendar's
//! scan threshold, so the bucket-ring `drain_due` path runs — under
//! dynamic and static dispatch: fault-free, with processor stalls,
//! lost image updates and fail-stopped processors healed by the full
//! recovery ladder, (on the fabrics that have a bus to fault) with
//! reordered, dropped and delayed broadcasts, which is what drives the
//! fault branches of bus grant and completion, and (one cell, on the
//! two-level fabric) with lost and stale image updates heavy enough that
//! images diverge under bridge forwards until a watchdog repair resyncs
//! them.

use datasync_repro::loopir::analysis::analyze;
use datasync_repro::loopir::space::IterSpace;
use datasync_repro::loopir::workpatterns::fig21_loop;
use datasync_repro::schemes::scheme::Scheme;
use datasync_repro::schemes::{Cell, CompiledLoop, StatementOriented};
use datasync_repro::serve::{json, run_cell, CellSpec, ServeConfig, Server};
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

/// What a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// No faults: the conservation identities are exact.
    Clean,
    /// Stalls, lost image updates and fail-stops: the recovery ladder.
    Ladder,
    /// Reordered, dropped and delayed broadcasts: the bus fault branches.
    Queue,
    /// Lost and stale image updates: per-processor image divergence.
    Images,
}

#[test]
fn step_modes_are_bit_identical_and_every_cycle_is_accounted() {
    let ladder = FaultPlan {
        seed: 7,
        stall_mean_interval: 300,
        stall_max: 40,
        broadcast_loss_pct: 10,
        fail_stop_procs: 2,
        fail_stop_window: 600,
        ..FaultPlan::none()
    };
    let queue = FaultPlan {
        seed: 11,
        broadcast_reorder_pct: 20,
        broadcast_drop_pct: 15,
        max_redeliveries: 3,
        broadcast_delay_pct: 20,
        broadcast_delay_max: 6,
        ..FaultPlan::none()
    };
    let images = FaultPlan {
        seed: 13,
        broadcast_loss_pct: 60,
        stale_image_pct: 30,
        stale_window_max: 40,
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
            for plan in [Plan::Clean, Plan::Ladder, Plan::Queue, Plan::Images] {
                if plan == Plan::Queue && fabric == FabricKind::Ideal {
                    continue; // no bus, so nothing to reorder, drop or delay
                }
                if plan == Plan::Images && !(fabric.is_clustered() && *dispatch == "dynamic") {
                    continue; // one cell: Ladder already loses images everywhere
                }
                let what = format!("{fabric} {dispatch} {plan:?}");
                let config = MachineConfig::with_processors(PROCS).fabric(fabric);
                let config = match plan {
                    Plan::Clean => config,
                    Plan::Ladder => config.with_faults(ladder).with_recovery(RecoveryPolicy::Full),
                    // A slow bus, so broadcasts queue up behind each
                    // other and the arbiter has something to reorder.
                    Plan::Queue => MachineConfig { sync_bus_latency: 32, ..config }
                        .with_faults(queue)
                        .with_recovery(RecoveryPolicy::Full),
                    Plan::Images => config.with_faults(images).with_recovery(RecoveryPolicy::Full),
                };
                let fast = run(cell, &config, StepMode::FastForward);
                let slow = run(cell, &config, StepMode::Reference);
                assert_eq!(fast.stats, slow.stats, "{what}: stats diverged");
                assert_eq!(fast.trace, slow.trace, "{what}: trace diverged");
                assert_eq!(fast.sync_final, slow.sync_final, "{what}: sync state diverged");
                assert_eq!(fast.metrics, slow.metrics, "{what}: metrics diverged");
                assert_eq!(fast.events, slow.events, "{what}: event streams diverged");
                let s = &fast.stats;
                for (p, b) in s.procs.iter().enumerate() {
                    assert_eq!(b.total(), s.makespan, "{what}: processor {p} {b:?}");
                }
                let f = &s.faults;
                match plan {
                    // Image faults touch no message in flight, so traffic
                    // is conserved under them exactly as on a clean run.
                    Plan::Clean | Plan::Images => {
                        if plan == Plan::Images {
                            let r = &s.recovery;
                            assert!(
                                f.lost_image_updates > 0 && f.stale_image_updates > 0,
                                "{what}: image faults must fire: {f:?}"
                            );
                            assert!(
                                r.watchdog_repairs > 0 && r.images_repaired > 0,
                                "{what}: the ladder must reach a watchdog repair: {r:?}"
                            );
                        }
                        assert_eq!(
                            s.sync_ops_issued,
                            s.sync_broadcasts + s.coalesced_writes,
                            "{what}: every issued sync op is broadcast or coalesced"
                        );
                        let bridged = s.bridge_broadcasts + s.bridge_coalesced;
                        if fabric.is_clustered() {
                            assert!(s.bridge_broadcasts > 0, "{what}: the bridge must forward");
                            assert_eq!(
                                s.sync_broadcasts, bridged,
                                "{what}: every cluster broadcast is forwarded or folded"
                            );
                        } else {
                            assert_eq!(bridged, 0, "{what}: a flat fabric has no bridge");
                            assert_eq!(fast.metrics.bridge_busy, 0, "{what}");
                        }
                    }
                    Plan::Ladder => {
                        assert!(
                            f.stalls > 0 && f.fail_stops > 0,
                            "{what}: faults must fire: {f:?}"
                        );
                        assert!(s.procs.iter().any(|b| b.dead > 0), "{what}");
                    }
                    Plan::Queue => assert!(
                        f.reordered_broadcasts > 0
                            && f.dropped_broadcasts > 0
                            && f.delayed_broadcasts > 0,
                        "{what}: queue faults must fire: {f:?}"
                    ),
                }
                assert!(
                    fast.kernel.procs_visited < slow.kernel.procs_visited / 8,
                    "{what}: fast-forward visits only processors that act"
                );
            }
        }
    }
}

#[test]
fn a_quarantined_clustered_cell_reloads_as_the_cell_that_ran() {
    let spec = CellSpec {
        fabric: FabricKind::Clustered { clusters: 2, bridge_latency: 3, coalesce_window: 7 },
        processors: 2,
        deadline_cycles: 1,
        ..CellSpec::default()
    };
    let run = run_cell(&spec);
    assert_eq!(run.record.status, "quarantined");
    let doc = run.reproducer.expect("a quarantined cell carries its reproducer");
    assert_eq!(Cell::from_json(&doc).expect("reproducer parses"), spec.cell(), "{doc}");
}

/// Posts `body` to `/sweep` and returns the response's summary object.
fn sweep_summary(addr: std::net::SocketAddr, body: &str) -> json::Json {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let head = format!("POST /sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read to EOF");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let last = response.lines().last().expect("a summary line");
    json::parse(last)
        .expect("summary is JSON")
        .get("summary")
        .expect("summary")
        .clone()
}

#[test]
fn a_served_sweep_resumes_from_its_journal_with_nothing_recomputed() {
    let state_dir =
        std::env::temp_dir().join(format!("datasync-guard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        ..ServeConfig::default()
    };
    // Four cells per (scheme, N, P), one chunk and a bit.
    let body = r#"{"schemes": ["statement", "process", "barrier"], "iterations": [6, 9],
        "processors": [2, 4], "caches": ["none", "mesi"], "fault_pcts": [0, 30],
        "fabrics": ["dedicated", "shared"], "seed": 31}"#;
    let count = |summary: &json::Json, key: &str| summary.get(key).and_then(json::Json::as_u64);
    let first = Server::spawn(config.clone()).expect("spawn");
    let cold = sweep_summary(first.addr(), body);
    assert_eq!((count(&cold, "computed"), count(&cold, "cached")), (Some(96), Some(0)));
    let stopped = first.stop();
    assert!(stopped.drained_clean);
    assert_eq!((stopped.requests, stopped.cells_computed), (1, 96));

    let second = Server::spawn(config).expect("respawn over the same state dir");
    let resumed = sweep_summary(second.addr(), body);
    assert_eq!((count(&resumed, "computed"), count(&resumed, "cached")), (Some(0), Some(96)));
    assert_eq!(
        resumed.get("aggregate_hash").and_then(json::Json::as_str),
        cold.get("aggregate_hash").and_then(json::Json::as_str),
        "a resumed sweep streams the bytes the cold one did"
    );
    assert_eq!(second.stop().cells_computed, 0);
    let _ = std::fs::remove_dir_all(&state_dir);
}
