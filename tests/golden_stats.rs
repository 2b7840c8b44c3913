//! Golden-stat regression pins: one fault-free and one chaos-seeded run
//! per scheme, captured on the pre-refactor monolithic `Machine` and
//! asserted bit-identical ever since. These numbers are the contract the
//! `machine/` decomposition (and the dedicated-bus fabric default) must
//! reproduce exactly — any drift here means the refactor changed
//! simulated behaviour, not just code layout.
//!
//! A second table pins the shared and clustered fabrics (with the
//! bridge and queue-fault counters), captured while they still had
//! arbitration paths of their own, so merging those paths is checked
//! against numbers and not only against itself.
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo test --test golden_stats -- --ignored --nocapture` and paste
//! the printed tables over `GOLDEN` and `GOLDEN-FABRICS`.

use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::{CompiledLoop, Scheme};
use datasync_schemes::{
    BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented,
};
use datasync_sim::{FabricKind, FaultPlan, MachineConfig, RunOutcome};

const PROCS: usize = 4;
const CHAOS_SEED: u64 = 1989;
const CHAOS_INTENSITY: u32 = 45;

/// Everything a run exposes, flattened to a comparable tuple-of-scalars
/// (plus the final sync-variable state verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    makespan: u64,
    busy: u64,
    spin: u64,
    blocked: u64,
    idle: u64,
    stalled: u64,
    data_transactions: u64,
    spin_polls: u64,
    sync_broadcasts: u64,
    coalesced_writes: u64,
    rmw_ops: u64,
    dispatched: u64,
    trace_events: u64,
    data_bus_busy: u64,
    sync_bus_busy: u64,
    bank_busy: u64,
    bank_conflicts: u64,
    wait_episodes: u64,
    wait_cycles: u64,
    wait_max: u64,
    sync_posts: u64,
    sync_rmws: u64,
    sync_waits: u64,
    sync_polls: u64,
    sync_final: Vec<u64>,
}

fn roster() -> Vec<Box<dyn Scheme>> {
    vec![
        Box::new(ReferenceBased::new()),
        Box::new(InstanceBased::new()),
        Box::new(StatementOriented::new()),
        Box::new(ProcessOriented::basic(8)),
        Box::new(ProcessOriented::new(8)),
        Box::new(BarrierPhased::new(PROCS)),
    ]
}

fn fingerprint(compiled: &CompiledLoop, config: &MachineConfig) -> Fingerprint {
    fingerprint_of(&compiled.run(config).expect("golden run must complete"))
}

fn fingerprint_of(out: &RunOutcome) -> Fingerprint {
    let s = &out.stats;
    let m = &out.metrics;
    let t = m.sync_traffic_total();
    Fingerprint {
        makespan: s.makespan,
        busy: s.total_busy(),
        spin: s.total_spin(),
        blocked: s.procs.iter().map(|p| p.blocked).sum(),
        idle: s.procs.iter().map(|p| p.idle).sum(),
        stalled: s.procs.iter().map(|p| p.stalled).sum(),
        data_transactions: s.data_transactions,
        spin_polls: s.spin_polls,
        sync_broadcasts: s.sync_broadcasts,
        coalesced_writes: s.coalesced_writes,
        rmw_ops: s.rmw_ops,
        dispatched: s.dispatched,
        trace_events: out.trace.events().len() as u64,
        data_bus_busy: m.data_bus_busy,
        sync_bus_busy: m.sync_bus_busy,
        bank_busy: m.bank_busy,
        bank_conflicts: m.bank_conflicts,
        wait_episodes: m.wait_episodes(),
        wait_cycles: m.wait_cycles(),
        wait_max: m.wait_max(),
        sync_posts: t.posts,
        sync_rmws: t.rmws,
        sync_waits: t.waits,
        sync_polls: t.polls,
        sync_final: out.sync_final.clone(),
    }
}

/// The fault-free and chaos-seeded configurations every pin runs under.
fn configs(scheme: &dyn Scheme, fabric: FabricKind) -> (MachineConfig, MachineConfig) {
    let clean = MachineConfig {
        sync_transport: scheme.natural_transport(),
        max_cycles: 400_000,
        ..MachineConfig::with_processors(PROCS)
    };
    // The Dedicated pins were captured before the fabric axis existed;
    // assert the default still names the pre-refactor hardware — the
    // dedicated bus — and pin the fabric explicitly so a future default
    // flip cannot silently repoint that contract at another backend.
    assert_eq!(clean.sync_fabric, FabricKind::Dedicated, "golden pins assume the dedicated bus");
    let clean = clean.fabric(fabric);
    let chaos = clean.clone().with_faults(FaultPlan::chaos(CHAOS_SEED, CHAOS_INTENSITY));
    (clean, chaos)
}

fn compile(scheme: &dyn Scheme) -> CompiledLoop {
    let nest = fig21_loop(24);
    scheme.compile(&nest, &analyze(&nest), &IterSpace::of(&nest))
}

fn capture(scheme: &dyn Scheme) -> (Fingerprint, Fingerprint) {
    let compiled = compile(scheme);
    let (clean, chaos) = configs(scheme, FabricKind::Dedicated);
    (fingerprint(&compiled, &clean), fingerprint(&compiled, &chaos))
}

fn fp(v: [u64; 24], sync_final: Vec<u64>) -> Fingerprint {
    Fingerprint {
        makespan: v[0],
        busy: v[1],
        spin: v[2],
        blocked: v[3],
        idle: v[4],
        stalled: v[5],
        data_transactions: v[6],
        spin_polls: v[7],
        sync_broadcasts: v[8],
        coalesced_writes: v[9],
        rmw_ops: v[10],
        dispatched: v[11],
        trace_events: v[12],
        data_bus_busy: v[13],
        sync_bus_busy: v[14],
        bank_busy: v[15],
        bank_conflicts: v[16],
        wait_episodes: v[17],
        wait_cycles: v[18],
        wait_max: v[19],
        sync_posts: v[20],
        sync_rmws: v[21],
        sync_waits: v[22],
        sync_polls: v[23],
        sync_final,
    }
}

/// `(scheme name, clean fingerprint, chaos fingerprint)` captured on the
/// pre-refactor monolith (fig21_loop(24), P=4, chaos seed 1989 @ 45%).
fn golden() -> Vec<(&'static str, Fingerprint, Fingerprint)> {
    // GOLDEN-BEGIN (regenerate with the ignored printer test below)
    vec![
        (
            "reference-based",
            fp(
                [
                    1160, 528, 2632, 1416, 64, 0, 192, 0, 0, 0, 120, 24, 480, 1152, 0, 0, 0, 120,
                    2632, 25, 0, 120, 0, 120,
                ],
                vec![
                    1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 3,
                    2, 1,
                ],
            ),
            fp(
                [
                    3596, 528, 5382, 2778, 577, 5119, 197, 0, 0, 0, 120, 24, 480, 3455, 0, 0, 0,
                    120, 7107, 325, 0, 120, 0, 125,
                ],
                vec![
                    1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 3,
                    2, 1,
                ],
            ),
        ),
        (
            "instance-based",
            fp(
                [
                    2114, 528, 1638, 6202, 88, 0, 351, 69, 0, 0, 0, 24, 376, 2106, 0, 0, 0, 68,
                    1638, 48, 68, 0, 68, 69,
                ],
                vec![
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                ],
            ),
            fp(
                [
                    6338, 528, 3102, 12288, 367, 9067, 354, 72, 0, 0, 0, 24, 376, 6242, 0, 0, 0,
                    68, 4013, 284, 68, 0, 68, 72,
                ],
                vec![
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                ],
            ),
        ),
        (
            "statement-oriented",
            fp(
                [
                    1160, 528, 0, 4048, 64, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 0, 0, 0,
                    96, 0, 209, 0,
                ],
                vec![24, 24, 24, 24],
            ),
            fp(
                [
                    3660, 528, 1767, 6744, 568, 5033, 192, 0, 165, 0, 0, 24, 240, 3357, 2241, 0, 0,
                    35, 2686, 241, 96, 0, 209, 0,
                ],
                vec![24, 24, 24, 24],
            ),
        ),
        (
            "process-oriented (X=8, basic)",
            fp(
                [
                    1160, 528, 0, 4048, 64, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 0, 0, 0,
                    96, 0, 137, 0,
                ],
                vec![
                    103079215104,
                    107374182400,
                    111669149696,
                    115964116992,
                    120259084288,
                    124554051584,
                    128849018880,
                    133143986176,
                ],
            ),
            fp(
                [
                    3330, 528, 904, 7196, 378, 4314, 192, 0, 165, 4, 0, 24, 240, 3232, 1970, 0, 0,
                    18, 1064, 116, 96, 0, 137, 0,
                ],
                vec![
                    103079215104,
                    107374182400,
                    111669149696,
                    115964116992,
                    120259084288,
                    124554051584,
                    128849018880,
                    133143986176,
                ],
            ),
        ),
        (
            "process-oriented (X=8, improved)",
            fp(
                [
                    1160, 528, 0, 4048, 64, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 0, 0, 0,
                    96, 0, 137, 0,
                ],
                vec![
                    103079215104,
                    107374182400,
                    111669149696,
                    115964116992,
                    120259084288,
                    124554051584,
                    128849018880,
                    133143986176,
                ],
            ),
            fp(
                [
                    3330, 528, 904, 7196, 378, 4314, 192, 0, 165, 4, 0, 24, 240, 3232, 1970, 0, 0,
                    18, 1064, 116, 96, 0, 137, 0,
                ],
                vec![
                    103079215104,
                    107374182400,
                    111669149696,
                    115964116992,
                    120259084288,
                    124554051584,
                    128849018880,
                    133143986176,
                ],
            ),
        ),
        (
            "barrier-phased (P=4)",
            fp(
                [
                    1176, 520, 192, 3952, 40, 0, 192, 0, 24, 8, 0, 20, 240, 1152, 24, 0, 0, 16,
                    176, 14, 32, 0, 32, 0,
                ],
                vec![8, 8, 8, 8],
            ),
            fp(
                [
                    3980, 520, 1875, 7572, 192, 5761, 192, 0, 40, 7, 0, 20, 240, 3614, 403, 0, 0,
                    19, 2785, 554, 32, 0, 32, 0,
                ],
                vec![8, 8, 8, 8],
            ),
        ),
    ]
    // GOLDEN-END
}

/// The fabrics the Dedicated table says nothing about. Without these
/// pins Shared and Clustered are only ever checked against themselves
/// (FastForward vs Reference), so a change that moved both step modes
/// identically would pass.
const PINNED_FABRICS: [FabricKind; 2] = [
    FabricKind::Shared,
    FabricKind::Clustered { clusters: 2, bridge_latency: 2, coalesce_window: 4 },
];

/// A [`Fingerprint`] plus the second-level (bridge) and queue-fault
/// counters: `bridge_broadcasts`, `bridge_coalesced`, `bridge_busy`,
/// `dropped_broadcasts`, `reordered_broadcasts`, `delayed_broadcasts`,
/// `delay_cycles`, `stale_deliveries_discarded`, `recovery_cycles`,
/// `recovery_max`.
type FabricPrint = (Fingerprint, [u64; 10]);
/// A pinned [`FabricPrint`] without its `sync_final`.
type FabricRow = ([u64; 24], [u64; 10]);

fn fabric_print(compiled: &CompiledLoop, config: &MachineConfig) -> FabricPrint {
    let out = compiled.run(config).expect("golden run must complete");
    let (s, f) = (&out.stats, &out.stats.faults);
    let extra = [
        s.bridge_broadcasts,
        s.bridge_coalesced,
        out.metrics.bridge_busy,
        f.dropped_broadcasts,
        f.reordered_broadcasts,
        f.delayed_broadcasts,
        f.delay_cycles,
        f.stale_deliveries_discarded,
        f.recovery_cycles,
        f.recovery_max,
    ];
    (fingerprint_of(&out), extra)
}

fn capture_fabric(scheme: &dyn Scheme, fabric: FabricKind) -> (FabricPrint, FabricPrint) {
    let compiled = compile(scheme);
    let (clean, chaos) = configs(scheme, fabric);
    (fabric_print(&compiled, &clean), fabric_print(&compiled, &chaos))
}

/// One `(clean, chaos)` pair of `(scalars, fabric counters)` per scheme
/// in `roster()` order, for each of [`PINNED_FABRICS`] in order —
/// captured at the last commit that still had separate flat and
/// clustered arbitration paths (same loop, P and chaos plan as
/// [`golden`]). `sync_final` is not repeated: the final sync state is a
/// property of the program, so each row is checked against the
/// Dedicated pin's.
fn golden_fabrics() -> [[(FabricRow, FabricRow); 6]; 2] {
    // GOLDEN-FABRICS-BEGIN (regenerate with the ignored printer test below)
    [
        // shared
        [
            // reference-based
            (
                (
                    [
                        1160, 528, 2632, 1416, 64, 0, 192, 0, 0, 0, 120, 24, 480, 1152, 0, 0, 0,
                        120, 2632, 25, 0, 120, 0, 120,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3596, 528, 5382, 2778, 577, 5119, 197, 0, 0, 0, 120, 24, 480, 3455, 0, 0,
                        0, 120, 7107, 325, 0, 120, 0, 125,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
            ),
            // instance-based
            (
                (
                    [
                        2114, 528, 1638, 6202, 88, 0, 351, 69, 0, 0, 0, 24, 376, 2106, 0, 0, 0, 68,
                        1638, 48, 68, 0, 68, 69,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        6338, 528, 3102, 12288, 367, 9067, 354, 72, 0, 0, 0, 24, 376, 6242, 0, 0,
                        0, 68, 4013, 284, 68, 0, 68, 72,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
            ),
            // statement-oriented
            (
                (
                    [
                        1266, 528, 2336, 2062, 138, 0, 192, 0, 96, 0, 0, 24, 240, 1248, 96, 0, 0,
                        70, 2266, 73, 96, 0, 209, 0,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        5609, 528, 7511, 6090, 476, 7831, 192, 0, 174, 0, 0, 24, 240, 5412, 2261,
                        0, 0, 60, 11574, 513, 96, 0, 209, 0,
                    ],
                    [0, 0, 0, 78, 50, 82, 2087, 0, 5732, 407],
                ),
            ),
            // process-oriented (X=8, basic)
            (
                (
                    [
                        1210, 528, 1296, 2871, 145, 0, 192, 0, 46, 50, 0, 24, 240, 1198, 46, 0, 0,
                        45, 1251, 95, 96, 0, 137, 0,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        4699, 528, 4818, 6410, 574, 6466, 192, 0, 104, 42, 0, 24, 240, 4504, 1142,
                        0, 0, 42, 7087, 467, 96, 0, 137, 0,
                    ],
                    [0, 0, 0, 50, 37, 41, 1038, 1, 7937, 645],
                ),
            ),
            // process-oriented (X=8, improved)
            (
                (
                    [
                        1210, 528, 1296, 2871, 145, 0, 192, 0, 46, 50, 0, 24, 240, 1198, 46, 0, 0,
                        45, 1251, 95, 96, 0, 137, 0,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        4699, 528, 4818, 6410, 574, 6466, 192, 0, 104, 42, 0, 24, 240, 4504, 1142,
                        0, 0, 42, 7087, 467, 96, 0, 137, 0,
                    ],
                    [0, 0, 0, 50, 37, 41, 1038, 1, 7937, 645],
                ),
            ),
            // barrier-phased (P=4)
            (
                (
                    [
                        1200, 520, 264, 3976, 40, 0, 192, 0, 32, 0, 0, 20, 240, 1184, 32, 0, 0, 32,
                        232, 20, 32, 0, 32, 0,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        4454, 520, 2934, 7259, 731, 6372, 192, 0, 47, 6, 0, 20, 240, 4105, 578, 0,
                        0, 22, 4622, 633, 32, 0, 32, 0,
                    ],
                    [0, 0, 0, 21, 5, 21, 531, 0, 1119, 243],
                ),
            ),
        ],
        // clustered
        [
            // reference-based
            (
                (
                    [
                        1160, 528, 2632, 1416, 64, 0, 192, 0, 0, 0, 120, 24, 480, 1152, 0, 0, 0,
                        120, 2632, 25, 0, 120, 0, 120,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3596, 528, 5382, 2778, 577, 5119, 197, 0, 0, 0, 120, 24, 480, 3455, 0, 0,
                        0, 120, 7107, 325, 0, 120, 0, 125,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
            ),
            // instance-based
            (
                (
                    [
                        2114, 528, 1638, 6202, 88, 0, 351, 69, 0, 0, 0, 24, 376, 2106, 0, 0, 0, 68,
                        1638, 48, 68, 0, 68, 69,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        6338, 528, 3102, 12288, 367, 9067, 354, 72, 0, 0, 0, 24, 376, 6242, 0, 0,
                        0, 68, 4013, 284, 68, 0, 68, 72,
                    ],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                ),
            ),
            // statement-oriented
            (
                (
                    [
                        1160, 528, 54, 4000, 58, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 18,
                        36, 2, 96, 0, 209, 0,
                    ],
                    [70, 26, 140, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3579, 528, 948, 7363, 295, 5182, 192, 0, 163, 0, 0, 24, 240, 3451, 2248, 0,
                        0, 22, 1340, 176, 96, 0, 209, 0,
                    ],
                    [95, 1, 190, 67, 6, 80, 2085, 0, 2213, 102],
                ),
            ),
            // process-oriented (X=8, basic)
            (
                (
                    [
                        1160, 528, 6, 4042, 64, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 2, 4,
                        2, 96, 0, 137, 0,
                    ],
                    [96, 0, 192, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3313, 528, 691, 7171, 285, 4577, 192, 0, 168, 0, 0, 24, 240, 3202, 2066, 0,
                        0, 17, 1105, 194, 96, 0, 137, 0,
                    ],
                    [94, 2, 188, 72, 8, 75, 1898, 3, 2234, 162],
                ),
            ),
            // process-oriented (X=8, improved)
            (
                (
                    [
                        1160, 528, 6, 4042, 64, 0, 192, 0, 96, 0, 0, 24, 240, 1152, 96, 0, 0, 2, 4,
                        2, 96, 0, 137, 0,
                    ],
                    [96, 0, 192, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3313, 528, 691, 7171, 285, 4577, 192, 0, 168, 0, 0, 24, 240, 3202, 2066, 0,
                        0, 17, 1105, 194, 96, 0, 137, 0,
                    ],
                    [94, 2, 188, 72, 8, 75, 1898, 3, 2234, 162],
                ),
            ),
            // barrier-phased (P=4)
            (
                (
                    [
                        1176, 520, 258, 3880, 46, 0, 192, 0, 24, 8, 0, 20, 240, 1152, 24, 0, 0, 16,
                        242, 20, 32, 0, 32, 0,
                    ],
                    [24, 0, 48, 0, 0, 0, 0, 0, 0, 0],
                ),
                (
                    [
                        3873, 520, 1775, 7704, 310, 5183, 192, 0, 45, 6, 0, 20, 240, 3617, 598, 0,
                        0, 18, 2841, 352, 32, 0, 32, 0,
                    ],
                    [26, 0, 52, 19, 0, 24, 553, 0, 591, 84],
                ),
            ),
        ],
    ]
    // GOLDEN-FABRICS-END
}

#[test]
fn dedicated_bus_reproduces_pre_refactor_stats() {
    let pins = golden();
    assert_eq!(pins.len(), roster().len(), "golden table missing schemes");
    for (scheme, (name, clean, chaos)) in roster().iter().zip(pins) {
        assert_eq!(scheme.name(), name, "roster order changed");
        let (got_clean, got_chaos) = capture(scheme.as_ref());
        assert_eq!(got_clean, clean, "{name}: clean run drifted from pre-refactor golden");
        assert_eq!(got_chaos, chaos, "{name}: chaos run drifted from pre-refactor golden");
    }
}

#[test]
fn shared_and_clustered_reproduce_split_path_stats() {
    let dedicated = golden();
    for (fabric, rows) in PINNED_FABRICS.into_iter().zip(golden_fabrics()) {
        for ((scheme, (name, pin, _)), (clean, chaos)) in roster().iter().zip(&dedicated).zip(rows)
        {
            assert_eq!(scheme.name(), *name, "roster order changed");
            let (got_clean, got_chaos) = capture_fabric(scheme.as_ref(), fabric);
            let want = |(scalars, extra): FabricRow| (fp(scalars, pin.sync_final.clone()), extra);
            assert_eq!(got_clean, want(clean), "{name} on {fabric}: clean run drifted");
            assert_eq!(got_chaos, want(chaos), "{name} on {fabric}: chaos run drifted");
        }
    }
}

/// Prints the `golden()` and `golden_fabrics()` bodies for the current
/// code. Run with `cargo test --test golden_stats -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_golden_table() {
    fn scalars(f: &Fingerprint) -> [u64; 24] {
        [
            f.makespan,
            f.busy,
            f.spin,
            f.blocked,
            f.idle,
            f.stalled,
            f.data_transactions,
            f.spin_polls,
            f.sync_broadcasts,
            f.coalesced_writes,
            f.rmw_ops,
            f.dispatched,
            f.trace_events,
            f.data_bus_busy,
            f.sync_bus_busy,
            f.bank_busy,
            f.bank_conflicts,
            f.wait_episodes,
            f.wait_cycles,
            f.wait_max,
            f.sync_posts,
            f.sync_rmws,
            f.sync_waits,
            f.sync_polls,
        ]
    }
    println!("vec![");
    for scheme in roster() {
        let (clean, chaos) = capture(scheme.as_ref());
        println!("        (\n            \"{}\",", scheme.name());
        println!("            fp({:?}, vec!{:?}),", scalars(&clean), clean.sync_final);
        println!("            fp({:?}, vec!{:?}),", scalars(&chaos), chaos.sync_final);
        println!("        ),");
    }
    println!("    ]");
    println!("    [");
    for fabric in PINNED_FABRICS {
        println!("        // {fabric}");
        println!("        [");
        for scheme in roster() {
            let ((clean, clean_x), (chaos, chaos_x)) = capture_fabric(scheme.as_ref(), fabric);
            println!("            // {}", scheme.name());
            println!(
                "            (({:?}, {clean_x:?}), ({:?}, {chaos_x:?})),",
                scalars(&clean),
                scalars(&chaos)
            );
        }
        println!("        ],");
    }
    println!("    ]");
}
