//! Deterministic chaos fuzzing of the simulated machine.
//!
//! A master seed expands into thousands of random fuzz cells, each a
//! [`Cell`]: a scheme, a fabric, a machine size and a randomly
//! composed [`FaultPlan`] that may mix every fault class — including
//! the unbounded ones (broadcast loss, processor fail-stop) that the
//! per-class robustness matrix sweeps one at a time. Every cell runs
//! with the full recovery ladder armed and is checked against the
//! machine's cross-cutting invariants:
//!
//! 1. **Mode bit-identity** — the fast-forward kernel and per-cycle
//!    reference stepping produce identical stats, trace and final sync
//!    state (or the identical detected failure).
//! 2. **Dependence oracle** — a run that completes must validate every
//!    dependence obligation of its compiled loop.
//! 3. **Trace monotonicity** — trace events are recorded in
//!    nondecreasing cycle order.
//! 4. **Stat conservation** — every processor's cycle breakdown sums to
//!    the makespan; every program is dispatched at least once on a
//!    completed run; fault and recovery counters stay consistent with
//!    the plan (no more fail-stops than victims planned, a
//!    reconfiguration implies a fail-stop).
//!
//! A violated cell is [`shrink`]-ed to a minimal reproducer — greedily
//! zeroing whole fault classes, then halving intensities, then shrinking
//! the workload and machine — and written as a flat, replayable JSON
//! document ([`Cell::to_json`]); `datasync chaos --replay FILE`
//! re-runs it byte-exact from the JSON alone.

use datasync_schemes::cell::{Cell, SCHEME_KEYS};
use datasync_sim::{
    CacheModel, CoherenceProtocol, FabricKind, FaultClass, FaultPlan, SplitMix64, StepMode,
};

/// Deterministically generates fuzz cell `index` of master `seed`.
/// The same `(seed, index)` always yields the same cell, so a soak
/// can fan cells across threads and still reproduce any of them.
pub fn generate(seed: u64, index: usize) -> Cell {
    let golden = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = SplitMix64::new(seed ^ golden.wrapping_mul(index as u64 + 1));
    let scheme = SCHEME_KEYS[rng.range_usize(0, SCHEME_KEYS.len() - 1)].to_string();
    // Powers of two keep the barrier scheme's butterfly well formed;
    // odd sizes are exercised by the non-barrier schemes.
    let mut processors = rng.range_usize(2, 4);
    if scheme == "barrier" && !processors.is_power_of_two() {
        processors = 4;
    }
    let mut fabric = FabricKind::ALL[rng.range_usize(0, FabricKind::ALL.len() - 1)];
    // One cell in three swaps the flat fabric for the two-level
    // clustered one, drawing a cluster count that divides P plus a
    // bridge latency and coalescing window.
    if rng.chance_pct(33) {
        let divisors: Vec<u32> = (1..=processors as u32)
            .filter(|c| (processors as u32).is_multiple_of(*c))
            .collect();
        fabric = FabricKind::Clustered {
            clusters: divisors[rng.range_usize(0, divisors.len() - 1)],
            bridge_latency: rng.range_u32(1, 4),
            coalesce_window: rng.range_u32(0, 8),
        };
    }
    let iterations = rng.range_i64(4, 14);
    // Two cells in five run with private caches (most stay cacheless,
    // matching the paper's machine), split across the protocols,
    // geometries and the sync-cacheability bit.
    let cache = if rng.chance_pct(40) {
        let protocol = CoherenceProtocol::ALL[rng.range_usize(0, 1)];
        let sets = [4u32, 16, 64][rng.range_usize(0, 2)];
        let assoc = [1u32, 2][rng.range_usize(0, 1)];
        let line = [2u32, 4][rng.range_usize(0, 1)];
        let model = CacheModel::private(protocol).geometry(sets, assoc, line);
        if rng.chance_pct(25) {
            model.sync_uncached()
        } else {
            model
        }
    } else {
        CacheModel::None
    };
    let mut plan = FaultPlan { seed: rng.next_u64(), ..FaultPlan::none() };
    // One cell in ten is a fault-free control; the rest mix classes
    // independently, each with its own intensity draw, so cells are
    // lopsided rather than uniformly shaken.
    if rng.chance_pct(90) {
        for class in FaultClass::ALL {
            if rng.chance_pct(45) {
                // `overlay`, not `FaultPlan::chaos`: the fuzzer *wants* the
                // unbounded classes in the mix.
                plan = plan.overlay(FaultPlan::only(class, plan.seed, rng.range_u32(10, 100)));
            }
        }
    }
    Cell { scheme, fabric, iterations, processors, cache, plan }
}

/// Zeroes every field of `class` in the plan (the shrinker's coarsest
/// move: drop a whole fault class).
fn without_class(mut plan: FaultPlan, class: FaultClass) -> FaultPlan {
    match class {
        FaultClass::BroadcastDelay => {
            plan.broadcast_delay_pct = 0;
            plan.broadcast_delay_max = 0;
        }
        FaultClass::BroadcastReorder => plan.broadcast_reorder_pct = 0,
        FaultClass::BroadcastDrop => {
            plan.broadcast_drop_pct = 0;
            plan.max_redeliveries = 0;
        }
        FaultClass::StaleImage => {
            plan.stale_image_pct = 0;
            plan.stale_window_max = 0;
        }
        FaultClass::ProcStall => {
            plan.stall_mean_interval = 0;
            plan.stall_max = 0;
        }
        FaultClass::DataJitter => {
            plan.data_jitter_pct = 0;
            plan.data_jitter_max = 0;
        }
        FaultClass::BroadcastLoss => plan.broadcast_loss_pct = 0,
        FaultClass::ProcFailStop => {
            plan.fail_stop_procs = 0;
            plan.fail_stop_window = 0;
        }
    }
    plan
}

/// Runs one fuzz cell and checks every machine invariant.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
/// A *detected* failure (deadlock proof or timeout) is not a violation
/// as long as both stepping modes report it identically — the fuzzer
/// polices silent wrongness, not honest wedges.
pub fn run_case(case: &Cell) -> Result<(), String> {
    let (compiled, config) = case.compile()?;
    let fast = compiled.run_with(&config, StepMode::FastForward);
    let reference = compiled.run_with(&config, StepMode::Reference);
    let out = match (fast, reference) {
        (Ok(f), Ok(r)) => {
            if f.stats != r.stats {
                return Err("mode divergence: fast-forward and reference stats differ".into());
            }
            if f.trace != r.trace {
                return Err("mode divergence: fast-forward and reference traces differ".into());
            }
            if f.sync_final != r.sync_final {
                return Err("mode divergence: final sync state differs".into());
            }
            f
        }
        (Err(f), Err(r)) => {
            return if f == r {
                Ok(())
            } else {
                Err(format!(
                    "mode divergence: fast-forward failed with {f:?}, reference with {r:?}"
                ))
            };
        }
        (f, r) => {
            return Err(format!(
                "mode divergence: fast-forward ok = {}, reference ok = {}",
                f.is_ok(),
                r.is_ok()
            ));
        }
    };
    // Dependence oracle: a completed run must order every obligation.
    if let Some(first) = compiled.validate(&out).into_iter().next() {
        return Err(format!("order violation: {first}"));
    }
    // Trace monotonicity: events are recorded as cycles advance.
    if let Some(w) = out.trace.events().windows(2).find(|w| w[1].cycle < w[0].cycle) {
        return Err(format!(
            "trace regression: event at cycle {} recorded after cycle {}",
            w[1].cycle, w[0].cycle
        ));
    }
    // Stat conservation: each processor's breakdown partitions the run.
    for (i, p) in out.stats.procs.iter().enumerate() {
        let total = p.busy + p.spin + p.blocked + p.idle + p.stalled + p.dead;
        if total != out.stats.makespan {
            return Err(format!(
                "stat leak: proc {i} breakdown sums to {total}, makespan {}",
                out.stats.makespan
            ));
        }
    }
    if out.stats.dispatched < compiled.workload.programs.len() as u64 {
        return Err(format!(
            "lost work: only {} dispatches for {} programs on a completed run",
            out.stats.dispatched,
            compiled.workload.programs.len()
        ));
    }
    if out.stats.faults.fail_stops > u64::from(case.plan.fail_stop_procs) {
        return Err(format!(
            "fault overrun: {} fail-stops, plan allowed {}",
            out.stats.faults.fail_stops, case.plan.fail_stop_procs
        ));
    }
    if out.stats.recovery.reconfigured() && out.stats.faults.fail_stops == 0 {
        return Err("phantom reconfiguration: rescue rungs fired with no fail-stop".into());
    }
    // Broadcast conservation on fault-free control cells (faults add
    // redeliveries and refresh grants on top, so only the clean cells
    // pin the identities exactly): issued ops fold into broadcasts +
    // coalesced, and on the clustered fabric every broadcast either
    // crosses the bridge or aggregates into a pending forward.
    let fault_free = case.plan == FaultPlan { seed: case.plan.seed, ..FaultPlan::none() };
    if fault_free {
        if out.stats.sync_ops_issued != out.stats.sync_broadcasts + out.stats.coalesced_writes {
            return Err(format!(
                "conservation leak: {} issued != {} broadcasts + {} coalesced",
                out.stats.sync_ops_issued, out.stats.sync_broadcasts, out.stats.coalesced_writes
            ));
        }
        if case.fabric.is_clustered() {
            if out.stats.sync_broadcasts != out.stats.bridge_broadcasts + out.stats.bridge_coalesced
            {
                return Err(format!(
                    "bridge conservation leak: {} broadcasts != {} bridged + {} aggregated",
                    out.stats.sync_broadcasts,
                    out.stats.bridge_broadcasts,
                    out.stats.bridge_coalesced
                ));
            }
        } else if out.stats.bridge_broadcasts + out.stats.bridge_coalesced != 0 {
            return Err("phantom bridge traffic on a flat fabric".into());
        }
    }
    Ok(())
}

/// Greedily shrinks a failing case to a minimal reproducer under an
/// arbitrary failure predicate: drop whole fault classes, then halve
/// every intensity, then shrink the workload and the machine —
/// accepting each move only while the predicate still fails, until a
/// full pass changes nothing.
pub fn shrink_with(case: &Cell, fails: impl Fn(&Cell) -> bool) -> Cell {
    let mut current = case.clone();
    loop {
        let mut improved = false;
        // Coarsest first: remove whole fault classes.
        for class in FaultClass::ALL {
            let cand = Cell { plan: without_class(current.plan, class), ..current.clone() };
            if cand.plan != current.plan && fails(&cand) {
                current = cand;
                improved = true;
            }
        }
        // Halve every surviving intensity and magnitude.
        let p = current.plan;
        let halved = FaultPlan {
            seed: p.seed,
            broadcast_delay_pct: p.broadcast_delay_pct / 2,
            broadcast_delay_max: p.broadcast_delay_max / 2,
            broadcast_reorder_pct: p.broadcast_reorder_pct / 2,
            broadcast_drop_pct: p.broadcast_drop_pct / 2,
            max_redeliveries: p.max_redeliveries,
            stale_image_pct: p.stale_image_pct / 2,
            stale_window_max: p.stale_window_max / 2,
            stall_mean_interval: p.stall_mean_interval.saturating_mul(2).min(8000),
            stall_max: p.stall_max / 2,
            data_jitter_pct: p.data_jitter_pct / 2,
            data_jitter_max: p.data_jitter_max / 2,
            broadcast_loss_pct: p.broadcast_loss_pct / 2,
            fail_stop_procs: p.fail_stop_procs.min(1),
            fail_stop_window: p.fail_stop_window,
        };
        let cand = Cell { plan: halved, ..current.clone() };
        if cand.plan != current.plan && fails(&cand) {
            current = cand;
            improved = true;
        }
        // Drop the cache layer: a reproducer that still fails on the
        // cacheless machine is simpler to reason about.
        if current.cache.enabled() {
            let cand = Cell { cache: CacheModel::None, ..current.clone() };
            if fails(&cand) {
                current = cand;
                improved = true;
            }
        }
        // Flatten the fabric: a reproducer on the plain dedicated bus
        // beats a two-level one.
        if current.fabric.is_clustered() {
            let cand = Cell { fabric: FabricKind::Dedicated, ..current.clone() };
            if fails(&cand) {
                current = cand;
                improved = true;
            }
        }
        // Shrink the workload, then the machine.
        if current.iterations > 2 {
            let cand = Cell { iterations: current.iterations / 2, ..current.clone() };
            if fails(&cand) {
                current = cand;
                improved = true;
            }
        }
        if current.processors > 2 {
            let mut cand = Cell { processors: 2, ..current.clone() };
            // Keep a surviving clustered geometry legal on the smaller
            // machine (the cluster count must divide P).
            if let FabricKind::Clustered { clusters, .. } = &mut cand.fabric {
                *clusters = (*clusters).min(2);
            }
            if fails(&cand) {
                current = cand;
                improved = true;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// [`shrink_with`] under the real failure predicate ([`run_case`]).
pub fn shrink(case: &Cell) -> Cell {
    shrink_with(case, |c| run_case(c).is_err())
}

/// One soak failure: the original cell, what it violated, and its
/// shrunk minimal reproducer.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Index of the cell in the soak (`generate(seed, index)`).
    pub index: usize,
    /// The violated invariant, human-readable.
    pub what: String,
    /// The cell as generated.
    pub case: Cell,
    /// The shrunk minimal reproducer.
    pub minimal: Cell,
}

/// A completed soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Cells run.
    pub cases: usize,
    /// Master seed the cells expanded from.
    pub seed: u64,
    /// Invariant violations, each with its minimal reproducer.
    pub failures: Vec<ChaosFailure>,
}

/// Runs `cases` fuzz cells expanded from `seed`, in parallel, and
/// shrinks every violation to a minimal reproducer.
pub fn soak(cases: usize, seed: u64) -> SoakReport {
    let jobs: Vec<usize> = (0..cases).collect();
    let failures = datasync_core::par::par_map(jobs, |index| {
        let case = generate(seed, index);
        run_case(&case).err().map(|what| (index, case, what))
    })
    .into_iter()
    .flatten()
    .map(|(index, case, what)| {
        let minimal = shrink(&case);
        ChaosFailure { index, what, case, minimal }
    })
    .collect();
    SoakReport { cases, seed, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = generate(1989, 7);
        let b = generate(1989, 7);
        assert_eq!(a, b, "same (seed, index) must yield the same cell");
        let cells: Vec<Cell> = (0..40).map(|i| generate(1989, i)).collect();
        let schemes: std::collections::HashSet<&str> =
            cells.iter().map(|c| c.scheme.as_str()).collect();
        assert!(schemes.len() >= 3, "40 cells should span several schemes: {schemes:?}");
        assert!(
            cells.iter().any(|c| c.plan.fail_stop_procs > 0),
            "the fail-stop class must appear in the mix"
        );
        assert!(
            cells.iter().any(|c| !c.plan.is_active()),
            "some cells should be fault-free controls"
        );
        assert!(cells.iter().any(|c| c.cache.enabled()), "the cache axis must appear in the mix");
        assert!(cells.iter().any(|c| !c.cache.enabled()), "most cells should stay cacheless");
        assert!(
            cells
                .iter()
                .any(|c| matches!(c.cache, CacheModel::Private { cache_sync: false, .. })),
            "the sync-uncached bit should appear in the mix"
        );
    }

    #[test]
    fn clustered_cells_appear_with_legal_geometry_and_every_cell_round_trips() {
        let cells: Vec<Cell> = (0..60).map(|i| generate(1989, i)).collect();
        assert!(
            cells.iter().any(|c| c.fabric.is_clustered()),
            "the clustered-fabric axis must appear in the mix"
        );
        for case in &cells {
            if let FabricKind::Clustered { clusters, .. } = case.fabric {
                assert!(
                    clusters >= 1 && (case.processors as u32).is_multiple_of(clusters),
                    "clusters ({clusters}) must divide P ({})",
                    case.processors
                );
            }
            let doc = case.to_json();
            let back = Cell::from_json(&doc).expect("parse own serialization");
            assert_eq!(*case, back, "round trip changed the case:\n{doc}");
        }
    }

    #[test]
    fn shrinker_flattens_the_fabric_and_keeps_cluster_geometry_legal() {
        let mut case = generate(1989, 0);
        case.processors = 4;
        case.fabric = FabricKind::Clustered { clusters: 4, bridge_latency: 3, coalesce_window: 8 };
        // A predicate indifferent to the fabric lets the shrinker flatten it.
        let min = shrink_with(&case, |_| true);
        assert!(!min.fabric.is_clustered(), "shrinker should flatten the fabric: {min:?}");
        // A predicate that needs the clustered fabric forces the P move to
        // keep the cluster count dividing the shrunk machine.
        let min = shrink_with(&case, |c| c.fabric.is_clustered());
        assert_eq!(min.processors, 2);
        let FabricKind::Clustered { clusters, .. } = min.fabric else {
            panic!("fabric must stay clustered under this predicate")
        };
        assert_eq!(2 % clusters, 0, "clusters ({clusters}) must divide the shrunk P");
    }

    #[test]
    fn replay_runs_from_the_json_alone() {
        let case = generate(7, 5);
        let doc = case.to_json();
        let back = Cell::from_json(&doc).expect("parse");
        assert_eq!(run_case(&back).is_ok(), run_case(&case).is_ok());
    }

    #[test]
    fn smoke_soak_finds_no_violations() {
        let report = soak(50, 1989);
        assert_eq!(report.cases, 50);
        let first = report.failures.first().map(|f| {
            format!("cell {}: {}\nminimal repro:\n{}", f.index, f.what, f.minimal.to_json())
        });
        assert!(report.failures.is_empty(), "{}", first.unwrap_or_default());
    }

    #[test]
    fn shrinker_reaches_a_minimal_reproducer() {
        // A synthetic violation predicate lets the shrink path be
        // demonstrated deterministically without a machine bug: "fails"
        // whenever the stale-image class is active on a big-enough run.
        let case = generate(1989, 2);
        let guilty =
            |c: &Cell| c.plan.stale_image_pct > 0 && c.iterations >= 3 && c.processors >= 2;
        let seeded = Cell {
            plan: case.plan.overlay(FaultPlan::only(FaultClass::StaleImage, case.plan.seed, 80)),
            ..case
        };
        assert!(guilty(&seeded));
        let minimal = shrink_with(&seeded, guilty);
        assert!(guilty(&minimal), "shrinking must preserve the failure");
        // Every innocent class is gone...
        assert_eq!(minimal.plan.broadcast_delay_pct, 0);
        assert_eq!(minimal.plan.broadcast_reorder_pct, 0);
        assert_eq!(minimal.plan.broadcast_drop_pct, 0);
        assert_eq!(minimal.plan.data_jitter_pct, 0);
        assert_eq!(minimal.plan.broadcast_loss_pct, 0);
        assert_eq!(minimal.plan.fail_stop_procs, 0);
        assert_eq!(minimal.plan.stall_mean_interval, 0);
        // ...the guilty one is minimized but present, on a tiny machine
        // stripped of innocent hardware (the cache layer included).
        assert!(minimal.plan.stale_image_pct > 0);
        assert!(minimal.plan.stale_image_pct <= 2, "halving should bottom out near zero");
        assert_eq!(minimal.processors, 2);
        assert!(minimal.iterations <= 3);
        assert_eq!(minimal.cache, CacheModel::None, "the cache drop move should fire");
        // And the reproducer serializes for replay.
        let doc = minimal.to_json();
        assert_eq!(Cell::from_json(&doc).expect("parse"), minimal);
    }

    #[test]
    fn serve_reproducers_replay_through_the_chaos_harness() {
        // A quarantined cell must reload as exactly the machine the
        // service ran — every field, cluster geometry and cache bits
        // included — and replay under the fuzzer's invariants.
        use crate::chaos::run_case;
        use datasync_schemes::Cell;
        use datasync_serve::spec::CellSpec;
        use datasync_sim::{CacheModel, CoherenceProtocol, FabricKind};
        let d = CellSpec { deadline_cycles: 1, ..CellSpec::default() };
        let clustered =
            FabricKind::Clustered { clusters: 2, bridge_latency: 3, coalesce_window: 7 };
        let mesi = CacheModel::private(CoherenceProtocol::Mesi).geometry(4, 1, 2).sync_uncached();
        for spec in [
            CellSpec { seed: 1, ..d.clone() },
            CellSpec { fault_pct: 35, seed: 13, ..d.clone() },
            CellSpec { fault_pct: 60, seed: 99, ..d.clone() },
            CellSpec { fabric: clustered, processors: 2, ..d.clone() },
            CellSpec { cache: mesi, ..d },
        ] {
            let run = datasync_serve::run_cell(&spec);
            let doc = run.reproducer.expect("a 1-cycle deadline quarantines the cell");
            let case = Cell::from_json(&doc).expect("serve reproducers parse as cells");
            assert_eq!(
                case,
                spec.cell(),
                "reloaded reproducer differs from the cell served:\n{doc}"
            );
            run_case(&case).expect("replayed cell holds machine invariants");
        }
    }
}
