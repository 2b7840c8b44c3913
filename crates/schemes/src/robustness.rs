//! Scheme degradation under deterministic fault injection.
//!
//! The paper argues (Section 6) that its process-oriented scheme tolerates
//! the realities of a broadcast synchronization bus. This module stresses
//! that claim: it sweeps every scheme across every fault class at several
//! intensities and classifies each run into exactly one of seven outcomes —
//! completes-and-validates, completes-after-self-healing ([`Outcome::
//! Recovered`]), completes-after-fail-stop-reconfiguration ([`Outcome::
//! Reconfigured`]), completes-on-the-conservative-fallback ([`Outcome::
//! Degraded`]), detected deadlock, timeout, or dependence-order violation.
//! There is no silent eighth outcome: the simulator's progress watchdog
//! plus the `max_cycles` cap guarantee every run terminates, and trace
//! validation runs on every completion — including recovered and degraded
//! ones, so a healed run that reordered dependences would still be caught.
//!
//! Every cell of the sweep runs through [`Cell::run`], the same ladder
//! the sweep service uses. With [`RecoveryPolicy::Full`], a run the
//! machine cannot heal (its wait-for proof shows an edge unsatisfied even
//! globally — e.g. a conditional post whose guard read a lossy image) is
//! re-run under a conservative fallback scheme: correctness is preserved
//! at a performance cost, which is exactly what "graceful degradation"
//! means here.
//!
//! [`RecoveryPolicy::Full`]: datasync_sim::RecoveryPolicy::Full

use crate::cell::{scheme_for, Cell, SCHEME_KEYS};
use crate::scheme::CompiledLoop;
use datasync_sim::{FabricKind, FaultClass, FaultPlan, MachineConfig, SimError};

/// The exhaustive classification of one faulted run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The run finished and its trace satisfies every dependence
    /// obligation.
    Completed {
        /// Total cycles.
        makespan: u64,
        /// Faults actually injected.
        faults_injected: u64,
        /// Worst single-broadcast recovery latency (cycles).
        recovery_max: u64,
        /// Fraction of the makespan the data bus was held.
        data_bus_occupancy: f64,
        /// Fraction of the makespan the sync bus was held.
        sync_bus_occupancy: f64,
        /// Longest completed wait episode (cycles).
        wait_max: u64,
    },
    /// The run finished and validated, but only because the self-healing
    /// ladder intervened (gap NACKs and/or watchdog repairs fired).
    Recovered {
        /// Total cycles.
        makespan: u64,
        /// Recovery actions taken (gap NACKs + watchdog repairs).
        actions: u64,
        /// Watchdog repair rungs among those actions.
        watchdog_repairs: u64,
        /// Longest healed wait episode (cycles) — the recovery latency.
        heal_latency_max: u64,
    },
    /// The run finished and validated, but only because the machine
    /// reconfigured around a fail-stopped processor: the rescue rung
    /// reclaimed the dead processor's unretired work and reissued it to
    /// the survivor quorum. One rung below [`Outcome::Recovered`] on the
    /// ladder — the machine lost a participant, not just messages.
    Reconfigured {
        /// Total cycles.
        makespan: u64,
        /// Fail-stop rescue rungs that fired.
        rescues: u64,
        /// Unretired programs reclaimed from dead processors.
        reclaimed: u64,
        /// Processors that fail-stopped.
        fail_stops: u64,
    },
    /// The primary scheme wedged beyond repair, but the conservative
    /// fallback scheme completed and validated the same loop: correctness
    /// was preserved at a performance cost.
    Degraded {
        /// Fallback scheme that carried the run.
        fallback: String,
        /// Fallback makespan (cycles).
        makespan: u64,
        /// What the primary scheme did (its matrix cell).
        original: String,
    },
    /// The machine proved no processor can ever progress again (includes
    /// watchdog-detected livelock).
    DeadlockDetected {
        /// Detection cycle.
        cycle: u64,
        /// Stuck processors.
        spinning: Vec<usize>,
    },
    /// The run hit the `max_cycles` safety cap without a deadlock proof.
    TimedOut {
        /// The cap that was hit.
        max_cycles: u64,
    },
    /// The run finished but the trace violates dependence order.
    OrderViolation {
        /// Number of violated obligations.
        violations: usize,
        /// First violation, human-readable.
        first: String,
    },
}

impl Outcome {
    /// Short cell label for the degradation matrix.
    pub fn cell(&self) -> String {
        match self {
            Outcome::Completed { recovery_max, wait_max, .. } => {
                let mut tags = Vec::new();
                if *recovery_max > 0 {
                    tags.push(format!("r{recovery_max}"));
                }
                if *wait_max > 0 {
                    tags.push(format!("w{wait_max}"));
                }
                if tags.is_empty() {
                    "ok".into()
                } else {
                    format!("ok({})", tags.join(","))
                }
            }
            Outcome::Recovered { actions, watchdog_repairs, heal_latency_max, .. } => {
                if *watchdog_repairs > 0 {
                    format!("recovered(a{actions},rep{watchdog_repairs},h{heal_latency_max})")
                } else {
                    format!("recovered(a{actions},h{heal_latency_max})")
                }
            }
            Outcome::Reconfigured { rescues, reclaimed, fail_stops, .. } => {
                format!("reconfigured(x{rescues},p{reclaimed},d{fail_stops})")
            }
            Outcome::Degraded { fallback, .. } => format!("DEGRADED({fallback})"),
            Outcome::DeadlockDetected { .. } => "DEADLOCK".into(),
            Outcome::TimedOut { .. } => "TIMEOUT".into(),
            Outcome::OrderViolation { violations, .. } => format!("VIOLATED({violations})"),
        }
    }

    /// True only for a clean completion (no recovery intervention).
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// True for every outcome that preserved correctness: a clean
    /// completion, a self-healed one, a survivor-quorum reconfiguration,
    /// or a fallback completion. These never lose or reorder work; the
    /// others do (or never finish).
    pub fn is_acceptable(&self) -> bool {
        matches!(
            self,
            Outcome::Completed { .. }
                | Outcome::Recovered { .. }
                | Outcome::Reconfigured { .. }
                | Outcome::Degraded { .. }
        )
    }
}

/// One row of the degradation matrix: a scheme under one fault class at
/// each swept intensity.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Scheme name.
    pub scheme: String,
    /// Sync-fabric backend the row's runs used (`dedicated` / `shared` /
    /// `ideal`).
    pub fabric: String,
    /// Fault class label (or "chaos" for all classes at once).
    pub fault: String,
    /// One outcome per swept intensity.
    pub outcomes: Vec<Outcome>,
}

/// The full degradation matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Intensities swept (percent, column headers).
    pub intensities: Vec<u8>,
    /// Rows, grouped by scheme then fault class.
    pub rows: Vec<MatrixRow>,
    /// The fault seed every cell's plan was built from.
    pub seed: u64,
    /// Loop iteration count the sweep ran.
    pub iterations: i64,
    /// Processor count of every machine in the sweep.
    pub processors: usize,
    /// Recovery policy label (`off` / `repair-only` / `full`).
    pub recovery: String,
}

/// Runs one compiled loop on one config and classifies the result.
///
/// Total by construction: every [`SimError`] maps to a variant
/// (`BadConfig` is a caller bug and panics loudly rather than being
/// silently folded into a fault outcome), and every completion is
/// validated.
pub fn classify_run(compiled: &CompiledLoop, config: &MachineConfig) -> Outcome {
    match compiled.run(config) {
        Ok(out) => {
            // Recovered runs re-validate dependence order like any other:
            // a heal that broke ordering would surface as a violation, not
            // be papered over.
            let problems = compiled.validate(&out);
            if !problems.is_empty() {
                return Outcome::OrderViolation {
                    violations: problems.len(),
                    first: problems.into_iter().next().unwrap_or_default(),
                };
            }
            // Participant loss outranks message loss: a run that needed a
            // fail-stop rescue is Reconfigured even if gap NACKs or
            // watchdog repairs also fired along the way.
            if out.stats.recovery.reconfigured() {
                return Outcome::Reconfigured {
                    makespan: out.stats.makespan,
                    rescues: out.stats.recovery.fail_stop_rescues,
                    reclaimed: out.stats.recovery.programs_reclaimed,
                    fail_stops: out.stats.faults.fail_stops,
                };
            }
            if out.stats.recovery.actions() > 0 {
                return Outcome::Recovered {
                    makespan: out.stats.makespan,
                    actions: out.stats.recovery.actions(),
                    watchdog_repairs: out.stats.recovery.watchdog_repairs,
                    heal_latency_max: out.stats.recovery.heal_latency_max,
                };
            }
            Outcome::Completed {
                makespan: out.stats.makespan,
                faults_injected: out.stats.faults.total(),
                recovery_max: out.stats.faults.recovery_max,
                data_bus_occupancy: out.metrics.data_bus_occupancy(out.stats.makespan),
                sync_bus_occupancy: out.metrics.sync_bus_occupancy(out.stats.makespan),
                wait_max: out.metrics.wait_max(),
            }
        }
        Err(SimError::Deadlock { cycle, spinning, .. }) => {
            Outcome::DeadlockDetected { cycle, spinning }
        }
        Err(SimError::Timeout { max_cycles }) => Outcome::TimedOut { max_cycles },
        Err(SimError::BadConfig(msg)) => {
            panic!("robustness sweep built an invalid config: {msg}")
        }
    }
}

/// Sweeps every scheme x every fault class (plus combined chaos) x every
/// intensity on the paper's Fig 2.1 workload and classifies each run.
///
/// Each cell is a [`Cell`] run by [`Cell::run`] on [`Cell::machine`].
/// Of `base`, the sweep reads the processor count and cache model (the
/// cells' own fields), the recovery policy, and `max_cycles`, a floor
/// under each cell's workload-scaled budget; `sweep` also takes its one
/// fabric from it. `seed` drives all fault randomness: the same seed
/// reproduces the same matrix bit for bit.
///
/// Each cell is an independent simulation (its own machine, its own
/// fault stream), so they are classified in parallel via
/// [`datasync_core::par::par_map`]; results come back in job order, so
/// the matrix is bit-identical to a serial sweep.
pub fn sweep(iterations: i64, base: &MachineConfig, intensities: &[u8], seed: u64) -> Matrix {
    sweep_fabrics(iterations, base, intensities, seed, &[base.sync_fabric])
}

/// [`sweep`] with an explicit fabric axis: the whole scheme x fault x
/// intensity grid is repeated once per [`FabricKind`] in `fabrics`,
/// quantifying how the §6 transport choice changes fault tolerance (the
/// ideal fabric has no lossy bus to fault; the shared fabric exposes
/// sync traffic to data-bus contention on top of the injected faults).
pub fn sweep_fabrics(
    iterations: i64,
    base: &MachineConfig,
    intensities: &[u8],
    seed: u64,
    fabrics: &[FabricKind],
) -> Matrix {
    let cell = |scheme: &str, fabric, plan| Cell {
        scheme: scheme.to_string(),
        fabric,
        iterations,
        processors: base.processors,
        cache: base.cache,
        plan,
    };
    // Every key the machine can build (barrier needs a power of two),
    // compiled once: a cell's loop does not depend on its fabric.
    let schemes: Vec<(&str, String, CompiledLoop)> = SCHEME_KEYS
        .iter()
        .filter_map(|&key| {
            let name = scheme_for(key, base.processors).ok()?.name();
            let compiled =
                cell(key, FabricKind::default(), FaultPlan::none()).compile_loop().ok()?;
            Some((key, name, compiled))
        })
        .collect();
    let mut classes: Vec<(String, Option<FaultClass>)> = FaultClass::ALL
        .iter()
        .map(|&class| (class.label().to_string(), Some(class)))
        .collect();
    classes.push(("chaos".into(), None));
    let mut jobs: Vec<(Cell, &CompiledLoop)> = Vec::new();
    for &fabric in fabrics {
        for (key, _, compiled) in &schemes {
            for (_, class) in &classes {
                for &i in intensities {
                    let plan = match class {
                        Some(c) => FaultPlan::only(*c, seed, i.into()),
                        None => FaultPlan::chaos(seed, i.into()),
                    };
                    jobs.push((cell(key, fabric, plan), compiled));
                }
            }
        }
    }
    let mut outcomes = datasync_core::par::par_map(jobs, |(cell, compiled)| {
        let mut config = cell.machine(compiled).expect("only keys that built a loop are swept");
        config.recovery = base.recovery;
        // Raise (never lower) the sweep's cap to what the cell's machine
        // and fault magnitudes can legitimately need: a flat cap
        // misreports big or heavily-faulted cells as TIMEOUT when they
        // are merely slow.
        let programs = compiled.workload.programs.len();
        config.max_cycles = base.max_cycles.max(config.scaled_max_cycles(programs));
        cell.run(compiled, config).outcome
    })
    .into_iter();
    let mut rows = Vec::new();
    for fabric in fabrics {
        for (_, name, _) in &schemes {
            for (label, _) in &classes {
                rows.push(MatrixRow {
                    scheme: name.clone(),
                    fabric: fabric.to_string(),
                    fault: label.clone(),
                    outcomes: intensities
                        .iter()
                        .map(|_| outcomes.next().expect("one per cell"))
                        .collect(),
                });
            }
        }
    }
    Matrix {
        intensities: intensities.to_vec(),
        rows,
        seed,
        iterations,
        processors: base.processors,
        recovery: base.recovery.to_string(),
    }
}

/// Renders the matrix as an aligned text table. The fabric column only
/// appears when the matrix actually swept more than one fabric, keeping
/// single-fabric output (the common case) unchanged in shape.
pub fn render(matrix: &Matrix) -> String {
    let multi_fabric = matrix.rows.windows(2).any(|w| w[0].fabric != w[1].fabric);
    let mut header = vec!["scheme".to_string()];
    if multi_fabric {
        header.push("fabric".to_string());
    }
    header.push("fault".to_string());
    header.extend(matrix.intensities.iter().map(|i| format!("{i}%")));
    let mut body: Vec<Vec<String>> = Vec::with_capacity(matrix.rows.len());
    for row in &matrix.rows {
        let mut cells = vec![row.scheme.clone()];
        if multi_fabric {
            cells.push(row.fabric.clone());
        }
        cells.push(row.fault.clone());
        cells.extend(row.outcomes.iter().map(Outcome::cell));
        body.push(cells);
    }
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &body {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut s = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                s.push_str("  ");
            }
            s.push_str(cell);
            if c + 1 < cols {
                for _ in cell.len()..widths[c] {
                    s.push(' ');
                }
            }
        }
        s
    };
    let mut out = String::new();
    out.push_str(&fmt_row(&header));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    let mut last_scheme = String::new();
    for row in body {
        if row[0] != last_scheme && !last_scheme.is_empty() {
            out.push('\n');
        }
        last_scheme.clone_from(&row[0]);
        out.push_str(&fmt_row(&row));
        out.push('\n');
    }
    out
}

impl Matrix {
    /// Renders the matrix as a machine-readable JSON document (hand-rolled
    /// like every serializer in this workspace — the repo is
    /// dependency-free by policy).
    ///
    /// Schema version 2: the document carries everything needed to replay
    /// any cell byte-exact from the JSON alone — the sweep parameters
    /// (`seed`, `iterations`, `processors`, `recovery`, `intensities`)
    /// plus, per row, the fault seed its plans were built from. A cell is
    /// replayed as `FaultPlan::only(class_of(row.fault), row.seed,
    /// intensity)` (or `FaultPlan::chaos` for the `chaos` row) on a
    /// machine with the documented processor count and recovery policy.
    pub fn to_json(&self) -> String {
        use datasync_sim::json::escape as esc;
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"schema_version\": 2,\n");
        let _ = write!(
            out,
            "  \"seed\": {},\n  \"iterations\": {},\n  \"processors\": {},\n  \
             \"recovery\": \"{}\",\n",
            self.seed,
            self.iterations,
            self.processors,
            esc(&self.recovery)
        );
        out.push_str("  \"intensities\": [");
        for (i, pct) in self.intensities.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{pct}");
        }
        out.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"scheme\": \"{}\", \"fabric\": \"{}\", \"fault\": \"{}\", \
                 \"seed\": {}, \"cells\": [",
                esc(&row.scheme),
                esc(&row.fabric),
                esc(&row.fault),
                self.seed
            );
            for (j, o) in row.outcomes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", esc(&o.cell()));
            }
            out.push(']');
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let t = Tally::of(self);
        let _ = write!(
            out,
            "  ],\n  \"tally\": {{\"ok\": {}, \"recovered\": {}, \"reconfigured\": {}, \
             \"degraded\": {}, \"deadlock\": {}, \"timeout\": {}, \"violated\": {}}}\n}}\n",
            t.ok, t.recovered, t.reconfigured, t.degraded, t.deadlock, t.timeout, t.violated
        );
        out
    }
}

/// Summary counts over a matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs that completed and validated without recovery intervention.
    pub ok: usize,
    /// Runs the self-healing ladder carried to completion.
    pub recovered: usize,
    /// Runs that survived a fail-stopped processor by reconfiguring to
    /// the survivor quorum.
    pub reconfigured: usize,
    /// Runs rescued by the conservative fallback scheme.
    pub degraded: usize,
    /// Detected deadlocks.
    pub deadlock: usize,
    /// Timeouts.
    pub timeout: usize,
    /// Order violations.
    pub violated: usize,
}

impl Tally {
    /// Counts outcomes across all rows.
    pub fn of(matrix: &Matrix) -> Self {
        let mut t = Tally::default();
        for row in &matrix.rows {
            for o in &row.outcomes {
                match o {
                    Outcome::Completed { .. } => t.ok += 1,
                    Outcome::Recovered { .. } => t.recovered += 1,
                    Outcome::Reconfigured { .. } => t.reconfigured += 1,
                    Outcome::Degraded { .. } => t.degraded += 1,
                    Outcome::DeadlockDetected { .. } => t.deadlock += 1,
                    Outcome::TimedOut { .. } => t.timeout += 1,
                    Outcome::OrderViolation { .. } => t.violated += 1,
                }
            }
        }
        t
    }

    /// Total classified runs.
    pub fn total(&self) -> usize {
        self.ok
            + self.recovered
            + self.reconfigured
            + self.degraded
            + self.deadlock
            + self.timeout
            + self.violated
    }

    /// Runs that preserved correctness (ok + recovered + reconfigured +
    /// degraded).
    pub fn acceptable(&self) -> usize {
        self.ok + self.recovered + self.reconfigured + self.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_sim::RecoveryPolicy;

    fn base() -> MachineConfig {
        let mut c = MachineConfig::with_processors(4);
        c.max_cycles = 3_000_000;
        c
    }

    #[test]
    fn sweep_classifies_every_run() {
        let m = sweep(12, &base(), &[0, 40], 99);
        // 5 schemes (4 procs = power of two, barrier included) x 9 fault
        // rows (8 classes + chaos) x 2 intensities.
        assert_eq!(m.rows.len(), 5 * 9);
        let t = Tally::of(&m);
        assert_eq!(t.total(), 5 * 9 * 2, "no run may go unclassified");
    }

    #[test]
    fn zero_intensity_column_is_all_ok() {
        let m = sweep(12, &base(), &[0], 7);
        for row in &m.rows {
            assert!(
                row.outcomes[0].is_ok(),
                "{} under {} failed fault-free",
                row.scheme,
                row.fault
            );
        }
    }

    #[test]
    fn schemes_survive_moderate_chaos() {
        // The paper's schemes are real synchronization: *bounded* delivery
        // faults slow them down but cannot break them. Broadcast loss is
        // the deliberate exception — with recovery off (the default) it
        // wedges the dedicated-bus schemes, and that wedge must be
        // detected, not silent.
        let m = sweep(10, &base(), &[50], 3);
        let t = Tally::of(&m);
        assert_eq!(t.violated, 0, "faults must never reorder dependences");
        assert_eq!(t.recovered + t.reconfigured + t.degraded, 0, "recovery is off by default");
        let unbounded: Vec<&str> =
            FaultClass::ALL.iter().filter(|c| !c.bounded()).map(|c| c.label()).collect();
        for row in &m.rows {
            let wedged = row.outcomes.iter().filter(|o| !o.is_ok()).count();
            if unbounded.contains(&row.fault.as_str()) {
                continue; // loss and fail-stop are unbounded by design; split out below
            }
            assert_eq!(wedged, 0, "{} under bounded {} must survive", row.scheme, row.fault);
        }
        assert!(t.deadlock > 0, "50% broadcast loss must wedge at least one dedicated-bus scheme");
        let failstop_wedged = m
            .rows
            .iter()
            .filter(|r| r.fault == FaultClass::ProcFailStop.label())
            .any(|r| r.outcomes.iter().any(|o| !o.is_acceptable()));
        assert!(failstop_wedged, "a fail-stopped processor must wedge with recovery off");
    }

    #[test]
    fn recovery_clears_every_wedge_in_the_matrix() {
        // The before/after story: the same sweep that deadlocks under
        // broadcast loss with recovery off has zero DEADLOCK/TIMEOUT
        // cells with the full ladder armed — every loss cell completes
        // as ok, recovered, or (beyond repair) degraded.
        let cfg = MachineConfig { recovery: RecoveryPolicy::Full, ..base() };
        let m = sweep(10, &cfg, &[0, 50, 75], 3);
        let t = Tally::of(&m);
        assert_eq!(t.violated, 0, "healed runs must still validate dependence order");
        assert_eq!(t.deadlock, 0, "full recovery must leave no deadlock cells");
        assert_eq!(t.timeout, 0, "full recovery must leave no timeout cells");
        assert!(t.recovered > 0, "loss cells must show healed runs");
        assert!(t.reconfigured > 0, "fail-stop cells must show survivor-quorum reconfigurations");
        assert_eq!(t.acceptable(), t.total());
    }

    #[test]
    fn failstop_cells_reconfigure_under_full_recovery() {
        // The before/after story for participant loss: every fail-stop
        // cell that wedges with recovery off finishes with the full
        // ladder armed — and the rescued completions re-validated their
        // dependence obligations inside classify_run like any other.
        let off = sweep(10, &base(), &[50, 100], 3);
        let wedged_off = off
            .rows
            .iter()
            .filter(|r| r.fault == FaultClass::ProcFailStop.label())
            .flat_map(|r| &r.outcomes)
            .filter(|o| !o.is_acceptable())
            .count();
        assert!(wedged_off > 0, "fail-stop at 50/100% must wedge some scheme with recovery off");
        let cfg = MachineConfig { recovery: RecoveryPolicy::Full, ..base() };
        let on = sweep(10, &cfg, &[50, 100], 3);
        for row in on.rows.iter().filter(|r| r.fault == FaultClass::ProcFailStop.label()) {
            for o in &row.outcomes {
                assert!(
                    o.is_acceptable(),
                    "{} fail-stop cell must survive under full recovery, got {}",
                    row.scheme,
                    o.cell()
                );
            }
        }
        let t = Tally::of(&on);
        assert!(t.reconfigured > 0, "rescued cells must classify as reconfigured");
        assert_eq!(t.violated, 0, "reconfigured runs must validate dependence order");
    }

    #[test]
    fn fabric_axis_repeats_the_grid_and_shields_the_ideal_backend() {
        use datasync_sim::FabricKind;
        let m = sweep_fabrics(8, &base(), &[0, 50], 3, &FabricKind::ALL);
        // 3 fabrics x 5 schemes x 9 fault rows.
        assert_eq!(m.rows.len(), 3 * 5 * 9);
        let text = render(&m);
        assert!(text.contains("fabric"), "multi-fabric render must show the axis:\n{text}");
        for kind in FabricKind::ALL {
            assert!(m.rows.iter().any(|r| r.fabric == kind.to_string()), "{kind} missing");
        }
        // Fault-free column is all ok on every fabric.
        for row in &m.rows {
            assert!(row.outcomes[0].is_ok(), "{}/{}/{}", row.scheme, row.fabric, row.fault);
        }
        // The ideal fabric has no queue or image tap: broadcast loss
        // cannot wedge dedicated-transport schemes there, while it does
        // wedge at least one of them on the real buses (recovery off).
        let loss_wedged = |fabric: &str| {
            m.rows
                .iter()
                .filter(|r| r.fabric == fabric && r.fault == FaultClass::BroadcastLoss.label())
                .any(|r| r.outcomes.iter().any(|o| !o.is_acceptable()))
        };
        assert!(loss_wedged("dedicated"), "loss must wedge some scheme on the dedicated bus");
        assert!(!loss_wedged("ideal"), "the oracle fabric has no broadcasts to lose");
        // Single-fabric sweeps keep the default matrix bit-identical in
        // classification to the dedicated slice of the full axis.
        let single = sweep(8, &base(), &[0, 50], 3);
        let dedicated: Vec<_> = m.rows.iter().filter(|r| r.fabric == "dedicated").collect();
        assert_eq!(single.rows.len(), dedicated.len());
        for (s, d) in single.rows.iter().zip(dedicated) {
            assert_eq!(s.outcomes, d.outcomes, "{}/{}", s.scheme, s.fault);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(8, &base(), &[30, 70], 5);
        let b = sweep(8, &base(), &[30, 70], 5);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.outcomes, rb.outcomes, "{}/{}", ra.scheme, ra.fault);
        }
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn render_shape() {
        let m = sweep(6, &base(), &[0, 60], 1);
        let text = render(&m);
        assert!(text.contains("scheme"));
        assert!(text.contains("chaos"));
        assert!(text.contains("bcast-loss"));
        assert!(text.contains("0%") && text.contains("60%"));
        assert!(text.lines().count() > m.rows.len());
    }

    #[test]
    fn matrix_json_parses_and_is_complete() {
        use datasync_sim::json::{self, Json};
        let m = sweep(6, &base(), &[0, 50], 1);
        let text = m.to_json();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(2));
        let intensities = doc.get("intensities").and_then(Json::as_arr).expect("intensities");
        assert_eq!(intensities, [Json::Num(0), Json::Num(50)]);
        assert!(doc.get("tally").and_then(|t| t.get("reconfigured")).is_some(), "{text}");
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), m.rows.len());
        for row in rows {
            assert!(row.get("scheme").and_then(Json::as_str).is_some(), "{text}");
            // Every row carries its fault seed for standalone replay.
            assert_eq!(row.get("seed").and_then(Json::as_u64), Some(1));
            assert_eq!(row.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        }
    }

    #[test]
    fn matrix_json_round_trips_byte_exact() {
        // Satellite contract: the JSON alone carries enough to replay the
        // whole sweep — re-running from nothing but fields extracted out
        // of the document reproduces the document bit for bit.
        use datasync_sim::json::{self, Json};
        let cfg = MachineConfig { recovery: RecoveryPolicy::Full, ..base() };
        let m = sweep(8, &cfg, &[0, 75], 42);
        let text = m.to_json();
        let doc = json::parse(&text).expect("matrix JSON parses");
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).expect(key);
        let recovery = doc.get("recovery").and_then(Json::as_str).expect("recovery");
        let intensities: Vec<u8> = doc
            .get("intensities")
            .and_then(Json::as_arr)
            .expect("intensities")
            .iter()
            .map(|v| v.as_u64().expect("intensity") as u8)
            .collect();
        let mut replay_base = MachineConfig::with_processors(num("processors") as usize);
        replay_base.recovery = RecoveryPolicy::parse(recovery).expect("recovery label");
        let replayed = sweep(num("iterations") as i64, &replay_base, &intensities, num("seed"));
        assert_eq!(replayed.to_json(), text, "replay from JSON fields must be byte-exact");
    }

    #[test]
    fn scaled_cap_prevents_flat_cap_timeout_false_positives() {
        // Regression at the old false-positive boundary: an explicit cap
        // far below any legitimate makespan used to misreport slow
        // bounded-fault cells as TIMEOUT. The sweep now raises each
        // cell's cap to what its machine and fault magnitudes need, so
        // the only failures left are genuine (detected) wedges.
        let mut c = MachineConfig::with_processors(4);
        c.max_cycles = 10_000;
        let m = sweep(24, &c, &[75], 11);
        let t = Tally::of(&m);
        assert_eq!(t.timeout, 0, "a live cell must never be misclassified as TIMEOUT");
        assert_eq!(t.violated, 0);
    }
}
