//! Executes one sweep cell and turns its verdict into a journalable
//! record: ok, recovered, reconfigured or degraded, or — poisoned —
//! violated or quarantined.
//!
//! The run policy is [`Cell::run`]'s, the same ladder the robustness
//! matrix walks: one run at the cell's deadline budget, one retry at 4×
//! the budget after a timeout (never after a detected deadlock, whose
//! proof no budget changes), then the conservative fallback scheme. A
//! cell still wedged after that is quarantined with a reproducer, and a
//! dependence-order violation is poisoned at once — determinism means
//! rerunning a wrong answer can only reproduce it.

use datasync_core::par::{default_threads, par_map};
use datasync_schemes::cell::{Cell, Verdict};
use datasync_schemes::scheme::CompiledLoop;
use datasync_schemes::Outcome;
use datasync_sim::MachineConfig;

use crate::record::CellRecord;
use crate::spec::CellSpec;

/// The outcome of running one cell: the journalable record plus, for
/// poisoned cells, a chaos-fuzzer-format reproducer document.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The record to journal, cache and stream.
    pub record: CellRecord,
    /// `Some` exactly when the record is poisoned: a flat JSON document
    /// in the `datasync chaos --replay` format.
    pub reproducer: Option<String>,
}

/// The cell's first-attempt cycle budget: the explicit deadline
/// override, or the workload-scaled budget every other harness in the
/// workspace uses.
pub fn base_budget(spec: &CellSpec, compiled: &CompiledLoop, config: &MachineConfig) -> u64 {
    if spec.deadline_cycles > 0 {
        spec.deadline_cycles
    } else {
        config
            .max_cycles
            .max(config.scaled_max_cycles(compiled.workload.programs.len()))
    }
}

/// Runs one cell to a terminal record: compiles its loop, then runs it
/// through [`Cell::run`].
pub fn run_cell(spec: &CellSpec) -> CellRun {
    let cell = spec.cell();
    run_compiled(spec, &cell, &cell.compile_loop())
}

/// Runs a batch of cells across cores, results in input order. A sweep
/// multiplies each `(scheme, iterations, processors)` by fabrics ×
/// caches × fault intensities, and [`Cell::compile_loop`] reads only
/// those three, so the cells of one triple go to one thread together:
/// it compiles the loop once, runs them against it and drops it — a
/// loop is live per thread, not per triple. A triple with more cells
/// than a thread's even share is split, so that one big triple cannot
/// serialize the batch. Each run is what [`run_cell`] returns.
pub fn run_cells(specs: Vec<CellSpec>) -> Vec<CellRun> {
    let triple = |i: usize| (specs[i].scheme.as_str(), specs[i].iterations, specs[i].processors);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| triple(i));
    let share = specs.len().div_ceil(default_threads());
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &order {
        match groups.last_mut() {
            Some(group) if group.len() < share && triple(group[0]) == triple(i) => group.push(i),
            _ => groups.push(vec![i]),
        }
    }
    let ran = par_map(groups, |group| {
        let compiled = specs[group[0]].cell().compile_loop();
        let run = |&i: &usize| run_compiled(&specs[i], &specs[i].cell(), &compiled);
        group.iter().map(run).collect::<Vec<CellRun>>()
    });
    let mut runs: Vec<Option<CellRun>> = vec![None; specs.len()];
    for (i, run) in order.into_iter().zip(ran.into_iter().flatten()) {
        runs[i] = Some(run);
    }
    runs.into_iter().map(|run| run.expect("every cell is in one group")).collect()
}

/// The record under [`run_cell`] and [`run_cells`]: `compiled` is
/// `cell`'s loop, or why it has none. Inlined by force: left to the
/// compiler it stays a call, and `run_cell` on small cells (the
/// benchmark's `sim_grid`) reads 0.7 % slower than when it held the
/// ladder itself, in ten pairs of ten.
#[inline(always)]
fn run_compiled(spec: &CellSpec, cell: &Cell, compiled: &Result<CompiledLoop, String>) -> CellRun {
    let finish = |status: &str, makespan, attempts, budget, detail| {
        let record = CellRecord {
            spec: spec.clone(),
            hash: spec.content_hash(),
            status: status.to_string(),
            makespan,
            attempts,
            budget,
            detail,
        };
        let reproducer = record.is_poisoned().then(|| cell.to_json());
        CellRun { record, reproducer }
    };
    let built = compiled.as_ref().map_err(String::clone);
    let (compiled, mut config) = match built.and_then(|c| Ok((c, cell.machine(c)?))) {
        Ok(pair) => pair,
        // Admission validation makes this unreachable in the server;
        // poison rather than panic if a caller bypasses it.
        Err(why) => return finish("quarantined", 0, 1, 0, why),
    };
    config.max_cycles = base_budget(spec, compiled, &config);
    let Verdict { outcome, attempts, budget } = cell.run(compiled, config);
    let (status, makespan) = match &outcome {
        Outcome::Completed { makespan, .. } => ("ok", *makespan),
        Outcome::Recovered { makespan, .. } => ("recovered", *makespan),
        Outcome::Reconfigured { makespan, .. } => ("reconfigured", *makespan),
        Outcome::Degraded { makespan, .. } => ("degraded", *makespan),
        Outcome::OrderViolation { .. } => ("violated", 0),
        Outcome::DeadlockDetected { .. } | Outcome::TimedOut { .. } => ("quarantined", 0),
    };
    finish(status, makespan, attempts, budget, outcome.cell())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_schemes::cell::TIMEOUT_RETRY_FACTOR;

    #[test]
    fn a_clean_cell_completes_on_the_first_attempt() {
        let spec = CellSpec { iterations: 8, ..CellSpec::default() };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "ok");
        assert!(run.record.makespan > 0);
        assert_eq!(run.record.attempts, 1);
        assert!(run.record.budget > 0);
        assert!(run.reproducer.is_none());
        assert_eq!(run.record.hash, spec.content_hash());
    }

    #[test]
    fn cell_results_are_deterministic() {
        let spec = CellSpec { iterations: 10, fault_pct: 40, seed: 7, ..CellSpec::default() };
        let a = run_cell(&spec).record;
        let b = run_cell(&spec).record;
        assert_eq!(a.to_json(), b.to_json(), "identical specs must produce identical records");
    }

    #[test]
    fn a_starved_deadline_quarantines_after_exactly_two_attempts() {
        // A 1-cycle budget can never finish; attempt 2 runs at 4 cycles
        // and wedges too → poison, with a replayable reproducer.
        let spec = CellSpec { iterations: 8, deadline_cycles: 1, ..CellSpec::default() };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "quarantined");
        assert_eq!(run.record.attempts, 2);
        assert_eq!(run.record.budget, TIMEOUT_RETRY_FACTOR, "second attempt escalates 4x");
        assert!(run.record.is_poisoned());
        let doc = run.reproducer.expect("poisoned cells carry a reproducer");
        assert!(doc.starts_with("{\n  \"chaos_case\": 1,"));
        assert!(doc.contains("\"scheme\": \"process\""));
    }

    #[test]
    fn retry_escalation_rescues_a_tight_but_finishable_deadline() {
        // Find the real makespan, then set a deadline just under it:
        // attempt 1 times out, attempt 2 (4x) completes.
        let probe = CellSpec { iterations: 8, ..CellSpec::default() };
        let makespan = run_cell(&probe).record.makespan;
        let spec = CellSpec { deadline_cycles: makespan - 1, ..probe };
        let run = run_cell(&spec);
        assert_eq!(run.record.status, "ok", "{:?}", run.record);
        assert_eq!(run.record.attempts, 2);
        assert_eq!(run.record.makespan, makespan);
        assert!(run.reproducer.is_none());
    }

    #[test]
    fn a_batch_returns_what_each_cell_returns_alone_in_input_order() {
        // Triples interleaved (so grouping has to reorder and restore),
        // one triple larger than any thread's share, one key that does
        // not compile, and one starved cell with its reproducer.
        let mut specs = Vec::new();
        for fault_pct in [0, 30, 60] {
            for (scheme, processors) in [("statement", 4), ("barrier", 4), ("barrier", 6)] {
                let scheme = scheme.to_string();
                specs.push(CellSpec {
                    scheme,
                    processors,
                    fault_pct,
                    seed: 5,
                    ..CellSpec::default()
                });
            }
        }
        specs.extend((0..12).map(|seed| CellSpec { iterations: 7, seed, ..CellSpec::default() }));
        specs.push(CellSpec { iterations: 7, deadline_cycles: 1, ..CellSpec::default() });
        let batch = run_cells(specs.clone());
        assert_eq!(batch.len(), specs.len());
        for (spec, run) in specs.iter().zip(&batch) {
            let alone = run_cell(spec);
            assert_eq!(run.record.to_json(), alone.record.to_json());
            assert_eq!(run.reproducer, alone.reproducer);
        }
        assert!(batch[2].record.detail.contains("barrier"), "{:?}", batch[2].record);
        assert!(batch.last().unwrap().reproducer.is_some());
        assert!(run_cells(Vec::new()).is_empty());
    }
}
