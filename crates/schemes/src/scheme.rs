//! The common scheme interface and shared program-building helpers.
//!
//! A [`Scheme`] compiles a loop nest plus its dependence graph into
//! simulator programs (one per iteration) and accounts for the
//! synchronization-variable storage and initialization overhead the
//! paper's Section 3 classification compares.

use datasync_loopir::exec::mix2;
use datasync_loopir::graph::{DepGraph, Distance};
use datasync_loopir::ir::{ArrayRef, LoopNest, Stmt, StmtId};
use datasync_loopir::space::IterSpace;
use datasync_sim::{
    Instr, Label, MachineConfig, Program, RunOutcome, SimError, SyncTransport, Workload,
};

/// Synchronization-variable accounting (the Section 3 / Section 6
/// storage comparison, experiment E12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStorage {
    /// Number of synchronization variables the scheme allocates.
    pub vars: u64,
    /// Writes needed to initialize them before the loop starts.
    pub init_ops: u64,
    /// Extra *data* storage (renamed copies, instance-based scheme only).
    pub extra_data_cells: u64,
}

/// A loop compiled for the simulator under one scheme.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// One program per iteration, dispatched dynamically in pid order.
    pub workload: Workload,
    /// Storage accounting.
    pub storage: SyncStorage,
    /// Initial sync-variable values that differ from zero.
    pub presets: Vec<(usize, u64)>,
    /// Every carried dependence as `(src_stmt, dst_stmt, linear_distance)`
    /// for trace validation — always the *full* (unreduced) set, so
    /// validation also proves covering soundness.
    ///
    /// The instance-based scheme leaves this empty (renaming legitimately
    /// removes anti/output dependences) and uses
    /// [`CompiledLoop::instance_pairs`] instead.
    pub validation_arcs: Vec<(u32, u32, i64)>,
    /// Instance-granular obligations `(src_stmt, src_pid, dst_stmt,
    /// dst_pid)`: the source instance's end must precede the sink
    /// instance's start.
    pub instance_pairs: Vec<(u32, u64, u32, u64)>,
}

impl CompiledLoop {
    /// Runs the compiled loop on a machine (fast-forward kernel). The
    /// machine borrows this compiled loop's workload, so sweeps re-running
    /// one compilation under many configurations allocate nothing per run.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    pub fn run(&self, config: &MachineConfig) -> Result<RunOutcome, SimError> {
        self.run_with(config, datasync_sim::StepMode::FastForward)
    }

    /// [`CompiledLoop::run`] with an explicit stepping mode (the
    /// equivalence tests run both and compare bit for bit).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    pub fn run_with(
        &self,
        config: &MachineConfig,
        mode: datasync_sim::StepMode,
    ) -> Result<RunOutcome, SimError> {
        self.run_inner(config, mode, 0)
    }

    /// [`CompiledLoop::run`] with structured event recording on: the
    /// outcome's event ring keeps the most recent `capacity` events for
    /// `datasync trace` / Chrome export. Stats, trace and metrics are
    /// bit-identical to an untraced run.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    pub fn run_traced(
        &self,
        config: &MachineConfig,
        capacity: usize,
    ) -> Result<RunOutcome, SimError> {
        self.run_inner(config, datasync_sim::StepMode::FastForward, capacity)
    }

    /// [`CompiledLoop::run_traced`] with an explicit stepping mode (the
    /// equivalence tests prove the event streams match across modes).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the simulator.
    pub fn run_traced_with(
        &self,
        config: &MachineConfig,
        mode: datasync_sim::StepMode,
        capacity: usize,
    ) -> Result<RunOutcome, SimError> {
        self.run_inner(config, mode, capacity)
    }

    fn run_inner(
        &self,
        config: &MachineConfig,
        mode: datasync_sim::StepMode,
        event_capacity: usize,
    ) -> Result<RunOutcome, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        let mut m = datasync_sim::Machine::new(config, &self.workload);
        m.set_mode(mode);
        if event_capacity > 0 {
            m.enable_events(event_capacity);
        }
        for &(var, val) in &self.presets {
            m.preset_sync(var, val);
        }
        m.run_to_completion()
    }

    /// Validates a run's trace against both the distance arcs and the
    /// instance pairs; returns human-readable violations (empty = correct).
    pub fn validate(&self, out: &RunOutcome) -> Vec<String> {
        let mut problems: Vec<String> = out
            .trace
            .validate_order(&self.validation_arcs)
            .into_iter()
            .map(|v| {
                format!(
                    "S{}@{} (ends {}) must precede S{}@{} (starts {})",
                    v.src_stmt + 1,
                    v.src_pid,
                    v.src_end,
                    v.dst_stmt + 1,
                    v.dst_pid,
                    v.dst_start
                )
            })
            .collect();
        if self.instance_pairs.is_empty() {
            return problems;
        }
        // One pass over the trace, then O(1) per pair. First recorded
        // start and end, as `Trace::start_of` / `end_of` answer — not
        // `validate_order`'s last end: a pair is judged on the instance's
        // original execution even if a rescue reissued it later.
        let seen = out.trace.instance_index();
        for &(ss, sp, ds, dp) in &self.instance_pairs {
            let (Some(end), Some(start)) = (seen.end_of(ss, sp), seen.start_of(ds, dp)) else {
                continue;
            };
            if start < end {
                problems.push(format!(
                    "instance S{}@{sp} (ends {end}) must precede S{}@{dp} (starts {start})",
                    ss + 1,
                    ds + 1
                ));
            }
        }
        problems
    }
}

/// A synchronization scheme, in the paper's Section 3 classification.
pub trait Scheme {
    /// Human-readable name for report tables.
    fn name(&self) -> String;

    /// The hardware the scheme was designed for: data-oriented schemes
    /// keep their keys in shared memory; statement- and process-oriented
    /// schemes use the dedicated synchronization bus.
    fn natural_transport(&self) -> SyncTransport;

    /// Section 3 classification of the scheme's synchronization
    /// variables, used to label its traffic counters: `"key"`
    /// (data-oriented keys), `"SC"` (statement counters), `"PC"`
    /// (process counters) or `"barrier"` (barrier phases).
    fn sync_var_kind(&self) -> &'static str {
        "sync"
    }

    /// Compiles the nest (with its **raw, unreduced** dependence graph in
    /// vector-distance form) into simulator programs. `cost` optionally
    /// overrides per-instance statement costs (delay-injection
    /// experiments).
    fn compile_with(
        &self,
        nest: &LoopNest,
        graph: &DepGraph,
        space: &IterSpace,
        cost: Option<CostFn<'_>>,
    ) -> CompiledLoop;

    /// [`Scheme::compile_with`] using every statement's own cost.
    fn compile(&self, nest: &LoopNest, graph: &DepGraph, space: &IterSpace) -> CompiledLoop {
        self.compile_with(nest, graph, space, None)
    }
}

/// Per-iteration cost override used by the delay-injection experiments
/// (`None` means every instance uses the statement's own cost).
pub type CostFn<'a> = &'a dyn Fn(StmtId, u64) -> u32;

/// Deterministic memory address of an array element.
pub fn element_addr(array: datasync_loopir::ir::ArrayId, element: &[i64]) -> u64 {
    let mut h = mix2(0x6164_6472, array.0 as u64);
    for &e in element {
        h = mix2(h, e as u64);
    }
    h
}

/// The canonical intra-statement access order every scheme must use:
/// reads in textual reference order, then writes in textual order.
pub fn ordered_accesses(stmt: &Stmt) -> Vec<&ArrayRef> {
    stmt.reads().chain(stmt.writes()).collect()
}

/// Per-access hook of [`emit_stmt`]: emits scheme-specific instructions
/// for one array access instead of a plain `Access`.
pub type AccessWrap<'a> = &'a mut dyn FnMut(&mut Program, &ArrayRef, &[i64]);

/// Emits the body of a statement instance: start note, read accesses,
/// compute, write accesses, end note. `wrap_access` lets a scheme insert
/// per-access synchronization (reference-based keys); pass `None` for
/// plain accesses.
#[allow(clippy::too_many_arguments)]
pub fn emit_stmt(
    prog: &mut Program,
    stmt: &Stmt,
    pid: u64,
    indices: &[i64],
    cost: u32,
    mut wrap_access: Option<AccessWrap<'_>>,
) {
    prog.push(Instr::Note(Label { pid, stmt: stmt.id.0 as u32, start: true }));
    for r in stmt.reads() {
        let element = r.element(indices);
        match wrap_access.as_deref_mut() {
            Some(f) => f(prog, r, &element),
            None => {
                prog.push(Instr::Access { addr: element_addr(r.array, &element), write: false });
            }
        }
    }
    prog.push(Instr::Compute(cost));
    for w in stmt.writes() {
        let element = w.element(indices);
        match wrap_access.as_deref_mut() {
            Some(f) => f(prog, w, &element),
            None => {
                prog.push(Instr::Access { addr: element_addr(w.array, &element), write: true });
            }
        }
    }
    prog.push(Instr::Note(Label { pid, stmt: stmt.id.0 as u32, start: false }));
}

/// Expands a dependence graph into trace-validation arcs
/// `(src, dst, linear_distance)`. Serial chains become the two arcs that
/// realize the total order; loop-independent arcs are included with
/// distance 0 (program order must satisfy them).
pub fn validation_arcs(graph: &DepGraph, space: &IterSpace) -> Vec<(u32, u32, i64)> {
    let mut arcs = Vec::new();
    for d in graph.deps() {
        match &d.distance {
            Distance::Vector(v) => {
                let dist = space.linear_distance(v);
                debug_assert!(dist >= 0);
                arcs.push((d.src.0 as u32, d.dst.0 as u32, dist));
            }
            Distance::SerialChain => {
                if d.src == d.dst {
                    arcs.push((d.src.0 as u32, d.src.0 as u32, 1));
                } else {
                    arcs.push((d.src.0 as u32, d.dst.0 as u32, 0));
                    arcs.push((d.dst.0 as u32, d.src.0 as u32, 1));
                }
            }
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_loopir::analysis::analyze;
    use datasync_loopir::ir::{AccessKind, ArrayId};
    use datasync_loopir::workpatterns::fig21_loop;

    #[test]
    fn element_addr_distinguishes_elements() {
        let a = ArrayId(0);
        assert_ne!(element_addr(a, &[1]), element_addr(a, &[2]));
        assert_ne!(element_addr(a, &[1]), element_addr(ArrayId(1), &[1]));
        assert_eq!(element_addr(a, &[1, 2]), element_addr(a, &[1, 2]));
    }

    #[test]
    fn ordered_accesses_reads_before_writes() {
        let nest = fig21_loop(4);
        let s2 = nest.stmt(StmtId(1)); // reads A, writes R2
        let order = ordered_accesses(s2);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].kind, AccessKind::Read);
        assert_eq!(order[1].kind, AccessKind::Write);
    }

    #[test]
    fn emit_stmt_shape() {
        let nest = fig21_loop(4);
        let s2 = nest.stmt(StmtId(1));
        let mut prog = Program::new();
        emit_stmt(&mut prog, s2, 3, &[4], 7, None);
        assert!(matches!(prog.instrs[0], Instr::Note(Label { start: true, .. })));
        assert!(matches!(prog.instrs[1], Instr::Access { write: false, .. }));
        assert!(matches!(prog.instrs[2], Instr::Compute(7)));
        assert!(matches!(prog.instrs[3], Instr::Access { write: true, .. }));
        assert!(matches!(prog.instrs[4], Instr::Note(Label { start: false, .. })));
    }

    /// A rescue reissue records an instance twice. The two checks read
    /// that differently on purpose: distance arcs take the instance's
    /// *last* end (the reissued execution must also precede the sink),
    /// instance pairs its *first* (as `Trace::end_of` answers).
    #[test]
    fn validate_keeps_first_end_for_pairs_and_last_end_for_arcs() {
        let note = |stmt, pid, start| Label { pid, stmt, start };
        let mut trace = datasync_sim::Trace::new();
        // S1@0 runs 0..10, is reissued and runs again 30..40; S2@1,
        // which depends on it, starts at 20.
        for (cycle, label) in [
            (0, note(0, 0, true)),
            (10, note(0, 0, false)),
            (20, note(1, 1, true)),
            (25, note(1, 1, false)),
            (30, note(0, 0, true)),
            (40, note(0, 0, false)),
        ] {
            trace.record(cycle, 0, label);
        }
        assert_eq!(trace.end_of(0, 0), Some(10), "public lookup keeps the first end");
        let index = trace.instance_index();
        assert_eq!((index.start_of(0, 0), index.end_of(0, 0)), (Some(0), Some(10)));
        assert_eq!(index.start_of(1, 1), trace.start_of(1, 1));
        assert_eq!(index.end_of(2, 0), None);
        let out = RunOutcome {
            stats: Default::default(),
            trace,
            sync_final: Vec::new(),
            metrics: Default::default(),
            events: Default::default(),
            kernel: Default::default(),
        };
        let compiled = |validation_arcs, instance_pairs| CompiledLoop {
            workload: Workload::dynamic(Vec::new()),
            storage: SyncStorage::default(),
            presets: Vec::new(),
            validation_arcs,
            instance_pairs,
        };
        let by_pair = compiled(Vec::new(), vec![(0, 0, 1, 1)]).validate(&out);
        assert!(by_pair.is_empty(), "first end 10 precedes start 20: {by_pair:?}");
        let by_arc = compiled(vec![(0, 1, 1)], Vec::new()).validate(&out);
        assert_eq!(by_arc.len(), 1, "last end 40 follows start 20: {by_arc:?}");
        assert!(by_arc[0].contains("ends 40"), "{by_arc:?}");
    }

    #[test]
    fn validation_arcs_cover_graph() {
        let nest = fig21_loop(20);
        let g = analyze(&nest);
        let space = IterSpace::of(&nest);
        let arcs = validation_arcs(&g, &space);
        assert_eq!(arcs.len(), g.deps().len(), "no serial chains in fig 2.1");
        assert!(arcs.contains(&(0, 1, 2)));
        assert!(arcs.contains(&(3, 4, 1)));
    }
}
