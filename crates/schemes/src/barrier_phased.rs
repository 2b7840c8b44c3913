//! The barrier baseline: Allen–Kennedy loop distribution with a global
//! barrier between phases.
//!
//! The classic alternative to data synchronization (and the one the
//! paper's Examples 1 and 5 argue against): compute the strongly
//! connected components of the dependence graph, order them
//! topologically, and run one *phase* per component with a barrier in
//! between. A non-recurrent component's phase runs its iterations in
//! parallel (it is vectorizable); a component containing a recurrence
//! (a carried arc within it) must run serially — all its iterations on
//! one processor, exactly what a vectorizing compiler faced with a
//! recurrence must do. The price relative to the paper's scheme:
//! barrier idling and the loss of cross-statement pipelining.

use crate::scheme::{emit_stmt, validation_arcs, CompiledLoop, CostFn, Scheme, SyncStorage};
use datasync_loopir::graph::DepGraph;
use datasync_loopir::ir::LoopNest;
use datasync_loopir::ir::StmtId;
use datasync_loopir::space::IterSpace;
use datasync_sim::{Instr, Pred, Program, SyncTransport, Workload};

/// The loop-distribution + barrier scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPhased {
    /// Number of processors the phases are split across (must match the
    /// machine the compiled loop runs on).
    pub procs: usize,
}

impl BarrierPhased {
    /// Creates the scheme for a `procs`-processor machine.
    ///
    /// # Panics
    ///
    /// Panics unless `procs` is a power of two (the inter-phase barrier
    /// is a butterfly).
    pub fn new(procs: usize) -> Self {
        assert!(
            procs >= 1 && procs.is_power_of_two(),
            "barrier-phased needs power-of-two processors"
        );
        Self { procs }
    }
}

impl Scheme for BarrierPhased {
    fn name(&self) -> String {
        format!("barrier-phased (P={})", self.procs)
    }

    fn natural_transport(&self) -> SyncTransport {
        SyncTransport::DedicatedBus
    }

    fn sync_var_kind(&self) -> &'static str {
        "barrier"
    }

    fn compile_with(
        &self,
        nest: &LoopNest,
        graph: &DepGraph,
        space: &IterSpace,
        cost: Option<CostFn<'_>>,
    ) -> CompiledLoop {
        let procs = self.procs;
        let rounds = procs.trailing_zeros();
        let n = space.count();
        // Allen–Kennedy: phases = SCCs of the (linearized) dependence
        // graph in topological order; recurrent components serialize.
        let linear = graph.linearized(space);
        let phases: Vec<(Vec<StmtId>, bool)> = linear
            .sccs()
            .into_iter()
            .map(|comp| {
                let recurrent = linear.component_recurrent(&comp);
                (comp, recurrent)
            })
            .collect();

        let mut programs: Vec<Program> = Vec::new();
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); procs];
        let mut episode = 0u64;
        for (phase_ix, (comp, recurrent)) in phases.iter().enumerate() {
            for (p, assigned) in assignment.iter_mut().enumerate() {
                let mut prog = Program::new();
                // A recurrent phase runs entirely on processor 0; a
                // parallel phase splits iterations round-robin.
                let mine = match (*recurrent, p) {
                    (false, _) => (p as u64..n).step_by(procs),
                    (true, 0) => (0..n).step_by(1),
                    (true, _) => (0..0).step_by(1),
                };
                for pid in mine {
                    let indices = space.indices(pid);
                    for stmt in nest.executed_stmts(pid) {
                        if !comp.contains(&stmt.id) {
                            continue;
                        }
                        let c = cost.map_or(stmt.cost, |f| f(stmt.id, pid));
                        emit_stmt(&mut prog, stmt, pid, &indices, c, None);
                    }
                }
                // Butterfly barrier between phases.
                if phase_ix + 1 < phases.len() {
                    for r in 0..rounds {
                        let round = episode * u64::from(rounds) + u64::from(r) + 1;
                        prog.push(Instr::SyncSet { var: p, val: round });
                        prog.push(Instr::SyncWait { var: p ^ (1 << r), pred: Pred::Geq(round) });
                    }
                }
                assigned.push(programs.len());
                programs.push(prog);
            }
            episode += 1;
        }

        CompiledLoop {
            workload: Workload::static_assigned(programs, assignment),
            storage: SyncStorage {
                vars: procs as u64,
                init_ops: procs as u64,
                extra_data_cells: 0,
            },
            presets: Vec::new(),
            validation_arcs: validation_arcs(graph, space),
            instance_pairs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_loopir::analysis::analyze;
    use datasync_loopir::workpatterns::{example2_nested, example3_branches, fig21_loop};
    use datasync_sim::MachineConfig;

    fn check(nest: &LoopNest, procs: usize) -> datasync_sim::RunOutcome {
        let graph = analyze(nest);
        let space = IterSpace::of(nest);
        let compiled = BarrierPhased::new(procs).compile(nest, &graph, &space);
        let out = compiled.run(&MachineConfig::with_processors(procs)).expect("simulation failed");
        let violations = compiled.validate(&out);
        assert!(violations.is_empty(), "order violations: {violations:?}");
        out
    }

    #[test]
    fn fig21_ordered() {
        check(&fig21_loop(24), 4);
    }

    #[test]
    fn nested_ordered() {
        check(&example2_nested(5, 5, 3), 4);
    }

    #[test]
    fn branches_ordered() {
        check(&example3_branches(32, 2), 4);
    }

    #[test]
    fn self_dependence_serializes_its_phase() {
        use datasync_loopir::ir::{AccessKind, ArrayId, ArrayRef, LoopNestBuilder};
        let a = ArrayId(0);
        let nest = LoopNestBuilder::new(1, 16)
            .stmt(
                "S",
                4,
                vec![
                    ArrayRef::simple(a, AccessKind::Read, -1),
                    ArrayRef::simple(a, AccessKind::Write, 0),
                ],
            )
            .build();
        let out = check(&nest, 4);
        // All 16 instances ran on processor 0 (busy only there aside from
        // barrier spinning).
        assert!(out.stats.procs[0].busy > out.stats.procs[1].busy * 4);
    }

    #[test]
    fn mutual_recurrence_groups_into_one_serial_phase() {
        use datasync_loopir::ir::{AccessKind, ArrayId, ArrayRef, LoopNestBuilder};
        // S1 reads B[I-1] writes A[I]; S2 reads A[I] writes B[I]:
        // a cross-statement recurrence -> one serial phase.
        let (a, b) = (ArrayId(0), ArrayId(1));
        let nest = LoopNestBuilder::new(1, 12)
            .stmt(
                "S1",
                3,
                vec![
                    ArrayRef::simple(b, AccessKind::Read, -1),
                    ArrayRef::simple(a, AccessKind::Write, 0),
                ],
            )
            .stmt(
                "S2",
                3,
                vec![
                    ArrayRef::simple(a, AccessKind::Read, 0),
                    ArrayRef::simple(b, AccessKind::Write, 0),
                ],
            )
            .build();
        let out = check(&nest, 4);
        // All statement work runs on processor 0; the others only pay the
        // dispatch cost of their (empty) phase program.
        assert!(out.stats.procs[0].busy > 12 * 6, "{:?}", out.stats.procs[0]);
        assert!(
            out.stats.procs[1].busy <= 4,
            "recurrent SCC must serialize, proc1 busy = {}",
            out.stats.procs[1].busy
        );
    }

    #[test]
    fn loses_to_process_oriented_pipelining() {
        // Fig 2.1 pipelines perfectly (delay 0); the phased baseline
        // inserts 4 barriers per sweep and cannot overlap statements.
        use crate::process_oriented::ProcessOriented;
        let nest = fig21_loop(32);
        let graph = analyze(&nest);
        let space = IterSpace::of(&nest);
        let config = MachineConfig::with_processors(4);
        let phased = BarrierPhased::new(4)
            .compile(&nest, &graph, &space)
            .run(&config)
            .unwrap()
            .stats
            .makespan;
        let po = ProcessOriented::new(8)
            .compile(&nest, &graph, &space)
            .run(&config)
            .unwrap()
            .stats
            .makespan;
        assert!(po <= phased, "process-oriented {po} must not lose to barrier-phased {phased}");
    }
}
