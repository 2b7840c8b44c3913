//! E8 / Fig 5.3 — dependence sources inside branches: every path must
//! bring the synchronization variable forward.

use crate::table::{f, Table};
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::example3_branches;
use datasync_schemes::cell::roster;
use datasync_schemes::compare::report_for;
use datasync_sim::MachineConfig;

/// Runs Example 3's branchy loop under the process- and
/// statement-oriented schemes and reports the compensating-update cost.
pub fn run_experiment(n: i64, procs: usize) -> Table {
    let nest = example3_branches(n, 4);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig::with_processors(procs);

    let mut t = Table::new(
        "E8 / Fig 5.3",
        &format!("sources in branches (N={n}, P={procs}): compensating updates on every path"),
        &["scheme", "sync vars", "makespan", "broadcasts", "util %", "violations"],
    );
    for s in roster(&[&format!("process/{}", 2 * procs), "statement"], procs) {
        let r =
            report_for(s.as_ref(), &nest, &graph, &space, &base, None).expect("simulation failed");
        t.row(vec![
            r.scheme,
            r.sync_vars.to_string(),
            r.makespan.to_string(),
            r.sync_broadcasts.to_string(),
            f(r.utilization * 100.0),
            r.violations.to_string(),
        ]);
    }
    t.note("Paper rule: 'if a synchronization primitive changes a synchronization variable in one path, the synchronization variable must also be changed in all other paths' — arms without the source mark/advance at entry, and transfer_PC guarantees the handoff on every path.");
    t.note("The process-oriented scheme needs one PC per process regardless of how many sources hide in branches; the statement-oriented scheme pays one Advance per SC per iteration on every path.");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_schemes_correct_pc_needs_fewer_vars() {
        let t = super::run_experiment(48, 4);
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            assert_eq!(r.last().unwrap(), "0", "{} violated", r[0]);
        }
    }
}
