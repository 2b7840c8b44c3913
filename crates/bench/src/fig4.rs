//! E4 / E5 — statement-oriented serialization vs the process-oriented
//! scheme (Figs 3.2 and 4.1-4.3), with delay injection and an `X` sweep.

use crate::table::{f, Table};
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::cell::roster;
use datasync_schemes::compare::report_for;
use datasync_schemes::scheme::CostFn;
use datasync_schemes::ProcessOriented;
use datasync_sim::MachineConfig;

/// Delay-injection experiment: one slow iteration (`slow_pid`, cost
/// multiplier) in the Fig 2.1 loop. In the statement-oriented scheme the
/// sequential `Advance` handoff stalls every later iteration behind it;
/// the process-oriented scheme only delays true dependents.
pub fn delay_injection(n: i64, procs: usize, slow_pid: u64, slow_cost: u32) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig::with_processors(procs);
    let cost: CostFn<'_> = &move |_s, pid| if pid == slow_pid { slow_cost } else { 4 };

    let x = 2 * procs;
    let schemes =
        roster(&["statement", &format!("process-basic/{x}"), &format!("process/{x}")], procs);
    let mut t = Table::new(
        "E4-E5 / Fig 3.2 vs 4.1",
        &format!(
            "delay injection: iteration {slow_pid} costs {slow_cost} cycles/stmt (others 4); N={n}, P={procs}"
        ),
        &["scheme", "makespan", "spin cycles", "util %", "violations"],
    );
    for s in schemes {
        let r = report_for(s.as_ref(), &nest, &graph, &space, &base, Some(cost))
            .expect("simulation failed");
        t.row(vec![
            r.scheme,
            r.makespan.to_string(),
            r.spin.to_string(),
            f(r.utilization * 100.0),
            r.violations.to_string(),
        ]);
    }
    t.note("Paper (Section 4): 'If for some reason one process delays its release of the SC, all later processes will be affected' — the statement-oriented makespan absorbs the delay serially; the PC scheme localizes it.");
    t
}

/// The `X` sweep of the folding trade-off: fewer counters mean more
/// ownership waiting (processes `i` and `i+X` share `PC[i mod X]`).
pub fn x_sweep(n: i64, procs: usize, xs: &[usize]) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let base = MachineConfig::with_processors(procs);
    let mut t = Table::new(
        "E5 / Sec 4+6",
        &format!("process-counter folding: X sweep (N={n}, P={procs})"),
        &["X", "primitives", "makespan", "spin cycles", "broadcasts", "violations"],
    );
    for &x in xs {
        for improved in [false, true] {
            let s = if improved { ProcessOriented::new(x) } else { ProcessOriented::basic(x) };
            let r = report_for(&s, &nest, &graph, &space, &base, None).expect("simulation failed");
            t.row(vec![
                x.to_string(),
                if improved { "improved".into() } else { "basic".into() },
                r.makespan.to_string(),
                r.spin.to_string(),
                r.sync_broadcasts.to_string(),
                r.violations.to_string(),
            ]);
        }
    }
    t.note("Paper (Section 6): the scheme works best when X is a power of two and a small multiple of the processor count; the improved primitives never wait before intermediate marks.");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn statement_oriented_absorbs_delay_worst() {
        let t = super::delay_injection(40, 8, 10, 400);
        let makespan = |name: &str| -> u64 {
            t.rows.iter().find(|r| r[0].starts_with(name)).unwrap()[1].parse().unwrap()
        };
        let so = makespan("statement-oriented");
        let po = makespan("process-oriented (X=16, improved)");
        assert!(po < so, "process-oriented {po} must beat statement-oriented {so} under skew");
        for r in &t.rows {
            assert_eq!(r.last().unwrap(), "0");
        }
    }

    #[test]
    fn x_sweep_monotone_enough() {
        let t = super::x_sweep(48, 4, &[1, 4, 16]);
        assert_eq!(t.rows.len(), 6);
        let get = |x: &str, prim: &str| -> u64 {
            t.rows.iter().find(|r| r[0] == x && r[1] == prim).unwrap()[2].parse().unwrap()
        };
        // Generous X should not be slower than the fully folded X=1.
        assert!(get("16", "improved") <= get("1", "improved"));
    }
}
