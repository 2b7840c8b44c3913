//! R1 — scheme degradation under deterministic fault injection.
//!
//! Sweeps every synchronization scheme across every fault class (plus
//! combined chaos) at increasing intensity, and reports the seven-way
//! outcome classification together with the slowdown faults impose on
//! runs that still complete. The paper's schemes guard *ordering*, so
//! bounded delivery faults may cost cycles but must never produce a
//! dependence-order violation — and the two unbounded classes
//! (broadcast loss, which drops wakeups forever, and processor
//! fail-stop, which removes a participant), both of which wedge schemes
//! with recovery off, must be fully healed by the self-healing ladder
//! with recovery on: repaired in place, reconfigured onto the survivor
//! quorum, or degraded to the conservative fallback. The
//! [`json_report`] captures that before/after pair machine-readably.

use crate::table::Table;
use datasync_schemes::robustness::{sweep, Matrix, Outcome, Tally};
use datasync_sim::{MachineConfig, RecoveryPolicy};

fn run_matrix(
    n: i64,
    procs: usize,
    intensities: &[u8],
    seed: u64,
    recovery: RecoveryPolicy,
) -> Matrix {
    let base =
        MachineConfig { max_cycles: 3_000_000, recovery, ..MachineConfig::with_processors(procs) };
    sweep(n, &base, intensities, seed)
}

/// Runs the degradation sweep with the full self-healing ladder armed
/// (the CLI default) and formats it as a table; see
/// [`degradation_with`].
pub fn degradation(n: i64, procs: usize, intensities: &[u8], seed: u64) -> Table {
    degradation_with(n, procs, intensities, seed, RecoveryPolicy::Full)
}

/// Runs the degradation sweep under `recovery` and formats it as a
/// table: one row per scheme x fault class, one outcome column per
/// intensity, plus the completed-run slowdown at the highest intensity
/// relative to the fault-free column.
pub fn degradation_with(
    n: i64,
    procs: usize,
    intensities: &[u8],
    seed: u64,
    recovery: RecoveryPolicy,
) -> Table {
    let matrix = run_matrix(n, procs, intensities, seed, recovery);
    let mut headers: Vec<String> = vec!["scheme".into(), "fault".into()];
    headers.extend(matrix.intensities.iter().map(|i| format!("{i}%")));
    headers.push("slowdown".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "R1 / robustness",
        &format!(
            "scheme degradation under fault injection (Fig 2.1 loop, N={n}, P={procs}, \
             seed {seed}, recovery {recovery})"
        ),
        &header_refs,
    );
    for row in &matrix.rows {
        let mut cells = vec![row.scheme.clone(), row.fault.clone()];
        cells.extend(row.outcomes.iter().map(Outcome::cell));
        let slowdown = match (row.outcomes.first(), row.outcomes.last()) {
            (
                Some(Outcome::Completed { makespan: base, .. }),
                Some(Outcome::Completed { makespan: worst, .. }),
            ) if *base > 0 => format!("{:.2}x", *worst as f64 / *base as f64),
            _ => "-".into(),
        };
        cells.push(slowdown);
        t.row(cells);
    }
    let tally = Tally::of(&matrix);
    t.note(format!(
        "{} runs: {} ok, {} recovered, {} reconfigured, {} degraded, {} deadlocked, \
         {} timed out, {} order violations",
        tally.total(),
        tally.ok,
        tally.recovered,
        tally.reconfigured,
        tally.degraded,
        tally.deadlock,
        tally.timeout,
        tally.violated
    ));
    t.note(
        "claim: bounded faults (capped redeliveries, stale windows, stalls) cost cycles \
         but never break dependence order — VIOLATED must not appear; the unbounded \
         classes (broadcast loss, processor fail-stop) wedge schemes with recovery off \
         and are fully healed (ok / recovered / RECONF / DEGRADED, never DEADLOCK / \
         TIMEOUT) with recovery on",
    );
    t
}

/// The before/after robustness report as a JSON document: the same sweep
/// with the self-healing ladder disarmed (`recovery_off`) and fully
/// armed (`recovery_on`), each as a complete matrix with per-cell labels
/// and the outcome tally. This is the machine-readable artifact behind
/// the claim that recovery shifts every DEADLOCK/TIMEOUT cell to
/// ok/recovered/degraded; CI archives it as `BENCH_robustness.json`.
pub fn json_report(n: i64, procs: usize, intensities: &[u8], seed: u64) -> String {
    let off = run_matrix(n, procs, intensities, seed, RecoveryPolicy::Off);
    let on = run_matrix(n, procs, intensities, seed, RecoveryPolicy::Full);
    let indent = |doc: String| doc.trim_end().replace('\n', "\n  ");
    format!(
        "{{\n  \"experiment\": \"robustness degradation matrix\",\n  \
         \"loop\": \"fig21\",\n  \"n\": {n},\n  \"procs\": {procs},\n  \
         \"seed\": {seed},\n  \"recovery_off\": {},\n  \"recovery_on\": {}\n}}\n",
        indent(off.to_json()),
        indent(on.to_json())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_table_shape() {
        let t = degradation(10, 4, &[0, 50], 77);
        // 5 schemes x 9 fault rows (8 classes + chaos).
        assert_eq!(t.rows.len(), 45);
        assert_eq!(t.headers.len(), 5); // scheme, fault, 0%, 50%, slowdown
                                        // Fault-free column all ok; with the ladder armed no
                                        // cell may violate, deadlock, or time out.
        for row in &t.rows {
            assert!(
                row[2].starts_with("ok"),
                "{}/{} not ok fault-free: {}",
                row[0],
                row[1],
                row[2]
            );
            let cell = &row[3];
            assert!(
                !cell.contains("VIOLATED")
                    && !cell.contains("DEADLOCK")
                    && !cell.contains("TIMEOUT"),
                "{}/{}: {cell}",
                row[0],
                row[1]
            );
        }
    }

    #[test]
    fn recovery_off_table_shows_the_wedge() {
        let t = degradation_with(10, 4, &[0, 50], 77, RecoveryPolicy::Off);
        assert_eq!(t.rows.len(), 45);
        let loss_cells: Vec<&String> =
            t.rows.iter().filter(|r| r[1] == "bcast-loss").map(|r| &r[3]).collect();
        assert!(
            loss_cells.iter().any(|c| c.contains("DEADLOCK") || c.contains("TIMEOUT")),
            "50% broadcast loss must wedge some scheme with recovery off: {loss_cells:?}"
        );
        assert!(
            !t.rows.iter().any(|r| r[3].contains("recovered") || r[3].contains("DEGRADED")),
            "no self-healing may occur with recovery off"
        );
    }

    #[test]
    fn slowdown_reported_for_completed_rows() {
        let t = degradation(10, 4, &[0, 60], 3);
        assert!(
            t.rows.iter().any(|r| r.last().map(|s| s.ends_with('x')).unwrap_or(false)),
            "at least some rows complete at 60% and report a slowdown"
        );
    }

    #[test]
    fn json_report_carries_the_before_after_pair() {
        use datasync_sim::json::{self, Json};
        let text = json_report(8, 4, &[0, 50], 7);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        let tally = |half: &str, key: &str| {
            doc.get(half)
                .and_then(|m| m.get("tally"))
                .and_then(|t| t.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no {half}.tally.{key} in {text}"))
        };
        // The pair tells the story: wedges before, none after.
        assert_eq!(tally("recovery_on", "deadlock"), 0);
        assert_eq!(tally("recovery_on", "timeout"), 0);
        assert_ne!(tally("recovery_off", "deadlock"), 0);
    }
}
