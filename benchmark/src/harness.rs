//! What every workload shares: the timed loop's samples and how the
//! end-to-end metrics are computed from them.

use std::time::Instant;

use crate::report::RunReport;
use crate::stats::{median, percentile, pick_tail, samples_beyond};

/// How many times an untraced run sets up. Set-up is short, so one
/// reading is noisy; the median of three is what `setup_s` reports. A
/// traced run reports no `setup_s` and sets up once.
const SETUPS: usize = 3;

/// Runs `setup`, dropping each state before the next is built, and
/// returns the last state with every set-up's seconds.
pub fn repeat_setup<S>(
    traced: bool,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let times = if traced { 1 } else { SETUPS };
    let mut secs = Vec::new();
    let mut state = None;
    for _ in 0..times {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), secs))
}

/// What one client measured in the timed region. A sim workload has one
/// client, the benchmark's main thread.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Latency of every op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Cells per second of every batch: one pass over the cells on a
    /// sim workload, a fixed number of consecutive requests on a serve
    /// workload.
    pub batch_rates: Vec<f64>,
}

/// Throughput of the timed region: per client the median batch rate,
/// summed over the clients (they run side by side). The median keeps
/// one descheduled batch from moving the number.
pub fn cells_per_s(clients: &[Samples]) -> f64 {
    clients.iter().map(|c| median(&mut c.batch_rates.clone())).sum()
}

/// Fills in the end-to-end metrics every workload reports, and says
/// which percentile `op_ms_tail` is.
pub fn end_to_end(
    report: &mut RunReport,
    mut setup_secs: Vec<f64>,
    clients: &[Samples],
    tail_cap: u32,
    makespan_cycles: u64,
) {
    let values = &mut report.values;
    let setups = setup_secs.len();
    values.set("setup_s", median(&mut setup_secs), setups);
    let batches = clients.iter().map(|c| c.batch_rates.len()).sum();
    values.set("cells_per_s", cells_per_s(clients), batches);
    let mut ops: Vec<f64> = clients.iter().flat_map(|c| c.op_ms.iter().copied()).collect();
    ops.sort_by(f64::total_cmp);
    if !ops.is_empty() {
        let tail = pick_tail(ops.len(), tail_cap);
        values.set("op_ms_p50", percentile(&ops, 50), ops.len());
        values.set("op_ms_tail", percentile(&ops, tail), ops.len());
        report.notes.push(format!(
            "op_ms_tail is p{tail}: {} of {} ops lie beyond it",
            samples_beyond(ops.len(), tail),
            ops.len()
        ));
    }
    values.set("sim_makespan_cycles", makespan_cycles as f64, 1);
    values.set("peak_rss_mb", peak_rss_mb(), 1);
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// True while the timed region should start another batch: before the
/// deadline, or when nothing has run yet.
pub fn keep_going(started: Instant, seconds: f64, batches_done: usize) -> bool {
    batches_done == 0 || started.elapsed().as_secs_f64() < seconds
}
