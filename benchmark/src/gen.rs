//! Workload inputs. Everything here is a pure function of `--seed`; the
//! program under test receives only what these functions return.

use datasync_serve::{CellSpec, SweepSpec};
use datasync_sim::{FabricKind, Instr, Pred, Program, SplitMix64, Workload};

/// How much of each workload runs. `--quick` cuts the counts, never the
/// workloads or the metric names.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Fault-plan seeds per `sim_grid` configuration (270 cells each).
    pub grid_seeds: u64,
    /// Keep every n-th `sim_grid` cell.
    pub grid_stride: usize,
    /// Machine size of the `sim_scale` scheme cells.
    pub scale_procs: usize,
    /// Machine sizes of the `sim_scale` hot-spot cells.
    pub hotspot_procs: [usize; 2],
    /// Distinct request bodies `serve_warm` prefills and cycles through.
    pub warm_bodies: usize,
    /// Requests per client in a serve warm-up.
    pub warmup_requests: usize,
}

impl Size {
    pub const FULL: Size = Size {
        grid_seeds: 4,
        grid_stride: 1,
        scale_procs: 1024,
        hotspot_procs: [1024, 4096],
        warm_bodies: 16,
        warmup_requests: 4,
    };
    pub const QUICK: Size = Size {
        grid_seeds: 1,
        grid_stride: 3,
        scale_procs: 128,
        hotspot_procs: [128, 512],
        warm_bodies: 4,
        warmup_requests: 1,
    };
}

/// Closed-loop clients of the serve workloads (the sizing host's core
/// count; fixed so the workload is the same on every host).
pub const CLIENTS: usize = 2;

/// Cells in one serve request body.
pub const BODY_CELLS: usize = 120;

/// Independent seed for item `index` of stream `stream`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    rng.next_u64();
    SplitMix64::new(rng.next_u64() ^ index).next_u64()
}

/// Seed streams, so no two uses of `--seed` draw the same numbers.
pub mod stream {
    pub const GRID: u64 = 1;
    pub const COLD_WARMUP: u64 = 2;
    pub const COLD_TIMED: u64 = 3;
    pub const WARM_BODIES: u64 = 4;
}

const SCHEMES: [&str; 5] = ["reference", "instance", "statement", "process", "barrier"];

/// The `sim_grid` cells: 5 schemes x {dedicated, shared, clustered(2)} x
/// P {4, 8, 16} x {none, mesi, dragon} x fault_pct {0, 30} on Fig 2.1
/// with N = 64, under `grid_seeds` derived fault-plan seeds.
pub fn grid_cells(seed: u64, size: &Size) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for k in 0..size.grid_seeds {
        let sweep = SweepSpec {
            schemes: SCHEMES.map(String::from).to_vec(),
            fabrics: vec![FabricKind::Dedicated, FabricKind::Shared, FabricKind::clustered(2)],
            iterations: vec![64],
            processors: vec![4, 8, 16],
            caches: ["none", "mesi", "dragon"].map(String::from).to_vec(),
            fault_pcts: vec![0, 30],
            seed: derive(seed, stream::GRID, k),
            deadline_cycles: 0,
        };
        cells.extend(sweep.expand());
    }
    cells.into_iter().step_by(size.grid_stride).collect()
}

/// One `/sweep` request body of [`BODY_CELLS`] cells whose fault plans
/// all use `cell_seed`: a fresh seed makes every cell a cache miss.
pub fn sweep_body(cell_seed: u64) -> String {
    format!(
        "{{\"schemes\":[\"reference\",\"instance\",\"statement\",\"process\",\"barrier\"],\
         \"iterations\":[32,64],\"processors\":[8,16,32],\"caches\":[\"none\",\"mesi\"],\
         \"fault_pcts\":[0,30],\"seed\":{cell_seed}}}"
    )
}

/// Rounds of the barrier hot-spot and the compute between them, as in
/// `datasync perf --scale` (BENCH_scale.json), whose workload is private
/// to `crates/bench` and is rebuilt here from public items.
pub const HOTSPOT_ROUNDS: u64 = 4;
const HOTSPOT_COMPUTE: u32 = 200;

/// Every processor adds to one counter each round, then waits for the
/// round's total: sync traffic only, no data accesses, no compile.
pub fn hotspot_workload(procs: usize) -> Workload {
    let programs: Vec<Program> = (0..procs)
        .map(|_| {
            let mut instrs = Vec::with_capacity(3 * HOTSPOT_ROUNDS as usize);
            for round in 1..=HOTSPOT_ROUNDS {
                instrs.push(Instr::Compute(HOTSPOT_COMPUTE));
                instrs.push(Instr::SyncRmw { var: 0 });
                instrs.push(Instr::SyncWait { var: 0, pred: Pred::Geq(round * procs as u64) });
            }
            Program::from_instrs(instrs)
        })
        .collect();
    Workload::static_assigned(programs, (0..procs).map(|i| vec![i]).collect())
}

/// The clustered side of the hot-spot pair: P/32 clusters, bridge
/// latency 2, coalescing window 4.
pub fn hotspot_clustered(procs: usize) -> FabricKind {
    FabricKind::clustered((procs / 32).max(2) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = grid_cells(1989, &Size::FULL);
        assert_eq!(a, grid_cells(1989, &Size::FULL), "one seed repeats");
        assert_ne!(a, grid_cells(1990, &Size::FULL), "two seeds differ");
        assert_eq!(a.len(), 1080);
        assert!(a.iter().all(|c| c.validate().is_ok()));
        assert_eq!(derive(7, stream::COLD_TIMED, 3), derive(7, stream::COLD_TIMED, 3));
        assert_ne!(derive(7, stream::COLD_TIMED, 3), derive(7, stream::COLD_TIMED, 4));
        assert_ne!(derive(7, stream::COLD_TIMED, 3), derive(7, stream::COLD_WARMUP, 3));
        assert_ne!(derive(7, stream::COLD_TIMED, 3), derive(8, stream::COLD_TIMED, 3));
    }

    #[test]
    fn a_request_body_expands_to_the_stated_cells() {
        let doc = datasync_serve::json::parse(&sweep_body(42)).expect("body parses");
        let sweep = SweepSpec::from_json(&doc).expect("body validates");
        assert_eq!(sweep.cell_count(), BODY_CELLS);
        assert!(sweep.expand().iter().all(|c| c.seed == 42));
    }
}
