//! Running one workload under every scheme — the engine behind the
//! Fig 3.x reproduction tables.

use crate::cell::{machine_for, roster};
use crate::scheme::{emit_stmt, CompiledLoop, CostFn, Scheme};
use datasync_loopir::graph::DepGraph;
use datasync_loopir::ir::LoopNest;
use datasync_loopir::space::IterSpace;
use datasync_sim::{FabricKind, MachineConfig, Program, RunOutcome, SimError, Workload};

/// One row of a scheme-comparison table.
#[derive(Debug, Clone)]
pub struct SchemeReport {
    /// Scheme name.
    pub scheme: String,
    /// Transport the run used.
    pub transport: String,
    /// Sync-fabric backend the run used (`dedicated` / `shared` /
    /// `ideal`; only meaningful for dedicated-transport schemes).
    pub fabric: String,
    /// Synchronization variables allocated.
    pub sync_vars: u64,
    /// Initialization writes.
    pub init_ops: u64,
    /// Renamed data cells (instance-based only).
    pub extra_cells: u64,
    /// Total cycles.
    pub makespan: u64,
    /// Busy-cycle fraction of `P * makespan`.
    pub utilization: f64,
    /// Total busy cycles.
    pub busy: u64,
    /// Total spin cycles.
    pub spin: u64,
    /// Total bus/memory-blocked cycles.
    pub blocked: u64,
    /// Data-bus transactions.
    pub data_transactions: u64,
    /// Busy-wait polls through memory (hot-spot traffic).
    pub spin_polls: u64,
    /// Sync-bus broadcasts.
    pub sync_broadcasts: u64,
    /// Broadcasts saved by write coalescing.
    pub coalesced: u64,
    /// Clustered fabric only: updates the inter-cluster bridge forwarded
    /// globally (0 on flat fabrics).
    pub bridge_broadcasts: u64,
    /// Clustered fabric only: bridge submissions aggregated into a
    /// pending same-variable forward.
    pub bridge_coalesced: u64,
    /// Fraction of the makespan the inter-cluster bridge was held
    /// (0 on flat fabrics).
    pub bridge_occupancy: f64,
    /// Speedup over the single-processor no-synchronization baseline.
    pub speedup: f64,
    /// Dependence-order violations found in the trace (must be 0).
    pub violations: usize,
    /// Section 3 label of the scheme's sync variables (`key` / `SC` /
    /// `PC` / `barrier`).
    pub var_kind: String,
    /// Fraction of the makespan the data bus was held.
    pub data_bus_occupancy: f64,
    /// Fraction of the makespan the sync bus was held.
    pub sync_bus_occupancy: f64,
    /// Completed wait episodes across all processors.
    pub wait_episodes: u64,
    /// Mean completed wait episode, in cycles.
    pub wait_mean: f64,
    /// Longest completed wait episode, in cycles.
    pub wait_max: u64,
    /// Total operations on the scheme's sync variables
    /// (posts + rmws + waits + granted polls).
    pub sync_ops: u64,
    /// Private-cache hit rate (0 when caches are disabled or untouched).
    pub cache_hit_rate: f64,
    /// Lines invalidated in other processors' caches (MESI writes).
    pub cache_invalidations: u64,
    /// Coherence-only bus transactions: upgrades + updates + writebacks.
    pub cache_coherence: u64,
}

/// Compiles the nest with no synchronization at all (for the sequential
/// baseline and for Doall-style upper bounds).
pub fn plain_compiled(
    nest: &LoopNest,
    space: &IterSpace,
    cost: Option<CostFn<'_>>,
) -> CompiledLoop {
    let n = space.count();
    let mut programs = Vec::with_capacity(n as usize);
    for pid in 0..n {
        let indices = space.indices(pid);
        let mut prog = Program::new();
        for stmt in nest.executed_stmts(pid) {
            let c = cost.map_or(stmt.cost, |f| f(stmt.id, pid));
            emit_stmt(&mut prog, stmt, pid, &indices, c, None);
        }
        programs.push(prog);
    }
    CompiledLoop {
        workload: Workload::dynamic(programs),
        storage: Default::default(),
        presets: Vec::new(),
        validation_arcs: Vec::new(),
        instance_pairs: Vec::new(),
    }
}

/// Makespan of the unsynchronized loop on one processor.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn sequential_cycles(
    nest: &LoopNest,
    space: &IterSpace,
    base: &MachineConfig,
    cost: Option<CostFn<'_>>,
) -> Result<u64, SimError> {
    let compiled = plain_compiled(nest, space, cost);
    let mut config = MachineConfig { processors: 1, ..base.clone() };
    if config.sync_fabric.is_clustered() {
        // The unsynchronized one-processor baseline issues no sync
        // traffic, and a multi-cluster geometry cannot divide P=1 —
        // run it on the flat bus (same makespan either way).
        config.sync_fabric = FabricKind::Dedicated;
    }
    Ok(compiled.run(&config)?.stats.makespan)
}

/// Runs one scheme and builds its report row.
///
/// # Errors
///
/// Propagates simulator failures (a deadlock here means the scheme's
/// compilation is wrong).
pub fn report_for(
    scheme: &dyn Scheme,
    nest: &LoopNest,
    graph: &DepGraph,
    space: &IterSpace,
    base: &MachineConfig,
    cost: Option<CostFn<'_>>,
) -> Result<SchemeReport, SimError> {
    let compiled = scheme.compile_with(nest, graph, space, cost);
    let config = machine_for(scheme, base.clone());
    let out = compiled.run(&config)?;
    let seq = sequential_cycles(nest, space, base, cost)?;
    Ok(build_report(scheme.name(), scheme.sync_var_kind(), &compiled, &config, &out, seq))
}

/// Assembles one report row from a finished run.
fn build_report(
    name: String,
    var_kind: &str,
    compiled: &CompiledLoop,
    config: &MachineConfig,
    out: &RunOutcome,
    seq: u64,
) -> SchemeReport {
    SchemeReport {
        scheme: name,
        transport: format!("{:?}", config.sync_transport),
        fabric: config.sync_fabric.to_string(),
        sync_vars: compiled.storage.vars,
        init_ops: compiled.storage.init_ops,
        extra_cells: compiled.storage.extra_data_cells,
        makespan: out.stats.makespan,
        utilization: out.stats.utilization(),
        busy: out.stats.total_busy(),
        spin: out.stats.total_spin(),
        blocked: out.stats.procs.iter().map(|p| p.blocked).sum(),
        data_transactions: out.stats.data_transactions,
        spin_polls: out.stats.spin_polls,
        sync_broadcasts: out.stats.sync_broadcasts,
        coalesced: out.stats.coalesced_writes,
        bridge_broadcasts: out.stats.bridge_broadcasts,
        bridge_coalesced: out.stats.bridge_coalesced,
        bridge_occupancy: out.metrics.bridge_occupancy(out.stats.makespan),
        speedup: out.stats.speedup_vs(seq),
        violations: compiled.validate(out).len(),
        var_kind: var_kind.to_string(),
        data_bus_occupancy: out.metrics.data_bus_occupancy(out.stats.makespan),
        sync_bus_occupancy: out.metrics.sync_bus_occupancy(out.stats.makespan),
        wait_episodes: out.metrics.wait_episodes(),
        wait_mean: out.metrics.wait_mean(),
        wait_max: out.metrics.wait_max(),
        sync_ops: out.metrics.sync_traffic_total().total(),
        cache_hit_rate: out.metrics.cache.hit_rate(),
        cache_invalidations: out.metrics.cache.invalidations,
        cache_coherence: out.metrics.cache.coherence_traffic(),
    }
}

/// Runs the four scheme families (process-oriented in both primitive
/// variants, with `x` process counters) on one workload. Barrier-phased
/// joins them on a machine that can hold it.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn compare_all(
    nest: &LoopNest,
    graph: &DepGraph,
    space: &IterSpace,
    base: &MachineConfig,
    x: usize,
) -> Result<Vec<SchemeReport>, SimError> {
    let (basic, improved) = (format!("process-basic/{x}"), format!("process/{x}"));
    let keys = ["reference", "instance", "statement", &basic, &improved, "barrier"];
    let schemes = roster(&keys, base.processors);
    // The sequential baseline is the same for every scheme — compute it
    // once instead of once per row. Each scheme's run is an independent
    // simulation, so the runs fan out across cores; `par_map` returns
    // results in input order, keeping the table bit-identical to the
    // serial version.
    let seq = sequential_cycles(nest, space, base, None)?;
    let prepared: Vec<(String, &'static str, CompiledLoop, MachineConfig)> = schemes
        .iter()
        .map(|s| {
            let compiled = s.compile_with(nest, graph, space, None);
            (s.name(), s.sync_var_kind(), compiled, machine_for(&**s, base.clone()))
        })
        .collect();
    datasync_core::par::par_map(prepared, |(name, var_kind, compiled, config)| {
        let out = compiled.run(&config)?;
        Ok(build_report(name, var_kind, &compiled, &config, &out, seq))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_loopir::analysis::analyze;
    use datasync_loopir::workpatterns::fig21_loop;

    #[test]
    fn compare_all_runs_and_validates() {
        let nest = fig21_loop(24);
        let graph = analyze(&nest);
        let space = IterSpace::of(&nest);
        let base = MachineConfig::with_processors(4);
        let rows = compare_all(&nest, &graph, &space, &base, 8).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.violations, 0, "{} violated dependences", r.scheme);
            assert!(r.makespan > 0);
        }
        // Storage shape (E12): keys scale with N, SCs with statements,
        // PCs with X.
        let by_name = |n: &str| rows.iter().find(|r| r.scheme.starts_with(n)).unwrap();
        assert!(by_name("reference-based").sync_vars > by_name("statement-oriented").sync_vars);
        assert_eq!(by_name("statement-oriented").sync_vars, 4);
        assert_eq!(by_name("process-oriented (X=8, improved)").sync_vars, 8);
    }

    #[test]
    fn compare_all_reports_cache_traffic_when_enabled() {
        use datasync_sim::{CacheModel, CoherenceProtocol};
        let nest = fig21_loop(24);
        let graph = analyze(&nest);
        let space = IterSpace::of(&nest);
        let plain = MachineConfig::with_processors(4);
        let cached = plain.clone().with_cache(CacheModel::private(CoherenceProtocol::Mesi));
        let rows = compare_all(&nest, &graph, &space, &cached, 8).unwrap();
        for r in &rows {
            assert_eq!(r.violations, 0, "{} violated dependences under caches", r.scheme);
        }
        assert!(rows.iter().any(|r| r.cache_hit_rate > 0.0), "no scheme produced any cache hits");
        assert!(
            rows.iter().any(|r| r.cache_invalidations + r.cache_coherence > 0),
            "no row produced any coherence activity"
        );
        // And the cacheless table reports all-zero cache columns.
        for r in compare_all(&nest, &graph, &space, &plain, 8).unwrap() {
            assert_eq!(r.cache_hit_rate, 0.0, "{}: phantom hit rate", r.scheme);
            assert_eq!(r.cache_invalidations + r.cache_coherence, 0, "{}", r.scheme);
        }
    }

    #[test]
    fn sequential_baseline_positive() {
        let nest = fig21_loop(10);
        let space = IterSpace::of(&nest);
        let base = MachineConfig::with_processors(4);
        let seq = sequential_cycles(&nest, &space, &base, None).unwrap();
        // 10 iterations, 5 stmts, cost 4 each + accesses.
        assert!(seq > 10 * 5 * 4);
    }

    #[test]
    fn schemes_speed_up_over_sequential() {
        let nest = fig21_loop(48);
        let graph = analyze(&nest);
        let space = IterSpace::of(&nest);
        let base = MachineConfig::with_processors(8);
        let rows = compare_all(&nest, &graph, &space, &base, 16).unwrap();
        // The process-oriented scheme must actually exploit parallelism.
        let po = rows.iter().find(|r| r.scheme.contains("improved")).unwrap();
        assert!(po.speedup > 1.5, "speedup {}", po.speedup);
    }
}
