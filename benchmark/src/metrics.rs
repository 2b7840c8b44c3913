//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root lists
//! the same names (a unit test keeps the two from drifting), and
//! `compare` reads its bounds from here.

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sim_grid", "sim_scale", "serve_cold", "serve_warm"];

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// End-to-end: the share of the first run's value by which the
    /// second may be worse. Per-layer metrics carry no bound (0).
    pub bound: f64,
    /// Simulated or counted, not timed: two runs of one program on one
    /// seed must agree to the last digit.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound, exact }
}

/// A host time or other cost that varies from run to run.
const fn cost(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0, exact: false }
}

/// A simulated or counted cost, exact on one seed.
const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0, exact: true }
}

/// A value that is better when larger.
const fn gauge(name: &'static str, unit: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: 0.0, exact }
}

/// What a user of the system sees. Every workload reports all of them
/// from its untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", false, 0.25, false),
    e2e("cells_per_s", "cells/s", true, 0.07, false),
    e2e("op_ms_p50", "ms", false, 0.07, false),
    e2e("op_ms_tail", "ms", false, 0.15, false),
    e2e("sim_makespan_cycles", "cycles", false, 0.03, true),
    e2e("peak_rss_mb", "MB", false, 0.25, false),
];

/// One number per layer boundary, from the traced run. A workload that
/// does not reach a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 86] = [
    // loopir
    cost("loopir.analyze_us", "us"),
    // schemes
    cost("schemes.compile_ms", "ms"),
    cost("schemes.compile_share", "ratio"),
    cost("schemes.validate_ms", "ms"),
    cost("schemes.validate_share", "ratio"),
    count("schemes.instrs", "count"),
    // sim, the whole run
    cost("sim.new_us", "us"),
    cost("sim.run_ms", "ms"),
    cost("sim.run_share", "ratio"),
    count("sim.ops", "count"),
    gauge("sim.cycles_per_host_s", "cycles/s", false),
    gauge("sim.ff_speedup", "ratio", false),
    cost("sim.host_ns_per_op.p8", "ns"),
    cost("sim.host_ns_per_op.p64", "ns"),
    cost("sim.host_ns_per_op.p256", "ns"),
    cost("sim.host_ns_per_op.p1024", "ns"),
    cost("sim.run_ms.fabric_dedicated", "ms"),
    cost("sim.run_ms.fabric_shared", "ms"),
    cost("sim.run_ms.fabric_clustered", "ms"),
    cost("sim.run_ms.cache_none", "ms"),
    cost("sim.run_ms.cache_mesi", "ms"),
    cost("sim.run_ms.cache_dragon", "ms"),
    cost("sim.run_ms.fault0", "ms"),
    cost("sim.run_ms.fault30", "ms"),
    // sim::machine::fabric
    count("fabric.sync_ops_issued", "count"),
    count("fabric.sync_broadcasts", "count"),
    count("fabric.coalesced_writes", "count"),
    gauge("fabric.coalesce_ratio", "ratio", true),
    count("fabric.bridge_broadcasts", "count"),
    count("fabric.bridge_coalesced", "count"),
    count("fabric.sync_bus_busy_cycles", "cycles"),
    count("fabric.bridge_busy_cycles", "cycles"),
    cost("fabric.hotspot_ms.flat_p1024", "ms"),
    cost("fabric.hotspot_ms.clustered_p1024", "ms"),
    cost("fabric.hotspot_ms.flat_p4096", "ms"),
    cost("fabric.hotspot_ms.clustered_p4096", "ms"),
    cost("fabric.host_ns_per_broadcast.flat_p4096", "ns"),
    // sim::machine::memory + cache
    count("memory.data_transactions", "count"),
    count("memory.spin_polls", "count"),
    count("memory.bank_conflicts", "count"),
    count("memory.data_bus_busy_cycles", "cycles"),
    gauge("cache.hits", "count", true),
    count("cache.misses", "count"),
    gauge("cache.hit_rate", "ratio", true),
    count("cache.invalidations", "count"),
    count("cache.upgrades", "count"),
    count("cache.updates", "count"),
    count("cache.writebacks", "count"),
    count("cache.c2c_transfers", "count"),
    // sim::machine::exec + dispatch
    gauge("exec.busy_cycles", "cycles", true),
    count("exec.spin_cycles", "cycles"),
    count("exec.wait_episodes", "count"),
    count("exec.wait_cycles", "cycles"),
    gauge("exec.utilization", "ratio", true),
    count("dispatch.dispatched", "count"),
    // sim::machine::recovery_engine
    count("recovery.faults_injected", "count"),
    count("recovery.actions", "count"),
    count("recovery.watchdog_repairs", "count"),
    count("recovery.heal_latency_max", "cycles"),
    count("recovery.recovered_cells", "count"),
    // serve: the stages of one /sweep, replayed through public functions
    cost("serve.parse_us", "us"),
    cost("serve.expand_us", "us"),
    cost("serve.hash_us", "us"),
    cost("serve.store_get_us", "us"),
    cost("serve.compute_ms", "ms"),
    cost("serve.journal_us", "us"),
    cost("serve.render_us", "us"),
    // serve: seen from the client
    cost("serve.server_elapsed_ms_p50", "ms"),
    cost("serve.accept_wait_ms_p50", "ms"),
    cost("serve.first_line_ms_p50", "ms"),
    count("serve.response_bytes", "bytes"),
    // serve: the store
    count("serve.journal_bytes", "bytes"),
    cost("serve.replay_ms", "ms"),
    gauge("serve.replay_records_per_s", "1/s", false),
    // serve: /stats at the end of the run
    gauge("serve.requests", "count", false),
    cost("serve.cells_computed", "count"),
    gauge("serve.cells_cached", "count", false),
    gauge("serve.hit_rate", "ratio", true),
    count("serve.shed", "count"),
    count("serve.bad_requests", "count"),
    cost("serve.server_p99_us", "us"),
    // core::par
    gauge("core.threads", "count", false),
    gauge("core.par_speedup", "ratio", false),
    // the benchmark itself
    cost("trace.overhead_share", "ratio"),
    gauge("trace.coverage", "ratio", false),
    gauge("trace.spans", "count", false),
];

/// The definition of a metric by name, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}
