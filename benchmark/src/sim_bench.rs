//! The simulator workloads, `sim_grid` and `sim_scale`, and the staged
//! cell both they and the serve replay measure layers with.

use std::time::Instant;

use datasync_loopir::analysis::analyze;
use datasync_loopir::graph::DepGraph;
use datasync_loopir::ir::LoopNest;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::{
    BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, Scheme, StatementOriented,
};
use datasync_serve::runner::base_budget;
use datasync_serve::{run_cell, CellSpec};
use datasync_sim::{
    CacheModel, CoherenceProtocol, FabricKind, Machine, MachineConfig, RecoveryPolicy, RunOutcome,
    StepMode, Workload,
};

use crate::gen::{self, Size};
use crate::harness::{self, keep_going, repeat_setup, Samples};
use crate::report::{RunReport, Values};
use crate::stats::{mean, median, ratio, Digest};
use crate::trace::{Span, Summary, Tracer};

/// `op_ms_tail` is p99 on `sim_grid` (more than ten thousand ops a run)
/// and p75 on `sim_scale` (nine cells a pass, a few dozen ops a run).
const GRID_TAIL: u32 = 99;
const SCALE_TAIL: u32 = 75;

/// Every n-th `sim_grid` cell also runs under `StepMode::Reference`.
const SAMPLE_STRIDE: usize = 27;

/// Statement cost of the `sim_scale` loops, as in `perf --scale`.
const SCALE_COST: u32 = 2_000;

/// Exact simulated counts, summed over the cells of one pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    pub cells: u64,
    pub makespan: u64,
    instrs: u64,
    dispatched: u64,
    sync_ops_issued: u64,
    sync_broadcasts: u64,
    coalesced_writes: u64,
    bridge_broadcasts: u64,
    bridge_coalesced: u64,
    sync_bus_busy: u64,
    bridge_busy: u64,
    data_transactions: u64,
    spin_polls: u64,
    bank_conflicts: u64,
    data_bus_busy: u64,
    cache: datasync_sim::CacheTraffic,
    busy: u64,
    spin: u64,
    proc_cycles: u64,
    wait_episodes: u64,
    wait_cycles: u64,
    faults_injected: u64,
    recovery_actions: u64,
    watchdog_repairs: u64,
    heal_latency_max: u64,
    recovered_cells: u64,
}

/// Simulator work of a run, the unit host time is divided by.
fn sim_ops(out: &RunOutcome) -> u64 {
    out.stats.dispatched + out.stats.sync_ops_issued + out.stats.data_transactions
}

impl Counters {
    pub fn add(&mut self, out: &RunOutcome, workload: &Workload) {
        let (s, m) = (&out.stats, &out.metrics);
        self.cells += 1;
        self.makespan += s.makespan;
        self.instrs += workload.programs.iter().map(|p| p.len() as u64).sum::<u64>();
        self.dispatched += s.dispatched;
        self.sync_ops_issued += s.sync_ops_issued;
        self.sync_broadcasts += s.sync_broadcasts;
        self.coalesced_writes += s.coalesced_writes;
        self.bridge_broadcasts += s.bridge_broadcasts;
        self.bridge_coalesced += s.bridge_coalesced;
        self.sync_bus_busy += m.sync_bus_busy;
        self.bridge_busy += m.bridge_busy;
        self.data_transactions += s.data_transactions;
        self.spin_polls += s.spin_polls;
        self.bank_conflicts += m.bank_conflicts;
        self.data_bus_busy += m.data_bus_busy;
        self.cache.hits += m.cache.hits;
        self.cache.misses += m.cache.misses;
        self.cache.invalidations += m.cache.invalidations;
        self.cache.upgrades += m.cache.upgrades;
        self.cache.updates += m.cache.updates;
        self.cache.writebacks += m.cache.writebacks;
        self.cache.c2c_transfers += m.cache.c2c_transfers;
        self.busy += s.total_busy();
        self.spin += s.total_spin();
        self.proc_cycles += s.makespan * s.procs.len() as u64;
        self.wait_episodes += m.wait_episodes();
        self.wait_cycles += m.wait_cycles();
        self.faults_injected += s.faults.total();
        self.recovery_actions += s.recovery.actions();
        self.watchdog_repairs += s.recovery.watchdog_repairs;
        self.heal_latency_max = self.heal_latency_max.max(s.recovery.heal_latency_max);
        self.recovered_cells += u64::from(s.recovery.actions() > 0);
    }

    fn ops(&self) -> u64 {
        self.dispatched + self.sync_ops_issued + self.data_transactions
    }

    pub fn emit(&self, v: &mut Values) {
        let n = self.cells as usize;
        let mut set = |name, value: u64| v.set(name, value as f64, n);
        set("schemes.instrs", self.instrs);
        set("sim.ops", self.ops());
        set("fabric.sync_ops_issued", self.sync_ops_issued);
        set("fabric.sync_broadcasts", self.sync_broadcasts);
        set("fabric.coalesced_writes", self.coalesced_writes);
        set("fabric.bridge_broadcasts", self.bridge_broadcasts);
        set("fabric.bridge_coalesced", self.bridge_coalesced);
        set("fabric.sync_bus_busy_cycles", self.sync_bus_busy);
        set("fabric.bridge_busy_cycles", self.bridge_busy);
        set("memory.data_transactions", self.data_transactions);
        set("memory.spin_polls", self.spin_polls);
        set("memory.bank_conflicts", self.bank_conflicts);
        set("memory.data_bus_busy_cycles", self.data_bus_busy);
        set("cache.hits", self.cache.hits);
        set("cache.misses", self.cache.misses);
        set("cache.invalidations", self.cache.invalidations);
        set("cache.upgrades", self.cache.upgrades);
        set("cache.updates", self.cache.updates);
        set("cache.writebacks", self.cache.writebacks);
        set("cache.c2c_transfers", self.cache.c2c_transfers);
        set("exec.busy_cycles", self.busy);
        set("exec.spin_cycles", self.spin);
        set("exec.wait_episodes", self.wait_episodes);
        set("exec.wait_cycles", self.wait_cycles);
        set("dispatch.dispatched", self.dispatched);
        set("recovery.faults_injected", self.faults_injected);
        set("recovery.actions", self.recovery_actions);
        set("recovery.watchdog_repairs", self.watchdog_repairs);
        set("recovery.heal_latency_max", self.heal_latency_max);
        set("recovery.recovered_cells", self.recovered_cells);
        v.set(
            "fabric.coalesce_ratio",
            ratio(self.coalesced_writes as f64, self.sync_ops_issued as f64),
            n,
        );
        v.set("cache.hit_rate", self.cache.hit_rate(), n);
        v.set("exec.utilization", ratio(self.busy as f64, self.proc_cycles as f64), n);
    }
}

/// Stage medians and shares of the traced ops, from their spans.
pub fn emit_stages(v: &mut Values, sum: &Summary) {
    let med = |name: &str, per: f64| (median(&mut sum.of(name).to_vec()) / per, sum.of(name).len());
    let cell_total = sum.total("cell");
    let share = |name: &str| (ratio(sum.total(name), cell_total), sum.of(name).len());
    let mut set = |name, (value, n): (f64, usize)| v.set(name, value, n);
    set("loopir.analyze_us", med("loopir.analyze", 1e3));
    set("schemes.compile_ms", med("schemes.compile", 1e6));
    set("schemes.compile_share", share("schemes.compile"));
    set("schemes.validate_ms", med("schemes.validate", 1e6));
    set("schemes.validate_share", share("schemes.validate"));
    set("sim.new_us", med("sim.new", 1e3));
    set("sim.run_ms", med("sim.run", 1e6));
    set("sim.run_share", share("sim.run"));
    set("trace.coverage", (median(&mut sum.coverage.clone()), sum.coverage.len()));
    set("trace.spans", (sum.spans as f64, 1));
}

/// The conservation identities every completed run must satisfy.
fn check_outcome(out: &RunOutcome, config: &MachineConfig, fault_free: bool) -> Result<(), String> {
    let s = &out.stats;
    if let Some(p) = s.procs.iter().find(|p| p.total() != s.makespan) {
        return Err(format!("a processor accounts for {} of {} cycles", p.total(), s.makespan));
    }
    if fault_free && s.recovery.actions() == 0 {
        if s.sync_ops_issued != s.sync_broadcasts + s.coalesced_writes {
            return Err(format!(
                "sync ops not conserved: {} issued, {} broadcast + {} coalesced",
                s.sync_ops_issued, s.sync_broadcasts, s.coalesced_writes
            ));
        }
        if config.sync_fabric.is_clustered()
            && s.sync_broadcasts != s.bridge_broadcasts + s.bridge_coalesced
        {
            return Err(format!(
                "bridge not conserved: {} broadcasts, {} forwarded + {} coalesced",
                s.sync_broadcasts, s.bridge_broadcasts, s.bridge_coalesced
            ));
        }
    }
    Ok(())
}

/// The public steps of `CompiledLoop::run`, with a span around each.
fn simulate(
    workload: &Workload,
    presets: &[(usize, u64)],
    config: &MachineConfig,
    mode: StepMode,
    tr: &mut Tracer,
    op: u32,
) -> Result<RunOutcome, String> {
    let span = tr.begin("sim.new", op);
    config.validate()?;
    let mut machine = Machine::new(config, workload);
    machine.set_mode(mode);
    for &(var, val) in presets {
        machine.preset_sync(var, val);
    }
    tr.end(span);
    let span = tr.begin("sim.run", op);
    let out = machine.run_to_completion();
    tr.end(span);
    out.map_err(|e| e.to_string())
}

/// A Fig 2.1 loop, analysed.
struct LoopInput {
    nest: LoopNest,
    graph: DepGraph,
    space: IterSpace,
}

fn loop_input(iterations: i64) -> LoopInput {
    let nest = fig21_loop(iterations);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    LoopInput { nest, graph, space }
}

/// What one staged `sim_grid` cell produced.
pub struct GridOp {
    pub status: &'static str,
    pub out: RunOutcome,
    pub workload: Workload,
}

/// One service cell through the same public steps `run_cell` takes
/// (compile, budget, run, validate), so each can be timed on its own
/// and the run's statistics read. The caller checks that it lands on
/// `run_cell`'s status and makespan.
pub fn grid_op(
    spec: &CellSpec,
    mode: StepMode,
    tr: &mut Tracer,
    op: u32,
) -> Result<GridOp, String> {
    let root = tr.begin("cell", op);
    let span = tr.begin("loopir.analyze", op);
    let input = loop_input(spec.iterations);
    tr.end(span);
    let span = tr.begin("schemes.compile", op);
    let scheme: Box<dyn Scheme> = match spec.scheme.as_str() {
        "reference" => Box::new(ReferenceBased::new()),
        "instance" => Box::new(InstanceBased::new()),
        "statement" => Box::new(StatementOriented::new()),
        "process" => Box::new(ProcessOriented::new(spec.processors.max(2))),
        "barrier" => Box::new(BarrierPhased::new(spec.processors)),
        other => return Err(format!("unknown scheme key `{other}`")),
    };
    let compiled = scheme.compile(&input.nest, &input.graph, &input.space);
    tr.end(span);
    let mut config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        sync_fabric: spec.fabric,
        recovery: RecoveryPolicy::Full,
        cache: spec.cache,
        faults: spec.fault_plan(),
        ..MachineConfig::with_processors(spec.processors)
    };
    config.max_cycles = base_budget(spec, &compiled, &config);
    let out = simulate(&compiled.workload, &compiled.presets, &config, mode, tr, op)?;
    let span = tr.begin("schemes.validate", op);
    let problems = compiled.validate(&out);
    tr.end(span);
    tr.end(root);
    if let Some(first) = problems.first() {
        return Err(format!("dependence order violated: {first}"));
    }
    check_outcome(&out, &config, spec.fault_pct == 0)?;
    let status = if out.stats.recovery.actions() > 0 { "recovered" } else { "ok" };
    Ok(GridOp { status, out, workload: compiled.workload })
}

fn describe(spec: &CellSpec) -> String {
    format!(
        "{} {} P={} N={} fault={} seed={}",
        spec.scheme, spec.fabric, spec.processors, spec.iterations, spec.fault_pct, spec.seed
    )
}

/// What one op of a pass produced.
struct Done {
    /// What identifies the cell: its content hash or its label.
    key: String,
    status: String,
    makespan: u64,
    /// Simulator ops, where the op exposes them (0 through `run_cell`).
    ops: u64,
}

/// What a pass over the cells produced.
struct Pass {
    digest: Digest,
    makespan: u64,
    ops: Vec<u64>,
}

impl Pass {
    /// Every pass must produce what the warm-up pass produced.
    fn same_as(&self, warm_up: &Pass) -> Result<(), String> {
        if self.digest == warm_up.digest {
            Ok(())
        } else {
            Err("a pass's digest differs from the warm-up pass's".into())
        }
    }
}

/// One pass: `op` on every item in order, each timed, the results
/// digested. With `count`, every item is an op of the timed region and
/// the pass is one throughput batch.
fn run_pass<T>(
    items: &[T],
    mut count: Option<(&mut Samples, &mut RunReport)>,
    mut op: impl FnMut(usize, &T) -> Result<Done, String>,
) -> Pass {
    let mut pass = Pass { digest: Digest::new(), makespan: 0, ops: Vec::new() };
    let started = Instant::now();
    for (i, item) in items.iter().enumerate() {
        let t = Instant::now();
        let done = op(i, std::hint::black_box(item));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(done) = &done {
            pass.digest.bytes(done.key.as_bytes());
            pass.digest.bytes(done.status.as_bytes());
            pass.digest.num(done.makespan);
            pass.makespan += done.makespan;
            pass.ops.push(done.ops);
        }
        if let Some((samples, report)) = count.as_mut() {
            samples.op_ms.push(ms);
            report.op(done.map(drop));
        }
    }
    if let Some((samples, _)) = count {
        samples.batch_rates.push(items.len() as f64 / started.elapsed().as_secs_f64());
    }
    pass
}

/// One pass through `run_cell`, the way the service and the CLI run a
/// cell.
fn grid_pass(cells: &[CellSpec], count: Option<(&mut Samples, &mut RunReport)>) -> Pass {
    run_pass(cells, count, |_, spec| {
        let record = run_cell(spec).record;
        match record.status.as_str() {
            "ok" | "recovered" => Ok(Done {
                key: record.hash,
                status: record.status,
                makespan: record.makespan,
                ops: 0,
            }),
            other => Err(format!("{}: status {other} ({})", describe(spec), record.detail)),
        }
    })
}

/// One pass through the staged cell, spans on. `counters` is filled on
/// the pass that asks for it.
fn grid_pass_staged(
    cells: &[CellSpec],
    pass_no: usize,
    tr: &mut Tracer,
    count: Option<(&mut Samples, &mut RunReport)>,
    mut counters: Option<&mut Counters>,
) -> Pass {
    run_pass(cells, count, |i, spec| {
        let op = (pass_no * cells.len() + i) as u32;
        let g = grid_op(spec, StepMode::FastForward, tr, op)
            .map_err(|why| format!("{}: {why}", describe(spec)))?;
        if let Some(c) = counters.as_mut() {
            c.add(&g.out, &g.workload);
        }
        Ok(Done {
            key: spec.content_hash(),
            status: g.status.to_string(),
            makespan: g.out.stats.makespan,
            ops: sim_ops(&g.out),
        })
    })
}

/// What the traced run of a sim workload reports from its spans and
/// counts: stage times, exact counts, simulated cycles per host second
/// and what tracing cost.
fn emit_traced(
    v: &mut Values,
    spans: &[Span],
    counters: &Counters,
    staged: &Samples,
    plain: &Samples,
) -> Summary {
    let mut sum = Summary::default();
    sum.add(spans);
    emit_stages(v, &sum);
    counters.emit(v);
    let passes = staged.batch_rates.len();
    v.set(
        "sim.cycles_per_host_s",
        ratio((counters.makespan * passes as u64) as f64, sum.total("sim.run") / 1e9),
        sum.of("sim.run").len(),
    );
    let traced = harness::cells_per_s(std::slice::from_ref(staged));
    let untraced = harness::cells_per_s(std::slice::from_ref(plain));
    v.set("trace.overhead_share", 1.0 - ratio(traced, untraced), passes);
    sum
}

/// Runs `cells` under both step modes and through `run_cell`: the
/// fast-forward kernel must be bit-identical to the reference stepper,
/// and the staged cell must land where the service's own cell does.
/// Returns reference ÷ fast-forward host time of the run stage.
pub fn check_sample(cells: &[&CellSpec], report: &mut RunReport) -> f64 {
    let origin = Instant::now();
    let (mut fast, mut reference) = (Tracer::new(true, origin), Tracer::new(true, origin));
    for (i, spec) in cells.iter().enumerate() {
        let pair = grid_op(spec, StepMode::FastForward, &mut fast, i as u32)
            .and_then(|ff| Ok((ff, grid_op(spec, StepMode::Reference, &mut reference, i as u32)?)));
        report.check(
            pair.and_then(|(ff, rf)| {
                if ff.out.stats != rf.out.stats
                    || ff.out.sync_final != rf.out.sync_final
                    || ff.out.metrics != rf.out.metrics
                {
                    return Err("fast-forward and reference stepping disagree".to_string());
                }
                let record = run_cell(spec).record;
                if record.status != ff.status || record.makespan != ff.out.stats.makespan {
                    return Err(format!(
                        "staged cell gives {} at {} cycles, run_cell {} at {}",
                        ff.status, ff.out.stats.makespan, record.status, record.makespan
                    ));
                }
                Ok(())
            })
            .map_err(|why| format!("{}: {why}", describe(spec))),
        );
    }
    let (mut ff, mut rf) = (Summary::default(), Summary::default());
    ff.add(&fast.spans);
    rf.add(&reference.spans);
    ratio(rf.total("sim.run"), ff.total("sim.run"))
}

fn sample_of(cells: &[CellSpec]) -> Vec<&CellSpec> {
    cells.iter().step_by(SAMPLE_STRIDE).collect()
}

/// `sim_grid`: many small cells, one after another.
pub fn run_grid(seed: u64, seconds: f64, traced: bool, size: &Size) -> (RunReport, Vec<Vec<Span>>) {
    let mut report = RunReport::default();
    let ((cells, warm), setup_secs) = repeat_setup(traced, || {
        let cells = gen::grid_cells(seed, size);
        let warm = grid_pass(&cells, None);
        Ok((cells, warm))
    })
    .expect("sim_grid set-up cannot fail");

    let mut plain = Samples::default();
    let started = Instant::now();
    let plain_seconds = if traced { seconds * 0.3 } else { seconds };
    while keep_going(started, plain_seconds, plain.batch_rates.len()) {
        let pass = grid_pass(&cells, Some((&mut plain, &mut report)));
        report.check(pass.same_as(&warm));
    }
    if !traced {
        check_sample(&sample_of(&cells), &mut report);
        harness::end_to_end(&mut report, setup_secs, &[plain], GRID_TAIL, warm.makespan);
        return (report, Vec::new());
    }

    let mut tracer = Tracer::new(true, Instant::now());
    let mut staged = Samples::default();
    let mut counters = Counters::default();
    let started = Instant::now();
    while keep_going(started, seconds * 0.5, staged.batch_rates.len()) {
        let pass_no = staged.batch_rates.len();
        let first = (pass_no == 0).then_some(&mut counters);
        let count = Some((&mut staged, &mut report));
        let pass = grid_pass_staged(&cells, pass_no, &mut tracer, count, first);
        report.check(pass.same_as(&warm));
    }
    let v = &mut report.values;
    emit_traced(v, &tracer.spans, &counters, &staged, &plain);
    // Mean run time of the cells that share one machine feature.
    let runs: Vec<(&CellSpec, f64)> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(|s| (&cells[s.op as usize % cells.len()], s.dur_ns() as f64 / 1e6))
        .collect();
    let mut group = |name, belongs: &dyn Fn(&CellSpec) -> bool| {
        let ms: Vec<f64> = runs.iter().filter(|(c, _)| belongs(c)).map(|&(_, ms)| ms).collect();
        v.set(name, mean(&ms), ms.len());
    };
    let protocol = |c: &CellSpec| match c.cache {
        CacheModel::None => None,
        CacheModel::Private { protocol, .. } => Some(protocol),
    };
    group("sim.run_ms.fabric_dedicated", &|c| c.fabric == FabricKind::Dedicated);
    group("sim.run_ms.fabric_shared", &|c| c.fabric == FabricKind::Shared);
    group("sim.run_ms.fabric_clustered", &|c| c.fabric.is_clustered());
    group("sim.run_ms.cache_none", &|c| protocol(c).is_none());
    group("sim.run_ms.cache_mesi", &|c| protocol(c) == Some(CoherenceProtocol::Mesi));
    group("sim.run_ms.cache_dragon", &|c| protocol(c) == Some(CoherenceProtocol::Dragon));
    group("sim.run_ms.fault0", &|c| c.fault_pct == 0);
    group("sim.run_ms.fault30", &|c| c.fault_pct > 0);
    let ff_speedup = check_sample(&sample_of(&cells), &mut report);
    report
        .values
        .set("sim.ff_speedup", ff_speedup, cells.len().div_ceil(SAMPLE_STRIDE));
    (report, vec![tracer.spans])
}

enum ScaleKind {
    /// Fig 2.1 with 2P iterations under one scheme on its natural
    /// transport.
    Scheme(Box<dyn Scheme>),
    /// The barrier hot-spot on one fabric.
    Hotspot(Workload, FabricKind),
}

struct ScaleCell {
    label: String,
    procs: usize,
    kind: ScaleKind,
}

const SCALE_SCHEMES: [&str; 5] =
    ["process", "statement", "barrier-phased", "reference", "instance"];

fn scale_scheme(label: &str, procs: usize) -> ScaleCell {
    let scheme: Box<dyn Scheme> = match label {
        "process" => Box::new(ProcessOriented::new(2 * procs)),
        "statement" => Box::new(StatementOriented::new()),
        "barrier-phased" => Box::new(BarrierPhased::new(procs)),
        "reference" => Box::new(ReferenceBased::new()),
        _ => Box::new(InstanceBased::new()),
    };
    ScaleCell { label: format!("{label}_p{procs}"), procs, kind: ScaleKind::Scheme(scheme) }
}

/// The `sim_scale` cells: the five schemes at `scale_procs`, then the
/// hot-spot flat and clustered at each of `hotspot_procs`.
fn scale_cells(size: &Size) -> Vec<ScaleCell> {
    let mut cells: Vec<ScaleCell> =
        SCALE_SCHEMES.iter().map(|s| scale_scheme(s, size.scale_procs)).collect();
    for procs in size.hotspot_procs {
        for (side, fabric) in
            [("flat", FabricKind::Dedicated), ("clustered", gen::hotspot_clustered(procs))]
        {
            cells.push(ScaleCell {
                label: format!("hotspot_{side}_p{procs}"),
                procs,
                kind: ScaleKind::Hotspot(gen::hotspot_workload(procs), fabric),
            });
        }
    }
    cells
}

/// One big run: compile (scheme cells), build the machine, run, check.
fn scale_op(
    input: &LoopInput,
    cell: &ScaleCell,
    tr: &mut Tracer,
    op: u32,
    counters: Option<&mut Counters>,
) -> Result<RunOutcome, String> {
    let root = tr.begin("cell", op);
    let out = match &cell.kind {
        ScaleKind::Scheme(scheme) => {
            let span = tr.begin("schemes.compile", op);
            let cost = |_, _| SCALE_COST;
            let compiled =
                scheme.compile_with(&input.nest, &input.graph, &input.space, Some(&cost));
            tr.end(span);
            let config = MachineConfig {
                sync_transport: scheme.natural_transport(),
                ..MachineConfig::with_processors(cell.procs)
            };
            let out = simulate(
                &compiled.workload,
                &compiled.presets,
                &config,
                StepMode::FastForward,
                tr,
                op,
            )?;
            let span = tr.begin("schemes.validate", op);
            let problems = compiled.validate(&out);
            tr.end(span);
            if let Some(first) = problems.first() {
                return Err(format!("dependence order violated: {first}"));
            }
            check_outcome(&out, &config, true)?;
            if let Some(c) = counters {
                c.add(&out, &compiled.workload);
            }
            out
        }
        ScaleKind::Hotspot(workload, fabric) => {
            let config = MachineConfig {
                sync_fabric: *fabric,
                ..MachineConfig::with_processors(cell.procs)
            };
            let out = simulate(workload, &[], &config, StepMode::FastForward, tr, op)?;
            let total = gen::HOTSPOT_ROUNDS * cell.procs as u64;
            if out.sync_final.first() != Some(&total) {
                return Err(format!("the hot-spot counter ended at {:?}", out.sync_final.first()));
            }
            check_outcome(&out, &config, true)?;
            if let Some(c) = counters {
                c.add(&out, workload);
            }
            out
        }
    };
    tr.end(root);
    Ok(out)
}

fn scale_pass(
    input: &LoopInput,
    cells: &[ScaleCell],
    pass_no: usize,
    tr: &mut Tracer,
    count: Option<(&mut Samples, &mut RunReport)>,
    mut counters: Option<&mut Counters>,
) -> Pass {
    run_pass(cells, count, |i, cell| {
        let op = (pass_no * cells.len() + i) as u32;
        let out = scale_op(input, cell, tr, op, counters.as_deref_mut())
            .map_err(|why| format!("{}: {why}", cell.label))?;
        Ok(Done {
            key: cell.label.clone(),
            status: "ok".into(),
            makespan: out.stats.makespan,
            ops: sim_ops(&out),
        })
    })
}

/// Host nanoseconds per simulator op, over the five schemes at `procs`.
fn host_ns_per_op(procs: usize) -> Result<(f64, usize), String> {
    let input = loop_input(2 * procs as i64);
    let mut tr = Tracer::new(true, Instant::now());
    let mut ops = 0;
    for (i, label) in SCALE_SCHEMES.iter().enumerate() {
        let out = scale_op(&input, &scale_scheme(label, procs), &mut tr, i as u32, None)?;
        ops += sim_ops(&out);
    }
    let mut sum = Summary::default();
    sum.add(&tr.spans);
    Ok((ratio(sum.total("sim.run"), ops as f64), SCALE_SCHEMES.len()))
}

/// `sim_scale`: one big run at a time.
pub fn run_scale(seconds: f64, traced: bool, size: &Size) -> (RunReport, Vec<Vec<Span>>) {
    let mut report = RunReport::default();
    let ((input, cells, warm), setup_secs) = repeat_setup(traced, || {
        let input = loop_input(2 * size.scale_procs as i64);
        let cells = scale_cells(size);
        let warm = scale_pass(&input, &cells, 0, &mut Tracer::off(), None, None);
        Ok((input, cells, warm))
    })
    .expect("sim_scale set-up cannot fail");

    let mut plain = Samples::default();
    let started = Instant::now();
    let plain_seconds = if traced { seconds * 0.3 } else { seconds };
    while keep_going(started, plain_seconds, plain.batch_rates.len()) {
        let count = Some((&mut plain, &mut report));
        let pass = scale_pass(&input, &cells, 0, &mut Tracer::off(), count, None);
        report.check(pass.same_as(&warm));
    }
    if !traced {
        harness::end_to_end(&mut report, setup_secs, &[plain], SCALE_TAIL, warm.makespan);
        return (report, Vec::new());
    }

    let mut tracer = Tracer::new(true, Instant::now());
    let mut staged = Samples::default();
    let mut counters = Counters::default();
    let started = Instant::now();
    while keep_going(started, seconds * 0.5, staged.batch_rates.len()) {
        let pass_no = staged.batch_rates.len();
        let first = (pass_no == 0).then_some(&mut counters);
        let count = Some((&mut staged, &mut report));
        let pass = scale_pass(&input, &cells, pass_no, &mut tracer, count, first);
        report.check(pass.same_as(&warm));
    }
    let v = &mut report.values;
    emit_traced(v, &tracer.spans, &counters, &staged, &plain);
    let passes = staged.batch_rates.len() as f64;
    // Per cell: median host time of its op and of its run stage.
    let cell_ms = |label: &str, span: &str| {
        let mut ms: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == span && cells[s.op as usize % cells.len()].label == label)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        (median(&mut ms), ms.len())
    };
    let [small, large] = size.hotspot_procs;
    for (name, side, procs) in [
        ("fabric.hotspot_ms.flat_p1024", "flat", small),
        ("fabric.hotspot_ms.clustered_p1024", "clustered", small),
        ("fabric.hotspot_ms.flat_p4096", "flat", large),
        ("fabric.hotspot_ms.clustered_p4096", "clustered", large),
    ] {
        let (ms, n) = cell_ms(&format!("hotspot_{side}_p{procs}"), "cell");
        v.set(name, ms, n);
    }
    let (run_ms, n) = cell_ms(&format!("hotspot_flat_p{large}"), "sim.run");
    // P rounds of P updates, each its own broadcast on the flat bus.
    let broadcasts = (gen::HOTSPOT_ROUNDS * large as u64) as f64;
    v.set("fabric.host_ns_per_broadcast.flat_p4096", run_ms * 1e6 / broadcasts, n);
    // The P ladder. The top rung is the scheme cells just measured.
    for (name, procs) in [
        ("sim.host_ns_per_op.p8", 8),
        ("sim.host_ns_per_op.p64", 64),
        ("sim.host_ns_per_op.p256", 256),
        ("sim.host_ns_per_op.p1024", 1024),
    ] {
        if procs < size.scale_procs {
            match host_ns_per_op(procs) {
                Ok((ns, n)) => v.set(name, ns, n),
                Err(why) => report.problems.push(format!("P ladder at {procs}: {why}")),
            }
        } else if procs == size.scale_procs {
            // The scheme cells come first in a pass.
            let schemes = SCALE_SCHEMES.len();
            let ns: f64 = tracer
                .spans
                .iter()
                .filter(|s| s.name == "sim.run" && (s.op as usize % cells.len()) < schemes)
                .map(|s| s.dur_ns() as f64)
                .sum();
            let ops = warm.ops[..schemes].iter().sum::<u64>() as f64 * passes;
            v.set(name, ratio(ns, ops), schemes);
        }
    }
    (report, vec![tracer.spans])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCH_scale.json`, barrier-hotspot curves, P = 1024.
    const BENCH_SCALE_FLAT_P1024: u64 = 4904;
    const BENCH_SCALE_CLUSTERED_P1024: u64 = 957;

    #[test]
    fn the_rebuilt_hot_spot_matches_bench_scale() {
        let size = Size { scale_procs: 8, hotspot_procs: [1024, 8], ..Size::QUICK };
        let cells = scale_cells(&size);
        let input = loop_input(16);
        let makespan = |label: &str| {
            let cell = cells.iter().find(|c| c.label == label).expect(label);
            scale_op(&input, cell, &mut Tracer::off(), 0, None).expect(label).stats.makespan
        };
        assert_eq!(makespan("hotspot_flat_p1024"), BENCH_SCALE_FLAT_P1024);
        assert_eq!(makespan("hotspot_clustered_p1024"), BENCH_SCALE_CLUSTERED_P1024);
    }

    #[test]
    fn the_staged_cell_lands_where_run_cell_does() {
        let cells = gen::grid_cells(1989, &Size::QUICK);
        let mut report = RunReport::default();
        let speedup = check_sample(&sample_of(&cells), &mut report);
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert!(speedup > 0.0);
    }

    #[test]
    fn a_tampered_record_fails_the_digest_check() {
        let cells = gen::grid_cells(1989, &Size::QUICK);
        let honest = grid_pass(&cells[..8], None);
        let again = grid_pass(&cells[..8], None);
        assert_eq!(honest.digest, again.digest, "passes repeat");
        let tampered = run_pass(&cells[..8], None, |i, spec| {
            let record = run_cell(spec).record;
            let makespan = record.makespan + u64::from(i == 5);
            Ok(Done { key: record.hash, status: record.status, makespan, ops: 0 })
        });
        assert!(tampered.same_as(&honest).is_err(), "one cycle off in one cell must show");
        assert!(again.same_as(&honest).is_ok());
    }

    #[test]
    fn a_broken_identity_fails_the_outcome_check() {
        let spec = &gen::grid_cells(1989, &Size::QUICK)[0];
        let g = grid_op(spec, StepMode::FastForward, &mut Tracer::off(), 0).expect("cell runs");
        let config = MachineConfig::with_processors(spec.processors);
        assert!(check_outcome(&g.out, &config, true).is_ok());
        let mut out = g.out.clone();
        out.stats.sync_ops_issued += 1;
        assert!(check_outcome(&out, &config, true).is_err());
        let mut out = g.out;
        out.stats.procs[0].busy += 1;
        assert!(check_outcome(&out, &config, true).is_err());
    }
}
