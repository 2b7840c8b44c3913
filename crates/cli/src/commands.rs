//! Subcommand implementations.

use crate::args::Parsed;
use crate::CliError;
use datasync_loopir::analysis::analyze as analyze_deps;
use datasync_loopir::covering::reduce;
use datasync_loopir::ir::LoopNest;
use datasync_loopir::plan::SyncPlan;
use datasync_loopir::profit::analyze_doacross;
use datasync_loopir::render::{render_doacross, render_loop};
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns;
use datasync_schemes::cell::{machine_for, scheme_for, TIMEOUT_RETRY_FACTOR};
use datasync_sim::{CacheModel, CoherenceProtocol, FabricKind, MachineConfig, MemoryModel};
use std::fmt::Write as _;

/// Parses `--fabric` (defaulting to the paper's dedicated sync bus).
/// `--fabric clustered` opens the two-level geometry knobs:
/// `--clusters N` (must divide P), `--bridge-latency L` and
/// `--coalesce-window W`; giving any of those with a flat fabric is an
/// error so a typo cannot silently fall back to a flat topology.
fn parse_fabric(p: &Parsed) -> Result<FabricKind, String> {
    let word = p.get("fabric").unwrap_or("dedicated");
    let kind = FabricKind::parse(word).ok_or_else(|| {
        format!("unknown --fabric '{word}' (dedicated | shared | ideal | clustered)")
    })?;
    if let FabricKind::Clustered { clusters, bridge_latency, coalesce_window } = kind {
        return Ok(FabricKind::Clustered {
            clusters: p.get_u64("clusters", u64::from(clusters))? as u32,
            bridge_latency: p.get_u64("bridge-latency", u64::from(bridge_latency))? as u32,
            coalesce_window: p.get_u64("coalesce-window", u64::from(coalesce_window))? as u32,
        });
    }
    for knob in ["clusters", "bridge-latency", "coalesce-window"] {
        if p.get(knob).is_some() {
            return Err(format!("--{knob} requires --fabric clustered (got '{word}')"));
        }
    }
    Ok(kind)
}

/// Parses the private-cache knobs: `--cache none|mesi|dragon` selects
/// the coherence protocol (default none — the cacheless machine of the
/// paper), with `--cache-sets`, `--cache-assoc`, `--cache-line`
/// overriding the geometry and `--sync-uncached` keeping sync variables
/// out of the caches.
fn parse_cache(p: &Parsed) -> Result<CacheModel, String> {
    let word = p.get("cache").unwrap_or("none");
    if word == "none" {
        return Ok(CacheModel::None);
    }
    let protocol = CoherenceProtocol::parse(word)
        .ok_or_else(|| format!("unknown --cache '{word}' (none | mesi | dragon)"))?;
    let mut model = CacheModel::private(protocol);
    if let CacheModel::Private { sets, assoc, line_words, cache_sync, .. } = &mut model {
        *sets = p.get_u64("cache-sets", u64::from(*sets))? as u32;
        *assoc = p.get_u64("cache-assoc", u64::from(*assoc))? as u32;
        *line_words = p.get_u64("cache-line", u64::from(*line_words))? as u32;
        *cache_sync = !p.has("sync-uncached");
    }
    Ok(model)
}

/// Builds the selected example loop, or parses one from `--file`.
fn build_loop(p: &Parsed) -> Result<LoopNest, String> {
    if let Some(path) = p.get("file") {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
        return datasync_loopir::parse::parse_loop(&source).map_err(|e| e.to_string());
    }
    let n = p.get_u64("n", 48)? as i64;
    let m = p.get_u64("m", 8)? as i64;
    match p.get("loop").unwrap_or("fig21") {
        "fig21" => Ok(workpatterns::fig21_loop(n)),
        "relaxation" => Ok(workpatterns::example1_relaxation(n.max(3), 4)),
        "nested" => Ok(workpatterns::example2_nested(n.max(2), m.max(2), 4)),
        "branches" => Ok(workpatterns::example3_branches(n, 4)),
        other => Err(format!("unknown loop '{other}' (fig21 | relaxation | nested | branches)")),
    }
}

/// The [`scheme_for`] key of the selected `--scheme` word: the process
/// words take `--x` process counters, and `barrier-phased` is `barrier`.
fn scheme_key(p: &Parsed, x: usize) -> Result<String, String> {
    Ok(match p.get("scheme").unwrap_or("process") {
        word @ ("process" | "process-basic") => format!("{word}/{x}"),
        "barrier-phased" => "barrier".into(),
        word @ ("statement" | "reference" | "instance") => word.into(),
        other => Err(format!(
            "unknown scheme '{other}' (process | process-basic | statement | reference | instance | barrier-phased)"
        ))?,
    })
}

/// The validated machine every loop-running command starts from:
/// `procs` processors with the selected fabric, memory banks and caches.
fn base_machine(p: &Parsed, procs: usize) -> Result<MachineConfig, CliError> {
    let banks = p.get_u64("banks", 0)? as usize;
    let config = MachineConfig {
        sync_fabric: parse_fabric(p)?,
        memory_model: if banks == 0 { MemoryModel::BusHeld } else { MemoryModel::Banked { banks } },
        cache: parse_cache(p)?,
        ..MachineConfig::with_processors(procs)
    };
    config.validate().map_err(datasync_sim::SimError::BadConfig)?;
    Ok(config)
}

/// Flags that pick the loop and the machine size.
const LOOP_FLAGS: [&str; 6] = ["loop", "file", "n", "m", "procs", "x"];

/// Flags that pick the sync fabric and the private caches.
const MACHINE_FLAGS: [&str; 9] = [
    "fabric",
    "clusters",
    "bridge-latency",
    "coalesce-window",
    "cache",
    "cache-sets",
    "cache-assoc",
    "cache-line",
    "sync-uncached",
];

/// Rejects any flag outside `groups`.
fn expect_flags(p: &Parsed, groups: &[&[&str]]) -> Result<(), String> {
    p.expect_only(&groups.concat())
}

/// `datasync analyze`.
pub fn analyze(p: &Parsed) -> Result<String, CliError> {
    p.expect_only(&["loop", "file", "n", "m", "dot"])?;
    let nest = build_loop(p)?;
    let space = IterSpace::of(&nest);
    let graph = analyze_deps(&nest);
    let reduced = reduce(&nest, &graph);
    let mut out = String::new();

    let _ = writeln!(out, "== source ==\n{}", render_loop(&nest));
    let _ = writeln!(out, "== dependences ({}) ==", graph.deps().len());
    for d in graph.deps() {
        let covered = if reduced.deps().contains(d) { "" } else { "   [covered]" };
        let _ = writeln!(out, "  {d}{covered}");
    }
    if p.has("dot") {
        let _ = writeln!(out, "\n== graphviz ==\n{}", graph.to_dot(&nest));
    }
    let linear = reduced.linearized(&space);
    let plan = SyncPlan::build(&nest, &linear);
    let _ = writeln!(out, "\n== Doacross transformation (process-oriented) ==");
    let _ = writeln!(out, "{}", render_doacross(&nest, &plan));

    let decision = analyze_doacross(&nest, &linear);
    let n = space.count();
    let _ = writeln!(
        out,
        "== profitability ==\n  iteration time: {} cycles, delay: {} cycles{}",
        decision.iteration_time,
        decision.delay,
        if decision.doall { " (Doall: no carried dependences)" } else { "" }
    );
    for procs in [2u64, 4, 8] {
        let _ = writeln!(
            out,
            "  P={procs}: estimated speedup {:.2}{}",
            decision.speedup(n, procs),
            if decision.profitable(n, procs, 1.5) { "  -> run as Doacross" } else { "" }
        );
    }
    Ok(out)
}

/// `datasync simulate`.
pub fn simulate(p: &Parsed) -> Result<String, CliError> {
    expect_flags(p, &[&LOOP_FLAGS, &MACHINE_FLAGS, &["scheme", "banks", "timeline"]])?;
    let PreparedRun { compiled, config, scheme, iterations } = prepare_run(p)?;
    let procs = config.processors;
    let out = compiled.run(&config)?;
    let violations = compiled.validate(&out);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "scheme: {}   transport: {:?}   fabric: {}",
        scheme, config.sync_transport, config.sync_fabric
    );
    let _ = writeln!(
        text,
        "iterations: {}   processors: {procs}   sync vars: {}",
        iterations, compiled.storage.vars
    );
    let _ = writeln!(
        text,
        "makespan: {} cycles   utilization: {:.1}%",
        out.stats.makespan,
        out.stats.utilization() * 100.0
    );
    let _ = writeln!(
        text,
        "busy: {}   spin: {}   data tx: {}   broadcasts: {}   polls: {}",
        out.stats.total_busy(),
        out.stats.total_spin(),
        out.stats.data_transactions,
        out.stats.sync_broadcasts,
        out.stats.spin_polls
    );
    if out.metrics.cache.active() {
        let c = out.metrics.cache;
        let _ = writeln!(
            text,
            "cache: {:.1}% hits   invalidations: {}   updates: {}   writebacks: {}   c2c: {}",
            c.hit_rate() * 100.0,
            c.invalidations,
            c.updates,
            c.writebacks,
            c.c2c_transfers
        );
    }
    let _ = writeln!(text, "violations: {}", violations.len());
    for v in violations.iter().take(5) {
        let _ = writeln!(text, "  {v}");
    }
    if p.has("timeline") {
        let _ = writeln!(text, "\n{}", datasync_sim::render_timeline(&out.trace, procs, 100));
    }
    Ok(text)
}

/// `datasync compare`.
pub fn compare(p: &Parsed) -> Result<String, CliError> {
    expect_flags(p, &[&LOOP_FLAGS, &MACHINE_FLAGS])?;
    let nest = build_loop(p)?;
    let procs = p.get_u64("procs", 4)? as usize;
    let x = p.get_u64("x", 2 * procs as u64)? as usize;
    if procs == 0 || x == 0 {
        return Err("--procs and --x must be at least 1".into());
    }
    let graph = analyze_deps(&nest);
    let space = IterSpace::of(&nest);
    let base = base_machine(p, procs)?;
    let cached = base.cache.enabled();
    let clustered = base.sync_fabric.is_clustered();
    let rows = datasync_schemes::compare::compare_all(&nest, &graph, &space, &base, x)?;
    let mut text = String::new();
    let _ = write!(
        text,
        "{:<34} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>6} {:>6} {:>9} {:>9} {:>10}",
        "scheme",
        "kind",
        "fabric",
        "sync vars",
        "makespan",
        "speedup",
        "util%",
        "dbus%",
        "sbus%",
        "sync ops",
        "wait max",
        "violations"
    );
    if clustered {
        let _ = write!(text, " {:>7} {:>8} {:>7}", "bridge%", "bridged", "aggr");
    }
    if cached {
        let _ = write!(text, " {:>6} {:>7} {:>7}", "hit%", "invals", "coh tx");
    }
    text.push('\n');
    for r in rows {
        let _ = write!(
            text,
            "{:<34} {:>7} {:>9} {:>9} {:>9} {:>8.2} {:>7.1} {:>6.1} {:>6.1} {:>9} {:>9} {:>10}",
            r.scheme,
            r.var_kind,
            r.fabric,
            r.sync_vars,
            r.makespan,
            r.speedup,
            r.utilization * 100.0,
            r.data_bus_occupancy * 100.0,
            r.sync_bus_occupancy * 100.0,
            r.sync_ops,
            r.wait_max,
            r.violations
        );
        if clustered {
            let _ = write!(
                text,
                " {:>7.1} {:>8} {:>7}",
                r.bridge_occupancy * 100.0,
                r.bridge_broadcasts,
                r.bridge_coalesced
            );
        }
        if cached {
            let _ = write!(
                text,
                " {:>6.1} {:>7} {:>7}",
                r.cache_hit_rate * 100.0,
                r.cache_invalidations,
                r.cache_coherence
            );
        }
        text.push('\n');
    }
    Ok(text)
}

/// A compiled run, its validated machine, and the scheme name and
/// iteration count `simulate` prints.
struct PreparedRun {
    compiled: datasync_schemes::scheme::CompiledLoop,
    config: MachineConfig,
    scheme: String,
    iterations: u64,
}

/// Compiles the selected loop under the selected scheme and builds its
/// natural-transport machine config (shared by `simulate`, `trace` and
/// `metrics`).
fn prepare_run(p: &Parsed) -> Result<PreparedRun, CliError> {
    let nest = build_loop(p)?;
    let procs = p.get_u64("procs", 4)? as usize;
    let x = p.get_u64("x", 2 * procs as u64)? as usize;
    if procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    if x == 0 {
        return Err("--x must be at least 1".into());
    }
    let scheme = scheme_for(&scheme_key(p, x)?, procs)
        .map_err(|_| "barrier-phased needs a power-of-two --procs")?;
    let config = machine_for(&*scheme, base_machine(p, procs)?);
    let graph = analyze_deps(&nest);
    let space = IterSpace::of(&nest);
    let compiled = scheme.compile(&nest, &graph, &space);
    Ok(PreparedRun { compiled, config, scheme: scheme.name(), iterations: space.count() })
}

/// `datasync trace`.
pub fn trace(p: &Parsed) -> Result<String, CliError> {
    expect_flags(p, &[&LOOP_FLAGS, &MACHINE_FLAGS, &["scheme", "banks", "out", "events"]])?;
    let PreparedRun { compiled, config, .. } = prepare_run(p)?;
    let capacity = p.get_u64("events", 1 << 20)? as usize;
    if capacity == 0 {
        return Err("--events must be at least 1".into());
    }
    let out = compiled.run_traced(&config, capacity)?;
    let json = datasync_sim::render_chrome_trace(&out.trace, &out.events, config.processors);
    let path = p.get("out").unwrap_or("trace.json");
    std::fs::write(path, &json)
        .map_err(|e| CliError::from(format!("cannot write '{path}': {e}")))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "captured {} events over {} cycles ({} dropped by the ring)",
        out.events.len(),
        out.stats.makespan,
        out.events.dropped()
    );
    let _ = writeln!(text, "wrote {path} — open in chrome://tracing or https://ui.perfetto.dev");
    Ok(text)
}

/// `datasync metrics`.
pub fn metrics(p: &Parsed) -> Result<String, CliError> {
    expect_flags(p, &[&LOOP_FLAGS, &MACHINE_FLAGS, &["scheme", "banks"]])?;
    let PreparedRun { compiled, config, .. } = prepare_run(p)?;
    let out = compiled.run(&config)?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "makespan: {} cycles   utilization: {:.1}%",
        out.stats.makespan,
        out.stats.utilization() * 100.0
    );
    text.push_str(&out.metrics.render_table(&out.stats));
    Ok(text)
}

/// Worst outcome in a robustness tally, as the process exit code:
/// [`crate::ExitCode::worst`] folded over the tally's populated classes.
fn robustness_exit_code(t: &datasync_schemes::robustness::Tally) -> i32 {
    use crate::ExitCode;
    let mut worst = ExitCode::Success;
    for (count, code) in [
        (t.recovered, ExitCode::Recovered),
        (t.reconfigured, ExitCode::Reconfigured),
        (t.degraded, ExitCode::Degraded),
        (t.timeout, ExitCode::Timeout),
        (t.deadlock, ExitCode::Deadlock),
        (t.violated, ExitCode::Violated),
    ] {
        if count > 0 {
            worst = worst.worst(code);
        }
    }
    worst.code()
}

/// `datasync robustness`.
pub fn robustness(p: &Parsed) -> Result<crate::CliOutput, CliError> {
    expect_flags(p, &[&["n", "procs", "seed", "max-cycles", "recovery", "json"], &MACHINE_FLAGS])?;
    let n = p.get_u64("n", 16)? as i64;
    let procs = p.get_u64("procs", 4)? as usize;
    let seed = p.get_u64("seed", 1989)?;
    let max_cycles = p.get_u64("max-cycles", 3_000_000)?;
    if max_cycles == 0 {
        return Err("--max-cycles must be at least 1".into());
    }
    let recovery_word = p.get("recovery").unwrap_or("on");
    let recovery = datasync_sim::RecoveryPolicy::parse(recovery_word)
        .ok_or_else(|| format!("unknown --recovery '{recovery_word}' (on | off | repair-only)"))?;
    let fabric_word = p.get("fabric").unwrap_or("dedicated");
    let fabrics: Vec<FabricKind> =
        if fabric_word == "all" { FabricKind::ALL.to_vec() } else { vec![parse_fabric(p)?] };
    let base = MachineConfig {
        max_cycles,
        recovery,
        cache: parse_cache(p)?,
        ..MachineConfig::with_processors(procs)
    };
    base.validate().map_err(datasync_sim::SimError::BadConfig)?;
    let intensities = [0u8, 25, 50, 75];
    let matrix =
        datasync_schemes::robustness::sweep_fabrics(n, &base, &intensities, seed, &fabrics);
    let tally = datasync_schemes::robustness::Tally::of(&matrix);
    let mut text = String::new();
    let fabric_label = fabrics.iter().map(ToString::to_string).collect::<Vec<_>>().join("+");
    let _ = writeln!(
        text,
        "degradation matrix — {} iterations, {procs} processors, fault seed {seed}, \
         recovery {recovery}, fabric {fabric_label}",
        n
    );
    let _ = writeln!(
        text,
        "cells: ok = completed & validated (rN = worst recovery latency), recovered = \
         self-healed (aN actions, hN heal latency), reconfigured = survived a dead \
         processor (xN rescues, pN programs reissued, dN fail-stops), DEGRADED = \
         fallback scheme carried the run, DEADLOCK = detected, TIMEOUT = still running at \
         the cell's cap, max({max_cycles}, workload-scaled budget) cycles, and again on \
         one retry at {TIMEOUT_RETRY_FACTOR}x that cap, VIOLATED = order broken\n"
    );
    text.push_str(&datasync_schemes::robustness::render(&matrix));
    let _ = writeln!(
        text,
        "\n{} runs classified: {} ok, {} recovered, {} reconfigured, {} degraded, \
         {} deadlocked, {} timed out, {} violated",
        tally.total(),
        tally.ok,
        tally.recovered,
        tally.reconfigured,
        tally.degraded,
        tally.deadlock,
        tally.timeout,
        tally.violated
    );
    if let Some(path) = p.get("json") {
        std::fs::write(path, matrix.to_json())
            .map_err(|e| CliError::from(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(text, "wrote {path}");
    }
    Ok(crate::CliOutput { text, code: robustness_exit_code(&tally) })
}

/// Replays one reproducer file, appending its verdict to `text`.
/// Returns the exit code for that case (0 clean, 7 violated).
fn replay_one(path: &str, text: &mut String) -> Result<i32, CliError> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| CliError::from(format!("cannot read '{path}': {e}")))?;
    let case = datasync_schemes::Cell::from_json(&doc)?;
    let mut fabric = case.fabric.to_string();
    if let FabricKind::Clustered { clusters, bridge_latency, coalesce_window } = case.fabric {
        let _ = write!(
            fabric,
            " (clusters {clusters}, bridge latency {bridge_latency}, window {coalesce_window})"
        );
    }
    let _ = writeln!(
        text,
        "replaying {path}: scheme {}, fabric {fabric}, N={}, P={}, plan seed {}",
        case.scheme, case.iterations, case.processors, case.plan.seed
    );
    match datasync_bench::chaos::run_case(&case) {
        Ok(()) => {
            let _ = writeln!(text, "all machine invariants hold");
            Ok(0)
        }
        Err(what) => {
            let _ = writeln!(text, "invariant violated: {what}");
            Ok(crate::ExitCode::Violated.code())
        }
    }
}

/// `datasync chaos`.
pub fn chaos(p: &Parsed) -> Result<crate::CliOutput, CliError> {
    p.expect_only(&["cases", "seed", "out-dir", "replay"])?;
    if let Some(path) = p.get("replay") {
        // A directory batch-replays every *.json inside it (triaging a
        // serve quarantine folder in one command); a file replays alone.
        if std::fs::metadata(path).is_ok_and(|m| m.is_dir()) {
            let mut files: Vec<String> = std::fs::read_dir(path)
                .map_err(|e| CliError::from(format!("cannot read '{path}': {e}")))?
                .filter_map(|entry| {
                    let p = entry.ok()?.path();
                    (p.extension().is_some_and(|x| x == "json") && p.is_file())
                        .then(|| p.to_string_lossy().into_owned())
                })
                .collect();
            files.sort();
            if files.is_empty() {
                return Ok(crate::CliOutput {
                    text: format!("no *.json reproducers in {path} — nothing to replay\n"),
                    code: 0,
                });
            }
            let mut text = String::new();
            let mut failed = 0usize;
            for file in &files {
                if replay_one(file, &mut text)? != 0 {
                    failed += 1;
                }
            }
            let _ = writeln!(text, "{} of {} reproducers hold", files.len() - failed, files.len());
            let code = if failed == 0 { 0 } else { crate::ExitCode::Violated.code() };
            if failed > 0 {
                return Err(CliError { message: text, code });
            }
            return Ok(crate::CliOutput { text, code });
        }
        let mut text = String::new();
        let code = replay_one(path, &mut text)?;
        if code != 0 {
            return Err(CliError { message: text, code });
        }
        return Ok(crate::CliOutput { text, code });
    }
    let cases = p.get_u64("cases", 100)? as usize;
    if cases == 0 {
        return Err("--cases must be at least 1".into());
    }
    let seed = p.get_u64("seed", 1989)?;
    let report = datasync_bench::chaos::soak(cases, seed);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "chaos soak: {} cells from seed {seed} — {} invariant violations",
        report.cases,
        report.failures.len()
    );
    if report.failures.is_empty() {
        let _ = writeln!(
            text,
            "every cell holds: mode bit-identity, dependence order, trace \
             monotonicity, stat conservation"
        );
        return Ok(crate::CliOutput { text, code: 0 });
    }
    let dir = std::path::PathBuf::from(p.get("out-dir").unwrap_or("."));
    for f in &report.failures {
        let path = dir.join(format!("chaos_repro_{}_{}.json", report.seed, f.index));
        std::fs::write(&path, f.minimal.to_json())
            .map_err(|e| CliError::from(format!("cannot write '{}': {e}", path.display())))?;
        let _ = writeln!(
            text,
            "cell {}: {}\n  minimal reproducer -> {} (datasync chaos --replay)",
            f.index,
            f.what,
            path.display()
        );
    }
    Ok(crate::CliOutput { text, code: crate::ExitCode::Violated.code() })
}

/// `datasync serve`: run the sweep service until drained by
/// SIGTERM/SIGINT or `POST /shutdown`.
pub fn serve(p: &Parsed) -> Result<crate::CliOutput, CliError> {
    use datasync_serve::{ServeConfig, Server};
    p.expect_only(&["addr", "state-dir", "queue-cap", "max-cells"])?;
    let defaults = ServeConfig::default();
    let queue_cap = p.get_u64("queue-cap", defaults.queue_cap as u64)? as usize;
    let max_cells = p.get_u64("max-cells", defaults.max_cells as u64)? as usize;
    if queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    if max_cells == 0 {
        return Err("--max-cells must be at least 1".into());
    }
    let config = ServeConfig {
        addr: p.get("addr").unwrap_or(&defaults.addr).to_string(),
        state_dir: p.get("state-dir").map_or(defaults.state_dir, std::path::PathBuf::from),
        queue_cap,
        max_cells,
        watch_signals: true,
    };
    datasync_serve::signal::install_handlers();
    let server = Server::bind(config).map_err(|e| CliError {
        message: format!("serve failed to start: {e}"),
        code: crate::ExitCode::ServeFailure.code(),
    })?;
    // The ready line goes out before the accept loop starts so wrapper
    // scripts (and the CI smoke) can wait on it.
    println!("datasync serve: {}", server.boot_report());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = server.run();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "drained: {} requests, {} sweeps, {} cells computed, {} cached, \
         {} quarantined, {} shed",
        summary.requests,
        summary.sweeps,
        summary.cells_computed,
        summary.cells_cached,
        summary.cells_quarantined,
        summary.shed
    );
    let code = if summary.drained_clean { 0 } else { crate::ExitCode::ServeFailure.code() };
    Ok(crate::CliOutput { text, code })
}

/// `datasync wavefront`.
pub fn wavefront(p: &Parsed) -> Result<String, CliError> {
    p.expect_only(&["loop", "file", "n", "m"])?;
    let nest = build_loop(p)?;
    if nest.depth() != 2 {
        return Err("wavefront needs a depth-2 loop (--loop relaxation | nested)".into());
    }
    let graph = analyze_deps(&nest);
    let space = IterSpace::of(&nest);
    let mut text = String::new();
    match datasync_loopir::wavefront::wavefront_schedule(&graph, &space) {
        None => {
            let _ = writeln!(text, "no legal wavefront schedule (serial chain in the graph)");
        }
        Some(ws) => {
            let _ = writeln!(
                text,
                "lambda = ({}, {}): {} wavefronts, widest {} iterations, {} total",
                ws.lambda.0,
                ws.lambda.1,
                ws.parallel_steps(),
                ws.max_width(),
                ws.total()
            );
            for (i, wave) in ws.waves.iter().enumerate().take(8) {
                let _ = writeln!(text, "  wave {i:>3}: {} iterations", wave.len());
            }
            if ws.waves.len() > 8 {
                let _ = writeln!(text, "  ... ({} more)", ws.waves.len() - 8);
            }
        }
    }
    Ok(text)
}

/// `datasync unroll`.
pub fn unroll(p: &Parsed) -> Result<String, CliError> {
    p.expect_only(&["loop", "file", "n", "factor"])?;
    let nest = build_loop(p)?;
    let factor = p.get_u64("factor", 4)? as u32;
    if !datasync_loopir::transform::can_unroll(&nest, factor) {
        return Err(format!(
            "cannot unroll this loop by {factor} (needs a singly-nested, branch-free loop with a divisible iteration count)"
        )
        .into());
    }
    let un = datasync_loopir::transform::unroll(&nest, factor);
    let graph = reduce(&un, &analyze_deps(&un));
    let space = IterSpace::of(&un);
    let plan = SyncPlan::build(&un, &graph.linearized(&space));
    let mut text = String::new();
    let _ = writeln!(text, "{}", render_loop(&un));
    let _ = writeln!(text, "{}", render_doacross(&un, &plan));
    let _ = writeln!(
        text,
        "{} iterations x {} sync steps (was {} x original steps before unrolling)",
        space.count(),
        plan.n_steps(),
        nest.iter_count()
    );
    Ok(text)
}

/// `datasync perf`: the P-independence gate, or with `--scale` the
/// scaling curve written to `BENCH_scale.json`.
pub fn perf(p: &Parsed) -> Result<String, CliError> {
    p.expect_only(&["out", "quick", "scale"])?;
    let quick = p.has("quick");
    if p.has("scale") {
        let report = datasync_bench::scale::run(quick);
        let path = p.get("out").unwrap_or("BENCH_scale.json");
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::from(format!("cannot write '{path}': {e}")))?;
        let mut text = report.summary();
        let _ = writeln!(text, "\nwrote {path}");
        return Ok(text);
    }
    if p.has("out") || p.get("out").is_some() {
        return Err("--out only applies to --scale".into());
    }
    let gate = datasync_bench::scale::visit_gate(quick);
    let text = format!("{}\n", gate.summary());
    if gate.pass() {
        return Ok(text);
    }
    Err(CliError { message: text, code: crate::ExitCode::PerfRegression.code() })
}

/// `datasync reproduce`.
pub fn reproduce(p: &Parsed) -> Result<String, CliError> {
    p.expect_only(&["quick", "markdown"])?;
    let mut text = String::new();
    for table in datasync_bench::run_all(p.has("quick")) {
        if p.has("markdown") {
            let _ = writeln!(text, "{}", table.to_markdown());
        } else {
            let _ = writeln!(text, "{table}");
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_schemes::scheme::Scheme;
    use datasync_schemes::{
        BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented,
    };

    #[test]
    fn every_scheme_word_builds_what_its_typed_constructor_builds() {
        for (procs, x) in [3, 4, 8].into_iter().flat_map(|p| [(p, 1), (p, 8)]) {
            let typed = [
                ("process", Some(ProcessOriented::new(x).name())),
                ("process-basic", Some(ProcessOriented::basic(x).name())),
                ("statement", Some(StatementOriented::new().name())),
                ("reference", Some(ReferenceBased::new().name())),
                ("instance", Some(InstanceBased::new().name())),
                ("barrier-phased", (procs != 3).then(|| BarrierPhased::new(procs).name())),
            ];
            for (word, want) in typed {
                let args = ["simulate", "--scheme", word].map(String::from);
                let key = scheme_key(&Parsed::parse(&args).unwrap(), x).unwrap();
                let built = scheme_for(&key, procs).map(|s| s.name()).ok();
                assert_eq!(built, want, "{word} at P={procs}, X={x} (key {key})");
            }
        }
    }
}
