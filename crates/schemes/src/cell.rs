//! One replayable cell: a §3 scheme on a §6 machine at one size.
//!
//! Every table of the reproduction is a grid of cells, and any cell can
//! be re-run byte-exact from its written description. That description
//! lives here once: [`Cell`] is what the chaos fuzzer generates and
//! shrinks, what `datasync chaos --replay` loads, and what the sweep
//! service builds from a `CellSpec` to run a cell or to quarantine it
//! as a reproducer. The flat `"chaos_case": 1` document
//! ([`Cell::to_json`] / [`Cell::from_json`]) and the wire names of the
//! cache and fabric fields, which the service's canonical cell document
//! shares, are defined in this module and nowhere else. So is the run
//! policy: [`Cell::run`] is the one place a wedged run is retried or
//! handed to the conservative fallback scheme.

use crate::robustness::{classify_run, Outcome};
use crate::scheme::{CompiledLoop, Scheme};
use crate::{BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented};
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_sim::json::{self, Json};
use datasync_sim::{
    CacheModel, CoherenceProtocol, FabricKind, FaultPlan, MachineConfig, RecoveryPolicy,
};

/// Stable scheme keys a cell is written and replayed by (the
/// human-readable `Scheme::name` strings carry parameters and are not
/// stable identifiers).
pub const SCHEME_KEYS: [&str; 5] = ["reference", "instance", "statement", "process", "barrier"];

/// Cache geometry (sets, associativity, line words) of a document that
/// names a protocol without one.
pub const DEFAULT_GEOMETRY: (u32, u32, u32) = (16, 2, 4);

/// Builds the scheme a key names for a `processors`-wide machine: one
/// of [`SCHEME_KEYS`] (bare `process` has X = max(P, 2) process
/// counters), or `process/X` / `process-basic/X` with an explicit
/// X ≥ 1, improved or basic primitives.
///
/// # Errors
///
/// Reports an unknown or ill-formed key, or `barrier` on a machine that
/// is not a power of two (its butterfly would be ill formed).
pub fn scheme_for(key: &str, processors: usize) -> Result<Box<dyn Scheme>, String> {
    // The X ≥ 1 of a `family/X` key.
    let x_of = |family: &str| -> Option<usize> {
        let x = key.strip_prefix(family)?.strip_prefix('/')?.parse().ok()?;
        (x >= 1).then_some(x)
    };
    Ok(match key {
        "reference" => Box::new(ReferenceBased::new()),
        "instance" => Box::new(InstanceBased::new()),
        "statement" => Box::new(StatementOriented::new()),
        "process" => Box::new(ProcessOriented::new(processors.max(2))),
        "barrier" if processors.is_power_of_two() => Box::new(BarrierPhased::new(processors)),
        "barrier" => Err(format!(
            "barrier scheme needs a power-of-two machine, got {processors} processors"
        ))?,
        _ => match (x_of("process"), x_of("process-basic")) {
            (Some(x), _) => Box::new(ProcessOriented::new(x)),
            (_, Some(x)) => Box::new(ProcessOriented::basic(x)),
            _ => Err(format!("unknown or ill-formed scheme key `{key}`"))?,
        },
    })
}

/// The schemes `keys` name on a `processors`-wide machine, in order,
/// leaving out a `barrier` the machine cannot hold.
///
/// # Panics
///
/// On any other key that does not build: a bug, not a row to skip.
pub fn roster(keys: &[&str], processors: usize) -> Vec<Box<dyn Scheme>> {
    keys.iter()
        .filter_map(|&key| match scheme_for(key, processors) {
            Ok(scheme) => Some(scheme),
            Err(_) if key == "barrier" => None,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// The machine `scheme` runs on: `base` with the scheme's natural sync
/// transport (§6: PCs and SCs on the dedicated sync bus, keys and
/// full/empty bits in memory).
pub fn machine_for(scheme: &dyn Scheme, base: MachineConfig) -> MachineConfig {
    MachineConfig { sync_transport: scheme.natural_transport(), ..base }
}

/// Budget multiplier of the one retry a timed-out run gets.
pub const TIMEOUT_RETRY_FACTOR: u64 = 4;

/// The Fig 2.1 loop at `iterations`, compiled under `scheme`.
fn compile_fig21(scheme: &dyn Scheme, iterations: i64) -> CompiledLoop {
    let nest = fig21_loop(iterations);
    scheme.compile(&nest, &analyze(&nest), &IterSpace::of(&nest))
}

/// What [`Cell::run`] made of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The primary run's classification, or [`Outcome::Degraded`] when
    /// the fallback scheme carried a wedged run.
    pub outcome: Outcome,
    /// Runs of the primary loop: 1, or 2 after a timeout.
    pub attempts: u32,
    /// The cycle budget of the last run.
    pub budget: u64,
}

/// One cell: everything needed to reproduce a run byte-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Scheme key (see [`SCHEME_KEYS`]).
    pub scheme: String,
    /// Sync-fabric backend.
    pub fabric: FabricKind,
    /// Loop iteration count (Fig 2.1 workload).
    pub iterations: i64,
    /// Processor count.
    pub processors: usize,
    /// Private-cache model under the data bus.
    pub cache: CacheModel,
    /// The fault plan, seed included.
    pub plan: FaultPlan,
}

impl Cell {
    /// Compiles the Fig 2.1 loop under the cell's scheme. The result
    /// depends on `scheme`, `iterations` and `processors` and on nothing
    /// else, so cells that agree on those three can share it.
    ///
    /// # Errors
    ///
    /// Reports an unknown or ill-formed scheme key (see [`scheme_for`]).
    pub fn compile_loop(&self) -> Result<CompiledLoop, String> {
        Ok(compile_fig21(&*scheme_for(&self.scheme, self.processors)?, self.iterations))
    }

    /// The machine the cell runs `compiled` on: full recovery ladder,
    /// the scheme's natural transport, and a cycle budget scaled to the
    /// workload.
    ///
    /// # Errors
    ///
    /// Reports an unknown or ill-formed scheme key (see [`scheme_for`]).
    pub fn machine(&self, compiled: &CompiledLoop) -> Result<MachineConfig, String> {
        let base = MachineConfig {
            sync_fabric: self.fabric,
            recovery: RecoveryPolicy::Full,
            cache: self.cache,
            faults: self.plan,
            ..MachineConfig::with_processors(self.processors)
        };
        let mut config = machine_for(&*scheme_for(&self.scheme, self.processors)?, base);
        config.max_cycles = config
            .max_cycles
            .max(config.scaled_max_cycles(compiled.workload.programs.len()));
        Ok(config)
    }

    /// [`Cell::compile_loop`], then [`Cell::machine`] for it.
    ///
    /// # Errors
    ///
    /// Reports an unknown or ill-formed scheme key (see [`scheme_for`]).
    pub fn compile(&self) -> Result<(CompiledLoop, MachineConfig), String> {
        let compiled = self.compile_loop()?;
        let config = self.machine(&compiled)?;
        Ok((compiled, config))
    }

    /// Runs `compiled` (the cell's loop, or a doctored copy of it) on
    /// `config` and walks the outer rungs of the recovery ladder, the
    /// ones above the machine's own repair and rescue:
    ///
    /// 1. One run at `config.max_cycles`.
    /// 2. A [`Outcome::TimedOut`] run is retried once at
    ///    [`TIMEOUT_RETRY_FACTOR`] times the budget. A detected deadlock
    ///    is not: neither the wait-for proof nor the watchdog reads the
    ///    budget, so a rerun would wedge the same way.
    /// 3. A run still wedged is, if `config.recovery` degrades, rerun
    ///    under the most conservative scheme the machine allows:
    ///    barrier-phased on a power-of-two machine, statement-oriented
    ///    otherwise. It is compiled only then, and runs on `config` (same
    ///    fabric, faults and last budget) with its natural transport. A
    ///    completion is [`Outcome::Degraded`]; otherwise the wedge stands.
    ///
    /// A dependence-order violation is final: the run is deterministic,
    /// so a rerun would only reproduce it.
    #[inline]
    pub fn run(&self, compiled: &CompiledLoop, mut config: MachineConfig) -> Verdict {
        let mut attempts = 1;
        let mut outcome = classify_run(compiled, &config);
        if let Outcome::TimedOut { .. } = outcome {
            attempts = 2;
            config.max_cycles = config.max_cycles.saturating_mul(TIMEOUT_RETRY_FACTOR);
            outcome = classify_run(compiled, &config);
        }
        if config.recovery.degrades()
            && matches!(outcome, Outcome::DeadlockDetected { .. } | Outcome::TimedOut { .. })
        {
            outcome = self.fall_back(&config, outcome);
        }
        Verdict { outcome, attempts, budget: config.max_cycles }
    }

    /// The degradation rung of [`Cell::run`]: abort and restart on the
    /// fallback scheme, as a runtime that switches synchronization modes
    /// after a fatal sync-bus fault would.
    fn fall_back(&self, config: &MachineConfig, primary: Outcome) -> Outcome {
        // Barrier-phased where the machine holds it, else statement-oriented.
        let scheme = roster(&["barrier", "statement"], self.processors).swap_remove(0);
        let compiled = compile_fig21(&*scheme, self.iterations);
        let config = machine_for(&*scheme, config.clone());
        match classify_run(&compiled, &config) {
            Outcome::Completed { makespan, .. }
            | Outcome::Recovered { makespan, .. }
            | Outcome::Reconfigured { makespan, .. } => {
                Outcome::Degraded { fallback: scheme.name(), makespan, original: primary.cell() }
            }
            _ => primary,
        }
    }

    /// Serializes the cell as a flat JSON object, replayable byte-exact
    /// from the document alone.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let p = &self.plan;
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"chaos_case\": 1,\n  \"scheme\": \"{}\",\n  \"fabric\": \"{}\",\n  \
             \"iterations\": {},\n  \"processors\": {},\n  \"seed\": {},\n",
            json::escape(&self.scheme),
            self.fabric,
            self.iterations,
            self.processors,
            p.seed
        );
        let (cache_word, [sets, assoc, line, sync_bit]) = cache_fields(self.cache);
        let _ = writeln!(out, "  \"cache\": \"{cache_word}\",");
        let [clusters, bridge_latency, coalesce_window] = cluster_fields(self.fabric);
        for (key, val) in [
            ("clusters", clusters),
            ("bridge_latency", bridge_latency),
            ("coalesce_window", coalesce_window),
            ("cache_sets", sets),
            ("cache_assoc", assoc),
            ("cache_line", line),
            ("cache_sync", sync_bit),
            ("broadcast_delay_pct", p.broadcast_delay_pct),
            ("broadcast_delay_max", p.broadcast_delay_max),
            ("broadcast_reorder_pct", p.broadcast_reorder_pct),
            ("broadcast_drop_pct", p.broadcast_drop_pct),
            ("max_redeliveries", p.max_redeliveries),
            ("stale_image_pct", p.stale_image_pct),
            ("stale_window_max", p.stale_window_max),
            ("stall_mean_interval", p.stall_mean_interval),
            ("stall_max", p.stall_max),
            ("data_jitter_pct", p.data_jitter_pct),
            ("data_jitter_max", p.data_jitter_max),
            ("broadcast_loss_pct", p.broadcast_loss_pct),
            ("fail_stop_procs", p.fail_stop_procs),
            ("fail_stop_window", p.fail_stop_window),
        ] {
            let _ = writeln!(out, "  \"{key}\": {val},");
        }
        out.truncate(out.trim_end_matches(",\n").len());
        out.push_str("\n}\n");
        out
    }

    /// Parses a document written by [`Cell::to_json`], by any earlier
    /// version of it, or by hand. Key order is free, and machine fields
    /// that older writers omitted default as [`fabric_from_json`] and
    /// [`cache_from_json`] describe; the run's identity and every fault
    /// field are required — a default there would replay a different run.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON and the first missing or ill-typed field.
    pub fn from_json(doc: &str) -> Result<Self, String> {
        fn need<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<T, String> {
            num_field(doc, key)?.ok_or_else(|| format!("missing field `{key}`"))
        }
        let doc = &json::parse(doc)?;
        if need::<u64>(doc, "chaos_case")? != 1 {
            return Err("unsupported chaos_case version".into());
        }
        Ok(Cell {
            scheme: str_field(doc, "scheme")?.ok_or("missing field `scheme`")?.to_string(),
            fabric: fabric_from_json(doc)?,
            iterations: need(doc, "iterations")?,
            processors: need(doc, "processors")?,
            cache: cache_from_json(doc)?,
            plan: FaultPlan {
                seed: need(doc, "seed")?,
                broadcast_delay_pct: need(doc, "broadcast_delay_pct")?,
                broadcast_delay_max: need(doc, "broadcast_delay_max")?,
                broadcast_reorder_pct: need(doc, "broadcast_reorder_pct")?,
                broadcast_drop_pct: need(doc, "broadcast_drop_pct")?,
                max_redeliveries: need(doc, "max_redeliveries")?,
                stale_image_pct: need(doc, "stale_image_pct")?,
                stale_window_max: need(doc, "stale_window_max")?,
                stall_mean_interval: need(doc, "stall_mean_interval")?,
                stall_max: need(doc, "stall_max")?,
                data_jitter_pct: need(doc, "data_jitter_pct")?,
                data_jitter_max: need(doc, "data_jitter_max")?,
                broadcast_loss_pct: need(doc, "broadcast_loss_pct")?,
                fail_stop_procs: need(doc, "fail_stop_procs")?,
                fail_stop_window: need(doc, "fail_stop_window")?,
            },
        })
    }
}

/// An optional non-negative integer member of a flat document, narrowed
/// to the field's type without wrap-around.
///
/// # Errors
///
/// Names the field when it is present but ill-typed or out of range.
pub fn num_field<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<Option<T>, String> {
    let Some(value) = doc.get(key) else { return Ok(None) };
    let n = value.as_u64().ok_or(format!("`{key}` must be a non-negative integer"))?;
    T::try_from(n).map(Some).map_err(|_| format!("`{key}` is out of range: {n}"))
}

/// An optional string member of a flat document.
///
/// # Errors
///
/// Names the field when it is present but not a string.
pub fn str_field<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    doc.get(key)
        .map(|v| v.as_str().ok_or(format!("`{key}` must be a string")))
        .transpose()
}

/// The wire form of a cache model: the `cache` word, then
/// `cache_sets`, `cache_assoc`, `cache_line` and `cache_sync` (a
/// cacheless cell writes `none` and zeros).
pub fn cache_fields(cache: CacheModel) -> (String, [u32; 4]) {
    match cache {
        CacheModel::None => ("none".to_string(), [0; 4]),
        CacheModel::Private { protocol, sets, assoc, line_words, cache_sync, .. } => {
            (protocol.to_string(), [sets, assoc, line_words, u32::from(cache_sync)])
        }
    }
}

/// The wire form of a fabric's geometry: `clusters`, `bridge_latency`,
/// `coalesce_window` (zeros on a flat fabric).
pub fn cluster_fields(fabric: FabricKind) -> [u32; 3] {
    match fabric {
        FabricKind::Clustered { clusters, bridge_latency, coalesce_window } => {
            [clusters, bridge_latency, coalesce_window]
        }
        _ => [0; 3],
    }
}

/// Builds a [`CacheModel`] from the wire vocabulary (`none`, or a
/// protocol name plus geometry).
///
/// # Errors
///
/// Reports a word that is neither `none` nor a coherence protocol.
pub fn cache_from_fields(
    word: &str,
    (sets, assoc, line): (u32, u32, u32),
    cache_sync: bool,
) -> Result<CacheModel, String> {
    if word == "none" {
        return Ok(CacheModel::None);
    }
    let protocol =
        CoherenceProtocol::parse(word).ok_or_else(|| format!("unknown cache `{word}`"))?;
    let model = CacheModel::private(protocol).geometry(sets, assoc, line);
    Ok(if cache_sync { model } else { model.sync_uncached() })
}

/// Reads the cache fields of a flat cell document, all optional: no
/// `cache` word is cacheless (documents older than the cache layer), a
/// protocol without geometry gets [`DEFAULT_GEOMETRY`], and sync
/// variables are cacheable unless `cache_sync` is 0. Geometry beside
/// `none` is type-checked, then dropped.
///
/// # Errors
///
/// Reports an ill-typed field or an unknown cache word.
pub fn cache_from_json(doc: &Json) -> Result<CacheModel, String> {
    let (sets, assoc, line) = DEFAULT_GEOMETRY;
    cache_from_fields(
        str_field(doc, "cache")?.unwrap_or("none"),
        (
            num_field(doc, "cache_sets")?.unwrap_or(sets),
            num_field(doc, "cache_assoc")?.unwrap_or(assoc),
            num_field(doc, "cache_line")?.unwrap_or(line),
        ),
        num_field(doc, "cache_sync")?.unwrap_or(1u32) != 0,
    )
}

/// Reads the fabric fields of a flat cell document, all optional: no
/// `fabric` is the paper's dedicated bus, and a `clustered` fabric keeps
/// [`FabricKind::parse`]'s 4 clusters / 2-cycle bridge / 4-cycle window
/// for each of `clusters`, `bridge_latency`, `coalesce_window` it lacks
/// (documents older than the clustered fabric carry none). Geometry
/// beside a flat fabric is type-checked, then dropped.
///
/// # Errors
///
/// Reports an ill-typed field or an unknown fabric name.
pub fn fabric_from_json(doc: &Json) -> Result<FabricKind, String> {
    let name = str_field(doc, "fabric")?.unwrap_or("dedicated");
    let mut fabric = FabricKind::parse(name).ok_or_else(|| format!("unknown fabric `{name}`"))?;
    let [c, b, w] = cluster_fields(fabric);
    let given = [
        num_field(doc, "clusters")?.unwrap_or(c),
        num_field(doc, "bridge_latency")?.unwrap_or(b),
        num_field(doc, "coalesce_window")?.unwrap_or(w),
    ];
    if let FabricKind::Clustered { clusters, bridge_latency, coalesce_window } = &mut fabric {
        [*clusters, *bridge_latency, *coalesce_window] = given;
    }
    Ok(fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cell {
        Cell {
            scheme: "statement".into(),
            fabric: FabricKind::Clustered { clusters: 2, bridge_latency: 3, coalesce_window: 7 },
            iterations: 9,
            processors: 4,
            cache: CacheModel::private(CoherenceProtocol::Dragon).geometry(4, 1, 2).sync_uncached(),
            plan: FaultPlan::chaos(u64::MAX - 1, 35),
        }
    }

    #[test]
    fn documents_round_trip_whatever_the_key_order() {
        let cell = sample();
        let doc = cell.to_json();
        assert_eq!(Cell::from_json(&doc).expect("parse own serialization"), cell, "{doc}");
        // Reversing the member lines moves `chaos_case` last and puts
        // the geometry before the fabric word that gives it meaning.
        let mut lines: Vec<&str> = doc
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(|l| l.trim_end_matches(','))
            .collect();
        lines.reverse();
        let reordered = format!("{{\n{}\n}}\n", lines.join(",\n"));
        assert_eq!(Cell::from_json(&reordered).expect("parse reordered"), cell, "{reordered}");
        // A nested object that happens to repeat a key cannot shadow it.
        let nested =
            doc.replacen("{\n", "{\n  \"note\": {\"seed\": 1, \"fabric\": \"ideal\"},\n", 1);
        assert_eq!(Cell::from_json(&nested).expect("parse nested"), cell, "{nested}");
    }

    #[test]
    fn omitted_machine_fields_default_and_required_ones_are_named() {
        let cell = sample();
        let strip = |doc: &str, words: &[&str]| -> String {
            let kept: Vec<&str> =
                doc.lines().filter(|l| !words.iter().any(|w| l.contains(w))).collect();
            kept.join("\n")
        };
        // Pre-cache reproducers carry no cache fields: cacheless.
        let back = Cell::from_json(&strip(&cell.to_json(), &["cache"])).expect("pre-cache doc");
        assert_eq!(back, Cell { cache: CacheModel::None, ..cell.clone() });
        // Pre-clustered (and parent-commit serve-written) reproducers
        // carry no cluster fields: the parse defaults.
        let geometry = ["clusters", "bridge_latency", "coalesce_window"];
        let back = Cell::from_json(&strip(&cell.to_json(), &geometry)).expect("pre-clustered doc");
        assert_eq!(back, Cell { fabric: FabricKind::clustered(4), ..cell.clone() });
        // A protocol without geometry gets the default one, sync cached.
        let back = Cell::from_json(&strip(&cell.to_json(), &["cache_"])).expect("bare protocol");
        let (sets, assoc, line) = DEFAULT_GEOMETRY;
        let default_dragon =
            CacheModel::private(CoherenceProtocol::Dragon).geometry(sets, assoc, line);
        assert_eq!(back.cache, default_dragon);
        // The run's identity and the fault plan are never defaulted.
        for key in ["chaos_case", "scheme", "iterations", "processors", "seed", "stall_max"] {
            let err =
                Cell::from_json(&strip(&cell.to_json(), &[&format!("\"{key}\"")])).expect_err(key);
            assert!(err.contains(key), "{key}: {err}");
        }
        assert!(Cell::from_json("{}").is_err());
        assert!(Cell::from_json("not json").is_err());
        let wide = cell.to_json().replace("\"stall_max\": ", "\"stall_max\": 4294967296");
        assert!(Cell::from_json(&wide).unwrap_err().contains("stall_max"));
        let fractional = cell.to_json().replace("\"processors\": 4", "\"processors\": 4.0");
        assert!(Cell::from_json(&fractional).unwrap_err().contains("processors"));
    }

    #[test]
    fn compile_builds_the_documented_machine() {
        let cell = sample();
        let (compiled, config) = cell.compile().expect("statement compiles");
        assert_eq!(compiled.workload.programs.len(), 9);
        assert_eq!(config.processors, 4);
        assert_eq!(config.sync_fabric, cell.fabric);
        assert_eq!(config.cache, cell.cache);
        assert_eq!(config.faults, cell.plan);
        assert_eq!(config.recovery, RecoveryPolicy::Full);
        assert_eq!(config.sync_transport, StatementOriented::new().natural_transport());
        assert!(config.max_cycles >= config.scaled_max_cycles(9));
        for key in SCHEME_KEYS {
            assert!(Cell { scheme: key.into(), ..cell.clone() }.compile().is_ok(), "{key}");
        }
        assert!(Cell { scheme: "barrier".into(), processors: 6, ..cell.clone() }
            .compile()
            .is_err());
        assert!(Cell { scheme: "quantum".into(), ..cell }.compile().is_err());
    }

    #[test]
    fn keys_with_a_process_count_build_and_ill_formed_ones_do_not() {
        let name = |key: &str, procs| scheme_for(key, procs).map(|s| s.name());
        assert_eq!(name("process/8", 3), Ok(ProcessOriented::new(8).name()));
        assert_eq!(name("process-basic/1", 4), Ok(ProcessOriented::basic(1).name()));
        // Bare `process` keeps X = max(P, 2), which cell hashes pin.
        assert_eq!(name("process", 1), Ok(ProcessOriented::new(2).name()));
        for bad in ["process/0", "process/", "process/x", "process-basic", "process/8/2"] {
            let err = name(bad, 4).expect_err(bad);
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert_eq!(name("barrier", 8), Ok(BarrierPhased::new(8).name()));
        let err = name("barrier", 6).unwrap_err();
        assert_eq!(err, "barrier scheme needs a power-of-two machine, got 6 processors");
        // A roster drops barrier where the machine cannot hold it, and
        // only barrier.
        assert_eq!(roster(&["statement", "barrier"], 6).len(), 1);
        assert_eq!(roster(&["statement", "barrier"], 8).len(), 2);
        let typo = std::panic::catch_unwind(|| roster(&["statment"], 8));
        assert!(typo.is_err(), "a misspelt key must not drop its row silently");
    }

    /// A 4-processor process-oriented cell, its loop with every post
    /// stripped (no repair can satisfy a wait nothing will post), and
    /// its machine at a generous budget.
    fn stripped() -> (Cell, CompiledLoop, MachineConfig) {
        use datasync_sim::Instr;
        let cell = Cell {
            scheme: "process".into(),
            fabric: FabricKind::Dedicated,
            iterations: 6,
            processors: 4,
            cache: CacheModel::None,
            plan: FaultPlan::none(),
        };
        let mut compiled = cell.compile_loop().expect("process compiles");
        for prog in &mut compiled.workload.programs {
            prog.instrs
                .retain(|i| !matches!(i, Instr::SyncSet { .. } | Instr::SyncSetIfGeq { .. }));
        }
        let config = MachineConfig { max_cycles: 1_000_000, ..cell.machine(&compiled).unwrap() };
        (cell, compiled, config)
    }

    #[test]
    fn fallback_degrades_an_unhealable_wedge() {
        let (cell, compiled, config) = stripped();
        // A detected deadlock is not retried: the fallback runs at once.
        let verdict = cell.run(&compiled, config.clone());
        assert_eq!((verdict.attempts, verdict.budget), (1, 1_000_000), "{verdict:?}");
        match &verdict.outcome {
            Outcome::Degraded { fallback, original, .. } => {
                assert_eq!(fallback, &BarrierPhased::new(4).name());
                assert_eq!(original, "DEADLOCK");
            }
            other => panic!("expected degradation, got {other:?}"),
        }
        assert!(verdict.outcome.is_acceptable() && !verdict.outcome.is_ok());
        // A machine that is not a power of two falls back to statement.
        let six = Cell { processors: 6, ..cell.clone() };
        let verdict = six.run(&compiled, MachineConfig { processors: 6, ..config.clone() });
        let statement = StatementOriented::new().name();
        assert!(
            matches!(&verdict.outcome, Outcome::Degraded { fallback, .. } if *fallback == statement),
            "{verdict:?}"
        );
        // RepairOnly and Off must NOT degrade: the primary's wedge stands.
        for recovery in [RecoveryPolicy::RepairOnly, RecoveryPolicy::Off] {
            let verdict = cell.run(&compiled, MachineConfig { recovery, ..config.clone() });
            assert!(
                matches!(verdict.outcome, Outcome::DeadlockDetected { .. }),
                "{recovery} must surface the wedge, got {verdict:?}"
            );
            assert_eq!((verdict.attempts, verdict.budget), (1, 1_000_000), "{recovery}");
        }
    }

    #[test]
    fn a_timeout_is_retried_once_at_four_times_the_budget_before_the_fallback() {
        let (cell, compiled, config) = stripped();
        // A budget under the deadlock proof's cycle times out; at four
        // times that it times out again or reaches the proof, and the
        // fallback, run at that last budget, carries the run.
        let proof = match classify_run(&compiled, &config) {
            Outcome::DeadlockDetected { cycle, .. } => cycle,
            other => panic!("the stripped loop must deadlock, got {other:?}"),
        };
        let fallback = match cell.run(&compiled, config.clone()).outcome {
            Outcome::Degraded { makespan, .. } => makespan,
            other => panic!("expected degradation, got {other:?}"),
        };
        let budget = fallback.div_ceil(TIMEOUT_RETRY_FACTOR);
        assert!(budget < proof, "budget {budget} must time out before the proof at {proof}");
        let verdict = cell.run(&compiled, MachineConfig { max_cycles: budget, ..config.clone() });
        assert_eq!((verdict.attempts, verdict.budget), (2, budget * TIMEOUT_RETRY_FACTOR));
        assert!(matches!(verdict.outcome, Outcome::Degraded { .. }), "{verdict:?}");
        // Starved outright, the fallback cannot finish either: the
        // retried timeout stands, and there is no third attempt.
        let verdict = cell.run(&compiled, MachineConfig { max_cycles: 1, ..config });
        assert_eq!((verdict.attempts, verdict.budget), (2, TIMEOUT_RETRY_FACTOR));
        assert_eq!(verdict.outcome, Outcome::TimedOut { max_cycles: TIMEOUT_RETRY_FACTOR });
    }
}
