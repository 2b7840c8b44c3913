//! P-scaling curve behind `datasync perf --scale`, and the
//! P-independence gate behind `datasync perf`: how the fast-forward
//! kernel's cost per event holds up as the simulated machine grows.
//!
//! Every scheme is run on its natural transport at P = 8 → 1024
//! processors (powers of two) on a spin-heavy Doacross sized to the
//! machine (2·P iterations, inflated statement costs). The struct-of-
//! arrays machine state and the calendar event queue are exactly the
//! mechanisms this curve exercises: per-advance work is bounded by
//! *events*, not processors, so processor visits per simulator
//! operation should stay flat while the machine grows 128-fold.
//! Every number here is a simulated count, so the report is
//! byte-identical on every host; host time is `benchmark/`'s job.
//!
//! Alongside the per-scheme curves, the sweep carries
//! a **fabric ablation**: a barrier hot-spot microbenchmark (every
//! processor RMWs one counter each round, then waits for the round
//! total — pure sync-transport traffic, no data accesses) run on the
//! flat dedicated bus and on the clustered two-level fabric with
//! `max(2, P/32)` clusters, out to P = 65 536. The flat bus serializes
//! all P updates per round, so its makespan grows linearly in P; the
//! clustered fabric grants cluster buses in parallel and aggregates
//! same-variable submissions at the bridge, holding the round cost
//! near-constant — the P-scaling story the two-level topology exists
//! to tell.
//!
//! The report serializes to `BENCH_scale.json` (hand-rolled JSON — the
//! workspace is dependency-free).

use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::Scheme;
use datasync_schemes::{
    BarrierPhased, InstanceBased, ProcessOriented, ReferenceBased, StatementOriented,
};
use datasync_sim::{
    FabricKind, Instr, KernelCounters, MachineConfig, Pred, Program, RunOutcome, Workload,
};

/// One (scheme, P) measurement on the scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Processors simulated.
    pub procs: usize,
    /// Cluster count of the two-level geometry (0 = flat fabric).
    pub clusters: u32,
    /// Makespan of the run (simulated cycles).
    pub makespan: u64,
    /// Processor visits per simulator operation
    /// ([`KernelCounters::visits_per_op`]): the host-independent cost of
    /// an event, flat in P when the kernel only visits processors that
    /// act.
    pub visits_per_op: f64,
    /// Local-image words the run wrote ([`KernelCounters::image_words`]).
    pub image_words: u64,
    /// Image words per broadcast
    /// ([`KernelCounters::words_per_broadcast`]): 1 on a fault-free flat
    /// bus whatever P is, at most `clusters` per bridge forward.
    pub words_per_broadcast: f64,
}

impl ScalePoint {
    /// The point for one run.
    fn of(out: &RunOutcome, procs: usize, clusters: u32) -> Self {
        Self {
            procs,
            clusters,
            makespan: out.stats.makespan,
            visits_per_op: out.kernel.visits_per_op(&out.stats),
            image_words: out.kernel.image_words,
            words_per_broadcast: out.kernel.words_per_broadcast(&out.stats),
        }
    }
}

/// The scaling curve of one scheme across the P axis.
#[derive(Debug, Clone)]
pub struct SchemeCurve {
    /// Scheme family label (stable across P).
    pub scheme: String,
    /// Sync-fabric backend the curve ran on (`dedicated` for the
    /// natural-transport scheme curves, `clustered` for the two-level
    /// side of the fabric ablation).
    pub fabric: String,
    /// One point per processor count, in ascending P order.
    pub points: Vec<ScalePoint>,
}

/// Results of one `perf --scale` run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// What was simulated.
    pub workload: String,
    /// The P axis, ascending.
    pub procs: Vec<usize>,
    /// One curve per scheme.
    pub curves: Vec<SchemeCurve>,
}

impl ScaleReport {
    /// Hand-rolled JSON rendering for `BENCH_scale.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        let axis: Vec<String> = self.procs.iter().map(ToString::to_string).collect();
        out.push_str(&format!("  \"procs\": [{}],\n", axis.join(", ")));
        out.push_str("  \"schemes\": [\n");
        for (i, curve) in self.curves.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"fabric\": \"{}\", \"points\": [\n",
                curve.scheme, curve.fabric
            ));
            for (j, pt) in curve.points.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"procs\": {}, \"clusters\": {}, \"makespan\": {}, \
                     \"visits_per_op\": {:.3}, \"image_words\": {}, \
                     \"words_per_broadcast\": {:.3}}}{}\n",
                    pt.procs,
                    pt.clusters,
                    pt.makespan,
                    pt.visits_per_op,
                    pt.image_words,
                    pt.words_per_broadcast,
                    if j + 1 < curve.points.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!("    ]}}{}\n", if i + 1 < self.curves.len() { "," } else { "" }));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable curve table: one row per scheme, one column per P.
    pub fn summary(&self) -> String {
        let mut out = format!("perf --scale: {}\n", self.workload);
        out.push_str("processor visits per sim op (host-independent event cost)\n");
        for curve in &self.curves {
            let label = if curve.scheme == HOTSPOT_SCHEME {
                format!("hotspot/{}", curve.fabric)
            } else {
                curve.scheme.clone()
            };
            out.push_str(&format!("{label:<18}"));
            for pt in &curve.points {
                out.push_str(&format!(
                    " {:>11}",
                    format!("P={}: {:.2}", pt.procs, pt.visits_per_op)
                ));
            }
            out.push('\n');
        }
        // The ablation's punchline: simulated makespan by P, flat vs
        // clustered, on the same hot-spot workload (its own P axis, so
        // it gets its own table).
        let ablation: Vec<&SchemeCurve> =
            self.curves.iter().filter(|c| c.scheme == HOTSPOT_SCHEME).collect();
        if let Some(first) = ablation.first() {
            out.push_str("\nbarrier hot-spot makespan (simulated cycles) by fabric\n");
            out.push_str(&format!("{:<16}", "fabric"));
            for pt in &first.points {
                out.push_str(&format!(" {:>12}", format!("P={}", pt.procs)));
            }
            out.push('\n');
            for curve in &ablation {
                out.push_str(&format!("{:<16}", curve.fabric));
                for pt in &curve.points {
                    let geom = if pt.clusters > 0 {
                        format!("{} (c{})", pt.makespan, pt.clusters)
                    } else {
                        pt.makespan.to_string()
                    };
                    out.push_str(&format!(" {geom:>12}"));
                }
                out.push('\n');
            }
            out.push_str("\nbarrier hot-spot image words written per broadcast\n");
            for curve in &ablation {
                out.push_str(&format!("{:<16}", curve.fabric));
                for pt in &curve.points {
                    out.push_str(&format!(" {:>12.2}", pt.words_per_broadcast));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Builds the scheme under test for one processor count.
fn build_scheme(label: &str, procs: usize) -> Box<dyn Scheme> {
    match label {
        "process" => Box::new(ProcessOriented::new(2 * procs)),
        "statement" => Box::new(StatementOriented::new()),
        "barrier-phased" => Box::new(BarrierPhased::new(procs)),
        "reference" => Box::new(ReferenceBased::new()),
        "instance" => Box::new(InstanceBased::new()),
        other => unreachable!("unknown scale scheme {other}"),
    }
}

/// Scheme families on the curve (each on its natural transport).
pub const SCHEMES: [&str; 5] = ["process", "statement", "barrier-phased", "reference", "instance"];

/// Label of the fabric-ablation curves (one per fabric).
pub const HOTSPOT_SCHEME: &str = "barrier-hotspot";

/// The fabric ablation's P axis (`--quick` stops at 32).
const HOTSPOT_PROCS: [usize; 10] = [8, 32, 128, 256, 512, 1024, 2048, 4096, 16_384, 65_536];

/// Hot-spot rounds per processor in the fabric ablation.
const HOTSPOT_ROUNDS: u64 = 4;

/// Compute cycles between hot-spot rounds (enough that processors
/// arrive staggered, small enough that the sync transport dominates).
const HOTSPOT_COMPUTE: u32 = 200;

/// Cluster geometry used for the clustered side of the ablation.
fn hotspot_clusters(p: usize) -> u32 {
    (p / 32).max(2) as u32
}

/// The barrier hot-spot microbenchmark: each processor runs
/// `HOTSPOT_ROUNDS` rounds of compute → RMW one shared counter → wait
/// for the round total. All sync, no data accesses — the transport is
/// the whole story.
fn hotspot_workload(p: usize) -> Workload {
    let programs: Vec<Program> = (0..p)
        .map(|_| {
            // alloc-ok: setup
            let mut instrs = Vec::with_capacity(3 * HOTSPOT_ROUNDS as usize);
            for r in 1..=HOTSPOT_ROUNDS {
                instrs.push(Instr::Compute(HOTSPOT_COMPUTE));
                instrs.push(Instr::SyncRmw { var: 0 });
                instrs.push(Instr::SyncWait { var: 0, pred: Pred::Geq(r * p as u64) });
            }
            Program::from_instrs(instrs)
        })
        .collect();
    Workload::static_assigned(programs, (0..p).map(|i| vec![i]).collect())
}

/// Runs the hot-spot workload on one fabric.
fn hotspot_run(p: usize, fabric: FabricKind) -> RunOutcome {
    let config = MachineConfig { sync_fabric: fabric, ..MachineConfig::with_processors(p) };
    datasync_sim::run(&config, &hotspot_workload(p)).expect("hot-spot workload must complete")
}

/// Runs the Fig 2.1 scaling cell: the loop sized to the machine (2·P
/// iterations, so every processor has work) with `cost`-cycle
/// statements, compiled under one scheme for its natural transport.
fn scheme_run(label: &str, p: usize, cost: u32) -> RunOutcome {
    let nest = fig21_loop(2 * p as i64);
    let scheme = build_scheme(label, p);
    let inflate = move |_id, _pid| cost;
    let compiled =
        scheme.compile_with(&nest, &analyze(&nest), &IterSpace::of(&nest), Some(&inflate));
    let config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        ..MachineConfig::with_processors(p)
    };
    compiled.run(&config).expect("scale workload must complete")
}

/// One workload of the P-independence gate at its two machine sizes.
#[derive(Debug, Clone)]
pub struct VisitRow {
    /// What ran.
    pub workload: String,
    /// `visits_per_op` on the small machine.
    pub small: f64,
    /// `visits_per_op` on the large machine.
    pub large: f64,
}

/// The host-independent gate behind `datasync perf`: neither
/// processor visits per simulator operation
/// ([`KernelCounters::p_independent`]) nor image words written per
/// broadcast may grow with the machine. Deterministic — the same
/// numbers on every host.
#[derive(Debug, Clone)]
pub struct VisitGate {
    /// Processor counts compared (small, large).
    pub procs: (usize, usize),
    /// One row per workload.
    pub rows: Vec<VisitRow>,
    /// [`KernelCounters::words_per_broadcast`] of the flat hot-spot on
    /// the (small, large) machine: 1 and 1 while images are virtual.
    pub hotspot_words: (f64, f64),
}

impl VisitGate {
    /// Whether every workload's event cost is P-independent and a flat
    /// broadcast writes no more image words on the large machine.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| KernelCounters::p_independent(r.small, r.large))
            && self.words_pass()
    }

    fn words_pass(&self) -> bool {
        self.hotspot_words.1 <= self.hotspot_words.0
    }

    /// One line per workload plus the verdict.
    pub fn summary(&self) -> String {
        let (small, large) = self.procs;
        let mut out = format!(
            "perf check: processor visits per sim op, P={small} vs P={large} \
             (gate: P={large} <= {:.0}x P={small} and <= {:.0})\n",
            KernelCounters::VISITS_GROWTH_MAX,
            KernelCounters::VISITS_PER_OP_MAX,
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<24} {:>7.3} -> {:>7.3}  {}\n",
                r.workload,
                r.small,
                r.large,
                if KernelCounters::p_independent(r.small, r.large) { "ok" } else { "P-DEPENDENT" },
            ));
        }
        out.push_str(&format!(
            "image words written per broadcast (gate: P={large} <= P={small})\n  \
             {:<24} {:>7.3} -> {:>7.3}  {}\n",
            format!("{HOTSPOT_SCHEME} (flat)"),
            self.hotspot_words.0,
            self.hotspot_words.1,
            if self.words_pass() { "ok" } else { "P-DEPENDENT" },
        ));
        out.push_str(if self.pass() { "=> ok" } else { "=> REGRESSION" });
        out
    }
}

/// Measures the gate: the barrier hot-spot on the flat bus and Fig 2.1
/// under the process- and statement-oriented schemes, at P = 64 and
/// P = 1024 (`quick`: P = 16 and P = 128, small statements).
///
/// # Panics
///
/// Panics if a gate workload fails to complete.
pub fn visit_gate(quick: bool) -> VisitGate {
    let (small, large, cost) = if quick { (16, 128, 200) } else { (64, 1024, 2_000) };
    let ratio = |out: RunOutcome| out.kernel.visits_per_op(&out.stats);
    let words = |out: &RunOutcome| out.kernel.words_per_broadcast(&out.stats);
    let hotspot_small = hotspot_run(small, FabricKind::Dedicated);
    let hotspot_large = hotspot_run(large, FabricKind::Dedicated);
    let hotspot_words = (words(&hotspot_small), words(&hotspot_large));
    let mut rows = vec![VisitRow {
        workload: format!("{HOTSPOT_SCHEME} (flat)"),
        small: ratio(hotspot_small),
        large: ratio(hotspot_large),
    }];
    for scheme in ["process", "statement"] {
        rows.push(VisitRow {
            workload: format!("fig 2.1 {scheme}"),
            small: ratio(scheme_run(scheme, small, cost)),
            large: ratio(scheme_run(scheme, large, cost)),
        });
    }
    VisitGate { procs: (small, large), rows, hotspot_words }
}

/// Runs the scaling sweep. `quick` caps the P axis and shrinks costs for
/// smoke runs; the full axis is P = 8 → 1024 for the scheme curves and
/// P = 8 → 65 536 for the fabric ablation.
///
/// # Panics
///
/// Panics if a fault-free scaling run fails to complete (they are
/// deterministic and deadlock-free by construction).
pub fn run(quick: bool) -> ScaleReport {
    let procs: Vec<usize> =
        if quick { vec![8, 16, 32] } else { vec![8, 16, 32, 64, 128, 256, 512, 1024] };
    let cost: u32 = if quick { 500 } else { 2_000 };
    let mut curves: Vec<SchemeCurve> = SCHEMES
        .iter()
        .map(|s| SchemeCurve {
            scheme: (*s).to_string(),
            fabric: "dedicated".to_string(),
            points: Vec::new(),
        })
        .collect();
    for &p in &procs {
        for curve in &mut curves {
            curve.points.push(ScalePoint::of(&scheme_run(&curve.scheme, p, cost), p, 0));
        }
    }
    // Fabric ablation: the same hot-spot workload on the flat dedicated
    // bus and on the clustered two-level fabric, out past the scheme
    // curves' axis — the flat bus's linear-in-P round cost against the
    // clustered fabric's near-constant one.
    let ablation_procs: Vec<usize> = if quick { vec![8, 16, 32] } else { HOTSPOT_PROCS.to_vec() };
    let mut flat_curve = SchemeCurve {
        scheme: HOTSPOT_SCHEME.to_string(),
        fabric: "dedicated".to_string(),
        points: Vec::new(),
    };
    let mut clustered_curve = SchemeCurve {
        scheme: HOTSPOT_SCHEME.to_string(),
        fabric: "clustered".to_string(),
        points: Vec::new(),
    };
    for &p in &ablation_procs {
        for (curve, fabric, clusters) in [
            (&mut flat_curve, FabricKind::Dedicated, 0u32),
            (
                &mut clustered_curve,
                FabricKind::Clustered {
                    clusters: hotspot_clusters(p),
                    bridge_latency: 2,
                    coalesce_window: 4,
                },
                hotspot_clusters(p),
            ),
        ] {
            curve.points.push(ScalePoint::of(&hotspot_run(p, fabric), p, clusters));
        }
    }
    curves.push(flat_curve);
    curves.push(clustered_curve);
    ScaleReport {
        workload: format!(
            "fig 2.1 Doacross, 2P iterations, {cost}cy statements, \
             every scheme on its natural transport; plus a barrier \
             hot-spot fabric ablation ({HOTSPOT_ROUNDS} rounds, \
             {HOTSPOT_COMPUTE}cy compute) on dedicated vs clustered \
             (P/32 clusters, bridge latency 2, coalesce window 4)"
        ),
        procs,
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_curve_covers_every_scheme_and_serializes() {
        let r = run(true);
        assert_eq!(r.procs, vec![8, 16, 32]);
        // The 5 scheme curves plus the two fabric-ablation curves.
        assert_eq!(r.curves.len(), SCHEMES.len() + 2);
        for curve in &r.curves {
            assert_eq!(curve.points.len(), r.procs.len(), "{}", curve.scheme);
            for (pt, p) in curve.points.iter().zip(&r.procs) {
                assert_eq!(pt.procs, *p);
                assert!(pt.makespan > 0, "{}", curve.scheme);
                if curve.fabric == "clustered" {
                    assert!(pt.clusters >= 2, "{}: missing cluster geometry", curve.scheme);
                } else {
                    assert_eq!(pt.clusters, 0, "{}: flat points must record 0", curve.scheme);
                }
            }
        }
        let json = r.to_json();
        for key in [
            "\"workload\"",
            "\"procs\"",
            "\"schemes\"",
            "\"visits_per_op\"",
            "\"clusters\"",
            "\"image_words\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"scheme\": \"barrier-phased\""), "{json}");
        assert!(json.contains("\"fabric\": \"clustered\""), "{json}");
        assert!(json.contains("\"fabric\": \"dedicated\""), "{json}");
        // Every field is a simulated count: no host clock reaches the
        // artifact, so two runs on any host write the same bytes.
        assert_eq!(json, run(true).to_json(), "the report must be deterministic");
        let s = r.summary();
        assert!(s.contains("P=32"), "{s}");
        assert!(s.contains("instance"), "{s}");
        assert!(s.contains("barrier hot-spot makespan"), "{s}");
    }

    #[test]
    fn full_visit_gate_passes_and_fails_a_p_dependent_kernel() {
        // The exact rows `datasync perf` gates CI on: P=64 vs
        // P=1024, the flat hot-spot and Fig 2.1 under two schemes.
        let ok = visit_gate(false);
        assert_eq!(ok.procs, (64, 1024));
        assert_eq!(ok.rows.len(), 3, "{}", ok.summary());
        assert!(ok.pass(), "{}", ok.summary());
        assert!(ok.summary().ends_with("=> ok"), "{}", ok.summary());

        // A kernel whose event cost grows with P fails it.
        let mut bad = ok.clone();
        bad.rows[0].large = bad.rows[0].small * 16.0;
        assert!(!bad.pass(), "{}", bad.summary());
        assert!(bad.summary().contains("REGRESSION"), "{}", bad.summary());
        assert!(bad.summary().contains("P-DEPENDENT"), "{}", bad.summary());

        // So does one whose broadcasts write more image words on the
        // bigger machine; virtual images write exactly one.
        assert_eq!(ok.hotspot_words, (1.0, 1.0), "{}", ok.summary());
        let mut dense = ok;
        dense.hotspot_words.1 = 128.0;
        assert!(!dense.pass(), "{}", dense.summary());
        assert!(dense.summary().contains("P-DEPENDENT"), "{}", dense.summary());
    }

    #[test]
    fn hotspot_ablation_clustered_beats_flat_at_scale() {
        // The acceptance bar for the two-level fabric: at P = 1024 the
        // clustered makespan must be at least 2x better than the flat
        // dedicated bus on the same workload (it is ~5x in practice —
        // the flat bus serializes all 1024 RMWs per round, the clusters
        // run 32-wide grants in parallel and the bridge aggregates).
        let flat = hotspot_run(1024, FabricKind::Dedicated).stats.makespan;
        let clustered = hotspot_run(
            1024,
            FabricKind::Clustered {
                clusters: hotspot_clusters(1024),
                bridge_latency: 2,
                coalesce_window: 4,
            },
        )
        .stats
        .makespan;
        assert!(
            flat >= 2 * clustered,
            "clustered must be >=2x better at P=1024: flat {flat} vs clustered {clustered}"
        );
    }

    #[test]
    fn bigger_machines_simulate_more_cycles_of_work() {
        // The workload grows with P, so makespans must not collapse:
        // each scheme's P=32 run covers at least as many iterations'
        // worth of cycles as its P=8 run issued per processor.
        let r = run(true);
        for curve in &r.curves {
            let first = curve.points.first().expect("points");
            let last = curve.points.last().expect("points");
            assert!(
                last.makespan >= first.makespan / 4,
                "{}: makespan collapsed from {} to {}",
                curve.scheme,
                first.makespan,
                last.makespan
            );
        }
    }
}
