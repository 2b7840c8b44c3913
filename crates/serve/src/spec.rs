//! Sweep-cell specifications and their canonical content hash.
//!
//! A [`CellSpec`] is one simulator run the service can be asked for: a
//! scheme × fabric × workload-size × machine-size × cache × fault-plan
//! point. Its identity is the FNV-1a hash of its **canonical** JSON
//! form — a fixed field order with every field explicit — so the hash
//! is invariant to request-side field order and omitted-default fields,
//! while any *semantic* change (scheme, fabric, geometry, fault
//! intensity, seed, …) changes it. That hash keys the memo cache, the
//! journal and the quarantine circuit breaker.
//!
//! A [`SweepSpec`] is the request-side grid (lists per axis) that
//! [`SweepSpec::expand`]s into cells in a deterministic nesting order,
//! so a resubmitted sweep enumerates the same cells in the same order —
//! the property the resume drill and the `aggregate_hash` byte-identity
//! check both rely on.

use crate::hash::fnv1a_hex;
use crate::json::{self, Json};
use datasync_schemes::cell::{self, Cell, DEFAULT_GEOMETRY, SCHEME_KEYS};
use datasync_sim::{CacheModel, FabricKind, FaultPlan};

/// Version stamp written into every canonical cell document.
pub const CELL_SPEC_VERSION: u64 = 1;

/// One sweep cell: everything that determines a run's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
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
    /// Bounded-chaos fault intensity, percent (0 = fault-free).
    pub fault_pct: u32,
    /// Fault-plan seed.
    pub seed: u64,
    /// Per-cell cycle budget override; 0 derives the budget from
    /// `MachineConfig::scaled_max_cycles` (the production default).
    pub deadline_cycles: u64,
}

impl Default for CellSpec {
    fn default() -> Self {
        CellSpec {
            scheme: "process".to_string(),
            fabric: FabricKind::Dedicated,
            iterations: 16,
            processors: 4,
            cache: CacheModel::None,
            fault_pct: 0,
            seed: 0,
            deadline_cycles: 0,
        }
    }
}

impl CellSpec {
    /// The canonical single-line JSON form: fixed field order, every
    /// field explicit (a cacheless cell writes zero geometry, matching
    /// the chaos-reproducer convention). The one exception is cluster
    /// geometry, which only a clustered cell writes at all: a flat
    /// cell's canonical bytes are identical to what the pre-clustered
    /// service produced, so every journaled hash and run-cache entry
    /// from older deployments stays valid. [`CellSpec::content_hash`]
    /// is defined over these bytes.
    pub fn canonical_json(&self) -> String {
        let (cache_word, [sets, assoc, line, sync_bit]) = cell::cache_fields(self.cache);
        let [clusters, bridge_latency, coalesce_window] = cell::cluster_fields(self.fabric);
        let geometry = if self.fabric.is_clustered() {
            format!(
                "\"clusters\":{clusters},\"bridge_latency\":{bridge_latency},\
                 \"coalesce_window\":{coalesce_window},"
            )
        } else {
            String::new()
        };
        format!(
            "{{\"cell_spec\":{},\"scheme\":\"{}\",\"fabric\":\"{}\",{}\"iterations\":{},\
             \"processors\":{},\"cache\":\"{}\",\"cache_sets\":{},\"cache_assoc\":{},\
             \"cache_line\":{},\"cache_sync\":{},\"fault_pct\":{},\"seed\":{},\
             \"deadline_cycles\":{}}}",
            CELL_SPEC_VERSION,
            json::escape(&self.scheme),
            self.fabric,
            geometry,
            self.iterations,
            self.processors,
            cache_word,
            sets,
            assoc,
            line,
            sync_bit,
            self.fault_pct,
            self.seed,
            self.deadline_cycles
        )
    }

    /// The cell's content address: FNV-1a-64 of the canonical JSON,
    /// 16 hex digits.
    pub fn content_hash(&self) -> String {
        fnv1a_hex(self.canonical_json().as_bytes())
    }

    /// Reads a cell from a parsed JSON object. Field order is free,
    /// omitted fields take their defaults (so a request that spells out
    /// a default hashes identically to one that omits it), unknown keys
    /// are rejected — a typoed `"procesors"` must not silently run the
    /// default machine.
    ///
    /// # Errors
    ///
    /// Reports the first unknown key, ill-typed field, or
    /// [`CellSpec::validate`] failure.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        const KNOWN: [&str; 16] = [
            "cell_spec",
            "scheme",
            "fabric",
            "clusters",
            "bridge_latency",
            "coalesce_window",
            "iterations",
            "processors",
            "cache",
            "cache_sets",
            "cache_assoc",
            "cache_line",
            "cache_sync",
            "fault_pct",
            "seed",
            "deadline_cycles",
        ];
        if !matches!(doc, Json::Obj(_)) {
            return Err("cell spec must be a JSON object".into());
        }
        if let Some(unknown) = doc.keys().iter().find(|k| !KNOWN.contains(k)) {
            return Err(format!("unknown cell-spec field `{unknown}`"));
        }
        if let Some(v) = doc.get("cell_spec") {
            if v.as_u64() != Some(CELL_SPEC_VERSION) {
                return Err("unsupported cell_spec version".into());
            }
        }
        let d = CellSpec::default();
        let spec = CellSpec {
            scheme: cell::str_field(doc, "scheme")?.unwrap_or(&d.scheme).to_string(),
            fabric: cell::fabric_from_json(doc)?,
            iterations: doc.get("iterations").map_or(Ok(d.iterations), |v| {
                v.as_i64().ok_or("`iterations` must be an integer")
            })?,
            processors: cell::num_field(doc, "processors")?.unwrap_or(d.processors),
            cache: cell::cache_from_json(doc)?,
            fault_pct: cell::num_field(doc, "fault_pct")?.unwrap_or(d.fault_pct),
            seed: cell::num_field(doc, "seed")?.unwrap_or(d.seed),
            deadline_cycles: cell::num_field(doc, "deadline_cycles")?.unwrap_or(d.deadline_cycles),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a cell from raw JSON text (canonical or not).
    ///
    /// # Errors
    ///
    /// Reports parse and validation failures.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    /// Rejects semantically impossible cells before any run is admitted.
    ///
    /// # Errors
    ///
    /// Returns a human-readable rejection reason.
    pub fn validate(&self) -> Result<(), String> {
        check_scheme(&self.scheme)?;
        cell::scheme_for(&self.scheme, self.processors)?;
        self.fabric.check(self.processors)?;
        check_iterations(self.iterations)?;
        check_processors(self.processors)?;
        check_fault_pct(self.fault_pct)
    }

    /// The cell's fault plan: bounded chaos at `fault_pct` (the service
    /// deliberately excludes the unbounded classes — broadcast loss and
    /// fail-stop belong to the chaos fuzzer, not a latency-budgeted
    /// service), or a seeded no-fault plan at zero.
    pub fn fault_plan(&self) -> FaultPlan {
        if self.fault_pct > 0 {
            FaultPlan::chaos(self.seed, self.fault_pct)
        } else {
            FaultPlan { seed: self.seed, ..FaultPlan::none() }
        }
    }

    /// The replayable [`Cell`] this spec describes: the same scheme and
    /// machine with `fault_pct` + `seed` expanded into the fault plan.
    /// The service compiles, runs and quarantines a cell through it.
    pub fn cell(&self) -> Cell {
        Cell {
            scheme: self.scheme.clone(),
            fabric: self.fabric,
            iterations: self.iterations,
            processors: self.processors,
            cache: self.cache,
            plan: self.fault_plan(),
        }
    }
}

/// Per-field admission checks, shared between [`CellSpec::validate`]
/// and the expansion-free sweep validation in
/// [`SweepSpec::validate_axes`] so the two can never drift apart.
fn check_scheme(scheme: &str) -> Result<(), String> {
    if SCHEME_KEYS.contains(&scheme) {
        Ok(())
    } else {
        Err(format!("unknown scheme `{scheme}` (expected one of {SCHEME_KEYS:?})"))
    }
}

fn check_iterations(iterations: i64) -> Result<(), String> {
    if (1..=100_000).contains(&iterations) {
        Ok(())
    } else {
        Err(format!("iterations must be 1..=100000, got {iterations}"))
    }
}

fn check_processors(processors: usize) -> Result<(), String> {
    if (2..=64).contains(&processors) {
        Ok(())
    } else {
        Err(format!("processors must be 2..=64, got {processors}"))
    }
}

fn check_fault_pct(fault_pct: u32) -> Result<(), String> {
    if fault_pct > 100 {
        return Err(format!("fault_pct must be 0..=100, got {fault_pct}"));
    }
    Ok(())
}

/// A sweep request: lists per axis, expanded as a full cross product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Scheme keys to sweep.
    pub schemes: Vec<String>,
    /// Fabrics to sweep.
    pub fabrics: Vec<FabricKind>,
    /// Iteration counts to sweep.
    pub iterations: Vec<i64>,
    /// Machine sizes to sweep.
    pub processors: Vec<usize>,
    /// Cache words to sweep (`none` / `mesi` / `dragon`).
    pub caches: Vec<String>,
    /// Fault intensities to sweep (percent).
    pub fault_pcts: Vec<u32>,
    /// Fault-plan seed shared by every cell.
    pub seed: u64,
    /// Per-cell cycle-budget override (0 = derived).
    pub deadline_cycles: u64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        let d = CellSpec::default();
        SweepSpec {
            schemes: vec![d.scheme],
            fabrics: vec![d.fabric],
            iterations: vec![d.iterations],
            processors: vec![d.processors],
            caches: vec!["none".to_string()],
            fault_pcts: vec![0],
            seed: 0,
            deadline_cycles: 0,
        }
    }
}

impl SweepSpec {
    /// Reads a sweep from a parsed JSON object: every axis is an
    /// optional array (omitted → the single-cell default), unknown keys
    /// are rejected.
    ///
    /// # Errors
    ///
    /// Reports the first unknown key, ill-typed axis, empty axis, or
    /// invalid cell the grid would expand to.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        const KNOWN: [&str; 11] = [
            "schemes",
            "fabrics",
            "clusters",
            "bridge_latencies",
            "coalesce_windows",
            "iterations",
            "processors",
            "caches",
            "fault_pcts",
            "seed",
            "deadline_cycles",
        ];
        if !matches!(doc, Json::Obj(_)) {
            return Err("sweep spec must be a JSON object".into());
        }
        if let Some(unknown) = doc.keys().iter().find(|k| !KNOWN.contains(k)) {
            return Err(format!("unknown sweep field `{unknown}`"));
        }
        fn axis<T>(
            doc: &Json,
            key: &str,
            default: Vec<T>,
            read: impl Fn(&Json) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => {
                    let items = v.as_arr().ok_or(format!("`{key}` must be an array"))?;
                    if items.is_empty() {
                        return Err(format!("`{key}` must not be empty"));
                    }
                    items.iter().map(read).collect()
                }
            }
        }
        let d = SweepSpec::default();
        let mut fabrics = axis(doc, "fabrics", d.fabrics, |v| {
            let name = v.as_str().ok_or("fabrics entries must be strings")?;
            FabricKind::parse(name).ok_or_else(|| format!("unknown fabric `{name}`"))
        })?;
        // The cluster-geometry axes ride in lockstep with `fabrics`:
        // entry i overrides fabric i's geometry. They are not a cross
        // product — a geometry only means anything next to the
        // clustered fabric it modifies (a flat entry must carry 0).
        for (key, write) in [("clusters", 0usize), ("bridge_latencies", 1), ("coalesce_windows", 2)]
        {
            let Some(v) = doc.get(key) else { continue };
            let items = v.as_arr().ok_or(format!("`{key}` must be an array"))?;
            if items.len() != fabrics.len() {
                return Err(format!(
                    "`{key}` must pair one entry with each fabric ({} fabrics, {} entries)",
                    fabrics.len(),
                    items.len()
                ));
            }
            for (fabric, item) in fabrics.iter_mut().zip(items) {
                let n = item
                    .as_u64()
                    .ok_or(format!("`{key}` entries must be non-negative integers"))?;
                match fabric {
                    FabricKind::Clustered { clusters, bridge_latency, coalesce_window } => {
                        *[clusters, bridge_latency, coalesce_window][write] = n as u32;
                    }
                    flat if n != 0 => {
                        return Err(format!(
                            "`{key}` entry {n} is paired with the flat `{flat}` fabric \
                             (only `clustered` entries take a geometry; use 0 here)"
                        ));
                    }
                    _ => {}
                }
            }
        }
        let spec = SweepSpec {
            schemes: axis(doc, "schemes", d.schemes, |v| {
                v.as_str().map(str::to_string).ok_or("schemes entries must be strings".into())
            })?,
            fabrics,
            iterations: axis(doc, "iterations", d.iterations, |v| {
                v.as_i64().ok_or("iterations entries must be integers".into())
            })?,
            processors: axis(doc, "processors", d.processors, |v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or("processors entries must be integers".into())
            })?,
            caches: axis(doc, "caches", d.caches, |v| {
                let word = v.as_str().ok_or("caches entries must be strings")?;
                // Validate the vocabulary up front; geometry is defaulted.
                cell::cache_from_fields(word, DEFAULT_GEOMETRY, true).map(|_| word.to_string())
            })?,
            fault_pcts: axis(doc, "fault_pcts", d.fault_pcts, |v| {
                v.as_u64().map(|n| n as u32).ok_or("fault_pcts entries must be integers".into())
            })?,
            seed: cell::num_field(doc, "seed")?.unwrap_or(d.seed),
            deadline_cycles: cell::num_field(doc, "deadline_cycles")?.unwrap_or(d.deadline_cycles),
        };
        // Validate every cell the grid implies — element-wise, never by
        // expanding: a small request body can cross-multiply into
        // billions of cells, and materializing them here would be a
        // remote OOM before any cap is consulted.
        spec.validate_axes()?;
        Ok(spec)
    }

    /// Rejects any grid whose expansion would contain an invalid cell,
    /// in time linear in the axis lengths and without materializing a
    /// single [`CellSpec`]. Equivalent to validating `expand()` cell by
    /// cell because every [`CellSpec::validate`] rule reads one field —
    /// except whether a scheme builds on a machine size
    /// ([`cell::scheme_for`]: barrier needs a power of two), whose cross
    /// product collapses to asking each distinct key of every size.
    ///
    /// # Errors
    ///
    /// Returns the first rejection reason, phrased as
    /// [`CellSpec::validate`] would phrase it.
    pub fn validate_axes(&self) -> Result<(), String> {
        for scheme in &self.schemes {
            check_scheme(scheme)?;
        }
        for key in SCHEME_KEYS.iter().filter(|k| self.schemes.iter().any(|s| s == *k)) {
            for &processors in &self.processors {
                cell::scheme_for(key, processors)?;
            }
        }
        // Like the barrier rule, cluster geometry couples two axes:
        // every clustered fabric entry must divide every machine size.
        for fabric in &self.fabrics {
            for &processors in &self.processors {
                fabric.check(processors)?;
            }
        }
        for &iterations in &self.iterations {
            check_iterations(iterations)?;
        }
        for &processors in &self.processors {
            check_processors(processors)?;
        }
        for &fault_pct in &self.fault_pcts {
            check_fault_pct(fault_pct)?;
        }
        Ok(())
    }

    /// Number of cells the grid expands to, saturating at `usize::MAX`
    /// on overflow so a hostile cross product still compares as "too
    /// large" against any cap instead of wrapping past it.
    pub fn cell_count(&self) -> usize {
        [
            self.fabrics.len(),
            self.iterations.len(),
            self.processors.len(),
            self.caches.len(),
            self.fault_pcts.len(),
        ]
        .iter()
        .fold(self.schemes.len(), |count, &axis| count.saturating_mul(axis))
    }

    /// Expands the grid into cells in a fixed nesting order (schemes,
    /// then fabrics, iterations, processors, caches, fault
    /// intensities). The order is part of the service contract: resume
    /// and the aggregate hash depend on resubmission enumerating
    /// identically.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.cell_count().min(1 << 20));
        for scheme in &self.schemes {
            for &fabric in &self.fabrics {
                for &iterations in &self.iterations {
                    for &processors in &self.processors {
                        for cache_word in &self.caches {
                            for &fault_pct in &self.fault_pcts {
                                let cache =
                                    cell::cache_from_fields(cache_word, DEFAULT_GEOMETRY, true)
                                        .unwrap_or(CacheModel::None);
                                cells.push(CellSpec {
                                    scheme: scheme.clone(),
                                    fabric,
                                    iterations,
                                    processors,
                                    cache,
                                    fault_pct,
                                    seed: self.seed,
                                    deadline_cycles: self.deadline_cycles,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasync_sim::CoherenceProtocol;

    #[test]
    fn canonical_json_parses_back_to_the_same_cell() {
        let specs = [
            CellSpec::default(),
            CellSpec {
                scheme: "barrier".into(),
                fabric: FabricKind::Shared,
                iterations: 32,
                processors: 8,
                cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(4, 1, 2),
                fault_pct: 40,
                seed: u64::MAX,
                deadline_cycles: 123_456,
            },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Dragon)
                    .geometry(64, 2, 4)
                    .sync_uncached(),
                ..CellSpec::default()
            },
            CellSpec {
                fabric: FabricKind::Clustered {
                    clusters: 2,
                    bridge_latency: 3,
                    coalesce_window: 7,
                },
                processors: 8,
                ..CellSpec::default()
            },
        ];
        for spec in specs {
            let back = CellSpec::parse(&spec.canonical_json()).expect("parse own canonical form");
            assert_eq!(back, spec);
            assert_eq!(back.content_hash(), spec.content_hash());
        }
    }

    #[test]
    fn hash_is_invariant_to_field_order_and_omitted_defaults() {
        let canonical = CellSpec::default().content_hash();
        // Omitting every field means the default cell.
        assert_eq!(CellSpec::parse("{}").unwrap().content_hash(), canonical);
        // Spelling out defaults changes nothing.
        let explicit = r#"{"scheme": "process", "processors": 4, "fault_pct": 0}"#;
        assert_eq!(CellSpec::parse(explicit).unwrap().content_hash(), canonical);
        // Field order is free.
        let reordered = r#"{"seed": 0, "iterations": 16, "fabric": "dedicated",
                            "scheme": "process", "deadline_cycles": 0}"#;
        assert_eq!(CellSpec::parse(reordered).unwrap().content_hash(), canonical);
        // Cache geometry on a cacheless cell is normalized away.
        let moot_geometry = r#"{"cache": "none", "cache_sets": 64}"#;
        assert_eq!(CellSpec::parse(moot_geometry).unwrap().content_hash(), canonical);
        // Cluster geometry on a flat fabric is normalized away too.
        let moot_clusters = r#"{"clusters": 8, "bridge_latency": 5}"#;
        assert_eq!(CellSpec::parse(moot_clusters).unwrap().content_hash(), canonical);
        // A clustered cell with omitted geometry means the defaults.
        let bare = CellSpec::parse(r#"{"fabric": "clustered"}"#).unwrap();
        let explicit = CellSpec::parse(
            r#"{"fabric": "clustered", "clusters": 4, "bridge_latency": 2,
                "coalesce_window": 4}"#,
        )
        .unwrap();
        assert_eq!(bare.content_hash(), explicit.content_hash());
        assert_ne!(bare.content_hash(), canonical);
    }

    #[test]
    fn flat_canonical_bytes_predate_the_clustered_fabric() {
        // A flat cell's canonical form carries no cluster fields at
        // all, so hashes journaled by pre-clustered deployments keep
        // addressing the same cached runs.
        let flat = CellSpec::default().canonical_json();
        assert!(!flat.contains("clusters"), "{flat}");
        assert!(!flat.contains("bridge_latency"), "{flat}");
        let clustered =
            CellSpec { fabric: FabricKind::clustered(4), ..CellSpec::default() }.canonical_json();
        assert!(
            clustered.contains("\"clusters\":4,\"bridge_latency\":2,\"coalesce_window\":4"),
            "{clustered}"
        );
    }

    #[test]
    fn hash_changes_for_every_semantic_field() {
        let base = CellSpec {
            cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(16, 2, 4),
            ..CellSpec::default()
        };
        let variants = [
            CellSpec { scheme: "instance".into(), ..base.clone() },
            CellSpec { fabric: FabricKind::Shared, ..base.clone() },
            CellSpec { fabric: FabricKind::Ideal, ..base.clone() },
            CellSpec { iterations: 17, ..base.clone() },
            CellSpec { processors: 8, ..base.clone() },
            CellSpec { cache: CacheModel::None, ..base.clone() },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Dragon).geometry(16, 2, 4),
                ..base.clone()
            },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(4, 2, 4),
                ..base.clone()
            },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(16, 1, 4),
                ..base.clone()
            },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Mesi).geometry(16, 2, 2),
                ..base.clone()
            },
            CellSpec {
                cache: CacheModel::private(CoherenceProtocol::Mesi)
                    .geometry(16, 2, 4)
                    .sync_uncached(),
                ..base.clone()
            },
            CellSpec { fabric: FabricKind::clustered(4), ..base.clone() },
            CellSpec { fabric: FabricKind::clustered(2), ..base.clone() },
            CellSpec {
                fabric: FabricKind::Clustered {
                    clusters: 4,
                    bridge_latency: 5,
                    coalesce_window: 4,
                },
                ..base.clone()
            },
            CellSpec {
                fabric: FabricKind::Clustered {
                    clusters: 4,
                    bridge_latency: 2,
                    coalesce_window: 0,
                },
                ..base.clone()
            },
            CellSpec { fault_pct: 30, ..base.clone() },
            CellSpec { seed: 1, ..base.clone() },
            CellSpec { seed: u64::MAX, ..base.clone() },
            CellSpec { deadline_cycles: 1_000_000, ..base.clone() },
        ];
        let base_hash = base.content_hash();
        let mut seen = std::collections::HashSet::from([base_hash]);
        for v in variants {
            assert!(
                seen.insert(v.content_hash()),
                "semantic change did not change the hash: {}",
                v.canonical_json()
            );
        }
    }

    #[test]
    fn unknown_keys_and_bad_cells_are_rejected() {
        assert!(CellSpec::parse(r#"{"procesors": 4}"#).unwrap_err().contains("procesors"));
        assert!(CellSpec::parse(r#"{"scheme": "quantum"}"#).is_err());
        assert!(CellSpec::parse(r#"{"scheme": "barrier", "processors": 6}"#).is_err());
        // `scheme_for` builds `process/8`, but the wire takes only SCHEME_KEYS.
        assert!(CellSpec::parse(r#"{"scheme": "process/8"}"#).is_err());
        assert!(CellSpec::parse(r#"{"processors": 1}"#).is_err());
        assert!(CellSpec::parse(r#"{"processors": 65}"#).is_err());
        assert!(CellSpec::parse(r#"{"iterations": 0}"#).is_err());
        assert!(CellSpec::parse(r#"{"fault_pct": 101}"#).is_err());
        assert!(CellSpec::parse(r#"{"cache": "snoopy"}"#).is_err());
        assert!(CellSpec::parse(r#"{"cell_spec": 2}"#).is_err());
        assert!(CellSpec::parse(r#"{"seed": -1}"#).is_err());
        let err = CellSpec::parse(r#"{"fabric": "clustered", "clusters": 3}"#).unwrap_err();
        assert!(err.contains("divide"), "{err}");
        assert!(CellSpec::parse(r#"{"fabric": "clustered", "clusters": 0}"#).is_err());
        assert!(CellSpec::parse(r#"{"fabric": "clustered", "bridge_latency": 0}"#).is_err());
        assert!(CellSpec::parse(r#"{"fabric": "dedicated", "clusters": "two"}"#).is_err());
        assert!(CellSpec::parse(r#"{"fault_pct": 4294967297}"#).is_err());
    }

    #[test]
    fn fractional_numbers_are_rejected_at_the_field_that_wants_an_integer() {
        // The parser reads fractions (for the BENCH reports); no wire
        // field accepts one, not even a whole-valued one.
        for (bad, field) in [
            (r#"{"seed": 1.5}"#, "seed"),
            (r#"{"iterations": 1e3}"#, "iterations"),
            (r#"{"processors": 4.0}"#, "processors"),
        ] {
            let err = CellSpec::parse(bad).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
        for (bad, field) in [
            (r#"{"seed": 1.5}"#, "seed"),
            (r#"{"iterations": [1e3]}"#, "iterations"),
            (r#"{"processors": [4.0]}"#, "processors"),
        ] {
            let err = SweepSpec::from_json(&json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
    }

    #[test]
    fn sweep_cluster_axes_ride_in_lockstep_with_fabrics() {
        let doc = json::parse(
            r#"{"fabrics": ["dedicated", "clustered", "clustered"],
                "clusters": [0, 2, 4],
                "bridge_latencies": [0, 1, 2],
                "coalesce_windows": [0, 0, 6],
                "processors": [4, 8]}"#,
        )
        .unwrap();
        let sweep = SweepSpec::from_json(&doc).unwrap();
        assert_eq!(
            sweep.fabrics,
            vec![
                FabricKind::Dedicated,
                FabricKind::Clustered { clusters: 2, bridge_latency: 1, coalesce_window: 0 },
                FabricKind::Clustered { clusters: 4, bridge_latency: 2, coalesce_window: 6 },
            ]
        );
        let cells = sweep.expand();
        assert_eq!(cells.len(), 6);
        // The geometry lands in the expanded cells and their hashes.
        let hashes: std::collections::HashSet<String> =
            cells.iter().map(CellSpec::content_hash).collect();
        assert_eq!(hashes.len(), cells.len());
        // Omitting the geometry axes sweeps the default clustered shape.
        let doc = json::parse(r#"{"fabrics": ["clustered"], "processors": [8]}"#).unwrap();
        let sweep = SweepSpec::from_json(&doc).unwrap();
        assert_eq!(sweep.fabrics, vec![FabricKind::clustered(4)]);
    }

    #[test]
    fn sweep_expands_deterministically_in_grid_order() {
        let doc = json::parse(
            r#"{"schemes": ["process", "instance"], "fabrics": ["dedicated", "shared"],
                "iterations": [8], "fault_pcts": [0, 30], "seed": 42}"#,
        )
        .unwrap();
        let sweep = SweepSpec::from_json(&doc).unwrap();
        assert_eq!(sweep.cell_count(), 8);
        let cells = sweep.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells, sweep.expand(), "expansion must be deterministic");
        // Outer axis varies slowest.
        assert!(cells[..4].iter().all(|c| c.scheme == "process"));
        assert!(cells[4..].iter().all(|c| c.scheme == "instance"));
        assert_eq!(cells[0].fault_pct, 0);
        assert_eq!(cells[1].fault_pct, 30);
        assert!(cells.iter().all(|c| c.seed == 42));
        // Hashes are pairwise distinct across the grid.
        let hashes: std::collections::HashSet<String> =
            cells.iter().map(CellSpec::content_hash).collect();
        assert_eq!(hashes.len(), cells.len());
    }

    #[test]
    fn sweep_rejects_bad_axes_before_admitting_anything() {
        for bad in [
            r#"{"schemes": []}"#,
            r#"{"schemes": "process"}"#,
            r#"{"schemes": ["quantum"]}"#,
            r#"{"fabrics": ["warp"]}"#,
            r#"{"caches": ["victim"]}"#,
            r#"{"schemes": ["barrier"], "processors": [6]}"#,
            r#"{"schemes": ["process/8"]}"#,
            r#"{"fault_pcts": [200]}"#,
            r#"{"sweeps": 3}"#,
            // Cluster axes must pair 1:1 with fabrics…
            r#"{"fabrics": ["dedicated", "clustered"], "clusters": [2]}"#,
            // …carry zeros against flat fabrics…
            r#"{"fabrics": ["dedicated"], "clusters": [2]}"#,
            // …and divide every machine size in the sweep.
            r#"{"fabrics": ["clustered"], "clusters": [3], "processors": [4]}"#,
            r#"{"fabrics": ["clustered"], "bridge_latencies": [0]}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(SweepSpec::from_json(&doc).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn hostile_cross_products_validate_without_expanding() {
        // ~1.9 billion implied cells in a small body: admission-time
        // validation must be linear in the axis lengths, not the grid.
        let mut iterations = String::new();
        for i in 1..=1000 {
            if i > 1 {
                iterations.push(',');
            }
            iterations.push_str(&i.to_string());
        }
        let fault_pcts: Vec<String> = (0..=100).map(|p| p.to_string()).collect();
        let body = format!(
            r#"{{"schemes": ["reference", "instance", "statement", "process", "barrier"],
                "fabrics": ["dedicated", "shared", "ideal"],
                "iterations": [{iterations}],
                "processors": [2, 4, 8, 16],
                "caches": ["none", "mesi", "dragon"],
                "fault_pcts": [{}]}}"#,
            fault_pcts.join(",")
        );
        let started = std::time::Instant::now();
        let sweep = SweepSpec::from_json(&json::parse(&body).unwrap()).unwrap();
        assert_eq!(sweep.cell_count(), 5 * 3 * 1000 * 4 * 3 * 101);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "validation must not expand the grid"
        );
        // An invalid element is still caught without expansion.
        let bad = body.replace("\"processors\": [2, 4, 8, 16]", "\"processors\": [2, 4, 8, 6]");
        let err = SweepSpec::from_json(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
    }

    #[test]
    fn cell_count_saturates_instead_of_wrapping() {
        // Six axes of 2^11 elements imply 2^66 cells — past usize on
        // 64-bit targets. A wrapped count could sneak under a cap.
        let axis = 1usize << 11;
        let sweep = SweepSpec {
            schemes: vec!["process".into(); axis],
            fabrics: vec![FabricKind::Dedicated; axis],
            iterations: vec![8; axis],
            processors: vec![4; axis],
            caches: vec!["none".into(); axis],
            fault_pcts: vec![0; axis],
            seed: 0,
            deadline_cycles: 0,
        };
        assert_eq!(sweep.cell_count(), usize::MAX);
    }

    #[test]
    fn validate_axes_matches_per_cell_validation() {
        // On small grids the element-wise check must agree with
        // expanding and validating cell by cell.
        let grids = [
            r#"{"schemes": ["barrier"], "processors": [2, 4]}"#,
            r#"{"schemes": ["process", "barrier"], "processors": [4, 8], "fault_pcts": [0, 50]}"#,
        ];
        for grid in grids {
            let sweep = SweepSpec::from_json(&json::parse(grid).unwrap()).unwrap();
            assert!(sweep.validate_axes().is_ok());
            for cell in sweep.expand() {
                cell.validate().unwrap();
            }
        }
    }

    #[test]
    fn default_sweep_is_one_default_cell() {
        let doc = json::parse("{}").unwrap();
        let sweep = SweepSpec::from_json(&doc).unwrap();
        assert_eq!(sweep.cell_count(), 1);
        assert_eq!(sweep.expand(), vec![CellSpec::default()]);
    }

    #[test]
    fn fault_plan_matches_the_intensity() {
        let quiet = CellSpec::default().fault_plan();
        assert!(!quiet.is_active());
        let noisy = CellSpec { fault_pct: 50, seed: 7, ..CellSpec::default() }.fault_plan();
        assert!(noisy.is_active());
        assert_eq!(noisy.seed, 7);
        assert_eq!(noisy, FaultPlan::chaos(7, 50));
    }
}
