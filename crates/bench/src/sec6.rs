//! E11 / Section 6 — synchronization-bus traffic: broadcasts vs data
//! traffic, and the write-coalescing optimization.

use crate::table::{f, Table};
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::cell::{machine_for, roster};
use datasync_schemes::scheme::Scheme;
use datasync_schemes::{ProcessOriented, ReferenceBased};
use datasync_sim::{CacheModel, CoherenceProtocol, FabricKind, MachineConfig};

/// Measures the process-oriented scheme's bus traffic with and without
/// posted-write coalescing, at two sync-bus speeds (a slow bus queues
/// more writes, giving coalescing more to absorb).
pub fn run_experiment(n: i64, procs: usize) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = ProcessOriented::new(2 * procs);
    let compiled = scheme.compile(&nest, &graph, &space);

    let mut t = Table::new(
        "E11 / Sec 6",
        &format!("sync-bus traffic and write coalescing (Fig 2.1 loop, N={n}, P={procs})"),
        &[
            "sync bus latency",
            "coalescing",
            "broadcasts",
            "saved",
            "data tx",
            "sync/data ratio",
            "makespan",
        ],
    );
    for bus_latency in [1u32, 24] {
        for coalesce in [false, true] {
            let config = MachineConfig {
                processors: procs,
                sync_bus_latency: bus_latency,
                coalesce_sync_writes: coalesce,
                ..MachineConfig::default()
            };
            let out = compiled.run(&config).expect("simulation failed");
            assert!(compiled.validate(&out).is_empty(), "order violated");
            t.row(vec![
                bus_latency.to_string(),
                if coalesce { "on".into() } else { "off".into() },
                out.stats.sync_broadcasts.to_string(),
                out.stats.coalesced_writes.to_string(),
                out.stats.data_transactions.to_string(),
                f(out.stats.sync_broadcasts as f64 / out.stats.data_transactions as f64),
                out.stats.makespan.to_string(),
            ]);
        }
    }
    t.note("Paper (Section 6): 'since a PC needs to be updated only after the source statement is completed, the amount of such traffic is no worse than that in the main data bus'; a later write to the same PC covers a queued one, 'thus avoid the extra bus traffic'.");
    t.note("A fast bus never queues writes, so coalescing is idle; a congested bus shows the optimization's full effect.");
    t
}

/// E11b / Section 6 ablation — what the dedicated sync bus buys.
///
/// Every dedicated-transport scheme runs on three fabrics: the paper's
/// dedicated bus, a shared fabric where broadcasts arbitrate against
/// data traffic on the one physical bus (the §6 design the dedicated
/// bus avoids), and a zero-latency oracle bounding what any fabric
/// could achieve. Per scheme, makespan must order
/// ideal ≤ dedicated ≤ shared.
pub fn fabric_ablation(n: i64, procs: usize) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let mut t = Table::new(
        "E11b / Sec 6",
        &format!("sync-fabric ablation (Fig 2.1 loop, N={n}, P={procs})"),
        &[
            "scheme",
            "fabric",
            "makespan",
            "issued",
            "broadcasts",
            "coalesced",
            "sync occ",
            "data occ",
            "vs dedicated",
        ],
    );
    // The dedicated-transport schemes, the only ones whose sync traffic
    // rides the fabric under ablation (reference/instance schemes sync
    // through shared memory and never touch the sync bus).
    let process = format!("process/{}", 2 * procs);
    for scheme in roster(&["statement", &process, "barrier"], procs) {
        let compiled = scheme.compile(&nest, &graph, &space);
        let mut dedicated_makespan = 0u64;
        for kind in FabricKind::ALL {
            let config = machine_for(&*scheme, MachineConfig::with_processors(procs).fabric(kind));
            let out = compiled.run(&config).expect("simulation failed");
            assert!(compiled.validate(&out).is_empty(), "order violated");
            // Conservation: on a fault-free run every issued sync op is
            // either granted as a broadcast or folded into a queued one.
            // Fewer broadcasts on a slower fabric is coalescing under
            // arbitration latency, not loss.
            assert_eq!(
                out.stats.sync_ops_issued,
                out.stats.sync_broadcasts + out.stats.coalesced_writes,
                "{} {kind}: sync ops leaked",
                scheme.name()
            );
            if kind == FabricKind::Dedicated {
                dedicated_makespan = out.stats.makespan;
            }
            t.row(vec![
                scheme.name(),
                kind.to_string(),
                out.stats.makespan.to_string(),
                out.stats.sync_ops_issued.to_string(),
                out.stats.sync_broadcasts.to_string(),
                out.stats.coalesced_writes.to_string(),
                f(out.metrics.sync_bus_occupancy(out.stats.makespan)),
                f(out.metrics.data_bus_occupancy(out.stats.makespan)),
                f(out.stats.makespan as f64 / dedicated_makespan as f64),
            ]);
        }
    }
    t.note("Paper (Section 6): a dedicated synchronization bus keeps PC/SC broadcasts off the main data bus; sharing one bus makes every broadcast steal a data-transfer slot.");
    t.note("The ideal fabric delivers broadcasts instantly and bounds the improvement any bus design could still buy.");
    t.note("issued = broadcasts + coalesced on every fabric: fabrics that queue writes long enough to cover them broadcast fewer times, not fewer writes.");
    t
}

/// E11c / Section 6 — caching synchronization variables.
///
/// The through-memory schemes (keys and full/empty bits living next to
/// their data) run cacheless, then under each coherence protocol with
/// sync variables cacheable and uncacheable. Cached sync lines turn
/// every poll into a (usually) local hit — at the price of invalidation
/// ping-pong (MESI) or an update per write (Dragon); uncached sync
/// lines pay full memory latency on every poll but keep coherence
/// traffic at zero for them.
pub fn cache_ablation(n: i64, procs: usize) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let schemes = roster(&["reference", "instance"], procs);
    let mut t = Table::new(
        "E11c / Sec 6",
        &format!(
            "caching sync variables vs leaving them uncached (Fig 2.1 loop, N={n}, P={procs})"
        ),
        &[
            "scheme",
            "cache",
            "sync cached",
            "makespan",
            "hit rate",
            "invals",
            "updates",
            "writebacks",
            "vs no cache",
        ],
    );
    for scheme in schemes {
        let compiled = scheme.compile(&nest, &graph, &space);
        let mut cacheless_makespan = 0u64;
        let cells: [(String, &str, CacheModel); 5] = [
            ("none".into(), "-", CacheModel::None),
            ("mesi".into(), "yes", CacheModel::private(CoherenceProtocol::Mesi)),
            ("mesi".into(), "no", CacheModel::private(CoherenceProtocol::Mesi).sync_uncached()),
            ("dragon".into(), "yes", CacheModel::private(CoherenceProtocol::Dragon)),
            ("dragon".into(), "no", CacheModel::private(CoherenceProtocol::Dragon).sync_uncached()),
        ];
        for (label, sync_cached, cache) in cells {
            let config =
                machine_for(&*scheme, MachineConfig::with_processors(procs).with_cache(cache));
            let out = compiled.run(&config).expect("simulation failed");
            assert!(compiled.validate(&out).is_empty(), "order violated");
            if !cache.enabled() {
                cacheless_makespan = out.stats.makespan;
            }
            let c = out.metrics.cache;
            t.row(vec![
                scheme.name(),
                label,
                sync_cached.into(),
                out.stats.makespan.to_string(),
                f(c.hit_rate()),
                c.invalidations.to_string(),
                c.updates.to_string(),
                c.writebacks.to_string(),
                f(out.stats.makespan as f64 / cacheless_makespan as f64),
            ]);
        }
    }
    t.note("Paper (Section 6): whether synchronization variables should be cacheable is a design axis — spinning on a cached line costs no bus traffic until the value changes, but the change then pays coherence traffic on the hot line.");
    t.note("MESI invalidates the spinners (they miss and refetch); Dragon updates them in place (they keep hitting).");
    t
}

/// Cache-geometry and protocol sweep: one through-memory scheme across
/// set count, associativity and line size under both protocols.
pub fn cache_sweep(n: i64, procs: usize) -> Table {
    let nest = fig21_loop(n);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = ReferenceBased::new();
    let compiled = scheme.compile(&nest, &graph, &space);
    let mut t = Table::new(
        "E11d / Sec 6",
        &format!("cache geometry sweep, reference-based scheme (Fig 2.1 loop, N={n}, P={procs})"),
        &["protocol", "sets", "assoc", "line", "makespan", "hit rate", "coh tx", "writebacks"],
    );
    for protocol in CoherenceProtocol::ALL {
        for (sets, assoc, line_words) in
            [(4u32, 1u32, 4u32), (16, 2, 4), (64, 2, 4), (64, 4, 4), (64, 2, 1), (64, 2, 8)]
        {
            let cache = CacheModel::private(protocol).geometry(sets, assoc, line_words);
            let config =
                machine_for(&scheme, MachineConfig::with_processors(procs).with_cache(cache));
            let out = compiled.run(&config).expect("simulation failed");
            assert!(compiled.validate(&out).is_empty(), "order violated");
            let c = out.metrics.cache;
            t.row(vec![
                protocol.to_string(),
                sets.to_string(),
                assoc.to_string(),
                line_words.to_string(),
                out.stats.makespan.to_string(),
                f(c.hit_rate()),
                c.coherence_traffic().to_string(),
                c.writebacks.to_string(),
            ]);
        }
    }
    t.note("Tiny caches thrash (capacity misses and writebacks); longer lines prefetch neighbours but widen false sharing on the hot sync lines.");
    t
}

/// The fabric ablation plus the cache ablation and geometry sweep as one
/// JSON document (the `BENCH_fabric.json` artifact): raw counters per
/// cell, so CI diffs can catch regressions numerically.
pub fn fabric_json(n: i64, procs: usize) -> String {
    let t = fabric_ablation(n, procs);
    let mut rows = String::new();
    for (i, r) in t.rows.iter().enumerate() {
        let sep = if i + 1 < t.rows.len() { "," } else { "" };
        rows.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"fabric\": \"{}\", \"makespan\": {}, \
             \"sync_ops_issued\": {}, \"broadcasts\": {}, \"coalesced\": {}, \
             \"sync_occupancy\": {}, \"data_occupancy\": {}, \"vs_dedicated\": {}}}{sep}\n",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8]
        ));
    }
    let ca = cache_ablation(n, procs);
    let mut cache_rows = String::new();
    for (i, r) in ca.rows.iter().enumerate() {
        let sep = if i + 1 < ca.rows.len() { "," } else { "" };
        cache_rows.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"cache\": \"{}\", \"sync_cached\": \"{}\", \
             \"makespan\": {}, \"hit_rate\": {}, \"invalidations\": {}, \"updates\": {}, \
             \"writebacks\": {}, \"vs_no_cache\": {}}}{sep}\n",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8]
        ));
    }
    let cs = cache_sweep(n, procs);
    let mut sweep_rows = String::new();
    for (i, r) in cs.rows.iter().enumerate() {
        let sep = if i + 1 < cs.rows.len() { "," } else { "" };
        sweep_rows.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"sets\": {}, \"assoc\": {}, \"line_words\": {}, \
             \"makespan\": {}, \"hit_rate\": {}, \"coherence_tx\": {}, \"writebacks\": {}}}{sep}\n",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
        ));
    }
    format!(
        "{{\n  \"experiment\": \"sec6 sync-fabric ablation\",\n  \"loop\": \"fig21\",\n  \
         \"n\": {n},\n  \"procs\": {procs},\n  \
         \"fabrics\": [\"dedicated\", \"shared\", \"ideal\"],\n  \"rows\": [\n{rows}  ],\n  \
         \"cache_ablation\": [\n{cache_rows}  ],\n  \
         \"cache_sweep\": [\n{sweep_rows}  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn sync_traffic_at_most_data_traffic_and_coalescing_saves() {
        let t = super::run_experiment(48, 4);
        for r in &t.rows {
            let ratio: f64 = r[5].parse().unwrap();
            assert!(ratio <= 1.0, "sync/data ratio {ratio} exceeds 1");
        }
        // On the congested bus, coalescing absorbs queued writes and
        // recovers most of the lost makespan.
        let slow_on = t.rows.iter().find(|r| r[0] == "24" && r[1] == "on").unwrap();
        let saved: u64 = slow_on[3].parse().unwrap();
        assert!(saved > 0, "congested bus with coalescing should save broadcasts");
        let slow_off = t.rows.iter().find(|r| r[0] == "24" && r[1] == "off").unwrap();
        let b_on: u64 = slow_on[2].parse().unwrap();
        let b_off: u64 = slow_off[2].parse().unwrap();
        assert!(b_on < b_off, "coalescing must reduce broadcasts ({b_on} vs {b_off})");
        let m_on: u64 = slow_on[6].parse().unwrap();
        let m_off: u64 = slow_off[6].parse().unwrap();
        assert!(m_on < m_off, "coalescing must improve makespan ({m_on} vs {m_off})");
    }

    #[test]
    fn fabric_ablation_orders_ideal_dedicated_shared() {
        let t = super::fabric_ablation(32, 4);
        // 3 dedicated-transport schemes x 3 fabrics.
        assert_eq!(t.rows.len(), 9);
        for chunk in t.rows.chunks(3) {
            let makespan = |fabric: &str| -> u64 {
                chunk.iter().find(|r| r[1] == fabric).unwrap()[2].parse().unwrap()
            };
            let (ded, shr, idl) = (makespan("dedicated"), makespan("shared"), makespan("ideal"));
            let scheme = &chunk[0][0];
            assert!(idl <= ded, "{scheme}: ideal {idl} beat by dedicated {ded}");
            assert!(ded <= shr, "{scheme}: dedicated {ded} beat by shared {shr}");
            // The oracle never touches a bus; the shared fabric must pay
            // for its broadcasts in data-bus time.
            let ideal_row = chunk.iter().find(|r| r[1] == "ideal").unwrap();
            assert_eq!(ideal_row[6], "0.00", "{scheme}: ideal fabric held the sync bus");
            // Conservation: the issued count is fabric-invariant even
            // when the broadcast counts differ (coalescing).
            let issued: Vec<&String> = chunk.iter().map(|r| &r[3]).collect();
            assert!(
                issued.windows(2).all(|w| w[0] == w[1]),
                "{scheme}: issued ops differ across fabrics: {issued:?}"
            );
        }
        // At least one scheme must actually show the §6 gap, or the
        // ablation says nothing.
        let gap = t.rows.chunks(3).any(|c| {
            c.iter().find(|r| r[1] == "shared").unwrap()[2]
                != c.iter().find(|r| r[1] == "dedicated").unwrap()[2]
        });
        assert!(gap, "no scheme separated shared from dedicated");
    }

    #[test]
    fn fabric_json_is_complete() {
        use datasync_sim::json::{self, Json};
        let text = super::fabric_json(16, 4);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert!(doc.get("experiment").and_then(Json::as_str).is_some());
        let names = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(names("fabrics"), ["dedicated", "shared", "ideal"].map(|f| Json::Str(f.into())));
        // 3 schemes x 3 fabrics, 2 schemes x 5 cache cells, 2 protocols
        // x 6 geometries — every row with every column.
        for (table, rows, columns) in [
            ("rows", 9, &["scheme", "fabric", "sync_ops_issued", "coalesced", "vs_dedicated"][..]),
            ("cache_ablation", 10, &["scheme", "cache", "sync_cached", "hit_rate"][..]),
            ("cache_sweep", 12, &["protocol", "sets", "coherence_tx", "writebacks"][..]),
        ] {
            assert_eq!(names(table).len(), rows, "{table}");
            for row in names(table) {
                for column in columns {
                    assert!(row.get(column).is_some(), "{table} row lacks {column}: {text}");
                }
            }
        }
    }

    #[test]
    fn cache_ablation_shows_the_protocol_tradeoff() {
        let t = super::cache_ablation(32, 4);
        // 2 through-memory schemes x 5 cells.
        assert_eq!(t.rows.len(), 10);
        for chunk in t.rows.chunks(5) {
            let scheme = &chunk[0][0];
            let cell = |cache: &str, sync_cached: &str| -> &Vec<String> {
                chunk.iter().find(|r| r[1] == cache && r[2] == sync_cached).unwrap()
            };
            // Cached sync lines ping-pong under MESI (invalidations) and
            // flood updates under Dragon — and only when actually cached.
            let mesi: u64 = cell("mesi", "yes")[5].parse().unwrap();
            assert!(mesi > 0, "{scheme}: cached sync under MESI produced no invalidations");
            let dragon: u64 = cell("dragon", "yes")[6].parse().unwrap();
            assert!(dragon > 0, "{scheme}: cached sync under Dragon produced no updates");
            // The cacheless baseline reports no cache traffic at all.
            let none = cell("none", "-");
            assert_eq!(none[5], "0", "{scheme}: phantom invalidations without caches");
            assert_eq!(none[7], "0", "{scheme}: phantom writebacks without caches");
        }
    }

    #[test]
    fn cache_sweep_shows_tiny_caches_thrashing() {
        let t = super::cache_sweep(32, 4);
        assert_eq!(t.rows.len(), 12);
        for protocol in ["mesi", "dragon"] {
            let row = |sets: &str, assoc: &str, line: &str| -> &Vec<String> {
                t.rows
                    .iter()
                    .find(|r| r[0] == protocol && r[1] == sets && r[2] == assoc && r[3] == line)
                    .unwrap()
            };
            let (tiny, big) = (row("4", "1", "4"), row("64", "2", "4"));
            let wb = |r: &Vec<String>| -> u64 { r[7].parse().unwrap() };
            let makespan = |r: &Vec<String>| -> u64 { r[4].parse().unwrap() };
            assert!(
                wb(tiny) > wb(big),
                "{protocol}: the thrashing cache should evict more dirty lines \
                 ({} vs {})",
                wb(tiny),
                wb(big)
            );
            assert!(
                makespan(tiny) > makespan(big),
                "{protocol}: capacity misses should cost makespan ({} vs {})",
                makespan(tiny),
                makespan(big)
            );
        }
    }
}
