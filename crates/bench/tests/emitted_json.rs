//! The `BENCH_*.json` emitters are fixed-key `format!` strings. Nothing
//! structural guarantees they stay valid JSON, so each one — and each
//! committed artifact — is parsed back here by the workspace's one
//! parser and read through the getters its readers use.

use datasync_bench::perf::PerfReport;
use datasync_bench::scale::{ScalePoint, ScaleReport, SchemeCurve};
use datasync_bench::serve::{PhaseStats, ServeBenchReport};
use datasync_sim::json::{self, Json};

fn parsed(what: &str, text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}\n{text}"))
}

fn f64_at(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_f64)
}

#[test]
fn every_report_emitter_and_committed_artifact_parses() {
    let perf = PerfReport {
        workload: "fig 2.1 Doacross, process-oriented (X=8)".into(),
        threads: 1,
        threads_requested: 4,
        threads_available: 1,
        simulated_cycles: 1_604_904,
        fast_seconds: 0.000_123,
        reference_seconds: 0.5,
        fast_cycles_per_sec: 15_957_362.851,
        reference_cycles_per_sec: 3_209_808.0,
        fast_forward_speedup: 4.971,
        sweep_runs: 8,
        serial_runs_per_sec: 70.5,
        parallel_runs_per_sec: 70.5,
        sweep_speedup: f64::NAN,
        combined_speedup: f64::NAN,
        degraded: true,
    };
    let doc = parsed("PerfReport", &perf.to_json());
    assert_eq!(f64_at(&doc, "fast_cycles_per_sec"), Some(15_957_362.851));
    assert_eq!(f64_at(&doc, "fast_seconds"), Some(0.000_123));
    assert_eq!(doc.get("simulated_cycles").and_then(Json::as_u64), Some(1_604_904));
    assert_eq!(doc.get("sweep_speedup"), Some(&Json::Null), "degraded speedups are null");
    assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));

    let point = ScalePoint {
        procs: 1024,
        clusters: 32,
        makespan: 957,
        wall_seconds: 0.001_5,
        cycles_per_sec: 638_000.0,
        visits_per_op: 1.125,
        image_words: 4096,
        words_per_broadcast: 1.0,
    };
    let curve = |fabric: &str| SchemeCurve {
        scheme: "barrier hot-spot".into(),
        fabric: fabric.into(),
        points: vec![point.clone(), point.clone()],
    };
    let scale = ScaleReport {
        workload: "hot-spot".into(),
        procs: vec![8, 1024],
        curves: vec![curve("dedicated"), curve("clustered")],
    };
    let doc = parsed("ScaleReport", &scale.to_json());
    let curves = doc.get("schemes").and_then(Json::as_arr).expect("schemes");
    assert_eq!(curves.len(), 2);
    let points = curves[1].get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(points.len(), 2);
    assert_eq!(f64_at(&points[0], "visits_per_op"), Some(1.125));
    assert_eq!(points[0].get("makespan").and_then(Json::as_u64), Some(957));

    let phase = PhaseStats { cells: 512, wall_seconds: 0.25, cells_per_sec: 2048.0 };
    let serve = ServeBenchReport {
        workload: "4 schemes x 32 iteration counts x 4 seeds = 512 cells".into(),
        cold: phase,
        warm: phase,
        warm_hit_rate: 1.0,
        storm_requests: 60,
        storm_shed: 30,
        p99_latency_us: 1234,
        resume_recomputed: 0,
        resume_hash_matches: true,
    };
    let doc = parsed("ServeBenchReport", &serve.to_json());
    assert_eq!(doc.get("warm").and_then(|w| f64_at(w, "wall_seconds")), Some(0.25));
    assert_eq!(doc.get("storm_shed").and_then(Json::as_u64), Some(30));
    assert_eq!(doc.get("resume_hash_matches").and_then(Json::as_bool), Some(true));

    let doc = parsed("fabric_json", &datasync_bench::sec6::fabric_json(8, 4));
    assert_eq!(doc.get("procs").and_then(Json::as_u64), Some(4));
    let doc = parsed("json_report", &datasync_bench::robustness::json_report(6, 4, &[0, 50], 7));
    assert!(doc.get("recovery_on").and_then(|m| m.get("rows")).is_some());

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (name, key) in [
        ("BENCH_sim.json", "fast_cycles_per_sec"),
        ("BENCH_scale.json", "schemes"),
        ("BENCH_serve.json", "warm_hit_rate"),
        ("BENCH_fabric.json", "rows"),
        ("BENCH_robustness.json", "recovery_on"),
    ] {
        let text = std::fs::read_to_string(format!("{root}/{name}"))
            .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
        assert!(parsed(name, &text).get(key).is_some(), "{name} lacks `{key}`");
    }
}
