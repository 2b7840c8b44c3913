//! The `BENCH_*.json` emitters are fixed-key `format!` strings. Nothing
//! structural guarantees they stay valid JSON, so each one — and each
//! committed artifact — is parsed back here by the workspace's one
//! parser and read through the getters its readers use. The artifacts
//! record simulated counts only: host time belongs to `benchmark/`.

use datasync_bench::scale::{ScalePoint, ScaleReport, SchemeCurve};
use datasync_sim::json::{self, Json};

const ARTIFACTS: [(&str, &str); 3] = [
    ("BENCH_scale.json", "schemes"),
    ("BENCH_fabric.json", "rows"),
    ("BENCH_robustness.json", "recovery_on"),
];

fn parsed(what: &str, text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}\n{text}"))
}

fn committed(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("cannot read {name}: {e}"))
}

/// Every object key anywhere in `doc`.
fn all_keys<'a>(doc: &'a Json, out: &mut Vec<&'a str>) {
    match doc {
        Json::Obj(members) => {
            for (k, v) in members {
                out.push(k);
                all_keys(v, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| all_keys(v, out)),
        _ => {}
    }
}

#[test]
fn every_report_emitter_and_committed_artifact_parses() {
    let point = ScalePoint {
        procs: 1024,
        clusters: 32,
        makespan: 957,
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
    assert_eq!(points[0].get("visits_per_op").and_then(Json::as_f64), Some(1.125));
    assert_eq!(points[0].get("makespan").and_then(Json::as_u64), Some(957));

    let doc = parsed("fabric_json", &datasync_bench::sec6::fabric_json(8, 4));
    assert_eq!(doc.get("procs").and_then(Json::as_u64), Some(4));
    let doc = parsed("json_report", &datasync_bench::robustness::json_report(6, 4, &[0, 50], 7));
    assert!(doc.get("recovery_on").and_then(|m| m.get("rows")).is_some());

    for (name, key) in ARTIFACTS {
        assert!(parsed(name, &committed(name)).get(key).is_some(), "{name} lacks `{key}`");
    }
}

#[test]
fn committed_artifacts_carry_no_host_time() {
    for (name, _) in ARTIFACTS {
        let doc = parsed(name, &committed(name));
        let mut keys = Vec::new();
        all_keys(&doc, &mut keys);
        for key in keys {
            assert!(
                key != "wall_seconds" && !key.ends_with("_per_sec") && !key.contains("latency"),
                "{name} records host time under `{key}`"
            );
        }
    }
}

#[test]
fn committed_fabric_artifact_is_what_sec6_traffic_writes() {
    assert_eq!(committed("BENCH_fabric.json"), datasync_bench::sec6::fabric_json(64, 4));
}
