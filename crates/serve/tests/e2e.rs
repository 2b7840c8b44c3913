//! End-to-end drills against a live in-process server: the quarantine
//! circuit breaker and hostile-input handling — the behaviors that span
//! runner + store + server and so can't be pinned by any one unit test.

use datasync_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("datasync-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".into(), state_dir: temp_dir(tag), ..ServeConfig::default() }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn stat_u64(stats_body: &str, key: &str) -> u64 {
    let stats = datasync_serve::json::parse(stats_body.trim()).expect("/stats body is JSON");
    stats.get(key).and_then(datasync_serve::json::Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn quarantined_cells_trip_the_circuit_breaker_and_leave_reproducers() {
    let cfg = config("quarantine");
    let dir = cfg.state_dir.clone();
    let handle = Server::spawn(cfg).expect("spawn");
    // A 1-cycle deadline can never complete: both attempts wedge, the
    // cells poison, and each writes a chaos reproducer.
    let body = r#"{"iterations": [6, 9], "deadline_cycles": 1, "seed": 5}"#;
    let first = request(handle.addr(), "POST", "/sweep", body);
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    let lines: Vec<&str> = body_of(&first).lines().collect();
    assert_eq!(lines.len(), 3, "2 cells + summary:\n{first}");
    for line in &lines[..2] {
        assert!(line.contains("\"status\":\"quarantined\""), "{line}");
        assert!(line.contains("\"attempts\":2"), "two strikes before poison: {line}");
        assert!(line.contains("\"cached\":false"), "{line}");
    }
    assert!(lines[2].contains("\"quarantined\":2"), "{}", lines[2]);
    let quarantine = dir.join("quarantine");
    let reproducers: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(reproducers.len(), 2, "one reproducer per poisoned cell");
    for entry in &reproducers {
        let doc = std::fs::read_to_string(entry.path()).unwrap();
        assert!(doc.starts_with("{\n  \"chaos_case\": 1,"), "{doc}");
    }

    // The circuit breaker: resubmitting the same grid must not re-run
    // the poisoned cells — they come back as cached records, and the
    // stats count the skips.
    let second = request(handle.addr(), "POST", "/sweep", body);
    let lines2: Vec<&str> = body_of(&second).lines().collect();
    assert!(lines2[..2].iter().all(|l| l.contains("\"cached\":true")), "{second}");
    assert!(lines2[2].contains("\"computed\":0"), "{}", lines2[2]);
    let stats = body_of(&request(handle.addr(), "GET", "/stats", "")).to_string();
    assert_eq!(stat_u64(&stats, "poison_skips"), 2, "{stats}");
    assert_eq!(stat_u64(&stats, "poisoned"), 2, "{stats}");

    // The breaker holds across a restart: the journal replays the
    // poisoned records into the fresh cache.
    let summary = handle.stop();
    assert_eq!(summary.cells_quarantined, 2);
    let respawn_cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let handle = Server::spawn(respawn_cfg).expect("respawn");
    let third = request(handle.addr(), "POST", "/sweep", body);
    assert!(body_of(&third).lines().last().unwrap().contains("\"computed\":0"), "{third}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_inputs_get_clean_errors_and_the_server_stays_up() {
    let cfg = config("hostile");
    let dir = cfg.state_dir.clone();
    let handle = Server::spawn(cfg).expect("spawn");
    let addr = handle.addr();

    // Raw non-HTTP garbage.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"garbage that is not http\r\n\r\n").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");

    // A client that opens a connection and hangs up without a request.
    drop(TcpStream::connect(addr).unwrap());

    // A valid head with a lying Content-Length larger than the cap.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");

    // After all of that, the server still serves.
    let ok = request(addr, "GET", "/healthz", "");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    let sweep = request(addr, "POST", "/sweep", r#"{"iterations": [5]}"#);
    assert!(sweep.starts_with("HTTP/1.1 200"), "{sweep}");
    assert!(body_of(&sweep).lines().last().unwrap().contains("\"cells\":1"), "{sweep}");

    let summary = handle.stop();
    assert!(summary.drained_clean);
    let _ = std::fs::remove_dir_all(&dir);
}
