//! The service workloads, `serve_cold` and `serve_warm`: closed-loop
//! clients against an in-process `datasync_serve::Server`, and a replay
//! of one request's stages through the same public functions.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use datasync_core::par::{default_threads, par_map, par_map_threads};
use datasync_serve::{hash, json, run_cell, CellSpec, RunStore, ServeConfig, Server, ServerHandle};
use datasync_serve::{CellRecord, SweepSpec};

use crate::gen::{self, stream, Size, BODY_CELLS, CLIENTS};
use crate::harness::{self, repeat_setup, Samples};
use crate::report::{RunReport, Values};
use crate::sim_bench::{self, Counters};
use crate::stats::{median, ratio};
use crate::trace::{self, Span, Summary, Tracer, NONE};

/// `op_ms_tail` is p90 on `serve_cold` (a few hundred requests a run)
/// and p99 on `serve_warm` (about two thousand).
const COLD_TAIL: u32 = 90;
const WARM_TAIL: u32 = 99;

/// Consecutive requests of one client that make a throughput batch,
/// about a second's worth.
const COLD_BATCH: usize = 8;
const WARM_BATCH: usize = 64;

/// The first requests of each `serve_cold` client are the counted set:
/// their makespans and bytes are summed, so the sums repeat exactly
/// however many requests the seconds allow.
const COUNTED: usize = 8;

/// Request bodies the stage replay runs.
const REPLAYED: usize = 4;

/// `server.rs` schedules cells in chunks of this many; the replay walks
/// the same chunks.
const CHUNK_CELLS: usize = 64;

/// A scratch directory under `benchmark/out`, removed on drop, so a
/// failed run leaves nothing behind either.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "state-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where traces, result files and scratch state go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A server over a scratch state directory; stopped and removed on drop.
struct Service {
    handle: Option<ServerHandle>,
    dir: ScratchDir,
}

impl Service {
    fn start(dir: ScratchDir) -> Result<Self, String> {
        let mut service = Service { handle: None, dir };
        service.spawn()?;
        Ok(service)
    }

    fn spawn(&mut self) -> Result<(), String> {
        self.handle = Some(Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: self.dir.path().to_path_buf(),
            ..ServeConfig::default()
        })?);
        Ok(())
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server runs").addr()
    }

    /// Drains the server; the state directory stays.
    fn halt(&mut self) -> Result<(), String> {
        match self.handle.take().map(ServerHandle::stop) {
            Some(summary) if !summary.drained_clean => {
                Err("the server did not drain cleanly".into())
            }
            _ => Ok(()),
        }
    }

    /// Stops the server and starts a new one over the same state
    /// directory, which then knows the cells only from the journal.
    fn restart(mut self) -> Result<Self, String> {
        self.halt()?;
        self.spawn()?;
        Ok(self)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// When each phase of one request ended, seen from the client.
struct Stamps {
    start: Instant,
    connected: Instant,
    sent: Instant,
    first_line: Instant,
    done: Instant,
}

/// One request on one connection; the response (head and body) lands in
/// `response`.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    response: &mut Vec<u8>,
) -> std::io::Result<Stamps> {
    response.clear();
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = Instant::now();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let sent = Instant::now();
    let mut first_line = None;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        response.extend_from_slice(&chunk[..n]);
        if first_line.is_none() && body_of(response).is_some_and(|b| b.contains(&b'\n')) {
            first_line = Some(Instant::now());
        }
    }
    let done = Instant::now();
    Ok(Stamps { start, connected, sent, first_line: first_line.unwrap_or(done), done })
}

fn body_of(response: &[u8]) -> Option<&[u8]> {
    response.windows(4).position(|w| w == b"\r\n\r\n").map(|at| &response[at + 4..])
}

/// What a `/sweep` response said.
#[derive(Debug, Clone, Default)]
struct Reply {
    computed: u64,
    hash: String,
    elapsed_us: u64,
    /// Sum of the cells' makespans.
    makespan: u64,
    /// Bytes of the cell lines (the summary line carries a time, so its
    /// length is not a count that repeats).
    bytes: usize,
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())]
        .parse()
        .ok()
}

/// Checks a `/sweep` response: 200, one line per cell and a summary, no
/// cell `violated`, `quarantined`, deadlocked or timed out. The cell
/// lines are scanned, not parsed: the client shares two cores with the
/// server it measures.
fn read_reply(response: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
    let status = text.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("answered `{status}`"));
    }
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let mut lines: Vec<&str> = body.lines().collect();
    let summary = lines.pop().ok_or("empty response body")?;
    if lines.len() != BODY_CELLS {
        return Err(format!("{} cell lines for {BODY_CELLS} cells", lines.len()));
    }
    let (mut makespan, mut bytes) = (0, 0);
    for line in lines {
        bytes += line.len() + 1;
        let ok = line.contains("\"status\":\"ok\"") || line.contains("\"status\":\"recovered\"");
        if !ok {
            return Err(format!("a cell did not complete: {line}"));
        }
        makespan += field_u64(line, "\"makespan\":").ok_or("cell line without a makespan")?;
    }
    let doc = json::parse(summary)?;
    let s = doc.get("summary").ok_or("last line is not a summary")?;
    let num = |key: &str| s.get(key).and_then(json::Json::as_u64).ok_or(format!("no `{key}`"));
    if num("cells")? != BODY_CELLS as u64 || num("quarantined")? != 0 {
        return Err(format!("summary reports a short or quarantined sweep: {summary}"));
    }
    if num("computed")? + num("cached")? != BODY_CELLS as u64 {
        return Err(format!("computed + cached is not the cell count: {summary}"));
    }
    Ok(Reply {
        computed: num("computed")?,
        hash: s
            .get("aggregate_hash")
            .and_then(json::Json::as_str)
            .unwrap_or_default()
            .to_string(),
        elapsed_us: num("elapsed_us")?,
        makespan,
        bytes,
    })
}

/// What a request must answer: every cell computed, or none and the
/// aggregate hash of the cold run.
#[derive(Clone)]
enum Expect {
    AllComputed,
    AllCached(String),
}

impl Expect {
    fn check(&self, reply: &Reply) -> Result<(), String> {
        match self {
            Expect::AllComputed if reply.computed == BODY_CELLS as u64 => Ok(()),
            Expect::AllComputed => Err(format!("{} of {BODY_CELLS} computed", reply.computed)),
            Expect::AllCached(_) if reply.computed != 0 => {
                Err(format!("a cached sweep recomputed {} cells", reply.computed))
            }
            Expect::AllCached(hash) if *hash != reply.hash => {
                Err(format!("aggregate hash {} is not the cold run's {hash}", reply.hash))
            }
            Expect::AllCached(_) => Ok(()),
        }
    }
}

/// How long a client keeps sending.
#[derive(Clone, Copy)]
enum Until {
    Requests(usize),
    Seconds(f64),
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOut {
    samples: Samples,
    ops: Vec<Result<(), String>>,
    replies: Vec<Reply>,
    first_line_ms: Vec<f64>,
    spans: Vec<Span>,
}

/// One closed-loop client: the next request goes out when the previous
/// one has been read to its last byte and checked.
fn client(
    addr: SocketAddr,
    until: Until,
    batch: usize,
    origin: Option<Instant>,
    mut next: impl FnMut(usize) -> (String, Expect),
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut tr = Tracer::new(origin.is_some(), origin.unwrap_or_else(Instant::now));
    let mut response = Vec::new();
    let started = Instant::now();
    let mut batch_started = started;
    for k in 0.. {
        let more = match until {
            Until::Requests(n) => k < n,
            Until::Seconds(s) => k == 0 || started.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        let (body, expect) = next(k);
        let outcome = exchange(addr, "POST", "/sweep", &body, &mut response)
            .map_err(|e| format!("request failed: {e}"))
            .and_then(|stamps| {
                let reply = read_reply(&response)?;
                expect.check(&reply)?;
                Ok((stamps, reply))
            });
        let checked = Instant::now();
        match outcome {
            Ok((st, reply)) => {
                out.samples.op_ms.push((st.done - st.start).as_secs_f64() * 1e3);
                out.first_line_ms.push((st.first_line - st.start).as_secs_f64() * 1e3);
                out.replies.push(reply);
                out.ops.push(Ok(()));
                let op = k as u32;
                let root = tr.record("request", op, NONE, st.start, checked);
                tr.record("client.connect", op, root, st.start, st.connected);
                tr.record("client.send", op, root, st.connected, st.sent);
                tr.record("client.first_line", op, root, st.sent, st.first_line);
                tr.record("client.read", op, root, st.first_line, st.done);
                tr.record("client.check", op, root, st.done, checked);
            }
            Err(why) => out.ops.push(Err(why)),
        }
        if (k + 1) % batch == 0 {
            let secs = batch_started.elapsed().as_secs_f64();
            out.samples.batch_rates.push((batch * BODY_CELLS) as f64 / secs);
            batch_started = Instant::now();
        }
    }
    if out.samples.batch_rates.is_empty() {
        let cells = out.ops.len() * BODY_CELLS;
        out.samples.batch_rates.push(cells as f64 / started.elapsed().as_secs_f64());
    }
    out.spans = tr.spans;
    out
}

/// Runs [`CLIENTS`] clients side by side; `next(client, k)` is client
/// `client`'s `k`-th request.
fn clients(
    addr: SocketAddr,
    until: Until,
    batch: usize,
    origin: Option<Instant>,
    next: &(impl Fn(usize, usize) -> (String, Expect) + Sync),
) -> Vec<ClientOut> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(addr, until, batch, origin, |k| next(c, k))))
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread")).collect()
    })
}

/// Folds the clients' ops into the report.
fn count_ops(report: &mut RunReport, outs: &[ClientOut]) {
    for op in outs.iter().flat_map(|o| o.ops.iter()) {
        report.op(op.clone());
    }
}

/// Why the first failed request failed, if any did.
fn first_failure(outs: &[ClientOut]) -> Option<String> {
    outs.iter().flat_map(|o| o.ops.iter()).find_map(|op| op.clone().err())
}

fn samples_of(outs: &[ClientOut]) -> Vec<Samples> {
    outs.iter().map(|o| o.samples.clone()).collect()
}

fn get_stats(addr: SocketAddr) -> Result<json::Json, String> {
    let mut response = Vec::new();
    exchange(addr, "GET", "/stats", "", &mut response).map_err(|e| format!("/stats: {e}"))?;
    let body = body_of(&response).ok_or("/stats: no body")?;
    json::parse(std::str::from_utf8(body).map_err(|_| "/stats: not UTF-8")?.trim())
}

/// The replay of `handle_sweep`'s stages on one body against `store`,
/// a span around each stage. Returns the aggregate hash, which must be
/// the server's for the same body.
fn replay_sweep(
    body: &str,
    store: &mut RunStore,
    tr: &mut Tracer,
    op: u32,
) -> Result<String, String> {
    let root = tr.begin("sweep", op);
    let span = tr.begin("serve.parse", op);
    let sweep = json::parse(body).and_then(|doc| SweepSpec::from_json(&doc))?;
    tr.end(span);
    let span = tr.begin("serve.expand", op);
    let cells = if sweep.cell_count() <= ServeConfig::default().max_cells {
        sweep.expand()
    } else {
        return Err("the body is over the per-request cap".into());
    };
    tr.end(span);
    let mut aggregate = hash::fnv1a_seed();
    for chunk in cells.chunks(CHUNK_CELLS) {
        let span = tr.begin("serve.hash", op);
        let hashes: Vec<String> = chunk.iter().map(CellSpec::content_hash).collect();
        tr.end(span);
        let span = tr.begin("serve.store_get", op);
        let mut lines: Vec<Option<(CellRecord, bool)>> = vec![None; chunk.len()];
        let mut misses: Vec<(usize, CellSpec)> = Vec::new();
        for (i, (spec, hash)) in chunk.iter().zip(&hashes).enumerate() {
            match store.get(hash) {
                Some(record) => lines[i] = Some((record.clone(), true)),
                None => misses.push((i, spec.clone())),
            }
        }
        tr.end(span);
        let span = tr.begin("serve.compute", op);
        let runs = par_map(misses, |(i, spec)| (i, run_cell(&spec)));
        tr.end(span);
        let span = tr.begin("serve.journal", op);
        for (i, run) in runs {
            store.insert(run.record.clone()).map_err(|e| format!("journal append: {e}"))?;
            lines[i] = Some((run.record, false));
        }
        tr.end(span);
        let span = tr.begin("serve.render", op);
        for (record, was_cached) in lines.iter().flatten() {
            let rec_json = record.to_json();
            aggregate = hash::fold(hash::fold(aggregate, rec_json.as_bytes()), b"\n");
            std::hint::black_box(format!("{{\"cell\":{rec_json},\"cached\":{was_cached}}}\n"));
        }
        tr.end(span);
    }
    tr.end(root);
    Ok(format!("{aggregate:016x}"))
}

/// Everything the traced run measures beside the clients: the stage
/// replay (checked against the server's own answers), the layers under
/// one body's cells, journal replay, and `/stats`.
fn per_layer(
    report: &mut RunReport,
    service: &Service,
    sample: &[(String, String)],
    prefilled: bool,
) -> Result<Vec<Span>, String> {
    // `/stats` first: what follows sends requests of its own.
    let stats = get_stats(service.addr())?;
    let journal = service.dir.path().join("journal.log");
    // Journal replay, on a copy so the live server's file is left alone.
    let copy = ScratchDir::new("replay")?;
    std::fs::copy(&journal, copy.path().join("journal.log")).map_err(|e| format!("copy: {e}"))?;
    let t = Instant::now();
    let mut store = RunStore::open(copy.path()).map_err(|e| format!("replay: {e}"))?;
    let replay_s = t.elapsed().as_secs_f64();
    let replayed = store.load_report().replayed;
    report.values.set("serve.replay_ms", replay_s * 1e3, 1);
    report
        .values
        .set("serve.replay_records_per_s", ratio(replayed as f64, replay_s), replayed);

    // The stages of one request. A cold sweep must miss, so it replays
    // against an empty store; a warm one against the replayed journal.
    let empty = ScratchDir::new("stages")?;
    if !prefilled {
        store = RunStore::open(empty.path()).map_err(|e| format!("scratch store: {e}"))?;
    }
    let mut tr = Tracer::new(true, Instant::now());
    for (op, (body, server_hash)) in sample.iter().enumerate() {
        let replayed_hash = replay_sweep(body, &mut store, &mut tr, op as u32)?;
        if replayed_hash != *server_hash {
            report.check(Err(format!(
                "the stage replay folds to {replayed_hash}, the server streamed {server_hash}: \
                 the per-stage numbers no longer describe the server's bytes"
            )));
        }
    }
    drop(store);
    let journal_of =
        |dir: &ScratchDir| std::fs::metadata(dir.path().join("journal.log")).map_or(0, |m| m.len());
    let journal_bytes = if prefilled { journal_of(&copy) } else { journal_of(&empty) };
    report.values.set("serve.journal_bytes", journal_bytes as f64, 1);
    for (name, span, per) in [
        ("serve.parse_us", "serve.parse", 1e3),
        ("serve.expand_us", "serve.expand", 1e3),
        ("serve.hash_us", "serve.hash", 1e3),
        ("serve.store_get_us", "serve.store_get", 1e3),
        ("serve.compute_ms", "serve.compute", 1e6),
        ("serve.journal_us", "serve.journal", 1e3),
        ("serve.render_us", "serve.render", 1e3),
    ] {
        let mut per_request = trace::per_op(&tr.spans, span);
        report.values.set(name, median(&mut per_request) / per, per_request.len());
    }

    // The layers under the first sampled body's cells.
    let first = sample.first().ok_or("no request completed to sample")?;
    let doc = json::parse(&first.0)?;
    let cells = SweepSpec::from_json(&doc)?.expand();
    let mut counters = Counters::default();
    let mut staged = Tracer::new(true, Instant::now());
    for (i, spec) in cells.iter().enumerate() {
        let cell =
            sim_bench::grid_op(spec, datasync_sim::StepMode::FastForward, &mut staged, i as u32);
        match cell {
            Ok(g) => counters.add(&g.out, &g.workload),
            Err(why) => report.check(Err(format!("staged cell {i}: {why}"))),
        }
    }
    let mut layers = Summary::default();
    layers.add(&staged.spans);
    sim_bench::emit_stages(&mut report.values, &layers);
    counters.emit(&mut report.values);
    report.values.set(
        "sim.cycles_per_host_s",
        ratio(counters.makespan as f64, layers.total("sim.run") / 1e9),
        cells.len(),
    );
    let every_tenth: Vec<&CellSpec> = cells.iter().step_by(10).collect();
    let ff_speedup = sim_bench::check_sample(&every_tenth, report);
    report.values.set("sim.ff_speedup", ff_speedup, every_tenth.len());

    // One request's miss batch, serial against parallel.
    if default_threads() > 1 && !prefilled {
        let t = Instant::now();
        std::hint::black_box(par_map_threads(1, cells.clone(), |c| run_cell(&c)));
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(par_map(cells.clone(), |c| run_cell(&c)));
        report
            .values
            .set("core.par_speedup", ratio(serial, t.elapsed().as_secs_f64()), 1);
    }

    let stat = |key: &str| stats.get(key).and_then(json::Json::as_u64).unwrap_or(0) as f64;
    let v = &mut report.values;
    v.set("serve.requests", stat("requests"), 1);
    v.set("serve.cells_computed", stat("cells_computed"), 1);
    v.set("serve.cells_cached", stat("cells_cached"), 1);
    v.set(
        "serve.hit_rate",
        ratio(stat("cells_cached"), stat("cells_cached") + stat("cells_computed")),
        1,
    );
    v.set("serve.shed", stat("shed"), 1);
    v.set("serve.bad_requests", stat("bad_requests"), 1);
    v.set("serve.server_p99_us", stat("p99_latency_us"), 1);
    let mut spans = tr.spans;
    spans.extend(staged.spans);
    Ok(spans)
}

/// Client-side per-layer numbers of the traced requests.
fn client_layers(v: &mut Values, outs: &[ClientOut], counted_bytes: usize) {
    let replies = || outs.iter().flat_map(|o| o.replies.iter());
    let n = replies().count();
    let mut server_ms: Vec<f64> = replies().map(|r| r.elapsed_us as f64 / 1e3).collect();
    let mut wait_ms: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.samples.op_ms.iter().zip(&o.replies))
        .map(|(ms, r)| ms - r.elapsed_us as f64 / 1e3)
        .collect();
    let mut first_ms: Vec<f64> =
        outs.iter().flat_map(|o| o.first_line_ms.iter().copied()).collect();
    v.set("serve.server_elapsed_ms_p50", median(&mut server_ms), n);
    v.set("serve.accept_wait_ms_p50", median(&mut wait_ms), n);
    v.set("serve.first_line_ms_p50", median(&mut first_ms), n);
    v.set("serve.response_bytes", counted_bytes as f64, 1);
}

/// The timed region of a serve workload, untraced or (in the traced
/// run) a shorter untraced stretch followed by a traced one.
struct Timed {
    /// The clients whose samples are reported.
    outs: Vec<ClientOut>,
    /// `1 - traced / untraced` throughput; 0 in an untraced run.
    overhead: f64,
}

fn timed_region(
    report: &mut RunReport,
    addr: SocketAddr,
    seconds: f64,
    traced: bool,
    batch: usize,
    next: &(impl Fn(usize, usize, usize) -> (String, Expect) + Sync),
) -> Timed {
    if !traced {
        let outs = clients(addr, Until::Seconds(seconds), batch, None, &|c, k| next(0, c, k));
        count_ops(report, &outs);
        return Timed { outs, overhead: 0.0 };
    }
    let plain = clients(addr, Until::Seconds(seconds * 0.3), batch, None, &|c, k| next(0, c, k));
    count_ops(report, &plain);
    let origin = Some(Instant::now());
    let outs = clients(addr, Until::Seconds(seconds * 0.5), batch, origin, &|c, k| next(1, c, k));
    count_ops(report, &outs);
    let overhead = 1.0
        - ratio(
            harness::cells_per_s(&samples_of(&outs)),
            harness::cells_per_s(&samples_of(&plain)),
        );
    Timed { outs, overhead }
}

/// What the traced run adds once the clients are done.
fn finish_traced(
    report: &mut RunReport,
    service: &Service,
    timed: &Timed,
    sample: &[(String, String)],
    prefilled: bool,
    counted_bytes: usize,
) -> Vec<Vec<Span>> {
    let mut threads: Vec<Vec<Span>> = timed.outs.iter().map(|o| o.spans.clone()).collect();
    let mut sum = Summary::default();
    for spans in &threads {
        sum.add(spans);
    }
    match per_layer(report, service, sample, prefilled) {
        Ok(spans) => threads.push(spans),
        Err(why) => report.check(Err(format!("per-layer pass: {why}"))),
    }
    let v = &mut report.values;
    client_layers(v, &timed.outs, counted_bytes);
    let batches = timed.outs.iter().map(|o| o.samples.batch_rates.len()).sum();
    v.set("trace.overhead_share", timed.overhead, batches);
    v.set("trace.coverage", median(&mut sum.coverage.clone()), sum.coverage.len());
    v.set("trace.spans", threads.iter().map(Vec::len).sum::<usize>() as f64, 1);
    threads
}

/// Shed and malformed requests must both be zero, and the server must
/// drain cleanly.
fn finish_service(report: &mut RunReport, service: Service) {
    let zero = get_stats(service.addr()).and_then(|stats| {
        for key in ["shed", "bad_requests"] {
            let n = stats.get(key).and_then(json::Json::as_u64);
            if n != Some(0) {
                return Err(format!("/stats reports {key} = {n:?}"));
            }
        }
        Ok(())
    });
    report.check(zero);
    let mut service = service;
    report.check(service.halt());
}

/// `serve_cold`: every request carries a fresh seed, so every cell
/// misses the run cache and is compiled, simulated, journaled and
/// streamed.
pub fn run_cold(seed: u64, seconds: f64, traced: bool, size: &Size) -> (RunReport, Vec<Vec<Span>>) {
    let mut report = RunReport::default();
    let fresh = |stream: u64, client: usize, k: usize| {
        gen::sweep_body(gen::derive(seed, stream, (k * CLIENTS + client) as u64))
    };
    let set_up = repeat_setup(traced, || {
        let service = Service::start(ScratchDir::new("cold")?)?;
        let warm_up = Until::Requests(size.warmup_requests);
        let outs = clients(service.addr(), warm_up, usize::MAX, None, &|c, k| {
            (fresh(stream::COLD_WARMUP, c, k), Expect::AllComputed)
        });
        match first_failure(&outs) {
            Some(why) => Err(format!("warm-up request: {why}")),
            None => Ok(service),
        }
    });
    let (service, setup_secs) = match set_up {
        Ok(pair) => pair,
        Err(why) => {
            report.check(Err(format!("set-up: {why}")));
            return (report, Vec::new());
        }
    };
    // The traced run's two stretches draw from disjoint seed ranges.
    let next = |phase: usize, c: usize, k: usize| {
        (fresh(stream::COLD_TIMED, c, k + phase * 1_000_000), Expect::AllComputed)
    };
    let timed = timed_region(&mut report, service.addr(), seconds, traced, COLD_BATCH, &next);

    // The counted set: the first requests of each client.
    let phase = usize::from(traced);
    let (mut makespan, mut bytes) = (0, 0);
    let mut sample = Vec::new();
    for (c, out) in timed.outs.iter().enumerate() {
        for (k, reply) in out.replies.iter().take(COUNTED).enumerate() {
            makespan += reply.makespan;
            bytes += reply.bytes;
            if sample.len() < REPLAYED && out.ops.iter().all(Result::is_ok) {
                sample.push((next(phase, c, k).0, reply.hash.clone()));
            }
        }
    }
    if timed.outs.iter().any(|o| o.replies.len() < COUNTED) {
        report.notes.push(format!(
            "a client finished fewer than {COUNTED} requests: the counted sums are short"
        ));
    }
    let spans = if traced {
        finish_traced(&mut report, &service, &timed, &sample, false, bytes)
    } else {
        harness::end_to_end(&mut report, setup_secs, &samples_of(&timed.outs), COLD_TAIL, makespan);
        Vec::new()
    };
    // The sampled bodies again: now cached, they must fold to the hash
    // the cold run streamed.
    let mut response = Vec::new();
    for (body, cold_hash) in &sample {
        let again = exchange(service.addr(), "POST", "/sweep", body, &mut response)
            .map_err(|e| format!("resubmission failed: {e}"))
            .and_then(|_| read_reply(&response))
            .and_then(|reply| Expect::AllCached(cold_hash.clone()).check(&reply));
        report.check(again.map_err(|why| format!("resubmitted cold body: {why}")));
    }
    finish_service(&mut report, service);
    (report, spans)
}

/// The warm bodies with the aggregate hash and makespan sum each had
/// when it was first computed.
struct Prefilled {
    service: Service,
    bodies: Vec<(String, String)>,
    makespan: u64,
    bytes: usize,
}

/// `serve_warm` set-up: post the bodies cold, stop the server, start a
/// second one over the same state directory (journal replay), and send
/// every body once more.
fn prefill(seed: u64, size: &Size) -> Result<Prefilled, String> {
    let bodies: Vec<String> = (0..size.warm_bodies)
        .map(|i| gen::sweep_body(gen::derive(seed, stream::WARM_BODIES, i as u64)))
        .collect();
    let first = Service::start(ScratchDir::new("warm")?)?;
    let per_client = size.warm_bodies / CLIENTS;
    let body_at = |c: usize, k: usize| k * CLIENTS + c;
    let cold = clients(first.addr(), Until::Requests(per_client), usize::MAX, None, &|c, k| {
        (bodies[body_at(c, k)].clone(), Expect::AllComputed)
    });
    if let Some(why) = first_failure(&cold) {
        return Err(format!("prefill request: {why}"));
    }
    let mut filled: Vec<(String, String)> =
        bodies.into_iter().map(|b| (b, String::new())).collect();
    let (mut makespan, mut bytes) = (0, 0);
    for (c, out) in cold.iter().enumerate() {
        for (k, reply) in out.replies.iter().enumerate() {
            filled[body_at(c, k)].1 = reply.hash.clone();
            makespan += reply.makespan;
            bytes += reply.bytes;
        }
    }
    // Resume after a stop: the second server knows the cells only from
    // the journal.
    let service = first.restart()?;
    let warm = clients(service.addr(), Until::Requests(per_client), usize::MAX, None, &|c, k| {
        let (body, hash) = &filled[body_at(c, k)];
        (body.clone(), Expect::AllCached(hash.clone()))
    });
    match first_failure(&warm) {
        Some(why) => Err(format!("resumed request: {why}")),
        None => Ok(Prefilled { service, bodies: filled, makespan, bytes }),
    }
}

/// `serve_warm`: every request repeats a body the journal already
/// holds, so nothing is simulated and the store and stream layers read
/// where `serve_cold` makes them write.
pub fn run_warm(seed: u64, seconds: f64, traced: bool, size: &Size) -> (RunReport, Vec<Vec<Span>>) {
    let mut report = RunReport::default();
    let set_up = repeat_setup(traced, || prefill(seed, size));
    let (state, setup_secs) = match set_up {
        Ok(pair) => pair,
        Err(why) => {
            report.check(Err(format!("set-up: {why}")));
            return (report, Vec::new());
        }
    };
    let Prefilled { service, bodies, makespan, bytes } = state;
    report.notes.push(format!(
        "the run store is an unbounded map: the working set ({} bodies, {} cells) always fits",
        bodies.len(),
        bodies.len() * BODY_CELLS
    ));
    let next = |_phase: usize, c: usize, k: usize| {
        let (body, hash) = &bodies[(k * CLIENTS + c) % bodies.len()];
        (body.clone(), Expect::AllCached(hash.clone()))
    };
    let timed = timed_region(&mut report, service.addr(), seconds, traced, WARM_BATCH, &next);
    let spans = if traced {
        let sample = &bodies[..REPLAYED.min(bodies.len())];
        finish_traced(&mut report, &service, &timed, sample, true, bytes)
    } else {
        harness::end_to_end(&mut report, setup_secs, &samples_of(&timed.outs), WARM_TAIL, makespan);
        Vec::new()
    };
    finish_service(&mut report, service);
    (report, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_line(status: &str, makespan: u64) -> String {
        format!("{{\"cell\":{{\"schema_version\":1,\"hash\":\"00\",\"status\":\"{status}\",\"makespan\":{makespan},\"attempts\":1}},\"cached\":false}}\n")
    }

    fn response(cells: &[String], computed: u64, cached: u64, quarantined: u64) -> Vec<u8> {
        let summary = format!(
            "{{\"summary\":{{\"schema_version\":1,\"cells\":{},\"computed\":{computed},\
             \"cached\":{cached},\"quarantined\":{quarantined},\
             \"aggregate_hash\":\"00000000deadbeef\",\"elapsed_us\":900}}}}\n",
            cells.len()
        );
        format!("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}{summary}", cells.concat())
            .into_bytes()
    }

    #[test]
    fn the_reply_checker_accepts_a_clean_sweep_and_rejects_a_tampered_one() {
        let clean: Vec<String> = (0..BODY_CELLS).map(|i| cell_line("ok", 100 + i as u64)).collect();
        let reply = read_reply(&response(&clean, 120, 0, 0)).expect("clean sweep");
        assert_eq!(reply.makespan, (0..120).map(|i| 100 + i).sum::<u64>());
        assert_eq!((reply.computed, reply.elapsed_us), (120, 900));
        assert!(Expect::AllComputed.check(&reply).is_ok());
        assert!(Expect::AllCached("00000000deadbeef".into()).check(&reply).is_err());

        let mut poisoned = clean.clone();
        poisoned[7] = cell_line("quarantined", 0);
        assert!(read_reply(&response(&poisoned, 120, 0, 1)).is_err());
        let mut violated = clean.clone();
        violated[3] = cell_line("violated", 0);
        assert!(read_reply(&response(&violated, 120, 0, 0)).is_err());
        assert!(read_reply(&response(&clean[..119], 119, 0, 0)).is_err(), "a line short");
        assert!(read_reply(b"HTTP/1.1 429 Too Many Requests\r\n\r\n{}").is_err());

        let cached = read_reply(&response(&clean, 0, 120, 0)).expect("cached sweep");
        assert!(Expect::AllCached("00000000deadbeef".into()).check(&cached).is_ok());
        assert!(Expect::AllCached("0000000000000001".into()).check(&cached).is_err());
        assert!(Expect::AllComputed.check(&cached).is_err());
    }

    #[test]
    fn the_stage_replay_folds_to_the_hash_the_server_streams() {
        let service = Service::start(ScratchDir::new("test-replay").unwrap()).expect("server");
        let body = gen::sweep_body(7);
        let mut response = Vec::new();
        exchange(service.addr(), "POST", "/sweep", &body, &mut response).expect("request");
        let reply = read_reply(&response).expect("reply");
        let scratch = ScratchDir::new("test-stages").unwrap();
        let mut store = RunStore::open(scratch.path()).unwrap();
        let mut tr = Tracer::new(true, Instant::now());
        assert_eq!(replay_sweep(&body, &mut store, &mut tr, 0).unwrap(), reply.hash);
        // A second replay hits the scratch store and still folds the same.
        assert_eq!(replay_sweep(&body, &mut store, &mut tr, 1).unwrap(), reply.hash);
        let dir = service.dir.path().to_path_buf();
        drop(service);
        assert!(!dir.exists(), "the state directory is removed with the service");
    }
}
