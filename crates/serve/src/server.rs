//! The sweep-as-a-service server: accept loop, routing, streaming.
//!
//! The accept loop blocks in `accept` on one `TcpListener`: an idle
//! server costs nothing and a request waits for no poll. Each accepted
//! connection gets a worker thread that reads exactly one request and
//! answers it — no async runtime, in line with the workspace's
//! thread-per-unit-of-work pattern (`core/par.rs` runs the cells
//! themselves). Routes:
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /healthz` | `{"ok":true}` liveness probe |
//! | `GET /stats` | counters, cache/journal state, admission level |
//! | `POST /sweep` | streamed NDJSON: one line per cell, then a summary |
//! | `POST /shutdown` | begins a graceful drain (as SIGTERM does) |
//!
//! A sweep body is a [`SweepSpec`] grid. Cells stream in deterministic
//! grid order; each line is `{"cell": <record>, "cached": bool}` and
//! the final line carries the sweep summary with an `aggregate_hash` —
//! FNV-1a folded over the serialized records in cell order, so two runs
//! of the same sweep (cached, resumed, or cold) can be compared for
//! byte identity with one string.
//!
//! Graceful drain: whoever requests one sets a flag and then opens a
//! loopback connection to the listener, which is what gets the accept
//! loop out of `accept` to see the flag. [`ServerHandle::stop`] and the
//! `POST /shutdown` handler do both themselves; a signal handler may
//! only store the flag, so with `watch_signals` a watcher thread sleeps
//! beside the loop and connects once SIGTERM/SIGINT has set it. The
//! loop looks at the flag after every `accept` and drops the connection
//! in its hand when it is set, unread and uncounted (the wake-up, or a
//! client that raced it and sees a closed socket, as it would a moment
//! later). Then in-flight requests run to completion (every completed
//! cell is already journaled before its line is streamed) and the server
//! returns its summary. A `kill -9` instead loses at most the journal
//! line being written — the store tolerates that as a truncated tail on
//! restart.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, Request};
use crate::json;
use crate::queue::Admission;
use crate::record::CellRecord;
use crate::runner::run_cells;
use crate::spec::SweepSpec;
use crate::store::RunStore;
use crate::{hash, signal};

/// Version stamp on `/stats` bodies and sweep summary lines.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Cells dispatched to the thread pool per scheduling chunk: small
/// enough that lines stream steadily and admission slots free up as
/// work completes, large enough to keep every core busy.
const CHUNK_CELLS: usize = 64;

/// Hard ceiling on the post-drain wait for in-flight connections.
const DRAIN_WAIT: Duration = Duration::from_secs(60);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8787` (`:0` picks a free port).
    pub addr: String,
    /// State directory (journal + quarantine reproducers).
    pub state_dir: PathBuf,
    /// Admission cap: cells in flight across all requests.
    pub queue_cap: usize,
    /// Hard cap on cells a single sweep may expand to (413 past it).
    pub max_cells: usize,
    /// Whether the accept loop also honors the process-global
    /// SIGTERM/SIGINT flag (the CLI's drain path). In-process servers —
    /// tests, the load-generator bench — leave this off so a signal
    /// test elsewhere in the process cannot drain them.
    pub watch_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".into(),
            state_dir: PathBuf::from(".datasync-serve"),
            queue_cap: 4096,
            max_cells: 4096,
            watch_signals: false,
        }
    }
}

/// Lifetime counters, all monotone (reported by `/stats` and folded
/// into the final [`ServeSummary`]).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    sweeps: AtomicU64,
    cells_computed: AtomicU64,
    cells_cached: AtomicU64,
    cells_quarantined: AtomicU64,
    poison_skips: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    latencies_us: Mutex<VecDeque<u64>>,
}

impl Counters {
    fn record_latency(&self, us: u64) {
        let mut ring = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= 4096 {
            ring.pop_front();
        }
        ring.push_back(us);
    }

    fn p99_us(&self) -> u64 {
        let ring = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if ring.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = ring.iter().copied().collect();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 99 / 100]
    }
}

/// What a server did over its lifetime (returned when the drain ends).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Requests answered (any route, errors included).
    pub requests: u64,
    /// Sweeps admitted.
    pub sweeps: u64,
    /// Cells computed fresh.
    pub cells_computed: u64,
    /// Cells served from the memo cache.
    pub cells_cached: u64,
    /// Cells newly poisoned.
    pub cells_quarantined: u64,
    /// Requests shed with 429.
    pub shed: u64,
    /// True when every in-flight connection finished inside the drain
    /// window.
    pub drained_clean: bool,
}

#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    store: Mutex<RunStore>,
    admission: Admission,
    counters: Counters,
    local_shutdown: AtomicBool,
    open_conns: AtomicUsize,
}

impl Shared {
    fn draining(&self) -> bool {
        self.local_shutdown.load(Ordering::SeqCst)
            || (self.config.watch_signals && signal::shutdown_requested())
    }

    /// Gets the accept loop out of `accept` so that it sees a drain
    /// flag set just before: one loopback connection, dropped unused. A
    /// listener on the wildcard address is reached through its family's
    /// loopback. Failure is ignored — nothing answers only once the
    /// listener is closed, and then the loop has already left.
    fn wake_accept(&self) {
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(target);
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle to a server running on a background thread (tests and the
/// load-generator bench; the CLI runs [`Server::run`] on its own
/// thread).
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's admission valve (a handle onto the shared counter).
    /// Load generators and tests hold slots through it to put the
    /// service under back-pressure deterministically, instead of racing
    /// a slow request against the requests meant to be shed.
    pub fn admission(&self) -> Admission {
        self.shared.admission.clone()
    }

    /// Requests a graceful drain and waits for the server to finish.
    pub fn stop(self) -> ServeSummary {
        self.shared.local_shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_accept();
        self.thread.join().unwrap_or(ServeSummary {
            requests: 0,
            sweeps: 0,
            cells_computed: 0,
            cells_cached: 0,
            cells_quarantined: 0,
            shed: 0,
            drained_clean: false,
        })
    }
}

impl Server {
    /// Opens the state directory (replaying the journal) and binds the
    /// listen socket.
    ///
    /// # Errors
    ///
    /// Reports store and bind failures human-readably.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let store = RunStore::open(&config.state_dir)
            .map_err(|e| format!("cannot open state dir '{}': {e}", config.state_dir.display()))?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind '{}': {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let admission = Admission::new(config.queue_cap);
        let shared = Arc::new(Shared {
            admission,
            store: Mutex::new(store),
            counters: Counters::default(),
            local_shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            config,
            addr,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// One line of boot telemetry for the operator: cache size and any
    /// journal damage found on replay.
    pub fn boot_report(&self) -> String {
        let store = self.shared.store.lock().unwrap_or_else(|e| e.into_inner());
        let load = store.load_report();
        let mut line = format!(
            "listening on {} — {} cached records ({} poisoned) replayed",
            self.shared.addr,
            store.len(),
            store.poisoned()
        );
        if load.corrupt_lines > 0 || load.integrity_failures > 0 {
            line.push_str(&format!(
                ", {} corrupt lines and {} integrity failures skipped",
                load.corrupt_lines, load.integrity_failures
            ));
        }
        if load.truncated_tail {
            line.push_str(", truncated tail tolerated");
        }
        line
    }

    /// Runs the accept loop until a drain is requested, drains, and
    /// returns the lifetime summary.
    pub fn run(self) -> ServeSummary {
        let Server { listener, shared } = self;
        // A signal handler can only store its flag; this thread is who
        // turns that store into a wake-up (and leaves quietly when the
        // drain comes from somewhere else).
        let watcher = shared.config.watch_signals.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                if signal::wait_for_shutdown(|| shared.local_shutdown.load(Ordering::SeqCst)) {
                    shared.wake_accept();
                }
            })
        });
        loop {
            let accepted = listener.accept();
            if shared.draining() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    shared.open_conns.fetch_add(1, Ordering::SeqCst);
                    let conn_shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        let _guard = ConnGuard(&conn_shared.open_conns);
                        handle_connection(&conn_shared, stream);
                    });
                }
                // Out of descriptors, or a peer that reset before it was
                // accepted: neither clears by asking again at once.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Drain: no new connections; let in-flight requests finish.
        drop(listener);
        if let Some(watcher) = watcher {
            let _ = watcher.join();
        }
        let deadline = Instant::now() + DRAIN_WAIT;
        while shared.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained_clean = shared.open_conns.load(Ordering::SeqCst) == 0;
        let c = &shared.counters;
        ServeSummary {
            requests: c.requests.load(Ordering::SeqCst),
            sweeps: c.sweeps.load(Ordering::SeqCst),
            cells_computed: c.cells_computed.load(Ordering::SeqCst),
            cells_cached: c.cells_cached.load(Ordering::SeqCst),
            cells_quarantined: c.cells_quarantined.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            drained_clean,
        }
    }

    /// Binds and runs on a background thread; the handle stops it.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] failures.
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, String> {
        let server = Server::bind(config)?;
        let shared = Arc::clone(&server.shared);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { shared, thread })
    }
}

/// Decrements the open-connection count when the worker exits, panic
/// included (a leaked count would make every future drain hang).
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
            http::respond_error(&mut stream, e.status(), &e.detail(), None);
            return;
        }
    };
    route(shared, &mut stream, &request);
}

fn route(shared: &Shared, stream: &mut TcpStream, request: &Request) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => http::respond(stream, 200, "application/json", "{\"ok\":true}\n"),
        ("GET", "/stats") => {
            let body = stats_json(shared);
            http::respond(stream, 200, "application/json", &body);
        }
        ("POST", "/shutdown") => {
            // Answer first, wake second: the caller always reads its 200.
            shared.local_shutdown.store(true, Ordering::SeqCst);
            http::respond(stream, 200, "application/json", "{\"ok\":true,\"draining\":true}\n");
            shared.wake_accept();
        }
        ("POST", "/sweep") => handle_sweep(shared, stream, &request.body),
        _ => http::respond_error(
            stream,
            404,
            &format!("no route for {} {}", request.method, request.path),
            None,
        ),
    }
}

fn stats_json(shared: &Shared) -> String {
    let (records, poisoned, load) = {
        let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        let load = store.load_report().clone();
        (store.len(), store.poisoned(), load)
    };
    let c = &shared.counters;
    format!(
        "{{\"schema_version\":{SERVE_SCHEMA_VERSION},\"cache_records\":{records},\
         \"poisoned\":{poisoned},\"in_flight\":{},\"queue_cap\":{},\
         \"max_cells_per_request\":{},\"requests\":{},\"sweeps\":{},\"cells_computed\":{},\
         \"cells_cached\":{},\"cells_quarantined\":{},\"poison_skips\":{},\"shed\":{},\
         \"bad_requests\":{},\"p99_latency_us\":{},\"journal\":{{\"replayed\":{},\
         \"corrupt_lines\":{},\"integrity_failures\":{},\"truncated_tail\":{}}}}}\n",
        shared.admission.in_flight(),
        shared.admission.cap(),
        shared.config.max_cells,
        c.requests.load(Ordering::SeqCst),
        c.sweeps.load(Ordering::SeqCst),
        c.cells_computed.load(Ordering::SeqCst),
        c.cells_cached.load(Ordering::SeqCst),
        c.cells_quarantined.load(Ordering::SeqCst),
        c.poison_skips.load(Ordering::SeqCst),
        c.shed.load(Ordering::SeqCst),
        c.bad_requests.load(Ordering::SeqCst),
        c.p99_us(),
        load.replayed,
        load.corrupt_lines,
        load.integrity_failures,
        load.truncated_tail,
    )
}

fn handle_sweep(shared: &Shared, stream: &mut TcpStream, body: &str) {
    let started = Instant::now();
    let sweep = match json::parse(body).and_then(|doc| SweepSpec::from_json(&doc)) {
        Ok(s) => s,
        Err(why) => {
            shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
            http::respond_error(stream, 400, &why, None);
            return;
        }
    };
    // Cap-check on the axis lengths alone (`cell_count` saturates on
    // overflow) — expansion only happens for grids already under the
    // cap, so a small body cross-multiplying into billions of cells
    // costs nothing before its 413.
    let cell_count = sweep.cell_count();
    if cell_count > shared.config.max_cells {
        shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
        http::respond_error(
            stream,
            413,
            &format!(
                "sweep expands to {cell_count} cells, per-request cap is {} — split the grid",
                shared.config.max_cells
            ),
            None,
        );
        return;
    }
    let cells = sweep.expand();
    let Some(mut ticket) = shared.admission.try_admit(cells.len()) else {
        shared.counters.shed.fetch_add(1, Ordering::SeqCst);
        http::respond_error(
            stream,
            429,
            &format!(
                "admission queue full ({} of {} cells in flight)",
                shared.admission.in_flight(),
                shared.admission.cap()
            ),
            Some(1),
        );
        return;
    };
    shared.counters.sweeps.fetch_add(1, Ordering::SeqCst);
    if http::start_ndjson(stream).is_err() {
        return;
    }
    let mut computed = 0u64;
    let mut cached = 0u64;
    let mut quarantined = 0u64;
    let mut aggregate = hash::fnv1a_seed();
    let mut client_gone = false;
    for chunk in cells.chunks(CHUNK_CELLS) {
        // Pass 1 (under the store lock): serve cache hits, collect misses.
        let mut lines: Vec<Option<(CellRecord, bool)>> = vec![None; chunk.len()];
        let (mut miss_slots, mut misses) = (Vec::new(), Vec::new());
        {
            let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            for (i, spec) in chunk.iter().enumerate() {
                match store.get(&spec.content_hash()) {
                    Some(rec) => {
                        if rec.is_poisoned() {
                            shared.counters.poison_skips.fetch_add(1, Ordering::SeqCst);
                        }
                        lines[i] = Some((rec.clone(), true));
                    }
                    None => {
                        miss_slots.push(i);
                        misses.push(spec.clone());
                    }
                }
            }
        }
        // Pass 2 (no lock): compute the misses across cores.
        let runs = run_cells(misses);
        // Pass 3 (under the lock): journal before streaming — a line a
        // client has seen is always durable.
        {
            let mut store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
            for (i, run) in miss_slots.into_iter().zip(runs) {
                if let Some(reproducer) = &run.reproducer {
                    let _ = store.write_reproducer(&run.record.hash, reproducer);
                }
                // A failed journal append (disk full?) skips the cache
                // insert inside `insert` itself; the result still
                // streams — memory never outruns disk.
                let _ = store.insert(run.record.clone());
                lines[i] = Some((run.record, false));
            }
        }
        // Pass 4: stream the chunk in cell order and free its slots.
        for entry in &lines {
            let Some((record, was_cached)) = entry else { continue };
            if *was_cached {
                cached += 1;
            } else {
                computed += 1;
            }
            if record.is_poisoned() {
                if !*was_cached {
                    shared.counters.cells_quarantined.fetch_add(1, Ordering::SeqCst);
                }
                quarantined += 1;
            }
            let rec_json = record.to_json();
            aggregate = hash::fold(aggregate, rec_json.as_bytes());
            aggregate = hash::fold(aggregate, b"\n");
            if !client_gone {
                let line = format!("{{\"cell\":{rec_json},\"cached\":{was_cached}}}\n");
                use std::io::Write as _;
                if stream.write_all(line.as_bytes()).is_err() {
                    // The client hung up mid-stream. Finish nothing more
                    // for it, but everything computed so far is journaled
                    // — a resubmission will be pure cache hits.
                    client_gone = true;
                }
            }
        }
        ticket.release(chunk.len());
        if client_gone {
            break;
        }
    }
    shared.counters.cells_computed.fetch_add(computed, Ordering::SeqCst);
    shared.counters.cells_cached.fetch_add(cached, Ordering::SeqCst);
    let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.counters.record_latency(elapsed_us);
    if !client_gone {
        use std::io::Write as _;
        let summary = format!(
            "{{\"summary\":{{\"schema_version\":{SERVE_SCHEMA_VERSION},\"cells\":{},\
             \"computed\":{computed},\"cached\":{cached},\"quarantined\":{quarantined},\
             \"aggregate_hash\":\"{:016x}\",\"elapsed_us\":{elapsed_us}}}}}\n",
            cells.len(),
            aggregate
        );
        let _ = stream.write_all(summary.as_bytes());
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "datasync-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn config(tag: &str) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: temp_dir(tag),
            ..ServeConfig::default()
        }
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }

    /// The aggregate hash on a sweep response's summary line.
    fn aggregate_hash(response: &str) -> String {
        let summary = json::parse(body_of(response).lines().last().expect("summary line"))
            .expect("summary line is JSON");
        let hash = summary.get("summary").and_then(|s| s.get("aggregate_hash"));
        hash.and_then(json::Json::as_str).expect("aggregate_hash").to_string()
    }

    #[test]
    fn healthz_stats_and_404_routes_answer() {
        let cfg = config("routes");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let ok = request(handle.addr(), "GET", "/healthz", "");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(body_of(&ok).contains("\"ok\":true"));
        let stats = request(handle.addr(), "GET", "/stats", "");
        assert!(body_of(&stats).contains("\"schema_version\":1"), "{stats}");
        assert!(body_of(&stats).contains("\"cache_records\":0"));
        let missing = request(handle.addr(), "GET", "/nope", "");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let summary = handle.stop();
        assert!(summary.drained_clean);
        assert_eq!(summary.requests, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_streams_cells_then_caches_them() {
        let cfg = config("sweep");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let body = r#"{"schemes": ["process", "instance"], "iterations": [6, 8], "seed": 3}"#;
        let first = request(handle.addr(), "POST", "/sweep", body);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let lines: Vec<&str> = body_of(&first).lines().collect();
        assert_eq!(lines.len(), 5, "4 cells + summary:\n{first}");
        assert!(lines[..4].iter().all(|l| l.contains("\"cached\":false")));
        let summary1 = lines[4];
        assert!(summary1.contains("\"computed\":4"), "{summary1}");
        assert!(summary1.contains("\"cached\":0"));
        // Resubmission: pure cache hits, byte-identical aggregate.
        let second = request(handle.addr(), "POST", "/sweep", body);
        let lines2: Vec<&str> = body_of(&second).lines().collect();
        assert!(lines2[..4].iter().all(|l| l.contains("\"cached\":true")));
        assert!(lines2[4].contains("\"computed\":0"), "{}", lines2[4]);
        assert!(lines2[4].contains("\"cached\":4"));
        assert_eq!(
            aggregate_hash(&first),
            aggregate_hash(&second),
            "cached results must be byte-identical"
        );
        let summary = handle.stop();
        assert_eq!(summary.cells_computed, 4);
        assert_eq!(summary.cells_cached, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_cells_survive_a_server_restart() {
        let cfg = config("restart");
        let dir = cfg.state_dir.clone();
        let body = r#"{"iterations": [5, 7, 9], "seed": 11}"#;
        let (first_hash, first_summary);
        {
            let handle = Server::spawn(cfg.clone()).expect("spawn");
            let resp = request(handle.addr(), "POST", "/sweep", body);
            first_hash = aggregate_hash(&resp);
            first_summary = handle.stop();
        }
        assert_eq!(first_summary.cells_computed, 3);
        // A new server process over the same state dir: zero recompute,
        // same aggregate bytes.
        let handle = Server::spawn(cfg).expect("respawn");
        let resp = request(handle.addr(), "POST", "/sweep", body);
        let last = body_of(&resp).lines().last().unwrap().to_string();
        assert!(last.contains("\"computed\":0"), "{last}");
        assert_eq!(aggregate_hash(&resp), first_hash, "{last}");
        let second_summary = handle.stop();
        assert_eq!(second_summary.cells_computed, 0);
        assert_eq!(second_summary.cells_cached, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_oversized_sweeps_are_rejected() {
        let cfg = ServeConfig { max_cells: 4, ..config("reject") };
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let garbage = request(handle.addr(), "POST", "/sweep", "not json");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        let unknown = request(handle.addr(), "POST", "/sweep", r#"{"speed": 9}"#);
        assert!(unknown.starts_with("HTTP/1.1 400"), "{unknown}");
        assert!(body_of(&unknown).contains("speed"));
        // The parser reads fractions now; the sweep reader still refuses
        // one where the wire format wants an integer.
        let fractional = request(handle.addr(), "POST", "/sweep", r#"{"seed": 1.5}"#);
        assert!(fractional.starts_with("HTTP/1.1 400"), "{fractional}");
        assert!(body_of(&fractional).contains("seed"), "{fractional}");
        let big = request(
            handle.addr(),
            "POST",
            "/sweep",
            r#"{"iterations": [1, 2, 3, 4, 5], "seed": 1}"#,
        );
        assert!(big.starts_with("HTTP/1.1 413"), "{big}");
        // A small body whose axes cross-multiply into millions of cells
        // is shed by the cap before any expansion allocates.
        let iterations: Vec<String> = (1..=1000).map(|i| i.to_string()).collect();
        let fault_pcts: Vec<String> = (0..=100).map(|p| p.to_string()).collect();
        let hostile = format!(
            r#"{{"schemes": ["reference", "instance", "statement", "process"],
                "fabrics": ["dedicated", "shared", "ideal"],
                "iterations": [{}], "processors": [2, 4, 8, 16],
                "caches": ["none", "mesi", "dragon"], "fault_pcts": [{}]}}"#,
            iterations.join(","),
            fault_pcts.join(",")
        );
        let started = std::time::Instant::now();
        let storm = request(handle.addr(), "POST", "/sweep", &hostile);
        assert!(storm.starts_with("HTTP/1.1 413"), "{storm}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the cap must fire before grid expansion"
        );
        let summary = handle.stop();
        assert_eq!(summary.sweeps, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_queue_sheds_with_retry_after() {
        let cfg = ServeConfig { queue_cap: 1, ..config("shed") };
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let addr = handle.addr();
        // Hold the only slot through the admission API itself, so no
        // request can race the holder for it...
        let slot = handle.admission().try_admit(1).expect("an idle valve admits");
        // ...then every sweep is shed, politely.
        for _ in 0..3 {
            let resp = request(addr, "POST", "/sweep", r#"{"iterations": [6]}"#);
            assert!(resp.starts_with("HTTP/1.1 429"), "{resp}");
            assert!(resp.contains("Retry-After: 1"), "{resp}");
            assert!(body_of(&resp).contains("\"retry_after_s\":1"));
        }
        // Releasing the slot reopens the valve: shedding wedged nothing.
        drop(slot);
        let resp = request(addr, "POST", "/sweep", r#"{"iterations": [6]}"#);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let summary = handle.stop();
        assert_eq!(summary.shed, 3);
        assert!(summary.drained_clean, "shedding must not wedge the drain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The server's lifetime summary once something other than `stop`
    /// has asked it to drain.
    fn join(handle: ServerHandle) -> ServeSummary {
        handle.thread.join().expect("server thread")
    }

    fn stat(stats_response: &str, key: &str) -> u64 {
        let doc = json::parse(body_of(stats_response).trim()).expect("/stats is JSON");
        doc.get(key).and_then(json::Json::as_u64).expect(key)
    }

    #[test]
    fn an_idle_server_drains_on_stop() {
        for watch_signals in [false, true] {
            let _flag = signal::flag_lock();
            signal::reset();
            let cfg = ServeConfig { watch_signals, ..config("drain-stop") };
            let dir = cfg.state_dir.clone();
            let summary = Server::spawn(cfg).expect("spawn").stop();
            assert!(summary.drained_clean);
            assert_eq!(summary.requests, 0, "the wake-up is not a request");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_idle_server_drains_on_post_shutdown_after_answering_it() {
        let cfg = config("drain-post");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let stats = request(handle.addr(), "GET", "/stats", "");
        assert_eq!(stat(&stats, "requests"), 1, "{stats}");
        let bye = request(handle.addr(), "POST", "/shutdown", "");
        assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
        assert!(body_of(&bye).contains("\"draining\":true"), "{bye}");
        let summary = join(handle);
        assert!(summary.drained_clean);
        assert_eq!(summary.requests, 2, "/stats and /shutdown, not the wake-up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_signal_flag_drains_the_server_that_watches_it_and_no_other() {
        let _flag = signal::flag_lock();
        signal::reset();
        let watching = ServeConfig { watch_signals: true, ..config("drain-signal") };
        let deaf = config("drain-deaf");
        let dirs = [watching.state_dir.clone(), deaf.state_dir.clone()];
        let watching = Server::spawn(watching).expect("spawn");
        let deaf = Server::spawn(deaf).expect("spawn");
        let ok = request(watching.addr(), "GET", "/healthz", "");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        signal::request_shutdown();
        let summary = join(watching);
        assert!(summary.drained_clean);
        assert_eq!(summary.requests, 1, "the wake-up is not a request");
        let ok = request(deaf.addr(), "GET", "/healthz", "");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        signal::reset();
        assert_eq!(deaf.stop().requests, 1);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_wildcard_listener_is_woken_through_its_loopback() {
        for (wildcard, loopback) in [("0.0.0.0:0", "127.0.0.1:0"), ("[::]:0", "[::1]:0")] {
            if TcpListener::bind(loopback).is_err() {
                assert_ne!(loopback, "127.0.0.1:0", "no IPv4 loopback");
                continue; // this host has no IPv6
            }
            let cfg = ServeConfig { addr: wildcard.into(), ..config("drain-wildcard") };
            let dir = cfg.state_dir.clone();
            let handle = Server::spawn(cfg).expect("spawn");
            assert!(handle.addr().ip().is_unspecified());
            assert!(handle.stop().drained_clean, "{wildcard}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_silent_client_holds_up_neither_accept_nor_the_drain() {
        let cfg = config("silent");
        let dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let mut silent = TcpStream::connect(handle.addr()).expect("connect");
        // Its worker is now waiting for bytes; the accept loop is not.
        let ok = request(handle.addr(), "GET", "/healthz", "");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        // The drain waits for that worker, which gives up on its own.
        let summary = handle.stop();
        assert!(summary.drained_clean, "the read timeout bounds what a mute client can hold");
        assert_eq!(summary.requests, 2);
        let mut answer = String::new();
        silent.read_to_string(&mut answer).expect("read");
        assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `handle_sweep` streams and stores for `body`, built from
    /// [`run_cell`] on one cell at a time: the cell lines and the
    /// aggregate hash.
    fn one_cell_at_a_time(body: &str, store: &mut RunStore) -> (Vec<String>, String) {
        let sweep = SweepSpec::from_json(&json::parse(body).expect("json")).expect("sweep");
        let mut aggregate = hash::fnv1a_seed();
        let mut lines = Vec::new();
        for spec in sweep.expand() {
            let run = crate::runner::run_cell(&spec);
            if let Some(reproducer) = &run.reproducer {
                store.write_reproducer(&run.record.hash, reproducer).expect("reproducer");
            }
            let rec_json = run.record.to_json();
            store.insert(run.record).expect("journal");
            aggregate = hash::fold(hash::fold(aggregate, rec_json.as_bytes()), b"\n");
            lines.push(format!("{{\"cell\":{rec_json},\"cached\":false}}"));
        }
        (lines, format!("{aggregate:016x}"))
    }

    /// Every file under `dir`, by relative path.
    fn files_under(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(at) = pending.pop() {
            for entry in std::fs::read_dir(&at).expect("read_dir") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                    files.push((rel, std::fs::read(&path).expect("read")));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn sharing_a_compiled_loop_changes_no_byte_a_client_or_the_disk_sees() {
        // Two chunks' worth of cells in which every (scheme, N, P) is
        // shared by four, then one cell that can only be quarantined.
        let grid = r#"{"schemes": ["reference", "instance", "statement", "process", "barrier"],
            "iterations": [6, 9], "processors": [2, 4], "caches": ["none", "mesi"],
            "fault_pcts": [0, 30], "seed": 23}"#;
        let starved = r#"{"iterations": [7], "deadline_cycles": 1, "seed": 23}"#;
        let cfg = config("memo-served");
        let served_dir = cfg.state_dir.clone();
        let handle = Server::spawn(cfg).expect("spawn");
        let alone_dir = temp_dir("memo-alone");
        let mut alone = RunStore::open(&alone_dir).expect("store");
        for (body, cells) in [(grid, 80), (starved, 1)] {
            let response = request(handle.addr(), "POST", "/sweep", body);
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            let (lines, aggregate) = one_cell_at_a_time(body, &mut alone);
            let streamed: Vec<&str> = body_of(&response).lines().collect();
            assert_eq!(streamed.len(), cells + 1);
            assert_eq!(streamed[..cells], lines[..], "cell lines");
            assert_eq!(aggregate_hash(&response), aggregate);
        }
        let summary = handle.stop();
        assert_eq!((summary.cells_computed, summary.cells_quarantined), (81, 1));
        drop(alone);
        let served = files_under(&served_dir);
        let names: Vec<&PathBuf> = served.iter().map(|(name, _)| name).collect();
        assert_eq!(served.len(), 2, "the journal and one reproducer: {names:?}");
        assert!(served == files_under(&alone_dir), "journal or reproducer bytes differ");
        let _ = std::fs::remove_dir_all(&served_dir);
        let _ = std::fs::remove_dir_all(&alone_dir);
    }
}
