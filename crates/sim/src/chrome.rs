//! Chrome `trace_event` JSON export (`chrome://tracing` / Perfetto).
//!
//! Converts one run's note trace and structured event ring into the
//! Trace Event Format's JSON Object representation: a `traceEvents`
//! array of `"X"` (complete, `ts` + `dur`), `"i"` (instant) and `"M"`
//! (metadata) records. Simulated cycles map 1:1 to microseconds — the
//! viewer's time axis then reads directly in cycles.
//!
//! Track layout:
//!
//! * **pid 0 "processors"** — one thread row per processor: statement
//!   spans (from the note trace), wait episodes, dispatches and
//!   per-processor faults;
//! * **pid 1 "interconnect"** — data-bus grants, sync-bus grants with
//!   their deliveries, bus-level faults, and watchdog arm/fire marks;
//! * **pid 2 "banks"** — per-bank service spans and conflict marks
//!   (present only for banked-memory runs).
//!
//! The JSON is hand-rolled like every serializer in this workspace (the
//! repo is dependency-free by policy).

use crate::events::{EventRing, SimEventKind};
use crate::json::escape;
use crate::timeline::spans;
use crate::trace::Trace;
use std::fmt::Write as _;

const PID_PROCS: u32 = 0;
const PID_BUSES: u32 = 1;
const PID_BANKS: u32 = 2;
const TID_DATA_BUS: u32 = 0;
const TID_SYNC_BUS: u32 = 1;
const TID_WATCHDOG: u32 = 2;

/// Renders one run as a Chrome trace_event JSON object.
///
/// `procs` sizes the processor track metadata; the note `trace` supplies
/// statement spans and `events` supplies everything else. Works with a
/// disabled (empty) ring — you still get the statement timeline.
pub fn render(trace: &Trace, events: &EventRing, procs: usize) -> String {
    let mut w = Writer::new();

    w.meta_process(PID_PROCS, "processors");
    for p in 0..procs {
        w.meta_thread(PID_PROCS, p as u32, &format!("P{p}"));
    }
    w.meta_process(PID_BUSES, "interconnect");
    w.meta_thread(PID_BUSES, TID_DATA_BUS, "data bus");
    w.meta_thread(PID_BUSES, TID_SYNC_BUS, "sync bus");
    w.meta_thread(PID_BUSES, TID_WATCHDOG, "watchdog");

    for s in spans(trace) {
        w.complete(
            &format!("S{} it{}", s.stmt, s.pid),
            "stmt",
            PID_PROCS,
            s.proc as u32,
            s.start,
            s.end - s.start + 1,
        );
    }

    let mut bank_meta_done = false;
    for e in events.iter() {
        let c = e.cycle;
        match e.kind {
            SimEventKind::DataGrant { proc, dur, poll } => {
                let cat = if poll { "poll" } else { "data" };
                w.complete(&format!("P{proc} {cat}"), cat, PID_BUSES, TID_DATA_BUS, c, dur);
            }
            SimEventKind::SyncGrant { var, rmw, dur } => {
                let name = if rmw { format!("rmw v{var}") } else { format!("post v{var}") };
                w.complete(&name, "sync", PID_BUSES, TID_SYNC_BUS, c, dur);
            }
            SimEventKind::BridgeForward { var, dur } => {
                w.complete(&format!("bridge v{var}"), "sync", PID_BUSES, TID_SYNC_BUS, c, dur);
            }
            SimEventKind::SyncDeliver { var, val, stale } => {
                let name = if stale {
                    format!("stale v{var}={val}")
                } else {
                    format!("deliver v{var}={val}")
                };
                w.instant(&name, "sync", PID_BUSES, TID_SYNC_BUS, c);
            }
            SimEventKind::BankService { bank, proc, dur } => {
                if !bank_meta_done {
                    w.meta_process(PID_BANKS, "banks");
                    bank_meta_done = true;
                }
                w.complete(&format!("P{proc}"), "bank", PID_BANKS, bank as u32, c, dur);
            }
            SimEventKind::BankConflict { bank, depth } => {
                if !bank_meta_done {
                    w.meta_process(PID_BANKS, "banks");
                    bank_meta_done = true;
                }
                w.instant(&format!("conflict depth {depth}"), "bank", PID_BANKS, bank as u32, c);
            }
            SimEventKind::WaitEnd { proc, var, waited } => {
                w.complete(
                    &format!("wait v{var}"),
                    "wait",
                    PID_PROCS,
                    proc as u32,
                    c.saturating_sub(waited),
                    waited,
                );
            }
            // Wait begins are implied by the matching end span; an
            // unsatisfied (deadlocked) wait shows as the begin mark only.
            SimEventKind::WaitBegin { proc, var, through_memory } => {
                let how = if through_memory { "mem" } else { "image" };
                w.instant(&format!("wait v{var} ({how})"), "wait", PID_PROCS, proc as u32, c);
            }
            SimEventKind::Dispatch { proc, program } => {
                w.instant(&format!("dispatch #{program}"), "sched", PID_PROCS, proc as u32, c);
            }
            SimEventKind::Fault { class, proc, magnitude } => {
                let name = format!("fault {} ({magnitude}cy)", class.label());
                match proc {
                    Some(p) => w.instant(&name, "fault", PID_PROCS, p as u32, c),
                    None => w.instant(&name, "fault", PID_BUSES, TID_SYNC_BUS, c),
                }
            }
            SimEventKind::WatchdogArm { limit } => {
                w.instant(
                    &format!("armed (limit {limit})"),
                    "watchdog",
                    PID_BUSES,
                    TID_WATCHDOG,
                    c,
                );
            }
            SimEventKind::WatchdogFire { silent_for } => {
                w.instant(
                    &format!("FIRED after {silent_for} silent cycles"),
                    "watchdog",
                    PID_BUSES,
                    TID_WATCHDOG,
                    c,
                );
            }
            SimEventKind::GapNack { proc, var, tries } => {
                w.instant(
                    &format!("NACK v{var} (try {tries})"),
                    "recovery",
                    PID_PROCS,
                    proc as u32,
                    c,
                );
            }
            SimEventKind::Retransmit { var, val } => {
                w.instant(
                    &format!("retransmit v{var}={val}"),
                    "recovery",
                    PID_BUSES,
                    TID_SYNC_BUS,
                    c,
                );
            }
            SimEventKind::WatchdogRepair { rung, healed } => {
                w.instant(
                    &format!("REPAIR #{rung} (healed {healed} images)"),
                    "recovery",
                    PID_BUSES,
                    TID_WATCHDOG,
                    c,
                );
            }
            SimEventKind::WorkReclaimed { from, program, resume } => {
                w.instant(
                    &format!("reclaim #{program} (resume ip {resume})"),
                    "recovery",
                    PID_PROCS,
                    from as u32,
                    c,
                );
            }
            SimEventKind::WorkReissued { to, program, resume } => {
                w.instant(
                    &format!("reissue #{program} (resume ip {resume})"),
                    "recovery",
                    PID_PROCS,
                    to as u32,
                    c,
                );
            }
            SimEventKind::WatchdogRescue { rung, reclaimed } => {
                w.instant(
                    &format!("RESCUE #{rung} (reclaimed {reclaimed} programs)"),
                    "recovery",
                    PID_BUSES,
                    TID_WATCHDOG,
                    c,
                );
            }
        }
    }

    w.finish(events.dropped())
}

/// Incremental builder of the `traceEvents` JSON array.
struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self { out: String::from("{\"traceEvents\":[\n"), first: true }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
    }

    fn meta_process(&mut self, pid: u32, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }

    fn meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }

    fn complete(&mut self, name: &str, cat: &str, pid: u32, tid: u32, ts: u64, dur: u64) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{ts},\"dur\":{dur}}}",
            escape(name)
        );
    }

    fn instant(&mut self, name: &str, cat: &str, pid: u32, tid: u32, ts: u64) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}",
            escape(name)
        );
    }

    fn finish(mut self, dropped: u64) -> String {
        let _ = write!(
            self.out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped},\
             \"time_unit\":\"1 cycle = 1us\"}}}}\n"
        );
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventRing;
    use crate::json::Json;
    use crate::program::Label;

    #[test]
    fn empty_run_is_valid_shell() {
        let json = render(&Trace::new(), &EventRing::disabled(), 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"P1\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn spans_and_events_are_rendered() {
        let mut t = Trace::new();
        t.record(5, 0, Label { pid: 2, stmt: 1, start: true });
        t.record(9, 0, Label { pid: 2, stmt: 1, start: false });
        let mut r = EventRing::with_capacity(16);
        r.record(3, SimEventKind::DataGrant { proc: 0, dur: 2, poll: false });
        r.record(4, SimEventKind::SyncGrant { var: 1, rmw: true, dur: 1 });
        r.record(5, SimEventKind::SyncDeliver { var: 1, val: 7, stale: false });
        r.record(6, SimEventKind::WaitEnd { proc: 1, var: 1, waited: 4 });
        r.record(7, SimEventKind::BankService { bank: 3, proc: 0, dur: 5 });
        r.record(8, SimEventKind::WatchdogFire { silent_for: 100 });
        r.record(9, SimEventKind::GapNack { proc: 1, var: 1, tries: 1 });
        r.record(10, SimEventKind::Retransmit { var: 1, val: 7 });
        r.record(11, SimEventKind::WatchdogRepair { rung: 1, healed: 2 });
        let json = render(&t, &r, 2);
        assert!(json.contains("\"S1 it2\""), "{json}");
        assert!(json.contains("\"rmw v1\""), "{json}");
        assert!(json.contains("\"deliver v1=7\""), "{json}");
        assert!(json.contains("\"wait v1\""), "{json}");
        assert!(json.contains("\"ts\":2,\"dur\":4"), "wait span backdated: {json}");
        assert!(json.contains("\"banks\""), "{json}");
        assert!(json.contains("FIRED"), "{json}");
        assert!(json.contains("NACK v1 (try 1)"), "{json}");
        assert!(json.contains("retransmit v1=7"), "{json}");
        assert!(json.contains("REPAIR #1 (healed 2 images)"), "{json}");
    }

    #[test]
    fn rendered_trace_parses_as_json() {
        let mut r = EventRing::with_capacity(8);
        r.record(1, SimEventKind::Dispatch { proc: 0, program: 0 });
        r.record(2, SimEventKind::WaitBegin { proc: 0, var: 0, through_memory: true });
        let json = render(&Trace::new(), &r, 1);
        let doc = crate::json::parse(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str).is_some()), "{json}");
        let dropped = doc.get("otherData").and_then(|o| o.get("dropped_events"));
        assert_eq!(dropped.and_then(Json::as_u64), Some(0));
    }
}
