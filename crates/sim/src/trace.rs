//! Execution traces and dependence-order validation.
//!
//! Programs mark statement boundaries with [`Instr::Note`] instructions;
//! the trace records the cycle of each note. [`Trace::validate_order`]
//! then checks, for every dependence arc, that the source instance's end
//! precedes the sink instance's start — the correctness criterion of
//! Section 2.2.
//!
//! [`Instr::Note`]: crate::program::Instr::Note

use crate::faults::FaultClass;
use crate::program::Label;
use std::collections::HashMap;

/// One recorded note.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the note executed.
    pub cycle: u64,
    /// Processor that executed it.
    pub proc: usize,
    /// The label.
    pub label: Label,
}

/// One injected fault (recorded when fault injection is active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the fault was injected.
    pub cycle: u64,
    /// Processor it hit (`None` for bus-level faults).
    pub proc: Option<usize>,
    /// Fault class.
    pub class: FaultClass,
    /// Magnitude in cycles (delay length, stall length, deferral window;
    /// 0 for reorders and drops, whose cost shows up as recovery
    /// latency).
    pub magnitude: u64,
}

/// The ordered list of note events of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    fault_events: Vec<FaultEvent>,
}

/// An ordering violation found by [`Trace::validate_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderViolation {
    /// Source statement id.
    pub src_stmt: u32,
    /// Source iteration.
    pub src_pid: u64,
    /// Sink statement id.
    pub dst_stmt: u32,
    /// Sink iteration.
    pub dst_pid: u64,
    /// Cycle the source ended.
    pub src_end: u64,
    /// Cycle the sink started.
    pub dst_start: u64,
}

/// First recorded start and end cycle of every statement instance of
/// a trace (see [`Trace::instance_index`]): the same answers as
/// [`Trace::start_of`] / [`Trace::end_of`], in O(1) per lookup.
#[derive(Debug, Clone, Default)]
pub struct InstanceIndex {
    starts: HashMap<(u32, u64), u64>,
    ends: HashMap<(u32, u64), u64>,
}

impl InstanceIndex {
    /// First recorded start cycle of instance `(stmt, pid)`.
    pub fn start_of(&self, stmt: u32, pid: u64) -> Option<u64> {
        self.starts.get(&(stmt, pid)).copied()
    }

    /// First recorded end cycle of instance `(stmt, pid)`.
    pub fn end_of(&self, stmt: u32, pid: u64) -> Option<u64> {
        self.ends.get(&(stmt, pid)).copied()
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event (called by the machine).
    pub fn record(&mut self, cycle: u64, proc: usize, label: Label) {
        self.events.push(TraceEvent { cycle, proc, label });
    }

    /// All events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Records an injected fault (called by the machine).
    pub fn record_fault(
        &mut self,
        cycle: u64,
        proc: Option<usize>,
        class: FaultClass,
        magnitude: u64,
    ) {
        self.fault_events.push(FaultEvent { cycle, proc, class, magnitude });
    }

    /// All injected faults in record order (empty on fault-free runs).
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.fault_events
    }

    /// Indexes the first recorded start and end of every statement
    /// instance in one pass, for callers that look up many instances
    /// ([`Trace::start_of`] / [`Trace::end_of`] scan the trace per call).
    pub fn instance_index(&self) -> InstanceIndex {
        let mut index = InstanceIndex::default();
        for e in &self.events {
            let side = if e.label.start { &mut index.starts } else { &mut index.ends };
            side.entry((e.label.stmt, e.label.pid)).or_insert(e.cycle);
        }
        index
    }

    /// Start cycle of statement instance `(stmt, pid)`, if recorded
    /// (the first one, should a rescue have reissued the instance).
    pub fn start_of(&self, stmt: u32, pid: u64) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.label.stmt == stmt && e.label.pid == pid && e.label.start)
            .map(|e| e.cycle)
    }

    /// End cycle of statement instance `(stmt, pid)`, if recorded (the
    /// first one; [`Trace::validate_order`] deliberately keeps the
    /// *last* end instead).
    pub fn end_of(&self, stmt: u32, pid: u64) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.label.stmt == stmt && e.label.pid == pid && !e.label.start)
            .map(|e| e.cycle)
    }

    /// Checks every instance of the given dependence arcs.
    ///
    /// `arcs` are `(src_stmt, dst_stmt, linear_distance)` triples. An arc
    /// instance is checked only when both endpoints were recorded (a
    /// statement inside a non-taken branch arm has no events, matching the
    /// may-dependence semantics of Example 3).
    pub fn validate_order(&self, arcs: &[(u32, u32, i64)]) -> Vec<OrderViolation> {
        let mut starts: HashMap<(u32, u64), u64> = HashMap::new();
        let mut ends: HashMap<(u32, u64), u64> = HashMap::new();
        for e in &self.events {
            let key = (e.label.stmt, e.label.pid);
            if e.label.start {
                starts.entry(key).or_insert(e.cycle);
            } else {
                ends.insert(key, e.cycle);
            }
        }
        let mut violations = Vec::new();
        for &(src, dst, dist) in arcs {
            debug_assert!(dist >= 0, "validate_order expects non-negative distances");
            for (&(stmt, pid), &src_end) in &ends {
                if stmt != src {
                    continue;
                }
                let dst_pid = pid + dist as u64;
                if let Some(&dst_start) = starts.get(&(dst, dst_pid)) {
                    let intra_ok = dist == 0 && src == dst;
                    if dst_start < src_end && !intra_ok {
                        violations.push(OrderViolation {
                            src_stmt: src,
                            src_pid: pid,
                            dst_stmt: dst,
                            dst_pid,
                            src_end,
                            dst_start,
                        });
                    }
                }
            }
        }
        violations.sort_by_key(|v| (v.src_pid, v.src_stmt, v.dst_pid, v.dst_stmt));
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(stmt: u32, pid: u64, start: bool) -> Label {
        Label { pid, stmt, start }
    }

    #[test]
    fn start_end_lookup() {
        let mut t = Trace::new();
        t.record(5, 0, label(1, 3, true));
        t.record(9, 0, label(1, 3, false));
        assert_eq!(t.start_of(1, 3), Some(5));
        assert_eq!(t.end_of(1, 3), Some(9));
        assert_eq!(t.start_of(1, 4), None);
    }

    #[test]
    fn validate_order_catches_violation() {
        let mut t = Trace::new();
        // src stmt 0 at pid 0 ends at cycle 10; dst stmt 1 at pid 1
        // starts at cycle 7 -> violation of arc (0, 1, 1).
        t.record(2, 0, label(0, 0, true));
        t.record(10, 0, label(0, 0, false));
        t.record(7, 1, label(1, 1, true));
        t.record(12, 1, label(1, 1, false));
        let v = t.validate_order(&[(0, 1, 1)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].src_end, 10);
        assert_eq!(v[0].dst_start, 7);
        // And the satisfied direction reports nothing.
        assert!(t.validate_order(&[(1, 0, 1)]).is_empty());
    }

    #[test]
    fn missing_instances_are_skipped() {
        let mut t = Trace::new();
        t.record(2, 0, label(0, 0, false));
        // No dst instance recorded: no violation (may-dependence).
        assert!(t.validate_order(&[(0, 1, 1)]).is_empty());
    }

    #[test]
    fn intra_statement_zero_distance_allowed() {
        let mut t = Trace::new();
        t.record(5, 0, label(0, 0, true));
        t.record(9, 0, label(0, 0, false));
        // An arc (0, 0, 0): the statement cannot start after its own end;
        // this degenerate self-arc is not flagged.
        assert!(t.validate_order(&[(0, 0, 0)]).is_empty());
    }
}
