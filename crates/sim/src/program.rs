//! The simulator's instruction set.
//!
//! Schemes compile loop iterations into small [`Program`]s over this
//! instruction set. The set mirrors what a late-1980s bus-based
//! multiprocessor offers: local compute, shared-memory accesses over the
//! data bus, and synchronization-variable operations whose cost depends on
//! the machine's transport (a dedicated synchronization bus with local
//! images, or plain shared memory — see
//! [`SyncTransport`](crate::config::SyncTransport)).

use std::fmt;

/// Index of a synchronization variable.
pub type SyncVar = usize;

/// A predicate on a synchronization variable's value.
///
/// Process counters `<owner, step>` are packed so that the paper's
/// lattice order (`<w,x> >= <y,z>` iff `w>y` or `w=y, x>=z`) coincides
/// with numeric `>=` — see [`pack_pc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Value `>= n`.
    Geq(u64),
    /// Value `== n`.
    Eq(u64),
}

impl Pred {
    /// Evaluates the predicate.
    pub fn eval(self, value: u64) -> bool {
        match self {
            Pred::Geq(n) => value >= n,
            Pred::Eq(n) => value == n,
        }
    }

    /// The smallest value that can satisfy the predicate.
    pub fn bound(self) -> u64 {
        match self {
            Pred::Geq(n) | Pred::Eq(n) => n,
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Geq(n) => write!(f, ">= {n}"),
            Pred::Eq(n) => write!(f, "== {n}"),
        }
    }
}

/// Packs a process counter `<owner, step>` into a `u64` preserving the
/// paper's ordering (owner dominates, then step).
///
/// # Panics
///
/// Panics if `step >= 2^32`.
pub fn pack_pc(owner: u64, step: u32) -> u64 {
    assert!(owner < (1 << 32), "owner {owner} exceeds 32 bits");
    (owner << 32) | u64::from(step)
}

/// Unpacks a process counter into `(owner, step)`.
pub fn unpack_pc(v: u64) -> (u64, u32) {
    (v >> 32, (v & 0xffff_ffff) as u32)
}

/// A label recorded in the trace by [`Instr::Note`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    /// Linear process (iteration) id.
    pub pid: u64,
    /// Statement id within the loop body.
    pub stmt: u32,
    /// `true` for the start of the statement, `false` for its end
    /// (end = all its shared accesses globally visible).
    pub start: bool,
}

/// One simulator instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Local computation for the given number of cycles (no bus traffic).
    Compute(u32),
    /// A shared-memory access through the data bus; the processor blocks
    /// until the access is globally performed.
    Access {
        /// Memory address (schemes hash array elements onto addresses).
        addr: u64,
        /// `true` for a store.
        write: bool,
    },
    /// Write a synchronization variable.
    ///
    /// On a dedicated sync bus this is *posted*: the processor continues
    /// immediately and the value is broadcast to all local images when the
    /// bus grants it (eligible for write coalescing, Section 6). On the
    /// shared-memory transport it blocks like a data access.
    SyncSet {
        /// Target variable.
        var: SyncVar,
        /// New value.
        val: u64,
    },
    /// Atomic fetch-and-increment of a synchronization variable at its
    /// home (memory controller or sync bus); blocking.
    SyncRmw {
        /// Target variable.
        var: SyncVar,
    },
    /// Busy-wait until the predicate holds.
    ///
    /// On a dedicated sync bus the spin runs on the processor's local
    /// image and produces no traffic; on shared memory every poll is a
    /// data-bus transaction (the hot-spot effect).
    SyncWait {
        /// Variable to watch.
        var: SyncVar,
        /// Condition to satisfy.
        pred: Pred,
    },
    /// Conditional write: post `val` only if the variable is currently
    /// `>= guard` — the ownership test of the improved `mark_PC`
    /// (Fig 4.3). On the dedicated bus the test reads the local image and
    /// costs nothing when skipped; on shared memory it is a read
    /// transaction followed (when satisfied) by a write transaction.
    SyncSetIfGeq {
        /// Target variable.
        var: SyncVar,
        /// Minimum current value for the write to proceed.
        guard: u64,
        /// New value.
        val: u64,
    },
    /// A Cedar-style synchronized data access (reference-based scheme):
    /// atomically test `key >= geq`, perform the data access, and
    /// increment the key — all at the element's home memory module.
    ///
    /// On shared memory each *attempt* is one data-bus transaction; a
    /// failed attempt retries after the spin interval. On the dedicated
    /// bus the test spins on the local image (free) and the successful
    /// access+increment is one bus operation.
    KeyedAccess {
        /// The element's key.
        var: SyncVar,
        /// Access rank: proceed once `key >= geq`.
        geq: u64,
    },
    /// Records a trace event at the current cycle; free.
    Note(Label),
}

/// A straight-line instruction sequence executed by one processor for one
/// work unit (typically one loop iteration).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The instructions, executed in order.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a program from instructions.
    pub fn from_instrs(instrs: Vec<Instr>) -> Self {
        Self { instrs }
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The highest sync-var index referenced, if any.
    pub fn max_sync_var(&self) -> Option<SyncVar> {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::SyncSet { var, .. }
                | Instr::SyncRmw { var }
                | Instr::SyncWait { var, .. }
                | Instr::SyncSetIfGeq { var, .. }
                | Instr::KeyedAccess { var, .. } => Some(*var),
                _ => None,
            })
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_pc_preserves_paper_order() {
        // <w,x> >= <y,z> iff w>y or (w=y and x>=z)
        assert!(pack_pc(3, 0) > pack_pc(2, 1000));
        assert!(pack_pc(2, 5) > pack_pc(2, 4));
        assert_eq!(pack_pc(2, 4), pack_pc(2, 4));
        assert!(pack_pc(1, u32::MAX) < pack_pc(2, 0));
        assert_eq!(unpack_pc(pack_pc(7, 9)), (7, 9));
    }

    #[test]
    #[should_panic(expected = "exceeds 32 bits")]
    fn oversized_owner_panics() {
        let _ = pack_pc(1 << 32, 0);
    }

    #[test]
    fn pred_eval() {
        assert!(Pred::Geq(5).eval(5));
        assert!(Pred::Geq(5).eval(6));
        assert!(!Pred::Geq(5).eval(4));
        assert!(Pred::Eq(5).eval(5));
        assert!(!Pred::Eq(5).eval(6));
    }

    #[test]
    fn program_max_sync_var() {
        let mut p = Program::new();
        assert!(p.max_sync_var().is_none());
        p.push(Instr::Compute(3));
        p.push(Instr::SyncSet { var: 4, val: 1 });
        p.push(Instr::SyncWait { var: 9, pred: Pred::Geq(1) });
        p.push(Instr::SyncRmw { var: 2 });
        assert_eq!(p.max_sync_var(), Some(9));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }
}
