//! A cycle-driven simulator of a small bus-based shared-memory
//! multiprocessor with optional dedicated synchronization hardware.
//!
//! This crate is the hardware substrate of the reproduction of Su & Yew,
//! *On Data Synchronization for Multiprocessors* (ISCA 1989). The paper
//! evaluates synchronization schemes on machines of the Alliant FX/8 /
//! Cray X-MP class; this simulator models the parts of such machines that
//! the paper's arguments depend on:
//!
//! * a **data bus** to shared memory, one arbitrated transaction at a
//!   time (the machine's bottleneck and the locus of hot-spot effects);
//! * an optional **dedicated synchronization bus** broadcasting
//!   synchronization-variable writes to per-processor local images, so
//!   that busy-waiting costs no traffic (Section 6);
//! * **posted** synchronization writes with optional write coalescing;
//! * **processor self-scheduling** dispatch of loop iterations.
//!
//! The instruction set ([`program::Instr`]) is exactly what the paper's
//! schemes need: compute, shared access, sync-variable set / atomic
//! increment / busy-wait.
//!
//! # Examples
//!
//! A producer/consumer pair over the dedicated sync bus:
//!
//! ```
//! use datasync_sim::config::MachineConfig;
//! use datasync_sim::machine::{run, Workload};
//! use datasync_sim::program::{Instr, Pred, Program};
//!
//! let producer = Program::from_instrs(vec![
//!     Instr::Compute(10),
//!     Instr::SyncSet { var: 0, val: 1 },
//! ]);
//! let consumer = Program::from_instrs(vec![
//!     Instr::SyncWait { var: 0, pred: Pred::Geq(1) },
//!     Instr::Compute(5),
//! ]);
//! let workload = Workload::static_assigned(vec![producer, consumer], vec![vec![0], vec![1]]);
//! let out = run(&MachineConfig::with_processors(2), &workload)?;
//! assert!(out.stats.makespan >= 15);
//! # Ok::<(), datasync_sim::machine::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod config;
pub mod events;
pub mod faults;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod program;
pub mod recovery;
pub mod rng;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use chrome::render as render_chrome_trace;
pub use config::{
    CacheModel, CoherenceProtocol, FabricKind, MachineConfig, MemoryModel, SyncTransport,
};
pub use events::{EventRing, SimEvent, SimEventKind};
pub use faults::{FaultClass, FaultCounts, FaultPlan};
pub use machine::{
    run, run_reference, DispatchMode, KernelCounters, Machine, RunOutcome, SimError, StepMode,
    Workload,
};
pub use metrics::{CacheTraffic, RunMetrics, VarTraffic, WaitHistogram};
pub use program::{pack_pc, unpack_pc, Instr, Label, Pred, Program, SyncVar};
pub use recovery::{RecoveryCounts, RecoveryPolicy, WaitEdge};
pub use rng::SplitMix64;
pub use stats::{ProcBreakdown, RunStats};
pub use timeline::{render as render_timeline, spans as trace_spans, Span};
pub use trace::{FaultEvent, InstanceIndex, OrderViolation, Trace, TraceEvent};
