//! Sweep-as-a-service: a fault-tolerant HTTP/JSONL front end for the
//! deterministic simulator.
//!
//! `datasync serve` turns the sweep machinery into a long-running
//! service: clients POST a sweep grid (scheme × fabric × workload ×
//! machine × cache × fault intensities) and receive one JSON line per
//! cell as it completes, plus a summary with an aggregate hash that
//! proves byte identity across cached, resumed and cold runs. The
//! design premise is the simulator's determinism: a cell's result is a
//! pure function of its canonical spec, so content addressing makes
//! caching exact and crash recovery a replay, never a guess.
//!
//! Robustness is layered end to end, mirroring one level up what the
//! simulated machine's recovery ladder does inside a run:
//!
//! | Layer | Module | In-machine analogue |
//! |---|---|---|
//! | deadline budgets + one retry after a timeout | [`runner`] | NACK retransmission |
//! | fallback scheme (degradation) | [`runner`] | the same rung: both run `Cell::run` |
//! | quarantine + circuit breaker | [`runner`], [`store`] | a wedge no rung heals is reported, never hidden |
//! | backpressure / load shedding | [`queue`] | SynCron-style overflow shedding |
//! | checksummed journal + resume | [`journal`], [`store`] | watchdog image repair |
//! | content-addressed memo cache | [`spec`], [`store`] | — (determinism dividend) |
//!
//! The crate is std-only like the rest of the workspace: a
//! `TcpListener` blocked in `accept` (a drain wakes it with a loopback
//! connection), worker threads per connection, and `core/par.rs`
//! fanning cells across cores.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod http;
pub mod journal;
pub mod queue;
pub mod record;
pub mod runner;
pub mod server;
pub mod signal;
pub mod spec;
pub mod store;

/// The workspace's JSON reader lives in the leaf crate; re-exported so
/// `datasync_serve::json::{parse, Json, escape}` stay valid paths.
pub use datasync_sim::json;
pub use record::{CellRecord, RECORD_SCHEMA_VERSION};
pub use runner::{run_cell, run_cells, CellRun};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle, SERVE_SCHEMA_VERSION};
pub use spec::{CellSpec, SweepSpec};
pub use store::RunStore;
