//! The paper's synchronization-scheme taxonomy (Section 3), compiled onto
//! the multiprocessor simulator.
//!
//! Four scheme families from Su & Yew, *On Data Synchronization for
//! Multiprocessors* (ISCA 1989):
//!
//! | Scheme | Sync variables | Hardware model |
//! |---|---|---|
//! | [`reference_based::ReferenceBased`] | one key per array element | Cedar keyed memory access |
//! | [`instance_based::InstanceBased`] | full/empty bit per renamed copy | HEP full/empty bits |
//! | [`statement_oriented::StatementOriented`] | one SC per source statement | Alliant Advance/Await |
//! | [`process_oriented::ProcessOriented`] | `X` process counters | the paper's proposal (Section 6 bus) |
//! | [`barrier_phased::BarrierPhased`] | barrier per statement phase | loop distribution baseline |
//!
//! Every scheme implements [`scheme::Scheme`]: it compiles a loop nest and
//! its dependence graph into per-iteration simulator programs plus
//! storage/initialization accounting, and every compiled loop carries the
//! validation obligations that prove, from the run's trace, that the
//! synchronization actually enforced the dependences.
//!
//! [`cell`] is the one written description of a run — scheme key, machine
//! and fault plan — that the chaos fuzzer, the replay command and the
//! sweep service all compile and serialize through.
//!
//! [`compare`] runs one workload under all schemes and produces the
//! report rows the benchmark harnesses print.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barrier_phased;
pub mod cell;
pub mod compare;
pub mod instance_based;
pub mod process_oriented;
pub mod reference_based;
pub mod robustness;
pub mod scheme;
pub mod statement_oriented;

pub use barrier_phased::BarrierPhased;
pub use cell::{Cell, SCHEME_KEYS};
pub use compare::{compare_all, SchemeReport};
pub use instance_based::InstanceBased;
pub use process_oriented::ProcessOriented;
pub use reference_based::ReferenceBased;
pub use robustness::{classify_run, render as render_matrix, sweep, Matrix, Outcome, Tally};
pub use scheme::{CompiledLoop, CostFn, Scheme, SyncStorage};
pub use statement_oriented::StatementOriented;
