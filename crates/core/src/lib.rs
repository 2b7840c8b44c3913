//! The process-oriented data-synchronization scheme of Su & Yew
//! (*On Data Synchronization for Multiprocessors*, ISCA 1989) for real
//! threads.
//!
//! The paper's contribution is a synchronization scheme for Doacross
//! loops that uses one **process counter** (PC) per iteration — folded
//! onto a small pool of `X` physical counters — instead of one key per
//! datum or one counter per statement:
//!
//! * [`pc`] — [`pc::PcPool`] and the basic primitives of Fig 4.2.a
//!   (`set_PC`, `release_PC`, `wait_PC`, `get_PC`);
//! * [`handle`] — the improved primitives of Fig 4.3
//!   (`load_index`, `mark_PC`, `transfer_PC`);
//! * [`doacross`] — a self-scheduled Doacross executor
//!   ([`doacross::Doacross`]);
//! * [`planexec`] — running compiler-generated
//!   [`datasync_loopir::plan::SyncPlan`]s, plus the oracle-checked
//!   parallel interpreter [`planexec::run_nest`];
//! * [`barrier`] — the butterfly barrier of Example 4 and baselines;
//! * [`phased`] — Example 5's phase-structured execution with pairwise
//!   synchronization;
//! * [`wait`] — busy-wait strategies (Section 6 argues for busy-waiting
//!   at this granularity);
//! * [`sc`] and [`keys`] — the statement-oriented and reference-based
//!   schemes on real threads, for taxonomy-complete comparisons;
//! * [`par`] — a std-only scoped-thread parallel map with deterministic
//!   result ordering, used by the experiment sweep runners.
//!
//! # Examples
//!
//! A Doacross loop with a distance-1 flow dependence:
//!
//! ```
//! use datasync_core::doacross::Doacross;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let n = 100usize;
//! let acc: Vec<AtomicU64> = (0..n + 1).map(|_| AtomicU64::new(0)).collect();
//! Doacross::new(n as u64).threads(4).pcs(8).run(|i, ctx| {
//!     ctx.wait(1, 1);
//!     let prev = acc[i as usize].load(Ordering::Acquire);
//!     acc[i as usize + 1].store(prev + i + 1, Ordering::Release);
//!     ctx.mark(1);
//! });
//! // acc[n] = sum of 1..=n
//! assert_eq!(acc[n].load(Ordering::Relaxed), (n as u64) * (n as u64 + 1) / 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barrier;
pub mod doacross;
pub mod handle;
pub mod keys;
pub mod pad;
pub mod par;
pub mod pc;
pub mod phased;
pub mod planexec;
pub mod sc;
pub mod wait;

pub use barrier::{ButterflyBarrier, CounterBarrier, DisseminationBarrier, PhaseBarrier};
pub use doacross::{Doacross, Primitives, ProcessCtx};
pub use handle::ProcessHandle;
pub use keys::KeyTable;
pub use pad::CachePadded;
pub use par::{par_map, par_map_threads};
pub use pc::{PcPool, PcValue};
pub use phased::{PhaseSync, Phased};
pub use planexec::{run_nest, run_plan, SharedArrayStore};
pub use sc::ScPool;
pub use wait::WaitStrategy;
