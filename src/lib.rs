//! Umbrella crate for the reproduction of Su & Yew, *On Data
//! Synchronization for Multiprocessors* (ISCA 1989).
//!
//! Re-exports every member crate under a short alias so downstream code
//! (and the quickstart below) can depend on one crate:
//!
//! | Alias | Crate | Layer |
//! |---|---|---|
//! | [`loopir`] | `datasync-loopir` | loop IR, dependence analysis, sync placement |
//! | [`schemes`] | `datasync-schemes` | the five scheme families compiled onto the simulator |
//! | [`sim`] | `datasync-sim` | cycle-driven machine: fabric / memory / dispatch / recovery |
//! | [`core`] | `datasync-core` | the schemes on real threads (PC pools, barriers) |
//! | [`workloads`] | `datasync-workloads` | relaxation, FFT, PDE, random-loop generators |
//! | [`serve`] | `datasync-serve` | sweep-as-a-service: HTTP/JSONL server, journaled run cache |
//!
//! # Quickstart
//!
//! Compile the paper's Fig 2.1 loop with the improved process-oriented
//! scheme, run it on 4 simulated processors over each sync-fabric
//! backend, and check that the dedicated bus (the paper's §6 design)
//! loses nothing to a zero-latency oracle while the shared bus pays:
//!
//! ```
//! use datasync_repro::loopir::analysis::analyze;
//! use datasync_repro::loopir::space::IterSpace;
//! use datasync_repro::loopir::workpatterns::fig21_loop;
//! use datasync_repro::schemes::cell::machine_for;
//! use datasync_repro::schemes::scheme::Scheme;
//! use datasync_repro::schemes::ProcessOriented;
//! use datasync_repro::sim::{FabricKind, MachineConfig};
//!
//! let nest = fig21_loop(16);
//! let graph = analyze(&nest);
//! let space = IterSpace::of(&nest);
//! let scheme = ProcessOriented::new(8);
//! let compiled = scheme.compile(&nest, &graph, &space);
//!
//! let mut makespans = Vec::new();
//! for kind in FabricKind::ALL {
//!     let config = machine_for(&scheme, MachineConfig::with_processors(4).fabric(kind));
//!     let out = compiled.run(&config).expect("run");
//!     assert!(compiled.validate(&out).is_empty(), "dependence order broken");
//!     makespans.push((kind, out.stats.makespan));
//! }
//! let by = |k: FabricKind| makespans.iter().find(|(f, _)| *f == k).unwrap().1;
//! assert!(by(FabricKind::Ideal) <= by(FabricKind::Dedicated));
//! assert!(by(FabricKind::Dedicated) <= by(FabricKind::Shared));
//! ```

#![warn(missing_docs)]

pub use datasync_core as core;
pub use datasync_loopir as loopir;
pub use datasync_schemes as schemes;
pub use datasync_serve as serve;
pub use datasync_sim as sim;
pub use datasync_workloads as workloads;
