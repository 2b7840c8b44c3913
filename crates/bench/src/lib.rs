//! Experiment harnesses regenerating every figure and claim of the paper.
//!
//! One module per figure/claim; every module returns a [`table::Table`]
//! so `datasync reproduce` can print terminal or markdown output,
//! and the module tests assert the *shape* of each result (who wins, how
//! things scale) without pinning absolute cycle counts.
//!
//! | Module | Experiment |
//! |---|---|
//! | [`fig2`] | E1 — Fig 2.1 dependence graph + covering |
//! | [`fig3`] | E2/E3/E12 — Section 3 scheme comparison and storage scaling |
//! | [`fig4`] | E4/E5 — statement-oriented serialization vs PCs; X sweep |
//! | [`fig51`] | E6 — wavefront vs asynchronous pipelining; G sweep |
//! | [`fig52`] | E7 — nested loops: linearized pids vs boundary checks |
//! | [`fig53`] | E8 — dependence sources in branches |
//! | [`fig54`] | E9 — butterfly vs counter barrier (hot-spot sweep) |
//! | [`ex5`] | E10 — FFT phases: pairwise vs global barrier (sim + threads) |
//! | [`sec6`] | E11 — sync-bus traffic and write coalescing |
//! | [`ablations`] | A1-A4 — memory model, spin retry, X:P ratio, dispatch cost |
//! | [`robustness`] | R1 — scheme degradation under deterministic fault injection |
//! | [`chaos`] | R2 — seeded chaos fuzzing with shrinking reproducers |
//! | [`perf`] | Self-benchmark — fast-forward kernel and sweep-runner speedups |
//! | [`scale`] | P-scaling curve — kernel throughput at P = 8 → 1024 |
//! | [`serve`] | Sweep-service load generator — cached throughput, shed storm, crash-resume drill |
//!
//! [`run_all`] fans the experiments across cores via [`sweep`]; every
//! experiment is a pure function of its parameters, so the parallel run
//! produces byte-identical tables in the same order as a serial one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod chaos;
pub mod ex5;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig51;
pub mod fig52;
pub mod fig53;
pub mod fig54;
pub mod harness;
pub mod perf;
pub mod robustness;
pub mod scale;
pub mod sec6;
pub mod serve;
pub mod sweep;
pub mod table;

use sweep::TableJob;
use table::Table;

/// Runs every experiment at its default (paper-shape) parameters.
///
/// `quick` shrinks problem sizes for smoke runs.
pub fn run_all(quick: bool) -> Vec<Table> {
    let (n, relax_n, fft_n) = if quick { (24, 9, 1 << 10) } else { (64, 33, 1 << 14) };
    let jobs: Vec<TableJob> = vec![
        Box::new(fig2::run),
        Box::new(move || fig3::comparison(n, 4, 8)),
        Box::new(move || fig3::storage_scaling(&[n / 2, n, n * 2], 4, 8)),
        Box::new(move || fig4::delay_injection(n, 8, n as u64 / 4, 400)),
        Box::new(move || fig4::x_sweep(n, 4, &[1, 2, 4, 8, 16])),
        Box::new(move || fig51::run_experiment(relax_n, 4, 24, &[1, 2, 4, 8])),
        Box::new(move || fig51::p_sweep(relax_n, 24, &[1, 2, 4, 8])),
        Box::new(|| fig52::run_experiment(8, 10, 4)),
        Box::new(move || fig53::run_experiment(n, 4)),
        Box::new(|| fig54::run_experiment(&[2, 4, 8, 16, 32], 8)),
        Box::new(|| ex5::sim_experiment(8, 12, 12)),
        Box::new(move || ex5::fft_experiment(fft_n, &[1, 2, 4, 8])),
        Box::new(move || sec6::run_experiment(n, 4)),
        Box::new(move || sec6::fabric_ablation(n, 4)),
        Box::new(move || sec6::cache_ablation(n, 4)),
        Box::new(move || sec6::cache_sweep(n, 4)),
        Box::new(move || ablations::banked_memory(n, 4, 8)),
        Box::new(|| ablations::spin_retry(8, &[1, 2, 4, 8, 16])),
        Box::new(move || ablations::x_to_p_grid(n, &[2, 4, 8], &[1, 2, 4])),
        Box::new(move || ablations::dispatch_cost(n, 4, &[0, 2, 8, 16])),
        Box::new(move || ablations::schedule_order(n, 4, 8)),
        Box::new(move || ablations::unroll_sweep(n, 4, &[1, 2, 4, 8])),
        Box::new(move || {
            robustness::degradation(if quick { 10 } else { 24 }, 4, &[0, 25, 50, 75], 1989)
        }),
    ];
    sweep::run_tables(jobs)
}
