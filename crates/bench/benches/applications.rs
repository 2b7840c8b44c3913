//! Benchmarks of the Section 5 applications on real threads: relaxation
//! strategies (Fig 5.1) and FFT phase synchronization (Ex 5).
//!
//! Paper claims served, on real threads: E6 (asynchronous pipelining
//! beats wavefront + barrier) and E10 (pairwise phase sync beats a
//! global barrier). With `primitives`, this is the only host-time
//! measurement of the real-thread layer; the repository's `benchmark/`
//! crate times the simulator and the service only.

use datasync_bench::harness::{bench, bench_with_setup, group};
use datasync_core::phased::PhaseSync;
use datasync_workloads::fft::parallel_fft;
use datasync_workloads::relaxation::{run_pipelined, run_sequential, run_wavefront, Grid};
use datasync_workloads::Complex;

fn bench_relaxation() {
    let n = 96;
    let threads = 4;
    group(&format!("relaxation_{n}x{n}_p{threads}"));

    bench_with_setup(
        "sequential",
        || Grid::new(n),
        |grid| {
            run_sequential(&grid);
        },
    );
    bench_with_setup(
        "wavefront+barrier",
        || Grid::new(n),
        |grid| {
            run_wavefront(&grid, threads);
        },
    );
    for g_size in [1usize, 4, 16] {
        bench_with_setup(
            &format!("pipelined/{g_size}"),
            || Grid::new(n),
            |grid| {
                run_pipelined(&grid, threads, 8, g_size);
            },
        );
    }
}

fn bench_fft() {
    let n = 1 << 13;
    let x: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64 * 0.013).sin(), (i as f64 * 0.007).cos()))
        .collect();
    group(&format!("fft_{n}pts"));

    for workers in [1usize, 4] {
        for sync in [PhaseSync::Pairwise, PhaseSync::GlobalCounter, PhaseSync::GlobalDissemination]
        {
            bench(&format!("{}/{workers}", sync.name()), || {
                std::hint::black_box(parallel_fft(&x, workers, sync));
            });
        }
    }
}

fn main() {
    bench_relaxation();
    bench_fft();
}
