//! Micro-benchmarks of the real-thread primitives: process-counter
//! operations and barrier episodes. Plain `main` on the in-tree harness.
//!
//! Paper claims served, on real threads: E4 (one slow iteration
//! serializes statement counters but not process counters, and the
//! per-operation cost of the Fig 4.3 primitives of
//! `datasync_core::handle`) and E9 (butterfly vs dissemination vs
//! counter barrier).
//! With `applications`, this is the only host-time measurement of the
//! real-thread layer; the repository's `benchmark/` crate times the
//! simulator and the service only.

use datasync_bench::harness::{bench, bench_with_setup, group};
use datasync_core::barrier::{
    ButterflyBarrier, CounterBarrier, DisseminationBarrier, PhaseBarrier,
};
use datasync_core::handle::ProcessHandle;
use datasync_core::pc::PcPool;

fn bench_pc_ops() {
    group("pc_primitives");

    bench_with_setup(
        "mark+transfer (uncontended)",
        || PcPool::new(16),
        |pool| {
            let mut h = ProcessHandle::load_index(&pool, 0);
            h.mark_pc(1);
            h.mark_pc(2);
            h.transfer_pc();
        },
    );

    let pool = PcPool::new(16);
    pool.set_pc(3, 5);
    bench("wait_pc satisfied", || pool.wait_pc(4, 1, 3));

    bench_with_setup(
        "handoff chain x1000",
        || PcPool::new(8),
        |pool| {
            for pid in 0..1000u64 {
                let mut h = ProcessHandle::load_index(&pool, pid);
                h.mark_pc(1);
                h.transfer_pc();
            }
        },
    );
}

fn bench_barriers() {
    group("barrier_100_episodes");

    fn run(barrier: &dyn PhaseBarrier, p: usize) {
        std::thread::scope(|s| {
            for pid in 0..p {
                s.spawn(move || {
                    for _ in 0..100 {
                        barrier.wait(pid);
                    }
                });
            }
        });
    }

    for p in [2usize, 4, 8] {
        bench_with_setup(
            &format!("butterfly/{p}"),
            || ButterflyBarrier::new(p),
            |bar| run(&bar, p),
        );
        bench_with_setup(
            &format!("dissemination/{p}"),
            || DisseminationBarrier::new(p),
            |bar| run(&bar, p),
        );
        bench_with_setup(&format!("counter/{p}"), || CounterBarrier::new(p), |bar| run(&bar, p));
    }
}

/// The E4 story on real threads: one slow iteration; statement counters
/// serialize every later iteration's update, process counters do not.
fn bench_sc_vs_pc_skew() {
    use datasync_core::sc::ScPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    let n = 400u64;
    let threads = 4;
    let slow = move |pid: u64| {
        if pid == 50 {
            // ~30us of real work
            let mut h = 0u64;
            for i in 0..60_000u64 {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(h);
        }
    };

    group("skewed_chain_real_threads");

    bench("statement-counters", || {
        let scs = ScPool::new(1);
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (scs, next) = (&scs, &next);
                s.spawn(move || loop {
                    let pid = next.fetch_add(1, Ordering::Relaxed);
                    if pid >= n {
                        return;
                    }
                    scs.await_sc(0, pid, 4);
                    slow(pid);
                    scs.advance(0, pid); // serial handoff
                });
            }
        });
    });

    bench("process-counters", || {
        datasync_core::doacross::Doacross::new(n)
            .threads(threads)
            .pcs(16)
            .run(|pid, ctx| {
                ctx.wait(4, 1);
                slow(pid);
                ctx.mark(1); // independent per-iteration mark
            });
    });
}

fn main() {
    bench_pc_ops();
    bench_barriers();
    bench_sc_vs_pc_skew();
}
