//! The reference-based (data-oriented) scheme on real threads — one
//! atomic key per array element, Cedar-style.
//!
//! Provided for completeness of the paper's taxonomy on real hardware:
//! every access to a synchronized element waits for its rank
//! (`key >= rank`), performs the access, and increments the key. Compare
//! the storage: a [`KeyTable`] holds one atomic per touched element,
//! versus the `X` counters of [`crate::pc::PcPool`].
//!
//! Paper claim served: Cedar-style keys (§3.3) enforce the same order
//! as the sequential loop, so they are an independent oracle for the
//! process-oriented executor. Caller: `keyed_real_threads_match_oracle`
//! in `tests/property_random_loops.rs`, which runs random loops through
//! [`run_nest_keyed`] and checks the result against the sequential run.

use crate::pad::CachePadded;
use crate::wait::WaitStrategy;
use datasync_loopir::ir::{ArrayId, LoopNest};
use datasync_loopir::ranks::{ordered_accesses, AccessRanks};
use datasync_loopir::space::IterSpace;
use std::sync::atomic::{AtomicU64, Ordering};

/// A table of per-element keys plus the precomputed access ranks.
#[derive(Debug)]
pub struct KeyTable {
    ranks: AccessRanks,
    keys: Box<[CachePadded<AtomicU64>]>,
    strategy: WaitStrategy,
}

impl KeyTable {
    /// Builds the table for a nest (one key per synchronized element,
    /// initialized to rank 0 — the initialization overhead the paper
    /// charges data-oriented schemes for).
    pub fn new(nest: &LoopNest, space: &IterSpace) -> Self {
        let ranks = AccessRanks::compute(nest, space);
        let keys = (0..ranks.n_keys()).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        Self { ranks, keys, strategy: WaitStrategy::default() }
    }

    /// Number of synchronization variables (keys).
    pub fn n_keys(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the array's accesses are key-synchronized.
    pub fn is_synced(&self, array: ArrayId) -> bool {
        self.ranks.is_synced(array)
    }

    /// Waits for an access's turn; returns a guard-like token meaning the
    /// access may proceed (call [`KeyTable::done`] afterwards). `None`
    /// when the access needs no synchronization.
    pub fn acquire(
        &self,
        pid: u64,
        stmt: datasync_loopir::ir::StmtId,
        pos: usize,
        array: ArrayId,
        element: &[i64],
    ) -> Option<usize> {
        let rank = self.ranks.rank(pid, stmt, pos)?;
        let key = self.ranks.key(array, element).expect("ranked access must have a key");
        let cell = &*self.keys[key];
        self.strategy.wait_until(|| cell.load(Ordering::Acquire) >= rank);
        Some(key)
    }

    /// Publishes completion of an acquired access.
    pub fn done(&self, key: usize) {
        self.keys[key].fetch_add(1, Ordering::AcqRel);
    }
}

/// Runs a whole nest on real threads under the reference-based scheme
/// (abstract semantics; compare with
/// [`datasync_loopir::exec::run_sequential`]).
///
/// Iterations are claimed dynamically in increasing order, which keeps
/// the rank waits deadlock-free.
pub fn run_nest_keyed(nest: &LoopNest, threads: usize, store: &crate::planexec::SharedArrayStore) {
    assert!(threads >= 1);
    let space = IterSpace::of(nest);
    let table = KeyTable::new(nest, &space);
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (table, next, space) = (&table, &next, &space);
            scope.spawn(move || loop {
                let pid = next.fetch_add(1, Ordering::Relaxed);
                if pid >= space.count() {
                    return;
                }
                let indices = space.indices(pid);
                for stmt in nest.executed_stmts(pid) {
                    // Reads (in canonical order), then compute, then writes.
                    let mut reads = Vec::new();
                    for (pos, r) in ordered_accesses(stmt).into_iter().enumerate() {
                        let element = r.element(&indices);
                        let token = table.acquire(pid, stmt.id, pos, r.array, &element);
                        if r.kind.is_write() {
                            // Writes happen after the value is computed;
                            // buffer the position. (Tokens must be taken in
                            // canonical order, so acquire now, write below.)
                            let value = datasync_loopir::exec::stmt_value(stmt, &indices, &reads);
                            store.write(r.array, element, value);
                        } else {
                            reads.push(store.read(r.array, &element));
                        }
                        if let Some(key) = token {
                            table.done(key);
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planexec::SharedArrayStore;
    use datasync_loopir::exec::run_sequential;
    use datasync_loopir::workpatterns::{example2_nested, fig21_loop};

    #[test]
    fn fig21_keyed_matches_oracle() {
        let nest = fig21_loop(150);
        let store = SharedArrayStore::new();
        run_nest_keyed(&nest, 4, &store);
        assert_eq!(store.into_store(), run_sequential(&nest));
    }

    #[test]
    fn nested_keyed_matches_oracle() {
        let nest = example2_nested(8, 7, 2);
        let store = SharedArrayStore::new();
        run_nest_keyed(&nest, 4, &store);
        assert_eq!(store.into_store(), run_sequential(&nest));
    }

    #[test]
    fn storage_scales_with_elements() {
        let nest = fig21_loop(100);
        let space = IterSpace::of(&nest);
        let table = KeyTable::new(&nest, &space);
        assert_eq!(table.n_keys(), 104, "keys per touched element of A");
        assert!(table.is_synced(datasync_loopir::ir::ArrayId(0)));
    }

    #[test]
    fn single_thread_works() {
        let nest = fig21_loop(30);
        let store = SharedArrayStore::new();
        run_nest_keyed(&nest, 1, &store);
        assert_eq!(store.into_store(), run_sequential(&nest));
    }
}
